"""Self-supervised objective: analytic loss oracles, gradient checks, momentum law."""

import itertools
import multiprocessing
import os
import time

import numpy as np
import pytest

from patchmil import backbone as bb
from patchmil import selfsup as S
from patchmil import tensor as T
from patchmil.errors import ConfigError, ContractViolation, NumericError, WorkerError


@pytest.fixture(autouse=True)
def float64_mode():
    with T.default_dtype(np.float64):
        yield


SMALL_ARCH = bb.ArchConfig(
    side=16, local_channels=(4, 4, 8), global_dim=8, heads=2, window=4,
    embed_dim=8, parts=2,
)


def reference_resized_crop(img, crop, r, c):
    """The crop-zoom as one 3-D `ndimage.zoom` of the (H, W, 3) crop."""
    from scipy import ndimage

    side = img.shape[0]
    patch = img[r : r + crop, c : c + crop]
    if crop == side:
        return patch
    zoom = side / crop
    return ndimage.zoom(patch, (zoom, zoom, 1.0), order=1)[:side, :side]


class TestAugment:
    @pytest.mark.parametrize("crop", range(26, 33))
    def test_crop_zoom_equals_3d_zoom(self, crop):
        img = np.random.default_rng(crop).uniform(size=(32, 32, 3))
        r = c = (32 - crop) // 2
        got = S._resized_crop(img, crop, r, c)
        want = reference_resized_crop(img, crop, r, c)
        assert got.shape == want.shape == (32, 32, 3)
        assert got.tobytes() == want.tobytes()

    def test_view_batches_equal_3d_zoom_reference(self, monkeypatch):
        patches = np.random.default_rng(4).uniform(size=(12, 32, 32, 3))
        cfg = S.SSLConfig(arch=bb.ArchConfig(), epochs=2, batch_size=4, seed=9)
        got = list(S.view_batches(patches, cfg))
        monkeypatch.setattr(S, "_resized_crop", reference_resized_crop)
        want = list(S.view_batches(patches, cfg))
        assert len(got) == len(want) == 6
        for (gs, gt), (ws, wt) in zip(got, want):
            assert gs.tobytes() == ws.tobytes() and gt.tobytes() == wt.tobytes()

    def test_reproducible_under_seed(self):
        patch = np.random.default_rng(0).uniform(size=(16, 16, 3))
        a_s, a_t = S.augment(patch, np.random.default_rng(42))
        b_s, b_t = S.augment(patch, np.random.default_rng(42))
        np.testing.assert_array_equal(a_s, b_s)
        np.testing.assert_array_equal(a_t, b_t)

    def test_views_drawn_independently(self):
        patch = np.random.default_rng(0).uniform(size=(16, 16, 3))
        view_s, view_t = S.augment(patch, np.random.default_rng(1))
        assert not np.array_equal(view_s, view_t)

    def test_zero_patch_stays_near_zero(self):
        # a black patch can only gain the additive jitter offset (<= 0.1)
        view_s, view_t = S.augment(np.zeros((16, 16, 3)), np.random.default_rng(2))
        assert view_s.max() <= 0.1 + 1e-12
        assert view_t.max() <= 0.1 + 1e-12

    def test_range_stays_in_unit_interval(self):
        rng = np.random.default_rng(3)
        for _ in range(1000):
            patch = rng.uniform(size=(8, 8, 3))
            view = S.apply_view(patch, S.draw_view(rng, 8))
            assert view.shape == (8, 8, 3)
            assert view.min() >= 0.0 and view.max() <= 1.0


class TestGlobalLoss:
    def test_identical_is_zero(self):
        z = np.random.default_rng(0).normal(size=8)
        assert abs(S.global_loss(z, z).item()) < 1e-6

    def test_orthogonal_is_two(self):
        assert abs(S.global_loss([1.0, 0.0], [0.0, 1.0]).item() - 2.0) < 1e-6

    def test_antipodal_is_four(self):
        z = np.random.default_rng(1).normal(size=5)
        assert abs(S.global_loss(z, -z).item() - 4.0) < 1e-6

    def test_scale_invariance(self):
        rng = np.random.default_rng(2)
        zs, zt = rng.normal(size=6), rng.normal(size=6)
        base = S.global_loss(zs, zt).item()
        for c in (0.1, 10.0):
            assert abs(S.global_loss(c * zs, zt).item() - base) < 1e-6
            assert abs(S.global_loss(zs, c * zt).item() - base) < 1e-6

    def test_zero_norm_raises(self):
        with pytest.raises(NumericError):
            S.global_loss(np.zeros(4), np.ones(4))

    def test_rows_against_one_row_raises(self):
        rng = np.random.default_rng(4)
        with pytest.raises(ContractViolation, match=r"\(4, 3\) vs \(1, 3\)"):
            S.global_loss(rng.normal(size=(4, 3)), rng.normal(size=(1, 3)))

    def test_range_on_random_inputs(self):
        rng = np.random.default_rng(3)
        for _ in range(1000):
            v = S.global_loss(rng.normal(size=6), rng.normal(size=6)).item()
            assert -1e-9 <= v <= 4.0 + 1e-9


class TestPartsLoss:
    def test_identical_is_zero(self):
        z = np.random.default_rng(0).normal(size=(4, 8))
        assert abs(S.parts_loss(z, z).item()) < 1e-6

    def test_equal_plus_antipodal_rows(self):
        zs = np.array([[1.0, 2.0], [0.5, -1.0]])
        zt = np.array([[1.0, 2.0], [-0.5, 1.0]])
        assert abs(S.parts_loss(zs, zt).item() - 4.0) < 1e-6

    def test_matches_rowwise_global_loss(self):
        rng = np.random.default_rng(1)
        zs, zt = rng.normal(size=(4, 8)), rng.normal(size=(4, 8))
        expected = sum(S.global_loss(zs[k], zt[k]).item() for k in range(4))
        assert abs(S.parts_loss(zs, zt).item() - expected) < 1e-9

    def test_zero_row_names_part(self):
        zs = np.ones((3, 4))
        zs[2] = 0.0
        with pytest.raises(NumericError, match="k=2"):
            S.parts_loss(zs, np.ones((3, 4)))

    def test_range(self):
        rng = np.random.default_rng(2)
        for _ in range(1000):
            v = S.parts_loss(rng.normal(size=(4, 5)), rng.normal(size=(4, 5))).item()
            assert -1e-9 <= v <= 16.0 + 1e-9


class TestVarianceLoss:
    def test_identical_rows(self):
        batch = np.tile(np.random.default_rng(0).normal(size=6), (5, 1))
        v = S.variance_loss(batch, epsilon=1e-4).item()
        assert abs(v - (1.0 - np.sqrt(1e-4))) < 1e-9  # 0.99

    def test_plus_minus_one_single_dim(self):
        assert abs(S.variance_loss(np.array([[1.0], [-1.0]]), 1e-4).item()) < 1e-12

    def test_saturated_hinge(self):
        batch = np.diag([5.0, -5.0, 5.0]) @ np.ones((3, 4))
        assert S.variance_loss(batch).item() == 0.0

    def test_needs_two_rows(self):
        with pytest.raises(ContractViolation):
            S.variance_loss(np.ones((1, 4)))

    def test_permutation_invariant(self):
        rng = np.random.default_rng(1)
        batch = rng.normal(size=(6, 5))
        perm = rng.permutation(6)
        assert abs(
            S.variance_loss(batch).item() - S.variance_loss(batch[perm]).item()
        ) < 1e-12

    def test_range(self):
        rng = np.random.default_rng(2)
        for _ in range(1000):
            v = S.variance_loss(rng.normal(size=(4, 3))).item()
            assert -1e-12 <= v <= 1.0 + 1e-12


class TestCovarianceLoss:
    def test_decorrelated_batch(self):
        assert abs(S.covariance_loss(np.array([[1.0, 0.0], [-1.0, 0.0]])).item()) < 1e-12

    def test_correlated_batch_is_four(self):
        batch = np.array([[1.0, 1.0], [-1.0, -1.0]])
        assert abs(S.covariance_loss(batch).item() - 4.0) < 1e-9

    def test_matches_two_loop_oracle(self):
        rng = np.random.default_rng(0)
        batch = rng.normal(size=(5, 4))
        n, d = batch.shape
        mean = batch.mean(axis=0)
        cov = np.zeros((d, d))
        for row in batch:
            c = row - mean
            for i in range(d):
                for j in range(d):
                    cov[i, j] += c[i] * c[j]
        cov /= n - 1
        expected = sum(
            cov[i, j] ** 2 for i in range(d) for j in range(d) if i != j
        ) / (d * d - d)
        assert abs(S.covariance_loss(batch).item() - expected) < 1e-6

    def test_centering_invariance(self):
        rng = np.random.default_rng(1)
        batch = rng.normal(size=(6, 4))
        shift = rng.normal(size=4)
        assert abs(
            S.covariance_loss(batch).item() - S.covariance_loss(batch + shift).item()
        ) < 1e-9

    def test_single_dim_raises(self):
        with pytest.raises(ContractViolation):
            S.covariance_loss(np.ones((3, 1)))

    def test_nonnegative(self):
        rng = np.random.default_rng(2)
        for _ in range(1000):
            assert S.covariance_loss(rng.normal(size=(4, 3))).item() >= -1e-12


class TestTotalLoss:
    W = S.LossWeights()

    def test_zero_components(self):
        terms = {k: T.Tensor(0.0) for k in S.LOSS_TERMS}
        assert S.total_loss(terms, self.W).item() == 0.0

    def test_paper_weights_arithmetic(self):
        terms = {
            "global": T.Tensor(1.0), "parts": T.Tensor(2.0),
            "var": T.Tensor(0.5), "cov": T.Tensor(4.0),
        }
        assert abs(S.total_loss(terms, self.W).item() - 5.52) < 1e-9

    def test_zero_weights_reduce_to_cosine_terms(self):
        weights = S.LossWeights(gamma=0.0, lam=0.0)
        terms = {
            "global": T.Tensor(1.5), "parts": T.Tensor(0.25),
            "var": T.Tensor(9.0), "cov": T.Tensor(9.0),
        }
        assert abs(S.total_loss(terms, weights).item() - 1.75) < 1e-12

    def test_nan_component_named(self):
        terms = {"global": T.Tensor(float("nan"))}
        with pytest.raises(NumericError, match="global"):
            S.total_loss(terms, self.W)


class TestMomentumUpdate:
    def test_m_zero_copies_student(self):
        student = {"w": T.parameter([1.0, 2.0])}
        teacher = {"w": T.parameter([9.0, 9.0], requires_grad=False)}
        S.momentum_update(student, teacher, 0.0)
        np.testing.assert_allclose(teacher["w"].data, [1.0, 2.0])

    def test_single_step_mixes(self):
        student = {"w": T.parameter([0.0])}
        teacher = {"w": T.parameter([1.0], requires_grad=False)}
        S.momentum_update(student, teacher, 0.99)
        np.testing.assert_allclose(teacher["w"].data, [0.99])

    def test_geometric_decay_closed_form(self):
        theta = np.array([0.3, -0.7])
        eta0 = np.array([1.0, 2.0])
        student = {"w": T.parameter(theta)}
        teacher = {"w": T.parameter(eta0.copy(), requires_grad=False)}
        for _ in range(100):
            S.momentum_update(student, teacher, 0.99)
        expected = theta + (eta0 - theta) * 0.99**100
        np.testing.assert_allclose(teacher["w"].data, expected, atol=1e-5)

    def test_teacher_heads_are_student_heads_minus_predictors(self):
        cfg = S.SSLConfig(arch=SMALL_ARCH, epochs=1, batch_size=4, seed=5)
        state = S.SSLState(cfg)
        student = state.student_heads
        assert any(k.startswith("p_") for k in student)
        assert list(state.teacher_heads) == [k for k in student if not k.startswith("p_")]
        for key, p in state.teacher_heads.items():
            np.testing.assert_array_equal(p.data, student[key].data)
            assert p is not student[key] and not p.requires_grad

    def test_key_without_student_twin_raises(self):
        student = {"g_sg_1_w": T.parameter([2.0])}
        teacher = {"g_tg_1_w": T.parameter([0.0], requires_grad=False)}
        with pytest.raises(ContractViolation, match="g_tg_1_w"):
            S.momentum_update(student, teacher, 0.5)

    def test_shape_mismatch_raises(self):
        student = {"w": T.parameter([1.0, 2.0])}
        teacher = {"w": T.parameter([1.0], requires_grad=False)}
        with pytest.raises(ContractViolation):
            S.momentum_update(student, teacher, 0.9)

    def test_invalid_momentum_raises(self):
        with pytest.raises(ContractViolation):
            S.momentum_update({}, {}, 1.0)


class TestLossGradients:
    """Autodiff vs the finite-difference oracle for every objective term."""

    def test_global_loss_wrt_student(self):
        rng = np.random.default_rng(0)
        z_t = rng.normal(size=8)
        err = T.check_gradient(lambda t: S.global_loss(t, T.Tensor(z_t)), rng.normal(size=8), step=1e-5)
        assert err < 1e-6

    def test_parts_loss(self):
        rng = np.random.default_rng(1)
        z_t = rng.normal(size=(4, 6))
        err = T.check_gradient(lambda t: S.parts_loss(t, T.Tensor(z_t)), rng.normal(size=(4, 6)), step=1e-5)
        assert err < 1e-6

    def test_variance_loss(self):
        rng = np.random.default_rng(2)
        err = T.check_gradient(lambda t: S.variance_loss(t), rng.normal(size=(5, 4)) * 0.3, step=1e-5)
        assert err < 1e-6

    def test_covariance_loss(self):
        rng = np.random.default_rng(3)
        err = T.check_gradient(lambda t: S.covariance_loss(t), rng.normal(size=(4, 3)), step=1e-5)
        assert err < 1e-6

    def test_covariance_autodiff_matches_fd_oracle_directly(self):
        # the finite-difference estimate is itself the oracle here
        rng = np.random.default_rng(4)
        x = rng.normal(size=(4, 3))
        leaf = T.parameter(x)
        S.covariance_loss(leaf).backward()
        fd = T.finite_difference_gradient(
            lambda v: S.covariance_loss(T.Tensor(v)).item(), x, 1e-4
        )
        assert T.max_relative_error(leaf.grad, fd) < 1e-3


def tape_nodes(root):
    """Tape nodes (op outputs with a backward) reachable from `root`."""
    seen, stack, count = set(), [root], 0
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            count += node._backward is not None
            stack.extend(node._parents)
    return count


class TestPretrainStep:
    def test_tape_size_at_the_desk_arch(self, monkeypatch):
        """A guard against a growing tape: the nodes one step's loss reaches at the desk arch."""
        arch = bb.ArchConfig(local_channels=(8, 16, 32), global_dim=32, embed_dim=32)
        state = S.SSLState(S.SSLConfig(arch=arch, epochs=1, batch_size=4, seed=5))
        losses = []
        backward = T.Tensor.backward

        def record(loss):
            losses.append(loss)
            backward(loss)

        monkeypatch.setattr(T.Tensor, "backward", record)
        views = np.random.default_rng(10).uniform(size=(2, 4, 32, 32, 3))
        S.pretrain_step(views[0], views[1], state, lr=0.01)
        assert [tape_nodes(loss) for loss in losses] == [208]

    def make_state(self, **kw):
        cfg = S.SSLConfig(arch=SMALL_ARCH, epochs=1, batch_size=4, lr=0.01, seed=5, **kw)
        return S.SSLState(cfg)

    def test_batch_of_one_rejected(self):
        state = self.make_state()
        v = np.zeros((1, 16, 16, 3))
        with pytest.raises(ContractViolation):
            S.pretrain_step(v, v, state, lr=0.01)

    def test_identical_views_tied_weights_zero_cosine_losses(self):
        state = self.make_state()
        views = np.random.default_rng(6).uniform(size=(4, 16, 16, 3))
        # student prediction heads must be exact identities for z_s == z_t;
        # a +100 bias shifted back after the hidden ReLU keeps it linear
        for prefix in ("p_sg", "p_so"):
            h = state.student_heads
            h[f"{prefix}_1_w"].data[...] = np.eye(h[f"{prefix}_1_w"].shape[0])
            h[f"{prefix}_1_b"].data[...] = 100.0
            h[f"{prefix}_2_w"].data[...] = np.eye(h[f"{prefix}_2_w"].shape[0])
            h[f"{prefix}_2_b"].data[...] = -100.0
        # the teacher starts as the student minus its predictors
        terms = S._pair_terms(state, views, views)
        assert abs(terms["global"].item()) < 1e-9
        assert abs(terms["parts"].item()) < 1e-9

    def test_teacher_moves_toward_student(self):
        state = self.make_state()
        pre_student = state.student["lb0_w"].data.copy()
        pre_teacher = state.teacher["lb0_w"].data.copy()
        rng = np.random.default_rng(7)
        views_s = rng.uniform(size=(4, 16, 16, 3))
        views_t = rng.uniform(size=(4, 16, 16, 3))
        S.pretrain_step(views_s, views_t, state, lr=0.01)
        m = state.cfg.weights.momentum
        expected = m * pre_teacher + (1 - m) * state.student["lb0_w"].data
        # teacher mixes with the post-step student (update runs after the step)
        np.testing.assert_allclose(state.teacher["lb0_w"].data, expected, atol=1e-12)
        assert not np.array_equal(pre_student, state.student["lb0_w"].data)

    def test_losses_stay_finite_over_random_steps(self):
        state = self.make_state()
        rng = np.random.default_rng(8)
        for _ in range(10):
            views_s = rng.uniform(size=(4, 16, 16, 3))
            views_t = rng.uniform(size=(4, 16, 16, 3))
            report = S.pretrain_step(views_s, views_t, state, lr=0.05)
            assert np.isfinite(report["all"])

    @pytest.mark.parametrize("batch_size", [0, 1])
    def test_batch_below_two_is_config_error(self, batch_size):
        with pytest.raises(ConfigError, match=f"at least 2, got {batch_size}"):
            S.SSLConfig(arch=SMALL_ARCH, batch_size=batch_size).validate()

    def test_toggle_validation(self):
        with pytest.raises(ConfigError):
            S.SSLConfig(arch=SMALL_ARCH, loss_terms=("parts",)).validate()
        with pytest.raises(ConfigError):
            S.SSLConfig(arch=SMALL_ARCH, loss_terms=("global", "bogus")).validate()

    def test_toggled_off_terms_report_zero(self):
        state = self.make_state(loss_terms=("global",))
        rng = np.random.default_rng(9)
        report = S.pretrain_step(
            rng.uniform(size=(4, 16, 16, 3)), rng.uniform(size=(4, 16, 16, 3)), state, 0.01
        )
        assert report["parts"] == 0.0 and report["var"] == 0.0 and report["cov"] == 0.0


class TestPretrainLoop:
    def test_no_full_batch_gives_no_record(self):
        cfg = S.SSLConfig(arch=SMALL_ARCH, epochs=2, batch_size=4, seed=5)
        records = []
        state = S.pretrain(np.zeros((1, 16, 16, 3)), cfg, progress=records.append)
        assert records == []
        assert state.step_count == 0

    def make(self):
        """10 patches in batches of 4: 2 batches per epoch, 4 steps in all."""
        cfg = S.SSLConfig(arch=SMALL_ARCH, epochs=2, batch_size=4, lr=0.01, seed=5)
        return np.random.default_rng(3).uniform(size=(10, 16, 16, 3)), cfg

    def assert_worker_equals_in_process_reference(self, dtype):
        patches, cfg = self.make()
        records = []
        with T.default_dtype(dtype):
            state = S.pretrain(patches, cfg, progress=records.append)
            reference = S.SSLState(cfg)
            expected = []
            for k, (views_s, views_t) in enumerate(S.view_batches(patches, cfg)):
                assert views_s.dtype == views_t.dtype == dtype  # as the encoder reads them
                lr = S.cosine_lr(cfg.lr, reference.step_count, cfg.epochs * 2)
                report = S.pretrain_step(views_s, views_t, reference, lr)
                expected.append({"epoch": k // 2, "step": k + 1, **report})
        # the records hold the reports' own floats: exact equality
        assert len(expected) == 4 and records == expected
        for group in ("student", "student_heads", "teacher", "teacher_heads"):
            ours, theirs = getattr(state, group), getattr(reference, group)
            assert ours.keys() == theirs.keys()
            for key in ours:
                assert ours[key].data.tobytes() == theirs[key].data.tobytes(), (group, key)

    def test_worker_equals_in_process_reference(self):
        self.assert_worker_equals_in_process_reference(np.float64)

    def test_worker_equals_in_process_reference_in_float32(self):
        self.assert_worker_equals_in_process_reference(np.float32)

    def test_record_is_a_new_dict_and_the_report_is_untouched(self, monkeypatch):
        patches, cfg = self.make()
        reports, records = [], []
        step = S.pretrain_step

        def spy(*args):
            reports.append(step(*args))
            return reports[-1]

        monkeypatch.setattr(S, "pretrain_step", spy)
        S.pretrain(patches, cfg, progress=records.append)
        assert len(records) == 4
        for k, (record, report) in enumerate(zip(records, reports)):
            assert set(report) == {*S.LOSS_TERMS, "all", "lr", "grad_norm"}
            assert record is not report and record == {"epoch": k // 2, "step": k + 1, **report}

    def test_augment_error_in_worker_raises_its_type(self, monkeypatch):
        patches, cfg = self.make()

        def broken_apply(patch, params):
            raise NumericError("augment broke")

        monkeypatch.setattr(S, "apply_view", broken_apply)
        with pytest.raises(NumericError, match="augment broke") as info:
            S.pretrain(patches, cfg)
        assert "broken_apply" in str(info.value.__cause__)  # the worker's traceback
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("die_at", [0, 9])
    def test_worker_exiting_silently_raises(self, monkeypatch, die_at):
        patches, cfg = self.make()
        # each worker counts its own calls; 4 batches of 8 calls over at most
        # PREFETCH = 2 workers, so one worker reaches call 9
        calls = itertools.count()

        def dying_apply(patch, params):
            if next(calls) == die_at:
                os._exit(1)
            return patch

        monkeypatch.setattr(S, "apply_view", dying_apply)
        start = time.monotonic()
        with pytest.raises(WorkerError, match="exited without a result"):
            S.pretrain(patches, cfg)
        assert time.monotonic() - start < 5
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize(
        "where, error", [(None, None), ("progress", RuntimeError), ("pretrain_step", RuntimeError),
                         ("pretrain_step", KeyboardInterrupt)],
    )
    def test_no_worker_left_after_pretrain(self, monkeypatch, where, error):
        patches, cfg = self.make()

        def fail(*args):
            raise error("stop here")

        if where == "pretrain_step":
            monkeypatch.setattr(S, "pretrain_step", fail)
        if error is None:
            S.pretrain(patches, cfg)
        else:
            with pytest.raises(error, match="stop here"):
                S.pretrain(patches, cfg, progress=fail if where == "progress" else None)
        assert multiprocessing.active_children() == []
