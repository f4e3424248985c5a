"""MIL head: attention equivariance, pooling oracles, cross-entropy checks."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from patchmil import mil as M
from patchmil import tensor as T
from patchmil.errors import ConfigError, ContractViolation


@pytest.fixture(autouse=True)
def float64_mode():
    with T.default_dtype(np.float64):
        yield


CFG = M.MILConfig(feature_dim=16, heads=2, n_classes=7)


def make_params(cfg=CFG, seed=0):
    return M.init_mil(np.random.default_rng(seed), cfg)


def random_bag(cfg=CFG, i=5, seed=1, label=0):
    rng = np.random.default_rng(seed)
    side = int(np.ceil(np.sqrt(i)))
    pos = np.array([(k // side, k % side) for k in range(i)])
    return M.Bag(rng.normal(size=(i, cfg.feature_dim)), pos, label)


def refine_bag(instances, positions, params, cfg=CFG):
    """msa_refine of one bag as a batch of one: (I, C) instances in, (I, C) out."""
    refined, _ = M.msa_refine(T.as_tensor(instances)[None], np.asarray(positions)[None], params, cfg)
    return refined[0]


class TestBagType:
    def test_empty_bag_rejected(self):
        with pytest.raises(ContractViolation):
            M.Bag(np.zeros((0, 8)), np.zeros((0, 2)), 0)

    def test_duplicate_positions_rejected(self):
        with pytest.raises(ContractViolation):
            M.Bag(np.zeros((2, 8)), np.array([[0, 0], [0, 0]]), 0)


class TestMsaRefine:
    def test_single_instance_zero_proj_is_identity(self):
        params = make_params()
        params["msa0_proj_w"].data[...] = 0.0
        params["msa0_proj_b"].data[...] = 0.0
        params["msa0_mlp2_w"].data[...] = 0.0
        params["msa0_mlp2_b"].data[...] = 0.0
        bag = random_bag(i=1)
        out = refine_bag(bag.instances, bag.positions, params, CFG)
        np.testing.assert_allclose(out.numpy(), bag.instances, atol=1e-12)

    def test_single_instance_zero_ffn_adds_value_path(self):
        params = make_params()
        params["msa0_mlp2_w"].data[...] = 0.0
        params["msa0_mlp2_b"].data[...] = 0.0
        bag = random_bag(i=1)
        out = refine_bag(bag.instances, bag.positions, params, CFG)
        # single token: attention weight is exactly 1, so out = z + proj(v)
        assert not np.allclose(out.numpy(), bag.instances)

    def test_identical_instances_zero_bias_give_identical_outputs(self):
        params = make_params()
        params["msa0_bias"].data[...] = 0.0
        z = np.random.default_rng(2).normal(size=16)
        inst = np.stack([z, z])
        pos = np.array([[0, 0], [0, 5]])
        out = refine_bag(inst, pos, params, CFG).numpy()
        np.testing.assert_allclose(out[0], out[1], atol=1e-12)

    def test_permutation_equivariance(self):
        params = make_params()
        params["msa0_bias"].data[...] = np.random.default_rng(3).normal(
            size=params["msa0_bias"].shape
        )
        bag = random_bag(i=6, seed=4)
        perm = np.random.default_rng(5).permutation(6)
        out = refine_bag(bag.instances, bag.positions, params, CFG).numpy()
        out_p = refine_bag(bag.instances[perm], bag.positions[perm], params, CFG).numpy()
        np.testing.assert_allclose(out_p, out[perm], atol=1e-9)

    def test_not_invariant_when_positions_fixed(self):
        # the context-aware witness: shuffling positions under instances
        # changes the output when the bias table is nonzero
        params = make_params()
        params["msa0_bias"].data[...] = np.random.default_rng(6).normal(
            size=params["msa0_bias"].shape
        )
        bag = random_bag(i=6, seed=7)
        shuffled = bag.positions[::-1].copy()
        out = refine_bag(bag.instances, bag.positions, params, CFG).numpy()
        out_s = refine_bag(bag.instances, shuffled, params, CFG).numpy()
        assert np.abs(out - out_s).max() > 1e-3

    def test_zero_bias_table_ignores_positions(self):
        params = make_params()
        params["msa0_bias"].data[...] = 0.0
        bag = random_bag(i=6, seed=8)
        out = refine_bag(bag.instances, bag.positions, params, CFG).numpy()
        out_s = refine_bag(bag.instances, bag.positions[::-1].copy(), params, CFG).numpy()
        np.testing.assert_allclose(out, out_s, atol=1e-12)

    def test_positions_outside_radius_clip(self):
        params = make_params()
        bag = M.Bag(np.random.default_rng(9).normal(size=(2, 16)),
                    np.array([[0, 0], [0, 500]]), 0)
        out = refine_bag(bag.instances, bag.positions, params, CFG)
        assert np.isfinite(out.numpy()).all()


class TestAdaptivePool:
    def test_single_instance_identity_case(self):
        params = make_params()
        bag = random_bag(i=1, seed=10)
        z_bag = M.adaptive_pool(bag.instances, params).numpy()
        h2 = bag.instances @ params["hw2_w"].numpy() + params["hw2_b"].numpy()
        np.testing.assert_allclose(z_bag, h2[0], atol=1e-12)

    def test_two_identical_instances_halve(self):
        params = make_params()
        z = np.random.default_rng(11).normal(size=16)
        z_bag = M.adaptive_pool(np.stack([z, z]), params).numpy()
        h2 = z @ params["hw2_w"].numpy() + params["hw2_b"].numpy()
        np.testing.assert_allclose(z_bag, h2 / 2.0, atol=1e-12)

    def test_weights_sum_to_one_per_coordinate(self):
        params = make_params()
        bag = random_bag(i=5, seed=12)
        _, w = M.adaptive_pool(bag.instances, params, return_weights=True)
        np.testing.assert_allclose(w.numpy().sum(axis=0), np.ones(16), atol=1e-6)

    def test_matches_two_loop_oracle(self):
        params = make_params()
        bag = random_bag(i=5, seed=13)
        z_bag = M.adaptive_pool(bag.instances, params).numpy()
        w1 = bag.instances @ params["hw1_w"].numpy() + params["hw1_b"].numpy()
        h2 = bag.instances @ params["hw2_w"].numpy() + params["hw2_b"].numpy()
        i, c = w1.shape
        expected = np.zeros(c)
        for d in range(c):
            e = np.exp(w1[:, d] - w1[:, d].max())
            soft = e / e.sum()
            expected[d] = sum(soft[j] * h2[j, d] for j in range(i)) / i
        np.testing.assert_allclose(z_bag, expected, atol=1e-6)

    def test_permutation_invariance(self):
        params = make_params()
        bag = random_bag(i=7, seed=14)
        perm = np.random.default_rng(15).permutation(7)
        a = M.adaptive_pool(bag.instances, params).numpy()
        b = M.adaptive_pool(bag.instances[perm], params).numpy()
        np.testing.assert_allclose(a, b, atol=1e-9)


class TestBaselinePools:
    def test_single_instance_all_kinds(self):
        params = make_params()
        bag = random_bag(i=1, seed=17)
        for kind in ("max", "mean", "soft", "gated_attention"):
            out = M.baseline_pool(bag.instances, kind, params).numpy()
            np.testing.assert_allclose(out, bag.instances[0], atol=1e-9)

    def test_mean_of_unit_vectors(self):
        params = make_params()
        z = np.array([[1.0, 0.0], [0.0, 1.0]])
        out = M.baseline_pool(z, "mean", params).numpy()
        np.testing.assert_allclose(out, [0.5, 0.5])

    def test_soft_pool_of_constant_bag(self):
        params = make_params()
        z = np.tile(np.random.default_rng(18).normal(size=16), (4, 1))
        out = M.baseline_pool(z, "soft", params).numpy()
        np.testing.assert_allclose(out, z[0], atol=1e-9)

    def test_gated_attention_weights_sum_to_one(self):
        params = make_params()
        z = T.as_tensor(np.random.default_rng(19).normal(size=(1, 5, 16)))
        from patchmil.backbone import _linear
        gate = T.tanh(_linear(z, params, "gate_v")) * T.sigmoid(_linear(z, params, "gate_u"))
        attn = T.softmax(_linear(gate, params, "gate_w"), axis=-2).numpy()
        np.testing.assert_allclose(attn.sum(axis=1), np.ones((1, 1)), atol=1e-6)

    def test_unknown_kind_raises(self):
        with pytest.raises(ConfigError, match="adaptive"):
            M.baseline_pool(np.ones((2, 16)), "fancy", make_params())
        with pytest.raises(ConfigError):
            M.MILConfig(pooling="fancy").validate()


class TestClassifyBag:
    def test_zero_classifier_gives_zero_logits(self):
        params = make_params()
        params["cls_w"].data[...] = 0.0
        params["cls_b"].data[...] = 0.0
        bag = random_bag(i=4, seed=20)
        logits = M.classify_bag(bag, params, CFG)
        np.testing.assert_array_equal(logits, np.zeros(7))
        assert np.argmax(logits) == 0  # tie broken at lowest index

    def test_cross_entropy_shift_invariance(self):
        rng = np.random.default_rng(21)
        logits = rng.normal(size=(3, 7))
        labels = np.array([1, 4, 6])
        a = M.cross_entropy(T.Tensor(logits), labels).item()
        b = M.cross_entropy(T.Tensor(logits + 13.7), labels).item()
        assert abs(a - b) < 1e-6

    def test_cross_entropy_gradient_is_softmax_minus_onehot(self):
        rng = np.random.default_rng(22)
        logits = rng.normal(size=7)
        label = 3
        leaf = T.parameter(logits[None])
        M.cross_entropy(leaf, [label]).backward()
        e = np.exp(logits - logits.max())
        soft = e / e.sum()
        onehot = np.eye(7)[label]
        np.testing.assert_allclose(leaf.grad[0], soft - onehot, atol=1e-5)

    def test_gradient_check_through_full_head(self):
        params = make_params()
        bag = random_bag(i=4, seed=23, label=2)

        for name in ("msa0_bias", "hw1_w", "cls_w"):
            def loss(t, name=name):
                trial = dict(params)
                trial[name] = t
                return M.cross_entropy(
                    M.bag_logits(bag.instances[None], bag.positions[None], trial, CFG), [bag.label]
                )

            err = T.check_gradient(loss, params[name].data, step=1e-5)
            assert err < 1e-6, f"{name}: {err}"


class TestOneBatchedShape:
    @pytest.mark.parametrize("fn", [M.msa_refine, M.bag_logits])
    def test_unbatched_instances_raise_naming_the_batched_shape(self, fn):
        bag = random_bag(i=4, seed=29)
        with pytest.raises(ContractViolation, match=r"\(B, I, C\) instances, got \(4, 16\)"):
            fn(bag.instances, bag.positions, make_params(), CFG)

    def test_cross_entropy_of_a_logit_vector_raises(self):
        with pytest.raises(ContractViolation, match=r"\(B, K\) logits, got \(7,\)"):
            M.cross_entropy(T.Tensor(np.zeros(7)), 3)


class TestOneBlock:
    def test_block_keys(self):
        params = make_params()
        block = ("ln1_g", "ln1_b", "qkv_w", "qkv_b", "proj_w", "proj_b", "ln2_g", "ln2_b",
                 "mlp1_w", "mlp1_b", "mlp2_w", "mlp2_b", "bias")
        assert [k for k in params if k.startswith("msa")] == [f"msa0_{name}" for name in block]
        span = 2 * M.BIAS_RADIUS + 1
        assert params["msa0_bias"].shape == (CFG.heads, span * span)

    def test_gradient_check_through_the_block(self):
        params = make_params()
        params["msa0_bias"].data[...] = np.random.default_rng(27).normal(
            size=params["msa0_bias"].shape
        )
        bag = random_bag(i=4, seed=28)

        def refined(name):
            def loss(t):
                trial = dict(params)
                trial[name] = t
                return (refine_bag(bag.instances, bag.positions, trial) ** 2).sum()
            return loss

        for name in ("msa0_qkv_w", "msa0_bias", "msa0_mlp1_w", "msa0_mlp2_w"):
            err = T.check_gradient(refined(name), params[name].data, step=1e-5)
            assert err < 1e-6, f"{name}: {err}"
        err = T.check_gradient(
            lambda t: (refine_bag(t, bag.positions, params) ** 2).sum(), bag.instances, step=1e-5,
        )
        assert err < 1e-6, f"instances: {err}"

    def test_attention_report_reads_the_map_msa_refine_made(self, monkeypatch):
        params = make_params()
        params["msa0_bias"].data[...] = np.random.default_rng(30).normal(
            size=params["msa0_bias"].shape
        )
        bag = random_bag(i=5, seed=31)
        with T.no_grad():
            refined, attn = M.msa_refine(bag.instances[None], bag.positions[None], params, CFG)
            _, weights = M.adaptive_pool(refined, params, return_weights=True)
        calls = []
        softmax = T.softmax

        def counted(*args, **kwargs):
            calls.append(args[0].shape)
            return softmax(*args, **kwargs)

        monkeypatch.setattr(T, "softmax", counted)
        report_weights, report_attn = M.attention_report(bag, params, CFG)
        # one softmax for the block and one for the pool: the map is not made again
        assert len(calls) == 2
        assert report_attn.tobytes() == attn.numpy()[0].tobytes()
        assert report_weights.tobytes() == weights.numpy()[0].tobytes()

    def test_train_mil_trains_the_block(self):
        cfg = dataclasses.replace(CFG, epochs=3, batch_size=8, seed=7)
        bags = planted_bags(cfg, n_per_class=2)
        params, history = M.train_mil(bags, bags[:5], cfg)
        assert [r["epoch"] for r in history] == [0, 1, 2]
        assert all(np.isfinite(r["loss"]) for r in history)
        fresh = M.init_mil(np.random.default_rng(cfg.seed), cfg)
        for key in ("msa0_qkv_w", "msa0_mlp2_w", "msa0_bias"):
            assert not np.array_equal(params[key].data, fresh[key].data), key


def planted_bags(cfg, n_per_class=8, i=4, noise=0.3, seed=0):
    """Linearly separable sanity set: one instance carries a class signature."""
    rng = np.random.default_rng(seed)
    sigs = rng.normal(size=(cfg.n_classes, cfg.feature_dim)) * 2.0
    bags = []
    for label in range(cfg.n_classes):
        for _ in range(n_per_class):
            inst = rng.normal(size=(i, cfg.feature_dim)) * noise
            inst[rng.integers(i)] += sigs[label]
            pos = np.array([(k // 2, k % 2) for k in range(i)])
            bags.append(M.Bag(inst, pos, label))
    return bags


def reference_train_mil(train_bags, val_bags, cfg):
    """train_mil with its own epoch loop: the reference for `train_epochs`."""
    rng = np.random.default_rng(cfg.seed)
    params = M.init_mil(rng, cfg)
    opt = M.Adam(params)
    history, best, best_acc = [], {k: p.data.copy() for k, p in params.items()}, -1.0
    labels = np.array([b.label for b in train_bags])
    for epoch in range(cfg.epochs):
        losses = []
        idx = np.arange(len(train_bags))
        rng.shuffle(idx)  # one permutation per epoch
        for s in range(0, len(idx), cfg.batch_size):
            chunk = idx[s : s + cfg.batch_size]
            inst = np.stack([train_bags[i].instances for i in chunk])
            pos = np.stack([train_bags[i].positions for i in chunk])
            loss = M.cross_entropy(M.bag_logits(inst, pos, params, cfg), labels[chunk])
            loss.backward()
            opt.step(M.LR)
            losses.append(loss.item())
        train_acc = float((M.evaluate_bags(train_bags, params, cfg) == labels).mean())
        val_labels = np.array([b.label for b in val_bags])
        val_acc = float((M.evaluate_bags(val_bags, params, cfg) == val_labels).mean())
        history.append({"epoch": epoch, "loss": float(np.mean(losses)), "train_acc": train_acc,
                        "val_acc": val_acc})
        if val_acc > best_acc:
            best_acc, best = val_acc, {k: p.data.copy() for k, p in params.items()}
    for k, p in params.items():
        p.data[...] = best[k]
    return params, history


class TestTrainMil:
    def test_equals_own_loop_reference_and_reports_each_epoch(self):
        cfg = M.MILConfig(feature_dim=16, heads=2, epochs=4, batch_size=5, seed=6)
        # 21 bags of one instance count: four full batches and a partial one
        bags = planted_bags(cfg, n_per_class=2) + [random_bag(cfg, i=4, seed=s) for s in range(7)]
        val = planted_bags(cfg, n_per_class=1, seed=1)
        records = []
        params, history = M.train_mil(bags, val, cfg, progress=records.append)
        ref_params, ref_history = reference_train_mil(bags, val, cfg)
        assert history == ref_history and records == history
        for key in ref_params:
            assert params[key].data.tobytes() == ref_params[key].data.tobytes(), key

    def test_planted_signatures_reach_high_train_accuracy(self):
        cfg = M.MILConfig(feature_dim=16, heads=2, epochs=20, batch_size=8, seed=3)
        bags = planted_bags(cfg)
        params, history = M.train_mil(bags, bags, cfg)
        preds = M.evaluate_bags(bags, params, cfg)
        labels = np.array([b.label for b in bags])
        assert (preds == labels).mean() >= 0.99

    def test_zero_epochs_keeps_initialization(self):
        cfg = M.MILConfig(feature_dim=16, heads=2, epochs=0, seed=4)
        bags = planted_bags(cfg, n_per_class=2)
        params, history = M.train_mil(bags, bags, cfg)
        fresh = M.init_mil(np.random.default_rng(cfg.seed), cfg)
        for key in params:
            np.testing.assert_array_equal(params[key].data, fresh[key].data)

    @pytest.mark.parametrize("split", ["train", "val"])
    def test_empty_train_or_val_list_is_refused(self, split):
        cfg = M.MILConfig(feature_dim=16, heads=2, epochs=1)
        bags = planted_bags(cfg, n_per_class=1)
        train, val = ([], bags) if split == "train" else (bags, [])
        with pytest.raises(ContractViolation, match="one training bag and one val bag"):
            M.train_mil(train, val, cfg)

    def test_deterministic_under_seed(self):
        cfg = M.MILConfig(feature_dim=16, heads=2, epochs=3, batch_size=8, seed=5)
        bags = planted_bags(cfg, n_per_class=3)
        _, h1 = M.train_mil(bags, bags[:10], cfg)
        _, h2 = M.train_mil(bags, bags[:10], cfg)
        assert h1 == h2

    def test_evaluate_bags_equals_taped_forward(self, monkeypatch):
        cfg = M.MILConfig(feature_dim=16, heads=2)
        params = make_params(cfg)
        params["msa0_bias"].data[...] = np.random.default_rng(26).normal(size=params["msa0_bias"].shape)
        bags = planted_bags(cfg, n_per_class=2) + [random_bag(cfg, i=4, seed=s) for s in range(3)]
        logits = M.bag_logits(np.stack([b.instances for b in bags]),
                              np.stack([b.positions for b in bags]), params, cfg)
        assert logits._backward is not None
        taped = np.argmax(logits.numpy(), axis=1)
        outputs = []
        bag_logits = M.bag_logits

        def spy(*args):
            outputs.append(bag_logits(*args))
            return outputs[-1]

        monkeypatch.setattr(M, "bag_logits", spy)
        preds = M.evaluate_bags(bags, params, cfg)
        # fewer bags than SCORE_CHUNK: one forward over the whole stack, off the tape
        assert len(outputs) == 1 and all(o._backward is None for o in outputs)
        assert preds.tobytes() == taped.tobytes()
        one = M.classify_bag(bags[-1], params, cfg)
        assert outputs[-1]._backward is None
        ref = bag_logits(bags[-1].instances[None], bags[-1].positions[None], params, cfg)
        assert one.tobytes() == ref.numpy().tobytes()

    def test_mixed_instance_counts_are_refused(self):
        cfg = M.MILConfig(feature_dim=16, heads=2, epochs=1)
        bags = planted_bags(cfg, n_per_class=1) + [random_bag(cfg, i=5, seed=0)]
        for call in (lambda: M.train_mil(bags, bags, cfg),
                     lambda: M.train_mil(bags[:2], bags, cfg),
                     lambda: M.evaluate_bags(bags, make_params(cfg), cfg)):
            with pytest.raises(ContractViolation, match=r"counts \[4, 5\]"):
                call()
        empty = M.evaluate_bags([], make_params(cfg), cfg)
        assert empty.shape == (0,) and empty.dtype == np.int64

    def test_attention_report_shapes(self):
        cfg = M.MILConfig(feature_dim=16, heads=2)
        params = make_params(cfg)
        table = params["msa0_bias"].data
        table[...] = np.random.default_rng(25).normal(size=table.shape)
        bag = random_bag(cfg, i=4, seed=24)
        weights, attn = M.attention_report(bag, params, cfg)
        assert weights.shape == (4, 16)
        assert attn.shape == (2, 4, 4)
        np.testing.assert_allclose(weights.sum(axis=0), np.ones(16), atol=1e-6)
        np.testing.assert_allclose(attn.sum(axis=-1), np.ones((2, 4)), atol=1e-6)
        np.testing.assert_allclose(attn, self._block0_attention(bag, params, cfg), atol=1e-12)

    @staticmethod
    def _block0_attention(bag, params, cfg):
        """Reference: block 0's position-biased attention softmax in float64 numpy."""
        x = np.asarray(bag.instances, dtype=np.float64)
        mu = x.mean(axis=-1, keepdims=True)
        var = ((x - mu) ** 2).mean(axis=-1, keepdims=True)
        normed = (x - mu) / np.sqrt(var + 1e-5) * params["msa0_ln1_g"].data + params["msa0_ln1_b"].data
        qkv = normed @ params["msa0_qkv_w"].data + params["msa0_qkv_b"].data
        n, c = x.shape
        dh = c // cfg.heads
        qkv = qkv.reshape(n, 3, cfg.heads, dh)
        q, k = qkv[:, 0].transpose(1, 0, 2), qkv[:, 1].transpose(1, 0, 2)  # (heads, I, dh)
        logits = q @ k.transpose(0, 2, 1) / np.sqrt(dh)
        r, span = M.BIAS_RADIUS, 2 * M.BIAS_RADIUS + 1
        delta = np.clip(bag.positions[:, None] - bag.positions[None], -r, r) + r
        logits = logits + params["msa0_bias"].data[:, delta[..., 0] * span + delta[..., 1]]
        e = np.exp(logits - logits.max(axis=-1, keepdims=True))
        return e / e.sum(axis=-1, keepdims=True)


def scattered_stack(n, cfg, i=4, seed=0):
    """(n, i, C) random instances at (n, i, 2) distinct random cells of a 5x5 grid."""
    rng = np.random.default_rng(seed)
    cells = rng.permuted(np.tile(np.arange(25), (n, 1)), axis=1)[:, :i]
    positions = np.stack(np.divmod(cells, 5), axis=-1)
    return rng.normal(size=(n, i, cfg.feature_dim)), positions


class TestChunkedScoring:
    CFG = M.MILConfig(feature_dim=64, heads=4)
    # 32 is the chunk of the fine-tune's val scoring before it went through `_logits`
    CHUNKS = (M.SCORE_CHUNK, 32)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("bias", [True, False])
    @pytest.mark.parametrize("kind", M.POOLING_KINDS)
    def test_chunk_boundaries_keep_the_whole_stack_bits(self, kind, bias, dtype, monkeypatch):
        cfg = dataclasses.replace(self.CFG, pooling=kind, use_position_bias=bias)
        with T.default_dtype(dtype):
            params = make_params(cfg, seed=40)
            table = params["msa0_bias"].data
            table[...] = np.random.default_rng(41).normal(size=table.shape)
            for chunk in self.CHUNKS:
                monkeypatch.setattr(M, "SCORE_CHUNK", chunk)
                for n in (1, chunk - 1, chunk, chunk + 1, 2 * chunk + 3):
                    inst, pos = scattered_stack(n, cfg, seed=n)
                    with T.no_grad():
                        whole = M.bag_logits(inst, pos, params, cfg).numpy()
                    chunked = M._logits(inst, pos, params, cfg)
                    assert chunked.dtype == dtype, (chunk, n)
                    assert chunked.tobytes() == whole.tobytes(), (chunk, n)
                    bags = [M.Bag(x, p, 0) for x, p in zip(inst, pos)]
                    preds = M.evaluate_bags(bags, params, cfg)
                    assert preds.dtype == np.int64
                    assert preds.tobytes() == np.argmax(whole, axis=1).tobytes(), (chunk, n)

    def test_scoring_memory_does_not_grow_with_the_split(self):
        params = make_params(self.CFG)

        def traced_peak(n):
            inst, pos = scattered_stack(n, self.CFG)
            bags = [M.Bag(x, p, 0) for x, p in zip(inst, pos)]
            M.evaluate_bags(bags, params, self.CFG)  # warm-up
            tracemalloc.start()
            try:
                M.evaluate_bags(bags, params, self.CFG)
                return tracemalloc.get_traced_memory()[1], inst.nbytes + pos.nbytes
            finally:
                tracemalloc.stop()

        small_peak, _ = traced_peak(M.SCORE_CHUNK)
        large_peak, large_stack = traced_peak(4 * M.SCORE_CHUNK)
        # past the stack evaluate_bags makes, a pass holds one chunk's
        # activations; one whole-stack forward held four chunks' at once
        assert large_peak - large_stack < small_peak
