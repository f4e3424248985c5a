"""Acceptance gate.

Each criterion prints one `[acceptance] PASS/FAIL: <name>` line to pytest's
terminal with output capture suspended, so plain `pytest -v` shows it, also
when standard output is a file. The desk experiment
at the bottom trains the full stack on the default synthetic corpus with a
fixed seed and must finish on CPU well inside 30 minutes.
"""

import json
import struct
import sys
import time

import numpy as np
import pytest

from patchmil import backbone as bb
from patchmil import data as D
from patchmil import metrics as MM
from patchmil import mil as ML
from patchmil import pipeline as P
from patchmil import selfsup as S
from patchmil import tensor as T


_PLUGINS = (None, None)  # terminal reporter, capture manager


@pytest.fixture(autouse=True)
def _terminal_plugins(request):
    global _PLUGINS
    manager = request.config.pluginmanager
    _PLUGINS = (manager.get_plugin("terminalreporter"), manager.get_plugin("capturemanager"))
    yield


def _criterion(name: str, passed: bool, detail: str = ""):
    status = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    line = f"[acceptance] {status}: {name}{suffix}"
    reporter, capture = _PLUGINS
    if reporter is not None and capture is not None:
        # the terminal reporter writes to fd 1, which fd capture redirects
        # while a test runs; suspending capture puts every criterion line in
        # plain `pytest -v` output
        with capture.global_and_fixture_disabled():
            reporter.write_line(line)
    else:
        print(line, file=sys.__stdout__, flush=True)
    assert passed, line


# -- criterion: gradient suite ----------------------------------------------


class TestGradientSuite:
    def test_losses_match_central_finite_differences(self):
        start = time.time()
        rng = np.random.default_rng(0)
        n_instances = 20
        worst = 0.0
        with T.default_dtype(np.float64):
            for _ in range(n_instances):
                b, k, d = 3, 2, 4
                z_t = rng.normal(size=(b, d))
                z_tp = rng.normal(size=(b, k, d))
                labels = rng.integers(0, 5, size=b)
                cases = [
                    (lambda x: S.global_loss(x, T.as_tensor(z_t)), rng.normal(size=(b, d))),
                    (lambda x: S.parts_loss(x, T.as_tensor(z_tp)), rng.normal(size=(b, k, d))),
                    (lambda x: S.variance_loss(x), rng.normal(size=(b, d))),
                    (lambda x: S.covariance_loss(x), rng.normal(size=(b, d))),
                    (lambda x: ML.cross_entropy(x, labels), rng.normal(size=(b, 5))),
                ]
                for f, x in cases:
                    worst = max(worst, T.check_gradient(f, x, step=1e-5))
        elapsed = time.time() - start
        _criterion(
            "gradient suite (losses vs central finite differences)",
            worst < 1e-6 and elapsed < 120,
            f"max rel err {worst:.2e} over {n_instances}x5 instances in {elapsed:.1f}s",
        )


# -- criterion: analytic loss oracles ---------------------------------------


class TestAnalyticLossOracles:
    def test_closed_form_values(self):
        with T.default_dtype(np.float64):
            e1 = np.array([[1.0, 0.0], [0.0, 2.0]])
            identical = abs(S.global_loss(T.as_tensor(e1), T.as_tensor(e1)).item())
            orthogonal = abs(
                S.global_loss(
                    T.as_tensor(np.array([[1.0, 0.0]])), T.as_tensor(np.array([[0.0, 1.0]]))
                ).item()
                - 2.0
            )
            antipodal = abs(
                S.global_loss(
                    T.as_tensor(np.array([[1.0, 0.0]])), T.as_tensor(np.array([[-1.0, 0.0]]))
                ).item()
                - 4.0
            )
            eps = 1e-4
            rows = np.tile(np.array([0.3, -0.7, 1.1]), (4, 1))
            variance = abs(
                S.variance_loss(T.as_tensor(rows), eps).item() - (1.0 - np.sqrt(eps))
            )
            cov_batch = np.array([[1.0, 1.0], [-1.0, -1.0]])
            covariance = abs(S.covariance_loss(T.as_tensor(cov_batch)).item() - 4.0)
            weights = S.LossWeights(gamma=5.0, lam=0.005)
            components = {
                "global": T.as_tensor(np.array(0.4)),
                "parts": T.as_tensor(np.array(0.1)),
                "var": T.as_tensor(np.array(1.0)),
                "cov": T.as_tensor(np.array(4.0)),
            }
            total = abs(S.total_loss(components, weights).item() - 5.52)
        worst = max(identical, orthogonal, antipodal, variance, covariance, total)
        _criterion(
            "analytic loss oracles (cosine 0/2/4, variance hinge, covariance, total)",
            worst < 1e-6,
            f"max abs err {worst:.2e}",
        )


# -- criterion: momentum law ------------------------------------------------


class TestMomentumLaw:
    def test_exponential_decay_after_100_frozen_steps(self):
        with T.default_dtype(np.float64):
            rng = np.random.default_rng(1)
            theta = rng.normal(size=(5, 3))
            eta0 = rng.normal(size=(5, 3))
            student = {"w": T.parameter(theta.copy())}
            teacher = {"w": T.parameter(eta0.copy(), requires_grad=False)}
            m = 0.99
            for _ in range(100):
                S.momentum_update(student, teacher, m)
            expected = theta + (eta0 - theta) * m**100
            err = np.abs(teacher["w"].data - expected).max()
        _criterion("momentum law (eta_n = theta + (eta_0 - theta) * 0.99^n)", err < 1e-5, f"max abs err {err:.2e}")


# -- criterion: pooling invariants ------------------------------------------


class TestPoolingInvariants:
    def _setup(self, n_instances, seed=0):
        cfg = ML.MILConfig(feature_dim=8, heads=2, n_classes=3)
        rng = np.random.default_rng(seed)
        params = ML.init_mil(rng, cfg)
        refined = rng.normal(size=(n_instances, cfg.feature_dim))
        return cfg, params, refined

    def test_invariants_and_two_loop_oracle(self):
        with T.default_dtype(np.float64):
            cfg, params, refined = self._setup(6)
            bag, weights = ML.adaptive_pool(
                T.as_tensor(refined), params, cfg, return_weights=True
            )
            bag, weights = bag.numpy(), weights.numpy()

            perm = np.random.default_rng(1).permutation(6)
            bag_perm = ML.adaptive_pool(T.as_tensor(refined[perm]), params, cfg).numpy()
            perm_err = np.abs(bag - bag_perm).max()

            sums_err = np.abs(weights.sum(axis=0) - 1.0).max()

            cfg1, params1, one = self._setup(1, seed=2)
            bag1 = ML.adaptive_pool(T.as_tensor(one), params1, cfg1).numpy()
            h2 = (one @ params1["hw2_w"].data + params1["hw2_b"].data)[0]
            identity_err = np.abs(bag1 - h2).max()

            # definitional two-loop oracle
            h1 = refined @ params["hw1_w"].data + params["hw1_b"].data
            h2_all = refined @ params["hw2_w"].data + params["hw2_b"].data
            n, c = h1.shape
            oracle = np.zeros(c)
            for j in range(c):
                exps = np.exp(h1[:, j] - h1[:, j].max())
                w = exps / exps.sum()
                for i in range(n):
                    oracle[j] += w[i] * h2_all[i, j]
                oracle[j] /= n
            oracle_err = np.abs(bag - oracle).max()

        worst = max(perm_err, sums_err, identity_err, oracle_err)
        _criterion(
            "pooling invariants (permutation, weight sums, I=1 identity, two-loop oracle)",
            perm_err < 1e-6 and sums_err < 1e-6 and identity_err < 1e-6 and oracle_err < 1e-6,
            f"max err {worst:.2e}",
        )


# -- criterion: context-awareness witness ------------------------------------


class TestContextAwarenessWitness:
    def test_position_shuffle_changes_logits_only_with_bias(self):
        with T.default_dtype(np.float64):
            cfg = ML.MILConfig(feature_dim=8, heads=2, n_classes=3)
            rng = np.random.default_rng(3)
            params = ML.init_mil(rng, cfg)
            instances = rng.normal(size=(6, cfg.feature_dim))
            positions = np.array([[0, 0], [0, 1], [0, 2], [1, 0], [1, 1], [1, 2]])
            shuffled = positions[[3, 5, 0, 2, 4, 1]]

            params["msa0_bias"].data[...] = rng.normal(size=params["msa0_bias"].shape)
            with_bias = np.abs(
                ML.classify_bag(ML.Bag(instances, positions, 0), params, cfg)
                - ML.classify_bag(ML.Bag(instances, shuffled, 0), params, cfg)
            ).max()

            params["msa0_bias"].data[...] = 0.0
            without_bias = np.abs(
                ML.classify_bag(ML.Bag(instances, positions, 0), params, cfg)
                - ML.classify_bag(ML.Bag(instances, shuffled, 0), params, cfg)
            ).max()
        _criterion(
            "context-awareness witness (position shuffle vs relative-position bias)",
            with_bias > 1e-3 and without_bias < 1e-6,
            f"with bias {with_bias:.2e}, zeroed bias {without_bias:.2e}",
        )


# -- criterion: metrics oracle ----------------------------------------------


def _brute_force_metrics(cm):
    cm = np.asarray(cm, dtype=float)
    k = cm.shape[0]
    total = cm.sum()
    acc = sum(cm[i, i] for i in range(k)) / total
    precisions, f1s = [], []
    for c in range(k):
        tp = cm[c, c]
        fp = sum(cm[r, c] for r in range(k)) - tp
        fn = sum(cm[c, p] for p in range(k)) - tp
        prec = tp / (tp + fp) if tp + fp > 0 else 0.0
        rec = tp / (tp + fn) if tp + fn > 0 else 0.0
        f1s.append(2 * prec * rec / (prec + rec) if prec + rec > 0 else 0.0)
        precisions.append(prec)
    num = 0.0
    for a in range(k):
        for b_ in range(k):
            for c in range(k):
                num += cm[a, a] * cm[b_, c] - cm[a, b_] * cm[c, a]
    d1 = sum(cm[i, :].sum() * (total - cm[i, :].sum()) for i in range(k))
    d2 = sum(cm[:, i].sum() * (total - cm[:, i].sum()) for i in range(k))
    mcc = num / np.sqrt(d1 * d2) if d1 > 0 and d2 > 0 else 0.0
    return {
        "acc": acc,
        "f1": float(np.mean(f1s)),
        "mcc": float(mcc),
        "precision": float(np.mean(precisions)),
    }


class TestMetricsOracle:
    def test_100_random_confusion_matrices(self):
        rng = np.random.default_rng(4)
        worst = 0.0
        done = 0
        while done < 100:
            cm = rng.integers(0, 25, size=(7, 7))
            if cm.sum() == 0:
                continue
            ours = MM.classification_metrics(cm)
            oracle = _brute_force_metrics(cm)
            worst = max(worst, max(abs(ours[k] - oracle[k]) for k in MM.METRIC_NAMES))
            done += 1
        _criterion(
            "metrics oracle (100 random 7x7 confusion matrices)",
            worst < 1e-9,
            f"max abs err {worst:.2e}",
        )


# -- criterion: format round-trip and determinism ----------------------------


class TestFormatAndDeterminism:
    def test_golden_bytes_round_trip_and_corpus_checksum(self, tmp_path):
        path = tmp_path / "g.ftc"
        D.write_tensor(path, np.array([1.5, -2.0], dtype=np.float32))
        hjson = json.dumps(
            {"version": 1, "dtype": "float32", "shape": [2]}, sort_keys=True
        ).encode()
        golden = b"FPTC0001" + struct.pack("<I", len(hjson)) + hjson + struct.pack("<2f", 1.5, -2.0)
        golden_ok = path.read_bytes() == golden

        arr = np.random.default_rng(5).normal(size=(4, 3, 2)).astype(np.float64)
        D.write_tensor(tmp_path / "r.ftc", arr, meta={"tag": "x"})
        back, header = D.read_tensor(tmp_path / "r.ftc")
        lossless = back.tobytes() == arr.tobytes() and header["meta"] == {"tag": "x"}

        cfg = D.CorpusConfig(counts=(2, 1, 1), magnifications=(10,), side=32, seed=9)
        D.generate_corpus(cfg, tmp_path / "a")
        D.generate_corpus(cfg, tmp_path / "b")
        deterministic = D.index_checksum(tmp_path / "a") == D.index_checksum(tmp_path / "b")
        for rel in sorted(
            p.relative_to(tmp_path / "a") for p in (tmp_path / "a").rglob("*.ftc")
        ):
            deterministic = deterministic and (
                (tmp_path / "a" / rel).read_bytes() == (tmp_path / "b" / rel).read_bytes()
            )
        _criterion(
            "container golden bytes, lossless round trip, corpus determinism",
            golden_ok and lossless and deterministic,
            f"golden={golden_ok} lossless={lossless} deterministic={deterministic}",
        )


# -- criterion: desk experiment ----------------------------------------------

DESK_SEED = 0
# slim encoder: halves step time and keeps the random-init probe baseline weak
DESK_ARCH = dict(local_channels=(8, 16, 32), global_dim=32, embed_dim=32)
DESK_SSL_EPOCHS = 5
DESK_SSL_LR = 3e-4
DESK_SSL_BATCH = 32
DESK_TEACHER_MOMENTUM = 0.9
DESK_FT_EPOCHS = 25
DESK_FT_LR = 3e-3
DESK_MIL_EPOCHS = 30

LOSS_ROWS = (
    ("global",),
    ("global", "parts"),
    ("global", "var", "cov"),
    ("global", "parts", "var", "cov"),
)


@pytest.fixture(scope="module")
def desk(tmp_path_factory):
    """Full fixed-seed experiment: corpus, probes, loss and pooling ablations.

    Protocol: pretrain one encoder per loss subset and linear-probe each;
    fine-tune the full-loss encoder end to end through the adaptive-pool MIL
    head; then train every pooling head (and a no-position-bias variant) on
    the fine-tuned encoder's frozen, z-scored bag features so the pooling
    comparison shares one feature space.
    """
    start = time.time()
    root = tmp_path_factory.mktemp("desk")
    corpus = root / "corpus"
    D.generate_corpus(D.CorpusConfig(seed=DESK_SEED), corpus)

    arch = bb.ArchConfig(**DESK_ARCH)
    random_params = bb.init_backbone(np.random.default_rng(DESK_SEED), arch)
    probe_random = P.linear_probe_metrics(corpus, random_params, arch)

    images, _, _ = D.load_split(corpus, "train")
    patches, _, _ = P.image_patches(images, arch.side)

    loss_table = {}
    full_state = None
    for terms in LOSS_ROWS:
        cfg = S.SSLConfig(
            arch=arch,
            epochs=DESK_SSL_EPOCHS,
            batch_size=DESK_SSL_BATCH,
            lr=DESK_SSL_LR,
            seed=DESK_SEED,
            loss_terms=terms,
            weights=S.LossWeights(momentum=DESK_TEACHER_MOMENTUM),
        )
        state = S.pretrain(patches, cfg)
        loss_table[f"pretraining loss [{'+'.join(terms)}]"] = P.linear_probe_metrics(
            corpus, state.student, arch
        )
        if terms == LOSS_ROWS[-1]:
            full_state = state

    ft_cfg = ML.MILConfig(
        feature_dim=arch.feature_dim, pooling="adaptive", seed=DESK_SEED
    )
    encoder, _, _ = P.finetune_mil(
        corpus, full_state.student, arch, ft_cfg, epochs=DESK_FT_EPOCHS, lr=DESK_FT_LR
    )

    train_bags = P.bags_from_corpus(corpus, "train", encoder, arch)
    val_bags = P.bags_from_corpus(corpus, "val", encoder, arch)
    test_bags = P.bags_from_corpus(corpus, "test", encoder, arch)
    norm = P.bag_normalization(train_bags)
    train_bags = P.standardize_bags(train_bags, norm)
    val_bags = P.standardize_bags(val_bags, norm)
    test_bags = P.standardize_bags(test_bags, norm)
    test_labels = np.array([b.label for b in test_bags])
    pool_table = {}
    pool_rows = [(kind, True) for kind in ML.POOLING_KINDS] + [("adaptive", False)]
    for kind, bias in pool_rows:
        cfg = ML.MILConfig(
            feature_dim=arch.feature_dim,
            pooling=kind,
            use_position_bias=bias,
            epochs=DESK_MIL_EPOCHS,
            seed=DESK_SEED,
        )
        params, _ = ML.train_mil(train_bags, val_bags, cfg)
        preds = ML.evaluate_bags(test_bags, params, cfg)
        label = f"ours + {kind} pool" if bias else f"ours + {kind} pool, no position bias"
        pool_table[label] = MM.metrics_from_predictions(preds, test_labels)

    report = {
        "linear probe (random init)": probe_random,
        **loss_table,
        **pool_table,
    }
    (root / "ablation_report.json").write_text(MM.report_json(report))
    (root / "ablation_report.txt").write_text(MM.report_table(report))
    return {
        "root": root,
        "probe_random": probe_random,
        "loss_table": loss_table,
        "pool_table": pool_table,
        "elapsed": time.time() - start,
    }


class TestDeskExperiment:
    def test_pretrained_probe_beats_random_probe(self, desk):
        full = desk["loss_table"]["pretraining loss [global+parts+var+cov]"]["acc"]
        random_acc = desk["probe_random"]["acc"]
        gap = (full - random_acc) * 100
        _criterion(
            "desk (a): pretrained linear probe beats random init by >= 10 points",
            gap >= 10.0,
            f"pretrained {full:.3f} vs random {random_acc:.3f} (gap {gap:.1f} pts)",
        )

    def test_full_loss_at_least_global_only(self, desk):
        full = desk["loss_table"]["pretraining loss [global+parts+var+cov]"]["acc"]
        global_only = desk["loss_table"]["pretraining loss [global]"]["acc"]
        _criterion(
            "desk (b): full loss >= global-only loss in probe accuracy",
            full >= global_only,
            f"full {full:.3f} vs global-only {global_only:.3f}",
        )

    def test_adaptive_pool_accuracy_and_report(self, desk):
        adaptive = desk["pool_table"]["ours + adaptive pool"]["acc"]
        mean_pool = desk["pool_table"]["ours + mean pool"]["acc"]
        report_txt = (desk["root"] / "ablation_report.txt").read_text()
        report = json.loads((desk["root"] / "ablation_report.json").read_text())
        rows_ok = len(report) == 1 + len(LOSS_ROWS) + len(ML.POOLING_KINDS) + 1 and all(
            set(row) == set(MM.METRIC_NAMES) for row in report.values()
        )
        _criterion(
            "desk (c): adaptive pool >= 85% test accuracy and >= mean pool - 1 point",
            adaptive >= 0.85 and adaptive >= mean_pool - 0.01 and rows_ok and "ACC" in report_txt,
            f"adaptive {adaptive:.3f}, mean {mean_pool:.3f}, report rows {len(report)}",
        )

    def test_within_runtime_budget(self, desk):
        _criterion(
            "desk: full experiment inside the 30-minute CPU budget",
            desk["elapsed"] < 1800,
            f"{desk['elapsed']:.0f}s",
        )
