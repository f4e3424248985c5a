"""Metrics vs definitional brute-force oracles."""

import numpy as np
import pytest

from patchmil import metrics as MM
from patchmil.errors import ContractViolation


def brute_force_metrics(cm):
    """Per-class TP/FP/FN sums and the MCC covariance form, written naively."""
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
    for kk in range(k):
        for ll in range(k):
            for mm in range(k):
                num += cm[kk, kk] * cm[ll, mm] - cm[kk, ll] * cm[mm, kk]
    d1 = 0.0
    d2 = 0.0
    for kk in range(k):
        rk = sum(cm[kk, :])
        ck = sum(cm[:, kk])
        d1 += rk * (total - rk)
        d2 += ck * (total - ck)
    mcc = num / np.sqrt(d1 * d2) if d1 > 0 and d2 > 0 else 0.0
    return {
        "acc": acc,
        "f1": float(np.mean(f1s)),
        "mcc": float(mcc),
        "precision": float(np.mean(precisions)),
    }


class TestConfusion:
    def test_diagonal_when_perfect(self):
        cm = MM.confusion([0, 1, 2, 2], [0, 1, 2, 2])
        assert np.array_equal(cm, np.diag([1, 1, 2, 0, 0, 0, 0]))

    def test_empty_input_gives_zero_matrix(self):
        cm = MM.confusion([], [])
        assert cm.shape == (7, 7) and cm.sum() == 0

    def test_swapped_pair(self):
        cm = MM.confusion([0, 6], [6, 0])
        assert cm[6, 0] == 1 and cm[0, 6] == 1 and cm.trace() == 0 and cm.sum() == 2

    def test_out_of_range_rejected(self):
        with pytest.raises(ContractViolation):
            MM.confusion([7], [0])
        with pytest.raises(ContractViolation):
            MM.confusion([0, 1], [0])


class TestClassificationMetrics:
    def test_perfect_diagonal(self):
        m = MM.classification_metrics(np.diag([3, 1, 4, 1, 5, 9, 2]))
        assert all(abs(m[k] - 1.0) < 1e-12 for k in MM.METRIC_NAMES)

    def test_chance_level_binary(self):
        m = MM.classification_metrics(np.array([[1, 1], [1, 1]]))
        assert abs(m["acc"] - 0.5) < 1e-12
        assert abs(m["mcc"]) < 1e-12

    def test_empty_matrix_rejected(self):
        with pytest.raises(ContractViolation):
            MM.classification_metrics(np.zeros((7, 7)))

    def test_matches_brute_force_on_random_matrices(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            cm = rng.integers(0, 20, size=(7, 7))
            if cm.sum() == 0:
                continue
            ours = MM.classification_metrics(cm)
            oracle = brute_force_metrics(cm)
            for key in MM.METRIC_NAMES:
                assert abs(ours[key] - oracle[key]) < 1e-9, key

    def test_ranges(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            cm = rng.integers(0, 10, size=(7, 7))
            if cm.sum() == 0:
                continue
            m = MM.classification_metrics(cm)
            assert 0.0 <= m["acc"] <= 1.0
            assert 0.0 <= m["f1"] <= 1.0
            assert 0.0 <= m["precision"] <= 1.0
            assert -1.0 <= m["mcc"] <= 1.0

    def test_label_permutation_invariance(self):
        rng = np.random.default_rng(2)
        cm = rng.integers(0, 15, size=(7, 7))
        perm = rng.permutation(7)
        base = MM.classification_metrics(cm)
        permuted = MM.classification_metrics(cm[np.ix_(perm, perm)])
        for key in MM.METRIC_NAMES:
            assert abs(base[key] - permuted[key]) < 1e-12

    def test_zero_denominator_convention(self):
        # class 2 never predicted and never true: its precision/recall count as 0
        cm = np.zeros((3, 3), dtype=int)
        cm[0, 0] = 5
        cm[1, 1] = 5
        m = MM.classification_metrics(cm)
        assert abs(m["precision"] - 2 / 3) < 1e-12
        assert abs(m["f1"] - 2 / 3) < 1e-12

    def test_diagonal_dominance_monotonicity(self):
        good = np.diag([5, 5, 5]) + 1 - np.eye(3, dtype=int)
        worse = good.copy()
        worse[0, 1] += 4
        worse[0, 0] -= 4
        assert (
            MM.classification_metrics(good)["acc"]
            > MM.classification_metrics(worse)["acc"]
        )


class TestReports:
    def test_json_and_table_contain_all_metrics(self):
        rows = {"ours": {"acc": 0.9, "f1": 0.8, "mcc": 0.7, "precision": 0.85}}
        js = MM.report_json(rows)
        assert all(k in js for k in MM.METRIC_NAMES)
        table = MM.report_table(rows)
        assert "ACC" in table and "ours" in table and "0.9000" in table
