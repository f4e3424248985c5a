"""Classification metrics: accuracy, macro F1, multiclass MCC, macro precision.

Macro (unweighted) averaging; any per-class ratio with a zero denominator
counts as 0. MCC uses the multiclass covariance form and is 0 when either
covariance term vanishes.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .data import CLASS_NAMES
from .errors import ContractViolation

METRIC_NAMES = ("acc", "f1", "mcc", "precision")


def confusion(preds, labels) -> np.ndarray:
    """Confusion matrix over the corpus classes: rows = true class, columns = predicted."""
    n_classes = len(CLASS_NAMES)
    preds = np.asarray(preds, dtype=np.int64)
    labels = np.asarray(labels, dtype=np.int64)
    if preds.shape != labels.shape:
        raise ContractViolation(
            f"preds and labels differ in length: {preds.shape} vs {labels.shape}"
        )
    if preds.size and (
        preds.min() < 0 or preds.max() >= n_classes or labels.min() < 0 or labels.max() >= n_classes
    ):
        raise ContractViolation(f"class id out of range [0, {n_classes})")
    cm = np.zeros((n_classes, n_classes), dtype=np.int64)
    np.add.at(cm, (labels, preds), 1)
    return cm


def classification_metrics(cm: np.ndarray) -> dict:
    """{acc, f1, mcc, precision} from a confusion matrix."""
    cm = np.asarray(cm, dtype=np.float64)
    total = cm.sum()
    if total <= 0:
        raise ContractViolation("empty confusion matrix")
    k = cm.shape[0]
    tp = np.diag(cm)
    row = cm.sum(axis=1)  # true-class counts
    col = cm.sum(axis=0)  # predicted-class counts

    acc = tp.sum() / total
    with np.errstate(invalid="ignore", divide="ignore"):
        precision = np.where(col > 0, tp / col, 0.0)
        recall = np.where(row > 0, tp / row, 0.0)
        denom = precision + recall
        f1 = np.where(denom > 0, 2 * precision * recall / denom, 0.0)

    cov_tp = acc * total * total - float(row @ col)
    cov_tt = total * total - float(row @ row)
    cov_pp = total * total - float(col @ col)
    if cov_tt <= 0 or cov_pp <= 0:
        mcc = 0.0
    else:
        mcc = cov_tp / math.sqrt(cov_tt * cov_pp)

    return {
        "acc": float(acc),
        "f1": float(f1.mean()),
        "mcc": float(mcc),
        "precision": float(precision.mean()),
    }


def metrics_from_predictions(preds, labels) -> dict:
    return classification_metrics(confusion(preds, labels))


def report_json(rows: dict) -> str:
    """rows: method name -> metrics dict."""
    return json.dumps(rows, indent=2, sort_keys=True)


def report_table(rows: dict) -> str:
    """Aligned text table, one row per method, columns ACC/F1/MCC/Precision."""
    width = max([len("method")] + [len(name) for name in rows])
    header = f"{'method':<{width}}  " + "  ".join(f"{n.upper():>9}" for n in METRIC_NAMES)
    lines = [header, "-" * len(header)]
    for name, metrics in rows.items():
        cells = "  ".join(f"{metrics[n]:>9.4f}" for n in METRIC_NAMES)
        lines.append(f"{name:<{width}}  {cells}")
    return "\n".join(lines)
