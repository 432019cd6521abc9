"""Confusion matrices and per-class / macro precision, recall, F-score."""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np


class MetricWarning(UserWarning):
    pass


@dataclass(eq=False)
class ConfusionMatrix:
    """counts[i, j] = samples of true class i predicted as class j."""

    counts: np.ndarray

    def __post_init__(self):
        self.counts = np.asarray(self.counts)
        if self.counts.ndim != 2 or self.counts.shape[0] != self.counts.shape[1]:
            raise ValueError(f"confusion matrix must be square, got {self.counts.shape}")
        if np.any(self.counts < 0):
            raise ValueError("confusion matrix counts must be non-negative")
        self.counts = self.counts.astype(np.int64)


def confusion(y_true, y_pred, n_classes: int) -> ConfusionMatrix:
    y_true = np.asarray(y_true, dtype=np.int64).reshape(-1)
    y_pred = np.asarray(y_pred, dtype=np.int64).reshape(-1)
    if y_true.shape != y_pred.shape:
        raise ValueError(f"label length mismatch: {y_true.shape} vs {y_pred.shape}")
    if n_classes < 1:
        raise ValueError(f"n_classes must be >= 1, got {n_classes}")
    for name, arr in (("true", y_true), ("predicted", y_pred)):
        if arr.size and (arr.min() < 0 or arr.max() >= n_classes):
            raise ValueError(f"{name} labels outside [0, {n_classes})")
    counts = np.zeros((n_classes, n_classes), dtype=np.int64)
    np.add.at(counts, (y_true, y_pred), 1)
    return ConfusionMatrix(counts)


@dataclass(eq=False)
class MetricReport:
    """Per-class vectors plus unweighted macro averages; the MetricWarning
    that `metrics` emits names each class that an empty denominator set to 0."""

    precision: np.ndarray
    recall: np.ndarray
    f_score: np.ndarray
    macro_precision: float
    macro_recall: float
    macro_f: float


def metrics(cm: ConfusionMatrix) -> MetricReport:
    """Precision, recall and F per class; 0/0 is defined as 0 with a warning."""
    counts = cm.counts.astype(float)
    if counts.sum() == 0:
        raise ValueError("confusion matrix is all zero")
    tp = np.diag(counts)
    pred_totals = counts.sum(axis=0)
    true_totals = counts.sum(axis=1)

    with np.errstate(divide="ignore", invalid="ignore"):
        precision = np.where(pred_totals > 0, tp / pred_totals, 0.0)
        recall = np.where(true_totals > 0, tp / true_totals, 0.0)
        denom = precision + recall
        f_score = np.where(denom > 0, 2.0 * precision * recall / denom, 0.0)
    degenerate = np.flatnonzero((pred_totals == 0) | (true_totals == 0) | (denom == 0)).tolist()
    if degenerate:
        warnings.warn(
            f"0/0 in metrics for classes {degenerate}, reported as 0.0", MetricWarning
        )
    return MetricReport(
        precision=precision,
        recall=recall,
        f_score=f_score,
        macro_precision=float(precision.mean()),
        macro_recall=float(recall.mean()),
        macro_f=float(f_score.mean()),
    )


def aggregate(reports: list[MetricReport]) -> tuple[MetricReport, MetricReport]:
    """Elementwise mean and population std across reports of equal class count.

    The std record reuses the MetricReport shape; its macro fields are the
    spread of the macro values, not macro averages of the per-class spreads.
    """
    if not reports:
        raise ValueError("no reports to aggregate")
    n = len(reports[0].precision)
    for r in reports:
        if len(r.precision) != n:
            raise ValueError("reports disagree on class count")

    def reduce(op) -> MetricReport:
        """op over the reports, per class for the vectors, across the macro values."""
        vectors = {
            name: op(np.stack([np.asarray(getattr(r, name), dtype=float) for r in reports]), axis=0)
            for name in ("precision", "recall", "f_score")
        }
        macros = {
            name: float(op(np.array([getattr(r, name) for r in reports], dtype=float)))
            for name in ("macro_precision", "macro_recall", "macro_f")
        }
        return MetricReport(**vectors, **macros)

    return reduce(np.mean), reduce(np.std)


def format_cell(mean: float, std: float) -> str:
    """Display form 'm.mmm (s.sss)'; values keep full precision elsewhere."""
    return f"{mean:.3f} ({std:.3f})"
