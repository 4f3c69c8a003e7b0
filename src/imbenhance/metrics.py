"""Evaluation metrics: precision/recall/F1, accuracy, ROC AUC, and the KS statistic."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .classifiers import DECISION_THRESHOLD, TrainedModel, predict, predict_proba
from .data import Dataset, check_number

EVAL_CSV_COLUMNS = ["precision", "recall", "f1", "accuracy", "auc", "ks",
                    "tp", "tn", "fp", "fn"]


@dataclass
class ConfusionCounts:
    tp: int
    tn: int
    fp: int
    fn: int

    @property
    def total(self) -> int:
        return self.tp + self.tn + self.fp + self.fn

    @property
    def accuracy(self) -> float:
        return (self.tp + self.tn) / self.total if self.total else 0.0


@dataclass
class EvalReport:
    """All metrics for one model/dataset pair at one decision threshold."""

    precision: float
    recall: float
    f1: float
    accuracy: float
    auc: float
    ks: float
    counts: ConfusionCounts
    threshold: float = DECISION_THRESHOLD

    def to_csv_row(self) -> list:
        c = self.counts
        return [self.precision, self.recall, self.f1, self.accuracy, self.auc,
                self.ks, c.tp, c.tn, c.fp, c.fn]

    def to_text(self) -> str:
        pairs = zip(EVAL_CSV_COLUMNS, self.to_csv_row())
        lines = [f"{k} = {v:.6f}" if isinstance(v, float) else f"{k} = {v}"
                 for k, v in pairs]
        lines.append(f"threshold = {self.threshold}")
        return "\n".join(lines)


def _check_binary(values, name):
    arr = np.asarray(values)
    if not np.all(np.isin(arr, (0, 1))):
        raise ValueError(f"{name} must contain only 0 and 1")
    return arr.astype(int)


def confusion(labels, predictions) -> ConfusionCounts:
    """Counts with positive class = 1."""
    y = _check_binary(labels, "labels")
    p = _check_binary(predictions, "predictions")
    if len(y) != len(p):
        raise ValueError("labels and predictions differ in length")
    return ConfusionCounts(
        tp=int(np.sum((y == 1) & (p == 1))),
        tn=int(np.sum((y == 0) & (p == 0))),
        fp=int(np.sum((y == 0) & (p == 1))),
        fn=int(np.sum((y == 1) & (p == 0))),
    )


def precision_recall_f1(c: ConfusionCounts) -> tuple[float, float, float]:
    """Zero denominators yield 0 by convention (extreme-imbalance folds)."""
    precision = c.tp / (c.tp + c.fp) if (c.tp + c.fp) else 0.0
    recall = c.tp / (c.tp + c.fn) if (c.tp + c.fn) else 0.0
    f1 = (2 * precision * recall / (precision + recall)) if (precision + recall) else 0.0
    return precision, recall, f1


def f1_score(labels, predictions) -> float:
    return precision_recall_f1(confusion(labels, predictions))[2]


def decision_f1(m: TrainedModel, d: Dataset) -> float:
    """F1 of ``m``'s predictions on ``d``: every stage's decision score."""
    return f1_score(d.labels, predict(m, d))


def first_best(scores) -> int:
    """Index of the highest score, the first one on a tie: the pipeline's one tie rule."""
    return int(np.argmax(scores))


def _roc_points(labels, scores):
    """TPR/FPR at every distinct score threshold, starting from the (0, 0) sentinel."""
    y = _check_binary(labels, "labels")
    s = np.asarray(scores, dtype=float)
    if len(y) != len(s):
        raise ValueError("labels and scores differ in length")
    if not np.all(np.isfinite(s)):
        raise ValueError("scores must be finite")
    n_pos = int(np.sum(y == 1))
    n_neg = len(y) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("both classes must be present")
    order = np.argsort(-s, kind="stable")
    ys, ss = y[order], s[order]
    tps = np.cumsum(ys == 1)
    fps = np.cumsum(ys == 0)
    # keep only the last row of each tied-score group
    last = np.append(np.flatnonzero(ss[:-1] != ss[1:]), len(ss) - 1)
    tpr = np.concatenate([[0.0], tps[last] / n_pos])
    fpr = np.concatenate([[0.0], fps[last] / n_neg])
    return tpr, fpr


def auc(labels, scores) -> float:
    """Trapezoidal area under the ROC curve.

    Equals the pairwise probability that a positive outscores a negative,
    with half credit for ties.
    """
    tpr, fpr = _roc_points(labels, scores)
    return float(np.sum(np.diff(fpr) * (tpr[1:] + tpr[:-1]) / 2.0))


def ks_statistic(labels, scores) -> float:
    """Maximum of TPR - FPR over all distinct score thresholds."""
    tpr, fpr = _roc_points(labels, scores)
    return float(np.max(tpr - fpr))


def evaluate(m: TrainedModel, test: Dataset) -> EvalReport:
    """Score a binary {0, 1} model: ``score_report`` of its p(y=1|x) on ``test``."""
    if test.labels is None:
        raise ValueError("evaluate requires a labeled dataset")
    labels = np.asarray(m.label_set)
    if len(labels) != 2 or labels[0] != 0 or labels[1] != 1:
        raise ValueError("evaluate requires a model with label set {0, 1}")
    return score_report(test.labels, predict_proba(m, test)[:, 1])


def score_report(labels, scores, threshold: float = DECISION_THRESHOLD,
                 predictions=None) -> EvalReport:
    """Confusion metrics of the predictions, by default ``scores >= threshold``
    (the rule ``predict`` applies to a {0, 1} model); AUC and KS of the scores."""
    check_number("threshold", threshold, "[0, 1]")
    if predictions is None:
        predictions = np.asarray(scores) >= threshold
    counts = confusion(labels, predictions)
    precision, recall, f1 = precision_recall_f1(counts)
    return EvalReport(precision=precision, recall=recall, f1=f1,
                      accuracy=counts.accuracy,
                      auc=auc(labels, scores),
                      ks=ks_statistic(labels, scores),
                      counts=counts, threshold=threshold)
