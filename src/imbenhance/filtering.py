"""Margin-based data filtering: drop low-margin (hard/noisy) rows at the
threshold that maximizes F1 on the misclassified validation set, then
reintegrate a class-proportional share of what was dropped."""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .classifiers import ClassifierSpec, TrainedModel, fit, predict_proba
from .data import ClassStats, Dataset, check_number, concat_datasets, largest_remainder
from .metrics import decision_f1, first_best

DEFAULT_THRESHOLD_GRID = tuple(round(0.1 * i, 1) for i in range(10))  # 0.0 .. 0.9


@dataclass
class SweepEntry:
    threshold: float
    f1: float                # -1.0 marks a skipped (empty or single-class) candidate
    kept_count: int
    filtered_out_count: int
    retained_count: int


@dataclass
class FilterOutcome:
    filtered: Dataset                       # winning kept rows + retained rows
    chosen_threshold: float
    table: list = field(default_factory=list)           # SweepEntry per threshold
    retained_counts: dict = field(default_factory=dict)  # class -> retained rows
    model: TrainedModel | None = None       # trained on the winning filtered set


def margins(m: TrainedModel, d: Dataset) -> np.ndarray:
    """Per-row margin: highest minus second-highest class probability, in row order."""
    if d.n_rows == 0:
        raise ValueError("margins of an empty dataset")
    proba = predict_proba(m, d)
    part = np.sort(proba, axis=1)
    return part[:, -1] - part[:, -2]


def check_grid(name: str, thresholds) -> list:
    """The distinct ``thresholds`` as ascending floats; one at least, each in [0, 1]."""
    grid = list(thresholds)
    if not grid:
        raise ValueError(f"{name} must be a nonempty list of numbers in [0, 1]")
    for t in grid:
        check_number(name, t, "[0, 1]")
    return sorted(set(map(float, grid)))


def retain_by_class(filtered_out: Dataset, original_stats: ClassStats,
                    out_margins: np.ndarray) -> Dataset:
    """Pick the per-class quota of filtered-out rows, highest margin first.

    Quotas use the ORIGINAL dataset's class priors. A class with fewer pooled
    rows than its quota contributes everything it has; the shortfall is not
    reassigned. Returned rows are tagged "retained".
    """
    if len(out_margins) != filtered_out.n_rows:
        raise ValueError("margins do not match the filtered-out pool")
    # largest-remainder rounding of prior * total, remainder ties to the smaller class id
    quotas = largest_remainder(original_stats.priors, filtered_out.n_rows)
    picked: list[int] = []
    for quota, cls in zip(quotas, original_stats.labels):
        cls_idx = np.flatnonzero(filtered_out.labels == cls)
        # descending margin, ties to the earlier row
        order = cls_idx[np.lexsort((cls_idx, -out_margins[cls_idx]))]
        picked.extend(order[:quota].tolist())
    picked = sorted(picked)
    return filtered_out.take(picked).with_provenance("retained")


def filter_sweep(aug: Dataset, mis: Dataset, m: TrainedModel,
                 classifier_spec: ClassifierSpec, thresholds=DEFAULT_THRESHOLD_GRID,
                 original_stats: ClassStats | None = None,
                 retention: bool = True) -> FilterOutcome:
    """Try every margin threshold; keep the filtered set whose retrained model
    scores best on the misclassified validation rows.

    Rows with margin >= t stay; the rest are filtered out and partially
    reintegrated per ``retain_by_class`` (needs ``original_stats`` priors).
    A threshold whose candidate set is empty or single-class is recorded with
    F1 = -1 and never selected; if every threshold is skipped this raises.
    Ties in F1 go to the smallest threshold. A threshold that keeps as many
    rows as the one below it repeats that entry without a refit.
    """
    if aug.labels is None or mis.labels is None:
        raise ValueError("filter_sweep needs labeled datasets")
    if mis.n_rows == 0:
        raise ValueError("misclassified set is empty; nothing to score against")
    if retention and original_stats is None:
        raise ValueError("retention requires the original dataset's class stats")
    grid = check_grid("thresholds", thresholds)

    deltas = margins(m, aug)

    table: list[SweepEntry] = []
    best = None  # (threshold, dataset, model, retained rows)
    for t in grid:
        keep_idx = np.flatnonzero(deltas >= t)
        if table and table[-1].kept_count == len(keep_idx):
            # the kept set only shrinks as t rises, so this candidate is the
            # previous one; ties go to the smaller threshold, so it cannot win
            table.append(replace(table[-1], threshold=t))
            continue
        out_idx = np.flatnonzero(deltas < t)
        kept = aug.take(keep_idx)
        retained = (retain_by_class(aug.take(out_idx), original_stats, deltas[out_idx])
                    if retention else aug.take([]))
        candidate = concat_datasets([kept, retained]) if retained.n_rows else kept

        if candidate.n_rows == 0 or len(np.unique(candidate.labels)) < 2:
            table.append(SweepEntry(t, -1.0, len(keep_idx), len(out_idx), retained.n_rows))
            continue
        model = fit(classifier_spec, candidate)
        table.append(SweepEntry(t, decision_f1(model, mis), len(keep_idx), len(out_idx),
                                retained.n_rows))
        if first_best([e.f1 for e in table]) == len(table) - 1:  # grid is ascending
            best = (t, candidate, model, retained)

    if best is None:
        raise ValueError("every threshold produced an empty or single-class dataset")
    t, candidate, model, retained = best
    counts = {int(c): int(np.sum(retained.labels == c)) for c in np.unique(retained.labels)}
    return FilterOutcome(filtered=candidate, chosen_threshold=t, table=table,
                         retained_counts=counts, model=model)
