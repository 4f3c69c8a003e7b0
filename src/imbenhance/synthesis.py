"""Minority-class synthesis: random oversampling, SMOTE, replay of external
generators, and an F1-driven race that picks the best technique."""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .classifiers import ClassifierSpec, TrainedModel, fit, predict
from .data import (
    Dataset,
    SplitSpec,
    _parse_column,
    class_stats,
    concat_datasets,
    load_csv,
    stratified_split,
)
from .metrics import f1_score

# Elements of one block's difference tensor in SMOTE's neighbour search (1 MB).
_NEIGHBOR_BLOCK_ELEMENTS = 2**17


def _minority_info(train: Dataset):
    if train.labels is None:
        raise ValueError("synthesis requires a labeled dataset")
    stats = class_stats(train)
    if len(stats.labels) != 2:
        raise ValueError("synthesis requires a binary dataset")
    minority = stats.minority_label
    idx = np.flatnonzero(train.labels == minority)
    majority_count = stats.count_of(stats.majority_label)
    return minority, idx, majority_count


def _rows_needed(minority_count: int, majority_count: int, target_ratio: float) -> int:
    target = int(math.floor(target_ratio * majority_count + 0.5))
    return max(0, target - minority_count)


def _as_synthetic(train: Dataset, rows: np.ndarray, minority_label: int) -> Dataset:
    return replace(train, features=rows, labels=np.full(len(rows), minority_label, dtype=int),
                   provenance=np.full(len(rows), "synthetic", dtype=object))


def random_oversample(train: Dataset, target_ratio: float = 1.0, seed: int = 42) -> Dataset:
    """Duplicate uniformly-sampled minority rows until minority/majority = target_ratio."""
    minority, idx, majority_count = _minority_info(train)
    if len(idx) == 0:
        raise ValueError("empty minority class")
    needed = _rows_needed(len(idx), majority_count, target_ratio)
    rng = np.random.default_rng(seed)
    picks = rng.integers(0, len(idx), size=needed)
    rows = np.asarray(train.features, dtype=float)[idx[picks]]
    return _as_synthetic(train, rows.reshape(needed, train.n_features), minority)


def smote(train: Dataset, k_neighbors: int = 5, target_ratio: float = 1.0,
          seed: int = 42) -> Dataset:
    """Interpolate between minority rows and their k nearest minority neighbors.

    Each synthetic row is x + u * (x_nn - x) for uniform u in [0, 1] and x_nn
    among the k Euclidean-nearest minority neighbors of x. k is clamped to
    minority_count - 1. The neighbor search is exact, distance ties go to the
    lower row index, and its memory is linear in the minority count.
    """
    if k_neighbors < 1:
        raise ValueError("k_neighbors must be at least 1")
    minority, idx, majority_count = _minority_info(train)
    if len(idx) < 2:
        raise ValueError("SMOTE needs at least 2 minority rows")
    M = np.asarray(train.features, dtype=float)[idx]
    n_min = len(M)
    k = min(k_neighbors, n_min - 1)
    needed = _rows_needed(n_min, majority_count, target_ratio)

    # exact search over row blocks, so memory stays linear in n_min
    block = max(1, _NEIGHBOR_BLOCK_ELEMENTS // max(1, n_min * M.shape[1]))
    neighbor_ids = np.empty((n_min, k), dtype=np.intp)
    for start in range(0, n_min, block):
        stop = min(start + block, n_min)
        diffs = M[start:stop, None, :] - M[None, :, :]
        dists = np.sqrt(np.sum(diffs ** 2, axis=2))
        dists[np.arange(stop - start), np.arange(start, stop)] = np.inf
        # ties in distance resolve to the lower row index
        neighbor_ids[start:stop] = np.argsort(dists, axis=1, kind="stable")[:, :k]

    rng = np.random.default_rng(seed)
    rows = np.empty((needed, M.shape[1]))
    for i in range(needed):
        base = int(rng.integers(0, n_min))
        nn = M[neighbor_ids[base, int(rng.integers(0, k))]]
        u = rng.random()
        rows[i] = M[base] + u * (nn - M[base])
    return _as_synthetic(train, rows, minority)


class RandomOversampleTechnique:
    name = "random-oversample"

    def __init__(self, target_ratio: float = 1.0):
        self.target_ratio = target_ratio

    def generate(self, train: Dataset, seed: int) -> Dataset:
        return random_oversample(train, self.target_ratio, seed)


class SmoteTechnique:
    name = "smote"

    def __init__(self, k_neighbors: int = 5, target_ratio: float = 1.0):
        self.k_neighbors = k_neighbors
        self.target_ratio = target_ratio

    def generate(self, train: Dataset, seed: int) -> Dataset:
        return smote(train, self.k_neighbors, self.target_ratio, seed)


class ReplayFileTechnique:
    """Reads pre-generated synthetic rows from CSV, so generators trained
    elsewhere (e.g. a tabular GAN) can compete in the F1 race.

    The file must carry every feature column of the training data, each cell
    a finite number; extra columns are ignored. All rows are tagged synthetic
    with the minority label.
    """

    def __init__(self, path):
        self.path = Path(path)
        self.name = f"replay:{self.path.name}"

    def generate(self, train: Dataset, seed: int) -> Dataset:
        raw = load_csv(self.path, label_column=None)
        name_to_col = {n: j for j, n in enumerate(raw.feature_names)}
        cols = []
        for name in train.feature_names:
            if name not in name_to_col:
                raise ValueError(f"replay file {self.path} lacks column {name!r}")
            col = raw.features[:, name_to_col[name]]
            values, missing, _ = _parse_column(col, numeric_input=False)
            if missing.any():
                i = int(np.argmax(missing))
                what = "missing value" if col[i] is None else f"{col[i]!r} is not a finite number"
                raise ValueError(f"replay file {self.path}: column {name!r}, line {i + 2}: {what}")
            cols.append(values)
        rows = np.column_stack(cols) if cols else np.empty((raw.n_rows, 0))
        minority, _, _ = _minority_info(train)
        return _as_synthetic(train, rows, minority)


@dataclass
class SynthesisOutcome:
    """Augmented training data plus the validation leftovers and race results."""

    augmented: Dataset              # winner's train + synthetic + correct validation rows
    misclassified: Dataset          # validation rows the winning model got wrong
    chosen_technique: str
    f1_scores: list = field(default_factory=list)  # (technique name, validation F1)
    model: TrainedModel | None = None


def meta_synthesize(d: Dataset, techniques: list, classifier_spec: ClassifierSpec,
                    split: SplitSpec) -> SynthesisOutcome:
    """Race the synthesis techniques on a stratified holdout and keep the best.

    For each technique: generate minority rows from the training part, train,
    score F1 on the validation part. The argmax wins (ties to list order); the
    winner is regenerated and retrained, correctly-classified validation rows
    are merged into the augmented set, and the misclassified ones are returned
    separately for the filtering stage.
    """
    if not techniques:
        raise ValueError("technique list is empty")
    if split.mode != "holdout":
        raise ValueError("meta_synthesize needs a holdout split spec")
    train, val = stratified_split(d, split)

    def run(technique, tech_index):
        syn = technique.generate(train, seed=split.seed + tech_index)
        aug = concat_datasets([train, syn])
        model = fit(classifier_spec, aug)
        preds = predict(model, val, threshold=0.5)
        return aug, model, preds, f1_score(val.labels, preds)

    f1s = []
    for i, tech in enumerate(techniques):
        _, _, _, f1 = run(tech, i)
        f1s.append((tech.name, f1))

    best = int(np.argmax([f1 for _, f1 in f1s]))
    aug, model, preds, _ = run(techniques[best], best)

    correct_mask = preds == val.labels
    correct = val.take(np.flatnonzero(correct_mask)).with_provenance("validation-merged")
    mis = val.take(np.flatnonzero(~correct_mask))
    return SynthesisOutcome(augmented=concat_datasets([aug, correct]),
                            misclassified=mis,
                            chosen_technique=techniques[best].name,
                            f1_scores=f1s, model=model)
