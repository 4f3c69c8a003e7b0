"""Minority-class synthesis: random oversampling, SMOTE, replay of external
generators, and an F1-driven race that picks the best technique."""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import partial
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from .classifiers import ClassifierSpec, TrainedModel, fit, predict
from .data import (
    Dataset,
    SplitSpec,
    class_stats,
    concat_datasets,
    read_numbers,
    read_table,
    stratified_split,
)
from .metrics import decision_f1, first_best

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


def _check_target_ratio(target_ratio: float):
    if not (math.isfinite(target_ratio) and target_ratio > 0.0):
        raise ValueError(f"target_ratio must be finite and > 0, got {target_ratio}")


def _rows_needed(minority_count: int, majority_count: int, target_ratio: float) -> int:
    _check_target_ratio(target_ratio)
    target = target_ratio * majority_count
    if not math.isfinite(target):
        raise ValueError(f"target_ratio {target_ratio} of {majority_count} majority rows "
                         "is not a finite row count")
    return max(0, int(math.floor(target + 0.5)) - minority_count)


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


class Technique(NamedTuple):
    """One race entry: ``generate(train, seed=...)`` returns the synthetic minority rows."""

    name: str
    generate: Callable[..., Dataset]


def replay_rows(path: Path, train: Dataset, seed: int) -> Dataset:
    """Reads pre-generated synthetic rows from CSV, so generators trained
    elsewhere (e.g. a tabular GAN) can compete in the F1 race.

    The file must carry every feature column of the training data, each cell
    a finite number; extra columns are ignored. All rows are tagged synthetic
    with the minority label. ``seed`` is ignored.
    """
    header, table = read_table(path)
    name_to_col = {n: j for j, n in enumerate(header)}
    cols = []
    for name in train.feature_names:
        if name not in name_to_col:
            raise ValueError(f"replay file {path} lacks column {name!r}")
        cols.append(read_numbers([row[name_to_col[name]] for row in table],
                                 f"replay file {path}: column {name!r}"))
    rows = np.column_stack(cols) if cols else np.empty((len(table), 0))
    minority, _, _ = _minority_info(train)
    return _as_synthetic(train, rows, minority)


def build_techniques(names: list, smote_k_neighbors: int, target_ratio: float) -> list[Technique]:
    """The race entries for the config tokens ``names``, in order; a bad token
    or parameter, or two entries of one name, is refused before anything is
    generated, so every report names each entry once."""
    _check_target_ratio(target_ratio)
    if smote_k_neighbors < 1:
        raise ValueError(f"smote_k_neighbors must be at least 1, got {smote_k_neighbors}")
    if not names:
        raise ValueError("techniques must be a nonempty list")
    built = []
    for name in names:
        if name == "random-oversample":
            entry = Technique(name, partial(random_oversample, target_ratio=target_ratio))
        elif name == "smote":
            entry = Technique(name, partial(smote, k_neighbors=smote_k_neighbors,
                                            target_ratio=target_ratio))
        elif name.startswith("replay:"):
            path = Path(name.split(":", 1)[1])
            entry = Technique(f"replay:{path.name}", partial(replay_rows, path))
        else:
            raise ValueError("techniques must be random-oversample, smote or replay:PATH, "
                             f"got {name!r}")
        built.append(entry)
    _refuse_repeated_names(built)
    return built


def _refuse_repeated_names(techniques: list):
    """A report names each race entry once, so two entries of one name are refused."""
    seen = set()
    for tech in techniques:
        if tech.name in seen:
            raise ValueError(f"techniques: two entries are named {tech.name!r}")
        seen.add(tech.name)


def split_by_error(m: TrainedModel, val: Dataset) -> tuple[Dataset, Dataset]:
    """The rows of ``val`` that ``m`` predicts right at 0.5, as validation-merged, and the rest."""
    right = predict(m, val, threshold=0.5) == val.labels
    return (val.take(np.flatnonzero(right)).with_provenance("validation-merged"),
            val.take(np.flatnonzero(~right)))


@dataclass
class SynthesisOutcome:
    """Augmented training data plus the validation leftovers and race results."""

    augmented: Dataset              # winner's train + synthetic + correct validation rows
    misclassified: Dataset          # validation rows the winning model got wrong
    chosen: int                     # the winner's index into f1_scores
    f1_scores: list = field(default_factory=list)  # (technique name, validation F1)
    model: TrainedModel | None = None

    @property
    def chosen_technique(self) -> str:
        return self.f1_scores[self.chosen][0]


def meta_synthesize(d: Dataset, techniques: list, classifier_spec: ClassifierSpec,
                    split: SplitSpec) -> SynthesisOutcome:
    """Race the synthesis techniques on a stratified holdout and keep the best.

    For each technique: generate minority rows from the training part, train,
    score F1 on the validation part. The first highest F1 wins; the winner's
    augmented set is kept and retrained, correctly-classified validation rows
    are merged into it, and the misclassified ones are returned separately for
    the filtering stage.
    """
    if not techniques:
        raise ValueError("technique list is empty")
    _refuse_repeated_names(techniques)
    if split.mode != "holdout":
        raise ValueError("meta_synthesize needs a holdout split spec")
    train, val = stratified_split(d, split)
    augs = [concat_datasets([train, tech.generate(train, seed=split.seed + i)])
            for i, tech in enumerate(techniques)]
    f1s = [(tech.name, decision_f1(fit(classifier_spec, aug), val))
           for tech, aug in zip(techniques, augs)]
    best = first_best([f1 for _, f1 in f1s])
    # refitted rather than kept from the race: perfbench pins synthesis.race_refits
    # until the benchmark counts repeated fits by content (ROADMAP item 1)
    model = fit(classifier_spec, augs[best])
    correct, mis = split_by_error(model, val)
    return SynthesisOutcome(augmented=concat_datasets([augs[best], correct]),
                            misclassified=mis, chosen=best, f1_scores=f1s, model=model)
