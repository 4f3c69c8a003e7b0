"""Pseudo-label self-learning: KFULF, DDS, and adaptive selection between them.

KFULF trains per-fold models where out-of-fold pool rows carry an artificial
abstention label; predictions that avoid it become pseudo-labels. DDS
iteratively drafts the top-confidence slice of the pool, keeping each batch
only while the model's F1 on its own training pool keeps improving.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .classifiers import ClassifierSpec, TrainedModel, fit, predict, predict_proba
from .data import Dataset, check_count, check_number, concat_datasets
from .metrics import decision_f1, first_best

# Abstention label KFULF gives out-of-fold pool rows; never in the output.
ARTIFICIAL_LABEL = -1

# Keys of a SelfLearnOutcome.log entry, which are the selflearn_log.csv columns
# after ``strategy``; ``index`` is the KFULF fold or the DDS iteration.
LOG_COLUMNS = ("event", "index", "pool_size", "selected", "tested", "kept",
               "f1_base", "f1_new", "accepted")


@dataclass
class PseudoLabelConfig:
    k_folds: int = 5
    target_percentage: float = 0.30
    max_iterations: int = 100

    def __post_init__(self):
        check_count("k_folds", self.k_folds, 2)
        check_number("target_percentage", self.target_percentage, "(0, 1)")
        check_count("max_iterations", self.max_iterations, 1)


@dataclass
class SelfLearnOutcome:
    enhanced: Dataset            # train plus accepted pseudo-labeled rows
    strategy_used: str           # "KFULF" | "DDS"
    log: list = field(default_factory=list)
    pseudo_indices: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=int))
    pseudo_labels: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=int))
    selection_f1: dict | None = None  # set by select_strategy
    model: TrainedModel | None = None  # DDS: the fit on ``enhanced``, for select_strategy

    @property
    def pseudo_count(self) -> int:
        return len(self.pseudo_indices)


def _pseudo_dataset(unlabeled: Dataset, indices, labels) -> Dataset:
    ds = unlabeled.take(indices).with_labels(np.asarray(labels, dtype=int))
    return ds.with_provenance("pseudo-labeled")


def _outcome(train: Dataset, unlabeled: Dataset, strategy: str, indices: list,
             labels: list, log: list, model: TrainedModel | None = None) -> SelfLearnOutcome:
    """``train`` plus the pseudo-labeled pool rows ``indices``, appended in order."""
    pseudo_idx = np.array(indices, dtype=int)
    pseudo_lbl = np.array(labels, dtype=int)
    enhanced = train if len(pseudo_idx) == 0 else concat_datasets(
        [train, _pseudo_dataset(unlabeled, pseudo_idx, pseudo_lbl)])
    return SelfLearnOutcome(enhanced=enhanced, strategy_used=strategy, log=log,
                            pseudo_indices=pseudo_idx, pseudo_labels=pseudo_lbl, model=model)


def kfulf(train: Dataset, unlabeled: Dataset | None, classifier_spec: ClassifierSpec,
          cfg: PseudoLabelConfig) -> SelfLearnOutcome:
    """K-fold unknown-label filtering.

    The pool splits into k folds. For each fold, every other fold joins the
    training set under the artificial label; the fold itself is predicted by
    the resulting model and rows predicted as anything but the artificial
    label are kept with that prediction. All keeps are appended to the
    training set.
    """
    if train.labels is None:
        raise ValueError("kfulf requires a labeled training set")
    if unlabeled is None or unlabeled.n_rows == 0:
        return _outcome(train, unlabeled, "KFULF", [], [], [{"event": "empty unlabeled pool"}])
    if unlabeled.n_rows < cfg.k_folds:
        raise ValueError(f"unlabeled pool of {unlabeled.n_rows} rows is smaller "
                         f"than k_folds={cfg.k_folds}")

    folds = np.array_split(np.arange(unlabeled.n_rows), cfg.k_folds)
    kept_idx: list[int] = []
    kept_labels: list[int] = []
    log = []
    for k, fold in enumerate(folds):
        rest = np.concatenate([f for j, f in enumerate(folds) if j != k])
        pool_part = unlabeled.take(rest).with_labels(
            np.full(len(rest), ARTIFICIAL_LABEL, dtype=int))
        model = fit(classifier_spec, concat_datasets([train, pool_part]))
        preds = predict(model, unlabeled.take(fold))
        keep = preds != ARTIFICIAL_LABEL
        kept_idx.extend(fold[keep].tolist())
        kept_labels.extend(np.asarray(preds)[keep].tolist())
        log.append({"event": "fold", "index": k, "tested": int(len(fold)),
                    "kept": int(np.sum(keep))})
    return _outcome(train, unlabeled, "KFULF", kept_idx, kept_labels, log)


def _selection_size(pct: float, pool: int) -> int:
    # ceil with a nudge so exact products like 0.3 * 100 stay at 30
    return max(1, math.ceil(pct * pool - 1e-9))


def dds(train: Dataset, unlabeled: Dataset | None, classifier_spec: ClassifierSpec,
        cfg: PseudoLabelConfig) -> SelfLearnOutcome:
    """Delay-decision strategy.

    Each round ranks the remaining pool by model confidence (max class
    probability, ties by original row order), drafts the top
    ``target_percentage`` slice (at least one row), pseudo-labels it with the
    current model, retrains on train + accepted + draft, and keeps the draft
    only if F1 on that training pool strictly improves. Stops on the first
    non-improvement, an empty pool, or the iteration cap.
    """
    if train.labels is None:
        raise ValueError("dds requires a labeled training set")
    if unlabeled is None or unlabeled.n_rows == 0:
        return _outcome(train, unlabeled, "DDS", [], [], [{"event": "empty unlabeled pool"}])

    model = kept_model = fit(classifier_spec, train)
    f1_base = decision_f1(model, train)
    pool_ids = np.arange(unlabeled.n_rows)
    kept = train  # train plus every accepted draft, in acceptance order
    accepted_idx: list[int] = []
    accepted_labels: list[int] = []
    log = []

    iterations = 0
    while len(pool_ids) > 0 and iterations < cfg.max_iterations:
        iterations += 1
        pool_ds = unlabeled.take(pool_ids)
        confidence = predict_proba(model, pool_ds).max(axis=1)
        order = np.argsort(-confidence, kind="stable")
        top = order[:_selection_size(cfg.target_percentage, len(pool_ids))]
        selected = unlabeled.take(pool_ids[top])
        y_sel = predict(model, selected)

        tmp = concat_datasets([kept, _pseudo_dataset(unlabeled, pool_ids[top], y_sel)])
        model = fit(classifier_spec, tmp)
        f1_new = decision_f1(model, tmp)
        accepted = first_best([f1_base, f1_new]) == 1
        log.append({"event": "iteration", "index": iterations,
                    "pool_size": int(len(pool_ids)), "selected": int(len(top)),
                    "f1_base": float(f1_base), "f1_new": float(f1_new),
                    "accepted": bool(accepted)})

        if not accepted:
            break
        f1_base, kept_model, kept = f1_new, model, tmp
        accepted_idx.extend(pool_ids[top].tolist())
        accepted_labels.extend(np.asarray(y_sel).tolist())
        pool_ids = np.delete(pool_ids, top)
    return SelfLearnOutcome(enhanced=kept, strategy_used="DDS", log=log,
                            pseudo_indices=np.array(accepted_idx, dtype=int),
                            pseudo_labels=np.array(accepted_labels, dtype=int), model=kept_model)


def select_strategy(train: Dataset, unlabeled: Dataset | None,
                    selection_holdout: Dataset, classifier_spec: ClassifierSpec,
                    cfg: PseudoLabelConfig) -> SelfLearnOutcome:
    """Run KFULF and DDS, score each enhanced set on the holdout, keep the winner.

    Each strategy's enhanced dataset is scored by F1 on ``selection_holdout``
    with a model fitted on it: a fresh fit for KFULF, and for DDS the fit it
    already made on the same rows in the same order. Ties go to KFULF.
    """
    if selection_holdout.labels is None:
        raise ValueError("selection holdout must be labeled")
    outcomes = [kfulf(train, unlabeled, classifier_spec, cfg),
                dds(train, unlabeled, classifier_spec, cfg)]
    scores = [decision_f1(o.model or fit(classifier_spec, o.enhanced), selection_holdout)
              for o in outcomes]
    winner = outcomes[first_best(scores)]
    winner.selection_f1 = {o.strategy_used: float(s) for o, s in zip(outcomes, scores)}
    return winner
