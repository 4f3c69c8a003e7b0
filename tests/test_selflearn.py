import numpy as np
import pytest

from imbenhance import selflearn
from imbenhance.classifiers import ClassifierSpec, TrainedModel, fit, predict
from imbenhance.data import Dataset, generate_synthetic_benchmark, stratified_split, SplitSpec
from imbenhance.metrics import f1_score
from imbenhance.selflearn import (
    LOG_COLUMNS,
    PseudoLabelConfig,
    SelfLearnOutcome,
    dds,
    kfulf,
    select_strategy,
)


def labeled(X, y):
    return Dataset(features=np.asarray(X, dtype=float), labels=np.asarray(y, dtype=int))


def unlabeled(X):
    return Dataset(features=np.asarray(X, dtype=float))


def small_train():
    return labeled([[0.0], [1.0], [10.0], [11.0]], [0, 0, 1, 1])


class ConstantModel(TrainedModel):
    """Always predicts the same class with fixed confidence."""

    def __init__(self, label_set=(0, 1), p=(0.2, 0.8)):
        self.label_set = np.asarray(label_set)
        self.p = np.asarray(p, dtype=float)
        self.n_features_ = 1

    def _proba(self, X):
        return np.tile(self.p, (X.shape[0], 1))


# -------------------------------------------------------------------- kfulf

def test_kfulf_fold_bookkeeping_nine_rows(monkeypatch):
    train = small_train()
    pool = unlabeled(np.arange(9).reshape(9, 1))
    cfg = PseudoLabelConfig(k_folds=3)
    artificial_counts = []
    fold_training_rows = []

    def recording_fit(spec, ds):
        artificial_counts.append(int(np.sum(ds.labels == -1)))
        fold_training_rows.append(set(ds.features[ds.labels == -1, 0].tolist()))
        return fit(ClassifierSpec(kind="decision-tree"), ds)

    monkeypatch.setattr(selflearn, "fit", recording_fit)
    out = kfulf(train, pool, ClassifierSpec(), cfg)
    assert artificial_counts == [6, 6, 6]
    assert sum(e["tested"] for e in out.log) == 9
    # every pool row is tested exactly once and never trains its own fold's model
    tested = set()
    for k, rows in enumerate(fold_training_rows):
        fold_rows = set(np.array_split(np.arange(9), 3)[k].astype(float).tolist())
        assert rows.isdisjoint(fold_rows)
        tested |= fold_rows
    assert tested == set(float(i) for i in range(9))


def test_kfulf_never_emits_artificial_label():
    train = small_train()
    rng = np.random.default_rng(0)
    pool = unlabeled(rng.normal(5, 4, size=(20, 1)))
    out = kfulf(train, pool, ClassifierSpec(kind="decision-tree"), PseudoLabelConfig(k_folds=4))
    assert -1 not in set(out.enhanced.labels.tolist())
    if out.pseudo_count:
        pseudo = out.enhanced.labels[out.enhanced.provenance == "pseudo-labeled"]
        assert set(pseudo.tolist()) <= {0, 1}


def test_kfulf_total_abstention_contributes_nothing(monkeypatch):
    train = small_train()
    pool = unlabeled(np.arange(6).reshape(6, 1))

    monkeypatch.setattr(selflearn, "fit", lambda spec, ds: ConstantModel(
        label_set=(-1, 0, 1), p=(0.8, 0.1, 0.1)))
    out = kfulf(train, pool, ClassifierSpec(), PseudoLabelConfig(k_folds=3))
    assert out.pseudo_count == 0
    assert out.enhanced.equals(train.take(np.arange(train.n_rows)))


def test_kfulf_pool_smaller_than_k():
    with pytest.raises(ValueError, match="smaller"):
        kfulf(small_train(), unlabeled([[1.0], [2.0]]), ClassifierSpec(),
              PseudoLabelConfig(k_folds=3))


def test_kfulf_empty_pool_is_noop():
    out = kfulf(small_train(), None, ClassifierSpec(), PseudoLabelConfig())
    assert out.pseudo_count == 0
    assert out.strategy_used == "KFULF"


def test_kfulf_enhanced_contains_train_as_prefix():
    train = small_train()
    pool = unlabeled(np.linspace(-1, 12, 10).reshape(10, 1))
    out = kfulf(train, pool, ClassifierSpec(kind="decision-tree"), PseudoLabelConfig(k_folds=5))
    assert np.array_equal(out.enhanced.features[: train.n_rows], train.features)
    assert np.array_equal(out.enhanced.labels[: train.n_rows], train.labels)


def test_kfulf_pseudo_accuracy_beats_base_model_on_separated_pool():
    d = generate_synthetic_benchmark(n=600, d=3, imbalance_ratio=4,
                                     separation=6.0, noise_rate=0.1, seed=42)
    train, hidden = stratified_split(d, SplitSpec(mode="holdout", ratio=0.6, seed=42))
    truth = hidden.labels.copy()
    pool = hidden.without_labels()
    spec = ClassifierSpec(kind="decision-tree", max_depth=6)
    out = kfulf(train, pool, spec, PseudoLabelConfig(k_folds=5))
    assert out.pseudo_count > 0
    pseudo_acc = float(np.mean(out.pseudo_labels == truth[out.pseudo_indices]))
    base = fit(spec, train)
    base_acc = float(np.mean(predict(base, pool) == truth))
    assert pseudo_acc > base_acc


# ---------------------------------------------------------------------- dds

def script_dds(monkeypatch, f1_values):
    """Every DDS fit returns ConstantModel and its F1 reads the next scripted value."""
    seq = iter(f1_values)
    monkeypatch.setattr(selflearn, "fit", lambda spec, ds: ConstantModel())
    monkeypatch.setattr(selflearn, "decision_f1", lambda model, ds: next(seq))


def test_dds_selection_counts_and_acceptance(monkeypatch):
    train = small_train()
    pool = unlabeled(np.arange(100).reshape(100, 1))
    cfg = PseudoLabelConfig(target_percentage=0.30)
    # base F1 0.2; two improving rounds (0.5, 0.7); then 0.6 stops the loop
    script_dds(monkeypatch, [0.2, 0.5, 0.7, 0.6])
    out = dds(train, pool, ClassifierSpec(), cfg)
    assert [e["selected"] for e in out.log] == [30, 21, 15]
    assert [e["accepted"] for e in out.log] == [True, True, False]
    assert out.pseudo_count == 51
    accepted_f1 = [e["f1_new"] for e in out.log if e["accepted"]]
    assert accepted_f1 == sorted(accepted_f1) and len(set(accepted_f1)) == len(accepted_f1)


def test_dds_immediate_stop_keeps_train_unchanged(monkeypatch):
    train = small_train()
    pool = unlabeled(np.arange(10).reshape(10, 1))
    script_dds(monkeypatch, [0.5, 0.5])  # not strictly better
    out = dds(train, pool, ClassifierSpec(), PseudoLabelConfig())
    assert out.pseudo_count == 0
    assert out.enhanced.equals(train.take(np.arange(train.n_rows)))
    assert len(out.log) == 1 and not out.log[0]["accepted"]


def test_dds_max_iterations_cap(monkeypatch):
    train = small_train()
    pool = unlabeled(np.arange(200).reshape(200, 1))
    cfg = PseudoLabelConfig(target_percentage=0.01, max_iterations=5)
    script_dds(monkeypatch, [0.1 + 0.01 * i for i in range(1000)])
    out = dds(train, pool, ClassifierSpec(), cfg)
    assert len(out.log) == 5


def test_dds_confidence_ties_resolve_to_original_order(monkeypatch):
    train = small_train()
    pool = unlabeled(np.arange(10).reshape(10, 1))
    script_dds(monkeypatch, [0.2, 0.9, 0.1])  # ConstantModel: equal confidence everywhere
    out = dds(train, pool, ClassifierSpec(), PseudoLabelConfig(target_percentage=0.30))
    first_batch = out.pseudo_indices[:3]
    assert list(first_batch) == [0, 1, 2]


def test_dds_empty_pool_is_noop():
    out = dds(small_train(), unlabeled(np.empty((0, 1))), ClassifierSpec(),
              PseudoLabelConfig())
    assert out.pseudo_count == 0 and out.strategy_used == "DDS"


def test_dds_real_run_pool_shrinks_and_is_deterministic():
    d = generate_synthetic_benchmark(n=400, d=3, imbalance_ratio=4,
                                     separation=5.0, noise_rate=0.05, seed=9)
    train, hidden = stratified_split(d, SplitSpec(mode="holdout", ratio=0.7, seed=9))
    pool = hidden.without_labels()
    spec = ClassifierSpec(kind="decision-tree", max_depth=6)
    a = dds(train, pool, spec, PseudoLabelConfig())
    b = dds(train, pool, spec, PseudoLabelConfig())
    assert a.enhanced.equals(b.enhanced)
    sizes = [e["pool_size"] for e in a.log]
    assert sizes == sorted(sizes, reverse=True) and len(set(sizes)) == len(sizes)
    assert len(a.log) <= PseudoLabelConfig().max_iterations


@pytest.mark.parametrize("strategy, first_index", [(kfulf, 0), (dds, 1)])
def test_log_entries_are_keyed_by_the_log_columns(strategy, first_index):
    pool = unlabeled(np.linspace(-1, 12, 10).reshape(10, 1))
    for p in (pool, None):
        out = strategy(small_train(), p, ClassifierSpec(kind="decision-tree"),
                       PseudoLabelConfig())
        assert out.log and all(set(e) <= set(LOG_COLUMNS) for e in out.log)
    out = strategy(small_train(), pool, ClassifierSpec(kind="decision-tree"), PseudoLabelConfig())
    indices = [e["index"] for e in out.log]
    assert indices == list(range(first_index, first_index + len(out.log)))


# ------------------------------------------------------------ select_strategy

def rigged_strategy(name):
    return lambda train, pool, spec, cfg: SelfLearnOutcome(
        enhanced=train, strategy_used=name, pseudo_count=0)


def rig_strategies(monkeypatch, holdout_f1s):
    """KFULF and DDS return no-op outcomes; their holdout F1s are scripted in run order."""
    monkeypatch.setattr(selflearn, "kfulf", rigged_strategy("KFULF"))
    monkeypatch.setattr(selflearn, "dds", rigged_strategy("DDS"))
    seq = iter(holdout_f1s)
    monkeypatch.setattr(selflearn, "fit", lambda spec, ds: ConstantModel())
    monkeypatch.setattr(selflearn, "decision_f1", lambda model, ds: next(seq))


def test_select_strategy_rigged_scores_pick_dds(monkeypatch):
    train = small_train()
    holdout = labeled([[0.5], [10.5]], [0, 1])
    rig_strategies(monkeypatch, [0.5, 0.6])
    out = select_strategy(train, None, holdout, ClassifierSpec(), PseudoLabelConfig())
    assert out.strategy_used == "DDS"
    assert out.selection_f1 == {"KFULF": 0.5, "DDS": 0.6}


def test_select_strategy_tie_goes_to_kfulf(monkeypatch):
    train = small_train()
    holdout = labeled([[0.5], [10.5]], [0, 1])
    rig_strategies(monkeypatch, [0.7, 0.7])
    out = select_strategy(train, None, holdout, ClassifierSpec(), PseudoLabelConfig())
    assert out.strategy_used == "KFULF"


def test_select_strategy_empty_pool_defaults_to_kfulf():
    train = small_train()
    holdout = labeled([[0.5], [10.5]], [0, 1])
    out = select_strategy(train, None, holdout,
                          ClassifierSpec(kind="decision-tree"), PseudoLabelConfig())
    assert out.strategy_used == "KFULF"
    assert out.pseudo_count == 0


def test_select_strategy_winner_scores_at_least_loser():
    d = generate_synthetic_benchmark(n=500, d=3, imbalance_ratio=4,
                                     separation=4.0, noise_rate=0.1, seed=21)
    train, rest = stratified_split(d, SplitSpec(mode="holdout", ratio=0.5, seed=21))
    holdout, hidden = stratified_split(rest, SplitSpec(mode="holdout", ratio=0.4, seed=21))
    pool = hidden.without_labels()
    out = select_strategy(train, pool, holdout,
                          ClassifierSpec(kind="decision-tree", max_depth=6),
                          PseudoLabelConfig(k_folds=4))
    assert out.selection_f1[out.strategy_used] == max(out.selection_f1.values())


def accepting_dds_problem():
    """A split on which a depth-3 DDS accepts at least one round."""
    d = generate_synthetic_benchmark(n=300, d=3, imbalance_ratio=4,
                                     separation=2.0, noise_rate=0.1, seed=24)
    train, rest = stratified_split(d, SplitSpec(mode="holdout", ratio=0.5, seed=24))
    holdout, hidden = stratified_split(rest, SplitSpec(mode="holdout", ratio=0.4, seed=24))
    spec = ClassifierSpec(kind="decision-tree", max_depth=3)
    return train, hidden.without_labels(), holdout, spec, PseudoLabelConfig(k_folds=4)


def test_select_strategy_fits_only_through_the_module_fit(monkeypatch):
    train, pool, holdout, spec, cfg = accepting_dds_problem()
    iterations = len(dds(train, pool, spec, cfg).log)
    assert iterations > 1  # DDS accepted at least one round
    fits = []
    monkeypatch.setattr(selflearn, "fit", lambda s, ds: fits.append(ds.n_rows) or fit(s, ds))
    select_strategy(train, pool, holdout, spec, cfg)
    # KFULF's folds, DDS's base fit and rounds, then KFULF's scoring fit;
    # DDS is scored with the model it fitted on its enhanced set
    assert len(fits) == cfg.k_folds + (1 + iterations) + 1


def test_dds_model_scores_as_a_fresh_fit_on_its_enhanced_set():
    train, pool, holdout, spec, cfg = accepting_dds_problem()
    out = dds(train, pool, spec, cfg)
    assert out.pseudo_count > 0 and not out.log[-1]["accepted"]  # last fit is discarded
    fresh = fit(spec, out.enhanced)
    assert np.array_equal(out.model.predict_proba(holdout.features),
                          fresh.predict_proba(holdout.features))
    picked = select_strategy(train, pool, holdout, spec, cfg)
    assert picked.selection_f1["DDS"] == f1_score(holdout.labels, predict(fresh, holdout))


def test_dds_that_accepts_nothing_keeps_its_first_fit():
    train = small_train()
    out = dds(train, unlabeled([[0.5], [10.5]]), ClassifierSpec(kind="decision-tree"),
              PseudoLabelConfig())
    assert out.pseudo_count == 0
    assert np.array_equal(out.model.predict_proba(train.features),
                          fit(ClassifierSpec(kind="decision-tree"), train)
                          .predict_proba(train.features))
