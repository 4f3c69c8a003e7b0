import numpy as np
import pytest

from imbenhance import filtering
from imbenhance.classifiers import ClassifierSpec, TrainedModel, fit
from imbenhance.data import (
    Dataset,
    SplitSpec,
    class_stats,
    generate_synthetic_benchmark,
    largest_remainder,
    stratified_split,
)
from imbenhance.filtering import (
    DEFAULT_THRESHOLD_GRID,
    filter_sweep,
    margins,
    retain_by_class,
)
from imbenhance.synthesis import build_techniques, meta_synthesize


class FixedRowsModel(TrainedModel):
    """Returns a fixed probability matrix regardless of input values."""

    def __init__(self, rows, label_set=(0, 1)):
        self.rows = np.asarray(rows, dtype=float)
        self.label_set = np.asarray(label_set)
        self.n_features_ = 1

    def _proba(self, X):
        return self.rows[: X.shape[0]]


class AllOnesModel(TrainedModel):
    label_set = np.array([0, 1])

    def __init__(self, n_features=1):
        self.n_features_ = n_features

    def _proba(self, X):
        return np.tile([0.0, 1.0], (X.shape[0], 1))


class AllZerosModel(TrainedModel):
    label_set = np.array([0, 1])

    def __init__(self, n_features=1):
        self.n_features_ = n_features

    def _proba(self, X):
        return np.tile([1.0, 0.0], (X.shape[0], 1))


def labeled(X, y):
    return Dataset(features=np.asarray(X, dtype=float), labels=np.asarray(y, dtype=int))


def stats_for(counts):
    n = sum(counts)
    y = np.concatenate([np.full(c, lbl) for lbl, c in enumerate(counts)])
    return class_stats(labeled(np.zeros((n, 1)), y))


# ------------------------------------------------------------------ margins

def test_margin_binary_rows():
    m = FixedRowsModel([[0.9, 0.1], [0.5, 0.5]])
    deltas = margins(m, labeled([[0.0], [0.0]], [0, 1]))
    assert deltas[0] == pytest.approx(0.8)
    assert deltas[1] == pytest.approx(0.0)
    assert deltas.shape == (2,)


def test_margin_three_class_uses_second_highest():
    m = FixedRowsModel([[0.5, 0.3, 0.2]], label_set=(-1, 0, 1))
    deltas = margins(m, labeled([[0.0]], [1]))
    assert deltas[0] == pytest.approx(0.2)


# --------------------------------------------------------- retention counts

def test_retention_counts_blsd_priors():
    assert list(largest_remainder((0.7748, 0.2252), 1000)) == [775, 225]


def test_retention_counts_tiebreak():
    assert list(largest_remainder((0.5, 0.5), 3)) == [2, 1]


def test_retain_by_class_shortfall_not_reassigned():
    # pool: 8 rows of class 0, 2 rows of class 1; quotas from 50/50 priors -> (5, 5)
    pool = labeled(np.arange(10).reshape(10, 1), [0] * 8 + [1] * 2)
    out = retain_by_class(pool, stats_for([50, 50]), 0.1 * np.arange(10))
    assert int(np.sum(out.labels == 0)) == 5
    assert int(np.sum(out.labels == 1)) == 2  # both retained, shortfall 3 dropped
    assert np.all(out.provenance == "retained")


def test_retain_by_class_prefers_high_margin():
    # 50/50 priors over a 4-row all-class-0 pool: quota for class 0 is 2,
    # so the two highest-margin rows (indices 1 and 3) are retained
    pool = labeled(np.arange(4).reshape(4, 1), [0, 0, 0, 0])
    out = retain_by_class(pool, stats_for([50, 50]), np.array([0.1, 0.9, 0.5, 0.7]))
    assert sorted(out.features[:, 0].tolist()) == [1.0, 3.0]


def test_retain_by_class_empty_pool():
    pool = labeled(np.empty((0, 1)), np.empty(0, dtype=int))
    out = retain_by_class(pool, stats_for([5, 5]), np.empty(0))
    assert out.n_rows == 0


# ------------------------------------------------------------- filter_sweep

@pytest.fixture
def all_ones_fit(monkeypatch):
    """Every fit in the sweep returns AllOnesModel."""
    monkeypatch.setattr(filtering, "fit", lambda spec, ds: AllOnesModel())


def make_margin_setup(deltas, labels):
    """aug dataset + stub model with margin = deltas (binary rows)."""
    rows = [[(1 - dlt) / 2, (1 + dlt) / 2] for dlt in deltas]
    aug = labeled(np.arange(len(deltas)).reshape(-1, 1), labels)
    return aug, FixedRowsModel(rows)


def test_sweep_threshold_zero_is_identity(all_ones_fit):
    aug, m = make_margin_setup([0.9, 0.4, 0.1, 0.6], [0, 1, 0, 1])
    mis = labeled([[0.0], [1.0]], [1, 0])
    out = filter_sweep(aug, mis, m, ClassifierSpec(), thresholds=[0.0],
                       retention=False)
    assert out.filtered.equals(aug)
    assert out.table[0].filtered_out_count == 0


def test_sweep_comparison_is_inclusive(all_ones_fit):
    rows = [[0.05, 0.95], [0.25, 0.75], [0.45, 0.55]]  # margins 0.9, exactly 0.5, 0.1
    aug = labeled(np.arange(3).reshape(3, 1), [0, 1, 0])
    mis = labeled([[0.0], [1.0]], [1, 0])
    out = filter_sweep(aug, mis, FixedRowsModel(rows), ClassifierSpec(),
                       thresholds=[0.5], retention=False)
    entry = out.table[0]
    assert entry.kept_count == 2  # margin exactly 0.5 is kept: >= is inclusive
    assert entry.filtered_out_count == 1


def test_sweep_counts_at_half_threshold(all_ones_fit):
    rows = [[0.05, 0.95], [0.3, 0.7], [0.45, 0.55]]  # margins near 0.9, 0.4, 0.1
    aug = labeled(np.arange(3).reshape(3, 1), [0, 1, 0])
    mis = labeled([[0.0], [1.0]], [1, 0])
    out = filter_sweep(aug, mis, FixedRowsModel(rows), ClassifierSpec(),
                       thresholds=[0.0, 0.5], retention=False)
    entry = next(e for e in out.table if e.threshold == 0.5)
    assert entry.kept_count == 1 and entry.filtered_out_count == 2


def test_sweep_rigged_f1_picks_argmax(monkeypatch):
    # two thresholds produce candidates of different sizes; the fit rigs their F1
    aug, m = make_margin_setup([0.9, 0.9, 0.2, 0.2], [0, 1, 0, 1])
    mis = labeled([[0.0], [1.0]], [1, 0])
    monkeypatch.setattr(filtering, "fit", lambda spec, ds:
                        AllZerosModel() if ds.n_rows == 4 else AllOnesModel())
    out = filter_sweep(aug, mis, m, ClassifierSpec(), thresholds=[0.1, 0.5],
                       retention=False)
    # t=0.1 keeps all 4 -> F1 0; t=0.5 keeps 2 -> F1 2/3
    assert out.chosen_threshold == 0.5
    assert [e.f1 for e in out.table] == [0.0, pytest.approx(2 / 3)]


def test_sweep_tie_goes_to_smallest_threshold(all_ones_fit):
    aug, m = make_margin_setup([0.9, 0.9, 0.2, 0.2], [0, 1, 0, 1])
    mis = labeled([[0.0], [1.0]], [1, 0])
    out = filter_sweep(aug, mis, m, ClassifierSpec(), thresholds=[0.5, 0.1],
                       retention=False)
    assert out.chosen_threshold == 0.1


def test_sweep_skips_degenerate_thresholds(all_ones_fit):
    aug, m = make_margin_setup([0.2, 0.2, 0.2, 0.2], [0, 1, 0, 1])
    mis = labeled([[0.0], [1.0]], [1, 0])
    out = filter_sweep(aug, mis, m, ClassifierSpec(), thresholds=[0.1, 0.9],
                       retention=False)
    assert out.table[1].f1 == -1.0  # t=0.9 keeps nothing
    assert out.chosen_threshold == 0.1


def test_sweep_all_skipped_raises(all_ones_fit):
    aug, m = make_margin_setup([0.2, 0.2], [0, 1])
    mis = labeled([[0.0], [1.0]], [1, 0])
    with pytest.raises(ValueError, match="every threshold"):
        filter_sweep(aug, mis, m, ClassifierSpec(), thresholds=[0.9],
                     retention=False)


def test_sweep_empty_mis_raises():
    aug, m = make_margin_setup([0.9, 0.4], [0, 1])
    mis = labeled(np.empty((0, 1)), np.empty(0, dtype=int))
    with pytest.raises(ValueError, match="empty"):
        filter_sweep(aug, mis, m, ClassifierSpec(), retention=False)


def test_sweep_refits_only_distinct_candidates(monkeypatch):
    # kept counts 4, 4, 2, 2, 0: the second of each equal pair is the same
    # candidate; at 0.95 retention alone refills the candidate
    aug, m = make_margin_setup([0.9, 0.9, 0.2, 0.2], [0, 1, 0, 1])
    mis = labeled([[0.0], [1.0]], [1, 0])
    grid = [0.0, 0.1, 0.3, 0.5, 0.95]
    kwargs = dict(original_stats=stats_for([2, 2]), retention=True)
    fitted = []
    monkeypatch.setattr(filtering, "fit", lambda spec, ds: fitted.append(ds.n_rows) or fit(spec, ds))
    out = filter_sweep(aug, mis, m, ClassifierSpec(), thresholds=grid, **kwargs)
    assert [e.kept_count for e in out.table] == [4, 4, 2, 2, 0]
    assert len(fitted) == 3
    # each entry is what a sweep over its threshold alone records
    alone = [filter_sweep(aug, mis, m, ClassifierSpec(), thresholds=[t], **kwargs).table[0]
             for t in grid]
    assert out.table == alone


def real_pipeline_pieces(seed=42):
    d = generate_synthetic_benchmark(n=500, d=3, imbalance_ratio=8, noise_rate=0.1, seed=seed)
    train, val = stratified_split(d, SplitSpec(ratio=0.8, seed=seed))
    out = meta_synthesize(train, build_techniques(["random-oversample"], 5, 1.0),
                          ClassifierSpec(kind="decision-tree", max_depth=6), val, seed)
    return d, out


def test_sweep_monotone_kept_sets_and_invariants():
    d, syn = real_pipeline_pieces()
    stats = class_stats(d)
    out = filter_sweep(syn.augmented, syn.misclassified, syn.model,
                       ClassifierSpec(kind="decision-tree", max_depth=6),
                       thresholds=DEFAULT_THRESHOLD_GRID, original_stats=stats)

    # kept-set monotonicity in t (before retention)
    deltas = margins(syn.model, syn.augmented)
    kept_sets = [set(np.flatnonzero(deltas >= t)) for t in DEFAULT_THRESHOLD_GRID]
    for a, b in zip(kept_sets, kept_sets[1:]):
        assert b <= a

    # directly kept rows all satisfy margin >= chosen threshold
    direct = out.filtered.take(np.flatnonzero(out.filtered.provenance != "retained"))
    chosen_entry = next(e for e in out.table if e.threshold == out.chosen_threshold)
    assert direct.n_rows == chosen_entry.kept_count
    assert chosen_entry.kept_count + chosen_entry.filtered_out_count == syn.augmented.n_rows
    assert out.filtered.n_rows == chosen_entry.kept_count + chosen_entry.retained_count

    # retention bounded by pool and quota
    assert sum(out.retained_counts.values()) <= chosen_entry.filtered_out_count

    # chosen threshold's F1 is max over non-skipped entries
    real = [e for e in out.table if e.f1 >= 0]
    assert all(chosen_entry.f1 >= e.f1 for e in real)


def test_sweep_retained_rows_come_from_pool():
    d, syn = real_pipeline_pieces(seed=7)
    stats = class_stats(d)
    out = filter_sweep(syn.augmented, syn.misclassified, syn.model,
                       ClassifierSpec(kind="decision-tree", max_depth=6),
                       original_stats=stats)
    deltas = margins(syn.model, syn.augmented)
    pool_rows = {tuple(r) for r in syn.augmented.features[deltas < out.chosen_threshold]}
    retained = out.filtered.features[out.filtered.provenance == "retained"]
    for row in retained:
        assert tuple(row) in pool_rows


def test_sweep_deterministic():
    d, syn = real_pipeline_pieces(seed=3)
    stats = class_stats(d)
    kwargs = dict(thresholds=DEFAULT_THRESHOLD_GRID, original_stats=stats)
    spec = ClassifierSpec(kind="decision-tree", max_depth=6)
    a = filter_sweep(syn.augmented, syn.misclassified, syn.model, spec, **kwargs)
    b = filter_sweep(syn.augmented, syn.misclassified, syn.model, spec, **kwargs)
    assert a.chosen_threshold == b.chosen_threshold
    assert a.filtered.equals(b.filtered)
