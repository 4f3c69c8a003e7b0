import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from imbenhance import synthesis
from imbenhance.classifiers import ClassifierSpec, TrainedModel
from imbenhance.data import (
    Dataset,
    SplitSpec,
    class_stats,
    concat_datasets,
    generate_synthetic_benchmark,
    stratified_split,
)
from imbenhance.synthesis import (
    Technique,
    build_techniques,
    meta_synthesize,
    random_oversample,
    replay_rows,
    smote,
)


def imbalanced_dataset(n_min=10, n_maj=100, seed=0):
    rng = np.random.default_rng(seed)
    X = np.vstack([rng.normal(0, 1, (n_maj, 2)), rng.normal(3, 1, (n_min, 2))])
    y = np.array([0] * n_maj + [1] * n_min)
    return Dataset(features=X, labels=y)


# -------------------------------------------------------- random_oversample

def test_oversample_reaches_parity():
    d = imbalanced_dataset(10, 100)
    syn = random_oversample(d, target_ratio=1.0, seed=1)
    assert syn.n_rows == 90
    assert np.all(syn.labels == 1)
    assert np.all(syn.provenance == "synthetic")


def test_oversample_noop_at_current_ratio():
    d = imbalanced_dataset(10, 100)
    assert random_oversample(d, target_ratio=0.1, seed=1).n_rows == 0


def test_oversample_rows_are_duplicates():
    d = imbalanced_dataset(5, 40)
    syn = random_oversample(d, target_ratio=1.0, seed=2)
    minority_rows = {tuple(r) for r in d.features[d.labels == 1]}
    for row in syn.features:
        assert tuple(row) in minority_rows


def test_oversample_deterministic():
    d = imbalanced_dataset(6, 30)
    a = random_oversample(d, seed=9)
    b = random_oversample(d, seed=9)
    assert a.equals(b)


# -------------------------------------------------------------------- smote

def test_smote_midpoint_interpolation():
    # two minority points: every synthetic row sits on the segment between them
    X = np.array([[0.0, 0.0], [1.0, 1.0]] + [[10.0, 10.0]] * 8)
    y = np.array([1, 1] + [0] * 8)
    d = Dataset(features=X, labels=y)
    syn = smote(d, k_neighbors=5, target_ratio=1.0, seed=3)
    assert syn.n_rows == 6
    for row in syn.features:
        assert row[0] == pytest.approx(row[1])       # on the diagonal segment
        assert 0.0 <= row[0] <= 1.0


def test_smote_identical_minority_points():
    X = np.array([[2.0, 2.0], [2.0, 2.0]] + [[9.0, 9.0]] * 6)
    y = np.array([1, 1] + [0] * 6)
    syn = smote(Dataset(features=X, labels=y), seed=4)
    assert np.all(syn.features == 2.0)


def test_smote_requires_two_minority_rows():
    X = np.vstack([np.zeros((1, 2)), np.ones((5, 2))])
    y = np.array([1, 0, 0, 0, 0, 0])
    with pytest.raises(ValueError, match="at least 2"):
        smote(Dataset(features=X, labels=y))


@pytest.mark.parametrize("k", [0, -1, -3])
def test_smote_rejects_fewer_than_one_neighbor(k):
    X = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]] + [[10.0, 10.0]] * 8)
    y = np.array([1, 1, 1] + [0] * 8)
    with pytest.raises(ValueError, match=f"^k_neighbors must be an integer >= 1, got {k}$"):
        smote(Dataset(features=X, labels=y), k_neighbors=k)


@pytest.mark.parametrize("generate", [random_oversample, smote])
@pytest.mark.parametrize("ratio", [float("inf"), float("nan"), 0.0, -1.0])
def test_generators_refuse_a_target_ratio_not_finite_and_positive(generate, ratio):
    with pytest.raises(ValueError, match=r"^target_ratio must be a number in \(0, inf\), got "):
        generate(imbalanced_dataset(10, 100), target_ratio=ratio)


def test_a_target_ratio_past_any_row_count_is_refused_naming_it():
    with pytest.raises(ValueError, match=r"^target_ratio 1e\+308 of 100 majority rows "):
        random_oversample(imbalanced_dataset(10, 100), target_ratio=1e308)


def test_smote_rows_lie_on_a_neighbor_segment():
    rng = np.random.default_rng(5)
    M = rng.normal(0, 1, (5, 2))
    X = np.vstack([M, rng.normal(8, 1, (20, 2))])
    y = np.array([1] * 5 + [0] * 20)
    syn = smote(Dataset(features=X, labels=y), k_neighbors=3, target_ratio=1.0, seed=6)
    assert syn.n_rows == 15
    for row in syn.features:
        on_some_segment = False
        for i in range(len(M)):
            for j in range(len(M)):
                if i == j:
                    continue
                seg = M[j] - M[i]
                rel = row - M[i]
                denom = float(seg @ seg)
                if denom == 0:
                    continue
                u = float(rel @ seg) / denom
                if -1e-9 <= u <= 1 + 1e-9 and np.allclose(rel, u * seg, atol=1e-9):
                    on_some_segment = True
        assert on_some_segment
    # and inside the minority bounding box
    lo, hi = M.min(axis=0), M.max(axis=0)
    assert np.all(syn.features >= lo - 1e-9) and np.all(syn.features <= hi + 1e-9)


def _reference_smote(M, k_neighbors, needed, seed):
    """SMOTE rows from minority rows M, building the whole n_min x n_min x d
    difference tensor at once. The oracle for the block-chunked search."""
    n_min = len(M)
    k = min(k_neighbors, n_min - 1)
    diffs = M[:, None, :] - M[None, :, :]
    dists = np.sqrt(np.sum(diffs ** 2, axis=2))
    np.fill_diagonal(dists, np.inf)
    neighbor_ids = np.argsort(dists, axis=1, kind="stable")[:, :k]
    rng = np.random.default_rng(seed)
    rows = np.empty((needed, M.shape[1]))
    for i in range(needed):
        base = int(rng.integers(0, n_min))
        nn = M[neighbor_ids[base, int(rng.integers(0, k))]]
        u = rng.random()
        rows[i] = M[base] + u * (nn - M[base])
    return rows


@settings(max_examples=200, deadline=None)
@given(n_min=st.integers(2, 40), d=st.integers(0, 5), block_rows=st.integers(1, 45),
       k=st.integers(1, 45), spread=st.integers(1, 4), seed=st.integers(0, 2**16))
@example(n_min=23, d=3, block_rows=5, k=5, spread=1, seed=0)    # several blocks, last partial
@example(n_min=7, d=2, block_rows=1, k=3, spread=1, seed=1)     # one row per block
@example(n_min=6, d=2, block_rows=4, k=9, spread=2, seed=2)     # k clamped to n_min - 1
def test_chunked_smote_matches_unchunked_reference(n_min, d, block_rows, k, spread, seed):
    rng = np.random.default_rng(seed)
    # integer-valued features on a narrow range: many tied distances
    M = rng.integers(-spread, spread + 1, (n_min, d)).astype(float)
    X = np.vstack([M, rng.normal(0, 1, (n_min + 5, d))])
    y = np.array([1] * n_min + [0] * (n_min + 5))
    train = Dataset(features=X, labels=y)
    budget = block_rows * n_min * max(1, d)   # exactly block_rows rows per block
    with mock.patch.object(synthesis, "_NEIGHBOR_BLOCK_ELEMENTS", budget):
        got = smote(train, k_neighbors=k, target_ratio=1.0, seed=seed)
    want = _reference_smote(M, k, needed=5, seed=seed)
    assert got.features.shape == want.shape
    assert np.array_equal(got.features, want)


def test_smote_neighbor_search_memory_is_linear_in_minority_rows():
    # the unchunked search allocates 2000 * 2000 * 8 doubles (about 256 MB) twice
    rng = np.random.default_rng(8)
    X = np.vstack([rng.normal(0, 1, (2000, 8)), rng.normal(3, 1, (2100, 8))])
    y = np.array([1] * 2000 + [0] * 2100)
    train = Dataset(features=X, labels=y)
    tracemalloc.start()
    try:
        syn = smote(train, seed=9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert syn.n_rows == 100
    assert peak < 32 * 2**20


def test_smote_parity_count():
    d = imbalanced_dataset(10, 100)
    syn = smote(d, target_ratio=1.0, seed=7)
    merged = concat_datasets([d, syn])
    s = class_stats(merged)
    assert s.count_of(1) == s.count_of(0)


# ----------------------------------------------------------- replay file

def test_replay_file_technique(tmp_path):
    d = imbalanced_dataset(4, 10)
    p = tmp_path / "syn.csv"
    p.write_text("f0,f1\n1.5,2.5\n3.5,4.5\n")
    (tech,) = build_techniques([f"replay:{p}"], 5, 1.0)
    syn = tech.generate(d, seed=0)
    assert syn.n_rows == 2
    assert np.all(syn.labels == 1)
    assert list(syn.features[0]) == [1.5, 2.5]


def test_replay_file_missing_column(tmp_path):
    d = imbalanced_dataset(4, 10)
    p = tmp_path / "syn.csv"
    p.write_text("f0\n1.5\n")
    with pytest.raises(ValueError, match="lacks column"):
        build_techniques([f"replay:{p}"], 5, 1.0)[0].generate(d, seed=0)


@pytest.mark.parametrize("cell", ["abc", "inf", "1e999", "NA", ""])
def test_replay_file_bad_cell_names_file_column_and_line(tmp_path, cell):
    d = imbalanced_dataset(4, 10)
    p = tmp_path / "syn.csv"
    p.write_text(f"f0,f1\n1.5,2.5\n3.5,{cell}\n")
    with pytest.raises(ValueError) as err:
        build_techniques([f"replay:{p}"], 5, 1.0)[0].generate(d, seed=0)
    assert str(err.value) == (f"replay file {p}: column 'f1' in row 2 must be a finite number, "
                              f"got {cell!r}")


# ----------------------------------------------------------- meta_synthesize

class AllOnesModel(TrainedModel):
    label_set = np.array([0, 1])

    def __init__(self, n_features):
        self.n_features_ = n_features

    def _proba(self, X):
        return np.tile([0.0, 1.0], (X.shape[0], 1))


class AllZerosModel(TrainedModel):
    label_set = np.array([0, 1])

    def __init__(self, n_features):
        self.n_features_ = n_features

    def _proba(self, X):
        return np.tile([1.0, 0.0], (X.shape[0], 1))


class MarkerTechnique:
    """Generates one synthetic row with a recognizable feature value."""

    def __init__(self, name, marker):
        self.name = name
        self.marker = marker

    def generate(self, train, seed):
        row = np.full((1, train.n_features), self.marker)
        return Dataset(features=row, labels=np.array([1]),
                       column_kinds=list(train.column_kinds),
                       provenance=np.array(["synthetic"], dtype=object),
                       feature_names=list(train.feature_names))


def fit_by_marker(monkeypatch, marker_to_model):
    """Each race fit returns the model class of the marker in its training data."""
    def marker_fit(spec, aug):
        for marker, model_cls in marker_to_model.items():
            if np.any(aug.features == marker):
                return model_cls(aug.n_features)
        raise AssertionError("no marker found in training data")
    monkeypatch.setattr(synthesis, "fit", marker_fit)


def race(d, techniques, classifier_spec, seed):
    """``meta_synthesize`` on the 80/20 stratified holdout of ``d`` drawn with ``seed``."""
    train, val = stratified_split(d, SplitSpec(ratio=0.8, seed=seed))
    return meta_synthesize(train, techniques, classifier_spec, val, seed)


def small_dataset():
    X = np.arange(20, dtype=float).reshape(10, 2)
    y = np.array([0, 1] * 5)
    return Dataset(features=X, labels=y)


def test_meta_synthesize_picks_argmax_winner(monkeypatch):
    d = small_dataset()
    # technique "bad" -> all-zeros model -> F1 0; "good" -> all-ones -> F1 > 0
    techniques = [MarkerTechnique("bad", 111.0), MarkerTechnique("good", 222.0)]
    fit_by_marker(monkeypatch, {111.0: AllZerosModel, 222.0: AllOnesModel})
    out = race(d, techniques, ClassifierSpec(), 1)
    assert out.chosen_technique == "good"
    scores = dict(out.f1_scores)
    assert scores["good"] > scores["bad"]


def test_meta_synthesize_tie_goes_to_list_order(monkeypatch):
    d = small_dataset()
    techniques = [MarkerTechnique("first", 111.0), MarkerTechnique("second", 222.0)]
    fit_by_marker(monkeypatch, {111.0: AllOnesModel, 222.0: AllOnesModel})
    out = race(d, techniques, ClassifierSpec(), 1)
    assert out.chosen_technique == "first"


def test_meta_synthesize_empty_technique_list():
    with pytest.raises(ValueError, match="empty"):
        race(small_dataset(), [], ClassifierSpec(), 42)


def test_meta_synthesize_refuses_two_entries_of_one_name():
    d = generate_synthetic_benchmark(n=300, d=2, imbalance_ratio=5.0, seed=0)
    techniques = [Technique("x", mock.Mock(wraps=random_oversample)),
                  Technique("y", mock.Mock(wraps=smote)),
                  Technique("x", mock.Mock(wraps=smote))]
    with pytest.raises(ValueError, match="^techniques: two entries are named 'x'$"):
        race(d, techniques, ClassifierSpec(), 42)
    assert all(t.generate.call_count == 0 for t in techniques)


def test_meta_synthesize_bookkeeping_on_benchmark():
    d = generate_synthetic_benchmark(n=600, d=3, imbalance_ratio=20, noise_rate=0.05, seed=42)
    train_ds, val_ds = stratified_split(d, SplitSpec(ratio=0.8, seed=42))
    techniques = build_techniques(["random-oversample", "smote"], 5, 1.0)
    out = meta_synthesize(train_ds, techniques, ClassifierSpec(kind="decision-tree"), val_ds, 42)

    train, val = train_ds.n_rows, val_ds.n_rows
    n_syn = int(np.sum(out.augmented.provenance == "synthetic"))
    n_merged = int(np.sum(out.augmented.provenance == "validation-merged"))
    assert out.augmented.n_rows == train + n_syn + n_merged
    assert n_merged + out.misclassified.n_rows == val

    # D_mis ∪ Correct(D^val) = D^val as multisets (features + labels)
    merged_rows = out.augmented.features[out.augmented.provenance == "validation-merged"]
    merged_labels = out.augmented.labels[out.augmented.provenance == "validation-merged"]
    got = sorted(map(tuple, np.column_stack([
        np.vstack([merged_rows, out.misclassified.features]),
        np.concatenate([merged_labels, out.misclassified.labels])[:, None]])))
    want = sorted(map(tuple, np.column_stack([val_ds.features, val_ds.labels[:, None]])))
    assert got == want


def test_meta_synthesize_parity_before_merge():
    d = generate_synthetic_benchmark(n=400, d=3, imbalance_ratio=10, seed=1)
    out = race(d, build_techniques(["random-oversample"], 5, 1.0), ClassifierSpec(), 1)
    pre_merge = out.augmented.take(
        np.flatnonzero(out.augmented.provenance != "validation-merged"))
    s = class_stats(pre_merge)
    assert s.count_of(0) == s.count_of(1)


def test_meta_synthesize_provenance_sets():
    d = generate_synthetic_benchmark(n=300, d=2, imbalance_ratio=5, seed=2)
    out = race(d, build_techniques(["smote"], 5, 1.0), ClassifierSpec(), 2)
    assert set(out.augmented.provenance) <= {"original", "synthetic", "validation-merged"}
    assert set(out.misclassified.provenance) <= {"original"}


def test_meta_synthesize_chosen_f1_is_max():
    d = generate_synthetic_benchmark(n=400, d=3, imbalance_ratio=8, noise_rate=0.1, seed=3)
    out = race(d, build_techniques(["random-oversample", "smote"], 5, 1.0), ClassifierSpec(), 3)
    chosen = dict(out.f1_scores)[out.chosen_technique]
    assert all(chosen >= f1 for _, f1 in out.f1_scores)


def test_meta_synthesize_deterministic():
    d = generate_synthetic_benchmark(n=300, d=3, imbalance_ratio=6, seed=4)
    args = (build_techniques(["random-oversample", "smote"], 5, 1.0), ClassifierSpec(), 4)
    a = race(d, *args)
    b = race(d, *args)
    assert a.chosen_technique == b.chosen_technique
    assert a.augmented.equals(b.augmented)
    assert a.misclassified.equals(b.misclassified)


def test_single_technique_equals_direct_augmentation():
    d = generate_synthetic_benchmark(n=300, d=3, imbalance_ratio=6, seed=5)
    train, val = stratified_split(d, SplitSpec(ratio=0.8, seed=5))
    (tech,) = build_techniques(["smote"], 5, 1.0)
    out = meta_synthesize(train, [tech], ClassifierSpec(), val, 5)
    syn = tech.generate(train, seed=5 + 0)
    direct = concat_datasets([train, syn])
    keep = out.augmented.take(np.flatnonzero(out.augmented.provenance != "validation-merged"))
    assert keep.equals(direct)


def test_meta_synthesize_generates_each_entry_once():
    d = generate_synthetic_benchmark(n=300, d=3, imbalance_ratio=6, seed=6)
    techniques = [Technique(name, mock.Mock(wraps=t.generate))
                  for name, t in zip(["random-oversample", "smote", "smote-again"],
                                     build_techniques(["random-oversample", "smote"], 5, 1.0)
                                     + build_techniques(["smote"], 5, 1.0))]
    race(d, techniques, ClassifierSpec(max_depth=3), 6)
    assert [t.generate.call_count for t in techniques] == [1, 1, 1]
    assert [t.generate.call_args.kwargs["seed"] for t in techniques] == [6, 7, 8]


# -------------------------------------------------------- build_techniques

def test_build_techniques_maps_each_token_in_order(tmp_path):
    built = build_techniques(["smote", f"replay:{tmp_path / 'syn.csv'}", "random-oversample"],
                             smote_k_neighbors=3, target_ratio=0.5)
    assert [t.name for t in built] == ["smote", "replay:syn.csv", "random-oversample"]
    assert [(t.generate.func, t.generate.args, t.generate.keywords) for t in built] == [
        (smote, (), {"k_neighbors": 3, "target_ratio": 0.5}),
        (replay_rows, (tmp_path / "syn.csv",), {}),
        (random_oversample, (), {"target_ratio": 0.5}),
    ]


@pytest.mark.parametrize("names, k, ratio, message", [
    (["smote"], 5, float("nan"), "target_ratio must be a number in (0, inf), got nan"),
    (["smote"], 5, 0.0, "target_ratio must be a number in (0, inf), got 0.0"),
    (["smote"], 0, 1.0, "smote_k_neighbors must be an integer >= 1, got 0"),
    ([], 5, 1.0, "techniques must be a nonempty list"),
    (["smote", "gan"], 5, 1.0, "techniques must be random-oversample, smote or replay:PATH, "
                               "got 'gan'"),
    (["smote", "smote"], 5, 1.0, "techniques: two entries are named 'smote'"),
    (["replay:a/x.csv", "smote", "replay:b/x.csv"], 5, 1.0,
     "techniques: two entries are named 'replay:x.csv'"),
])
def test_build_techniques_refuses_a_bad_entry(names, k, ratio, message):
    with pytest.raises(ValueError) as err:
        build_techniques(names, k, ratio)
    assert str(err.value) == message
