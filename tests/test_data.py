import re
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from imbenhance import data
from imbenhance.data import (
    BinaryLabels,
    ClassStats,
    Dataset,
    Preprocessor,
    SplitSpec,
    class_stats,
    concat_datasets,
    generate_synthetic_benchmark,
    is_missing,
    largest_remainder,
    load_csv,
    preprocess,
    stratified_split,
    write_csv,
)


def make_labeled(X, y):
    return Dataset(features=np.asarray(X, dtype=float), labels=np.asarray(y, dtype=int))


# ---------------------------------------------------------------- load_csv

def test_load_csv_basic(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("a,b,y\n1,2,0\n3,4,1\n5,6,0\n")
    d = load_csv(p, label_column="y")
    assert d.n_rows == 3 and d.n_features == 2
    assert d.feature_names == ["a", "b"]
    assert list(d.labels) == ["0", "1", "0"]


def test_load_csv_unlabeled(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("a,b\n1,2\n3,4\n")
    d = load_csv(p, label_column=None)
    assert d.labels is None
    assert d.n_features == 2


def test_load_csv_non_rectangular(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("a,b,y\n1,2,0\n3,1\n")
    with pytest.raises(ValueError, match="non-rectangular"):
        load_csv(p, label_column="y")


@pytest.mark.parametrize("header, name", [("a,a,y", "a"), ("a,y,y", "y"), ("a, a ,y", "a")])
def test_load_csv_refuses_a_header_that_repeats_a_column(tmp_path, header, name):
    p = tmp_path / "d.csv"
    p.write_text(f"{header}\n1,2,0\n")
    with pytest.raises(ValueError, match=re.escape(f"{p}: column '{name}' appears twice")):
        load_csv(p, label_column="y")


def test_load_csv_missing_label_column(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("a,b\n1,2\n")
    with pytest.raises(ValueError, match="label column"):
        load_csv(p, label_column="y")


def test_read_errors_start_with_their_file(tmp_path):
    p = tmp_path / "d.csv"
    with pytest.raises(ValueError, match=f"^{re.escape(str(p))}: unreadable file: "):
        load_csv(p)
    p.write_text("a,b\n1,2\n")
    with pytest.raises(ValueError, match=f"^{re.escape(str(p))}: label column 'y' not found$"):
        load_csv(p, label_column="y")


def test_load_csv_missing_markers(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("a,y\n1,0\n,1\nNA,0\nnan,1\n")
    d = load_csv(p, label_column="y")
    assert list(d.features[:, 0]) == ["1", "", "NA", "nan"]
    assert [is_missing(c) for c in d.features[:, 0]] == [False, True, True, True]


def test_csv_roundtrip_with_provenance(tmp_path):
    d = make_labeled([[1.0, 2.5], [3.0, 4.0]], [0, 1])
    p = tmp_path / "out.csv"
    write_csv(d, p, label_column="y")
    back = load_csv(p, label_column="y")
    assert "provenance" not in back.feature_names
    assert list(back.provenance) == ["original", "original"]
    pre = preprocess(back)
    assert np.allclose(pre.features, d.features)
    assert np.array_equal(pre.labels, d.labels)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=8))
@example([-0.0, 5e-324, 2.2250738585072014e-308 / 3, 1e16, sys.float_info.max])
def test_written_floats_read_as_their_repr_and_round_trip(tmp_path_factory, values):
    d = make_labeled([[v] for v in values], [i % 2 for i in range(len(values))])
    first, second = (tmp_path_factory.mktemp("csv") / name for name in ("a.csv", "b.csv"))
    write_csv(d, first, label_column="y")
    assert [line.split(",")[0] for line in first.read_text().splitlines()[1:]] == \
        [repr(float(v)) for v in values]
    write_csv(preprocess(load_csv(first, label_column="y")), second, label_column="y")
    assert second.read_bytes() == first.read_bytes()


# -------------------------------------------------------------- preprocess

def test_preprocess_drops_column_over_half_missing():
    X = np.array([[None, 1.0]] * 6 + [["2", 1.0]] * 4, dtype=object)
    d = Dataset(features=X, feature_names=["mostly_missing", "ok"])
    out = preprocess(d)
    assert out.feature_names == ["ok"]


def test_preprocess_exactly_half_missing_is_kept():
    X = np.array([[None], [None], ["1"], ["2"]], dtype=object)
    d = Dataset(features=X, feature_names=["half"])
    out = preprocess(d)
    assert out.feature_names == ["half"]


def test_preprocess_mode_fill_numeric():
    X = np.array([["1"], [None], ["1"], ["2"]], dtype=object)
    out = preprocess(Dataset(features=X))
    assert list(out.features[:, 0]) == [1.0, 1.0, 1.0, 2.0]


@pytest.mark.parametrize("kind", ["numeric", "categorical-encoded"])
def test_column_read_as_numbers_refuses_a_cell_that_is_not_one(kind):
    cells = ["1", "inf", "1e999", "NA", None, "2", "1", "1", "3"]  # four gaps of nine
    gaps = Dataset(features=np.array(cells, dtype=object)[:, None], column_kinds=[kind])
    pre = Preprocessor()
    assert list(pre.fit_transform(gaps).features[:, 0]) == [1, 1, 1, 1, 1, 2, 1, 1, 3]
    bad = Dataset(features=np.array([["1"], ["abc"], ["x"]], dtype=object), column_kinds=[kind])
    message = r"^column 'f0', row 2: 'abc' is not a number$"
    with pytest.raises(ValueError, match=message):
        Preprocessor().fit_transform(bad)
    with pytest.raises(ValueError, match=message):
        pre.transform(bad)


def test_preprocess_mode_tiebreak_smallest():
    X = np.array([["2"], ["1"], [None], ["2"], ["1"]], dtype=object)
    out = preprocess(Dataset(features=X))
    assert out.features[2, 0] == 1.0


def test_preprocess_string_first_appearance_encoding():
    X = np.array([["b"], ["a"], ["b"]], dtype=object)
    out = preprocess(Dataset(features=X))
    assert list(out.features[:, 0]) == [0.0, 1.0, 0.0]
    assert out.column_kinds == ["categorical-encoded"]


def test_preprocess_all_columns_dropped():
    X = np.array([[None, None]] * 4, dtype=object)
    with pytest.raises(ValueError, match="dropped every column"):
        preprocess(Dataset(features=X))


def test_preprocess_idempotent():
    X = np.array([["b", "1", None], ["a", None, "3"], ["b", "1", "4"]], dtype=object)
    d = Dataset(features=X, labels=np.array(["1", "0", "1"], dtype=object))
    once = preprocess(d)
    twice = preprocess(once)
    assert once.equals(twice)


def test_preprocess_encodes_string_labels():
    X = np.array([["1"], ["2"], ["3"]], dtype=object)
    d = Dataset(features=X, labels=np.array(["bad", "good", "bad"], dtype=object))
    out = preprocess(d)
    assert list(out.labels) == [0, 1, 0]


def test_preprocessor_transform_pool_matches_encoding():
    X = np.array([["b", "1"], ["a", "2"], ["b", None]], dtype=object)
    pre = Preprocessor()
    fitted = pre.fit_transform(Dataset(features=X, feature_names=["s", "v"]))
    pool_X = np.array([["a", "5"], ["c", None], [None, "7"]], dtype=object)
    pool = pre.transform(Dataset(features=pool_X, feature_names=["s", "v"]))
    # "a" keeps its fitted code, unseen "c" gets the next one, missing -> mode "b"
    assert list(pool.features[:, 0]) == [1.0, 2.0, 0.0]
    # missing numeric -> fitted mode (1.0)
    assert list(pool.features[:, 1]) == [5.0, 1.0, 7.0]
    assert pool.feature_names == fitted.feature_names


def test_truth_keeps_the_input_classes_and_reads_an_unseen_label_as_unknown():
    labels = BinaryLabels(["good", "bad", "good"])
    # "bad" and "good" keep their classes; the unseen "odd" is -1, not a fresh code
    assert labels.truth(["bad", "good", "odd"]).tolist() == [1, 0, -1]
    assert labels.truth(["odd", "odd", "bad"]).tolist() == [-1, -1, 1]


def test_truth_refuses_a_string_label_where_the_input_has_integers():
    labels = BinaryLabels(["0", "1"])
    with pytest.raises(ValueError, match="label in row 2 must be a finite integer, got 'bad'"):
        labels.truth(["1", "bad"])


def test_preprocessor_passes_labels_through_unchanged():
    X = np.array([["1"], ["2"], ["3"]], dtype=object)
    d = Dataset(features=X, labels=np.array(["good", "bad", ""], dtype=object))
    pre = Preprocessor()
    assert pre.fit_transform(d).labels is d.labels
    assert pre.transform(d).labels is d.labels


def test_missing_string_label_is_reported_with_its_row():
    X = np.array([["1"], ["2"], ["3"], ["4"]], dtype=object)
    labels = np.array(["good", "bad", "", "good"], dtype=object)
    with pytest.raises(ValueError, match="missing label value in row 3"):
        preprocess(Dataset(features=X, labels=labels))


def test_all_missing_categorical_column_is_dropped():
    X = np.array([[None, "1"], [None, "2"]], dtype=object)
    d = Dataset(features=X, feature_names=["c", "v"], column_kinds=["categorical", "unknown"])
    out = Preprocessor().fit_transform(d)
    assert out.feature_names == ["v"]


def test_preprocess_schema_hint_forces_categorical():
    X = np.array([["1"], ["2"], ["1"]], dtype=object)
    d = Dataset(features=X, feature_names=["c"], column_kinds=["categorical"])
    out = preprocess(d)
    assert out.column_kinds == ["categorical-encoded"]
    assert list(out.features[:, 0]) == [0.0, 1.0, 0.0]


def test_load_csv_schema_hints_flow_into_preprocess(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("code,y\n7,0\n9,1\n7,0\n")
    d = load_csv(p, label_column="y", schema_hints={"code": "categorical"})
    assert d.column_kinds == ["categorical"]
    out = preprocess(d)
    assert out.column_kinds == ["categorical-encoded"]
    assert list(out.features[:, 0]) == [0.0, 1.0, 0.0]


def test_undeclared_numeric_column_is_parsed_once(monkeypatch):
    calls = []
    real_try_float = data._try_float
    monkeypatch.setattr(data, "_try_float", lambda cell: calls.append(cell) or real_try_float(cell))
    X = np.array([[str(i % 7)] for i in range(50)], dtype=object)
    out = preprocess(Dataset(features=X))
    assert out.column_kinds == ["numeric"]
    assert len(calls) == 50


_RAW_CELLS = st.one_of(
    st.integers(-3, 3).map(str),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.sampled_from(["inf", "-inf", "1e999", "", "NA", "nan", "NaN", " na ", None,
                     "a", "b", " a", "A", "x y"]),
)


@st.composite
def raw_tables(draw):
    n = draw(st.integers(1, 12))
    d = draw(st.integers(1, 4))
    X = np.empty((n, d), dtype=object)
    for j in range(d):
        palette = draw(st.lists(_RAW_CELLS, min_size=1, max_size=4))
        X[:, j] = draw(st.lists(st.sampled_from(palette), min_size=n, max_size=n))
    kinds = draw(st.lists(st.sampled_from(["unknown", "numeric", "categorical",
                                           "categorical-encoded"]), min_size=d, max_size=d))
    labels = draw(st.none() | st.lists(st.sampled_from(["0", "1", "a"]), min_size=n,
                                       max_size=n).map(lambda v: np.array(v, dtype=object)))
    return Dataset(features=X, labels=labels, column_kinds=kinds)


@settings(max_examples=200, deadline=None)
@given(raw_tables())
def test_transform_of_the_fitted_table_equals_fit_transform(raw):
    pre = Preprocessor()
    try:
        fitted = pre.fit_transform(raw)
    except ValueError:  # every column dropped, or a declared-numeric column holds text
        assume(False)
    replayed = pre.transform(raw)
    assert replayed.equals(fitted)


# -------------------------------------------------------------- class_stats

def test_class_stats_balanced():
    d = make_labeled([[0.0]] * 100, [0] * 50 + [1] * 50)
    s = class_stats(d)
    assert s.priors == (0.5, 0.5)
    assert s.minority_label == 1  # tie goes to the larger label


def test_class_stats_zcd_shape():
    n, pos = 10_000, 1683
    d = make_labeled([[0.0]] * n, [1] * pos + [0] * (n - pos))
    s = class_stats(d)
    assert s.counts == (n - pos, pos)
    assert abs(s.priors[s.labels.index(1)] - 0.1683) < 1e-12


def test_class_stats_blsd_shape():
    n = 10_000
    pos = 2252
    d = make_labeled([[0.0]] * n, [1] * pos + [0] * (n - pos))
    s = class_stats(d)
    assert s.counts == (n - pos, pos)


def test_class_stats_requires_labels():
    d = Dataset(features=np.zeros((3, 1)))
    with pytest.raises(ValueError):
        class_stats(d)


def test_class_stats_priors_sum_to_one():
    rng = np.random.default_rng(0)
    for _ in range(20):
        y = rng.integers(0, 2, size=rng.integers(2, 50))
        if len(np.unique(y)) < 2:
            continue
        s = class_stats(make_labeled(np.zeros((len(y), 1)), y))
        assert abs(sum(s.priors) - 1.0) < 1e-12


# -------------------------------------------------------- largest_remainder

def test_largest_remainder_exact():
    assert list(largest_remainder([0.8, 0.2], 100)) == [80, 20]


def test_largest_remainder_tie_lower_index():
    assert list(largest_remainder([0.5, 0.5], 3)) == [2, 1]


def test_largest_remainder_blsd_priors():
    assert list(largest_remainder([0.7748, 0.2252], 1000)) == [775, 225]


# --------------------------------------------------------- stratified_split

def test_holdout_split_exact_proportions():
    y = [1] * 20 + [0] * 80
    d = make_labeled(np.arange(100, dtype=float).reshape(100, 1), y)
    train, val = stratified_split(d, SplitSpec(mode="holdout", ratio=0.8, seed=42))
    assert train.n_rows == 80 and val.n_rows == 20
    assert int(np.sum(train.labels == 1)) == 16 and int(np.sum(train.labels == 0)) == 64
    assert int(np.sum(val.labels == 1)) == 4 and int(np.sum(val.labels == 0)) == 16


def test_kfold_split_exact_divisibility():
    y = [1] * 3 + [0] * 6
    d = make_labeled(np.arange(9, dtype=float).reshape(9, 1), y)
    folds = stratified_split(d, SplitSpec(mode="k-fold", k=3, seed=1))
    for f in folds:
        assert int(np.sum(f.labels == 1)) == 1 and int(np.sum(f.labels == 0)) == 2


@pytest.mark.parametrize("seed", [-1, 1.5, np.float64(2.0)])
def test_split_spec_refuses_a_seed_that_is_not_a_non_negative_integer(seed):
    with pytest.raises(ValueError, match=f"^seed must be an integer >= 0, got {seed}$"):
        SplitSpec(seed=seed)


def test_split_spec_refuses_an_unknown_mode():
    with pytest.raises(ValueError, match="^mode must be 'holdout' or 'k-fold', got 'x'$"):
        SplitSpec(mode="x")


def test_kfold_class_too_small():
    y = [1] * 2 + [0] * 7
    d = make_labeled(np.zeros((9, 1)), y)
    with pytest.raises(ValueError, match="fewer than k"):
        stratified_split(d, SplitSpec(mode="k-fold", k=3))


def test_kfold_refuses_a_huge_k_before_building_its_folds():
    d = generate_synthetic_benchmark(n=200, d=2, imbalance_ratio=4, seed=0)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=r"^class 0 has \d+ rows, fewer than k=10000000$"):
            stratified_split(d, SplitSpec(mode="k-fold", k=10**7))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_split_parts_reunite_to_original_multiset():
    rng = np.random.default_rng(7)
    X = rng.normal(size=(53, 3))
    y = (rng.random(53) < 0.3).astype(int)
    y[:3] = 1  # make sure both classes are big enough
    y[3:9] = 0
    d = make_labeled(X, y)
    folds = stratified_split(d, SplitSpec(mode="k-fold", k=3, seed=5))
    reunited = np.vstack([f.features for f in folds])
    assert sorted(map(tuple, reunited)) == sorted(map(tuple, X))
    assert sum(f.n_rows for f in folds) == 53


def test_split_part_priors_close_to_whole():
    y = [1] * 21 + [0] * 79
    d = make_labeled(np.arange(100, dtype=float).reshape(100, 1), y)
    whole = class_stats(d)
    for part in stratified_split(d, SplitSpec(mode="k-fold", k=3, seed=0)):
        ps = class_stats(part)
        for lbl in (0, 1):
            part_prior = ps.priors[ps.labels.index(lbl)]
            whole_prior = whole.priors[whole.labels.index(lbl)]
            assert abs(part_prior - whole_prior) <= 1.0 / part.n_rows + 1e-12


def test_split_deterministic():
    d = make_labeled(np.random.default_rng(0).normal(size=(40, 2)),
                     [0] * 30 + [1] * 10)
    a = stratified_split(d, SplitSpec(mode="holdout", ratio=0.7, seed=9))
    b = stratified_split(d, SplitSpec(mode="holdout", ratio=0.7, seed=9))
    assert a[0].equals(b[0]) and a[1].equals(b[1])


# ------------------------------------------------- canonicalize / benchmark

def test_canonicalize_keeps_standard_binary():
    cells = ["0"] * 7 + ["1"] * 3
    labels = BinaryLabels(cells)
    assert labels.written == {"0": 0, "1": 1}
    assert labels.classes.tolist() == [int(c) for c in cells]


def test_canonicalize_flips_when_minority_is_zero():
    labels = BinaryLabels(["0"] * 3 + ["1"] * 7)
    assert labels.written == {"0": 1, "1": 0}
    assert int(np.sum(labels.classes == 1)) == 3


def test_canonicalize_explicit_positive():
    labels = BinaryLabels(["5", "5", "9", "5"], positive="5")
    assert labels.written == {"5": 1, "9": 0}
    assert labels.classes.tolist() == [1, 1, 0, 1]


@pytest.mark.parametrize("cells, positive, classes", [
    (["1", "0", "1.0", "0"], "1", [1, 0, 1, 0]),      # integers compare by value
    (["1", "0", "1.0", "0"], "0.0", [0, 1, 0, 1]),
    (["-1", "1", "-1"], None, [0, 1, 0]),             # the minority
    (["a", "b", "b", "a"], None, [0, 1, 1, 0]),       # a tie goes to the later string
    (["7", "3", "3", "7"], None, [1, 0, 0, 1]),       # or the larger integer
    (["good", "bad", "good"], "good", [1, 0, 1]),
])
def test_canonicalize_picks_class_one_by_the_label_rule(cells, positive, classes):
    assert BinaryLabels(cells, positive).classes.tolist() == classes


@pytest.mark.parametrize("cells, positive, message", [
    (["good", "bad"], "1", "positive label '1' not present in data"),
    (["0", "1"], "bad", "positive label 'bad' not present in data"),
    (["0", "1"], "2", "positive label '2' not present in data"),
    (["0", "1"], "1e20", "positive label '1e20' not present in data"),
    (["0", "1", "2"], None, "expected exactly 2 classes, found 3"),
    (["0", "0"], None, "expected exactly 2 classes, found 1"),
    (["0", "", "1"], None, "missing label value in row 2"),
])
def test_canonicalize_refuses_a_label_set_it_cannot_map(cells, positive, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        BinaryLabels(cells, positive)


def test_generate_benchmark_minority_count():
    d = generate_synthetic_benchmark(n=2000, d=4, imbalance_ratio=20, seed=42)
    assert int(np.sum(d.labels == 1)) == 95  # 2000/21 rounded


def test_generate_benchmark_separable_when_far_apart():
    d = generate_synthetic_benchmark(n=400, d=2, imbalance_ratio=3,
                                     separation=60.0, noise_rate=0.0, seed=1)
    mid = d.features.sum(axis=1) > 30.0
    assert np.array_equal(mid.astype(int), d.labels)


def test_generate_benchmark_deterministic():
    a = generate_synthetic_benchmark(n=500, d=3, imbalance_ratio=10, noise_rate=0.1, seed=7)
    b = generate_synthetic_benchmark(n=500, d=3, imbalance_ratio=10, noise_rate=0.1, seed=7)
    assert a.equals(b)


def test_generate_benchmark_noise_flips_labels():
    clean = generate_synthetic_benchmark(n=500, d=3, imbalance_ratio=10, noise_rate=0.0, seed=3)
    noisy = generate_synthetic_benchmark(n=500, d=3, imbalance_ratio=10, noise_rate=0.1, seed=3)
    assert int(np.sum(clean.labels != noisy.labels)) == 50


@pytest.mark.parametrize("kw, message", [
    ({"separation": float("nan")}, "separation must be a number in (-inf, inf), got nan"),
    ({"separation": float("-inf")}, "separation must be a number in (-inf, inf), got -inf"),
    ({"imbalance_ratio": float("nan")}, "imbalance_ratio must be a number in [1, inf), got nan"),
    ({"imbalance_ratio": float("inf")}, "imbalance_ratio must be a number in [1, inf), got inf"),
    ({"seed": -1}, "seed must be an integer >= 0, got -1"),
    ({"seed": 1.5}, "seed must be an integer >= 0, got 1.5"),
])
def test_generate_benchmark_refuses_a_bad_argument(kw, message):
    args = {"n": 50, "d": 2, "imbalance_ratio": 5.0, **kw}
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        generate_synthetic_benchmark(**args)


def test_generate_benchmark_takes_a_numpy_integer_seed():
    assert generate_synthetic_benchmark(50, 2, 5.0, seed=np.int64(3)).equals(
        generate_synthetic_benchmark(50, 2, 5.0, seed=3))


# ----------------------------------------------------------------- dataset

def test_concat_and_take():
    a = make_labeled([[1.0], [2.0]], [0, 1])
    b = make_labeled([[3.0]], [1]).with_provenance("synthetic")
    c = concat_datasets([a, b])
    assert c.n_rows == 3
    assert list(c.provenance) == ["original", "original", "synthetic"]
    sub = c.take([2, 0])
    assert list(sub.features[:, 0]) == [3.0, 1.0]
    assert list(sub.labels) == [1, 0]


def test_concat_rejects_mixed_labeledness():
    a = make_labeled([[1.0]], [0])
    b = Dataset(features=np.array([[2.0]]))
    with pytest.raises(ValueError):
        concat_datasets([a, b])
