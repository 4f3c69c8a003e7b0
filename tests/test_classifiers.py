import dataclasses
import inspect
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import imbenhance
from imbenhance.classifiers import (
    ClassifierSpec,
    DecisionTreeModel,
    LogisticRegressionModel,
    RandomForestModel,
    TrainedModel,
    _best_split,
    _sigmoid,
    fit,
    predict,
    predict_proba,
)
from imbenhance.data import Dataset, generate_synthetic_benchmark


class StubModel(TrainedModel):
    """Fixed probability rows, for contract tests."""

    def __init__(self, label_set, rows):
        self.label_set = np.asarray(label_set)
        self.rows = np.asarray(rows, dtype=float)
        self.n_features_ = 1

    def _proba(self, X):
        return self.rows[: X.shape[0]]


def tree_depth(m: DecisionTreeModel) -> int:
    def walk(node):
        if m.feature_[node] < 0:
            return 0
        return 1 + max(walk(m.left_[node]), walk(m.right_[node]))
    return walk(0)


def logistic_loss_path(X, y, learning_rate, n_iterations):
    """Training cross-entropy after 0, 1, ..., n_iterations gradient steps.

    Descent is deterministic, so the model after k steps of a long fit is the
    model a fit with ``n_iterations=k`` returns. A spec refuses zero steps, so
    the 0-step point is the zero-weight model's: p = 0.5 for every row.
    """
    X, y = np.asarray(X, dtype=float), np.asarray(y)
    label_set = np.unique(y)
    if len(label_set) == 2:
        t = (y == label_set[1]).astype(float)[:, None]
    else:
        t = np.column_stack([(y == c).astype(float) for c in label_set])

    def loss(p, eps=1e-12):
        return float(-np.mean(t * np.log(p + eps) + (1 - t) * np.log(1 - p + eps)))

    losses = [loss(np.full(t.shape, 0.5))]
    for k in range(1, n_iterations + 1):
        spec = ClassifierSpec(kind="logistic-regression", learning_rate=learning_rate,
                              n_iterations=k)
        m = LogisticRegressionModel(spec).fit(X, y)
        p = 1 / (1 + np.exp(-((X - m.mean_) / m.std_ @ m.weights_.T + m.biases_)))
        losses.append(loss(p))
    return losses


def two_cluster_dataset(n_per=20, seed=0):
    rng = np.random.default_rng(seed)
    X0 = rng.normal(0.0, 0.3, size=(n_per, 2))
    X1 = rng.normal(5.0, 0.3, size=(n_per, 2))
    X = np.vstack([X0, X1])
    y = np.array([0] * n_per + [1] * n_per)
    return Dataset(features=X, labels=y)


# ---------------------------------------------------------------------- fit

def test_tree_perfect_on_separable_data():
    d = two_cluster_dataset()
    m = fit(ClassifierSpec(kind="decision-tree"), d)
    assert np.array_equal(predict(m, d), d.labels)


def test_fit_with_artificial_label_gives_three_class_model():
    X = np.array([[0.0], [1.0], [2.0], [3.0], [4.0], [5.0]])
    y = np.array([0, 0, -1, -1, 1, 1])
    m = fit(ClassifierSpec(kind="decision-tree"), Dataset(features=X, labels=y))
    assert list(m.label_set) == [-1, 0, 1]
    assert predict_proba(m, X).shape == (6, 3)


def test_fit_empty_training_set():
    d = Dataset(features=np.empty((0, 2)), labels=np.empty(0, dtype=int))
    with pytest.raises(ValueError, match="empty training set"):
        fit(ClassifierSpec(), d)


def test_fit_single_class():
    d = Dataset(features=np.zeros((5, 1)), labels=np.ones(5, dtype=int))
    with pytest.raises(ValueError, match="single class"):
        fit(ClassifierSpec(), d)


@pytest.mark.parametrize("rate", [math.nan, math.inf, 0.0, -0.5])
def test_spec_refuses_a_learning_rate_not_finite_and_positive(rate):
    message = f"learning_rate must be a number in (0, inf), got {rate}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        ClassifierSpec(learning_rate=rate)


def test_no_model_constructor_restates_a_spec_field():
    spec_fields = {f.name for f in dataclasses.fields(ClassifierSpec)}
    for model in MODELS:
        assert spec_fields.isdisjoint(inspect.signature(model).parameters), model


@pytest.mark.parametrize("model, kind, bad, message", [
    (RandomForestModel, "random-forest", {"n_estimators": 0},
     "n_estimators must be an integer >= 1, got 0"),
    (DecisionTreeModel, "decision-tree", {"max_depth": 0},
     "max_depth must be an integer >= 1, got 0"),
    (DecisionTreeModel, "decision-tree", {"max_depth": -3},
     "max_depth must be an integer >= 1, got -3"),
    (LogisticRegressionModel, "logistic-regression", {"learning_rate": math.nan},
     "learning_rate must be a number in (0, inf), got nan"),
    (LogisticRegressionModel, "logistic-regression", {"learning_rate": -1.0},
     "learning_rate must be a number in (0, inf), got -1.0"),
    (RandomForestModel, "random-forest", {"seed": 1.5},
     "seed must be an integer >= 0, got 1.5"),
    (RandomForestModel, "random-forest", {"seed": -1},
     "seed must be an integer >= 0, got -1"),
])
def test_a_model_is_built_only_from_a_checked_spec(model, kind, bad, message):
    d = two_cluster_dataset()
    spec = ClassifierSpec(kind=kind, n_estimators=2)
    assert model(spec).fit(d.features, d.labels).spec is spec
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        model(dataclasses.replace(spec, **bad))


# -------------------------------------------------------------- predict_proba

def test_proba_rows_sum_to_one():
    d = generate_synthetic_benchmark(n=300, d=3, imbalance_ratio=4, noise_rate=0.1, seed=2)
    for kind in ("decision-tree", "random-forest", "logistic-regression"):
        spec = ClassifierSpec(kind=kind, n_estimators=5)
        m = fit(spec, d)
        p = predict_proba(m, d)
        assert np.all(p >= 0)
        assert np.allclose(p.sum(axis=1), 1.0, atol=1e-9)


def test_pure_leaf_is_laplace_smoothed():
    # 4 rows of class 1 in one leaf: (0+1)/(4+2), (4+1)/(4+2)
    X = np.array([[0.0], [0.0], [0.0], [0.0], [9.0]])
    y = np.array([1, 1, 1, 1, 0])
    m = DecisionTreeModel(ClassifierSpec(max_depth=3)).fit(X, y)
    p = m.predict_proba(np.array([[0.0]]))
    assert np.allclose(p[0], [1.0 / 6.0, 5.0 / 6.0])


def test_logistic_zero_weights_gives_half():
    m = LogisticRegressionModel()
    m.label_set = np.array([0, 1])
    m.n_features_ = 2
    m.mean_ = np.zeros(2)
    m.std_ = np.ones(2)
    m.weights_ = np.zeros((1, 2))
    m.biases_ = np.zeros(1)
    p = m.predict_proba(np.array([[3.0, -4.0]]))
    assert np.allclose(p, [[0.5, 0.5]])


def one_leaf_tree(probs) -> DecisionTreeModel:
    """A fitted tree of a single leaf that predicts ``probs`` for every row."""
    t = DecisionTreeModel()
    t.feature_, t.threshold_ = np.array([-1]), np.array([0.0])
    t.left_, t.right_ = np.array([0]), np.array([0])
    t.probs_ = np.array([probs], dtype=float)
    return t


def test_forest_probability_is_mean_of_trees():
    forest = RandomForestModel(ClassifierSpec(kind="random-forest", n_estimators=2))
    forest.label_set = np.array([0, 1])
    forest.n_features_ = 1
    forest.trees_ = [one_leaf_tree([1.0, 0.0]), one_leaf_tree([0.0, 1.0])]
    assert np.allclose(forest.predict_proba(np.array([[0.0]])), [[0.5, 0.5]])


def test_proba_dimension_mismatch():
    d = two_cluster_dataset()
    m = fit(ClassifierSpec(), d)
    with pytest.raises(ValueError, match="features"):
        predict_proba(m, np.zeros((2, 5)))


MODELS = [DecisionTreeModel, RandomForestModel, LogisticRegressionModel]


@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_model_fit_refuses_non_finite_features(model, bad):
    d = two_cluster_dataset()
    X = d.features.copy()
    X[3, 1] = bad
    with pytest.raises(ValueError, match=r"^training features must be finite \(run preprocessing"):
        model().fit(X, d.labels)


@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_predict_proba_refuses_non_finite_features(model, bad):
    d = two_cluster_dataset()
    m = model().fit(d.features, d.labels)
    with pytest.raises(ValueError, match=r"^scored features must be finite \(run preprocessing"):
        predict(m, np.array([[0.0, 0.0], [bad, 0.0]]))


# ------------------------------------------------------------------ predict

def test_threshold_is_inclusive_at_half():
    m = StubModel([0, 1], [[0.5, 0.5]])
    assert predict(m, np.zeros((1, 1)))[0] == 1


def test_threshold_below_half_is_zero():
    m = StubModel([0, 1], [[0.51, 0.49]])
    assert predict(m, np.zeros((1, 1)))[0] == 0


def test_three_class_argmax():
    m = StubModel([-1, 0, 1], [[0.2, 0.3, 0.5]])
    assert predict(m, np.zeros((1, 1)))[0] == 1


def test_argmax_tie_goes_to_smaller_label():
    m = StubModel([-1, 0, 1], [[0.4, 0.4, 0.2]])
    assert predict(m, np.zeros((1, 1)))[0] == -1


def test_predict_agrees_with_argmax_off_boundary():
    d = generate_synthetic_benchmark(n=200, d=3, imbalance_ratio=3, noise_rate=0.05, seed=5)
    m = fit(ClassifierSpec(kind="decision-tree"), d)
    p = predict_proba(m, d)
    off = np.abs(p[:, 1] - 0.5) > 1e-12
    preds = predict(m, d)
    assert np.array_equal(preds[off], m.label_set[np.argmax(p, axis=1)][off])


# --------------------------------------------------------------- invariants

def test_tree_depth_respects_default_cap():
    rng = np.random.default_rng(11)
    X = rng.normal(size=(800, 4))
    y = rng.integers(0, 2, size=800)  # pure noise forces deep growth
    m = DecisionTreeModel(ClassifierSpec(max_depth=12)).fit(X, y)
    assert tree_depth(m) <= 12


def test_forest_one_tree_no_bootstrap_equals_tree():
    d = generate_synthetic_benchmark(n=400, d=4, imbalance_ratio=5, noise_rate=0.1, seed=3)
    tree = fit(ClassifierSpec(kind="decision-tree"), d)
    forest = fit(ClassifierSpec(kind="random-forest", n_estimators=1, bootstrap=False), d)
    assert np.allclose(predict_proba(tree, d), predict_proba(forest, d))
    assert np.array_equal(predict(tree, d), predict(forest, d))


def test_logistic_loss_non_increasing_at_small_lr():
    d = generate_synthetic_benchmark(n=500, d=4, imbalance_ratio=8, noise_rate=0.05, seed=4)
    diffs = np.diff(logistic_loss_path(d.features, d.labels, 0.01, 300))
    assert np.all(diffs <= 1e-12)


def test_logistic_multiclass_one_vs_rest():
    X = np.vstack([np.full((10, 2), v) for v in (0.0, 5.0, 10.0)])
    y = np.array([-1] * 10 + [0] * 10 + [1] * 10)
    m = LogisticRegressionModel(ClassifierSpec(kind="logistic-regression",
                                               n_iterations=800)).fit(X, y)
    assert list(m.label_set) == [-1, 0, 1]
    p = m.predict_proba(X)
    assert np.allclose(p.sum(axis=1), 1.0, atol=1e-9)
    assert np.array_equal(m.label_set[np.argmax(p, axis=1)], y)


def _standardized_targets(X, y):
    label_set = np.unique(y)
    std = X.std(axis=0)
    Z = (X - X.mean(axis=0)) / np.where(std > 0, std, 1.0)
    positives = label_set[1:] if len(label_set) == 2 else label_set
    return Z, [(y == c).astype(float)[:, None] for c in positives]


def reference_logistic_weights(X, y, learning_rate, n_iterations):
    """One-vs-rest written out plainly: one binary gradient step per class,
    with the residual formed twice and the bias step through np.mean."""
    Z, targets = _standardized_targets(X, y)
    n, d = Z.shape
    weights, biases = [], []
    for t in targets:
        w, b = np.zeros((1, d)), np.zeros(1)
        for _ in range(n_iterations):
            p = 1 / (1 + np.exp(-(Z @ w.T + b)))
            w -= learning_rate * ((p - t).T @ Z / n)
            b -= learning_rate * np.mean(p - t, axis=0)
        weights.append(w)
        biases.append(b)
    return np.vstack(weights), np.concatenate(biases)


def stacked_logistic_weights(X, y, learning_rate, n_iterations):
    """Every class in one (n, k) step: the same descents as one matrix."""
    Z, targets = _standardized_targets(X, y)
    t = np.hstack(targets)
    n, d = Z.shape
    weights, biases = np.zeros((t.shape[1], d)), np.zeros(t.shape[1])
    for _ in range(n_iterations):
        p = 1 / (1 + np.exp(-(Z @ weights.T + biases)))
        weights -= learning_rate * ((p - t).T @ Z / n)
        biases -= learning_rate * np.mean(p - t, axis=0)
    return weights, biases


def _logistic_problem(n, labels, seed):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, 4)) * [1.0, 3.0, 0.1, 10.0]
    # separable labels keep the weights growing; with a finite optimum the
    # descent contracts and can wash out a last-bit difference in the step
    y = np.digitize(X[:, 0] + X[:, 2], [-0.5, 0.5][: labels - 1]) - (labels == 3)
    return X, y


LOGISTIC_PROBLEMS = pytest.mark.parametrize("n, labels, seed", [
    (50, 2, 0), (333, 3, 1), (1200, 2, 2), (2000, 3, 3)])


@LOGISTIC_PROBLEMS
def test_logistic_fit_matches_the_plain_gradient_step_bit_for_bit(n, labels, seed):
    X, y = _logistic_problem(n, labels, seed)
    m = LogisticRegressionModel(ClassifierSpec(kind="logistic-regression", learning_rate=0.3,
                                               n_iterations=30)).fit(X, y)
    weights, biases = reference_logistic_weights(X, y, 0.3, 30)
    assert np.array_equal(m.weights_, weights) and np.array_equal(m.biases_, biases)


@LOGISTIC_PROBLEMS
def test_logistic_fit_matches_the_stacked_step(n, labels, seed):
    X, y = _logistic_problem(n, labels, seed)
    m = LogisticRegressionModel(ClassifierSpec(kind="logistic-regression", learning_rate=0.3,
                                               n_iterations=30)).fit(X, y)
    weights, biases = stacked_logistic_weights(X, y, 0.3, 30)
    np.testing.assert_allclose(m.weights_, weights, rtol=1e-12, atol=0)
    np.testing.assert_allclose(m.biases_, biases, rtol=1e-12, atol=0)


def test_sigmoid_saturates_without_warning():
    # pytest runs with warnings as errors: an exp overflow would fail here
    z = np.array([-1000.0, 0.0, 1000.0])
    assert _sigmoid(z).tolist() == [0.0, 0.5, 1.0]
    d = generate_synthetic_benchmark(n=200, d=3, imbalance_ratio=3, noise_rate=0.05, seed=8)
    m = fit(ClassifierSpec(kind="logistic-regression", n_iterations=50), d)
    far = m.mean_ - 1e6 * m.std_ * np.sign(m.weights_[0])   # z far below -709
    assert predict_proba(m, far[None, :]).tolist() == [[1.0, 0.0]]


def test_scipy_never_loads():
    # a fresh interpreter: pytest's own sys.modules says nothing about the package
    src = Path(imbenhance.__file__).resolve().parent.parent
    code = """
import sys
from imbenhance import ClassifierSpec, PipelineConfig, benchmark
from imbenhance import generate_synthetic_benchmark
data = generate_synthetic_benchmark(n=120, d=2, imbalance_ratio=4, noise_rate=0.1, seed=0)
for kind in ("decision-tree", "random-forest", "logistic-regression"):
    spec = ClassifierSpec(kind=kind, max_depth=3, n_estimators=3, n_iterations=3)
    benchmark(data, PipelineConfig(classifier=spec, benchmark_folds=2, hide_labels=0.3))
assert "scipy" not in sys.modules, sorted(m for m in sys.modules if "scipy" in m)
"""
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120)
    assert out.returncode == 0, out.stderr


def test_determinism_over_all_kinds():
    d = generate_synthetic_benchmark(n=300, d=3, imbalance_ratio=4, noise_rate=0.1, seed=6)
    for kind in ("decision-tree", "random-forest", "logistic-regression"):
        spec = ClassifierSpec(kind=kind, n_estimators=7)
        a = predict_proba(fit(spec, d), d)
        b = predict_proba(fit(spec, d), d)
        assert np.array_equal(a, b)


def test_zero_feature_training_set_fits_one_leaf():
    d = Dataset(features=np.empty((5, 0)), labels=np.array([0, 0, 0, 1, 1]))
    tree = fit(ClassifierSpec(kind="decision-tree"), d)
    assert list(tree.feature_) == [-1]
    assert np.allclose(tree.probs_[0], [4.0 / 7.0, 3.0 / 7.0])
    forest = fit(ClassifierSpec(kind="random-forest", n_estimators=3), d)
    assert all(list(t.feature_) == [-1] for t in forest.trees_)
    p = predict_proba(forest, np.empty((2, 0)))
    assert p.shape == (2, 2) and np.array_equal(p[0], p[1])


def test_forest_member_keeps_label_set_when_bootstrap_drops_a_class():
    X = np.arange(12.0)[:, None]
    y = np.array([0] * 11 + [1])
    forest = RandomForestModel(ClassifierSpec(kind="random-forest", n_estimators=10,
                                              seed=0)).fit(X, y)
    # member i bootstraps with rng(seed + i); at least one misses the minority row
    assert any(11 not in np.random.default_rng(i).integers(0, 12, size=12) for i in range(10))
    for tree in forest.trees_:
        assert tree._proba(X).shape == (12, 2)
    assert forest.predict_proba(X).shape == (12, 2)



_ONE_ULP_UP = math.nextafter(1.0, 2.0)


@pytest.mark.parametrize("lo, hi", [
    (0.3, 0.1 + 0.2),                                  # the midpoint rounds onto hi
    (_ONE_ULP_UP, math.nextafter(_ONE_ULP_UP, 2.0)),   # adjacent doubles
    (1.7e308, 1.75e308),                               # lo + hi overflows to inf
    (-1.75e308, -1.7e308),                             # lo + hi overflows to -inf
])
def test_split_threshold_separates_values_whose_midpoint_is_not_between(lo, hi):
    X = np.array([[lo], [hi], [lo], [hi]])
    y = np.array([0, 1, 0, 1])
    rows = np.argsort(X.T, axis=1, kind="stable")
    feature, threshold = _best_split(X, y, 2, rows, np.array([0]))
    assert feature == 0 and lo <= threshold < hi
    tree = DecisionTreeModel().fit(X, y)
    assert tree_depth(tree) == 1
    assert list(predict(tree, X)) == [0, 1, 0, 1]


# ------------------------------------------------- split search differential

def _reference_best_split(X, codes, n_labels, feature_indices):
    """Per-feature split search: argsort each feature at the node and count
    labels with a one-hot cumsum. The oracle for the presorted search."""
    n = len(codes)
    best_impurity = math.inf
    best = None
    for f in feature_indices:
        order = np.argsort(X[:, f], kind="stable")
        xs = X[order, f]
        if xs[0] == xs[-1]:
            continue
        onehot = np.zeros((n, n_labels))
        onehot[np.arange(n), codes[order]] = 1.0
        cum = np.cumsum(onehot, axis=0)
        boundaries = np.flatnonzero(xs[:-1] != xs[1:])
        n_left = boundaries + 1
        n_right = n - n_left
        left = cum[boundaries]
        right = cum[-1] - left
        gini_left = 1.0 - np.sum((left / n_left[:, None]) ** 2, axis=1)
        gini_right = 1.0 - np.sum((right / n_right[:, None]) ** 2, axis=1)
        weighted = (n_left * gini_left + n_right * gini_right) / n
        b = int(np.argmin(weighted))
        if weighted[b] < best_impurity:
            best_impurity = weighted[b]
            lo, hi = xs[boundaries[b]], xs[boundaries[b] + 1]
            mid = (lo + hi) / 2.0
            best = (f, mid if lo <= mid < hi else lo)  # a midpoint rounded onto hi splits nothing
    return best


@st.composite
def split_problems(draw):
    n = draw(st.integers(2, 40))
    d = draw(st.integers(1, 5))
    # one decimal on a narrow range: many tied values; 0.1 + 0.2 sits one ulp
    # from 0.3, so near-equal values that must not be merged turn up too
    values = st.sampled_from([-1.0, 0.1, 0.2, 0.1 + 0.2, 0.3, 0.7, 2.5])
    X = np.array(draw(st.lists(values, min_size=n * d, max_size=n * d))).reshape(n, d)
    for f in draw(st.sets(st.integers(0, d - 1), max_size=d)):
        X[:, f] = X[0, f]                                   # constant columns
    label_set = draw(st.sampled_from([(0, 1), (-1, 1), (-1, 0, 1)]))
    codes = np.array(draw(st.lists(st.integers(0, len(label_set) - 1),
                                   min_size=n, max_size=n)))
    feats = np.array(sorted(draw(st.sets(st.integers(0, d - 1), min_size=1))))
    node = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    node[:2] = True                                          # a node has >= 2 rows
    return X, codes, len(label_set), feats, node


@settings(max_examples=300, deadline=None)
@given(split_problems())
def test_presorted_split_search_matches_per_feature_search(problem):
    X, codes, n_labels, feats, node = problem
    rows = np.argsort(X.T, axis=1, kind="stable")   # the fit-level presort
    rows = rows[node[rows]].reshape(X.shape[1], -1)  # stable partition to the node
    got = _best_split(X, codes, n_labels, rows, feats)
    want = _reference_best_split(X[node], codes[node], n_labels, feats)
    if want is None:
        assert got is None
    else:
        assert got is not None and (int(got[0]), got[1]) == (int(want[0]), want[1])


# --------------------------------------------------------------- node table

def walk_table(tree: DecisionTreeModel, x) -> int:
    """The reference router: the leaf row one input row reaches, by a Python walk."""
    node = 0
    while tree.feature_[node] >= 0:
        goes_left = x[tree.feature_[node]] <= tree.threshold_[node]
        node = tree.left_[node] if goes_left else tree.right_[node]
    return int(node)


@st.composite
def table_problems(draw):
    label_set = draw(st.sampled_from([(0, 1), (-1, 0, 1)]))
    n = draw(st.integers(len(label_set), 30))
    d = draw(st.integers(1, 4))
    values = st.sampled_from([-1.0, 0.1, 0.2, 0.1 + 0.2, 0.3, 0.7, 2.5])  # many ties
    X = np.array(draw(st.lists(values, min_size=(n + 5) * d, max_size=(n + 5) * d)))
    y = np.array(draw(st.lists(st.sampled_from(label_set), min_size=n, max_size=n)))
    y[:len(label_set)] = label_set                      # every label is present
    if draw(st.booleans()):
        model = DecisionTreeModel(ClassifierSpec(max_depth=draw(st.integers(1, 6))))
    else:
        model = RandomForestModel(ClassifierSpec(kind="random-forest",
                                                 max_depth=draw(st.integers(1, 6)),
                                                 n_estimators=draw(st.integers(1, 3)),
                                                 seed=draw(st.integers(0, 100))))
    X = X.reshape(n + 5, d)
    return model, X[:n], y, X                           # scored on 5 other rows too


@settings(max_examples=100, deadline=None)
@given(table_problems())
def test_node_table_matches_a_per_row_walk(problem):
    model, X, y, scored = problem
    model.fit(X, y)
    trees = [model] if isinstance(model, DecisionTreeModel) else model.trees_
    walked = [t.probs_[[walk_table(t, x) for x in scored]] for t in trees]
    assert np.array_equal(model.predict_proba(scored), np.mean(walked, axis=0))
    for t in trees:
        inner = np.flatnonzero(t.feature_ >= 0)
        children = t.counts_[t.left_[inner]] + t.counts_[t.right_[inner]]
        assert np.array_equal(t.counts_[inner], children)
    if isinstance(model, DecisionTreeModel):
        codes = np.searchsorted(model.label_set, y)
        leaves = np.array([walk_table(model, x) for x in X])
        for leaf in np.flatnonzero(model.feature_ < 0):
            reached = np.bincount(codes[leaves == leaf], minlength=len(model.label_set))
            assert np.array_equal(reached, model.counts_[leaf])
