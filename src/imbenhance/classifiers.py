"""Probabilistic classifiers: CART decision tree, bagged random forest, logistic regression.

All three expose the same surface: ``fit`` on a labeled dataset, class
probabilities via ``predict_proba``, and thresholded/argmax labels via
``predict``. They accept any integer label set, including the artificial
label -1 used by the self-learning stage.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import Dataset, check_seed


@dataclass
class ClassifierSpec:
    """Which classifier to train and with what settings: ``kind`` is a key of
    ``MODELS``, and the model class it names reads its settings from the spec."""

    kind: str = "decision-tree"
    max_depth: int = 12
    n_estimators: int = 50
    learning_rate: float = 0.1
    n_iterations: int = 500
    bootstrap: bool = True
    seed: int = 42

    def __post_init__(self):
        if self.kind not in MODELS:
            raise ValueError(f"unknown classifier kind {self.kind!r}")
        if self.max_depth < 1 or self.n_estimators < 1 or self.n_iterations < 1:
            raise ValueError("max_depth, n_estimators and n_iterations must be positive")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0.0):
            raise ValueError(f"learning_rate must be finite and > 0, got {self.learning_rate}")
        check_seed(self.seed)  # forest members seed from it


class TrainedModel:
    """Base class: the spec it is built from, fitted parameters, and the
    ordered label set seen at fit time."""

    label_set: np.ndarray  # sorted class identifiers
    n_features_: int

    def __init__(self, spec: ClassifierSpec | None = None):
        self.spec = ClassifierSpec() if spec is None else spec

    def fit(self, X: np.ndarray, y: np.ndarray) -> "TrainedModel":
        """Encode the classes once, as codes into ``label_set``, and fit on the codes."""
        X = np.asarray(X, dtype=float)
        if not np.all(np.isfinite(X)):
            raise ValueError("training features must be finite (run preprocessing first)")
        self.label_set, codes = np.unique(y, return_inverse=True)
        if len(self.label_set) < 2:
            raise ValueError("training set has a single class")
        self.n_features_ = X.shape[1]
        self._fit(X, codes, len(self.label_set))
        return self

    def _fit(self, X: np.ndarray, codes: np.ndarray, n_labels: int):
        """Fit on ``codes``, each row's index into the ``n_labels`` sorted classes."""
        raise NotImplementedError

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.n_features_:
            raise ValueError(f"expected {self.n_features_} features, got shape {X.shape}")
        if not np.all(np.isfinite(X)):
            raise ValueError("scored features must be finite (run preprocessing first)")
        return self._proba(X)

    def _proba(self, X: np.ndarray) -> np.ndarray:
        raise NotImplementedError


def _best_split(X, codes, n_labels, rows, feature_indices):
    """Exhaustive Gini split search over midpoints of sorted unique values.

    ``rows`` is the node's ``(d, n)`` index matrix: row f lists the node's
    sample ids in ascending order of ``X[:, f]``. ``feature_indices`` are
    ascending and distinct. All candidate features are scored in one pass
    over the stacked ``(labels, k, n)`` prefix counts. Ties in weighted child
    impurity go to the lower feature index, then the lower threshold.
    Returns (feature, threshold) or None.

    numpy adds up to seven labels one after another whichever axis holds
    them, so for such label sets the impurities equal, bit for bit, those of
    a per-feature search over ``(n, labels)`` one-hot counts.
    """
    if len(feature_indices) == 0:
        return None
    d, n = rows.shape
    order = rows if len(feature_indices) == d else rows[feature_indices]   # (k, n)
    xs = X[order, feature_indices[:, None]]
    # (labels, k, n): prefix count of each label along each feature's order
    cum = np.cumsum(codes[order] == np.arange(n_labels)[:, None, None], axis=2)
    n_left = np.arange(1, n)                         # a split after position i
    n_right = n_left[::-1]
    left = cum[:, :, :-1]
    right = cum[:, :, -1:] - left
    weighted = _gini(left, n_left)
    weighted *= n_left
    gini_right = _gini(right, n_right)
    gini_right *= n_right
    weighted += gini_right
    weighted /= n
    weighted[xs[:, :-1] == xs[:, 1:]] = np.inf       # only between distinct values
    # first minimum in (feature, position) order -> lowest feature, lowest threshold
    f, b = divmod(int(np.argmin(weighted)), n - 1)
    if weighted[f, b] == np.inf:
        return None
    lo, hi = float(xs[f, b]), float(xs[f, b + 1])
    mid = (lo + hi) / 2.0          # Python floats overflow to +-inf without a warning
    # a midpoint that rounds onto hi (adjacent doubles) or overflows would
    # send every row left; lo still separates the two values
    return feature_indices[f], mid if lo <= mid < hi else lo


def _gini(counts, sizes):
    """Gini impurity of each child from its ``(labels, k, n - 1)`` label counts."""
    shares = counts / sizes
    shares *= shares
    impurity = np.add.reduce(shares, axis=0)
    return np.subtract(1.0, impurity, out=impurity)


class DecisionTreeModel(TrainedModel):
    """CART with Gini impurity, the depth cap ``spec.max_depth`` as the only
    regularizer, and Laplace-smoothed (+1 per class) leaf frequencies.

    A fitted tree is one node table in depth-first order, the root at row 0:
    ``feature_`` and ``threshold_`` (a row goes left iff ``x[feature] <=
    threshold``; ``feature_`` is -1 at a leaf), ``left_`` and ``right_`` (the
    children's rows), ``counts_`` (the training rows of each class that reached
    the node) and ``probs_`` (``(counts_ + 1) / (node rows + classes)``).
    """

    def __init__(self, spec: ClassifierSpec | None = None,
                 feature_subsample: int | None = None, rng: np.random.Generator | None = None):
        super().__init__(spec)
        self.feature_subsample = feature_subsample  # forest members search sqrt(d) features
        self.rng = rng

    def _fit(self, X, codes, n_labels):
        # each feature is sorted once; nodes stable-partition these rows
        rows = np.argsort(X.T, axis=1, kind="stable")
        # every class gets a column, also one a forest member's bootstrap lost
        counts = np.bincount(codes, minlength=n_labels)
        nodes = []
        self._grow(X, codes, rows, counts, np.zeros(len(codes), dtype=bool), 0, nodes)
        feature, threshold, left, right, counts = zip(*nodes)
        self.feature_, self.threshold_ = np.array(feature), np.array(threshold)
        self.left_, self.right_ = np.array(left), np.array(right)
        self.counts_ = np.array(counts)
        self.probs_ = (self.counts_ + 1.0) / (self.counts_.sum(axis=1, keepdims=True) + n_labels)

    def _grow(self, X, codes, rows, counts, goes_left, depth, nodes):
        """Append the node's row (a leaf until split), then its subtrees'; return its row."""
        at = len(nodes)
        nodes.append([-1, 0.0, 0, 0, counts])
        n = rows.shape[1]
        if depth >= self.spec.max_depth or n < 2 or counts.max() == n:
            return at
        d = X.shape[1]
        if self.feature_subsample is not None and self.feature_subsample < d:
            feats = np.sort(self.rng.choice(d, size=self.feature_subsample, replace=False))
        else:
            feats = np.arange(d)
        split = _best_split(X, codes, len(counts), rows, feats)
        if split is None:
            return at
        f, thr = split
        # the same comparison predict routes by, so a midpoint that rounds onto
        # the upper value sends those rows left here too
        goes_left[rows[0]] = X[rows[0], f] <= thr
        mask = goes_left[rows]
        left, right = rows[mask].reshape(d, -1), rows[~mask].reshape(d, -1)
        left_counts = np.bincount(codes[left[0]], minlength=len(counts))
        left_at = self._grow(X, codes, left, left_counts, goes_left, depth + 1, nodes)
        right_at = self._grow(X, codes, right, counts - left_counts, goes_left, depth + 1, nodes)
        nodes[at][:4] = int(f), float(thr), left_at, right_at
        return at

    def _proba(self, X):
        node = np.zeros(X.shape[0], dtype=np.intp)
        moving = np.flatnonzero(self.feature_[node] >= 0)
        while len(moving):  # one level per pass: each row on an inner node steps down
            at = node[moving]
            node[moving] = np.where(X[moving, self.feature_[at]] <= self.threshold_[at],
                                    self.left_[at], self.right_[at])
            moving = moving[self.feature_[node[moving]] >= 0]
        return self.probs_[node]


class RandomForestModel(TrainedModel):
    """``spec.n_estimators`` bagged trees; probabilities are the mean of
    member-tree rows.

    Member i seeds from ``spec.seed + i``. With ``spec.bootstrap`` off the
    bagging and the per-split feature subsampling are both off, so a one-tree
    forest reduces exactly to the single decision tree.
    """

    def _fit(self, X, codes, n_labels):
        n, d = X.shape
        spec = self.spec
        subsample = max(1, int(math.floor(math.sqrt(d)))) if spec.bootstrap else None
        self.trees_ = []
        for i in range(spec.n_estimators):
            rng = np.random.default_rng(spec.seed + i)
            tree = DecisionTreeModel(spec, feature_subsample=subsample, rng=rng)
            idx = rng.integers(0, n, size=n) if spec.bootstrap else slice(None)
            tree._fit(X[idx], codes[idx], n_labels)
            self.trees_.append(tree)

    def _proba(self, X):
        return np.mean([t._proba(X) for t in self.trees_], axis=0)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    """``1 / (1 + exp(-z))`` in place in ``z``. A z below about -709 overflows
    ``exp`` to inf and gives exactly 0.0, which is the sigmoid's limit."""
    with np.errstate(over="ignore"):
        np.exp(np.negative(z, out=z), out=z)
    z += 1.0
    return np.reciprocal(z, out=z)


class LogisticRegressionModel(TrainedModel):
    """Full-batch gradient descent on cross-entropy, ``spec.n_iterations``
    steps of ``spec.learning_rate``; features standardized internally with
    fit-time mean/stdev. Two labels run one binary descent, on the second
    label. Three or more train one-vs-rest: one independent binary descent
    per label, with row-normalized sigmoid outputs."""

    def _fit(self, X, codes, n_labels):
        self.mean_ = X.mean(axis=0)
        std = X.std(axis=0)
        self.std_ = np.where(std > 0, std, 1.0)
        Z = (X - self.mean_) / self.std_
        positives = [1] if n_labels == 2 else range(n_labels)
        fits = [self._descend(Z, (codes == c).astype(float)[:, None]) for c in positives]
        self.weights_ = np.vstack([w for w, _ in fits])
        self.biases_ = np.concatenate([b for _, b in fits])

    def _descend(self, Z, t):
        """One binary descent toward the (n, 1) 0/1 targets ``t``; returns the
        (1, d) weights and the (1,) bias. Every step reuses one (n, 1)
        residual buffer."""
        n, d = Z.shape
        learning_rate = self.spec.learning_rate
        w, b = np.zeros((1, d)), np.zeros(1)
        r = np.empty((n, 1))
        for _ in range(self.spec.n_iterations):
            np.matmul(Z, w.T, out=r)
            r += b
            _sigmoid(r)
            r -= t
            w -= learning_rate * (r.T @ Z / n)
            b -= learning_rate * (np.add.reduce(r, axis=0) / n)
        return w, b

    def _proba(self, X):
        Z = (X - self.mean_) / self.std_
        p = _sigmoid(Z @ self.weights_.T + self.biases_)
        if len(self.label_set) == 2:
            return np.column_stack([1.0 - p[:, 0], p[:, 0]])
        return p / p.sum(axis=1, keepdims=True)


# The classifier kinds, each a ClassifierSpec ``kind`` and the model class it builds.
MODELS = {"decision-tree": DecisionTreeModel, "random-forest": RandomForestModel,
          "logistic-regression": LogisticRegressionModel}


def _features_of(x) -> np.ndarray:
    if isinstance(x, Dataset):
        return np.asarray(x.features, dtype=float)
    return np.asarray(x, dtype=float)


def fit(spec: ClassifierSpec, train: Dataset) -> TrainedModel:
    """Train the model class ``spec.kind`` names, built from ``spec``, on a labeled dataset."""
    if train.labels is None:
        raise ValueError("training dataset must be labeled")
    if train.n_rows == 0:
        raise ValueError("empty training set")
    return MODELS[spec.kind](spec).fit(_features_of(train), train.labels)


def predict_proba(m: TrainedModel, x) -> np.ndarray:
    """Class-probability matrix, one row per input row, columns follow m.label_set."""
    return m.predict_proba(_features_of(x))


def predict(m: TrainedModel, x, threshold: float = 0.5) -> np.ndarray:
    """Labels from probabilities.

    Binary {0, 1} models use the inclusive decision rule: predict 1 iff
    p(y=1|x) >= threshold. Any other label set uses argmax with ties going to
    the smaller label id.
    """
    if not 0.0 <= threshold <= 1.0:
        raise ValueError("threshold must be in [0, 1]")
    proba = predict_proba(m, x)
    labels = np.asarray(m.label_set)
    if len(labels) == 2 and labels[0] == 0 and labels[1] == 1:
        return (proba[:, 1] >= threshold).astype(int)
    return labels[np.argmax(proba, axis=1)]
