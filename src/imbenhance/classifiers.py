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

from .data import Dataset


@dataclass
class ClassifierSpec:
    """Which classifier to train and with what settings."""

    kind: str = "decision-tree"  # decision-tree | random-forest | logistic-regression
    max_depth: int = 12
    n_estimators: int = 50
    learning_rate: float = 0.1
    n_iterations: int = 500
    bootstrap: bool = True
    seed: int = 42

    def __post_init__(self):
        if self.kind not in ("decision-tree", "random-forest", "logistic-regression"):
            raise ValueError(f"unknown classifier kind {self.kind!r}")
        if self.max_depth < 1 or self.n_estimators < 1 or self.n_iterations < 1:
            raise ValueError("max_depth, n_estimators and n_iterations must be positive")


class TrainedModel:
    """Base class: fitted parameters plus the ordered label set seen at fit time."""

    label_set: np.ndarray  # sorted class identifiers
    n_features_: int

    def fit(self, X: np.ndarray, y: np.ndarray) -> "TrainedModel":
        """Encode the classes once, as codes into ``label_set``, and fit on the codes."""
        X = np.asarray(X, dtype=float)
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
        return self._proba(X)

    def _proba(self, X: np.ndarray) -> np.ndarray:
        raise NotImplementedError


class _TreeNode:
    __slots__ = ("feature", "threshold", "left", "right", "probs")

    def __init__(self, feature=-1, threshold=0.0, left=None, right=None, probs=None):
        self.feature = feature
        self.threshold = threshold
        self.left = left
        self.right = right
        self.probs = probs  # set on leaves only


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
    """CART with Gini impurity, depth cap as the only regularizer, and
    Laplace-smoothed (+1 per class) leaf frequencies."""

    def __init__(self, max_depth: int = 12, feature_subsample: int | None = None,
                 rng: np.random.Generator | None = None):
        self.max_depth = max_depth
        self.feature_subsample = feature_subsample  # forest members search sqrt(d) features
        self.rng = rng
        self.root_: _TreeNode | None = None

    def _fit(self, X, codes, n_labels):
        self.n_labels_ = n_labels  # a forest member keeps every class its bootstrap lost
        # each feature is sorted once; nodes stable-partition these rows
        rows = np.argsort(X.T, axis=1, kind="stable")
        counts = np.bincount(codes, minlength=n_labels)
        goes_left = np.zeros(len(codes), dtype=bool)
        self.root_ = self._grow(X, codes, rows, counts, goes_left, depth=0)

    def _grow(self, X, codes, rows, counts, goes_left, depth):
        n = rows.shape[1]
        if depth >= self.max_depth or n < 2 or counts.max() == n:
            return self._leaf(counts)
        d = X.shape[1]
        if self.feature_subsample is not None and self.feature_subsample < d:
            feats = np.sort(self.rng.choice(d, size=self.feature_subsample, replace=False))
        else:
            feats = np.arange(d)
        split = _best_split(X, codes, len(counts), rows, feats)
        if split is None:
            return self._leaf(counts)
        f, thr = split
        # the same comparison predict routes by, so a midpoint that rounds onto
        # the upper value sends those rows left here too
        goes_left[rows[0]] = X[rows[0], f] <= thr
        mask = goes_left[rows]
        left, right = rows[mask].reshape(d, -1), rows[~mask].reshape(d, -1)
        left_counts = np.bincount(codes[left[0]], minlength=len(counts))
        return _TreeNode(feature=int(f), threshold=float(thr),
                         left=self._grow(X, codes, left, left_counts, goes_left, depth + 1),
                         right=self._grow(X, codes, right, counts - left_counts, goes_left,
                                          depth + 1))

    def _leaf(self, counts):
        probs = (counts + 1.0) / (counts.sum() + len(counts))
        return _TreeNode(probs=probs)

    def _proba(self, X):
        out = np.empty((X.shape[0], self.n_labels_))
        self._route(self.root_, X, np.arange(X.shape[0]), out)
        return out

    def _route(self, node, X, idx, out):
        if node.probs is not None:
            out[idx] = node.probs
            return
        mask = X[idx, node.feature] <= node.threshold
        self._route(node.left, X, idx[mask], out)
        self._route(node.right, X, idx[~mask], out)


class RandomForestModel(TrainedModel):
    """Bagged trees; probabilities are the mean of member-tree rows.

    Per-tree seeds are derived as seed + tree index. With bootstrap disabled
    the bagging and the per-split feature subsampling are both off, so a
    one-tree forest reduces exactly to the single decision tree.
    """

    def __init__(self, max_depth: int = 12, n_estimators: int = 50,
                 bootstrap: bool = True, seed: int = 42):
        self.max_depth = max_depth
        self.n_estimators = n_estimators
        self.bootstrap = bootstrap
        self.seed = seed
        self.trees_: list[DecisionTreeModel] = []

    def _fit(self, X, codes, n_labels):
        n, d = X.shape
        subsample = max(1, int(math.floor(math.sqrt(d)))) if self.bootstrap else None
        self.trees_ = []
        for i in range(self.n_estimators):
            rng = np.random.default_rng(self.seed + i)
            tree = DecisionTreeModel(max_depth=self.max_depth,
                                     feature_subsample=subsample, rng=rng)
            idx = rng.integers(0, n, size=n) if self.bootstrap else slice(None)
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
    """Full-batch gradient descent on cross-entropy; features standardized
    internally with fit-time mean/stdev. Two labels run one binary descent, on
    the second label. Three or more train one-vs-rest: one independent binary
    descent per label, with row-normalized sigmoid outputs."""

    def __init__(self, learning_rate: float = 0.1, n_iterations: int = 500):
        self.learning_rate = learning_rate
        self.n_iterations = n_iterations
        self.weights_: np.ndarray | None = None  # (n_classes_or_1, d)
        self.biases_: np.ndarray | None = None

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
        w, b = np.zeros((1, d)), np.zeros(1)
        r = np.empty((n, 1))
        for _ in range(self.n_iterations):
            np.matmul(Z, w.T, out=r)
            r += b
            _sigmoid(r)
            r -= t
            w -= self.learning_rate * (r.T @ Z / n)
            b -= self.learning_rate * (np.add.reduce(r, axis=0) / n)
        return w, b

    def _proba(self, X):
        Z = (X - self.mean_) / self.std_
        p = _sigmoid(Z @ self.weights_.T + self.biases_)
        if len(self.label_set) == 2:
            return np.column_stack([1.0 - p[:, 0], p[:, 0]])
        return p / p.sum(axis=1, keepdims=True)


def _features_of(x) -> np.ndarray:
    if isinstance(x, Dataset):
        return np.asarray(x.features, dtype=float)
    return np.asarray(x, dtype=float)


def fit(spec: ClassifierSpec, train: Dataset) -> TrainedModel:
    """Train the classifier named by ``spec`` on a labeled dataset."""
    if train.labels is None:
        raise ValueError("training dataset must be labeled")
    if train.n_rows == 0:
        raise ValueError("empty training set")
    X = _features_of(train)
    if not np.all(np.isfinite(X)):
        raise ValueError("training features must be finite (run preprocessing first)")

    if spec.kind == "decision-tree":
        return DecisionTreeModel(max_depth=spec.max_depth).fit(X, train.labels)
    if spec.kind == "random-forest":
        return RandomForestModel(max_depth=spec.max_depth, n_estimators=spec.n_estimators,
                                 bootstrap=spec.bootstrap, seed=spec.seed).fit(X, train.labels)
    return LogisticRegressionModel(learning_rate=spec.learning_rate,
                                   n_iterations=spec.n_iterations).fit(X, train.labels)


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
