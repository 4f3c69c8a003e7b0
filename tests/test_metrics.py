import numpy as np
import pytest

from imbenhance.classifiers import ClassifierSpec, TrainedModel, fit, predict, predict_proba
from imbenhance.data import Dataset, generate_synthetic_benchmark
from imbenhance.metrics import (
    ConfusionCounts,
    auc,
    confusion,
    evaluate,
    f1_score,
    ks_statistic,
    precision_recall_f1,
    score_report,
)


# Independent oracles: pairwise AUC and exhaustive-threshold KS.

def pairwise_auc_oracle(labels, scores):
    labels = np.asarray(labels)
    scores = np.asarray(scores, dtype=float)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    wins = np.sum(pos[:, None] > neg[None, :])
    ties = np.sum(pos[:, None] == neg[None, :])
    return (wins + 0.5 * ties) / (len(pos) * len(neg))


def brute_force_ks(labels, scores):
    labels = np.asarray(labels)
    scores = np.asarray(scores, dtype=float)
    n_pos = np.sum(labels == 1)
    n_neg = np.sum(labels == 0)
    best = 0.0  # the +inf sentinel threshold contributes TPR - FPR = 0
    for t in np.unique(scores):
        pred = scores >= t
        tpr = np.sum(pred & (labels == 1)) / n_pos
        fpr = np.sum(pred & (labels == 0)) / n_neg
        best = max(best, tpr - fpr)
    return best


class ConstantModel(TrainedModel):
    def __init__(self, p1=0.5):
        self.label_set = np.array([0, 1])
        self.n_features_ = 1
        self.p1 = p1

    def _proba(self, X):
        return np.tile([1.0 - self.p1, self.p1], (X.shape[0], 1))


# ---------------------------------------------------------------- confusion

def test_confusion_counts():
    c = confusion([1, 1, 0, 0], [1, 0, 0, 1])
    assert (c.tp, c.fn, c.tn, c.fp) == (1, 1, 1, 1)


def test_confusion_perfect():
    c = confusion([1, 0, 1], [1, 0, 1])
    assert c.fp == 0 and c.fn == 0


def test_accuracy_arithmetic():
    c = ConfusionCounts(tp=50, tn=40, fp=5, fn=5)
    assert c.accuracy == pytest.approx(0.9)


def test_confusion_length_mismatch():
    with pytest.raises(ValueError, match="length"):
        confusion([1, 0], [1])


def test_confusion_non_binary():
    with pytest.raises(ValueError, match="only 0 and 1"):
        confusion([1, 2], [1, 0])


# ------------------------------------------------------ precision/recall/f1

def test_prf_basic():
    p, r, f = precision_recall_f1(ConfusionCounts(tp=2, fp=1, fn=1, tn=0))
    assert p == pytest.approx(2 / 3)
    assert r == pytest.approx(2 / 3)
    assert f == pytest.approx(2 / 3)


def test_prf_zero_denominator_convention():
    p, r, f = precision_recall_f1(ConfusionCounts(tp=0, fp=0, fn=3, tn=5))
    assert p == 0.0 and f == 0.0


def test_prf_perfect():
    assert precision_recall_f1(ConfusionCounts(tp=1, fp=0, fn=0, tn=0)) == (1.0, 1.0, 1.0)


# ---------------------------------------------------------------------- auc

def test_auc_perfect_separation():
    assert auc([1, 1, 0, 0], [0.9, 0.8, 0.2, 0.1]) == pytest.approx(1.0)


def test_auc_derived_three_of_four_pairs():
    y = [1, 1, 0, 0]
    s = [0.8, 0.3, 0.5, 0.2]
    expected = pairwise_auc_oracle(y, s)
    assert expected == pytest.approx(0.75)  # 3 of 4 pos/neg pairs ordered correctly
    assert auc(y, s) == pytest.approx(expected, abs=1e-12)


def test_auc_all_ties():
    assert auc([1, 0, 1, 0], [0.3, 0.3, 0.3, 0.3]) == pytest.approx(0.5)


def test_auc_single_class_raises():
    with pytest.raises(ValueError, match="both classes"):
        auc([1, 1], [0.5, 0.6])


def test_auc_matches_pairwise_oracle_randomized():
    rng = np.random.default_rng(123)
    for _ in range(200):
        n = int(rng.integers(2, 200))
        y = rng.integers(0, 2, size=n)
        if y.min() == y.max():
            y[0] = 1 - y[0]
        s = np.round(rng.random(n), 2)  # coarse grid forces plenty of ties
        assert auc(y, s) == pytest.approx(pairwise_auc_oracle(y, s), abs=1e-9)


def test_auc_invariant_under_monotone_transform():
    rng = np.random.default_rng(9)
    y = rng.integers(0, 2, size=100)
    y[0], y[1] = 0, 1
    s = rng.random(100)
    assert auc(y, 2.0 * s + 3.0) == pytest.approx(auc(y, s), abs=1e-12)
    assert auc(y, np.exp(s)) == pytest.approx(auc(y, s), abs=1e-12)


def test_auc_label_flip_complement():
    rng = np.random.default_rng(10)
    y = rng.integers(0, 2, size=150)
    y[0], y[1] = 0, 1
    s = np.round(rng.random(150), 1)
    assert auc(1 - y, s) == pytest.approx(1.0 - auc(y, s), abs=1e-9)


# ----------------------------------------------------------------------- ks

def test_ks_perfect_separation():
    assert ks_statistic([1, 1, 0, 0], [0.9, 0.8, 0.2, 0.1]) == pytest.approx(1.0)


def test_ks_derived_example():
    y = [1, 1, 0, 0]
    s = [0.8, 0.3, 0.5, 0.2]
    expected = brute_force_ks(y, s)
    assert expected == pytest.approx(0.5)
    assert ks_statistic(y, s) == pytest.approx(expected, abs=1e-12)


def test_ks_identical_distributions():
    assert ks_statistic([1, 0, 1, 0], [0.2, 0.2, 0.7, 0.7]) == pytest.approx(0.0)


def test_ks_matches_brute_force_randomized():
    rng = np.random.default_rng(321)
    for _ in range(200):
        n = int(rng.integers(2, 150))
        y = rng.integers(0, 2, size=n)
        if y.min() == y.max():
            y[0] = 1 - y[0]
        s = np.round(rng.random(n), 2)
        got = ks_statistic(y, s)
        assert got == pytest.approx(brute_force_ks(y, s), abs=1e-12)
        assert 0.0 <= got <= 1.0


# ------------------------------------------------------------------ evaluate

def test_evaluate_constant_half_on_balanced_data():
    d = Dataset(features=np.zeros((10, 1)), labels=np.array([1] * 5 + [0] * 5))
    r = evaluate(ConstantModel(0.5), d)
    # inclusive threshold: everything predicted 1
    assert r.accuracy == pytest.approx(0.5)
    assert r.recall == pytest.approx(1.0)
    assert r.auc == pytest.approx(0.5)
    assert r.ks == pytest.approx(0.0)


def test_evaluate_perfect_model():
    rng = np.random.default_rng(0)
    X = np.vstack([rng.normal(0, 0.2, (20, 2)), rng.normal(8, 0.2, (20, 2))])
    d = Dataset(features=X, labels=np.array([0] * 20 + [1] * 20))
    m = fit(ClassifierSpec(kind="decision-tree"), d)
    r = evaluate(m, d)
    for v in (r.precision, r.recall, r.f1, r.accuracy, r.auc, r.ks):
        assert v == pytest.approx(1.0)


def test_evaluate_matches_oracles_on_benchmark_output():
    d = generate_synthetic_benchmark(n=400, d=3, imbalance_ratio=6, noise_rate=0.1, seed=8)
    m = fit(ClassifierSpec(kind="decision-tree", max_depth=4), d)
    r = evaluate(m, d)
    from imbenhance.classifiers import predict_proba
    scores = predict_proba(m, d)[:, 1]
    assert r.auc == pytest.approx(pairwise_auc_oracle(d.labels, scores), abs=1e-9)
    assert r.ks == pytest.approx(brute_force_ks(d.labels, scores), abs=1e-12)


@pytest.mark.parametrize("threshold", [0.0, 0.5, 1.0])
def test_evaluate_is_the_score_report_of_the_probabilities(threshold):
    # the two rows at x = 0 cannot be split: their leaf is Laplace-smoothed to exactly 0.5
    X = np.array([[0.0], [0.0], [5.0], [5.0], [5.0], [9.0], [9.0], [9.0]])
    d = Dataset(features=X, labels=np.array([0, 1, 1, 1, 1, 0, 0, 0]))
    m = fit(ClassifierSpec(kind="decision-tree"), d)
    scores = predict_proba(m, d)[:, 1]
    assert sorted(set(scores.tolist())) == [0.2, 0.5, 0.8]
    r = score_report(d.labels, scores, threshold)
    assert r == evaluate(m, d, threshold)
    assert r.counts == confusion(d.labels, predict(m, d, threshold))  # inclusive at p = 0.5
    assert r.counts.tp + r.counts.fp == {0.0: 8, 0.5: 5, 1.0: 0}[threshold]


def test_evaluate_rejects_non_binary_model():
    class ThreeClass(TrainedModel):
        label_set = np.array([-1, 0, 1])
        n_features_ = 1

        def _proba(self, X):
            return np.tile([0.2, 0.3, 0.5], (X.shape[0], 1))

    d = Dataset(features=np.zeros((4, 1)), labels=np.array([0, 1, 0, 1]))
    with pytest.raises(ValueError, match="label set"):
        evaluate(ThreeClass(), d)


def test_f1_score_helper():
    assert f1_score([1, 1, 0, 0], [1, 0, 0, 0]) == pytest.approx(2 / 3)


def test_report_text_and_csv_row():
    d = Dataset(features=np.zeros((4, 1)), labels=np.array([1, 1, 0, 0]))
    r = evaluate(ConstantModel(0.9), d)
    row = r.to_csv_row()
    assert len(row) == 10
    text = r.to_text()
    for key in ("precision =", "recall =", "auc =", "ks =", "threshold ="):
        assert key in text
