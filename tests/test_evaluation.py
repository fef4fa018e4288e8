from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from suggestgate.errors import NoPositives, SingleClass
from suggestgate.evaluation import (
    Confusion,
    balanced_accuracy,
    bootstrap_std,
    brier,
    compute_metric_report,
    confusion_at,
    importance_csv,
    kappa,
    mcc,
    permutation_importance,
    pr_auc,
    roc_auc,
)
from suggestgate.model import AcceptanceModel, fit_logistic


def pairwise_roc_auc(scores, labels) -> float:
    """Oracle: enumerate every positive-negative pair; ties credit 0.5."""
    pos = [s for s, y in zip(scores, labels) if y == 1]
    neg = [s for s, y in zip(scores, labels) if y == 0]
    total = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                total += 1.0
            elif p == n:
                total += 0.5
    return total / (len(pos) * len(neg))


class TestRocAuc:
    def test_perfect_separation(self):
        assert roc_auc([0.1, 0.2, 0.8, 0.9], [0, 0, 1, 1]) == 1.0

    def test_all_ties(self):
        assert roc_auc([0.5, 0.5, 0.5, 0.5], [0, 1, 0, 1]) == 0.5

    def test_hand_counted_example(self):
        # Pairs: (0.35 vs 0.1) win, (0.35 vs 0.4) loss, (0.8 vs both) wins.
        assert roc_auc([0.1, 0.4, 0.35, 0.8], [0, 0, 1, 1]) == 0.75

    def test_single_class_raises(self):
        with pytest.raises(SingleClass):
            roc_auc([0.1, 0.9], [1, 1])

    def test_exhaustive_small_grid_matches_pair_oracle(self):
        # Every label pattern and every score tuple over a tie-rich alphabet,
        # n up to 5: rank-based value must equal pair counting exactly.
        alphabet = (0.1, 0.5, 0.9)
        checked = 0
        for n in range(2, 6):
            for labels in itertools.product((0, 1), repeat=n):
                if sum(labels) in (0, n):
                    continue
                for scores in itertools.product(alphabet, repeat=n):
                    assert roc_auc(scores, labels) == pairwise_roc_auc(scores, labels)
                    checked += 1
        assert checked > 5_000

    def test_random_sets_up_to_twelve_match_pair_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(500):
            n = int(rng.integers(2, 13))
            labels = rng.integers(0, 2, size=n)
            if labels.sum() in (0, n):
                continue
            scores = np.round(rng.random(n), 2)  # rounding forces ties
            assert roc_auc(scores, labels) == pairwise_roc_auc(scores, labels)

    def test_matches_sklearn(self):
        sk = pytest.importorskip("sklearn.metrics")
        rng = np.random.default_rng(3)
        labels = rng.integers(0, 2, size=300)
        scores = rng.random(300) * 0.5 + labels * rng.random(300) * 0.5
        assert roc_auc(scores, labels) == pytest.approx(
            sk.roc_auc_score(labels, scores), rel=1e-12
        )

    @given(
        data=st.lists(
            st.tuples(st.floats(0, 1, allow_nan=False), st.integers(0, 1)),
            min_size=4,
            max_size=40,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_monotone_transform_invariance(self, data):
        # Rounding keeps exp strictly monotone in floats and produces ties.
        scores = [round(s, 3) for s, _ in data]
        labels = [y for _, y in data]
        if sum(labels) in (0, len(labels)):
            return
        base = roc_auc(scores, labels)
        transformed = [math.exp(3.0 * s) + 1.0 for s in scores]
        assert roc_auc(transformed, labels) == pytest.approx(base, abs=1e-12)

    def test_label_flip_symmetry(self):
        rng = np.random.default_rng(8)
        scores = rng.random(50)
        labels = rng.integers(0, 2, size=50)
        flipped = 1 - labels
        assert roc_auc(scores, flipped) == pytest.approx(
            1.0 - roc_auc(scores, labels), abs=1e-12
        )


class TestPrAuc:
    def test_perfect_ranking(self):
        assert pr_auc([0.1, 0.2, 0.8, 0.9], [0, 0, 1, 1]) == 1.0

    def test_single_positive_ranked_last(self):
        for n in (3, 5, 10):
            scores = [float(i) for i in range(n)]
            labels = [1] + [0] * (n - 1)  # positive has the lowest score
            assert pr_auc(scores, labels) == pytest.approx(1.0 / n, rel=1e-12)

    def test_random_scores_approach_base_rate(self):
        # Monte Carlo oracle: with uninformative scores, AP converges to the
        # positive rate.
        rng = np.random.default_rng(17)
        n, p = 20_000, 0.15
        labels = (rng.random(n) < p).astype(float)
        scores = rng.random(n)
        assert pr_auc(scores, labels) == pytest.approx(p, abs=0.02)

    def test_no_positives(self):
        with pytest.raises(NoPositives):
            pr_auc([0.3, 0.4], [0, 0])

    def test_matches_sklearn_average_precision(self):
        sk = pytest.importorskip("sklearn.metrics")
        rng = np.random.default_rng(5)
        labels = rng.integers(0, 2, size=200)
        scores = np.round(rng.random(200) * 0.6 + labels * 0.2, 2)
        assert pr_auc(scores, labels) == pytest.approx(
            sk.average_precision_score(labels, scores), rel=1e-10
        )


class TestConfusionMetrics:
    HAND = Confusion(tp=15, fp=10, tn=70, fn=5)

    def test_identity_confusion(self):
        c = Confusion(tp=20, fp=0, tn=80, fn=0)
        assert balanced_accuracy(c) == 1.0
        assert mcc(c) == 1.0
        assert kappa(c) == 1.0

    def test_hand_computed_confusion(self):
        # balanced accuracy: (15/20 + 70/80) / 2.
        assert balanced_accuracy(self.HAND) == pytest.approx(0.8125, rel=1e-12)
        # mcc: (15*70 - 10*5) / sqrt(25 * 20 * 80 * 75).
        assert mcc(self.HAND) == pytest.approx(1000 / math.sqrt(3_000_000), rel=1e-12)
        # kappa: po = 0.85, pe = (25*20 + 75*80) / 100^2 = 0.65.
        assert kappa(self.HAND) == pytest.approx(0.2 / 0.35, rel=1e-12)

    def test_cross_check_against_sklearn(self):
        sk = pytest.importorskip("sklearn.metrics")
        y_true = [1] * 15 + [0] * 10 + [0] * 70 + [1] * 5
        y_pred = [1] * 15 + [1] * 10 + [0] * 70 + [0] * 5
        assert mcc(self.HAND) == pytest.approx(sk.matthews_corrcoef(y_true, y_pred), rel=1e-12)
        assert kappa(self.HAND) == pytest.approx(sk.cohen_kappa_score(y_true, y_pred), rel=1e-12)
        assert balanced_accuracy(self.HAND) == pytest.approx(
            sk.balanced_accuracy_score(y_true, y_pred), rel=1e-12
        )

    def test_degenerate_confusion_is_zero(self):
        c = Confusion(tp=0, fp=0, tn=10, fn=0)
        assert mcc(c) == 0.0
        assert kappa(c) == 0.0

    def test_brier_constant_half(self):
        assert brier([0.5] * 8, [0, 1, 0, 1, 0, 1, 0, 1]) == pytest.approx(0.25)

    def test_brier_of_base_rate_predictor(self):
        rng = np.random.default_rng(23)
        labels = (rng.random(5000) < 0.3).astype(float)
        p = labels.mean()
        assert brier([p] * 5000, labels) == pytest.approx(p * (1 - p), rel=1e-9)


class TestConfusionAt:
    def test_tau_below_all_scores(self):
        report = confusion_at([0.2, 0.6, 0.9], [0, 1, 1], tau=0.1)
        assert report.confusion.fp + report.confusion.tp == 3

    def test_tau_above_all_scores(self):
        report = confusion_at([0.2, 0.6, 0.9], [0, 1, 1], tau=0.95)
        assert report.confusion.tn + report.confusion.fn == 3

    def test_strict_inequality_at_tau(self):
        report = confusion_at([0.1, 0.5], [0, 1], tau=0.5)
        assert report.confusion.fn == 1  # score == tau is not a trigger

    def test_engineered_recall(self):
        # 200 positives with exactly 7 scored at or below tau: recall 0.965.
        scores = [0.9] * 193 + [0.05] * 7 + [0.05] * 100
        labels = [1] * 200 + [0] * 100
        report = confusion_at(scores, labels, tau=0.1)
        assert report.recall_accepted == pytest.approx(0.965, abs=0.005)


class TestMetricReport:
    def test_report_fields_and_ranges(self):
        rng = np.random.default_rng(1)
        labels = rng.integers(0, 2, size=400)
        scores = np.clip(labels * 0.4 + rng.random(400) * 0.6, 0, 1)
        report = compute_metric_report(scores, labels, tau=0.3)
        assert 0.0 <= report.roc_auc <= 1.0
        assert 0.0 <= report.pr_auc <= 1.0
        assert 0.0 <= report.balanced_accuracy <= 1.0
        assert -1.0 <= report.mcc <= 1.0
        assert -1.0 <= report.kappa <= 1.0
        assert 0.0 <= report.brier <= 1.0
        assert report.confusion.n == 400

    def test_csv_emission(self):
        rng = np.random.default_rng(4)
        labels = rng.integers(0, 2, size=60)
        scores = rng.random(60)
        csv_text = compute_metric_report(scores, labels, tau=0.5).to_csv()
        lines = csv_text.strip().splitlines()
        assert lines[0] == "metric,value"
        assert any(line.startswith("roc_auc,") for line in lines)

    def test_bootstrap_std_positive_for_both_aucs(self):
        rng = np.random.default_rng(2)
        labels = rng.integers(0, 2, size=150)
        scores = labels * 0.3 + rng.random(150) * 0.7
        for metric in (roc_auc, pr_auc):
            assert 0.0 < bootstrap_std(metric, scores, labels, n_resamples=100, seed=3) < 1.0

    def test_bootstrap_deterministic(self):
        rng = np.random.default_rng(6)
        labels = rng.integers(0, 2, size=80)
        scores = rng.random(80)
        a = bootstrap_std(roc_auc, scores, labels, n_resamples=50, seed=9)
        b = bootstrap_std(roc_auc, scores, labels, n_resamples=50, seed=9)
        assert a == b


def _single_signal_model_and_data(n=300, d=4, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    y = (X[:, 2] + 0.2 * rng.normal(size=n) > 0).astype(float)
    names = [f"f{j}" for j in range(d)]
    model = fit_logistic(X, y, (1.0, 1.0), feature_names=names)
    return model, X, y


class TestPermutationImportance:
    def test_ignored_feature_has_zero_drop(self):
        model, X, y = _single_signal_model_and_data()
        # Force exact irrelevance of f0.
        params = dict(model.parameters)
        weights = list(params["weights"])
        weights[0] = 0.0
        params["weights"] = weights
        model = AcceptanceModel(
            feature_names=model.feature_names,
            mean=model.mean,
            std=model.std,
            kind="logistic",
            parameters=params,
        )
        ranked = dict(permutation_importance(model, X, y, repeats=3, seed=1))
        assert ranked["f0"] == 0.0

    def test_signal_feature_ranks_first(self):
        model, X, y = _single_signal_model_and_data()
        ranked = permutation_importance(model, X, y, repeats=5, seed=2)
        assert ranked[0][0] == "f2"
        assert ranked[0][1] > 0.1

    def test_ranking_stable_across_repeat_counts(self):
        model, X, y = _single_signal_model_and_data(seed=5)
        one = permutation_importance(model, X, y, repeats=1, seed=7)
        ten = permutation_importance(model, X, y, repeats=10, seed=7)
        assert one[0][0] == ten[0][0] == "f2"

    def test_deterministic_given_seed(self):
        model, X, y = _single_signal_model_and_data(seed=6)
        assert permutation_importance(model, X, y, repeats=3, seed=11) == (
            permutation_importance(model, X, y, repeats=3, seed=11)
        )

    def test_requires_fifty_records(self):
        model, X, y = _single_signal_model_and_data(n=30)
        with pytest.raises(ValueError):
            permutation_importance(model, X, y)

    def test_csv_output(self):
        model, X, y = _single_signal_model_and_data()
        text = importance_csv(permutation_importance(model, X, y, repeats=2, seed=0))
        assert text.splitlines()[0] == "feature,mean_metric_drop"
