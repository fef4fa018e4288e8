from __future__ import annotations

import math
import time

import numpy as np
import pytest

from suggestgate.errors import FeatureMismatch, ModelFormatError, NoPositives
from suggestgate.evaluation import confusion_at
from suggestgate.features import FEATURE_NAMES, FeatureVector
from suggestgate.gate import (
    TAU_GRID,
    Decision,
    Reason,
    ThresholdSelection,
    select_threshold_from_scores,
    should_trigger,
)
from suggestgate.model import (
    AcceptanceModel,
    TreeHyper,
    fit_logistic,
    fit_tree_ensemble,
    load_model,
    predict_proba,
    require_feature_contract,
    save_model,
)


def _simple_model(d: int = 1) -> AcceptanceModel:
    return AcceptanceModel(
        feature_names=tuple(f"x{i}" for i in range(d)),
        mean=(0.0,) * d,
        std=(1.0,) * d,
        kind="logistic",
        parameters={"weights": [1.0] * d, "bias": 0.0},
    )


class TestSelectThreshold:
    def test_grid_contents(self):
        assert TAU_GRID[0] == 0.01
        assert TAU_GRID[-1] == 0.50
        assert len(TAU_GRID) == 50

    def test_operating_point_on_engineered_validation(self):
        # Engineered so recall is 0.965 at tau = 0.10 and first falls below
        # the floor at the next grid point: 3.5% of positives sit below the
        # grid, 6% in (0.10, 0.11], the rest high.
        scores = [0.009] * 7 + [0.105] * 12 + [0.9] * 181 + [0.05] * 300 + [0.2] * 100
        labels = [1] * 200 + [0] * 400
        sel = select_threshold_from_scores(scores, labels, recall_floor=0.95)
        assert sel.tau == pytest.approx(0.10)
        assert sel.recall_accepted == pytest.approx(0.965, abs=1e-9)
        assert sel.satisfied_floor

    def test_separable_validation_tau_just_below_min_positive(self):
        # Positives all score 0.42, negatives 0.07: the largest grid tau
        # keeping recall 1.0 is 0.41.
        scores = [0.42] * 10 + [0.07] * 40
        labels = [1] * 10 + [0] * 40
        sel = select_threshold_from_scores(scores, labels, recall_floor=0.95)
        assert sel.tau == pytest.approx(0.41)
        assert sel.recall_accepted == 1.0

    def test_vacuous_floor_returns_largest_grid_point(self):
        scores = [0.6] * 5 + [0.4] * 5
        labels = [1] * 5 + [0] * 5
        sel = select_threshold_from_scores(scores, labels, recall_floor=0.0)
        assert sel.tau == pytest.approx(0.50)

    def test_unreachable_floor_flags_fallback(self):
        # All positives score below the smallest grid point.
        scores = [0.005] * 5 + [0.9] * 5
        labels = [1] * 5 + [0] * 5
        sel = select_threshold_from_scores(scores, labels, recall_floor=0.95)
        assert sel.tau == pytest.approx(0.01)
        assert not sel.satisfied_floor

    def test_no_positives(self):
        with pytest.raises(NoPositives):
            select_threshold_from_scores([0.1, 0.2], [0, 0])

    def test_matches_brute_force_grid_scan(self):
        # Scores mix uniform draws, exact grid points and values below the
        # grid; floors include 0.0, 1.0 and unreachable ones.
        rng = np.random.default_rng(4)
        grid = np.array(TAU_GRID)
        fallbacks = 0
        for case in range(600):
            n = int(rng.integers(1, 40))
            pools = (rng.uniform(0.0, 0.6, n), rng.choice(grid, n), rng.uniform(0.0, 0.01, n))
            scores = np.where(rng.integers(0, 3, n) == 0, pools[0],
                              np.where(rng.integers(0, 2, n) == 0, pools[1], pools[2]))
            labels = (rng.random(n) < 0.5).astype(float)
            labels[rng.integers(0, n)] = 1.0
            floor = (0.0, 1.0, 0.95, float(rng.random()))[case % 4]
            expected = _brute_force_selection(scores, labels, floor)
            assert select_threshold_from_scores(scores, labels, floor) == expected
            fallbacks += not expected.satisfied_floor
        assert fallbacks > 0


def _brute_force_selection(scores, labels, floor: float) -> ThresholdSelection:
    """Reference: one confusion_at pass per grid point, keeping the last that
    meets the floor; 0.01, flagged, when none does."""
    best = None
    for tau in TAU_GRID:
        report = confusion_at(scores, labels, tau)
        if report.recall_accepted >= floor:
            best = (tau, report)
    satisfied = best is not None
    tau, report = best if satisfied else (TAU_GRID[0], confusion_at(scores, labels, TAU_GRID[0]))
    return ThresholdSelection(tau, report.recall_accepted, report.precision_accepted, satisfied)


class TestShouldTrigger:
    def test_suppress_below_threshold(self):
        model = _simple_model()
        decision = should_trigger(model, [-3.0], tau=0.10)  # sigmoid(-3) ~ 0.047
        assert decision.decision is Decision.SUPPRESS
        assert decision.reason is Reason.BELOW_THRESHOLD
        assert decision.p_accept == pytest.approx(0.04742587, rel=1e-6)

    def test_trigger_above_threshold(self):
        model = _simple_model()
        decision = should_trigger(model, [-0.32], tau=0.10)  # sigmoid ~ 0.42
        assert decision.decision is Decision.TRIGGER
        assert decision.reason is Reason.ABOVE_THRESHOLD

    def test_fail_open_on_corrupt_vector(self):
        model = _simple_model()
        decision = should_trigger(model, [1.0, 2.0, 3.0], tau=0.10)  # wrong arity
        assert decision.decision is Decision.TRIGGER
        assert decision.reason is Reason.FAIL_OPEN

    @pytest.mark.parametrize("kind", ["logistic", "tree_ensemble"])
    @pytest.mark.parametrize("rows", [np.array, list], ids=["(2, n) array", "nested list"])
    def test_fail_open_on_several_rows(self, kind, rows):
        X, y = _contract_data(120)
        model = _fit(kind, X, y, TreeHyper(n_trees=5))
        decision = should_trigger(model, rows([list(X[0]), list(X[1])]), tau=0.10)
        assert decision.decision is Decision.TRIGGER
        assert decision.reason is Reason.FAIL_OPEN

    def test_fail_open_on_corrupt_model(self):
        broken = AcceptanceModel(
            feature_names=("x",),
            mean=(0.0,),
            std=(1.0,),
            kind="no_such_kind",
            parameters={},
        )
        decision = should_trigger(broken, [1.0], tau=0.10)
        assert decision.decision is Decision.TRIGGER
        assert decision.reason is Reason.FAIL_OPEN

    def test_monotonicity_in_tau(self):
        # Raising tau never converts a Suppress into a Trigger.
        model = _simple_model()
        rng = np.random.default_rng(0)
        vectors = rng.normal(size=(50, 1))
        taus = [0.05, 0.1, 0.2, 0.35, 0.5]
        previous_triggers = None
        for tau in taus:
            triggers = {
                i
                for i, v in enumerate(vectors)
                if should_trigger(model, v, tau).decision is Decision.TRIGGER
            }
            if previous_triggers is not None:
                assert triggers <= previous_triggers
            previous_triggers = triggers

    def test_decision_consistent_with_probability(self):
        model = _simple_model()
        for raw in (-2.0, -1.0, 0.0, 1.0, 2.0):
            decision = should_trigger(model, [raw], tau=0.25)
            expected = Decision.TRIGGER if decision.p_accept > 0.25 else Decision.SUPPRESS
            assert decision.decision is expected

    @pytest.mark.parametrize("kind", ["logistic", "tree_ensemble"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_fail_open_on_non_finite_feature(self, kind, bad):
        # A tree would score NaN down its right branch and inf like any
        # large value; neither may suppress silently.
        X, y = _contract_data(120)
        model = _fit(kind, X, y, TreeHyper(n_trees=5))
        values = list(X[0])
        values[3] = bad
        decision = should_trigger(model, FeatureVector(values=tuple(values)), 0.1)
        assert decision.decision is Decision.TRIGGER
        assert decision.reason is Reason.FAIL_OPEN

    @pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
    @pytest.mark.parametrize("form", [list, lambda v: np.array([v])], ids=["row", "(1, n) array"])
    def test_fail_open_on_nan_probability(self, form):
        # Finite features whose standardized terms overflow to +inf and -inf
        # give z = NaN, so p is NaN on the row and the batch path alike.
        model = AcceptanceModel(
            feature_names=("a", "b"),
            mean=(0.0, 0.0),
            std=(1e-10, 1e-10),
            kind="logistic",
            parameters={"weights": [1.0, 1.0], "bias": 0.0},
        )
        x = form([1e308, -1e308])
        assert math.isnan(predict_proba(model, x))
        decision = should_trigger(model, x, 0.1)
        assert decision.decision is Decision.TRIGGER
        assert decision.reason is Reason.FAIL_OPEN

    @pytest.mark.parametrize(
        "parameters, std",
        [
            ({}, (1.0,)),
            ({"weights": [1.0]}, (1.0,)),
            ({"weights": [1.0, 2.0], "bias": 0.0}, (1.0,)),
            ({"weights": "not numbers", "bias": 0.0}, (1.0,)),
            ({"weights": [1.0], "bias": 0.0}, (0.0,)),
        ],
        ids=["empty", "no_bias", "too_many_weights", "weights_not_numeric", "zero_std"],
    )
    def test_fail_open_on_malformed_logistic_parameters(self, parameters, std):
        # Construction accepts them; every decision then fails open.
        broken = AcceptanceModel(("x",), (0.0,), std, "logistic", parameters)
        with pytest.raises(ModelFormatError):
            predict_proba(broken, [1.0])
        decision = should_trigger(broken, [1.0], tau=0.10)
        assert decision.decision is Decision.TRIGGER
        assert decision.reason is Reason.FAIL_OPEN

    @pytest.mark.parametrize("tau", [0.0, 1.0, 2.0, math.nan])
    def test_fail_open_on_tau_outside_unit_interval(self, tau):
        decision = should_trigger(_simple_model(), [3.0], tau)
        assert decision.decision is Decision.TRIGGER
        assert decision.reason is Reason.FAIL_OPEN

    def test_model_on_the_old_22_feature_contract_fails_open(self, tmp_path):
        # Files trained before typing_speed was dropped still load, but the
        # contract check refuses them and every decision fails open.
        X, y = _contract_data(120)
        old_names = ("typing_speed",) + FEATURE_NAMES
        old = fit_logistic(np.column_stack([X[:, 2], X]), y, (1.0, 1.0), feature_names=old_names)
        save_model(old, tmp_path / "old.json")
        loaded = load_model(tmp_path / "old.json")
        with pytest.raises(FeatureMismatch):
            require_feature_contract(loaded)
        decision = should_trigger(loaded, FeatureVector(values=tuple(X[0])), 0.1)
        assert decision.decision is Decision.TRIGGER
        assert decision.reason is Reason.FAIL_OPEN

    def test_latency_p50_under_one_millisecond(self):
        # Desk-scale check on the real feature contract.
        X, y = _contract_data(400)
        p50 = _decision_p50_s(fit_logistic(X, y, (1.0, 1.0)), X[0])
        assert p50 < 1e-3, f"p50 decision latency {p50 * 1e3:.3f} ms"

    def test_tree_latency_p50_under_one_millisecond(self):
        X, y = _contract_data(400)
        p50 = _decision_p50_s(fit_tree_ensemble(X, y, (1.0, 1.0), TreeHyper()), X[0])
        assert p50 < 1e-3, f"p50 decision latency {p50 * 1e3:.3f} ms"


def _contract_data(n: int):
    rng = np.random.default_rng(1)
    X = rng.normal(size=(n, len(FEATURE_NAMES)))
    return X, (X[:, 3] > 0).astype(float)


def _fit(kind: str, X, y, hyper: TreeHyper) -> AcceptanceModel:
    if kind == "logistic":
        return fit_logistic(X, y, (1.0, 1.0))
    return fit_tree_ensemble(X, y, (1.0, 1.0), hyper)


def _decision_p50_s(model: AcceptanceModel, x) -> float:
    vector = FeatureVector(values=tuple(float(v) for v in x))
    should_trigger(model, vector, 0.1)  # warm up
    samples = []
    for _ in range(300):
        start = time.perf_counter()
        should_trigger(model, vector, 0.1)
        samples.append(time.perf_counter() - start)
    samples.sort()
    return samples[len(samples) // 2]
