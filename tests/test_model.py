from __future__ import annotations

import functools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from suggestgate import model as model_module
from suggestgate.dataset import class_weights, records_from_events, stratified_split
from suggestgate.errors import Divergence, FeatureMismatch, LengthMismatch, ModelFormatError, SingleClass
from suggestgate.features import N_FEATURES, FeatureVector
from suggestgate.gate import Decision, Reason, should_trigger
from suggestgate.model import (
    LOGISTIC_L2,
    MODEL_FORMAT_VERSION,
    _PROB_CLIP,
    AcceptanceModel,
    TreeHyper,
    _clip_probs,
    _grow_tree,
    _logistic_loss_grad,
    _sigmoid,
    fit_logistic,
    fit_tree_ensemble,
    load_model,
    predict_proba,
    predict_proba_batch,
    save_model,
    split_to_arrays,
    weighted_bce_mean,
)
from suggestgate.synth import SynthConfig, synth_sessions


# --- reference trees ----------------------------------------------------
# The earlier implementation, kept as the oracle for the heap arrays: nested
# dict trees fitted with a per-node, per-feature argsort and walked node by
# node. The array fit must reproduce its splits and its scores exactly.

_REF_LAMBDA = 1e-6
_REF_LR = 0.1
_REF_MIN_GAIN = 1e-12


def _reference_fit_tree(X, g, h, idx, depth):
    g_sum = float(g[idx].sum())
    h_sum = float(h[idx].sum())
    leaf = {"value": g_sum / (h_sum + _REF_LAMBDA)}
    if depth == 0 or idx.size < 2:
        return leaf
    base_score = g_sum * g_sum / (h_sum + _REF_LAMBDA)
    best_gain = _REF_MIN_GAIN
    best = None
    for j in range(X.shape[1]):
        xs = X[idx, j]
        order = np.argsort(xs, kind="stable")
        xs_sorted = xs[order]
        gl = np.cumsum(g[idx][order])[:-1]
        hl = np.cumsum(h[idx][order])[:-1]
        valid = xs_sorted[:-1] < xs_sorted[1:]
        if not valid.any():
            continue
        gr = g_sum - gl
        hr = h_sum - hl
        gain = gl * gl / (hl + _REF_LAMBDA) + gr * gr / (hr + _REF_LAMBDA) - base_score
        gain = np.where(valid, gain, -np.inf)
        pos = int(np.argmax(gain))
        if gain[pos] > best_gain:
            best_gain = float(gain[pos])
            best = (j, float(0.5 * (xs_sorted[pos] + xs_sorted[pos + 1])))
    if best is None:
        return leaf
    j, threshold = best
    mask = X[idx, j] <= threshold
    if mask.all() or not mask.any():
        return leaf
    return {
        "feature": j,
        "threshold": threshold,
        "left": _reference_fit_tree(X, g, h, idx[mask], depth - 1),
        "right": _reference_fit_tree(X, g, h, idx[~mask], depth - 1),
    }


def _reference_eval_tree(node, X):
    out = np.empty(X.shape[0])
    stack = [(node, np.arange(X.shape[0]))]
    while stack:
        current, idx = stack.pop()
        if "value" in current:
            out[idx] = current["value"]
            continue
        mask = X[idx, current["feature"]] <= current["threshold"]
        stack.append((current["left"], idx[mask]))
        stack.append((current["right"], idx[~mask]))
    return out


def _reference_ensemble(X, y, weights, hyper):
    """Standardized inputs, base score and the (scale, dict tree) stages."""
    mean, std = X.mean(axis=0), X.std(axis=0)
    Xs = (X - mean) / np.where(std == 0.0, 1.0, std)
    w_vec = np.where(y == 1.0, weights[1], weights[0])
    base_rate = float(np.sum(w_vec * y) / np.sum(w_vec))
    base_rate = min(max(base_rate, 1e-12), 1.0 - 1e-12)
    base_score = math.log(base_rate / (1.0 - base_rate))
    scores = np.full(X.shape[0], base_score)
    loss = weighted_bce_mean(_sigmoid(scores), y, weights)
    stages = []
    for _ in range(hyper.n_trees):
        p = _clip_probs(_sigmoid(scores))
        g = w_vec * (y - p)
        h = w_vec * p * (1.0 - p)
        root = _reference_fit_tree(Xs, g, h, np.arange(X.shape[0]), hyper.depth)
        step = _reference_eval_tree(root, Xs)
        scale = _REF_LR
        for _ in range(10):
            new_loss = weighted_bce_mean(_sigmoid(scores + scale * step), y, weights)
            if new_loss <= loss:
                stages.append((scale, root))
                scores = scores + scale * step
                loss = new_loss
                break
            scale *= 0.5
    return base_score, stages


def _reference_predict(base_score, stages, Xs):
    z = np.full(Xs.shape[0], base_score)
    for scale, root in stages:
        z = z + scale * _reference_eval_tree(root, Xs)
    return _clip_probs(_sigmoid(z))


def _heap_splits(root, depth):
    """(feature, threshold) per split node of a dict tree, padded as in the heap."""
    feature = np.zeros(2**depth - 1, dtype=np.intp)
    threshold = np.zeros(2**depth - 1)
    stack = [(root, 0)]
    while stack:
        node, k = stack.pop()
        if "value" not in node:
            feature[k], threshold[k] = node["feature"], node["threshold"]
            stack += [(node["left"], 2 * k + 1), (node["right"], 2 * k + 2)]
    return feature, threshold


def xor_data(n: int, seed: int = 0, noise: float = 0.1):
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2, size=(n, 2))
    X = bits + rng.normal(0, noise, size=(n, 2))
    y = (bits[:, 0] ^ bits[:, 1]).astype(float)
    return X, y


def twin_column_data(n: int, seed: int = 0):
    """XOR data whose first column appears twice, so gains tie across features."""
    X, y = xor_data(n, seed)
    return X[:, [0, 0, 1]], y


def telemetry_like_data(n: int, seed: int = 0):
    """22 features: continuous, small counts full of ties, and a constant."""
    rng = np.random.default_rng(seed)
    X = np.column_stack([
        rng.normal(size=(n, 10)),
        rng.poisson(1.5, size=(n, 10)).astype(float),
        rng.integers(0, 2, size=(n, 1)).astype(float),
        np.full((n, 1), 3.0),
    ])
    logit = X[:, 0] - 0.8 * X[:, 12] + 1.5 * X[:, 20] * X[:, 1] - 1.0
    y = (rng.random(n) < 1.0 / (1.0 + np.exp(-logit))).astype(float)
    return X, y


class TestWeightedBce:
    def test_perfect_prediction_near_zero(self):
        assert weighted_bce_mean([1 - 1e-12], [1], (1.0, 1.0)) == pytest.approx(0.0, abs=1e-9)

    def test_half_prediction_is_ln2(self):
        assert weighted_bce_mean([0.5], [1], (1.0, 1.0)) == pytest.approx(math.log(2), rel=1e-12)

    def test_weighting_equals_duplication(self):
        # Duplication oracle: weight 2 on a sample equals listing it twice
        # at weight 1, for the totals mean * n.
        preds = [0.8, 0.3]
        labels = [1, 0]
        weighted = weighted_bce_mean(preds, labels, (1.0, 2.0)) * 2
        duplicated = weighted_bce_mean([0.8, 0.8, 0.3], [1, 1, 0], (1.0, 1.0)) * 3
        assert weighted == pytest.approx(duplicated, rel=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            weighted_bce_mean([0.5, 0.5], [1], (1.0, 1.0))

    def test_mean_variant(self):
        preds, labels = [0.7, 0.4, 0.2], [1, 0, 0]
        total = -(0.5 * math.log(0.7) + 1.5 * math.log(0.6) + 1.5 * math.log(0.8))
        assert weighted_bce_mean(preds, labels, (1.5, 0.5)) == pytest.approx(total / 3, rel=1e-12)

    def test_total_on_clipped_extremes(self):
        assert math.isfinite(weighted_bce_mean([0.0, 1.0], [1, 0], (1.0, 1.0)) * 2)


def _gradient_check_problem(seed):
    rng = np.random.default_rng(seed)
    n, d = 12, 4
    X = rng.normal(size=(n, d))
    y = (rng.random(n) < 0.4).astype(float)
    theta = rng.normal(scale=0.5, size=d + 1)
    return theta, X, y, (0.7, 2.1)


class TestGradientCheck:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_analytic_matches_central_differences(self, seed):
        theta, X, y, weights = _gradient_check_problem(seed)
        _, grad, _ = _logistic_loss_grad(theta, X, y, weights)
        eps = 1e-6
        for j in range(len(theta)):
            step = np.zeros_like(theta)
            step[j] = eps
            hi, _, _ = _logistic_loss_grad(theta + step, X, y, weights)
            lo, _, _ = _logistic_loss_grad(theta - step, X, y, weights)
            numeric = (hi - lo) / (2 * eps)
            assert grad[j] == pytest.approx(numeric, rel=1e-5, abs=1e-8)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_hessian_matches_central_differences_of_gradient(self, seed):
        theta, X, y, weights = _gradient_check_problem(seed)
        _, _, hess = _logistic_loss_grad(theta, X, y, weights)
        assert hess == pytest.approx(hess.T, abs=1e-15)
        eps = 1e-6
        for j in range(len(theta)):
            step = np.zeros_like(theta)
            step[j] = eps
            _, hi, _ = _logistic_loss_grad(theta + step, X, y, weights)
            _, lo, _ = _logistic_loss_grad(theta - step, X, y, weights)
            numeric = (hi - lo) / (2 * eps)
            assert hess[:, j] == pytest.approx(numeric, rel=1e-5, abs=1e-8)


@functools.lru_cache(maxsize=None)
def _synth_train(seed: int):
    """Train arrays and class weights of a 100-session synth run."""
    result = synth_sessions(SynthConfig(n_sessions=100, seed=seed))
    split = stratified_split(records_from_events(result.events)[0])
    X, y = split_to_arrays(split.train)
    return X, y, class_weights(split.train)


def _scipy_optimum(X, y, weights):
    """BFGS on the same objective, written out here: mean weighted BCE plus
    LOGISTIC_L2 * ||w||^2 on standardized features, bias unpenalized."""
    std = X.std(axis=0)
    Xs = (X - X.mean(axis=0)) / np.where(std == 0.0, 1.0, std)
    w_vec = np.where(y == 1.0, weights[1], weights[0])

    def objective(theta):
        z = Xs @ theta[:-1] + theta[-1]
        # -ln sigmoid(z) for a positive, -ln(1 - sigmoid(z)) for a negative.
        loss = np.mean(w_vec * np.logaddexp(0.0, np.where(y == 1.0, -z, z)))
        residual = w_vec * (0.5 * (1.0 + np.tanh(0.5 * z)) - y)
        grad = np.append(Xs.T @ residual / len(y) + 2.0 * LOGISTIC_L2 * theta[:-1], residual.mean())
        return loss + LOGISTIC_L2 * theta[:-1] @ theta[:-1], grad

    scipy_optimize = pytest.importorskip("scipy.optimize")
    start = np.zeros(X.shape[1] + 1)
    return scipy_optimize.minimize(objective, start, jac=True, method="BFGS", options={"gtol": 1e-11}).x


def _theta(model):
    return np.array(model.parameters["weights"] + [model.parameters["bias"]])


class TestLogistic:
    def test_separable_1d_reaches_full_accuracy(self):
        X = np.array([[-2.0], [-1.5], [-1.0], [1.0], [1.5], [2.0]])
        y = np.array([0.0, 0.0, 0.0, 1.0, 1.0, 1.0])
        model = fit_logistic(X, y, (1.0, 1.0), feature_names=["x"])
        preds = predict_proba_batch(model, X)
        assert np.all((preds > 0.5) == (y == 1.0))

    def test_duplication_leaves_parameters_unchanged(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(20, 3))
        y = (X[:, 0] + 0.3 * rng.normal(size=20) > 0).astype(float)
        names = ["a", "b", "c"]
        base = fit_logistic(X, y, (1.0, 1.0), names)
        doubled = fit_logistic(
            np.vstack([X, X]), np.concatenate([y, y]), (1.0, 1.0), names
        )
        assert base.parameters["weights"] == pytest.approx(
            doubled.parameters["weights"], rel=1e-9, abs=1e-12
        )
        assert base.parameters["bias"] == pytest.approx(
            doubled.parameters["bias"], rel=1e-9, abs=1e-12
        )

    def test_standardization_invariance_to_affine_rescale(self):
        rng = np.random.default_rng(11)
        X = rng.normal(size=(60, 3))
        y = (X[:, 1] - 0.5 * X[:, 2] > 0).astype(float)
        names = ["a", "b", "c"]
        base = fit_logistic(X, y, (1.0, 1.0), names)
        scaled = X.copy()
        scaled[:, 1] = 1000.0 * scaled[:, 1] - 77.0
        rescaled_model = fit_logistic(scaled, y, (1.0, 1.0), names)
        probe = rng.normal(size=(10, 3))
        probe_scaled = probe.copy()
        probe_scaled[:, 1] = 1000.0 * probe_scaled[:, 1] - 77.0
        assert predict_proba_batch(base, probe) == pytest.approx(
            predict_proba_batch(rescaled_model, probe_scaled), abs=1e-9
        )

    def test_deterministic(self):
        X, y = xor_data(50, seed=3)
        a = fit_logistic(X, y, (1.0, 1.0), feature_names=["x0", "x1"])
        b = fit_logistic(X, y, (1.0, 1.0), feature_names=["x0", "x1"])
        assert a.parameters == b.parameters

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_scipy_optimum_on_synth(self, seed):
        X, y, weights = _synth_train(seed)
        model = fit_logistic(X, y, weights)
        assert _theta(model) == pytest.approx(_scipy_optimum(X, y, weights), abs=1e-6)

    @pytest.mark.parametrize("problem", ["separable-1d", "constant-column", "synth-seed-1"])
    def test_stops_after_few_loss_evaluations(self, problem, monkeypatch):
        # Near the optimum, loss differences are rounding noise; a stop rule
        # that keeps comparing losses there wanders for dozens of them.
        if problem == "separable-1d":
            X = np.array([[-2.0], [-1.5], [-1.0], [1.0], [1.5], [2.0]])
            y, weights = np.array([0.0, 0.0, 0.0, 1.0, 1.0, 1.0]), (1.0, 1.0)
        elif problem == "constant-column":
            rng = np.random.default_rng(0)
            X = np.column_stack([rng.normal(size=50), np.full(50, 3.0)])
            y, weights = (X[:, 0] + rng.normal(size=50) > 0).astype(float), (1.0, 1.0)
        else:
            X, y, weights = _synth_train(1)
        calls = []

        def counted(*args):
            calls.append(1)
            return _logistic_loss_grad(*args)

        monkeypatch.setattr(model_module, "_logistic_loss_grad", counted)
        model = fit_logistic(X, y, weights, feature_names=[f"f{j}" for j in range(X.shape[1])])
        assert len(calls) <= 20
        _, grad, _ = _logistic_loss_grad(_theta(model), (X - model.mean) / model.std, y, weights)
        assert np.abs(grad).max() < 1e-12
        if problem == "constant-column":
            assert model.parameters["weights"][1] == 0.0

    def test_non_finite_input_raises_divergence(self):
        X = np.array([[0.0], [1.0], [math.inf]])
        with np.errstate(invalid="ignore"), pytest.raises(Divergence) as excinfo:
            fit_logistic(X, np.array([0.0, 1.0, 1.0]), (1.0, 1.0), feature_names=["x"])
        assert "lr=" not in str(excinfo.value)


@pytest.mark.parametrize("label", [0.0, 1.0])
@pytest.mark.parametrize(
    "fit",
    [
        lambda X, y: fit_logistic(X, y, (1.0, 1.0), feature_names=["x0", "x1"]),
        lambda X, y: fit_tree_ensemble(X, y, (1.0, 1.0), TreeHyper(n_trees=20), ["x0", "x1"]),
    ],
    ids=["logistic", "tree"],
)
def test_one_class_labels_raise_single_class(fit, label):
    # Fitted, both models would walk their bias to the probability clip.
    X = np.random.default_rng(0).normal(size=(50, 2))
    with pytest.raises(SingleClass):
        fit(X, np.full(50, label))


class TestTreeEnsemble:
    def test_zero_trees_predicts_weighted_base_rate(self):
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([1.0, 0.0, 0.0, 0.0])
        weights = (1.0, 3.0)
        model = fit_tree_ensemble(X, y, weights, TreeHyper(n_trees=0), ["x"])
        expected = (3.0 * 1) / (3.0 * 1 + 1.0 * 3)
        assert predict_proba(model, [9.9]) == pytest.approx(expected, rel=1e-9)

    def test_xor_beats_logistic(self):
        from suggestgate.evaluation import roc_auc

        X, y = xor_data(400, seed=7)
        X_val, y_val = xor_data(200, seed=8)
        names = ["x0", "x1"]
        trees = fit_tree_ensemble(X, y, (1.0, 1.0), TreeHyper(n_trees=60), names)
        logistic = fit_logistic(X, y, (1.0, 1.0), feature_names=names)
        tree_auc = roc_auc(predict_proba_batch(trees, X_val), y_val)
        logistic_auc = roc_auc(predict_proba_batch(logistic, X_val), y_val)
        assert tree_auc > 0.95
        assert logistic_auc <= 0.6

    def test_stagewise_loss_non_increasing(self):
        X, y = xor_data(200, seed=9)
        weights = (1.0, 1.0)
        hyper = TreeHyper(n_trees=30, depth=3)
        model = fit_tree_ensemble(X, y, weights, hyper, ["x0", "x1"])
        # Recompute the staged losses from the stored trees, one stage more
        # each time.
        params = model.parameters
        losses = []
        for k in range(len(params["scale"]) + 1):
            first_k = dict(params, **{key: params[key][:k] for key in ("feature", "threshold", "leaf", "scale")})
            probs = predict_proba_batch(replace(model, parameters=first_k), X)
            losses.append(weighted_bce_mean(probs, y, weights))
        assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))

    def test_hand_built_stump(self):
        # One stage, depth 1: x <= 0 goes to leaf -2, x > 0 to leaf 1.
        model = AcceptanceModel(
            feature_names=("x",),
            mean=(0.0,),
            std=(1.0,),
            kind="tree_ensemble",
            parameters={
                "base_score": 0.0,
                "depth": 1,
                "feature": np.array([[0]]),
                "threshold": np.array([[0.0]]),
                "leaf": np.array([[-2.0, 1.0]]),
                "scale": np.array([1.0]),
            },
        )
        low = predict_proba(model, [-1.0])
        high = predict_proba(model, [1.0])
        assert low == pytest.approx(1 / (1 + math.exp(2.0)), rel=1e-12)
        assert high == pytest.approx(1 / (1 + math.exp(-1.0)), rel=1e-12)
        assert predict_proba(model, [0.0]) == low  # left iff x <= threshold

    def test_deterministic(self):
        X, y = xor_data(120, seed=1)
        hyper = TreeHyper(n_trees=10)
        a = fit_tree_ensemble(X, y, (1.0, 1.0), hyper, ["x0", "x1"])
        b = fit_tree_ensemble(X, y, (1.0, 1.0), hyper, ["x0", "x1"])
        assert a.parameters.keys() == b.parameters.keys()
        for key in a.parameters:
            np.testing.assert_array_equal(a.parameters[key], b.parameters[key])

    @pytest.mark.parametrize(
        "data, weights, hyper",
        [
            (xor_data(200, seed=9), (1.0, 1.0), TreeHyper(n_trees=30, depth=3)),
            (xor_data(60, seed=2), (0.7, 2.0), TreeHyper(n_trees=15, depth=5)),
            (telemetry_like_data(300, seed=4), (1.0, 3.0), TreeHyper(n_trees=20, depth=4)),
            (twin_column_data(120, seed=3), (1.0, 1.0), TreeHyper(n_trees=20, depth=3)),
            (xor_data(40, seed=5), (1.0, 1.5), TreeHyper(n_trees=10, depth=6)),
        ],
        ids=["xor", "xor-small-deep", "telemetry-22", "twin-columns", "depth-6-on-40-rows"],
    )
    def test_matches_reference_dict_trees_exactly(self, data, weights, hyper):
        X, y = data
        X_probe = np.vstack([X, X[::-1] + 0.05])
        names = [f"x{j}" for j in range(X.shape[1])]
        model = fit_tree_ensemble(X, y, weights, hyper, names)
        base_score, stages = _reference_ensemble(X, y, weights, hyper)
        params = model.parameters
        assert params["base_score"] == base_score
        np.testing.assert_array_equal(params["scale"], [scale for scale, _ in stages])
        for t, (_, root) in enumerate(stages):
            feature, threshold = _heap_splits(root, hyper.depth)
            np.testing.assert_array_equal(params["feature"][t], feature)
            np.testing.assert_array_equal(params["threshold"][t], threshold)
        Xs = (X_probe - np.asarray(model.mean)) / np.asarray(model.std)
        expected = _reference_predict(base_score, stages, Xs)
        np.testing.assert_array_equal(predict_proba_batch(model, X_probe), expected)
        rows = [predict_proba(model, x) for x in X_probe[:50]]
        np.testing.assert_array_equal(rows, expected[:50])

    def test_split_whose_midpoint_sends_every_row_left_is_a_leaf(self):
        # Column 0 holds 1+eps and 1+2eps; their midpoint rounds onto 1+2eps,
        # so its best split keeps every row on the left. Column 1's split
        # gains less, and the node becomes a leaf rather than taking it.
        eps = np.finfo(float).eps
        X = np.array([[1 + eps, 0.0], [1 + eps, 1.0], [1 + 2 * eps, 0.0], [1 + 2 * eps, 1.0]])
        g, h = np.array([1.0, 1.0, -1.0, -0.5]), np.ones(4)
        assert 0.5 * ((1 + eps) + (1 + 2 * eps)) == 1 + 2 * eps
        reference = _reference_fit_tree(X, g, h, np.arange(4), 2)
        assert set(reference) == {"value"}
        Xt = np.ascontiguousarray(X.T)
        order = np.argsort(Xt, axis=1, kind="stable")
        xs = np.take_along_axis(Xt, order, axis=1)
        gh = g.astype(complex)
        gh.imag = h
        feature, threshold, leaf, row_leaf = _grow_tree(
            Xt, (order, xs, np.flatnonzero(xs[:, :-1] < xs[:, 1:])), gh, 2
        )
        np.testing.assert_array_equal(feature, [0, 0, 0])
        np.testing.assert_array_equal(threshold, [0.0, 0.0, 0.0])
        np.testing.assert_array_equal(leaf, [reference["value"]] * 4)
        np.testing.assert_array_equal(row_leaf, [0, 0, 0, 0])


def _two_feature_model(kind: str) -> AcceptanceModel:
    """Logistic z = a + b, or one stump on ``a``: a <= 0 scores -2, else 1."""
    parameters = {"weights": [1.0, 1.0], "bias": 0.0} if kind == "logistic" else {
        "base_score": 0.0,
        "depth": 1,
        "feature": np.array([[0]]),
        "threshold": np.array([[0.0]]),
        "leaf": np.array([[-2.0, 1.0]]),
        "scale": np.array([1.0]),
    }
    return AcceptanceModel(feature_names=("a", "b"), mean=(0.0, 0.0), std=(1.0, 1.0),
                           kind=kind, parameters=parameters)


class TestPrediction:
    def test_probability_open_interval(self):
        X = np.array([[0.0], [1.0]])
        y = np.array([0.0, 1.0])
        model = fit_logistic(X, y, (1.0, 1.0), feature_names=["x"])
        for value in (-1e9, 0.0, 1e9):
            p = predict_proba(model, [value])
            assert 0.0 < p < 1.0

    def test_logit_ln3_gives_three_quarters(self):
        model = AcceptanceModel(
            feature_names=("x",),
            mean=(0.0,),
            std=(1.0,),
            kind="logistic",
            parameters={"weights": [0.0], "bias": math.log(3)},
        )
        assert predict_proba(model, [123.0]) == pytest.approx(0.75, rel=1e-12)

    def test_feature_mismatch(self):
        model = AcceptanceModel(
            feature_names=("a", "b"),
            mean=(0.0, 0.0),
            std=(1.0, 1.0),
            kind="logistic",
            parameters={"weights": [1.0, 1.0], "bias": 0.0},
        )
        with pytest.raises(FeatureMismatch):
            predict_proba(model, [1.0, 2.0, 3.0])

    @pytest.mark.parametrize("kind", ["logistic", "tree_ensemble"])
    @pytest.mark.parametrize("rows", [np.array, list], ids=["(2, n) array", "nested list"])
    def test_several_rows_raise_feature_mismatch(self, kind, rows):
        model = _two_feature_model(kind)
        with pytest.raises(FeatureMismatch):
            predict_proba(model, rows([[0.0, 0.0], [5.0, 5.0]]))
        assert predict_proba(model, np.array([[5.0, 5.0]])) == predict_proba(model, [5.0, 5.0])


# --- one logistic row in plain Python ------------------------------------
# predict_proba sums a logistic row in feature order; the batch path's BLAS
# sums in its own order, so the two agree only to within the rounding of a
# sum: 2(n+1) eps (|bias| + sum |term_i|) on z, times 0.25, the sigmoid's
# steepest slope, plus 2 eps for the sigmoid's own rounding at two
# different z.

_EPS = np.finfo(float).eps

_FORMS = {
    "FeatureVector": lambda v: FeatureVector(values=tuple(v)),
    "tuple": tuple,
    "list": list,
    "1-D array": np.array,
    "(1, n) array": lambda v: np.array([v]),
    "nested list": lambda v: [list(v)],
}


def _logistic_model(mean, std, weights, bias) -> AcceptanceModel:
    return AcceptanceModel(
        feature_names=tuple(f"f{i}" for i in range(len(mean))),
        mean=tuple(mean),
        std=tuple(std),
        kind="logistic",
        parameters={"weights": list(weights), "bias": bias},
    )


@st.composite
def _logistic_cases(draw, n):
    """A model and a finite vector; large weights and tiny stds reach the clip."""
    def vec(strategy):
        return draw(st.lists(strategy, min_size=n, max_size=n))
    mean = vec(st.floats(-1e3, 1e3))
    std = vec(st.floats(-10.0, 3.0).map(lambda e: 10.0**e))
    weights = vec(st.floats(-1e6, 1e6) | st.floats(-3.0, 3.0))
    x = vec(st.floats(-1e4, 1e4) | st.floats(-3.0, 3.0))
    return _logistic_model(mean, std, weights, draw(st.floats(-50.0, 50.0))), x


class TestLogisticRow:
    @pytest.mark.parametrize("form", _FORMS)
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_row_matches_batch_within_summation_bound(self, form, data):
        n = N_FEATURES if form == "FeatureVector" else data.draw(st.integers(1, 25))
        model, x = data.draw(_logistic_cases(n))
        terms = (np.array(x) - model.mean) / model.std * model.parameters["weights"]
        bias = model.parameters["bias"]
        bound = 0.25 * 2 * (n + 1) * _EPS * (abs(bias) + np.abs(terms).sum()) + 2 * _EPS
        row = predict_proba(model, _FORMS[form](x))
        batch = predict_proba_batch(model, np.array([x]))[0]
        assert _PROB_CLIP <= row <= 1.0 - _PROB_CLIP
        assert abs(row - batch) <= bound

    def test_exact_z_gives_bit_equal_probability(self):
        # mean 0, std 1, weight 1, bias 0: both paths compute z = x exactly,
        # so any difference comes from the sigmoid or the clip.
        model = _logistic_model([0.0], [1.0], [1.0], 0.0)
        grid = np.concatenate([np.linspace(-40.0, 40.0, 8001), np.geomspace(1e-12, 1.0, 200)])
        batch = predict_proba_batch(model, grid[:, None])
        rows = np.array([predict_proba(model, [z]) for z in grid.tolist()])
        np.testing.assert_array_equal(rows, batch)

    def test_numpy_float32_values_are_summed_in_float64(self):
        rng = np.random.default_rng(5)
        mean, weights = rng.normal(size=(2, N_FEATURES))
        std = rng.uniform(0.5, 2.0, N_FEATURES)
        model = _logistic_model(mean.tolist(), std.tolist(), weights.tolist(), 0.3)
        x = [np.float32(v) for v in rng.normal(size=N_FEATURES)]
        terms = (np.array(x, dtype=float) - mean) / std * weights
        bound = 0.25 * 2 * (N_FEATURES + 1) * _EPS * (0.3 + np.abs(terms).sum()) + 2 * _EPS
        batch = predict_proba_batch(model, np.array([x]))[0]
        assert abs(predict_proba(model, x) - batch) <= bound

    @pytest.mark.parametrize("form", ["1-D array", "(1, n) array", "nested list"])
    @settings(max_examples=50, deadline=None)
    @given(data=st.data())
    def test_forms_handed_on_score_bit_equal_to_batch(self, form, data):
        model, x = data.draw(_logistic_cases(data.draw(st.integers(1, 25))))
        x = _FORMS[form](x)
        assert predict_proba(model, x) == predict_proba_batch(model, x)[0]


# --- one tree-ensemble row ------------------------------------------------
# predict_proba tests every node of a tree row at once; predict_proba_batch
# walks each row's path. Both add the same stages in the same order, so
# their scores must be bit-equal.


def _random_trees(n_features: int, depth: int, n_trees: int, seed: int = 0) -> AcceptanceModel:
    """Trees with random splits, leaves and scales, and unit standardization."""
    rng = np.random.default_rng(seed)
    n_nodes = 2**depth - 1
    return AcceptanceModel(
        feature_names=tuple(f"f{i}" for i in range(n_features)),
        mean=(0.0,) * n_features,
        std=(1.0,) * n_features,
        kind="tree_ensemble",
        parameters={
            "base_score": float(rng.normal()),
            "depth": depth,
            "feature": rng.integers(0, n_features, size=(n_trees, n_nodes)),
            "threshold": rng.normal(size=(n_trees, n_nodes)),
            "leaf": rng.normal(size=(n_trees, n_nodes + 1)),
            "scale": rng.uniform(0.01, 0.2, size=n_trees),
        },
    )


def _tree_probes(model: AcceptanceModel, n_rows: int, seed: int = 1) -> np.ndarray:
    """Normal rows, half of them with some features set to a split's threshold."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n_rows, len(model.feature_names)))
    feature = np.asarray(model.parameters["feature"]).ravel()
    threshold = np.asarray(model.parameters["threshold"]).ravel()
    if feature.size:
        for row in X[: n_rows // 2]:
            at = rng.integers(0, feature.size, size=5)
            row[feature[at]] = threshold[at]  # a row equal to a threshold goes left
    return X


def _row_model(kind: str, n: int, weight: float = 1.0) -> AcceptanceModel:
    """Logistic with every weight ``weight``; or trees that read every feature,
    or, when ``weight`` is 0, only feature 0, as a zero weight ignores one."""
    if kind == "logistic":
        return _logistic_model([0.0] * n, [1.0] * n, [weight] * n, 0.0)
    model = _random_trees(n, 3, 40)
    if weight == 0.0:
        model = replace(model, parameters=dict(model.parameters, feature=np.zeros((40, 7), dtype=int)))
    return model


class TestTreeRow:
    @pytest.mark.parametrize("form", _FORMS)
    @pytest.mark.parametrize("depth", range(7))
    def test_row_is_bit_equal_to_batch(self, form, depth):
        model = _random_trees(N_FEATURES, depth, 30, seed=depth)
        X = _tree_probes(model, 60)
        batch = predict_proba_batch(model, X)
        rows = [predict_proba(model, _FORMS[form](x)) for x in X.tolist()]
        np.testing.assert_array_equal(rows, batch)
        assert depth == 0 or len(set(rows)) > 1  # the probes reach different leaves

    @pytest.mark.parametrize("form", _FORMS)
    @pytest.mark.parametrize("depth", [0, 4])
    def test_zero_stages_score_the_base(self, form, depth):
        model = _random_trees(N_FEATURES, depth, 0)
        X = _tree_probes(model, 5)
        expected = _clip_probs(_sigmoid(np.full(5, model.parameters["base_score"])))
        np.testing.assert_array_equal(predict_proba_batch(model, X), expected)
        np.testing.assert_array_equal([predict_proba(model, _FORMS[form](x)) for x in X.tolist()],
                                      expected)


@pytest.mark.parametrize("kind", ["logistic", "tree_ensemble"])
class TestRowRefusals:
    @pytest.mark.parametrize("form", _FORMS)
    @pytest.mark.parametrize("n", [N_FEATURES - 1, N_FEATURES + 1])
    def test_row_refuses_wrong_arity_like_batch(self, kind, form, n):
        model = _row_model(kind, n)
        x = _FORMS[form]([0.5] * N_FEATURES)
        for predict in (predict_proba, predict_proba_batch):
            with pytest.raises(FeatureMismatch):
                predict(model, x)

    @pytest.mark.parametrize("form", _FORMS)
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("weight", [1.0, 0.0])
    def test_row_refuses_non_finite_like_batch(self, kind, form, bad, weight):
        n = N_FEATURES
        model = _row_model(kind, n, weight)
        values = [0.5] * n
        values[7] = bad
        x = _FORMS[form](values)
        for predict in (predict_proba, predict_proba_batch):
            with pytest.raises(FeatureMismatch):
                predict(model, x)

    @pytest.mark.parametrize("form", _FORMS)
    @pytest.mark.parametrize("bad", ["a", "1.5", object(), None, 1 + 2j, 10**400],
                             ids=["str", "numeric str", "object", "None", "complex", "10**400"])
    def test_row_refuses_non_numeric_like_batch(self, kind, form, bad):
        model = _row_model(kind, N_FEATURES)
        values = [0.5] * N_FEATURES
        values[7] = bad
        x = _FORMS[form](values)
        for predict in (predict_proba, predict_proba_batch):
            with pytest.raises(FeatureMismatch):
                predict(model, x)

    @pytest.mark.parametrize("x", [0.5, np.float64(0.5), np.full((1, 1, N_FEATURES), 0.5)],
                             ids=["float", "numpy scalar", "(1, 1, n) array"])
    def test_row_refuses_what_is_not_rows_like_batch(self, kind, x):
        model = _row_model(kind, N_FEATURES)
        for predict in (predict_proba, predict_proba_batch):
            with pytest.raises(FeatureMismatch):
                predict(model, x)


def depth_disagrees(p, _):
    p["depth"] = 3


def depth_not_integer(p, _):
    p["depth"] = 2.0


def depth_negative(p, _):
    p["depth"] = -1


def feature_row_ragged(p, _):
    p["feature"][0].pop()


def leaf_width_wrong(p, _):
    p["leaf"] = [row[:-1] for row in p["leaf"]]


def threshold_transposed(p, _):
    p["threshold"] = [list(column) for column in zip(*p["threshold"])]


def scale_count_wrong(p, _):
    p["scale"].append(1.0)


def feature_fractional(p, _):
    p["feature"][1][0] = 0.5


def feature_negative(p, _):
    p["feature"][1][0] = -1


def feature_out_of_range(p, _):
    p["feature"][1][0] = 2


def threshold_nan(p, _):
    p["threshold"][0][1] = math.nan


def threshold_inf(p, _):
    p["threshold"][0][0] = math.inf


def leaf_nan(p, _):
    p["leaf"][2][3] = math.nan


def scale_inf(p, _):
    p["scale"][0] = math.inf


def base_score_nan(p, _):
    p["base_score"] = math.nan


def weights_nan(p, _):
    p["weights"][1] = math.nan


def bias_inf(p, _):
    p["bias"] = -math.inf


def bias_overflows(p, _):
    p["bias"] = 10**400  # a JSON integer too large for a float


def mean_numeric_str(_, payload):
    payload["standardization"]["mean"][0] = "0.5"


def weights_numeric_str(p, _):
    p["weights"][0] = "0.5"


def bias_numeric_str(p, _):
    p["bias"] = "0.5"


def base_score_numeric_str(p, _):
    p["base_score"] = "0.5"


def threshold_numeric_str(p, _):
    p["threshold"][0][0] = "0.5"


def leaf_numeric_str(p, _):
    p["leaf"][0][0] = "0.5"


def scale_numeric_str(p, _):
    p["scale"][0] = "0.5"


def _tau(value, kind):
    def corrupt(_, payload):
        payload["tau"] = value
    corrupt.__name__ = f"tau_{value!r}_{kind}"
    return corrupt


def std_zero(_, payload):
    payload["standardization"]["std"][0] = 0.0


def mean_nan(_, payload):
    payload["standardization"]["mean"][1] = math.nan


_CORRUPTIONS = [
    ("tree_ensemble", c)
    for c in (
        depth_disagrees, depth_not_integer, depth_negative, feature_row_ragged,
        leaf_width_wrong, threshold_transposed, scale_count_wrong, feature_fractional, feature_negative,
        feature_out_of_range, threshold_nan, threshold_inf, leaf_nan, scale_inf,
        base_score_nan, std_zero, base_score_numeric_str, threshold_numeric_str, leaf_numeric_str,
        scale_numeric_str,
    )
] + [
    ("logistic", c)
    for c in (weights_nan, bias_inf, bias_overflows, mean_nan, mean_numeric_str, weights_numeric_str,
              bias_numeric_str)
] + [(kind, _tau(tau, kind)) for kind in ("logistic", "tree_ensemble")
     for tau in (0.0, 1.0, 5.0, math.nan, "0.3")]


def _small_model(kind: str) -> AcceptanceModel:
    X, y = xor_data(100, seed=4)
    if kind == "logistic":
        return fit_logistic(X, y, (1.0, 1.0), feature_names=["x0", "x1"])
    return fit_tree_ensemble(X, y, (1.0, 1.0), TreeHyper(n_trees=4, depth=2), ["x0", "x1"])


class TestSerialization:
    def _models(self):
        X, y = xor_data(100, seed=4)
        names = ["x0", "x1"]
        yield fit_logistic(X, y, (0.8, 1.7), feature_names=names)
        yield fit_tree_ensemble(X, y, (0.8, 1.7), TreeHyper(n_trees=8), names)
        yield fit_tree_ensemble(X, y, (0.8, 1.7), TreeHyper(n_trees=0), names)

    def test_round_trip_predictions_bit_exact(self, tmp_path):
        X_probe, _ = xor_data(50, seed=6)
        for i, model in enumerate(self._models()):
            path = tmp_path / f"m{i}.json"
            save_model(model, path)
            loaded = load_model(path)
            original = predict_proba_batch(model, X_probe)
            restored = predict_proba_batch(loaded, X_probe)
            assert np.array_equal(original, restored)
            assert loaded.tau == model.tau

    def test_version_refusal(self, tmp_path):
        model = next(iter(self._models()))
        path = tmp_path / "m.json"
        save_model(model, path)
        import json

        payload = json.loads(path.read_text())
        payload["format_version"] = "someone-elses-format/9"
        path.write_text(json.dumps(payload))
        with pytest.raises(ModelFormatError):
            load_model(path)

    def test_feature_order_mismatch_refusal(self, tmp_path):
        model = next(iter(self._models()))
        path = tmp_path / "m.json"
        save_model(model, path)
        import json

        payload = json.loads(path.read_text())
        payload["feature_names"] = ["x0"]  # now inconsistent with weights
        path.write_text(json.dumps(payload))
        with pytest.raises(ModelFormatError):
            load_model(path)

    def test_refuses_format_1(self, tmp_path):
        model = next(iter(self._models()))
        path = tmp_path / "m.json"
        save_model(model, path)
        import json

        payload = json.loads(path.read_text())
        payload["format_version"] = "suggestgate-model/1"
        path.write_text(json.dumps(payload))
        with pytest.raises(ModelFormatError):
            load_model(path)

    @pytest.mark.parametrize("kind, corrupt", _CORRUPTIONS, ids=[c.__name__ for _, c in _CORRUPTIONS])
    def test_corrupt_file_refused(self, tmp_path, kind, corrupt):
        import json

        path = tmp_path / "m.json"
        save_model(_small_model(kind), path)
        payload = json.loads(path.read_text())
        load_model(path)  # the intact file loads
        corrupt(payload["parameters"], payload)
        path.write_text(json.dumps(payload))
        with pytest.raises(ModelFormatError):
            load_model(path)

    @pytest.mark.parametrize("kind, corrupt", _CORRUPTIONS, ids=[c.__name__ for _, c in _CORRUPTIONS])
    def test_corrupt_model_in_memory_fails_open(self, tmp_path, kind, corrupt):
        # The same corruptions, built by hand: construction accepts them, and
        # the model is then refused wherever it is used.
        model = _small_model(kind)
        fields = {
            "standardization": {"mean": list(model.mean), "std": list(model.std)},
            "parameters": {key: value.tolist() if isinstance(value, np.ndarray) else value
                           for key, value in model.parameters.items()},
            "tau": model.tau,
        }
        corrupt(fields["parameters"], fields)
        broken = AcceptanceModel(model.feature_names, tuple(fields["standardization"]["mean"]),
                                 tuple(fields["standardization"]["std"]), kind, fields["parameters"],
                                 fields["tau"])
        with pytest.raises(ModelFormatError):
            predict_proba(broken, [0.5, 0.5])
        decision = should_trigger(broken, [0.5, 0.5], 0.1)
        assert (decision.decision, decision.reason) == (Decision.TRIGGER, Reason.FAIL_OPEN)
        with pytest.raises(ModelFormatError):
            save_model(broken, tmp_path / "m.json")
        assert not (tmp_path / "m.json").exists()

    @pytest.mark.parametrize("kind", ["logistic", "tree_ensemble"])
    def test_parameters_are_read_once_at_construction(self, kind):
        model = _small_model(kind)
        X_probe, _ = xor_data(20, seed=6)
        rows = [predict_proba(model, x) for x in X_probe]
        batch = predict_proba_batch(model, X_probe)
        for value in model.parameters.values():
            if isinstance(value, np.ndarray):
                value[...] = 0
            elif isinstance(value, list):
                value[:] = [0.0] * len(value)
        model.parameters["bias" if kind == "logistic" else "base_score"] = 5.0
        assert [predict_proba(model, x) for x in X_probe] == rows
        np.testing.assert_array_equal(predict_proba_batch(model, X_probe), batch)

    @pytest.mark.parametrize("kind", ["logistic", "tree_ensemble"])
    def test_save_writes_the_parameters_the_model_scores_with(self, kind, tmp_path):
        model = _small_model(kind)
        model.parameters["bias" if kind == "logistic" else "base_score"] = math.nan
        save_model(model, tmp_path / "m.json")
        X_probe, _ = xor_data(20, seed=6)
        np.testing.assert_array_equal(predict_proba_batch(load_model(tmp_path / "m.json"), X_probe),
                                      predict_proba_batch(model, X_probe))

    def test_bool_numbers_load_as_in_a_row(self, tmp_path):
        import json

        model = _small_model("logistic")
        save_model(model, tmp_path / "m.json")
        payload = json.loads((tmp_path / "m.json").read_text())
        payload["parameters"]["bias"] = True
        (tmp_path / "m.json").write_text(json.dumps(payload))
        expected = replace(model, parameters=dict(model.parameters, bias=1.0))
        loaded = load_model(tmp_path / "m.json")
        assert predict_proba(loaded, [0.5, 0.5]) == predict_proba(expected, [0.5, 0.5])

    def test_numpy_tau_is_saved_as_the_float_it_checked(self, tmp_path):
        model = _small_model("logistic").with_tau(np.float32(0.25))
        save_model(model, tmp_path / "m.json")
        assert load_model(tmp_path / "m.json").tau == 0.25

    def test_tree_file_holds_the_six_format_parameters(self, tmp_path):
        import json

        save_model(_small_model("tree_ensemble"), tmp_path / "m.json")
        payload = json.loads((tmp_path / "m.json").read_text())
        assert payload["format_version"] == MODEL_FORMAT_VERSION == "suggestgate-model/2"
        assert set(payload["parameters"]) == {"base_score", "depth", "feature", "threshold", "leaf", "scale"}

    def test_not_json_refusal(self, tmp_path):
        path = tmp_path / "m.json"
        for text in ("definitely : not json", "[]", "null"):
            path.write_text(text)
            with pytest.raises(ModelFormatError):
                load_model(path)

    def test_format_version_constant(self):
        assert MODEL_FORMAT_VERSION.endswith("/2")
