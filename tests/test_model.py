from __future__ import annotations

import math

import numpy as np
import pytest

from suggestgate.errors import FeatureMismatch, LengthMismatch, ModelFormatError
from suggestgate.model import (
    MODEL_FORMAT_VERSION,
    AcceptanceModel,
    LogisticHyper,
    TreeHyper,
    _clip_probs,
    _logistic_loss_grad,
    _sigmoid,
    _tree_margin,
    fit_logistic,
    fit_tree_ensemble,
    load_model,
    predict_proba,
    predict_proba_batch,
    save_model,
    weighted_bce,
    weighted_bce_mean,
)


# --- reference trees ----------------------------------------------------
# The earlier implementation, kept as the oracle for the heap arrays: nested
# dict trees fitted with a per-node, per-feature argsort and walked node by
# node. The array fit must reproduce its splits and its scores exactly.

_REF_LAMBDA = 1e-6
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
        scale = hyper.lr
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
        assert weighted_bce([1 - 1e-12], [1], (1.0, 1.0)) == pytest.approx(0.0, abs=1e-9)

    def test_half_prediction_is_ln2(self):
        assert weighted_bce([0.5], [1], (1.0, 1.0)) == pytest.approx(math.log(2), rel=1e-12)

    def test_weighting_equals_duplication(self):
        # Duplication oracle: weight 2 on a sample equals listing it twice
        # at weight 1.
        preds = [0.8, 0.3]
        labels = [1, 0]
        weighted = weighted_bce(preds, labels, (1.0, 2.0))
        duplicated = weighted_bce([0.8, 0.8, 0.3], [1, 1, 0], (1.0, 1.0))
        assert weighted == pytest.approx(duplicated, rel=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            weighted_bce([0.5, 0.5], [1], (1.0, 1.0))

    def test_mean_variant(self):
        preds, labels = [0.7, 0.4, 0.2], [1, 0, 0]
        assert weighted_bce_mean(preds, labels, (1.5, 0.5)) == pytest.approx(
            weighted_bce(preds, labels, (1.5, 0.5)) / 3, rel=1e-12
        )

    def test_total_on_clipped_extremes(self):
        assert math.isfinite(weighted_bce([0.0, 1.0], [1, 0], (1.0, 1.0)))


class TestGradientCheck:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_analytic_matches_central_differences(self, seed):
        rng = np.random.default_rng(seed)
        n, d = 12, 4
        X = rng.normal(size=(n, d))
        y = (rng.random(n) < 0.4).astype(float)
        theta = rng.normal(scale=0.5, size=d + 1)
        weights = (0.7, 2.1)
        l2 = 1e-3
        _, grad = _logistic_loss_grad(theta, X, y, weights, l2)
        eps = 1e-6
        for j in range(d + 1):
            step = np.zeros_like(theta)
            step[j] = eps
            hi, _ = _logistic_loss_grad(theta + step, X, y, weights, l2)
            lo, _ = _logistic_loss_grad(theta - step, X, y, weights, l2)
            numeric = (hi - lo) / (2 * eps)
            assert grad[j] == pytest.approx(numeric, rel=1e-5, abs=1e-8)


class TestLogistic:
    def test_zero_epochs_predicts_half(self):
        X = np.array([[0.0], [1.0], [2.0]])
        y = np.array([0.0, 1.0, 1.0])
        model = fit_logistic(X, y, (1.0, 1.0), LogisticHyper(epochs=0), feature_names=["x"])
        assert predict_proba(model, [5.0]) == pytest.approx(0.5)

    def test_separable_1d_reaches_full_accuracy(self):
        X = np.array([[-2.0], [-1.5], [-1.0], [1.0], [1.5], [2.0]])
        y = np.array([0.0, 0.0, 0.0, 1.0, 1.0, 1.0])
        model = fit_logistic(X, y, (1.0, 1.0), LogisticHyper(epochs=400), feature_names=["x"])
        preds = predict_proba_batch(model, X)
        assert np.all((preds > 0.5) == (y == 1.0))

    def test_duplication_leaves_parameters_unchanged(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(20, 3))
        y = (X[:, 0] + 0.3 * rng.normal(size=20) > 0).astype(float)
        names = ["a", "b", "c"]
        hyper = LogisticHyper(epochs=150)
        base = fit_logistic(X, y, (1.0, 1.0), hyper, names)
        doubled = fit_logistic(
            np.vstack([X, X]), np.concatenate([y, y]), (1.0, 1.0), hyper, names
        )
        assert base.parameters["weights"] == pytest.approx(
            doubled.parameters["weights"], rel=1e-9, abs=1e-12
        )
        assert base.parameters["bias"] == pytest.approx(
            doubled.parameters["bias"], rel=1e-9, abs=1e-12
        )

    def test_training_loss_non_increasing(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(40, 2))
        y = (X[:, 0] > 0.2).astype(float)
        mean, std = X.mean(0), X.std(0)
        Xs = (X - mean) / std
        theta = np.zeros(3)
        lr = 8.0  # aggressive on purpose; halving must keep losses monotone
        losses = []
        loss, grad = _logistic_loss_grad(theta, Xs, y, (1.0, 1.0), 1e-4)
        losses.append(loss)
        for _ in range(60):
            cand = theta - lr * grad
            new_loss, new_grad = _logistic_loss_grad(cand, Xs, y, (1.0, 1.0), 1e-4)
            if new_loss > loss:
                lr *= 0.5
                losses.append(loss)
                continue
            theta, loss, grad = cand, new_loss, new_grad
            losses.append(loss)
        assert all(b <= a + 1e-15 for a, b in zip(losses, losses[1:]))

    def test_standardization_invariance_to_affine_rescale(self):
        rng = np.random.default_rng(11)
        X = rng.normal(size=(60, 3))
        y = (X[:, 1] - 0.5 * X[:, 2] > 0).astype(float)
        names = ["a", "b", "c"]
        hyper = LogisticHyper(epochs=200)
        base = fit_logistic(X, y, (1.0, 1.0), hyper, names)
        scaled = X.copy()
        scaled[:, 1] = 1000.0 * scaled[:, 1] - 77.0
        rescaled_model = fit_logistic(scaled, y, (1.0, 1.0), hyper, names)
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
        Xs = (X - np.asarray(model.mean)) / np.asarray(model.std)
        params = model.parameters
        losses = []
        for k in range(len(params["scale"]) + 1):
            first_k = dict(params, **{key: params[key][:k] for key in ("feature", "threshold", "leaf", "scale")})
            losses.append(weighted_bce_mean(_sigmoid(_tree_margin(first_k, Xs)), y, weights))
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
        ],
        ids=["xor", "xor-small-deep", "telemetry-22"],
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
        base_score_nan, std_zero,
    )
] + [("logistic", c) for c in (weights_nan, bias_inf, mean_nan)]


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

        X, y = xor_data(100, seed=4)
        if kind == "logistic":
            model = fit_logistic(X, y, (1.0, 1.0), feature_names=["x0", "x1"])
        else:
            model = fit_tree_ensemble(X, y, (1.0, 1.0), TreeHyper(n_trees=4, depth=2), ["x0", "x1"])
        path = tmp_path / "m.json"
        save_model(model, path)
        payload = json.loads(path.read_text())
        load_model(path)  # the intact file loads
        corrupt(payload["parameters"], payload)
        path.write_text(json.dumps(payload))
        with pytest.raises(ModelFormatError):
            load_model(path)

    def test_not_json_refusal(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text("definitely : not json")
        with pytest.raises(ModelFormatError):
            load_model(path)

    def test_format_version_constant(self):
        assert MODEL_FORMAT_VERSION.endswith("/2")
