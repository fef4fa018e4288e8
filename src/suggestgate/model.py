"""Acceptance classifier: weighted-BCE logistic reference and boosted trees.

Training is full-batch and deterministic; a trained model is an immutable
value object that serializes to versioned JSON and refuses to load when the
format does not match. Loading does not compare the stored feature names
with ``FEATURE_NAMES``; callers do that with ``require_feature_contract``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .errors import (
    Divergence,
    FeatureMismatch,
    LengthMismatch,
    ModelFormatError,
)
from .features import FEATURE_NAMES, FeatureVector

MODEL_FORMAT_VERSION = "suggestgate-model/2"

_PROB_CLIP = 1e-12
DEFAULT_TAU = 0.1


def _sigmoid(z):
    return 0.5 * (1.0 + np.tanh(0.5 * z))


def _clip_probs(p):
    # Same values as np.clip, at half its call overhead on a single row.
    return np.minimum(np.maximum(p, _PROB_CLIP), 1.0 - _PROB_CLIP)


def weighted_bce(preds, labels, weights: tuple[float, float]) -> float:
    """Total weighted binary cross-entropy (sum over samples).

    -sum_i w_{y_i} [y_i ln f_i + (1-y_i) ln(1-f_i)], with predictions
    clipped to [1e-12, 1-1e-12] so the loss is finite for any input.
    """
    preds = np.asarray(preds, dtype=float)
    labels = np.asarray(labels, dtype=float)
    if preds.shape != labels.shape:
        raise LengthMismatch(f"{preds.shape} predictions vs {labels.shape} labels")
    f = _clip_probs(preds)
    w = np.where(labels == 1.0, weights[1], weights[0])
    return float(-np.sum(w * (labels * np.log(f) + (1.0 - labels) * np.log(1.0 - f))))


def weighted_bce_mean(preds, labels, weights: tuple[float, float]) -> float:
    """Per-sample mean of the weighted BCE, for reporting and training."""
    n = len(np.asarray(preds))
    return weighted_bce(preds, labels, weights) / n


@dataclass(frozen=True)
class LogisticHyper:
    lr: float = 0.5
    epochs: int = 500
    l2: float = 1e-4


@dataclass(frozen=True)
class TreeHyper:
    n_trees: int = 200
    depth: int = 4
    lr: float = 0.1


@dataclass(frozen=True)
class AcceptanceModel:
    """Trained classifier artifact: feature contract, scaling, parameters, tau."""

    feature_names: tuple[str, ...]
    mean: tuple[float, ...]
    std: tuple[float, ...]
    kind: str  # "logistic" | "tree_ensemble"
    parameters: dict
    tau: float = DEFAULT_TAU

    def __post_init__(self) -> None:
        # Standardization as arrays, built once: every prediction needs them.
        object.__setattr__(self, "_mean", np.asarray(self.mean, dtype=float))
        object.__setattr__(self, "_std", np.asarray(self.std, dtype=float))

    def with_tau(self, tau: float) -> "AcceptanceModel":
        return replace(self, tau=tau)


def _standardization(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    mean = X.mean(axis=0)
    std = X.std(axis=0)
    std = np.where(std == 0.0, 1.0, std)
    return mean, std


def _standardize(X: np.ndarray, model: AcceptanceModel) -> np.ndarray:
    return (X - model._mean) / model._std


def split_to_arrays(records) -> tuple[np.ndarray, np.ndarray]:
    X = np.array([r.x for r in records], dtype=float)
    y = np.array([r.y for r in records], dtype=float)
    return X, y


# --- logistic ----------------------------------------------------------


def _logistic_loss_grad(
    theta: np.ndarray,
    X: np.ndarray,
    y: np.ndarray,
    weights: tuple[float, float],
    l2: float,
) -> tuple[float, np.ndarray]:
    """Mean weighted BCE plus l2*||w||^2 (bias unpenalized), with gradient."""
    n = X.shape[0]
    w_vec = np.where(y == 1.0, weights[1], weights[0])
    z = X @ theta[:-1] + theta[-1]
    p = _clip_probs(_sigmoid(z))
    loss = weighted_bce_mean(p, y, weights) + l2 * float(theta[:-1] @ theta[:-1])
    residual = w_vec * (p - y)
    grad = np.empty_like(theta)
    grad[:-1] = (X.T @ residual) / n + 2.0 * l2 * theta[:-1]
    grad[-1] = residual.mean()
    return loss, grad


def fit_logistic(
    X,
    y,
    weights: tuple[float, float],
    hyper: LogisticHyper = LogisticHyper(),
    feature_names: Sequence[str] = FEATURE_NAMES,
) -> AcceptanceModel:
    """Full-batch gradient descent on the weighted BCE from zero init.

    The learning rate halves whenever a step would increase the loss, so
    the recorded training loss is non-increasing across epochs.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    mean, std = _standardization(X)
    Xs = (X - mean) / std

    theta = np.zeros(X.shape[1] + 1)
    lr = hyper.lr
    loss, grad = _logistic_loss_grad(theta, Xs, y, weights, hyper.l2)
    for _ in range(hyper.epochs):
        candidate = theta - lr * grad
        new_loss, new_grad = _logistic_loss_grad(candidate, Xs, y, weights, hyper.l2)
        if not math.isfinite(new_loss):
            raise Divergence(f"loss became non-finite (lr={lr})")
        if new_loss > loss:
            lr *= 0.5
            continue
        theta, loss, grad = candidate, new_loss, new_grad

    return AcceptanceModel(
        feature_names=tuple(feature_names),
        mean=tuple(float(v) for v in mean),
        std=tuple(float(v) for v in std),
        kind="logistic",
        parameters={
            "weights": [float(v) for v in theta[:-1]],
            "bias": float(theta[-1]),
        },
    )


# --- gradient-boosted trees --------------------------------------------
#
# A tree is a complete depth-D heap: node k sends a row to 2k+1 iff
# x[feature] <= threshold, else to 2k+2; node 2^D - 1 + i is leaf i. A node
# that stopped early is padded with feature 0 and threshold 0.0, and every
# leaf below it holds its value.

_SPLIT_LAMBDA = 1e-6
_MIN_GAIN = 1e-12


def _best_split(
    Xt: np.ndarray, rows: np.ndarray, g: np.ndarray, h: np.ndarray, g_sum: float, h_sum: float
) -> tuple[int, float] | None:
    """Exact greedy split of one node over every feature at once.

    ``rows[j]`` lists the node's rows in ascending order of feature j, ties
    by row index. Ties in gain go to the first cut within a feature, then
    to the first feature; a split must beat ``_MIN_GAIN``.
    """
    xs = np.take_along_axis(Xt, rows, axis=1)
    gl = np.cumsum(g[rows], axis=1)[:, :-1]
    hl = np.cumsum(h[rows], axis=1)[:, :-1]
    gr = g_sum - gl
    hr = h_sum - hl
    gain = (
        gl * gl / (hl + _SPLIT_LAMBDA)
        + gr * gr / (hr + _SPLIT_LAMBDA)
        - g_sum * g_sum / (h_sum + _SPLIT_LAMBDA)
    )
    gain = np.where(xs[:, :-1] < xs[:, 1:], gain, -np.inf)
    pos = gain.argmax(axis=1)
    best = gain[np.arange(len(pos)), pos]
    j = int(best.argmax())
    if not best[j] > _MIN_GAIN:
        return None
    return j, float(0.5 * (xs[j, pos[j]] + xs[j, pos[j] + 1]))


def _grow_tree(
    Xt: np.ndarray, order: np.ndarray, g: np.ndarray, h: np.ndarray, depth: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Fit one tree level by level on the presorted columns ``order``.

    Returns the heap's feature, threshold and leaf arrays, and the leaf
    each training row landed in.
    """
    n_leaves = 2**depth
    feature = np.zeros(n_leaves - 1, dtype=np.intp)
    threshold = np.zeros(n_leaves - 1)
    leaf = np.empty(n_leaves)
    row_leaf = np.empty(Xt.shape[1], dtype=np.intp)
    # A node keeps its rows in index order too, so that its gradient sums
    # add the same terms in the same order whatever the path to it.
    level = [(0, np.arange(Xt.shape[1]), order)]
    for d in range(depth + 1):
        children = []
        for node, idx, rows in level:
            g_sum = float(g[idx].sum())
            h_sum = float(h[idx].sum())
            split = _best_split(Xt, rows, g, h, g_sum, h_sum) if d < depth and idx.size >= 2 else None
            if split is not None:
                goes_left = Xt[split[0]] <= split[1]
                mask = goes_left[idx]
            if split is None or mask.all():
                span = 2 ** (depth - d)
                first = (node + 1) * span - n_leaves
                leaf[first : first + span] = g_sum / (h_sum + _SPLIT_LAMBDA)
                row_leaf[idx] = first
                continue
            feature[node], threshold[node] = split
            # Boolean selection keeps each feature's order; reshape restores rows.
            in_left = goes_left[rows]
            children.append((2 * node + 1, idx[mask], rows[in_left].reshape(len(rows), -1)))
            children.append((2 * node + 2, idx[~mask], rows[~in_left].reshape(len(rows), -1)))
        level = children
    return feature, threshold, leaf, row_leaf


def fit_tree_ensemble(
    X,
    y,
    weights: tuple[float, float],
    hyper: TreeHyper = TreeHyper(),
    feature_names: Sequence[str] = FEATURE_NAMES,
) -> AcceptanceModel:
    """Stagewise boosting of depth-limited trees on the weighted log-loss.

    Each stage fits a tree to the negative gradient with Newton leaf
    values; a stage that would raise the training loss is shrunk (halved up
    to ten times) and dropped if it never helps, so the per-stage training
    loss is non-increasing.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    mean, std = _standardization(X)
    Xt = np.ascontiguousarray(((X - mean) / std).T)
    order = np.argsort(Xt, axis=1, kind="stable")
    w_vec = np.where(y == 1.0, weights[1], weights[0])

    base_rate = float(np.sum(w_vec * y) / np.sum(w_vec))
    base_rate = min(max(base_rate, _PROB_CLIP), 1.0 - _PROB_CLIP)
    base_score = math.log(base_rate / (1.0 - base_rate))

    scores = np.full(X.shape[0], base_score)
    loss = weighted_bce_mean(_sigmoid(scores), y, weights)
    stages = []
    for _ in range(hyper.n_trees):
        p = _clip_probs(_sigmoid(scores))
        g = w_vec * (y - p)
        h = w_vec * p * (1.0 - p)
        feature, threshold, leaf, row_leaf = _grow_tree(Xt, order, g, h, hyper.depth)
        step = leaf[row_leaf]
        scale = hyper.lr
        for _ in range(10):
            new_loss = weighted_bce_mean(_sigmoid(scores + scale * step), y, weights)
            if not math.isfinite(new_loss):
                raise Divergence("boosting loss became non-finite")
            if new_loss <= loss:
                stages.append((feature, threshold, leaf, scale))
                scores = scores + scale * step
                loss = new_loss
                break
            scale *= 0.5

    n_nodes = 2**hyper.depth - 1
    features, thresholds, leaves, scales = zip(*stages) if stages else ((), (), (), ())
    return AcceptanceModel(
        feature_names=tuple(feature_names),
        mean=tuple(float(v) for v in mean),
        std=tuple(float(v) for v in std),
        kind="tree_ensemble",
        parameters={
            "base_score": base_score,
            "depth": hyper.depth,
            "feature": np.array(features, dtype=np.intp).reshape(len(stages), n_nodes),
            "threshold": np.array(thresholds, dtype=float).reshape(len(stages), n_nodes),
            "leaf": np.array(leaves, dtype=float).reshape(len(stages), n_nodes + 1),
            "scale": np.array(scales, dtype=float),
        },
    )


# --- prediction --------------------------------------------------------


def _coerce_matrix(model: AcceptanceModel, x) -> np.ndarray:
    if isinstance(x, FeatureVector):
        x = x.values
    arr = np.asarray(x, dtype=float)
    if arr.ndim == 1:
        arr = arr[None, :]
    if arr.shape[1] != len(model.feature_names):
        raise FeatureMismatch(
            f"vector has {arr.shape[1]} features, model expects {len(model.feature_names)}"
        )
    # A tree sends NaN down the right branch and scores it like any value,
    # so non-finite input is refused here for every model kind.
    if not np.isfinite(arr).all():
        raise FeatureMismatch("vector has non-finite features")
    return arr


def _tree_margin(parameters: dict, Xs: np.ndarray) -> np.ndarray:
    """Ensemble logit: D gathers over all trees, then stages added in order."""
    feature = parameters["feature"]
    n_trees, n_nodes = feature.shape
    n_rows = Xs.shape[0]
    # Flat positions: node k of tree t is t*n_nodes + k, leaf i is
    # t*(n_nodes+1) + i, and feature j of row r is r*n_features + j.
    tree_at = np.arange(n_trees)[:, None] * n_nodes
    row_at = np.arange(n_rows) * Xs.shape[1]
    x, features, thresholds = Xs.ravel(), feature.ravel(), parameters["threshold"].ravel()
    node = np.zeros((n_trees, n_rows), dtype=np.intp)
    for _ in range(parameters["depth"]):
        at = tree_at + node
        node = 2 * node + 2 - (x[row_at + features[at]] <= thresholds[at])
    leaf = parameters["leaf"].ravel()[tree_at + np.arange(n_trees)[:, None] + node - n_nodes]
    stages = np.empty((n_trees + 1, n_rows))
    stages[0] = parameters["base_score"]
    np.multiply(parameters["scale"][:, None], leaf, out=stages[1:])
    # cumsum adds stage by stage, as boosting did; a pairwise sum would not.
    return np.cumsum(stages, axis=0)[-1]


def predict_proba_batch(model: AcceptanceModel, X) -> np.ndarray:
    Xs = _standardize(_coerce_matrix(model, X), model)
    if model.kind == "logistic":
        z = Xs @ np.asarray(model.parameters["weights"]) + model.parameters["bias"]
    elif model.kind == "tree_ensemble":
        z = _tree_margin(model.parameters, Xs)
    else:
        raise ModelFormatError(f"unknown model kind {model.kind!r}")
    return _clip_probs(_sigmoid(z))


def predict_proba(model: AcceptanceModel, x) -> float:
    """Predicted acceptance probability for one feature vector."""
    return float(predict_proba_batch(model, x)[0])


# --- serialization -----------------------------------------------------


def save_model(model: AcceptanceModel, path) -> None:
    payload = {
        "format_version": MODEL_FORMAT_VERSION,
        "kind": model.kind,
        "feature_names": list(model.feature_names),
        "standardization": {"mean": list(model.mean), "std": list(model.std)},
        "parameters": {
            key: value.tolist() if isinstance(value, np.ndarray) else value
            for key, value in model.parameters.items()
        },
        "tau": model.tau,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def _table(values, shape: tuple[int, int]) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    # An ensemble with no stages saves each table as [], which reads as shape (0,).
    if arr.shape != shape and not (arr.size == 0 and 0 in shape):
        raise ModelFormatError(f"tree table has shape {arr.shape}, expected {shape}")
    return arr.reshape(shape)


def _load_parameters(kind: str, raw: dict, n_features: int) -> dict:
    """Checked parameters of a model file, trees as numpy arrays."""
    if kind == "logistic":
        weights = [float(v) for v in raw["weights"]]
        bias = float(raw["bias"])
        if len(weights) != n_features:
            raise ModelFormatError("weight vector length does not match feature names")
        if not all(map(math.isfinite, weights + [bias])):
            raise ModelFormatError("logistic weights or bias are not finite")
        return {"weights": weights, "bias": bias}
    if kind != "tree_ensemble":
        raise ModelFormatError(f"unknown model kind {kind!r}")
    depth = raw["depth"]
    # 63 bounds the heap's node count to numpy's index range.
    if type(depth) is not int or not 0 <= depth < 63:
        raise ModelFormatError(f"tree depth must be an integer in [0, 63), got {depth!r}")
    base_score = float(raw["base_score"])
    scale = np.asarray(raw["scale"], dtype=float)
    if scale.ndim != 1:
        raise ModelFormatError(f"tree scales have shape {scale.shape}, expected one per tree")
    n_trees, n_nodes = len(scale), 2**depth - 1
    feature = _table(raw["feature"], (n_trees, n_nodes))
    threshold = _table(raw["threshold"], (n_trees, n_nodes))
    leaf = _table(raw["leaf"], (n_trees, n_nodes + 1))
    if not np.all((feature == np.floor(feature)) & (feature >= 0) & (feature < n_features)):
        raise ModelFormatError(f"tree feature index outside [0, {n_features})")
    if not (
        math.isfinite(base_score)
        and np.isfinite(scale).all()
        and np.isfinite(threshold).all()
        and np.isfinite(leaf).all()
    ):
        raise ModelFormatError("tree base score, scales, thresholds or leaves are not finite")
    return {
        "base_score": base_score,
        "depth": depth,
        "feature": feature.astype(np.intp),
        "threshold": threshold,
        "leaf": leaf,
        "scale": scale,
    }


def load_model(path) -> AcceptanceModel:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ModelFormatError(f"model file is not JSON: {exc}") from exc
    if payload.get("format_version") != MODEL_FORMAT_VERSION:
        raise ModelFormatError(
            f"unsupported model format {payload.get('format_version')!r}"
        )
    try:
        names = tuple(payload["feature_names"])
        mean = tuple(float(v) for v in payload["standardization"]["mean"])
        std = tuple(float(v) for v in payload["standardization"]["std"])
        kind = payload["kind"]
        tau = float(payload["tau"])
        if len(mean) != len(names) or len(std) != len(names):
            raise ModelFormatError("standardization length does not match feature names")
        if not all(map(math.isfinite, mean)) or not all(0.0 < s < math.inf for s in std):
            raise ModelFormatError("standardization has a non-finite mean or a std not in (0, inf)")
        parameters = _load_parameters(kind, payload["parameters"], len(names))
    except (KeyError, TypeError, ValueError) as exc:
        raise ModelFormatError(f"model file missing or malformed fields: {exc}") from exc
    if not 0.0 < tau < 1.0:
        raise ModelFormatError(f"tau must be in (0, 1), got {tau}")
    return AcceptanceModel(
        feature_names=names,
        mean=mean,
        std=std,
        kind=kind,
        parameters=parameters,
        tau=tau,
    )


def require_feature_contract(model: AcceptanceModel) -> None:
    """Refuse models whose feature order differs from this build's contract."""
    if tuple(model.feature_names) != FEATURE_NAMES:
        raise FeatureMismatch(
            "model feature order does not match the gate's feature contract"
        )
