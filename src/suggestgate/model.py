"""Acceptance classifier: weighted-BCE logistic reference and boosted trees.

Training is full-batch and deterministic: the logistic model is the optimum
of its l2-penalized loss (``LOGISTIC_L2``), and boosting shrinks each stage
by ``TREE_LR``. A trained model is an immutable value object that serializes
to versioned JSON and refuses to load when the format does not match.
Loading does not compare the stored feature names with ``FEATURE_NAMES``;
callers do that with ``require_feature_contract``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from typing import NamedTuple, Sequence

import numpy as np

from .errors import (
    Divergence,
    FeatureMismatch,
    LengthMismatch,
    ModelFormatError,
    SingleClass,
)
from .features import FEATURE_NAMES, FeatureVector

MODEL_FORMAT_VERSION = "suggestgate-model/2"

_PROB_CLIP = 1e-12
DEFAULT_TAU = 0.1
LOGISTIC_L2 = 1e-4  # on the weights, not the bias
TREE_LR = 0.1  # each boosting stage's shrinkage before its line search


def _sigmoid(z):
    return 0.5 * (1.0 + np.tanh(0.5 * z))


def _clip_probs(p):
    # Same values as np.clip, at half its call overhead on a single row.
    return np.minimum(np.maximum(p, _PROB_CLIP), 1.0 - _PROB_CLIP)


def weighted_bce_mean(preds, labels, weights: tuple[float, float]) -> float:
    """Per-sample mean of the weighted binary cross-entropy.

    -(1/n) sum_i w_{y_i} [y_i ln f_i + (1-y_i) ln(1-f_i)], with predictions
    clipped to [1e-12, 1-1e-12] so the loss is finite for any input.
    """
    preds = np.asarray(preds, dtype=float)
    labels = np.asarray(labels, dtype=float)
    if preds.shape != labels.shape:
        raise LengthMismatch(f"{preds.shape} predictions vs {labels.shape} labels")
    f = _clip_probs(preds)
    w = np.where(labels == 1.0, weights[1], weights[0])
    return float(-np.sum(w * (labels * np.log(f) + (1.0 - labels) * np.log(1.0 - f)))) / len(f)


@dataclass(frozen=True)
class TreeHyper:
    n_trees: int = 200
    depth: int = 4


@dataclass(frozen=True)
class AcceptanceModel:
    """Trained classifier artifact: feature contract, scaling, parameters, tau.

    Construction never raises: it checks the model once against the one
    contract (``_check``), fitted, loaded or built by hand, τ and every
    number included. Prediction on a model that breaks it raises
    ``ModelFormatError``, so the gate fails open, and ``save_model`` refuses
    it. Later changes to ``parameters`` do not change the scores.
    """

    feature_names: tuple[str, ...]
    mean: tuple[float, ...]
    std: tuple[float, ...]
    kind: str  # "logistic" | "tree_ensemble"
    parameters: dict
    tau: float = DEFAULT_TAU

    def __post_init__(self) -> None:
        try:
            checked = _check(self)
        except ModelFormatError as exc:
            checked = exc
        object.__setattr__(self, "_checked", checked)

    def with_tau(self, tau: float) -> "AcceptanceModel":
        return replace(self, tau=tau)


def _standardization(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    mean = X.mean(axis=0)
    std = X.std(axis=0)
    std = np.where(std == 0.0, 1.0, std)
    return mean, std


def _require_both_classes(y: np.ndarray) -> None:
    n_pos = int(np.count_nonzero(y == 1.0))
    if n_pos in (0, len(y)):
        raise SingleClass(f"both classes required, got {n_pos} positive / {len(y) - n_pos} negative")


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
) -> tuple[float, np.ndarray, np.ndarray]:
    """Mean weighted BCE plus LOGISTIC_L2*||w||^2 (bias unpenalized), with gradient and Hessian."""
    X1 = np.column_stack([X, np.ones(len(X))])
    w_vec = np.where(y == 1.0, weights[1], weights[0]) / len(X)  # the loss is a mean
    p = _clip_probs(_sigmoid(X1 @ theta))
    loss = weighted_bce_mean(p, y, weights) + LOGISTIC_L2 * float(theta[:-1] @ theta[:-1])
    penalty = np.append(np.full(len(theta) - 1, 2.0 * LOGISTIC_L2), 0.0)
    grad = X1.T @ (w_vec * (p - y)) + penalty * theta
    hess = (X1.T * (w_vec * p * (1.0 - p))) @ X1 + np.diag(penalty)
    return loss, grad, hess


def fit_logistic(
    X,
    y,
    weights: tuple[float, float],
    feature_names: Sequence[str] = FEATURE_NAMES,
) -> AcceptanceModel:
    """Minimize the mean weighted BCE plus ``LOGISTIC_L2``*||w||^2 by damped Newton steps.

    From zero, each Newton step is halved until it strictly lowers the loss.
    Once a step's predicted decrease is below one rounding of the loss,
    comparing losses is noise: that step is taken whole and the fit stops.
    It also stops when halving no longer moves the parameters. Labels of
    one class raise ``SingleClass``.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    _require_both_classes(y)
    mean, std = _standardization(X)
    Xs = (X - mean) / std

    theta = np.zeros(X.shape[1] + 1)
    loss, grad, hess = _logistic_loss_grad(theta, Xs, y, weights)
    while math.isfinite(loss):
        step = np.linalg.solve(hess, grad)
        if grad @ step <= 2.0 * np.finfo(float).eps * loss:
            theta = theta - step
            break
        while not np.array_equal(theta - step, theta):
            trial = _logistic_loss_grad(theta - step, Xs, y, weights)
            if trial[0] < loss or not math.isfinite(trial[0]):
                break
            step *= 0.5
        else:  # no halving moved theta
            break
        theta = theta - step
        loss, grad, hess = trial
    if not math.isfinite(loss):
        raise Divergence("logistic loss is non-finite; the training data may hold non-finite values")

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
# leaf below it holds its value. The fit is exact greedy search over columns
# sorted once per fit. Gains are taken only at cuts, where a feature's next
# value is larger, from one prefix sum of g + ih, bit-equal to two real ones.

_SPLIT_LAMBDA = 1e-6
_MIN_GAIN = 1e-12


def _best_split(
    rows: np.ndarray, xs: np.ndarray, cuts: np.ndarray, gh: np.ndarray, g_sum: float, h_sum: float
) -> tuple[int, float] | None:
    """Exact greedy split of one node over every feature at once.

    ``rows[j]`` lists the node's rows in ascending order of feature j, ties
    by row index, ``xs[j]`` their values, ``cuts`` the flat indices where
    ``xs[:, :-1] < xs[:, 1:]`` and ``gh`` g + ih per row. Ties in gain go to
    the first cut within a feature, then to the first feature; a split must
    beat ``_MIN_GAIN``.
    """
    left = gh.take(rows)
    left = np.cumsum(left, axis=1, out=left).ravel().take(cuts + cuts // (xs.shape[1] - 1))
    gl, hl = left.real, left.imag
    gr, hr = g_sum - gl, h_sum - hl
    gain = (
        gl * gl / (hl + _SPLIT_LAMBDA)
        + gr * gr / (hr + _SPLIT_LAMBDA)
        - g_sum * g_sum / (h_sum + _SPLIT_LAMBDA)
    )
    best = int(gain.argmax())
    if not gain[best] > _MIN_GAIN:
        return None
    j, k = divmod(int(cuts[best]), xs.shape[1] - 1)
    return j, float(0.5 * (xs[j, k] + xs[j, k + 1]))


def _grow_tree(
    Xt: np.ndarray, root: tuple, gh: np.ndarray, depth: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Fit one tree level by level from the root's ``rows, xs, cuts`` (``_best_split``).

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
    level = [(0, np.arange(Xt.shape[1]), *root)]
    for d in range(depth + 1):
        children = []
        for node, idx, rows, xs, cuts in level:
            g_sum = float(gh.real[idx].sum())
            h_sum = float(gh.imag[idx].sum())
            split = _best_split(rows, xs, cuts, gh, g_sum, h_sum) if d < depth and cuts.size else None
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
            sorts = [(None, None, None)] * 2  # children on the last level are leaves
            if d + 1 < depth:
                in_left = goes_left.take(rows).ravel()
                for i, at in enumerate((np.flatnonzero(in_left), np.flatnonzero(~in_left))):
                    r, x = (a.ravel().take(at).reshape(len(a), -1) for a in (rows, xs))
                    sorts[i] = r, x, np.flatnonzero(x[:, :-1] < x[:, 1:])
            children.append((2 * node + 1, idx[mask], *sorts[0]))
            children.append((2 * node + 2, idx[~mask], *sorts[1]))
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
    loss is non-increasing. Labels of one class raise ``SingleClass``.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    _require_both_classes(y)
    mean, std = _standardization(X)
    Xt = np.ascontiguousarray(((X - mean) / std).T)
    order = np.argsort(Xt, axis=1, kind="stable")
    xs = np.take_along_axis(Xt, order, axis=1)
    root = order, xs, np.flatnonzero(xs[:, :-1] < xs[:, 1:])
    w_vec = np.where(y == 1.0, weights[1], weights[0])

    base_rate = float(np.sum(w_vec * y) / np.sum(w_vec))
    base_rate = min(max(base_rate, _PROB_CLIP), 1.0 - _PROB_CLIP)
    base_score = math.log(base_rate / (1.0 - base_rate))

    scores = np.full(X.shape[0], base_score)
    loss = weighted_bce_mean(_sigmoid(scores), y, weights)
    stages = []
    for _ in range(hyper.n_trees):
        p = _clip_probs(_sigmoid(scores))
        gh = (w_vec * (y - p)).astype(complex)  # g + ih, each part exact
        gh.imag = w_vec * p * (1.0 - p)
        feature, threshold, leaf, row_leaf = _grow_tree(Xt, root, gh, hyper.depth)
        step = leaf[row_leaf]
        scale = TREE_LR
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


def _reals(values) -> np.ndarray:
    """A float copy of ``values``, or ``ValueError`` unless they are bool,
    integer or real numbers: ``np.array(values, dtype=float)`` and ``float``
    would parse numeric strings, and the former drop an imaginary part."""
    arr = np.array(values)
    if arr.dtype.kind not in "biuf":
        raise ValueError(f"values are not real numbers (dtype {arr.dtype})")
    return arr.astype(float, copy=False)


def _table(values, shape: tuple[int, int]) -> np.ndarray:
    arr = _reals(values)
    # An ensemble with no stages saves each table as [], which reads as shape (0,).
    if arr.shape != shape and not (arr.size == 0 and 0 in shape):
        raise ModelFormatError(f"tree table has shape {arr.shape}, expected {shape}")
    return arr.reshape(shape)


class _Trees(NamedTuple):
    """An ensemble compiled for prediction into flat tables.

    Node k of tree t sits at t*n_nodes + k in ``node_feature``,
    ``node_threshold`` and ``node_left``; leaf i of tree t at
    t*(n_nodes+1) + i in ``stage``, which holds scale × leaf, the product
    boosting added. ``node_left`` is the flat index of a node's left child,
    the right child being the next one, and a child on the last level is an
    index into ``stage``. ``root`` is each tree's first index, so a walk of
    ``depth`` steps from it ends on the tree's stage.
    """

    depth: int
    base_score: float
    root: np.ndarray
    node_feature: np.ndarray
    node_threshold: np.ndarray
    node_left: np.ndarray
    stage: np.ndarray


def _compile_trees(base_score: float, depth: int, feature: np.ndarray, threshold: np.ndarray,
                   leaf: np.ndarray, scale: np.ndarray) -> _Trees:
    n_trees, n_nodes = feature.shape
    tree = np.arange(n_trees)[:, None]
    at = np.arange(n_trees * n_nodes).reshape(n_trees, n_nodes)
    left = 2 * at + 1 - tree * n_nodes  # t*n_nodes + 2k + 1
    left = np.where(left < (tree + 1) * n_nodes, left, left + tree - n_nodes)
    # With depth 0 a tree's root is its one leaf.
    root = np.arange(n_trees) * (n_nodes or 1)
    return _Trees(depth, base_score, root, feature.ravel(), threshold.ravel(), left.ravel(),
                  (scale[:, None] * leaf).ravel())


def _check(model: AcceptanceModel) -> tuple[np.ndarray, np.ndarray, dict, tuple | _Trees]:
    """Mean, std, the kind's parameters as saved and as prediction reads
    them, all copied, or ``ModelFormatError``: one finite mean and std in
    (0, inf) per feature, τ in (0, 1), a known kind, and finite parameters
    whose shapes fit the features and depth. Every number is a bool, an
    integer or a real (``_reals``); a numeric string is refused.

    Logistic prediction reads (weights, bias, a (mean, std, weight) term
    per feature); trees read ``_Trees``, whose feature indices are whole
    and in [0, n_features).
    """
    try:
        n_features = len(model.feature_names)
        mean = _reals(model.mean)
        std = _reals(model.std)
        if not mean.shape == std.shape == (n_features,):
            raise ModelFormatError("standardization length does not match feature names")
        if not (np.isfinite(mean).all() and ((0.0 < std) & (std < math.inf)).all()):
            raise ModelFormatError("standardization has a non-finite mean or a std not in (0, inf)")
        if not 0.0 < float(_reals(model.tau)) < 1.0:
            raise ModelFormatError(f"tau must be in (0, 1), got {model.tau!r}")
        raw = model.parameters
        if model.kind == "logistic":
            weights = _reals(raw["weights"])
            bias = float(_reals(raw["bias"]))
            if weights.shape != (n_features,):
                raise ModelFormatError("weight vector length does not match feature names")
            if not (np.isfinite(weights).all() and math.isfinite(bias)):
                raise ModelFormatError("logistic weights or bias are not finite")
            terms = tuple(zip(mean.tolist(), std.tolist(), weights.tolist()))
            return mean, std, {"weights": weights, "bias": bias}, (weights, bias, terms)
        if model.kind != "tree_ensemble":
            raise ModelFormatError(f"unknown model kind {model.kind!r}")
        depth = raw["depth"]
        # 63 bounds the heap's node count to numpy's index range.
        if type(depth) is not int or not 0 <= depth < 63:
            raise ModelFormatError(f"tree depth must be an integer in [0, 63), got {depth!r}")
        base_score = float(_reals(raw["base_score"]))
        scale = _reals(raw["scale"])
        if scale.ndim != 1:
            raise ModelFormatError(f"tree scales have shape {scale.shape}, expected one per tree")
        n_trees, n_nodes = len(scale), 2**depth - 1
        feature = _table(raw["feature"], (n_trees, n_nodes))
        threshold = _table(raw["threshold"], (n_trees, n_nodes))
        leaf = _table(raw["leaf"], (n_trees, n_nodes + 1))
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ModelFormatError(f"model fields missing or malformed: {exc}") from exc
    if not np.all((feature == np.floor(feature)) & (feature >= 0) & (feature < n_features)):
        raise ModelFormatError(f"tree feature index outside [0, {n_features})")
    if not (math.isfinite(base_score) and all(np.isfinite(a).all() for a in (scale, threshold, leaf))):
        raise ModelFormatError("tree base score, scales, thresholds or leaves are not finite")
    feature = feature.astype(np.intp)
    saved = {"base_score": base_score, "depth": depth, "feature": feature,
             "threshold": threshold, "leaf": leaf, "scale": scale}
    return mean, std, saved, _compile_trees(**saved)


def _contract(model: AcceptanceModel) -> tuple[np.ndarray, np.ndarray, dict, tuple | _Trees]:
    """The model's ``_check`` result, or its ``ModelFormatError`` raised."""
    if isinstance(model._checked, ModelFormatError):
        # Without its old traceback: raising it as stored would grow it each time.
        raise model._checked.with_traceback(None)
    return model._checked


def _coerce_matrix(model: AcceptanceModel, x) -> np.ndarray:
    """The one rule for feature rows, on every path: one row or many of finite
    reals as wide as the model's features, as a float copy, or ``FeatureMismatch``."""
    if isinstance(x, FeatureVector):
        x = x.values
    try:
        arr = _reals(x)
    except (TypeError, ValueError):
        raise FeatureMismatch("vector is not rows of numbers") from None
    if arr.ndim == 1:
        arr = arr[None, :]
    if arr.ndim != 2 or arr.shape[1] != len(model.feature_names):
        raise FeatureMismatch(f"vector has shape {arr.shape}, not (rows, {len(model.feature_names)})")
    # A tree sends NaN down the right branch and scores it like any value,
    # so non-finite input is refused here for every model kind.
    if not np.isfinite(arr).all():
        raise FeatureMismatch("vector has non-finite features")
    return arr


def _add_stages(trees: _Trees, at: np.ndarray) -> np.ndarray:
    """Base score plus the stages at ``at``, one per tree (and row)."""
    stages = np.empty((len(at) + 1, *at.shape[1:]))
    stages[0] = trees.base_score
    trees.stage.take(at, out=stages[1:])
    # cumsum adds stage by stage, as boosting did; a pairwise sum would not.
    return np.cumsum(stages, axis=0, out=stages)[-1]


def _tree_margin(trees: _Trees, Xs: np.ndarray) -> np.ndarray:
    """Ensemble logit of many rows: each level gathers the nodes on each row's path."""
    row_at = np.arange(Xs.shape[0]) * Xs.shape[1]  # feature j of row r is r*n_features + j
    x = Xs.ravel()
    at = np.broadcast_to(trees.root[:, None], (len(trees.root), Xs.shape[0]))
    for _ in range(trees.depth):
        at = trees.node_left[at] + (x[row_at + trees.node_feature[at]] > trees.node_threshold[at])
    return _add_stages(trees, at)


def _tree_row_margin(trees: _Trees, xs: np.ndarray) -> np.ndarray:
    """Ensemble logit of one row: every node tested at once, then one gather a level.

    At 200 trees of depth 4 on a shared 2-core machine, one row takes
    14-18 µs here and 33-38 µs in ``_tree_margin``. Testing every node of
    360 or 1130 rows took 4-6 times the walk's time and 7 times its peak
    memory (54 MB against 7.5 MB at 1130 rows), so only a row does it.
    """
    child = trees.node_left + (xs.take(trees.node_feature) > trees.node_threshold)
    at = trees.root
    for _ in range(trees.depth):
        at = child.take(at)
    return _add_stages(trees, at)


def _row_probability(z: float) -> float:
    # np.tanh, not math.tanh, inside _sigmoid: the two differ in the last bit.
    p = float(_sigmoid(z))
    return min(max(p, _PROB_CLIP), 1.0 - _PROB_CLIP)


def predict_proba_batch(model: AcceptanceModel, X) -> np.ndarray:
    mean, std, _, compiled = _contract(model)
    Xs = (_coerce_matrix(model, X) - mean) / std
    if model.kind == "logistic":
        weights, bias, _ = compiled
        z = Xs @ weights + bias
    else:
        z = _tree_margin(compiled, Xs)
    return _clip_probs(_sigmoid(z))


def predict_proba(model: AcceptanceModel, x) -> float:
    """Predicted acceptance probability for one feature vector.

    A model that broke the contract at construction raises
    ``ModelFormatError``, whatever the vector. A vector is one row of what
    ``predict_proba_batch`` takes and is refused only as the batch refuses
    it, by ``_coerce_matrix``; more than one row raises ``FeatureMismatch``.
    A logistic model sums a tuple, a list or a ``FeatureVector`` in plain
    Python, cheaper than numpy on one row, to within the rounding of a
    differently ordered sum of the batch. Any other input, or a sum that is
    not a finite float, takes the tree row's path: ``_coerce_matrix``, then
    the kind's margin, bit-equal to the batch. A tree row tests every node
    in one compare, then descends with one gather per level.
    """
    mean, std, _, compiled = _contract(model)
    if model.kind == "logistic":
        weights, bias, terms = compiled
        values = x.values if isinstance(x, FeatureVector) else x
        if isinstance(values, (tuple, list)) and len(values) == len(terms):
            z = 0.0
            try:
                for value, (mu, sigma, weight) in zip(values, terms):
                    z += (value - mu) / sigma * weight
            except (TypeError, OverflowError):
                z = math.nan
            # Numpy scalars and non-finite features are the batch's to score or refuse.
            if type(z) is float and math.isfinite(z):
                return _row_probability(z + bias)
    X = _coerce_matrix(model, x)
    if len(X) != 1:
        raise FeatureMismatch(f"expected one vector, got {len(X)} rows")
    if model.kind == "logistic":
        return _row_probability(float((((X - mean) / std) @ weights + bias)[0]))
    return _row_probability(float(_tree_row_margin(compiled, (X[0] - mean) / std)))


# --- serialization -----------------------------------------------------


def save_model(model: AcceptanceModel, path) -> None:
    """Write the model's checked copies as JSON, so the file scores as the model
    does; a model that broke the contract raises ``ModelFormatError``."""
    mean, std, parameters, _ = _contract(model)
    payload = {
        "format_version": MODEL_FORMAT_VERSION,
        "kind": model.kind,
        "feature_names": list(model.feature_names),
        "standardization": {"mean": mean.tolist(), "std": std.tolist()},
        "parameters": {
            key: value.tolist() if isinstance(value, np.ndarray) else value
            for key, value in parameters.items()
        },
        "tau": float(model.tau),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def load_model(path) -> AcceptanceModel:
    """Read a model file; another version or a broken contract, τ and every
    number checked by ``_check``, raise ``ModelFormatError``."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ModelFormatError(f"model file is not JSON: {exc}") from exc
    version = payload.get("format_version") if isinstance(payload, dict) else None
    if version != MODEL_FORMAT_VERSION:
        raise ModelFormatError(f"unsupported model format {version!r}")
    try:
        model = AcceptanceModel(
            feature_names=tuple(payload["feature_names"]),
            mean=tuple(payload["standardization"]["mean"]),
            std=tuple(payload["standardization"]["std"]),
            kind=payload["kind"],
            parameters=payload["parameters"],
            tau=payload["tau"],
        )
    except (KeyError, TypeError) as exc:
        raise ModelFormatError(f"model file missing or malformed fields: {exc}") from exc
    _contract(model)
    return model


def require_feature_contract(model: AcceptanceModel) -> None:
    """Refuse models whose feature order differs from this build's contract."""
    if tuple(model.feature_names) != FEATURE_NAMES:
        raise FeatureMismatch(
            "model feature order does not match the gate's feature contract"
        )
