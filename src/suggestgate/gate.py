"""Threshold selection and the runtime trigger/suppress decision."""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import NoPositives
from .evaluation import _validate_pair, confusion_at
from .model import AcceptanceModel, predict_proba, predict_proba_batch, split_to_arrays

#: Candidate operating thresholds: 0.01, 0.02, ..., 0.50.
TAU_GRID = tuple(round(0.01 * i, 2) for i in range(1, 51))

DEFAULT_RECALL_FLOOR = 0.95


class Decision(str, Enum):
    TRIGGER = "Trigger"
    SUPPRESS = "Suppress"


class Reason(str, Enum):
    ABOVE_THRESHOLD = "AboveThreshold"
    BELOW_THRESHOLD = "BelowThreshold"
    FAIL_OPEN = "FailOpen"


@dataclass(frozen=True)
class GateDecision:
    decision: Decision
    p_accept: float
    tau: float
    reason: Reason


@dataclass(frozen=True)
class ThresholdSelection:
    tau: float
    recall_accepted: float
    precision_accepted: float
    #: False when no grid point met the recall floor and the fallback 0.01
    #: was returned.
    satisfied_floor: bool


def select_threshold_from_scores(
    scores,
    labels,
    recall_floor: float = DEFAULT_RECALL_FLOOR,
) -> ThresholdSelection:
    """Largest grid tau whose accepted-class recall stays at or above the floor.

    Recall is non-increasing in tau, so the answer is unique; when even the
    smallest grid point misses the floor, 0.01 is returned flagged.
    """
    labels = np.asarray(labels, dtype=float)
    if not np.any(labels == 1.0):
        raise NoPositives("threshold selection requires accepted records")
    scores, labels = _validate_pair(scores, labels)
    positives = scores[labels == 1.0]
    # Recall at every grid tau from one sort: a positive counts as recalled
    # iff its score is above tau, which a NaN score never is.
    missed = np.searchsorted(np.sort(positives), TAU_GRID, side="right")
    missed += np.count_nonzero(np.isnan(positives))
    meets = np.flatnonzero((positives.size - missed) / positives.size >= recall_floor)
    tau = TAU_GRID[meets[-1]] if meets.size else TAU_GRID[0]
    report = confusion_at(scores, labels, tau)
    return ThresholdSelection(
        tau=tau,
        recall_accepted=report.recall_accepted,
        precision_accepted=report.precision_accepted,
        satisfied_floor=bool(meets.size),
    )


def select_threshold(
    model: AcceptanceModel,
    validation,
    recall_floor: float = DEFAULT_RECALL_FLOOR,
) -> ThresholdSelection:
    """Tune tau on a validation record set using the model's scores."""
    X, y = split_to_arrays(validation)
    return select_threshold_from_scores(
        predict_proba_batch(model, X), y, recall_floor
    )


def should_trigger(model: AcceptanceModel, x, tau: float) -> GateDecision:
    """Trigger iff the predicted acceptance probability clears tau.

    Fail-open contract: any internal prediction error, a non-finite feature,
    a NaN probability or a tau outside (0, 1) yields Trigger with reason
    FailOpen rather than surfacing to the caller — a filter bug must never
    silently block all suggestions.
    """
    try:
        if not 0.0 < tau < 1.0:
            raise ValueError(f"tau must be in (0, 1), got {tau}")
        p = predict_proba(model, x)
    except Exception:
        p = math.nan
    if p > tau:
        return GateDecision(Decision.TRIGGER, p, tau, Reason.ABOVE_THRESHOLD)
    if p <= tau:
        return GateDecision(Decision.SUPPRESS, p, tau, Reason.BELOW_THRESHOLD)
    # NaN compares false both ways: an error, or finite features whose
    # standardized terms overflow to inf and -inf.
    return GateDecision(Decision.TRIGGER, 1.0, tau, Reason.FAIL_OPEN)
