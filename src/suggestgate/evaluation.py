"""Classifier metric suite, confusion analysis at tau, permutation importance."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import NoPositives, SingleClass
from .model import AcceptanceModel, predict_proba_batch


def _validate_pair(scores, labels) -> tuple[np.ndarray, np.ndarray]:
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels, dtype=float)
    if scores.shape != labels.shape or scores.ndim != 1:
        raise ValueError("scores and labels must be 1-D and the same length")
    return scores, labels


def roc_auc(scores, labels) -> float:
    """Probability a random positive outranks a random negative; ties 0.5.

    Computed from tie-averaged ranks, which agrees exactly with exhaustive
    pair counting.
    """
    scores, labels = _validate_pair(scores, labels)
    n_pos = int(labels.sum())
    n_neg = labels.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise SingleClass("ROC-AUC requires both classes")
    distinct, counts = np.unique(scores, return_counts=True)
    starts = np.concatenate(([0.0], np.cumsum(counts)[:-1].astype(float)))
    group_rank = starts + (counts + 1) / 2.0
    ranks = group_rank[np.searchsorted(distinct, scores)]
    rank_sum = float(ranks[labels == 1.0].sum())
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def pr_auc(scores, labels) -> float:
    """Average precision: sum of precision at each recall step.

    Tied scores form one threshold group, so the value is well defined
    under ties.
    """
    scores, labels = _validate_pair(scores, labels)
    n_pos = int(labels.sum())
    if n_pos == 0:
        raise NoPositives("average precision requires at least one positive")
    order = np.argsort(-scores, kind="stable")
    sorted_scores = scores[order]
    sorted_labels = labels[order]
    cum_tp = np.cumsum(sorted_labels)
    cum_n = np.arange(1, labels.size + 1)
    # Last index of each tie group marks one threshold.
    group_end = np.nonzero(
        np.concatenate((sorted_scores[1:] != sorted_scores[:-1], [True]))
    )[0]
    tp = cum_tp[group_end]
    precision = tp / cum_n[group_end]
    delta_tp = np.diff(np.concatenate(([0.0], tp)))
    return float(np.sum(delta_tp * precision) / n_pos)


@dataclass(frozen=True)
class Confusion:
    tp: int
    fp: int
    tn: int
    fn: int

    @property
    def n(self) -> int:
        return self.tp + self.fp + self.tn + self.fn


def balanced_accuracy(c: Confusion) -> float:
    tpr = c.tp / (c.tp + c.fn) if c.tp + c.fn else 0.0
    tnr = c.tn / (c.tn + c.fp) if c.tn + c.fp else 0.0
    return 0.5 * (tpr + tnr)


def mcc(c: Confusion) -> float:
    denom = (
        (c.tp + c.fp) * (c.tp + c.fn) * (c.tn + c.fp) * (c.tn + c.fn)
    )
    if denom == 0:
        return 0.0
    return (c.tp * c.tn - c.fp * c.fn) / math.sqrt(denom)


def kappa(c: Confusion) -> float:
    n = c.n
    if n == 0:
        return 0.0
    po = (c.tp + c.tn) / n
    pe = ((c.tp + c.fp) * (c.tp + c.fn) + (c.fn + c.tn) * (c.fp + c.tn)) / (n * n)
    if pe == 1.0:
        return 0.0
    return (po - pe) / (1.0 - pe)


def brier(scores, labels) -> float:
    scores, labels = _validate_pair(scores, labels)
    return float(np.mean((scores - labels) ** 2))


@dataclass(frozen=True)
class ConfusionReport:
    confusion: Confusion
    precision_accepted: float
    recall_accepted: float
    precision_rejected: float
    recall_rejected: float


def confusion_at(scores, labels, tau: float) -> ConfusionReport:
    """Confusion and per-class precision/recall for the rule score > tau."""
    scores, labels = _validate_pair(scores, labels)
    pred = scores > tau
    actual = labels == 1.0
    c = Confusion(
        tp=int(np.sum(pred & actual)),
        fp=int(np.sum(pred & ~actual)),
        tn=int(np.sum(~pred & ~actual)),
        fn=int(np.sum(~pred & actual)),
    )
    return ConfusionReport(
        confusion=c,
        precision_accepted=c.tp / (c.tp + c.fp) if c.tp + c.fp else 0.0,
        recall_accepted=c.tp / (c.tp + c.fn) if c.tp + c.fn else 0.0,
        precision_rejected=c.tn / (c.tn + c.fn) if c.tn + c.fn else 0.0,
        recall_rejected=c.tn / (c.tn + c.fp) if c.tn + c.fp else 0.0,
    )


@dataclass(frozen=True)
class MetricReport:
    roc_auc: float
    pr_auc: float
    balanced_accuracy: float
    mcc: float
    kappa: float
    brier: float
    tau: float
    confusion: Confusion
    precision_accepted: float
    recall_accepted: float
    precision_rejected: float
    recall_rejected: float


def compute_metric_report(scores, labels, tau: float) -> MetricReport:
    scores, labels = _validate_pair(scores, labels)
    at_tau = confusion_at(scores, labels, tau)
    return MetricReport(
        roc_auc=roc_auc(scores, labels),
        pr_auc=pr_auc(scores, labels),
        balanced_accuracy=balanced_accuracy(at_tau.confusion),
        mcc=mcc(at_tau.confusion),
        kappa=kappa(at_tau.confusion),
        brier=brier(scores, labels),
        tau=tau,
        confusion=at_tau.confusion,
        precision_accepted=at_tau.precision_accepted,
        recall_accepted=at_tau.recall_accepted,
        precision_rejected=at_tau.precision_rejected,
        recall_rejected=at_tau.recall_rejected,
    )


def bootstrap_std(
    metric: Callable[[np.ndarray, np.ndarray], float],
    scores,
    labels,
    n_resamples: int = 1000,
    seed: int = 0,
) -> float:
    """Std. dev. of a metric over bootstrap resamples (degenerate draws
    skipped). Fewer than two draws holding both classes, as with labels of
    one class, raise ``SingleClass``."""
    scores, labels = _validate_pair(scores, labels)
    rng = np.random.default_rng(seed)
    values = []
    for _ in range(n_resamples):
        idx = rng.integers(0, labels.size, size=labels.size)
        resampled = labels[idx]
        if resampled.sum() in (0, resampled.size):
            continue
        values.append(metric(scores[idx], resampled))
    if len(values) < 2:
        raise SingleClass(f"{len(values)} of {n_resamples} bootstrap draws held both classes; "
                          "the std needs two")
    return float(np.std(values, ddof=1))


def permutation_importance(
    model: AcceptanceModel,
    X,
    y,
    repeats: int = 5,
    seed: int = 0,
) -> list[tuple[str, float]]:
    """Mean ROC-AUC drop per feature when its column is shuffled.

    Deterministic: repeat r draws its permutations from a child generator
    spawned from the master seed. Returns (feature, mean drop) ranked by
    drop, largest first.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.shape[0] < 50:
        raise ValueError(f"permutation importance needs >= 50 records, got {X.shape[0]}")
    baseline = roc_auc(predict_proba_batch(model, X), y)
    drops = np.zeros(X.shape[1])
    children = np.random.SeedSequence(seed).spawn(repeats)
    for child in children:
        rng = np.random.default_rng(child)
        for j in range(X.shape[1]):
            shuffled = X.copy()
            shuffled[:, j] = shuffled[rng.permutation(X.shape[0]), j]
            drops[j] += baseline - roc_auc(predict_proba_batch(model, shuffled), y)
    drops /= repeats
    return sorted(zip(model.feature_names, drops.tolist()), key=lambda item: -item[1])
