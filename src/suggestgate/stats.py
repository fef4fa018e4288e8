"""Proportion statistics for before/after acceptance comparisons.

Wilson score intervals, the pooled two-proportion z test, Fisher's exact
test, risk ratio, and odds ratio. Tail probabilities are computed in log
space so p-values far below float underflow remain distinguishable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist

from .errors import DegeneratePool, DivisionByZeroCell, InvalidCounts

_SQRT2 = math.sqrt(2.0)
_LOG10 = math.log(10.0)


@dataclass(frozen=True)
class TwoByTwo:
    """Accepted/total counts for two independent periods."""

    k1: int
    n1: int
    k2: int
    n2: int

    def __post_init__(self) -> None:
        for k, n in ((self.k1, self.n1), (self.k2, self.n2)):
            if n < 1:
                raise InvalidCounts(f"total must be >= 1, got {n}")
            if not 0 <= k <= n:
                raise InvalidCounts(f"need 0 <= k <= n, got k={k}, n={n}")


@dataclass(frozen=True)
class TailProbability:
    """A two-sided p-value carried both as a float and as log10."""

    p_value: float
    log10_p: float


@dataclass(frozen=True)
class ZTestResult:
    z: float
    p_value: float
    log10_p: float


def norm_sf(z: float) -> float:
    """Upper tail of the standard normal."""
    return 0.5 * math.erfc(z / _SQRT2)


def log_norm_sf(z: float) -> float:
    """ln of the upper normal tail, stable for arbitrarily large z."""
    if z < 30.0:
        return math.log(norm_sf(z))
    # Asymptotic Mills-ratio expansion; truncation error is below 1e-13
    # relative at the switch point.
    z2 = z * z
    series = 1.0
    term = 1.0
    for i in range(1, 7):
        term *= -(2 * i - 1) / z2
        series += term
    return -0.5 * z2 - math.log(z) - 0.5 * math.log(2.0 * math.pi) + math.log(series)


def norm_quantile(p: float) -> float:
    """Inverse standard-normal CDF."""
    if not 0.0 < p < 1.0:
        raise ValueError(f"quantile requires 0 < p < 1, got {p}")
    return NormalDist().inv_cdf(p)


def wilson_interval(k: int, n: int, confidence: float = 0.95) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
    if n < 1 or not 0 <= k <= n:
        raise InvalidCounts(f"need 0 <= k <= n, n >= 1; got k={k}, n={n}")
    z = norm_quantile(0.5 + confidence / 2.0)
    z2 = z * z
    phat = k / n
    denom = 1.0 + z2 / n
    center = (phat + z2 / (2.0 * n)) / denom
    half = z * math.sqrt(phat * (1.0 - phat) / n + z2 / (4.0 * n * n)) / denom
    lo = 0.0 if k == 0 else max(0.0, center - half)
    hi = 1.0 if k == n else min(1.0, center + half)
    return lo, hi


def two_proportion_z(t: TwoByTwo) -> ZTestResult:
    """Pooled-variance z test for p2 - p1 with a two-sided normal tail."""
    pooled = (t.k1 + t.k2) / (t.n1 + t.n2)
    if pooled <= 0.0 or pooled >= 1.0:
        raise DegeneratePool(f"pooled proportion {pooled} admits no variance")
    p1 = t.k1 / t.n1
    p2 = t.k2 / t.n2
    se = math.sqrt(pooled * (1.0 - pooled) * (1.0 / t.n1 + 1.0 / t.n2))
    z = (p2 - p1) / se
    log_p = math.log(2.0) + log_norm_sf(abs(z))
    return ZTestResult(z=z, p_value=min(1.0, math.exp(log_p)), log10_p=log_p / _LOG10)


def _log_choose(n: int, k: int) -> float:
    return math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)


def _logsumexp(values: list[float]) -> float:
    top = max(values)
    return top + math.log(sum(math.exp(v - top) for v in values))


def fisher_exact(t: TwoByTwo) -> TailProbability:
    """Two-sided Fisher exact test by the point-probability method.

    Sums the hypergeometric probabilities of every table with the observed
    margins whose probability does not exceed the observed table's (with a
    1e-7 slack factor against ties lost to rounding).
    """
    total_k = t.k1 + t.k2
    total = t.n1 + t.n2
    if total_k == 0 or total_k == total:
        raise InvalidCounts("a zero column margin admits only one table")

    log_denom = _log_choose(total, total_k)

    def log_pmf(k: int) -> float:
        return _log_choose(t.n1, k) + _log_choose(t.n2, total_k - k) - log_denom

    k_lo = max(0, total_k - t.n2)
    k_hi = min(t.n1, total_k)
    observed = log_pmf(t.k1)
    cutoff = observed + math.log1p(1e-7)
    included = [lp for lp in map(log_pmf, range(k_lo, k_hi + 1)) if lp <= cutoff]
    log_p = min(0.0, _logsumexp(included))
    return TailProbability(p_value=math.exp(log_p), log10_p=log_p / _LOG10)


def risk_ratio(t: TwoByTwo) -> float:
    """(k2/n2) / (k1/n1)."""
    if t.k1 == 0:
        raise DivisionByZeroCell("baseline proportion is zero")
    return (t.k2 / t.n2) / (t.k1 / t.n1)


def odds_ratio(t: TwoByTwo) -> float:
    """(k2/(n2-k2)) / (k1/(n1-k1))."""
    if t.k1 == 0 or t.n2 == t.k2 or t.n1 == t.k1:
        raise DivisionByZeroCell("odds ratio needs all four cells positive")
    return (t.k2 / (t.n2 - t.k2)) / (t.k1 / (t.n1 - t.k1))


@dataclass(frozen=True)
class ProportionComparison:
    """Everything the before/after acceptance tables report."""

    table: TwoByTwo
    rate1: float
    rate2: float
    ci1: tuple[float, float]
    ci2: tuple[float, float]
    delta_pp: float
    risk_ratio: float
    odds_ratio: float
    z: float
    p_z: float
    log10_p_z: float
    p_fisher: float
    log10_p_fisher: float


def proportion_comparison(t: TwoByTwo) -> ProportionComparison:
    """Run the full comparison suite on one 2x2 table, with 95% Wilson intervals."""
    ztest = two_proportion_z(t)
    fisher = fisher_exact(t)
    rate1 = t.k1 / t.n1
    rate2 = t.k2 / t.n2
    return ProportionComparison(
        table=t,
        rate1=rate1,
        rate2=rate2,
        ci1=wilson_interval(t.k1, t.n1),
        ci2=wilson_interval(t.k2, t.n2),
        delta_pp=(rate2 - rate1) * 100.0,
        risk_ratio=risk_ratio(t),
        odds_ratio=odds_ratio(t),
        z=ztest.z,
        p_z=ztest.p_value,
        log10_p_z=ztest.log10_p,
        p_fisher=fisher.p_value,
        log10_p_fisher=fisher.log10_p,
    )
