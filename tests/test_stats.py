from __future__ import annotations

import math
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from suggestgate.errors import DegeneratePool, DivisionByZeroCell, InvalidCounts
from suggestgate.stats import (
    TwoByTwo,
    fisher_exact,
    log_norm_sf,
    norm_quantile,
    norm_sf,
    odds_ratio,
    proportion_comparison,
    risk_ratio,
    two_proportion_z,
    wilson_interval,
)

# The published before/after counts used throughout.
BEFORE = (427, 2319)
AFTER = (486, 1422)
TABLE = TwoByTwo(*BEFORE, *AFTER)


def brute_force_fisher(t: TwoByTwo) -> float:
    """Oracle: exhaustive hypergeometric enumeration in plain floats."""
    total_k = t.k1 + t.k2
    total = t.n1 + t.n2

    def pmf(k: int) -> float:
        return (
            math.comb(t.n1, k)
            * math.comb(t.n2, total_k - k)
            / math.comb(total, total_k)
        )

    k_lo = max(0, total_k - t.n2)
    k_hi = min(t.n1, total_k)
    observed = pmf(t.k1)
    return sum(
        pmf(k)
        for k in range(k_lo, k_hi + 1)
        if pmf(k) <= observed * (1 + 1e-7)
    )


class TestNormalHelpers:
    def test_quantile_matches_scipy(self):
        scipy_stats = pytest.importorskip("scipy.stats")
        for p in (0.975, 0.995, 0.5, 0.025, 1e-6, 1 - 1e-6):
            assert norm_quantile(p) == pytest.approx(
                scipy_stats.norm.ppf(p), abs=1e-12, rel=1e-12
            )

    def test_log_sf_matches_scipy(self):
        scipy_stats = pytest.importorskip("scipy.stats")
        for z in (0.0, 1.0, 5.0, 10.9, 29.9, 30.0, 35.0, 60.0):
            assert log_norm_sf(z) == pytest.approx(
                scipy_stats.norm.logsf(z), rel=1e-10
            )

    def test_log_sf_representable_below_underflow(self):
        # p ~ exp(-5000) is far below 1e-300 yet log-p stays finite.
        assert math.isfinite(log_norm_sf(100.0))
        assert log_norm_sf(100.0) < -5000 / 1.0

    def test_sf_symmetry(self):
        assert norm_sf(0.0) == pytest.approx(0.5)


class TestWilson:
    def test_published_before_interval(self):
        lo, hi = wilson_interval(*BEFORE, 0.95)
        assert lo * 100 == pytest.approx(16.9, abs=0.05)
        assert hi * 100 == pytest.approx(20.0, abs=0.05)

    def test_published_after_interval(self):
        lo, hi = wilson_interval(*AFTER, 0.95)
        assert lo * 100 == pytest.approx(31.8, abs=0.05)
        assert hi * 100 == pytest.approx(36.7, abs=0.05)

    def test_zero_successes_lower_bound_exact(self):
        lo, hi = wilson_interval(0, 50)
        assert lo == 0.0
        assert hi > 0.0

    def test_all_successes_upper_bound_exact(self):
        lo, hi = wilson_interval(50, 50)
        assert hi == 1.0

    def test_invalid_counts(self):
        with pytest.raises(InvalidCounts):
            wilson_interval(5, 0)
        with pytest.raises(InvalidCounts):
            wilson_interval(-1, 10)
        with pytest.raises(InvalidCounts):
            wilson_interval(11, 10)

    def test_matches_statsmodels_formula(self):
        scipy_stats = pytest.importorskip("scipy.stats")
        for k, n in [(3, 17), (427, 2319), (1, 2), (99, 100)]:
            z = scipy_stats.norm.isf(0.025)
            phat = k / n
            denom = 1 + z**2 / n
            center = (phat + z**2 / (2 * n)) / denom
            half = z * math.sqrt(phat * (1 - phat) / n + z**2 / (4 * n**2)) / denom
            lo, hi = wilson_interval(k, n)
            assert lo == pytest.approx(max(0.0, center - half), abs=1e-12)
            assert hi == pytest.approx(min(1.0, center + half), abs=1e-12)

    @given(
        k=st.integers(min_value=0, max_value=500),
        n=st.integers(min_value=1, max_value=500),
    )
    @settings(max_examples=200, deadline=None)
    def test_interval_contains_point_estimate(self, k, n):
        if k > n:
            k = n
        lo, hi = wilson_interval(k, n)
        assert 0.0 <= lo <= k / n <= hi <= 1.0

    def test_width_shrinks_with_n_at_fixed_rate(self):
        widths = []
        for scale in (1, 4, 16, 64):
            lo, hi = wilson_interval(10 * scale, 50 * scale)
            widths.append(hi - lo)
        assert widths == sorted(widths, reverse=True)


class TestTwoProportionZ:
    def test_published_statistic(self):
        result = two_proportion_z(TABLE)
        assert result.z == pytest.approx(10.90, abs=0.01)
        assert result.p_value < 1e-26
        assert result.log10_p < math.log10(1e-26)

    def test_equal_proportions(self):
        result = two_proportion_z(TwoByTwo(10, 100, 20, 200))
        assert result.z == 0.0
        assert result.p_value == pytest.approx(1.0)

    def test_swap_negates_z_same_p(self):
        fwd = two_proportion_z(TABLE)
        rev = two_proportion_z(TwoByTwo(*AFTER, *BEFORE))
        assert rev.z == pytest.approx(-fwd.z, rel=1e-12)
        assert rev.p_value == pytest.approx(fwd.p_value, rel=1e-12)

    def test_degenerate_pool(self):
        with pytest.raises(DegeneratePool):
            two_proportion_z(TwoByTwo(0, 10, 0, 20))
        with pytest.raises(DegeneratePool):
            two_proportion_z(TwoByTwo(10, 10, 20, 20))

    def test_matches_scipy_normal_tail(self):
        scipy_stats = pytest.importorskip("scipy.stats")
        result = two_proportion_z(TwoByTwo(30, 100, 45, 110))
        expected = 2 * scipy_stats.norm.sf(abs(result.z))
        assert result.p_value == pytest.approx(expected, rel=1e-10)


class TestFisher:
    def test_published_table(self):
        result = fisher_exact(TABLE)
        assert result.p_value < 5e-26
        assert result.log10_p < math.log10(5e-26)

    def test_identical_rows_give_one(self):
        assert fisher_exact(TwoByTwo(5, 20, 5, 20)).p_value == pytest.approx(1.0)

    def test_small_table_matches_enumeration_oracle(self):
        t = TwoByTwo(1, 10, 11, 14)
        assert fisher_exact(t).p_value == pytest.approx(brute_force_fisher(t), rel=1e-9)

    def test_matches_scipy(self):
        scipy_stats = pytest.importorskip("scipy.stats")
        for t in [TwoByTwo(1, 10, 11, 14), TwoByTwo(8, 30, 4, 25), TwoByTwo(3, 9, 6, 9)]:
            _, expected = scipy_stats.fisher_exact(
                [[t.k1, t.n1 - t.k1], [t.k2, t.n2 - t.k2]]
            )
            assert fisher_exact(t).p_value == pytest.approx(expected, rel=1e-6)

    @given(
        k1=st.integers(0, 12), e1=st.integers(0, 12),
        k2=st.integers(0, 12), e2=st.integers(0, 12),
    )
    @settings(max_examples=150, deadline=None)
    def test_random_small_tables_match_oracle(self, k1, e1, k2, e2):
        n1, n2 = k1 + e1, k2 + e2
        if n1 == 0 or n2 == 0 or k1 + k2 == 0 or k1 + k2 == n1 + n2:
            return
        t = TwoByTwo(k1, n1, k2, n2)
        result = fisher_exact(t)
        assert result.p_value == pytest.approx(brute_force_fisher(t), rel=1e-9)
        assert 0.0 < result.p_value <= 1.0

    def test_transposition_invariance(self):
        # Swapping rows and columns together preserves the table's p.
        t = TwoByTwo(8, 30, 4, 25)
        transposed = TwoByTwo(t.k1, t.k1 + t.k2, t.n1 - t.k1, (t.n1 - t.k1) + (t.n2 - t.k2))
        assert fisher_exact(t).p_value == pytest.approx(
            fisher_exact(transposed).p_value, rel=1e-9
        )

    def test_degenerate_margin(self):
        with pytest.raises(InvalidCounts):
            fisher_exact(TwoByTwo(0, 5, 0, 5))


class TestRatios:
    def test_published_values(self):
        assert risk_ratio(TABLE) == pytest.approx(1.86, abs=0.005)
        assert odds_ratio(TABLE) == pytest.approx(2.30, abs=0.005)

    def test_identical_groups(self):
        t = TwoByTwo(5, 20, 10, 40)
        assert risk_ratio(t) == pytest.approx(1.0)
        assert odds_ratio(t) == pytest.approx(1.0)

    def test_zero_cells(self):
        with pytest.raises(DivisionByZeroCell):
            risk_ratio(TwoByTwo(0, 10, 5, 10))
        with pytest.raises(DivisionByZeroCell):
            odds_ratio(TwoByTwo(5, 10, 10, 10))

    def test_or_dominates_rr_when_rr_above_one(self):
        # Algebraic check over a grid of non-degenerate tables.
        for k1, n1, k2, n2 in product((1, 3, 7), (10, 20), (2, 6, 9), (10, 20)):
            t = TwoByTwo(k1, n1, k2, n2)
            rr = risk_ratio(t)
            if rr >= 1.0 and k1 < n1 and k2 < n2:
                assert odds_ratio(t) >= rr - 1e-12


class TestZFisherAgreement:
    def test_large_balanced_tables_agree_within_factor_ten(self):
        for t in [
            TwoByTwo(120, 500, 160, 500),
            TwoByTwo(200, 800, 260, 900),
            TwoByTwo(427, 2319, 486, 1422),
        ]:
            log_z = two_proportion_z(t).log10_p
            log_f = fisher_exact(t).log10_p
            assert abs(log_z - log_f) <= 1.0


class TestComparisonBundle:
    def test_published_bundle(self):
        c = proportion_comparison(TABLE)
        assert c.delta_pp == pytest.approx(15.8, abs=0.05)
        assert c.rate1 * 100 == pytest.approx(18.4, abs=0.05)
        assert c.rate2 * 100 == pytest.approx(34.2, abs=0.05)
        assert c.risk_ratio == pytest.approx(1.86, abs=0.005)
        assert c.odds_ratio == pytest.approx(2.30, abs=0.005)
        assert c.z == pytest.approx(10.90, abs=0.01)
        assert (c.ci1, c.ci2) == (wilson_interval(*BEFORE, 0.95), wilson_interval(*AFTER, 0.95))

    def test_counts_validation(self):
        with pytest.raises(InvalidCounts):
            TwoByTwo(5, 4, 1, 1)
