"""Truncation split, Chebyshev support bound, and the Hoelder remainder bound."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loglimit import splitting
from loglimit.grid import GridSpec, ScalarField
from loglimit.logineq import gaussian_bump, normalized_indicator, truncated_log
from loglimit.norms import lp_norm
from loglimit.splitting import (
    SplitConfig,
    chebyshev_support_bound,
    holder_remainder_bound,
    support_measure,
    threshold_sweep,
    truncate_split,
)
from reference import random_band_limited


class TestConfig:
    def test_threshold_must_exceed_one(self):
        with pytest.raises(ValueError):
            SplitConfig(threshold=1.0)
        with pytest.raises(ValueError):
            SplitConfig(threshold=0.5)

    def test_sigma_positive(self):
        with pytest.raises(ValueError):
            SplitConfig(threshold=2.0, sigma=0.0)

    @pytest.mark.parametrize("sigma", [np.nan, np.inf])
    def test_sigma_finite(self, sigma):
        with pytest.raises(ValueError, match="finite"):
            SplitConfig(threshold=2.0, sigma=sigma)


class TestTruncateSplit:
    def test_remainder_matches_split(self):
        alpha = ScalarField(GridSpec(32), 6 * random_band_limited(32, 6, seed=4))
        for m in (1.01, 2.0, 5.5):
            cfg = SplitConfig(threshold=m)
            _, alpha_r = truncate_split(alpha, cfg)
            assert np.array_equal(splitting.truncation_remainder(alpha, cfg).values, alpha_r.values)

    def test_below_threshold_remainder_vanishes(self, grid16):
        f = ScalarField(grid16, 0.5 * np.ones(grid16.shape))
        _, alpha_r = truncate_split(f, SplitConfig(threshold=2.0))
        assert np.all(alpha_r.values == 0)

    def test_double_threshold_indicator(self, grid32):
        m = 3.0
        ind = normalized_indicator(grid32, 0.5)
        mask = ind.values > 0
        alpha = ScalarField(grid32, np.where(mask, 2 * m, 0.0))
        am, ar = truncate_split(alpha, SplitConfig(threshold=m))
        assert np.all(am.values[mask] == m)
        assert np.all(ar.values[mask] == m)

    @given(seed=st.integers(min_value=0, max_value=50))
    @settings(max_examples=25, deadline=None)
    def test_exact_reconstruction(self, seed):
        grid = GridSpec(16)
        vals = np.random.default_rng(seed).standard_normal(grid.shape) * 5
        alpha = ScalarField(grid, vals)
        am, ar = truncate_split(alpha, SplitConfig(threshold=1.5))
        assert np.array_equal(am.values + ar.values, vals)

    def test_pointwise_min_and_sign(self, grid16):
        vals = np.random.default_rng(3).standard_normal(grid16.shape) * 4
        alpha = ScalarField(grid16, vals)
        m = 2.0
        am, ar = truncate_split(alpha, SplitConfig(threshold=m))
        assert np.array_equal(np.abs(am.values), np.minimum(np.abs(vals), m))
        assert np.all(np.sign(am.values) == np.sign(vals))
        assert np.all((ar.values == 0) | (np.abs(vals) > m))


class TestChebyshev:
    def test_constant_below_threshold(self, grid16):
        f = ScalarField(grid16, np.ones(grid16.shape))
        res = chebyshev_support_bound(f, SplitConfig(threshold=2.0))
        assert res.measured_support == 0.0
        assert res.satisfied

    def test_indicator_hand_values(self, grid32):
        # alpha = 2m on a set of measure s: measured = s, bound = s * 2^(1+sigma/2)
        m, sigma = 2.0, 1.0
        ind = normalized_indicator(grid32, 0.8)
        mask = ind.values > 0
        s = support_measure(ind)
        alpha = ScalarField(grid32, np.where(mask, 2 * m, 0.0))
        res = chebyshev_support_bound(alpha, SplitConfig(threshold=m, sigma=sigma))
        assert res.measured_support == pytest.approx(s, rel=1e-14)
        assert res.bound == pytest.approx(s * 2 ** (1 + sigma / 2), rel=1e-12)
        assert res.satisfied

    def test_gaussian_threshold_sweep(self, grid64):
        alpha = 10.0 * gaussian_bump(grid64, np.pi / 6)
        for m in np.geomspace(1.01, 20.0, 20):
            res = chebyshev_support_bound(alpha, SplitConfig(threshold=float(m)))
            assert res.measured_support <= res.bound * 1.01 + 1e-300


class TestHolder:
    def test_zero_remainder(self, grid16):
        # |alpha| <= m everywhere, the bound m included: the remainder vanishes
        cfg = SplitConfig(threshold=2.0)
        vals = np.random.default_rng(1).uniform(-2.0, 2.0, grid16.shape)
        vals[0, 0], vals[0, 1] = 2.0, -2.0
        res = holder_remainder_bound(ScalarField(grid16, vals), cfg)
        assert res.lhs == 0.0
        assert res.rhs == 0.0
        assert res.support_measure == 0.0
        assert res.satisfied

    @pytest.mark.parametrize("sigma", [0.1, 0.5, 1.0, 2.0])
    def test_indicator_equality_case(self, grid32, sigma):
        # (c + m) * indicator splits into the remainder c * indicator, the
        # Hoelder equality case: lhs == rhs up to rounding
        cfg = SplitConfig(threshold=2.0, sigma=sigma)
        ind = normalized_indicator(grid32, 0.3)
        alpha = ScalarField(grid32, np.where(ind.values > 0, 3.7 + 2.0, 0.0))
        res = holder_remainder_bound(alpha, cfg)
        assert res.support_measure == support_measure(ind)
        assert res.lhs == pytest.approx(res.rhs, rel=1e-12)
        assert res.satisfied

    @pytest.mark.parametrize("sigma", [0.1, 0.5, 1.0, 2.0])
    def test_exponent_algebra(self, sigma):
        # the two Hoelder weights are conjugate: they sum to one
        assert sigma / (4 + 2 * sigma) + (4 + sigma) / (4 + 2 * sigma) == pytest.approx(1.0)

    def test_solver_style_fields_satisfy_bound(self, grid64):
        rng = np.random.default_rng(7)
        alpha = ScalarField(grid64, (rng.standard_normal(grid64.shape) * 2) ** 2)
        for m in np.geomspace(1.05, 30.0, 20):
            res = holder_remainder_bound(alpha, SplitConfig(threshold=float(m), sigma=1.0))
            assert res.lhs <= res.rhs * 1.01 + 1e-300

    def test_threshold_decay_power_tail(self):
        # capped power-law field r^(-beta) with beta inside the integrable
        # range: remainder norm decays with log-log slope >= sigma/(4+sigma)
        sigma = 1.0
        grid = GridSpec(128)
        x1, x2 = grid.coordinates()
        d1 = np.minimum(np.abs(x1 - np.pi), 2 * np.pi - np.abs(x1 - np.pi))
        d2 = np.minimum(np.abs(x2 - np.pi), 2 * np.pi - np.abs(x2 - np.pi))
        r = np.maximum(np.sqrt(d1**2 + d2**2), grid.spacing / 2)
        beta = 1.2
        alpha = ScalarField(grid, r**-beta)
        thresholds = np.geomspace(1.5, 8.0, 8)
        norms = []
        for m in thresholds:
            cfg = SplitConfig(threshold=float(m), sigma=sigma)
            _, ar = truncate_split(alpha, cfg)
            norms.append(lp_norm(ar, 1 + sigma / 4))
        slope = -np.polyfit(np.log(thresholds), np.log(norms), 1)[0]
        assert slope >= sigma / (4 + sigma)

    def test_combined_bound_reported(self, grid32):
        cfg = SplitConfig(threshold=2.0, sigma=1.0)
        alpha = 4.0 * gaussian_bump(grid32, np.pi / 4)
        _, ar = truncate_split(alpha, cfg)
        res = holder_remainder_bound(alpha, cfg)
        expected = 2.0 ** (-1.0 / 5.0) * lp_norm(ar, 1.5) ** (1 - 2.0 / 15.0)
        assert res.combined_bound == expected


class TestRoundingSlack:
    """The checks forgive rounding, not a real excess: a 1e-6 relative error
    in a norm flips a near-equality case."""

    @staticmethod
    def _chebyshev(grid):
        # alpha just above m on its support: bound / measured = (c / m)^p = 1 + 1.5e-12
        m = 2.0
        mask = normalized_indicator(grid, 0.3).values > 0
        alpha = ScalarField(grid, np.where(mask, m * (1 + 1e-12), 0.0))
        return chebyshev_support_bound(alpha, SplitConfig(threshold=m)).satisfied

    @staticmethod
    def _holder(grid):
        # (c + m) * indicator: its remainder c * indicator has lhs == rhs up to rounding
        mask = normalized_indicator(grid, 0.3).values > 0
        alpha = ScalarField(grid, np.where(mask, 3.7 + 2.0, 0.0))
        return holder_remainder_bound(alpha, SplitConfig(threshold=2.0)).satisfied

    @pytest.mark.parametrize("check, factor", [("_chebyshev", 1 - 1e-6), ("_holder", 1 + 1e-6)])
    def test_small_norm_error_flips_near_equality(self, grid32, monkeypatch, check, factor):
        check = getattr(self, check)
        assert check(grid32)
        exact = splitting.lp_norm
        monkeypatch.setattr(splitting, "lp_norm", lambda f, p: factor * exact(f, p))
        assert not check(grid32)


def _holder_reference(alpha, cfg):
    """holder_remainder_bound's formulas on the remainder truncate_split builds."""
    sigma = cfg.sigma
    _, ar = truncate_split(alpha, cfg)
    p_low, p_high = 1.0 + sigma / 4.0, 1.0 + sigma / 2.0
    supp = support_measure(ar)
    lhs = lp_norm(ar, p_low)
    integral = float(np.sum(np.abs(ar.values) ** p_high) * ar.grid.cell_volume)
    rhs = (supp ** (sigma / (4.0 + 2.0 * sigma))
           * integral ** ((4.0 + sigma) / (4.0 + 2.0 * sigma))) ** (1.0 / p_low)
    combined = cfg.threshold ** (-sigma / (4.0 + sigma)) * (integral ** (1.0 / p_high)) ** (
        1.0 - 2.0 * sigma / ((sigma + 2.0) * (sigma + 4.0)))
    return splitting.HolderResult(lhs, rhs, combined, supp,
                                  lhs <= rhs * (1.0 + splitting.ROUNDING_SLACK) + 1e-300)


class TestEmptyRemainder:
    """A threshold at or above max |alpha| leaves a zero remainder, which is
    not built; the result is the one the full computation gives."""

    @staticmethod
    def _counted_remainders(monkeypatch):
        calls = []
        remainder = splitting.truncation_remainder
        monkeypatch.setattr(splitting, "truncation_remainder",
                            lambda a, c: calls.append(c.threshold) or remainder(a, c))
        return calls

    @pytest.mark.parametrize("sigma", [0.5, 1.0, 2.0])
    def test_threshold_equal_to_max(self, grid16, monkeypatch, sigma):
        vals = np.random.default_rng(3).uniform(-2.5, 2.5, grid16.shape)
        vals[4, 7] = 3.0
        alpha, cfg = ScalarField(grid16, vals), SplitConfig(threshold=3.0, sigma=sigma)
        calls = self._counted_remainders(monkeypatch)
        assert holder_remainder_bound(alpha, cfg) == _holder_reference(alpha, cfg)
        assert calls == []

    @pytest.mark.parametrize("sigma", [0.5, 1.0, 2.0])
    def test_negative_extreme(self, grid16, monkeypatch, sigma):
        # max(alpha) = 1.5 lies below m = 2, yet min(alpha) = -5 splits
        vals = np.random.default_rng(5).uniform(-1.5, 1.5, grid16.shape)
        vals[2, 9], vals[11, 3], vals[0, 0] = -5.0, -3.0, 1.5
        alpha, cfg = ScalarField(grid16, vals), SplitConfig(threshold=2.0, sigma=sigma)
        calls = self._counted_remainders(monkeypatch)
        res = holder_remainder_bound(alpha, cfg)
        assert res == _holder_reference(alpha, cfg)
        assert res.support_measure == 2 * grid16.cell_volume
        assert calls == [2.0]

    def test_every_threshold_above_max(self, grid32, monkeypatch):
        alpha = -3.0 * gaussian_bump(grid32, np.pi / 5)
        top = float(np.abs(alpha.values).max())
        thresholds = np.geomspace(top, 4 * top, 9)
        calls = self._counted_remainders(monkeypatch)
        for sigma in (0.5, 1.0, 2.0):
            rows = threshold_sweep(alpha, sigma, thresholds)
            for m, row in zip(thresholds, rows):
                ref = _holder_reference(alpha, SplitConfig(threshold=float(m), sigma=sigma))
                assert (row["holder_lhs"], row["holder_rhs"]) == (ref.lhs, ref.rhs) == (0.0, 0.0)
                assert row["satisfied"] == 1.0
        assert calls == []

    def test_sweep_rows_equal_the_reference(self, grid32):
        alpha = 5.0 * gaussian_bump(grid32, np.pi / 5) - 2.0
        for sigma in (0.5, 1.0, 2.0):
            for m in np.geomspace(1.1, 12.0, 20):
                cfg = SplitConfig(threshold=float(m), sigma=sigma)
                assert holder_remainder_bound(alpha, cfg) == _holder_reference(alpha, cfg)


class TestSweep:
    ALPHA_SCALE, THRESHOLDS = 5.0, np.geomspace(1.1, 12.0, 20)

    def _alpha(self, grid):
        return self.ALPHA_SCALE * gaussian_bump(grid, np.pi / 5)

    def test_one_split_per_threshold(self, grid32, monkeypatch):
        # one remainder per threshold below max |alpha|, none at or above it
        alpha = self._alpha(grid32)
        below = [m for m in self.THRESHOLDS.tolist() if m < np.abs(alpha.values).max()]
        assert 0 < len(below) < len(self.THRESHOLDS)
        calls = []
        remainder = splitting.truncation_remainder
        monkeypatch.setattr(
            splitting, "truncation_remainder", lambda a, c: calls.append(c) or remainder(a, c)
        )
        monkeypatch.setattr(splitting, "truncate_split", None)  # alpha_m is never built
        threshold_sweep(alpha, 1.0, self.THRESHOLDS)
        assert [c.threshold for c in calls] == below

    def test_one_norm_per_field(self, grid32, monkeypatch):
        # the Chebyshev norm once, then one remainder norm per threshold below max |alpha|
        alpha = self._alpha(grid32)
        below = int(np.sum(self.THRESHOLDS < np.abs(alpha.values).max()))
        calls = []
        exact = splitting.lp_norm
        monkeypatch.setattr(splitting, "lp_norm", lambda f, p: calls.append(p) or exact(f, p))
        threshold_sweep(alpha, 1.0, self.THRESHOLDS)
        assert calls == [1.5] + [1.25] * below

    def test_rows_match_single_checks(self, grid32):
        alpha = 5.0 * gaussian_bump(grid32, np.pi / 5)
        thresholds = np.geomspace(1.1, 12.0, 20)
        for sigma in (0.5, 1.0, 3.3):
            for m, row in zip(thresholds, threshold_sweep(alpha, sigma, thresholds)):
                cfg = SplitConfig(threshold=float(m), sigma=sigma)
                cheb = chebyshev_support_bound(alpha, cfg)
                hold = holder_remainder_bound(alpha, cfg)
                assert (row["measured_support"], row["cheb_bound"]) == (cheb.measured_support, cheb.bound)
                assert (row["holder_lhs"], row["holder_rhs"]) == (hold.lhs, hold.rhs)

    def test_rows_and_satisfaction(self, grid32):
        alpha = 5.0 * gaussian_bump(grid32, np.pi / 5)
        rows = threshold_sweep(alpha, 1.0, np.geomspace(1.1, 12.0, 20))
        assert len(rows) == 20
        assert all(r["satisfied"] == 1.0 for r in rows)

    def test_corpus_fields_all_satisfy(self, grid32):
        fields = [
            ScalarField(grid32, np.abs(random_band_limited(32, 6, seed=4)) * 6),
            truncated_log(grid32),
            10.0 * normalized_indicator(grid32, 1.0 / 16),
        ]
        for f in fields:
            top = max(2.0, 2.0 * float(np.abs(f.values).max()))
            rows = threshold_sweep(f, 0.5, np.geomspace(1.01, top, 20))
            assert all(r["satisfied"] == 1.0 for r in rows)
