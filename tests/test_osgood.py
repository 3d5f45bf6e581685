"""Majorant ODE integration, its closed-form envelope, and the rate limit."""

import math
from bisect import bisect_right

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.integrate import quad
from scipy.optimize import brentq

from loglimit import osgood
from loglimit.osgood import (
    OsgoodProblem,
    Trajectory,
    _coefficients,
    _interp,
    check_majorization,
    integrate_majorant,
    log_gronwall_bound,
    rate_exponent,
    rate_iterate,
)
from reference import majorant_reference


def separable_oracle(M: float, nu: float, T: float) -> float:
    """Independent solution of dy/dt = M y (|ln y| + 1 + ln(1 + 1/nu)).

    Inverts t(y) = integral_nu^y dz / (M z (|ln z| + 1 + P)) computed by
    adaptive quadrature, then root-finds y(T).
    """
    pen = math.log1p(1.0 / nu)

    def integrand(z):
        return 1.0 / (M * z * (abs(math.log(z)) + 1.0 + pen))

    def time_of(y):
        if y <= 1.0:
            val, _ = quad(integrand, nu, y, limit=200)
            return val
        below, _ = quad(integrand, nu, 1.0, limit=200)
        above, _ = quad(integrand, 1.0, y, limit=200)
        return below + above

    lo, hi = nu, nu
    while time_of(hi) < T:
        hi = hi * 10 if hi < 1 else hi**2 + 1
    return brentq(lambda y: time_of(y) - T, lo, hi, xtol=1e-14, rtol=1e-12)


class TestProblemValidation:
    def test_times_must_start_at_zero(self):
        with pytest.raises(ValueError):
            OsgoodProblem(np.array([0.1, 1.0]), np.zeros(2), np.zeros(2), np.zeros(2), 0.1)

    @pytest.mark.parametrize(
        "times", [[0.0, math.nan], [0.0, 0.5, math.inf], [0.0, math.nan, 1.0]]
    )
    def test_non_finite_times_rejected(self, times):
        n = len(times)
        with pytest.raises(ValueError, match="finite"):
            OsgoodProblem(np.array(times), np.ones(n), np.ones(n), np.ones(n), 0.1)

    def test_negative_coefficients_rejected(self):
        t = np.linspace(0, 1, 3)
        with pytest.raises(ValueError):
            OsgoodProblem(t, -np.ones(3), np.zeros(3), np.zeros(3), 0.1)

    def test_nu_must_be_positive(self):
        t = np.linspace(0, 1, 3)
        with pytest.raises(ValueError):
            OsgoodProblem(t, np.ones(3), np.zeros(3), np.zeros(3), 0.0)

    @pytest.mark.parametrize("nu", [math.inf, math.nan])
    def test_nu_must_be_finite(self, nu):
        t = np.linspace(0, 1, 3)
        with pytest.raises(ValueError, match="nu must be finite and positive"):
            OsgoodProblem(t, np.ones(3), np.zeros(3), np.zeros(3), nu)

    @pytest.mark.parametrize("horizon", [0.0, -1.0, math.inf, math.nan])
    def test_constant_horizon_must_be_finite_and_positive(self, horizon):
        # checked before the time grid is built: linspace to inf warns
        with pytest.raises(ValueError, match="horizon must be finite and positive"):
            OsgoodProblem.constant(1.0, 0.1, horizon)

    def test_overflowing_forcing_rejected(self):
        # g0^2 = 1e400 overflows a float; the lookup would raise OverflowError
        with pytest.raises(ValueError, match="overflows"):
            OsgoodProblem.constant(1, 1e-2, 1, g0=1e200)
        # both terms are finite, their sum is not
        with pytest.raises(ValueError, match="overflows"):
            OsgoodProblem.constant(1, 1.0, 1, g=1e308, g0=1e154)

    def test_largest_finite_forcing_accepted(self):
        p = OsgoodProblem.constant(1, 1e-2, 1, g0=1e150)
        assert math.isfinite(_coefficients(p)(0.5)[1])

    def test_default_log_penalty(self):
        p = OsgoodProblem.constant(1.0, 1e-2, 1.0)
        assert p.log_penalty == pytest.approx(math.log1p(100.0))


class TestIntegrateMajorant:
    def test_pure_quadrature_case(self):
        # f = 0: y(t) = nu + int (g + nu g0^2), compared at integration nodes
        t = np.linspace(0, 1, 41)
        g = 1.0 + t
        g0 = 2.0 * np.ones_like(t)
        p = OsgoodProblem(t, np.zeros_like(t), g, g0, nu=1e-2)
        traj = integrate_majorant(p)
        tn = traj.times
        expected = 1e-2 + (tn + tn**2 / 2) + 1e-2 * 4.0 * tn
        assert_allclose(np.exp(traj.log_y), expected, rtol=1e-7)

    @pytest.mark.parametrize("M,nu", [(0.5, 1e-2), (1.0, 1e-3), (2.0, 1e-2)])
    def test_against_separable_oracle(self, M, nu):
        p = OsgoodProblem.constant(M, nu, 1.0)
        traj = integrate_majorant(p)
        oracle = separable_oracle(M, nu, 1.0)
        assert math.exp(traj.log_y[-1]) == pytest.approx(oracle, rel=1e-6)

    def test_envelope_prefactor_small(self):
        # While the majorant stays below 1/nu (where |ln y| <= ln(1/nu) is
        # valid) it sits within a whisker of nu * (2/nu^2)^(M t).  Once it
        # overshoots 1/nu the envelope loses a factor up to e^(int f), so the
        # regime-valid corpus here keeps M T modest.
        for M, nu in [(0.5, 1e-2), (0.5, 1e-3), (1.0, 1e-2), (1.0, 1e-3)]:
            p = OsgoodProblem.constant(M, nu, 1.0)
            traj = integrate_majorant(p)
            excess = [
                ly - log_gronwall_bound(p, t)
                for t, ly in zip(traj.times, traj.log_y)
            ]
            assert math.exp(max(excess)) <= 1.05

    def test_trajectory_positive_and_monotone(self):
        t = np.linspace(0, 1, 21)
        p = OsgoodProblem(t, np.ones_like(t), np.ones_like(t), np.zeros_like(t), 0.05)
        traj = integrate_majorant(p)
        assert np.all(np.isfinite(traj.log_y))  # y strictly positive
        assert np.all(np.diff(traj.log_y) >= -1e-12)

    def test_richardson_order_away_from_kink(self):
        # growth kept below y = 1 so |ln y| stays smooth along the path
        p = OsgoodProblem.constant(0.2, 1e-3, 1.0)
        from loglimit.osgood import _advance

        zs = [_advance(p, 0.02 / 2**k).log_y[-1] for k in range(3)]
        rate = (zs[0] - zs[1]) / (zs[1] - zs[2])
        order = math.log2(abs(rate))
        assert order >= 3.5

    def test_monotone_in_nu_with_fixed_penalty(self):
        pen = math.log1p(1e3)
        t = np.linspace(0, 1, 21)
        f = np.ones_like(t)
        g = 0.1 * np.ones_like(t)
        g0 = np.ones_like(t)
        ys = []
        for nu in (1e-3, 3e-3, 1e-2):
            p = OsgoodProblem(t, f, g, g0, nu, log_penalty=pen)
            ys.append(integrate_majorant(p).log_y_at(t))
        assert np.all(ys[0] <= ys[1] + 1e-9)
        assert np.all(ys[1] <= ys[2] + 1e-9)

    def test_monotone_in_m_and_g(self):
        t = np.linspace(0, 1, 21)
        base = OsgoodProblem(t, np.ones_like(t), 0.1 * np.ones_like(t), np.zeros_like(t), 1e-2)
        bigger_m = OsgoodProblem(t, 1.5 * np.ones_like(t), 0.1 * np.ones_like(t), np.zeros_like(t), 1e-2)
        bigger_g = OsgoodProblem(t, np.ones_like(t), 0.2 * np.ones_like(t), np.zeros_like(t), 1e-2)
        y0 = integrate_majorant(base).log_y_at(t)
        assert np.all(integrate_majorant(bigger_m).log_y_at(t) >= y0 - 1e-9)
        assert np.all(integrate_majorant(bigger_g).log_y_at(t) >= y0 - 1e-9)

    def test_unconverged_step_halving_raises(self, monkeypatch):
        # this problem crosses the y = 1 kink and settles after 2 halvings
        monkeypatch.setattr(osgood, "_MAX_HALVINGS", 1)
        with pytest.raises(RuntimeError, match="did not converge"):
            integrate_majorant(OsgoodProblem.constant(2, 1e-2, 1))


def _nonuniform_problem() -> OsgoodProblem:
    rng = np.random.default_rng(9)
    t = np.concatenate([[0.0], np.cumsum(rng.uniform(0.02, 0.25, 8))])
    return OsgoodProblem(
        t, rng.uniform(0.0, 3.0, 9), rng.uniform(0.0, 0.5, 9), rng.uniform(0.1, 2.0, 9), 1e-2
    )


class TestExactness:
    """The coefficient lookup reproduces np.interp, so trajectories match bit for bit."""

    @pytest.mark.parametrize(
        "problem",
        [
            OsgoodProblem.constant(2, 1e-2, 1),  # crosses the kink at y = 1
            OsgoodProblem.constant(3, 0.5, 2, g=0.3, g0=1.0),
            OsgoodProblem.constant(1, 1e-305, 1, g=1.0),  # exp(-z) overflows: blow-up
            OsgoodProblem.constant(1500, 1e-2, 0.5),  # ln y passes _Z_BLOWUP
            _nonuniform_problem(),
        ],
        ids=["kink", "forced", "inf-blow-up", "z-blow-up", "nonuniform"],
    )
    def test_trajectory_matches_np_interp_reference(self, problem):
        times, log_y, blow_up = majorant_reference(problem)
        traj = integrate_majorant(problem)
        assert traj.times.tobytes() == times.tobytes()
        assert traj.log_y.tobytes() == log_y.tobytes()
        assert traj.blow_up == blow_up

    def test_lookup_matches_np_interp_bitwise(self):
        rng = np.random.default_rng(17)
        t = np.concatenate([[0.0], np.cumsum(rng.uniform(1e-3, 0.3, 11))])
        f = np.array([0.0, 1e300, 0.0, 1e-300, 1e-300, 2.5, 0.0, 0.0, 1e300, 7.0, 1e-300, 3.0])
        g0 = np.array([1e-300, 0.0, 4.0, 1e-300, 0.5, 0.0, 0.0, 2.0, 1e-300, 1.0, 0.0, 9.0])
        nu = 1e-3
        p = OsgoodProblem(t, f, f, g0, nu)
        T = t[-1]
        points = np.concatenate(
            [t, [0.0, T, np.nextafter(T, np.inf)], 0.5 * (t[1:] + t[:-1]), rng.uniform(0.0, T, 1000)]
        )
        at = _coefficients(p)
        got = np.array([at(x) for x in points.tolist()])
        want_f = np.interp(points, t, f)
        want_forcing = np.array(
            [float(np.interp(x, t, f)) + nu * float(np.interp(x, t, g0)) ** 2 for x in points]
        )
        assert got[:, 0].tobytes() == want_f.tobytes()
        assert got[:, 1].tobytes() == want_forcing.tobytes()
        xp, g0p = t.tolist(), g0.tolist()
        got_g0 = np.array([_interp(xp, g0p, bisect_right(xp, x) - 1, x) for x in points.tolist()])
        assert got_g0.tobytes() == np.interp(points, t, g0).tobytes()
        # infinite samples take numpy's NaN fallbacks (OsgoodProblem rejects them)
        xp, fp = [0.0, 1.0, 2.0, 3.0], [math.inf, math.inf, 1.0, -math.inf]
        points = [0.5, 1.5, 2.5]
        got_inf = np.array([_interp(xp, fp, bisect_right(xp, x) - 1, x) for x in points])
        assert got_inf.tobytes() == np.interp(points, xp, fp).tobytes()


class TestGronwallBound:
    def test_zero_f_case(self):
        t = np.linspace(0, 1, 11)
        p = OsgoodProblem(t, np.zeros_like(t), 2.0 * np.ones_like(t), np.ones_like(t), 1e-2)
        assert math.exp(log_gronwall_bound(p, 1.0)) == pytest.approx(1e-2 + 2.0 + 1e-2, rel=1e-12)

    def test_constant_f_closed_form(self):
        p = OsgoodProblem.constant(1.0, 1e-2, 1.0)
        expected = 1e-2 * (2.0 / 1e-4) ** 0.5
        assert math.exp(log_gronwall_bound(p, 0.5)) == pytest.approx(expected, rel=1e-9)

    def test_dominates_integrated_majorant_at_horizon(self):
        rng = np.random.default_rng(4)
        t = np.linspace(0, 1, 33)
        for nu in (1e-2, 1e-3):
            f = np.abs(rng.standard_normal(t.shape)) * 0.5
            g = np.abs(rng.standard_normal(t.shape)) * 0.2
            g0 = np.abs(rng.standard_normal(t.shape))
            p = OsgoodProblem(t, f, g, g0, nu)
            traj = integrate_majorant(p)
            assert traj.log_y[-1] <= log_gronwall_bound(p, 1.0) + 1e-9

    def test_nu_at_least_one_rejected(self):
        t = np.linspace(0, 1, 5)
        p = OsgoodProblem(t, np.ones(5), np.zeros(5), np.zeros(5), nu=1.5)
        with pytest.raises(ValueError):
            log_gronwall_bound(p, 1.0)


class TestRateExponent:
    def test_zero_m_gives_exponent_one(self):
        rb = rate_exponent(0.0, 1.0)
        assert rb.exponent == 1.0

    def test_anchor_value(self):
        rb = rate_exponent(1.0, 1.0)
        assert rb.exponent == pytest.approx(0.1353352832366127, abs=1e-15)

    def test_iterates_monotone_and_convergent(self):
        ns = [10, 100, 1000, 10000, 100000, 1000000]
        rb = rate_exponent(1.0, 1.0, n_values=ns)
        assert rb.monotone
        assert rb.iterates[1000000] == pytest.approx(rb.exponent, abs=1e-6)

    def test_error_envelope(self):
        # |(1 - T/n)^(2Mn) - e^(-2MT)| <= 2 M T^2 / n * e^(-2MT+1) for T/n <= 1/2
        for M, T in [(1.0, 1.0), (2.0, 0.5), (0.5, 2.0)]:
            for n in (4, 16, 256, 4096):
                if T / n > 0.5:
                    continue
                err = abs(rate_iterate(M, T, n) - math.exp(-2 * M * T))
                envelope = 2 * M * T**2 / n * math.exp(-2 * M * T + 1)
                assert err <= envelope

    def test_undefined_iterate_flagged(self):
        rb = rate_exponent(1.0, 2.0, n_values=[1, 2, 8])
        assert rb.iterates[1] is None
        assert rb.iterates[2] is None
        assert rb.iterates[8] is not None

    @pytest.mark.parametrize("n", [0, -4, 0.0, math.nan, math.inf])
    def test_nonpositive_or_non_finite_n_rejected(self, n):
        with pytest.raises(ValueError, match="finite n > 0"):
            rate_iterate(1.0, 1.0, n)
        with pytest.raises(ValueError, match="finite n > 0"):
            rate_exponent(1.0, 1.0, n_values=[100, n])

    def test_richardson_extrapolation(self):
        for M, T in [(1.0, 1.0), (2.0, 0.5)]:
            rb = rate_exponent(M, T)
            assert abs(rb.extrapolated - rb.exponent) < 1e-10


class TestMajorization:
    def test_zero_samples_always_majorized(self):
        p = OsgoodProblem.constant(1.0, 1e-2, 1.0)
        t = np.linspace(0, 1, 11)
        report = check_majorization(t, np.zeros_like(t), p)
        assert report.passed
        assert report.first_violation_time is None

    def test_violation_reported_at_first_bad_time(self):
        p = OsgoodProblem.constant(0.0, 1e-3, 1.0, g=0.0, g0=0.0)
        # majorant is constant nu = 1e-3; manufacture an excursion above it
        t = np.linspace(0, 1, 11)
        x = np.zeros_like(t)
        x[5] = 1.0
        report = check_majorization(t, x, p)
        assert not report.passed
        assert report.first_violation_time == pytest.approx(t[5])

    def test_horizon_mismatch_rejected(self):
        p = OsgoodProblem.constant(1.0, 1e-2, 1.0)
        t = np.linspace(0, 2, 11)
        with pytest.raises(ValueError, match="horizon"):
            check_majorization(t, np.zeros_like(t), p)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_samples_rejected(self, bad):
        p = OsgoodProblem.constant(1.0, 1e-2, 1.0)
        with pytest.raises(ValueError, match="finite"):
            check_majorization(p.times, np.full(len(p.times), bad), p)

    def test_tolerance_absorbs_five_percent(self):
        p = OsgoodProblem.constant(0.0, 1e-1, 1.0)
        t = np.linspace(0, 1, 5)
        x = np.full_like(t, 0.1 * 1.04)  # 4 percent above the constant majorant
        assert check_majorization(t, x, p, tol=0.05).passed
        assert not check_majorization(t, x, p, tol=0.01).passed

    @pytest.mark.parametrize(
        "times",
        [
            np.linspace(0, 1, 6).reshape(2, 3),  # not 1-D
            np.array([0.0, 0.6, 0.4, 1.0]),  # not increasing
            np.array([0.0, 0.5, 0.5, 1.0]),  # repeated time
            np.array([-0.1, 0.5, 1.0]),  # starts before 0
            np.array([0.0, math.nan, 1.0]),
            np.array([0.0, 0.5, math.inf]),
            np.array([]),
        ],
        ids=["2-d", "decreasing", "repeated", "negative", "nan", "inf", "empty"],
    )
    def test_bad_sample_times_rejected(self, times):
        p = OsgoodProblem.constant(1.0, 1e-2, 1.0)
        with pytest.raises(ValueError, match="sample times|horizon"):
            check_majorization(times, np.zeros_like(times), p)


def _full_horizon_check(times, x, problem, tol=0.05):
    """(passed, first violation time, max log excess) from one integration of
    the whole problem and every sample's excess: the check without a cut."""
    log_y = integrate_majorant(problem).log_y_at(times)
    with np.errstate(divide="ignore"):
        log_x = np.where(x > 0, np.log(x), -np.inf)
    excess = log_x - (log_y + math.log1p(tol))
    bad = np.nonzero(excess > 0)[0]
    finite = excess[np.isfinite(excess)]
    max_excess = float(finite.max()) if len(finite) else -math.inf
    return len(bad) == 0, float(times[bad[0]]) if len(bad) else None, max_excess


def _varying_problem() -> OsgoodProblem:
    """65 knots on [0, 1] with varying f, g and g0."""
    rng = np.random.default_rng(5)
    t = np.linspace(0.0, 1.0, 65)
    return OsgoodProblem(
        t, 1.0 + np.sin(9.0 * t) ** 2, rng.uniform(0.0, 0.05, 65), rng.uniform(0.5, 1.5, 65), 1e-2
    )


def _off_knot_times(problem: OsgoodProblem, count: int) -> np.ndarray:
    """0, `count` sorted random times that are not knots of the problem, the horizon."""
    inner = np.sort(np.random.default_rng(11).uniform(0.0, problem.horizon, count))
    assert not np.isin(inner, problem.times).any()
    return np.concatenate([[0.0], inner, [problem.horizon]])


class TestCutCheck:
    """check_majorization stops integrating where no later sample can change
    its report; each case is compared with the full-horizon check."""

    def _matches_full(self, times, x, problem):
        report = check_majorization(times, x, problem)
        passed, first, max_excess = _full_horizon_check(times, x, problem)
        assert (report.passed, report.first_violation_time) == (passed, first)
        if math.isinf(max_excess):
            assert report.max_log_excess == max_excess
        else:
            assert report.max_log_excess == pytest.approx(max_excess, rel=1e-6, abs=0.0)
        assert report.informative_samples == np.count_nonzero(x[times <= report.checked_until])
        assert report.checked_until in times
        return report

    def test_off_knot_samples_cut_early(self):
        p = _varying_problem()
        t = _off_knot_times(p, 14)
        report = self._matches_full(t, 5e-3 * np.sqrt(t), p)  # growth slower than y's
        assert report.passed
        assert report.checked_until < p.horizon
        assert report.checked_until not in p.times  # the last prefix ended between knots

    def test_off_knot_violation_cut_early(self):
        p = _varying_problem()
        t = _off_knot_times(p, 14)
        x = 5e-3 * np.sqrt(t)
        x[3] = 10.0  # far above y(t_3)
        report = self._matches_full(t, x, p)
        assert not report.passed
        assert report.first_violation_time == t[3]
        assert report.checked_until < p.horizon

    def test_all_zero_samples(self):
        p = _varying_problem()
        t = _off_knot_times(p, 14)
        report = self._matches_full(t, np.zeros_like(t), p)
        assert report.passed and report.max_log_excess == -math.inf
        assert (report.checked_until, report.informative_samples) == (t[1], 0)

    @pytest.mark.parametrize(
        "times",
        [np.array([0.0, 0.45, 0.5]), np.linspace(0.0, 0.5, 51)],
        ids=["prefix-blows-up", "cut-before-blow-up"],
    )
    def test_majorant_blow_up(self, times):
        p = OsgoodProblem.constant(1500, 1e-2, 0.5)  # ln y passes _Z_BLOWUP at t ~ 0.444
        assert integrate_majorant(p).blow_up
        x = np.full_like(times, 1e300)
        x[0] = 5e-3
        report = self._matches_full(times, x, p)
        assert report.passed

    def test_cut_never_fires(self):
        # x tracks half the majorant, so a larger sample always follows
        p = _varying_problem()
        t = _off_knot_times(p, 14)
        x = 0.5 * np.exp(integrate_majorant(p).log_y_at(t))
        report = self._matches_full(t, x, p)
        assert report.checked_until == p.horizon
        assert report.max_log_excess == _full_horizon_check(t, x, p)[2]  # the same integration

    def test_negative_control_spike_at_last_sample(self):
        # must FAIL: the tail maximum sees a spike that an a-priori bound on x would not
        p = _varying_problem()
        t = _off_knot_times(p, 14)
        x = 5e-3 * np.sqrt(t)
        x[-1] = 2.0 * math.exp(integrate_majorant(p).log_y[-1]) * 1.05
        report = self._matches_full(t, x, p)
        assert not report.passed
        assert report.first_violation_time == p.horizon
        assert report.max_log_excess == pytest.approx(math.log(2.0), rel=1e-6)

    def test_truncated_problem_keeps_interpolant(self):
        p = _varying_problem()
        t_cut = 0.3  # between knots 19 and 20
        q = p.truncated(t_cut)
        assert q.horizon == t_cut and len(q.times) == 21
        assert q.log_penalty == p.log_penalty
        probe = np.linspace(0.0, t_cut, 97)
        for name in ("f", "g", "g0"):
            assert_allclose(np.interp(probe, q.times, getattr(q, name)),
                            np.interp(probe, p.times, getattr(p, name)), rtol=1e-14)


class TestTrajectory:
    def test_log_y_at_extends_blowup_with_inf(self):
        traj = Trajectory(np.array([0.0, 0.5]), np.array([0.0, 1.0]), blow_up=True)
        vals = traj.log_y_at(np.array([0.25, 0.75]))
        assert vals[0] == pytest.approx(0.5)
        assert vals[1] == np.inf
