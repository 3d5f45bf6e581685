"""Logarithmic majorant ODE, its closed-form Gronwall envelope, and the
explicit convergence-rate exponent.

The majorant solves

    dy/dt = f(t) * y * (|ln y| + 1 + P) + g(t) + nu * g0(t)^2,   y(0) = nu,

where P is the logarithmic penalty (ln(1 + 1/nu) for a viscosity threshold,
ln(1 + m) for a truncation level m; both enter through the single
``log_penalty`` field).  Solutions span hundreds of orders of magnitude, so
the integrator works on z = ln y; this is still classical RK4 with step
halving, applied to the transformed equation

    dz/dt = f(t) * (|z| + 1 + P) + (g(t) + nu * g0(t)^2) * exp(-z).

The |z| kink at y = 1 is handled by bisecting any step that would cross it,
which keeps the scheme fourth order piecewise.

The coefficients are looked up once per distinct RK4 stage time (k2 and k3
share t + h/2, and a step's t + h is the next step's t) by a pure-Python copy
of numpy's scalar interpolation formula, bit-identical to ``np.interp``.

A majorization check compares measured squared gaps x_k = x(t_k)^2 with
y(t_k).  Since f, g, g0 >= 0, dz/dt >= 0 and every RK4 stage slope is >= 0,
so y never decreases: a later sample j > k can exceed y(t_j) (1 + tol) by at
most ln(max_{j>k} x_j) - ln y(t_k) - ln(1 + tol).  Once that falls to the
largest excess already seen, no later sample can fail or raise it, and the
check stops integrating there.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np

_Z_BLOWUP = 1e290  # ln y beyond this is treated as a blow-up of the majorant
_REL_TOL = 1e-8  # step halving stops once y(T) moves by less than this
_MAX_HALVINGS = 16
_KNOT_MARGIN = 1.0 + 1e-9  # relative headroom above the largest coefficient sample


@dataclass(frozen=True)
class OsgoodProblem:
    """Sampled coefficients (linearly interpolated) for the majorant ODE."""

    times: np.ndarray
    f: np.ndarray
    g: np.ndarray
    g0: np.ndarray
    nu: float
    log_penalty: float | None = None

    def __post_init__(self) -> None:
        t = np.asarray(self.times, dtype=float)
        object.__setattr__(self, "times", t)
        if (
            t.ndim != 1
            or len(t) < 2
            or not np.all(np.isfinite(t))
            or t[0] != 0.0
            or np.any(np.diff(t) <= 0)
        ):
            raise ValueError("times must be finite, increasing and start at 0")
        for name in ("f", "g", "g0"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.shape != t.shape:
                raise ValueError(f"{name} must be sampled on the same times")
            if not np.all(np.isfinite(arr)) or arr.min() < 0:
                raise ValueError(f"{name} samples must be finite and nonnegative")
            object.__setattr__(self, name, arr)
        if not 0 < self.nu < math.inf:
            raise ValueError(
                f"nu must be finite and positive (the majorant starts at y(0) = nu), got {self.nu}"
            )
        # the forcing g + nu * g0**2 must stay finite wherever it is looked up;
        # the margin covers interpolants that round above the largest knot,
        # and float products (unlike Python's float **) overflow to inf quietly
        g_top, g0_top = float(self.g.max()) * _KNOT_MARGIN, float(self.g0.max()) * _KNOT_MARGIN
        if not math.isfinite(g_top + self.nu * (g0_top * g0_top)):
            raise ValueError("forcing g + nu * g0^2 overflows a float at the sampled g and g0")
        if self.log_penalty is None:
            object.__setattr__(self, "log_penalty", math.log1p(1.0 / self.nu))
        elif self.log_penalty < 0:
            raise ValueError("log_penalty must be nonnegative")

    @property
    def horizon(self) -> float:
        return float(self.times[-1])

    def truncated(self, t: float) -> "OsgoodProblem":
        """The problem on [0, t], 0 < t: the same interpolant there, one knot at t."""
        f, g, g0 = (_cut_series(self.times, vals, t) for vals in (self.f, self.g, self.g0))
        return OsgoodProblem(f[0], f[1], g[1], g0[1], self.nu, self.log_penalty)

    @classmethod
    def constant(
        cls,
        M: float,
        nu: float,
        horizon: float,
        g: float = 0.0,
        g0: float = 0.0,
    ) -> "OsgoodProblem":
        if not 0 < horizon < math.inf:
            raise ValueError(f"horizon must be finite and positive, got {horizon}")
        t = np.linspace(0.0, horizon, 65)
        ones = np.ones_like(t)
        return cls(t, M * ones, g * ones, g0 * ones, nu)


def _cut_series(times: np.ndarray, vals: np.ndarray, t: float) -> tuple[np.ndarray, np.ndarray]:
    """Knots and values of the linear interpolant of (times, vals) on [0, t]:
    the knots below t, then one at t holding the interpolated value."""
    keep = times < t
    return np.append(times[keep], t), np.append(vals[keep], np.interp(t, times, vals))


def _integral_to(times: np.ndarray, vals: np.ndarray, t: float) -> float:
    """Exact integral of the linear interpolant of (times, vals) over [0, t]."""
    if t < 0 or t > times[-1] * (1 + 1e-12) + 1e-300:
        raise ValueError(f"time {t} outside the sampled horizon {times[-1]}")
    knots, values = _cut_series(times, vals, min(t, float(times[-1])))
    if len(knots) == 1:
        return 0.0
    return float(np.trapezoid(values, knots))


@dataclass(frozen=True)
class Trajectory:
    """Majorant trajectory stored as ln y (y spans huge ranges)."""

    times: np.ndarray
    log_y: np.ndarray
    blow_up: bool = False

    def log_y_at(self, t: np.ndarray) -> np.ndarray:
        """Interpolated ln y; +inf past a blow-up truncation point."""
        out = np.interp(t, self.times, self.log_y)
        if self.blow_up:
            out = np.where(np.asarray(t) > self.times[-1] * (1 + 1e-12), np.inf, out)
        return out


def _interp(xp: list, fp: list, j: int, x: float) -> float:
    """np.interp(x, xp, fp) bit for bit, for x >= xp[0] and j = bisect_right(xp, x) - 1.

    This is numpy's compiled scalar formula: a knot, the last knot or a
    point past it (t + (T - t) can land 1 ulp beyond T) returns the sample
    there; anything else interpolates from the left knot, then from the
    right knot if that gives NaN.
    """
    if j == len(xp) - 1 or x == xp[j]:
        return fp[j]
    slope = (fp[j + 1] - fp[j]) / (xp[j + 1] - xp[j])
    val = slope * (x - xp[j]) + fp[j]
    if val != val:
        val = slope * (x - xp[j + 1]) + fp[j + 1]
        if val != val and fp[j] == fp[j + 1]:
            val = fp[j]
    return val


def _coefficients(p: OsgoodProblem):
    """Lookup t -> (f(t), g(t) + nu * g0(t)^2) for 0 <= t; one bisection serves all three."""
    xp, fs, gs, g0s = p.times.tolist(), p.f.tolist(), p.g.tolist(), p.g0.tolist()
    nu = p.nu

    def at(t: float) -> tuple[float, float]:
        j = bisect_right(xp, t) - 1
        return _interp(xp, fs, j, t), _interp(xp, gs, j, t) + nu * _interp(xp, g0s, j, t) ** 2

    return at


def _slope(c: tuple[float, float], pen: float, z: float) -> float:
    """dz/dt at coefficients c = (f, forcing)."""
    ft, forcing = c
    val = ft * (abs(z) + 1.0 + pen)
    if forcing > 0.0:
        val += forcing * (math.exp(-z) if -z < 700.0 else math.inf)
    return val


def _rk4(c0, c_half, c1, pen: float, z: float, h: float) -> float:
    """One RK4 step given the coefficients at t, t + h/2 and t + h."""
    k1 = _slope(c0, pen, z)
    k2 = _slope(c_half, pen, z + 0.5 * h * k1)
    k3 = _slope(c_half, pen, z + 0.5 * h * k2)
    k4 = _slope(c1, pen, z + h * k3)
    return z + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _advance(p: OsgoodProblem, h_nominal: float) -> Trajectory:
    at = _coefficients(p)
    pen = p.log_penalty
    T = p.horizon
    t, z = 0.0, math.log(p.nu)
    c0 = at(t)
    ts, zs = [t], [z]
    while t < T - 1e-14 * T:
        h = min(h_nominal, T - t)
        c1 = at(t + h)
        z_new = _rk4(c0, at(t + 0.5 * h), c1, pen, z, h)
        if not math.isfinite(z_new) or z_new > _Z_BLOWUP:
            return Trajectory(np.array(ts), np.array(zs), blow_up=True)
        if z != 0.0 and z_new != 0.0 and (z < 0.0) != (z_new < 0.0):
            # bisect the step length to land on the |ln y| kink at y = 1
            lo, hi = 0.0, h
            for _ in range(80):
                mid = 0.5 * (lo + hi)
                zm = _rk4(c0, at(t + 0.5 * mid), at(t + mid), pen, z, mid)
                if zm == 0.0:
                    break
                if (zm < 0.0) == (z < 0.0):
                    lo = mid
                else:
                    hi = mid
            h = 0.5 * (lo + hi)
            t, z = t + h, 0.0
            c0 = at(t)
        else:
            t, z = t + h, z_new
            c0 = c1
        ts.append(t)
        zs.append(z)
    return Trajectory(np.array(ts), np.array(zs))


def integrate_majorant(p: OsgoodProblem) -> Trajectory:
    """RK4 trajectory refined until halving the step moves y(T) by < 1e-8.

    Raises RuntimeError if that takes more than _MAX_HALVINGS halvings.

    The comparison runs on ln y, where an absolute difference equals the
    relative change of y.  Once ln y itself grows past order one (majorants
    routinely leave the float range of y) the tolerance is applied relative
    to ln y, which is the sharpest statement float64 can represent there.
    """
    fmax = float(p.f.max())
    h = min(p.horizon / 64.0, 0.25 / fmax if fmax > 0 else math.inf)
    coarse = _advance(p, h)
    for _ in range(_MAX_HALVINGS):
        if coarse.blow_up:
            return coarse
        h *= 0.5
        fine = _advance(p, h)
        if fine.blow_up:
            return fine
        if abs(fine.log_y[-1] - coarse.log_y[-1]) < _REL_TOL * max(1.0, abs(fine.log_y[-1])):
            return fine
        coarse = fine
    raise RuntimeError(
        f"majorant step did not converge to relative {_REL_TOL} in {_MAX_HALVINGS} halvings"
    )


def log_gronwall_bound(p: OsgoodProblem, t: float) -> float:
    """ln of the closed-form envelope (2/nu^2)^(int f) * (nu + int g + nu int g0^2)."""
    if p.nu >= 1:
        raise ValueError("the closed-form envelope requires nu < 1")
    mass = p.nu + _integral_to(p.times, p.g, t) + p.nu * _integral_to(p.times, p.g0**2, t)
    return _integral_to(p.times, p.f, t) * math.log(2.0 / p.nu**2) + math.log(mass)


@dataclass(frozen=True)
class RateBound:
    """Explicit convergence-rate exponent exp(-2 M T) and its finite iterates."""

    M: float
    T: float
    exponent: float
    iterates: dict = field(default_factory=dict)  # n -> (1 - T/n)^(2 M n), None if T/n >= 1
    monotone: bool = True
    extrapolated: float | None = None

    def __post_init__(self) -> None:
        if not (0.0 < self.exponent <= 1.0):
            raise ValueError("exponent must lie in (0, 1]")
        if (self.exponent == 1.0) != (self.M * self.T == 0.0):
            raise ValueError("exponent equals 1 exactly when M * T = 0")


def rate_iterate(M: float, T: float, n: float) -> float | None:
    """(1 - T/n)^(2 M n) for a finite n > 0; undefined (None) when T/n >= 1."""
    if not 0 < n < math.inf:  # nan fails too
        raise ValueError(f"rate iterate needs a finite n > 0, got {n}")
    if T / n >= 1.0:
        return None
    return math.exp(2.0 * M * n * math.log1p(-T / n))


def rate_exponent(M: float, T: float, n_values=None) -> RateBound:
    """Limit exponent exp(-2 M T), requested iterates, and a Richardson limit."""
    if not (M >= 0 and T > 0 and math.isfinite(M) and math.isfinite(T)):
        raise ValueError("require M >= 0 finite and T > 0 finite")
    exponent = math.exp(-2.0 * M * T)
    iterates: dict = {}
    if n_values is not None:
        for n in n_values:
            iterates[n] = rate_iterate(M, T, n)
    defined = [v for _, v in sorted(iterates.items()) if v is not None]
    monotone = all(a <= b + 1e-15 for a, b in zip(defined, defined[1:]))
    # Richardson extrapolation of s(n) = L + c1/n + c2/n^2 + ... on n0 * 2^k
    n0 = max(1024.0, 2.0 * T)
    depth = 8
    table = [rate_iterate(M, T, n0 * 2**k) for k in range(depth)]
    for m in range(1, depth):
        table = [
            (2**m * table[k + 1] - table[k]) / (2**m - 1) for k in range(len(table) - 1)
        ]
    return RateBound(
        M=M,
        T=T,
        exponent=exponent,
        iterates=iterates,
        monotone=monotone,
        extrapolated=table[0],
    )


@dataclass(frozen=True)
class MajorizationReport:
    passed: bool
    first_violation_time: float | None
    max_log_excess: float
    tolerance: float
    checked_until: float  # time of the last sample the majorant was integrated to
    informative_samples: int  # samples with x > 0 up to checked_until


def check_majorization(
    times: np.ndarray,
    x_squared: np.ndarray,
    problem: OsgoodProblem,
    tol: float = 0.05,
) -> MajorizationReport:
    """Check measured samples x(t) against the majorant: x <= y * (1 + tol).

    `times` must be finite, 1-D, strictly increasing from >= 0 and end at
    the problem's horizon; `x_squared` holds the measured squared-gap
    samples, each finite and nonnegative (else ValueError).  Comparisons
    run in log space so astronomically large majorants are handled exactly.

    y never decreases (f, g, g0 >= 0 make every RK4 stage slope >= 0), so
    after sample k no sample can exceed y (1 + tol) by more than
    ln(max_{j>k} x_j) - ln y(t_k) - ln(1 + tol).  The majorant is integrated
    on growing prefixes [0, t_k] of the problem (OsgoodProblem.truncated),
    each converged by integrate_majorant; each prefix holds at least twice
    the samples and twice the horizon of the one before.  The check stops
    at the first prefix holding a sample k whose bound is at most the
    largest excess over samples <= k.  Past it no sample can fail or raise
    `max_log_excess`, so the report keeps its meaning over all samples.  If
    that never happens the last prefix is the whole problem: at most
    log2(len(times)) + 1 integrations whose horizons sum to under twice the
    problem's, so, at the whole problem's converged step, at most about
    twice the work of one full integration.  A prefix whose ln y(t_k) is
    near 0 can converge at a finer step, as the tolerance is relative to
    max(1, |ln y|).
    """
    times = np.asarray(times, dtype=float)
    x = np.asarray(x_squared, dtype=float)
    if times.shape != x.shape:
        raise ValueError("times and samples must have matching shapes")
    if times.ndim != 1 or len(times) == 0 or not np.all(np.isfinite(times)):
        raise ValueError("sample times must be a nonempty, finite 1-D array")
    if times[0] < 0 or np.any(np.diff(times) <= 0):
        raise ValueError("sample times must start at >= 0 and strictly increase")
    if abs(times[-1] - problem.horizon) > 1e-9 * max(1.0, problem.horizon):
        raise ValueError("sample horizon does not match the majorant horizon")
    if not np.all(np.isfinite(x)) or x.min() < 0:
        raise ValueError("squared-gap samples must be finite and nonnegative")
    with np.errstate(divide="ignore"):
        log_x = np.where(x > 0, np.log(x), -np.inf)
    later = np.append(np.maximum.accumulate(log_x[::-1])[-2::-1], -np.inf)  # ln max_{j>k} x_j
    slack = math.log1p(tol)
    m = 2 if times[0] == 0.0 else 1  # the first prefix ends past t = 0
    while True:
        m = min(m, len(times))
        whole = m == len(times)
        traj = integrate_majorant(problem if whole else problem.truncated(float(times[m - 1])))
        log_y = traj.log_y_at(times[:m])
        excess = log_x[:m] - (log_y + slack)
        running = np.maximum.accumulate(np.where(np.isfinite(excess), excess, -np.inf))
        if whole or np.any(later[:m] - (log_y + slack) <= running):
            break
        m = max(2 * m, int(np.searchsorted(times, 2.0 * times[m - 1])) + 1)
    bad = np.nonzero(excess > 0)[0]
    return MajorizationReport(
        passed=len(bad) == 0,
        first_violation_time=float(times[bad[0]]) if len(bad) else None,
        max_log_excess=float(running[-1]),
        tolerance=tol,
        checked_until=float(times[m - 1]),
        informative_samples=int(np.count_nonzero(x[:m] > 0)),
    )
