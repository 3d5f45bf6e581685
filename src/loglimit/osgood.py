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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

_Z_BLOWUP = 1e290  # ln y beyond this is treated as a blow-up of the majorant
_REL_TOL = 1e-8  # step halving stops once y(T) moves by less than this
_MAX_HALVINGS = 16


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
        if t.ndim != 1 or len(t) < 2 or t[0] != 0.0 or np.any(np.diff(t) <= 0):
            raise ValueError("times must be increasing and start at 0")
        for name in ("f", "g", "g0"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.shape != t.shape:
                raise ValueError(f"{name} must be sampled on the same times")
            if not np.all(np.isfinite(arr)) or arr.min() < 0:
                raise ValueError(f"{name} samples must be finite and nonnegative")
            object.__setattr__(self, name, arr)
        if not (self.nu > 0):
            raise ValueError("nu must be positive (the majorant starts at y(0) = nu)")
        if self.log_penalty is None:
            object.__setattr__(self, "log_penalty", math.log1p(1.0 / self.nu))
        elif self.log_penalty < 0:
            raise ValueError("log_penalty must be nonnegative")

    @property
    def horizon(self) -> float:
        return float(self.times[-1])

    @classmethod
    def constant(
        cls,
        M: float,
        nu: float,
        horizon: float,
        g: float = 0.0,
        g0: float = 0.0,
    ) -> "OsgoodProblem":
        t = np.linspace(0.0, horizon, 65)
        ones = np.ones_like(t)
        return cls(t, M * ones, g * ones, g0 * ones, nu)

    def integral_f(self, t: float) -> float:
        return _integral_to(self.times, self.f, t)

    def integral_g(self, t: float) -> float:
        return _integral_to(self.times, self.g, t)

    def integral_g0_squared(self, t: float) -> float:
        return _integral_to(self.times, self.g0**2, t)


def _integral_to(times: np.ndarray, vals: np.ndarray, t: float) -> float:
    """Exact integral of the linear interpolant of (times, vals) over [0, t]."""
    if t < 0 or t > times[-1] * (1 + 1e-12) + 1e-300:
        raise ValueError(f"time {t} outside the sampled horizon {times[-1]}")
    t = min(t, float(times[-1]))
    keep = times < t
    knots = np.append(times[keep], t)
    values = np.append(vals[keep], np.interp(t, times, vals))
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


def _make_rhs(p: OsgoodProblem):
    times, fs, gs, g0s = p.times, p.f, p.g, p.g0
    nu, pen = p.nu, p.log_penalty

    def rhs(t: float, z: float) -> float:
        ft = float(np.interp(t, times, fs))
        forcing = float(np.interp(t, times, gs)) + nu * float(np.interp(t, times, g0s)) ** 2
        val = ft * (abs(z) + 1.0 + pen)
        if forcing > 0.0:
            val += forcing * (math.exp(-z) if -z < 700.0 else math.inf)
        return val

    return rhs


def _rk4(rhs, t: float, z: float, h: float) -> float:
    k1 = rhs(t, z)
    k2 = rhs(t + 0.5 * h, z + 0.5 * h * k1)
    k3 = rhs(t + 0.5 * h, z + 0.5 * h * k2)
    k4 = rhs(t + h, z + h * k3)
    return z + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _advance(p: OsgoodProblem, h_nominal: float) -> Trajectory:
    rhs = _make_rhs(p)
    T = p.horizon
    t, z = 0.0, math.log(p.nu)
    ts, zs = [t], [z]
    while t < T - 1e-14 * T:
        h = min(h_nominal, T - t)
        z_new = _rk4(rhs, t, z, h)
        if not math.isfinite(z_new) or z_new > _Z_BLOWUP:
            return Trajectory(np.array(ts), np.array(zs), blow_up=True)
        if z != 0.0 and z_new != 0.0 and (z < 0.0) != (z_new < 0.0):
            # bisect the step length to land on the |ln y| kink at y = 1
            lo, hi = 0.0, h
            for _ in range(80):
                mid = 0.5 * (lo + hi)
                zm = _rk4(rhs, t, z, mid)
                if zm == 0.0:
                    break
                if (zm < 0.0) == (z < 0.0):
                    lo = mid
                else:
                    hi = mid
            h = 0.5 * (lo + hi)
            t, z = t + h, 0.0
        else:
            t, z = t + h, z_new
        ts.append(t)
        zs.append(z)
    return Trajectory(np.array(ts), np.array(zs))


def integrate_majorant(p: OsgoodProblem) -> Trajectory:
    """RK4 trajectory refined until halving the step moves y(T) by < 1e-8.

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
    return coarse


def log_gronwall_bound(p: OsgoodProblem, t: float) -> float:
    """ln of the closed-form envelope (2/nu^2)^(int f) * (nu + int g + nu int g0^2)."""
    if p.nu >= 1:
        raise ValueError("the closed-form envelope requires nu < 1")
    mass = p.nu + p.integral_g(t) + p.nu * p.integral_g0_squared(t)
    return p.integral_f(t) * math.log(2.0 / p.nu**2) + math.log(mass)


def gronwall_bound(p: OsgoodProblem, t: float) -> float:
    """Closed-form envelope value (inf if it overflows a float)."""
    logval = log_gronwall_bound(p, t)
    return math.exp(logval) if logval < 709.0 else math.inf


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
    """(1 - T/n)^(2 M n); undefined (None) when T/n >= 1."""
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


def check_majorization(
    times: np.ndarray,
    x_squared: np.ndarray,
    problem: OsgoodProblem,
    tol: float = 0.05,
) -> MajorizationReport:
    """Check measured samples x(t) against the majorant: x <= y * (1 + tol).

    `x_squared` holds the measured squared-gap samples; comparisons run in
    log space so astronomically large majorants are handled exactly.
    """
    times = np.asarray(times, dtype=float)
    x = np.asarray(x_squared, dtype=float)
    if times.shape != x.shape:
        raise ValueError("times and samples must have matching shapes")
    if abs(times[-1] - problem.horizon) > 1e-9 * max(1.0, problem.horizon):
        raise ValueError("sample horizon does not match the majorant horizon")
    if x.min() < 0:
        raise ValueError("squared-gap samples must be nonnegative")
    traj = integrate_majorant(problem)
    log_y = traj.log_y_at(times)
    with np.errstate(divide="ignore"):
        log_x = np.where(x > 0, np.log(x), -np.inf)
    excess = log_x - (log_y + math.log1p(tol))
    bad = np.nonzero(excess > 0)[0]
    finite_excess = excess[np.isfinite(excess)]
    max_excess = float(finite_excess.max()) if len(finite_excess) else -math.inf
    if len(bad) == 0:
        return MajorizationReport(True, None, max_excess, tol)
    return MajorizationReport(False, float(times[bad[0]]), max_excess, tol)
