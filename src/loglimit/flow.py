"""Pseudo-spectral solver for 2D incompressible flow on the torus.

The state is the (mean-free) vorticity spectrum; velocity is recovered by
the Biot-Savart multiplier, which keeps it divergence-free to rounding.
Time stepping is RK4 with the viscous term integrated exactly per stage by
an integrating factor, and the quadratic advection product is dealiased with
the 2/3 rule.  With zero viscosity the scheme is a plain dealiased RK4 for
the Euler equations.

A run records, at every sample time, the norm series needed by the majorant
machinery: f0 (mean-oscillation seminorm of the velocity gradient, summed
over the four components), g0 = ||grad u||_L2, h0 = ||u||_{L_{2+sigma}},
kinetic energy, and enstrophy.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .grid import (GridSpec, ScalarField, VectorField, _biot_savart_multiplier, _dealias_mask,
                   _derivative_multiplier, _laplacian, _mode_box, curl, derivative,
                   inverse_transform, leray_project)
from .norms import bmo_seminorm, lp_norm

SERIES_CSV_HEADER = ("t", "f0", "g0", "h0", "energy", "enstrophy")
BLOW_UP_SPEED = 1e8  # a sample with max |u| above this marks the run as blown up


@dataclass(frozen=True)
class SolverConfig:
    grid: GridSpec
    nu: float
    horizon: float
    cfl: float = 0.5
    output_stride: int = 1
    min_samples: int = 1
    sigma: float = 1.0

    def __post_init__(self) -> None:
        if self.nu < 0:
            raise ValueError("viscosity must be nonnegative")
        if self.horizon <= 0:
            raise ValueError("horizon must be positive")
        if not 0 < self.cfl <= 1:
            raise ValueError("cfl must lie in (0, 1]")
        if self.output_stride < 1 or self.min_samples < 1:
            raise ValueError("output_stride and min_samples must be positive integers")
        if self.sigma <= 0:
            raise ValueError("sigma must be positive")


class FlowState:
    """Vorticity-spectrum snapshot: a state keeps only its dealiased, mean-free
    spectrum and derives the velocity (Biot-Savart) and vorticity through
    grid.inverse_transform on each access; callers bind them once to reuse them."""

    __slots__ = ("grid", "time", "omega_hat")

    def __init__(self, grid: GridSpec, time: float, omega_hat: np.ndarray):
        w = np.array(omega_hat, dtype=complex)
        w[~_dealias_mask(grid.points_per_axis)] = 0.0
        w[0, 0] = 0.0  # torus vorticity has zero mean
        w.setflags(write=False)
        self.grid = grid
        self.time = time
        self.omega_hat = w

    @classmethod
    def from_velocity(cls, u: VectorField, time: float = 0.0) -> "FlowState":
        return cls(u.grid, time, curl(u).spectral)

    @property
    def vorticity(self) -> ScalarField:
        return inverse_transform(self.grid, self.omega_hat)

    @property
    def velocity(self) -> VectorField:
        n = self.grid.points_per_axis
        return VectorField(
            *(inverse_transform(self.grid, _biot_savart_multiplier(n, axis) * self.omega_hat)
              for axis in (1, 2))
        )


def _advection_rhs(grid: GridSpec, omega_hat: np.ndarray) -> np.ndarray:
    """Dealiased -(u . grad omega), acting on normalized coefficients."""
    n = grid.points_per_axis
    dealias = _dealias_mask(n)
    w = np.where(dealias, omega_hat, 0.0) * (n * n)
    u1 = np.real(np.fft.ifft2(_biot_savart_multiplier(n, 1) * w))
    u2 = np.real(np.fft.ifft2(_biot_savart_multiplier(n, 2) * w))
    w1 = np.real(np.fft.ifft2(_derivative_multiplier(n, 1) * w))
    w2 = np.real(np.fft.ifft2(_derivative_multiplier(n, 2) * w))
    product = np.fft.fft2(u1 * w1 + u2 * w2) / (n * n)
    return -np.where(dealias, product, 0.0)


def cfl_timestep(state: FlowState, cfg: SolverConfig) -> float:
    """dt = cfl * h / ||u||_Linf (capped by the horizon for resting fields)."""
    u = state.velocity
    umax = max(float(np.abs(u.u1.values).max()), float(np.abs(u.u2.values).max()))
    if umax == 0.0:
        return cfg.horizon
    return cfg.cfl * state.grid.spacing / umax


def _step_raw(grid: GridSpec, omega_hat: np.ndarray, nu: float, dt: float) -> np.ndarray:
    """One integrating-factor RK4 step of omega_t + u.grad omega = nu Laplace omega."""
    ksq, _ = _laplacian(grid.points_per_axis)
    e_half = np.exp(-nu * ksq * (dt / 2.0)) if nu > 0 else 1.0
    e_full = e_half * e_half if nu > 0 else 1.0
    k1 = _advection_rhs(grid, omega_hat)
    k2 = _advection_rhs(grid, e_half * (omega_hat + (dt / 2.0) * k1))
    k3 = _advection_rhs(grid, e_half * omega_hat + (dt / 2.0) * k2)
    k4 = _advection_rhs(grid, e_full * omega_hat + dt * e_half * k3)
    return e_full * omega_hat + (dt / 6.0) * (e_full * k1 + 2.0 * e_half * (k2 + k3) + k4)


def step(state: FlowState, cfg: SolverConfig, dt: float | None = None) -> FlowState:
    """Advance one RK4 step; dt defaults to the CFL bound of the current state."""
    if dt is None:
        dt = cfl_timestep(state, cfg)
    new_hat = _step_raw(state.grid, state.omega_hat, cfg.nu, dt)
    if not np.all(np.isfinite(new_hat.view(float))):
        raise FloatingPointError("flow step produced non-finite spectrum (blow-up)")
    return FlowState(state.grid, state.time + dt, new_hat)


@dataclass(frozen=True)
class NormSeries:
    """Per-sample norms of a run."""

    times: np.ndarray
    f0: np.ndarray
    g0: np.ndarray
    h0: np.ndarray
    energy: np.ndarray
    enstrophy: np.ndarray

    def write_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(",".join(SERIES_CSV_HEADER) + "\n")
            for row in zip(self.times, self.f0, self.g0, self.h0, self.energy, self.enstrophy):
                fh.write(",".join(f"{v:.17g}" for v in row) + "\n")


def velocity_gradient(u: VectorField) -> tuple[ScalarField, ScalarField, ScalarField, ScalarField]:
    """(d1 u1, d2 u1, d1 u2, d2 u2)."""
    return (
        derivative(u.u1, 1),
        derivative(u.u1, 2),
        derivative(u.u2, 1),
        derivative(u.u2, 2),
    )


def gradient_bmo(grad: tuple[ScalarField, ...]) -> float:
    """Mean-oscillation seminorm of a velocity gradient (the four components
    of velocity_gradient), summed over the components.

    For divergence-free fields d1 u1 = -d2 u2 exactly, and the seminorm is
    sign-blind, so one of the four scans is reused when that identity holds
    to rounding.
    """
    d1u1, d2u1, d1u2, d2u2 = grad
    b11 = bmo_seminorm(d1u1)
    total = b11 + bmo_seminorm(d2u1) + bmo_seminorm(d1u2)
    scale = float(np.abs(d1u1.values).max())
    if float(np.abs(d1u1.values + d2u2.values).max()) <= 1e-12 * max(scale, 1e-300):
        return total + b11
    return total + bmo_seminorm(d2u2)


def gradient_l2(grad: tuple[ScalarField, ...]) -> float:
    """L2 norm of a velocity gradient (the four components of velocity_gradient)."""
    cv = grad[0].grid.cell_volume
    return math.sqrt(sum(float(np.sum(c.values**2)) * cv for c in grad))


def kinetic_energy(u: VectorField) -> float:
    cv = u.grid.cell_volume
    return 0.5 * float(np.sum(u.u1.values**2 + u.u2.values**2)) * cv


def enstrophy_of(omega: ScalarField) -> float:
    return 0.5 * float(np.sum(omega.values**2)) * omega.grid.cell_volume


def speed_field(u: VectorField) -> ScalarField:
    return ScalarField(u.grid, np.sqrt(u.u1.values**2 + u.u2.values**2))


@dataclass(frozen=True)
class RunResult:
    config: SolverConfig
    states: tuple[FlowState, ...]
    series: NormSeries
    dt: float
    blow_up: bool = False

    @property
    def sample_times(self) -> np.ndarray:
        return self.series.times


def run(u0: VectorField, cfg: SolverConfig, compute_norms: bool = True) -> RunResult:
    """Integrate from u0 over [0, horizon], sampling every output_stride steps.

    The initial field is Leray-projected defensively; any mean velocity
    component is dropped by the vorticity formulation, so initial data are
    expected to be mean-free.  The time step is fixed from the initial CFL
    bound (shrunk so that min_samples * output_stride steps at least cover
    the horizon and steps land exactly on sample times), making sample times
    identical across runs that share an initial condition, e.g. a zero
    viscosity reference paired with small viscosity runs.
    """
    u0 = leray_project(u0)
    for comp in (u0.u1, u0.u2):
        if abs(comp.mean()) > 1e-10 * max(1.0, float(np.abs(comp.values).max())):
            raise ValueError("initial velocity must have zero mean on the torus")
    state = FlowState.from_velocity(u0, 0.0)
    dt0 = cfl_timestep(state, cfg)
    chunk = cfg.output_stride
    n_chunks = max(cfg.min_samples, math.ceil(cfg.horizon / (dt0 * chunk)))
    dt = cfg.horizon / (n_chunks * chunk)
    states, rows = [], []
    blow_up = False
    for sample in range(n_chunks + 1):
        if sample:
            try:
                for _ in range(chunk):
                    state = step(state, cfg, dt)
            except FloatingPointError:
                blow_up = True
                break
        states.append(state)
        u = state.velocity  # derived once: the series row and the blow-up check share it
        rows.append(_sample_row(state, u, cfg, compute_norms))
        if _blown(u):
            blow_up = True
            break
    times = np.array([s.time for s in states])
    series = NormSeries(times, *(np.array(col) for col in zip(*rows)))
    return RunResult(cfg, tuple(states), series, dt, blow_up)


def _blown(u: VectorField) -> bool:
    vals = (u.u1.values, u.u2.values)
    return any(not np.all(np.isfinite(v)) for v in vals) or max(
        float(np.abs(v).max()) for v in vals
    ) > BLOW_UP_SPEED


def _sample_row(state: FlowState, u: VectorField, cfg: SolverConfig, compute_norms: bool):
    """(f0, g0, h0, energy, enstrophy) of one sample; u is the state's velocity."""
    grad = velocity_gradient(u)
    return (
        gradient_bmo(grad) if compute_norms else 0.0,
        gradient_l2(grad),
        lp_norm(speed_field(u), 2.0 + cfg.sigma),
        kinetic_energy(u),
        enstrophy_of(state.vorticity),
    )


def paired_velocities(*runs: RunResult) -> Iterator[tuple[VectorField, ...]]:
    """Iterator over the velocities of any number of runs, one tuple per
    sample in the order of `runs`, each velocity derived once.  Raises
    ValueError at the call, not when the iterator is read, unless every run
    was sampled at the first run's times."""
    t_ref = runs[0].sample_times
    for other in runs[1:]:
        t = other.sample_times
        if len(t) != len(t_ref) or not np.allclose(t, t_ref, rtol=0, atol=1e-12):
            raise ValueError("paired runs must share sample times")
    return (tuple(s.velocity for s in states) for states in zip(*(r.states for r in runs)))


def gap_l2(a: VectorField, b: VectorField) -> float:
    """L2 norm of the velocity difference."""
    if a.grid != b.grid:
        raise ValueError("velocity fields live on different grids")
    cv = a.grid.cell_volume
    d1 = a.u1.values - b.u1.values
    d2 = a.u2.values - b.u2.values
    return math.sqrt(float(np.sum(d1 * d1 + d2 * d2)) * cv)


# ---------------------------------------------------------------------------
# reference initial conditions
# ---------------------------------------------------------------------------


def taylor_green_velocity(grid: GridSpec, amplitude: float = 1.0) -> VectorField:
    """u = A (sin x1 cos x2, -cos x1 sin x2): steady for Euler, decays as
    exp(-2 nu t) under viscosity."""
    x1, x2 = grid.coordinates()
    return VectorField.from_values(
        grid,
        amplitude * np.sin(x1) * np.cos(x2),
        -amplitude * np.cos(x1) * np.sin(x2),
    )


def taylor_green_vorticity(grid: GridSpec, amplitude: float = 1.0) -> ScalarField:
    x1, x2 = grid.coordinates()
    return ScalarField(grid, 2.0 * amplitude * np.sin(x1) * np.sin(x2))


def two_mode_velocity(grid: GridSpec) -> VectorField:
    """Superposition of the Taylor-Green cell and a tilted (2, 1) mode."""
    x1, x2 = grid.coordinates()
    omega = 2.0 * np.sin(x1) * np.sin(x2) + np.cos(2.0 * x1 + x2)
    return FlowState(grid, 0.0, ScalarField(grid, omega).spectral).velocity


def random_band_velocity(grid: GridSpec, seed: int = 42) -> VectorField:
    """Random band-limited field (modes with 1 <= max|k_i| <= 4), fixed seed.

    Normalized so ||u||_L2 matches the Taylor-Green value pi * sqrt(2).
    """
    rng = np.random.default_rng(seed)
    noise = ScalarField(grid, rng.standard_normal(grid.shape)).spectral
    # FlowState drops the zero mode
    state = FlowState(grid, 0.0, np.where(_mode_box(grid.points_per_axis, 4), noise, 0.0))
    u = state.velocity
    target = float(np.pi * np.sqrt(2.0))
    norm = math.sqrt(2.0 * kinetic_energy(u))
    scale = target / norm if norm > 0 else 1.0
    return VectorField.from_values(grid, u.u1.values * scale, u.u2.values * scale)


# ---------------------------------------------------------------------------
# discrete energy-difference identity for paired runs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IdentityTerms:
    """Interior-sample terms of the energy-difference identity

        d/dt (1/2 ||w||_L2^2) + int (w . grad uE) . w + nu int grad uN : grad w = 0

    for w = uN - uE.  The time derivative uses a fourth-order centered
    stencil on the sampled series, so the residual shrinks at the stencil
    order once the solver error is below it.
    """

    times: np.ndarray
    ddt_half_gap_sq: np.ndarray
    advection: np.ndarray
    viscous: np.ndarray

    @property
    def residual(self) -> np.ndarray:
        return self.ddt_half_gap_sq + self.advection + self.viscous

    @property
    def largest_term(self) -> float:
        return max(
            float(np.abs(self.ddt_half_gap_sq).max()),
            float(np.abs(self.advection).max()),
            float(np.abs(self.viscous).max()),
        )


def energy_identity_terms(run_nu: RunResult, run_euler: RunResult) -> IdentityTerms:
    """Evaluate the identity in one pass over paired runs sharing sample times."""
    pairs = paired_velocities(run_nu, run_euler)
    t_n = run_nu.sample_times
    if len(t_n) < 5:
        raise ValueError("need at least 5 samples for the interior stencil")
    nu = run_nu.config.nu
    cv = run_nu.config.grid.cell_volume
    interior = range(2, len(t_n) - 2)
    half_gap_sq = np.zeros(len(t_n))
    adv = np.zeros(len(interior))
    visc = np.zeros(len(interior))
    for i, (u_n, u_e) in enumerate(pairs):
        half_gap_sq[i] = 0.5 * gap_l2(u_n, u_e) ** 2
        if i not in interior:
            continue
        w1 = u_n.u1.values - u_e.u1.values
        w2 = u_n.u2.values - u_e.u2.values
        grad_e = velocity_gradient(u_e)
        # sum_ij w_i w_j d_i uE_j with (d1u1, d2u1, d1u2, d2u2) ordering
        adv[i - 2] = float(
            np.sum(
                w1 * w1 * grad_e[0].values
                + w2 * w1 * grad_e[1].values
                + w1 * w2 * grad_e[2].values
                + w2 * w2 * grad_e[3].values
            )
            * cv
        )
        grad_n = velocity_gradient(u_n)
        grad_gap = velocity_gradient(VectorField.from_values(u_n.grid, w1, w2))
        visc[i - 2] = nu * float(
            np.sum(sum(gn.values * gw.values for gn, gw in zip(grad_n, grad_gap))) * cv
        )
    dt = t_n[1] - t_n[0]
    ddt = np.array(
        [
            (-half_gap_sq[i + 2] + 8 * half_gap_sq[i + 1] - 8 * half_gap_sq[i - 1] + half_gap_sq[i - 2])
            / (12 * dt)
            for i in interior
        ]
    )
    return IdentityTerms(t_n[2:-2], ddt, adv, visc)
