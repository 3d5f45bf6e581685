"""Pseudo-spectral solver for 2D incompressible flow on the torus.

The state is the (mean-free) vorticity spectrum; velocity is recovered by
the Biot-Savart multiplier, which keeps it divergence-free to rounding.
Time stepping is RK4 with the viscous term integrated exactly per stage by
an integrating factor, and the quadratic advection product is dealiased with
the 2/3 rule.  With zero viscosity the scheme is a plain dealiased RK4 for
the Euler equations.  Every field of a mode vector (velocity, vorticity,
gradient, the advection product's factors) comes from one helper,
_band_fields: it scales and unpacks the vector once, and takes one band
inverse FFT per field, which transforms only the rows of the 2/3 band
(grid._band_ifft2).  The advection product goes back through a forward FFT
that computes only the kept modes (grid._band_fft2); both give numpy's 2-D
transforms bit for bit, and both run in per-grid scratch arrays
(grid._band_scratch), so a stage allocates little more than its result.

A run's time step is fixed from the initial state at the Courant number CFL,
and every step is a sample.  At every sample the run records the norm series
needed by the majorant machinery: g0 = ||grad u||_L2, h0 = ||u||_L3, kinetic
energy, and enstrophy.  Energy, enstrophy and g0 (= ||omega||_L2) are
Parseval sums over the state's mode vector, with no FFT; h0 is read off the
sample's velocity, which the blow-up test, the CFL record and the first
stage of the next step share.  f0 is 0.0 until a caller maps gradient_bmo
over the states (grid._map_tasks) and sets it (RunResult.with_f0);
gradient_bmo scans three gradient components of the mode vector
(_state_gradient, the one velocity-gradient path of the package).

Paired runs are compared through one gap state, the difference of the two
states' mode vectors (_gap_state, which also checks that they share a grid):
the velocity gap gap_l2 is its L2 norm by Parseval, sup_gap_sq_bound a
bound on the maximum of its squared velocity, and energy_identity_terms
reads the identity's gap terms off it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .grid import (TWO_PI, GridSpec, ScalarField, VectorField, _band_fft2, _band_ifft2,
                   _band_scratch, _biot_savart_multiplier, _dealias_band,
                   _derivative_multiplier, _laplacian, _mode_box, _pack_dealiased,
                   _unpack_band, curl, leray_project, write_csv)
from .norms import _U, bmo_seminorm, lp_norm

SERIES_CSV_HEADER = ("t", "f0", "g0", "h0", "energy", "enstrophy")
BLOW_UP_SPEED = 1e8  # a sample with max |u| above this marks the run as blown up
CFL = 0.5  # the Courant number dt * max(|u1|, |u2|) / h that fixes a run's time step


@dataclass(frozen=True)
class SolverConfig:
    """A run's grid, viscosity and horizon, and the fewest samples (= steps)
    that cover the horizon."""

    grid: GridSpec
    nu: float
    horizon: float
    min_samples: int = 1

    def __post_init__(self) -> None:
        # written so that nan fails each test, as it fails every comparison
        if not 0 <= self.nu < math.inf:
            raise ValueError(f"viscosity must be finite and nonnegative, got {self.nu}")
        if not 0 < self.horizon < math.inf:
            raise ValueError(f"horizon must be finite and positive, got {self.horizon}")
        if self.min_samples < 1:
            raise ValueError("min_samples must be a positive integer")


class FlowState:
    """Vorticity-spectrum snapshot: a state keeps only its dealiased, mean-free
    spectrum and derives the velocity (Biot-Savart) and vorticity on each
    access, through _band_fields, the same bits as grid.inverse_transform of
    the full spectrum; callers bind them once to reuse them.

    Only the modes of the 2/3 rule are stored, as the mode vector that
    grid._pack_dealiased gathers (row-major, zero mode first and set to 0):
    16 * (2 * (n // 3) - 1)**2 bytes (26 896 at n = 64, 41% of the full
    spectrum).  `step` advances that vector as it is; `omega_hat` rebuilds
    the read-only n x n spectrum, zero at the modes that the rule drops, on
    each read."""

    __slots__ = ("grid", "time", "_box")

    def __init__(self, grid: GridSpec, time: float, omega_hat: np.ndarray):
        w = np.asarray(omega_hat, dtype=complex)
        if w.shape != grid.shape:
            raise ValueError(f"spectrum shape {w.shape} does not match grid {grid.shape}")
        self.grid = grid
        self.time = time
        self._box = _pack_dealiased(w)
        self._box[0] = 0.0  # torus vorticity has zero mean: no zero mode

    @classmethod
    def _of_box(cls, grid: GridSpec, time: float, box: np.ndarray) -> "FlowState":
        """The state whose mode vector is `box`, taken over without a copy;
        its zero mode is set to 0."""
        state = cls.__new__(cls)
        state.grid, state.time, state._box = grid, time, box
        box[0] = 0.0
        return state

    @classmethod
    def from_velocity(cls, u: VectorField, time: float = 0.0) -> "FlowState":
        return cls(u.grid, time, curl(u).spectral)

    @property
    def omega_hat(self) -> np.ndarray:
        n = self.grid.points_per_axis
        coeff = np.zeros((n, n), dtype=complex)
        coeff[_dealias_band(n)[0]] = _unpack_band(self._box, n)
        coeff.setflags(write=False)
        return coeff

    @property
    def vorticity(self) -> ScalarField:
        n = self.grid.points_per_axis
        return ScalarField(self.grid, _band_fields(self._box, n, (None,))[0])

    @property
    def velocity(self) -> VectorField:
        n = self.grid.points_per_axis
        u1, u2 = _band_fields(self._box, n, _band_multipliers(n)[0])
        return VectorField.from_values(self.grid, u1, u2)


@lru_cache(maxsize=32)
def _band_multipliers(n: int) -> tuple[tuple[np.ndarray, ...], ...]:
    """The Biot-Savart pair (B1, B2), the derivative pair (D1, D2) and the
    products D_i B_j of _state_gradient's components d_i u_j, (i, j) = (1, 1),
    (2, 1) and (1, 2), each restricted to the band rows of the 2/3 rule
    (grid._dealias_band), read-only."""
    rows = _dealias_band(n)[0]
    biot_savart = tuple(_biot_savart_multiplier(n, axis)[rows] for axis in (1, 2))
    derivative = tuple(_derivative_multiplier(n, axis)[rows] for axis in (1, 2))
    gradient = tuple((_derivative_multiplier(n, i) * _biot_savart_multiplier(n, j))[rows]
                     for i, j in ((1, 1), (2, 1), (1, 2)))
    for a in (*biot_savart, *derivative, *gradient):
        a.setflags(write=False)
    return biot_savart, derivative, gradient


def _band_fields(box: np.ndarray, n: int, mults) -> list[np.ndarray]:
    """The grid values of the mode vector `box` times each multiplier of
    `mults` (band rows, _band_multipliers; None for the vector itself), at
    most four: the vector is scaled by n^2 and unpacked into the band rows
    once, and each field is one band inverse FFT (grid._band_ifft2).  All of
    it runs in the grid's scratch (grid._band_scratch), and the fields are
    real views of its per-field slots: views valid until the next call on
    that grid; every public caller copies (ScalarField does), and
    _advection_rhs consumes them before its forward FFT."""
    scratch = _band_scratch(n)
    w, product = scratch["band"], scratch["product"]
    w[_dealias_band(n)[1]] = box
    w *= n * n
    return [_band_ifft2(w if mult is None else np.multiply(mult, w, out=product), out=slot)
            for mult, slot in zip(mults, scratch["fields"])]


def _advection_rhs(grid: GridSpec, omega_box: np.ndarray,
                   velocity: VectorField | None = None) -> np.ndarray:
    """Dealiased -(u . grad omega) of a mode vector, as a mode vector; both
    hold normalized coefficients in grid._pack_dealiased order.  The factors
    come from _band_fields, and the forward FFT computes only the kept modes
    (grid._band_fft2).  `velocity`, FlowState.velocity of the mode vector,
    is the output of the same _band_fields call, so passing it saves the two
    Biot-Savart inverse FFTs."""
    n = grid.points_per_axis
    biot_savart, derivative, _ = _band_multipliers(n)
    if velocity is None:
        u1, u2, w1, w2 = _band_fields(omega_box, n, biot_savart + derivative)
    else:
        u1, u2 = velocity.u1.values, velocity.u2.values
        w1, w2 = _band_fields(omega_box, n, derivative)
    w1 *= u1  # u1 w1 + u2 w2, formed in _band_fields' scratch
    w2 *= u2
    w1 += w2
    return -(_band_fft2(w1) / (n * n))


def cfl_timestep(state: FlowState, cfg: SolverConfig) -> float:
    """dt = CFL * h / max(|u1|, |u2|) (capped by the horizon for resting fields)."""
    umax = _max_speed(state.velocity)
    if umax == 0.0:
        return cfg.horizon
    return CFL * state.grid.spacing / umax


@lru_cache(maxsize=32)
def _integrating_factors(n: int, nu: float, dt: float) -> tuple:
    """(exp(-nu |k|^2 dt / 2), its square) on the mode vector, read-only;
    (1.0, 1.0) without viscosity.  A run's steps share one dt, so a run
    computes them once."""
    if nu <= 0:
        return 1.0, 1.0
    ksq = _pack_dealiased(_laplacian(n))
    e_half = np.exp(-nu * ksq * (dt / 2.0))
    e_full = e_half * e_half
    for a in (e_half, e_full):
        a.setflags(write=False)
    return e_half, e_full


def _step_raw(grid: GridSpec, omega_box: np.ndarray, nu: float, dt: float,
              velocity: VectorField | None = None) -> np.ndarray:
    """One integrating-factor RK4 step of omega_t + u.grad omega = nu Laplace omega,
    on a mode vector in grid._pack_dealiased order; `velocity`, if given, is
    that of omega_box, for the first stage (_advection_rhs)."""
    e_half, e_full = _integrating_factors(grid.points_per_axis, nu, dt)
    k1 = _advection_rhs(grid, omega_box, velocity)
    k2 = _advection_rhs(grid, e_half * (omega_box + (dt / 2.0) * k1))
    k3 = _advection_rhs(grid, e_half * omega_box + (dt / 2.0) * k2)
    k4 = _advection_rhs(grid, e_full * omega_box + dt * e_half * k3)
    return e_full * omega_box + (dt / 6.0) * (e_full * k1 + 2.0 * e_half * (k2 + k3) + k4)


def step(state: FlowState, cfg: SolverConfig, dt: float | None = None,
         velocity: VectorField | None = None) -> FlowState:
    """Advance one RK4 step; dt defaults to the CFL bound of the current state.
    A caller that holds state.velocity passes it as `velocity`, and the step
    derives it no second time; the result is the same bit for bit."""
    if dt is None:
        dt = cfl_timestep(state, cfg)
    new_box = _step_raw(state.grid, state._box, cfg.nu, dt, velocity)
    if not np.all(np.isfinite(new_box.view(float))):
        raise FloatingPointError("flow step produced non-finite spectrum (blow-up)")
    return FlowState._of_box(state.grid, state.time + dt, new_box)


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
        cols = (self.times, self.f0, self.g0, self.h0, self.energy, self.enstrophy)
        write_csv(path, SERIES_CSV_HEADER, zip(*(c.tolist() for c in cols)))


def _state_gradient(state: FlowState) -> tuple[ScalarField, ScalarField, ScalarField]:
    """(d1 u1, d2 u1, d1 u2) of a state's velocity, each one multiplier product
    of the vorticity spectrum (_band_fields).  The velocity is
    divergence-free, so the fourth component d2 u2 is -d1 u1 exactly."""
    n = state.grid.points_per_axis
    fields = _band_fields(state._box, n, _band_multipliers(n)[2])
    return tuple(ScalarField(state.grid, v) for v in fields)


def gradient_bmo(state: FlowState) -> float:
    """Mean-oscillation seminorm of a state's velocity gradient, summed over
    its four components; d2 u2 = -d1 u1, so the sign-blind seminorm of d1 u1
    counts twice."""
    d1u1, d2u1, d1u2 = _state_gradient(state)
    return 2.0 * bmo_seminorm(d1u1) + bmo_seminorm(d2u1) + bmo_seminorm(d1u2)


def _energy_enstrophy(state: FlowState) -> tuple[float, float]:
    """(1/2 ||u||_L2^2, 1/2 ||omega||_L2^2) of a state, by Parseval over its
    mode vector: (2 pi)^2 / 2 sum_k (|B1_k|^2 + |B2_k|^2) |w_k|^2 and
    (2 pi)^2 / 2 sum_k |w_k|^2."""
    sq = state._box.real**2 + state._box.imag**2
    weights = _biot_savart_moduli(state.grid.points_per_axis)[1]
    half_area = 0.5 * TWO_PI * TWO_PI
    return half_area * float(np.sum(weights * sq)), half_area * float(np.sum(sq))


@dataclass(frozen=True)
class RunResult:
    """A run's states and series, f0 0.0 until with_f0 sets it.  max_cfl is
    the realised CFL number, the largest dt * max(|u1|, |u2|) / h over the
    samples: the fixed dt is set from the initial speed, so a flow that
    speeds up can exceed CFL."""

    config: SolverConfig
    states: tuple[FlowState, ...]
    series: NormSeries
    dt: float
    max_cfl: float
    blow_up: bool = False

    @property
    def sample_times(self) -> np.ndarray:
        return self.series.times

    def with_f0(self, f0) -> "RunResult":
        """This run with f0 (gradient_bmo of each state) as its series' f0."""
        return replace(self, series=replace(self.series, f0=np.array(f0, dtype=float)))


def run(u0: VectorField, cfg: SolverConfig) -> RunResult:
    """Integrate from u0 over [0, horizon], sampling after every step.

    The initial field is Leray-projected defensively; any mean velocity
    component is dropped by the vorticity formulation, so initial data are
    expected to be mean-free.  The time step is fixed from the initial CFL
    bound, shrunk so that at least min_samples steps cover the horizon and
    the last lands on it: dt = T / max(min_samples, ceil(T / dt_CFL)).  That
    makes sample times identical across runs that share an initial
    condition, e.g. a zero viscosity reference paired with small viscosity
    runs.  f0 is left 0.0.
    """
    u0 = leray_project(u0)
    for comp in (u0.u1, u0.u2):
        if abs(comp.mean()) > 1e-10 * max(1.0, float(np.abs(comp.values).max())):
            raise ValueError("initial velocity must have zero mean on the torus")
    state = FlowState.from_velocity(u0, 0.0)
    n_steps = max(cfg.min_samples, math.ceil(cfg.horizon / cfl_timestep(state, cfg)))
    dt = cfg.horizon / n_steps
    states, rows = [], []
    blow_up, max_cfl = False, 0.0
    for sample in range(n_steps + 1):
        if sample:
            try:
                state = step(state, cfg, dt, velocity=u)
            except FloatingPointError:
                blow_up = True
                break
        states.append(state)
        u = state.velocity  # derived once: the row, the blow-up test and the next step share it
        rows.append(_sample_row(state, u))
        umax = _max_speed(u)
        max_cfl = max(max_cfl, dt * umax / cfg.grid.spacing)
        # a ScalarField holds only finite values, so the speed cap is the one test
        if umax > BLOW_UP_SPEED:
            blow_up = True
            break
    times = np.array([s.time for s in states])
    series = NormSeries(times, *(np.array(col) for col in zip(*rows)))
    return RunResult(cfg, tuple(states), series, dt, max_cfl, blow_up)


def _max_speed(u: VectorField) -> float:
    """max(|u1|, |u2|) over the grid."""
    return max(float(np.abs(c.values).max()) for c in (u.u1, u.u2))


def _sample_row(state: FlowState, u: VectorField):
    """(f0, g0, h0, energy, enstrophy) of one sample, f0 = 0.0 (unscanned);
    u is the state's velocity.  Only h0 = ||u||_L3 reads u; g0 =
    ||omega||_L2, as for any mean-free, divergence-free field on the torus."""
    energy, enstrophy = _energy_enstrophy(state)
    return (
        0.0,
        math.sqrt(2.0 * enstrophy),
        lp_norm(ScalarField(u.grid, np.sqrt(u.u1.values**2 + u.u2.values**2)), 3.0),
        energy,
        enstrophy,
    )


def require_shared_sample_times(*runs: RunResult) -> None:
    """Raises ValueError unless every run was sampled at the first run's times."""
    t_ref = runs[0].sample_times
    for other in runs[1:]:
        t = other.sample_times
        if len(t) != len(t_ref) or not np.allclose(t, t_ref, rtol=0, atol=1e-12):
            raise ValueError("paired runs must share sample times")


@lru_cache(maxsize=32)
def _biot_savart_moduli(n: int) -> tuple[np.ndarray, np.ndarray]:
    """|B1|, |B2| of the Biot-Savart multipliers on the mode vector, as one
    read-only (2, modes) array, and the read-only weights |B1|^2 + |B2|^2."""
    moduli = np.abs(np.stack([_pack_dealiased(_biot_savart_multiplier(n, axis)) for axis in (1, 2)]))
    weights = moduli[0] ** 2 + moduli[1] ** 2
    for a in (moduli, weights):
        a.setflags(write=False)
    return moduli, weights


def _gap_state(a: FlowState, b: FlowState) -> FlowState:
    """The state whose mode vector is a's minus b's: its velocity is
    u_a - u_b, its vorticity omega_a - omega_b, at a's time."""
    if a.grid != b.grid:
        raise ValueError("flow states live on different grids")
    return FlowState._of_box(a.grid, a.time, a._box - b._box)


def gap_l2(a: FlowState, b: FlowState) -> float:
    """L2 norm of the velocity difference of two states, from the gap
    state's mode vector w by Parseval:
    2 pi sqrt(sum_k (|B1_k|^2 + |B2_k|^2) |w_k|^2).

    It subtracts the coefficients, not two nearly equal inverse FFTs, so a
    small gap keeps its relative accuracy, and no velocity is derived."""
    d = _gap_state(a, b)._box
    weights = _biot_savart_moduli(a.grid.points_per_axis)[1]
    return TWO_PI * math.sqrt(float(np.sum(weights * (d.real * d.real + d.imag * d.imag))))


_FFT_SLACK = 1e-9  # relative to a state's l1 mass of velocity coefficients; see sup_gap_sq_bound


def sup_gap_sq_bound(a: FlowState, b: FlowState) -> float:
    """An upper bound on max_x w1^2 + w2^2, w the gap state's velocity
    (_gap_state(a, b).velocity, as measured_forcing derives it) or the
    difference of a.velocity and b.velocity, as computed on the grid,
    rounding included, from the two mode vectors alone: no velocity is derived.

    Exactly, with the packed multipliers B_i as computed and d the computed
    a - b, w_i is the real part of sum_k B_ik d_k e^{ik.x}, so |w_i| <= W_i =
    sum_k |B_ik| |d_k| at every x (Wiener).  Rounding, with u the unit
    roundoff: a computed component is real(ifft2(n^2 B_i x)), x = d, a or b;
    B_i is imaginary, so the product is rounded once, and the scalings by
    n^2 and 1/n^2 are exact (powers of two).  A length-N FFT returns each
    output within c log2(N) u sum_k |x_k| of the exact sum, c a small
    constant (a few roundings and one twiddle factor per butterfly stage,
    every intermediate value at most the l1 mass below it), so each computed
    component is within (c log2(n^2) + 1) u sum_k |B_ik| |x_k| of the exact
    one.  The bound widens |d_k| by eps (|a_k| + |b_k|) >= eps |d_k| / (1 + u),
    with eps = 1e-9 > 9e6 u, which covers c log2(n^2) + 1 up to 9e6, far
    beyond any grid, for x = d and x = a, b alike, and the rounding of d
    (at most u |d_k|) too.  A velocity difference, squares and sum add at
    most 4 roundings, and the bound's own sums of M positive terms, in any
    order, lie within M u / (1 - M u) of the exact ones (M modes); with the
    roundings of their terms, the factor 1 + 4 (M + 8) u covers all of
    these.  Underflow moves a value by at most about 2^-1000 here: the
    absolute 2^-500 covers it.
    """
    moduli = _biot_savart_moduli(a.grid.points_per_axis)[0]
    mass = np.abs(_gap_state(a, b)._box)
    mass += _FFT_SLACK * (np.abs(a._box) + np.abs(b._box))
    w1, w2 = moduli @ mass
    return float((w1 * w1 + w2 * w2) * (1.0 + 4 * (len(mass) + 8) * _U) + 2.0**-500)


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
    norm = math.sqrt(2.0 * _energy_enstrophy(state)[0])
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
    """Evaluate the identity in one pass over paired runs sharing sample times,
    from the mode vectors of each sample's gap state w = uN - uE.

    1/2 ||w||_L2^2 is the gap state's energy, a Parseval sum.  For
    divergence-free a and b on the torus, int grad a : grad b =
    int curl a curl b, so the viscous term is the Parseval pairing of the
    vorticities, nu (2 pi)^2 sum_k Re(omegaN_k conj(omegaW_k)).  Only the
    advection term is a grid sum: w (two inverse FFTs) against d1 uE1, d2 uE1
    and d1 uE2 (three more), with d2 uE2 = -d1 uE1.  That is 5 band inverse
    FFTs (grid._band_ifft2) per interior sample and none at the two samples
    at either end, which enter only the stencil."""
    require_shared_sample_times(run_nu, run_euler)
    t_n = run_nu.sample_times
    if len(t_n) < 5:
        raise ValueError("need at least 5 samples for the interior stencil")
    nu = run_nu.config.nu
    cv = run_nu.config.grid.cell_volume
    interior = range(2, len(t_n) - 2)
    half_gap_sq = np.zeros(len(t_n))
    adv = np.zeros(len(interior))
    visc = np.zeros(len(interior))
    for i, (s_n, s_e) in enumerate(zip(run_nu.states, run_euler.states)):
        gap = _gap_state(s_n, s_e)
        half_gap_sq[i] = _energy_enstrophy(gap)[0]
        if i not in interior:
            continue
        w = gap.velocity
        w1, w2 = w.u1.values, w.u2.values
        d1u1, d2u1, d1u2 = (c.values for c in _state_gradient(s_e))
        # sum_ij w_i w_j d_i uE_j with d2 uE2 = -d1 uE1
        adv[i - 2] = float(np.sum((w1 * w1 - w2 * w2) * d1u1 + w1 * w2 * (d2u1 + d1u2)) * cv)
        a, b = s_n._box, gap._box
        visc[i - 2] = nu * TWO_PI * TWO_PI * float(np.sum(a.real * b.real + a.imag * b.imag))
    dt = t_n[1] - t_n[0]
    ddt = np.array(
        [
            (-half_gap_sq[i + 2] + 8 * half_gap_sq[i + 1] - 8 * half_gap_sq[i - 1] + half_gap_sq[i - 2])
            / (12 * dt)
            for i in interior
        ]
    )
    return IdentityTerms(t_n[2:-2], ddt, adv, visc)
