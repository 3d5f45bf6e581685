"""Independent brute-force oracles used by the tests.

Everything here is deliberately naive: direct DFT double sums, python-loop
square scans, and fsum quadrature.  These implementations share no code with
the package paths they check.  `dealiased_spectrum` is the full-array 2/3-rule
masking flow states did before they kept only the mode box, and
`full_array_step` the solver step on full n x n spectra from before the
solver stepped that box as a mode vector; it builds its 2/3 mask from its
own wavenumbers but takes its Fourier symbols from loglimit.grid, so it
checks the mode-vector layout, not the symbols.
`longdouble_state_gap` is the Parseval velocity gap of two flow states in
extended precision, `velocity_gap_l2` the velocity gap of two grid velocity
fields by the grid sum (the package's gap_l2 before it took flow states),
and `physical_sample_norms` a state's energy, enstrophy and
velocity-gradient L2 norm from grid sums of the fields.
`velocity_gradient` is the four-component gradient of a velocity field by
loglimit.grid.derivative, and `physical_identity_terms` the energy-difference
identity of two runs in velocity space, as the package evaluated both
before it took the gradient and the identity from mode vectors.  The majorant
integrator is the np.interp-based one the package's coefficient lookup
replaced; it is kept as the reference that lookup must match bit for bit.  `std_pruned_bmo_seminorm` at the end is the
BMO scan pruned by the standard-deviation bound alone, from before wide
levels also took the sub-square chord bound; the package's scan must return
its float exactly, and `full_grid_chord_bounds` the chord bound at every
square from before the package evaluated it at the squares still live.
`duality_ratio` and `riesz_l1_chain` apply this
module's formulas for the duality constant and the Riesz-chain constants to
the package's public norms of one field or pair: the references for the
constants that logineq.scan_corpus derives from the norms it computes once
per field.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from loglimit.grid import _biot_savart_multiplier, _derivative_multiplier, _laplacian, derivative
from loglimit.logineq import pairing
from loglimit.norms import bmo_seminorm, hardy_norm, lp_norm, riesz_l1

TWO_PI = 2.0 * math.pi


def brute_lp_norm(values: np.ndarray, p: float) -> float:
    n = values.shape[0]
    cv = (TWO_PI / n) ** 2
    if p == math.inf:
        return max(abs(v) for v in values.ravel())
    return math.fsum(abs(v) ** p * cv for v in values.ravel()) ** (1.0 / p)


def brute_bmo_seminorm(values: np.ndarray) -> float:
    """Sup of mean absolute deviation over all dyadic squares, python loops.

    The field's exactly summed mean is subtracted first: the seminorm is blind
    to constants, and a square's mean of values far from zero would otherwise
    round at the offset's scale, not the field's.
    """
    n = values.shape[0]
    values = values - math.fsum(values.ravel()) / values.size
    best = 0.0
    s = n
    while s >= 1:
        for i in range(n):
            for j in range(n):
                if s == n and (i, j) != (0, 0):
                    continue  # all translates of the full square coincide
                rows = [(i + a) % n for a in range(s)]
                cols = [(j + b) % n for b in range(s)]
                block = values[np.ix_(rows, cols)]
                mu = math.fsum(block.ravel()) / s**2
                mad = math.fsum(abs(v - mu) for v in block.ravel()) / s**2
                best = max(best, mad)
        s //= 2
    return best


def translate_bmo_seminorm(values: np.ndarray) -> float:
    """Sup of mean absolute deviation over all dyadic squares, every square
    evaluated: per side s, the s^2 wrapped translates of the centered field sum
    every square's cells at once, so all n^2 translates of a level are read."""
    n = values.shape[0]
    v = values - values.mean()
    best = float(np.abs(v).mean())
    s = n // 2
    while s >= 2:
        padded = np.pad(v, ((0, s - 1), (0, s - 1)), mode="wrap")
        offsets = [(a, b) for a in range(s) for b in range(s)]
        mean = np.zeros((n, n))
        for a, b in offsets:
            mean += padded[a : a + n, b : b + n]
        mean /= s * s
        mad = np.zeros((n, n))
        for a, b in offsets:
            mad += np.abs(padded[a : a + n, b : b + n] - mean)
        best = max(best, float(mad.max()) / (s * s))
        s //= 2
    return best


def brute_riesz(values: np.ndarray, axis: int) -> np.ndarray:
    """Direct O(n^4) DFT evaluation of the -i k_axis / |k| multiplier."""
    n = values.shape[0]
    ks = np.fft.fftfreq(n, d=1.0 / n)
    coeff = np.zeros((n, n), dtype=complex)
    x = np.arange(n) * TWO_PI / n
    for a, k1 in enumerate(ks):
        for b, k2 in enumerate(ks):
            phase = np.exp(-1j * (k1 * x[:, None] + k2 * x[None, :]))
            coeff[a, b] = (values * phase).sum() / n**2
    out = np.zeros((n, n), dtype=complex)
    for a, k1 in enumerate(ks):
        for b, k2 in enumerate(ks):
            kk = math.hypot(k1, k2)
            if kk == 0 or a == n // 2 or b == n // 2:
                continue
            mult = -1j * (k1 if axis == 1 else k2) / kk
            phase = np.exp(1j * (k1 * x[:, None] + k2 * x[None, :]))
            out += mult * coeff[a, b] * phase
    return np.real(out)


def brute_hardy_norm(values: np.ndarray) -> float:
    n = values.shape[0]
    mean = math.fsum(values.ravel()) / n**2
    centered = values - mean
    total = brute_lp_norm(centered, 1) + abs(mean) * TWO_PI**2
    for axis in (1, 2):
        total += brute_lp_norm(brute_riesz(centered, axis), 1)
    return total


def brute_zygmund(values: np.ndarray, lam: float) -> float:
    n = values.shape[0]
    cv = (TWO_PI / n) ** 2
    return math.fsum(
        v * math.log(v / lam) * cv for v in values.ravel() if v > lam
    )


def centered_difference(values: np.ndarray, axis: int, spacing: float) -> np.ndarray:
    """Second-order periodic finite difference."""
    ax = 0 if axis == 1 else 1
    return (np.roll(values, -1, axis=ax) - np.roll(values, 1, axis=ax)) / (2 * spacing)


def random_band_limited(n: int, band: int, seed: int) -> np.ndarray:
    """Real field with spectrum confined to max|k_i| <= band, unit-ish scale."""
    rng = np.random.default_rng(seed)
    k = np.fft.fftfreq(n, d=1.0 / n)
    mask = (np.abs(k[:, None]) <= band) & (np.abs(k[None, :]) <= band)
    spec = np.fft.fft2(rng.standard_normal((n, n))) * mask
    vals = np.real(np.fft.ifft2(spec))
    return vals / max(1e-12, np.abs(vals).max())


def dealiased_spectrum(omega_hat: np.ndarray) -> np.ndarray:
    """A flow state's spectrum as the full-array solver built it: a complex
    copy with every mode of |k1| or |k2| above n // 3 - 1 zeroed, then the
    zero mode zeroed."""
    n = omega_hat.shape[0]
    w = np.array(omega_hat, dtype=complex)
    outside = np.abs(np.fft.fftfreq(n, d=1.0 / n)) > n // 3 - 1
    w[outside, :] = 0.0
    w[:, outside] = 0.0
    w[0, 0] = 0.0
    return w


# The solver step as it was on full n x n spectra, both 2/3-rule masks
# applied with np.where: the package's mode-vector stepper must reproduce
# its dealiased spectra bit for bit.


def _full_array_advection_rhs(grid, omega_hat: np.ndarray) -> np.ndarray:
    """Dealiased -(u . grad omega), acting on normalized coefficients."""
    n = grid.points_per_axis
    keep = np.abs(np.fft.fftfreq(n, d=1.0 / n)) <= n // 3 - 1
    dealias = keep[:, None] & keep[None, :]
    w = np.where(dealias, omega_hat, 0.0) * (n * n)
    u1 = np.real(np.fft.ifft2(_biot_savart_multiplier(n, 1) * w))
    u2 = np.real(np.fft.ifft2(_biot_savart_multiplier(n, 2) * w))
    w1 = np.real(np.fft.ifft2(_derivative_multiplier(n, 1) * w))
    w2 = np.real(np.fft.ifft2(_derivative_multiplier(n, 2) * w))
    product = np.fft.fft2(u1 * w1 + u2 * w2) / (n * n)
    return -np.where(dealias, product, 0.0)


def full_array_step(grid, omega_hat: np.ndarray, nu: float, dt: float) -> np.ndarray:
    """One integrating-factor RK4 step of omega_t + u.grad omega = nu Laplace omega."""
    ksq = _laplacian(grid.points_per_axis)
    e_half = np.exp(-nu * ksq * (dt / 2.0)) if nu > 0 else 1.0
    e_full = e_half * e_half if nu > 0 else 1.0
    k1 = _full_array_advection_rhs(grid, omega_hat)
    k2 = _full_array_advection_rhs(grid, e_half * (omega_hat + (dt / 2.0) * k1))
    k3 = _full_array_advection_rhs(grid, e_half * omega_hat + (dt / 2.0) * k2)
    k4 = _full_array_advection_rhs(grid, e_full * omega_hat + dt * e_half * k3)
    return e_full * omega_hat + (dt / 6.0) * (e_full * k1 + 2.0 * e_half * (k2 + k3) + k4)


def duality_ratio(f, g) -> float | None:
    """Empirical constant of |int f g| <= C * ||f||_BMO * ||g||_H1, None if
    the right-hand factor vanishes."""
    denom = bmo_seminorm(f) * hardy_norm(g)
    return None if denom == 0.0 else abs(pairing(f, g)) / denom


def riesz_l1_chain(g) -> dict:
    """Both sides of ||R_k g||_L1 <= c ||g||_L1 (1 + 2 ln(||g||_oo + 1) + |ln ||g||_L1|),
    and c_k, their quotient for k = 1, 2 (None if the right side vanishes)."""
    l1g, linfg = lp_norm(g, 1), lp_norm(g, np.inf)
    rhs = l1g * (1.0 + 2.0 * math.log1p(linfg) + (abs(math.log(l1g)) if l1g > 0 else 0.0))
    out = {"rhs_factor": rhs, "l1": l1g, "linf": linfg}
    for axis, lhs in zip((1, 2), riesz_l1(g)):
        out[f"lhs_{axis}"] = lhs
        out[f"c_{axis}"] = (lhs / rhs) if rhs > 0 else None
    return out


def longdouble_state_gap(hat_a: np.ndarray, hat_b: np.ndarray) -> float:
    """L2 norm of the velocity difference of two flow states, from their n x n
    vorticity spectra (zero outside the 2/3 box, so the sum runs over their
    mode vectors), by Parseval in np.longdouble:
    2 pi sqrt(sum_k |a_k - b_k|^2 / |k|^2), the zero mode left out."""
    n = hat_a.shape[0]
    k = np.fft.fftfreq(n, d=1.0 / n).astype(np.longdouble)
    ksq = k[:, None] ** 2 + k[None, :] ** 2
    ksq[0, 0] = np.inf
    dr = hat_a.real.astype(np.longdouble) - hat_b.real.astype(np.longdouble)
    di = hat_a.imag.astype(np.longdouble) - hat_b.imag.astype(np.longdouble)
    two_pi = 2 * np.arccos(np.longdouble(-1.0))
    return float(two_pi * np.sqrt(np.sum((dr * dr + di * di) / ksq)))


def velocity_gap_l2(a, b) -> float:
    """L2 norm of the difference of two velocity fields, by the grid sum."""
    if a.grid != b.grid:
        raise ValueError("velocity fields live on different grids")
    d1 = a.u1.values - b.u1.values
    d2 = a.u2.values - b.u2.values
    return math.sqrt(float(np.sum(d1 * d1 + d2 * d2)) * a.grid.cell_volume)


def physical_sample_norms(omega_hat: np.ndarray) -> tuple[float, float, float]:
    """(energy, enstrophy, ||grad u||_L2) of a flow state from its n x n
    vorticity spectrum of normalized coefficients, as exactly summed grid
    sums of the fields themselves: the vorticity, the Biot-Savart velocity
    u = (d2 psi, -d1 psi) with -Laplace psi = omega, and the velocity's four
    gradient components, each one inverse FFT of its own symbol."""
    n = omega_hat.shape[0]
    k = np.fft.fftfreq(n, d=1.0 / n)
    k1, k2 = np.meshgrid(k, k, indexing="ij")
    ksq = k1**2 + k2**2
    ksq[0, 0] = 1.0
    psi_hat = omega_hat / ksq
    psi_hat[0, 0] = 0.0
    u_hats = (1j * k2 * psi_hat, -1j * k1 * psi_hat)

    def square_sum(coeff):
        values = np.real(np.fft.ifft2(coeff * (n * n)))
        return math.fsum((values * values).ravel()) * (TWO_PI / n) ** 2

    energy = 0.5 * sum(square_sum(c) for c in u_hats)
    enstrophy = 0.5 * square_sum(omega_hat)
    grad_sq = sum(square_sum(1j * kd * c) for c in u_hats for kd in (k1, k2))
    return energy, enstrophy, math.sqrt(grad_sq)


def velocity_gradient(u):
    """(d1 u1, d2 u1, d1 u2, d2 u2) of a VectorField, as ScalarFields."""
    return (
        derivative(u.u1, 1),
        derivative(u.u1, 2),
        derivative(u.u2, 1),
        derivative(u.u2, 2),
    )


def _physical_gradient(v1: np.ndarray, v2: np.ndarray) -> tuple[np.ndarray, ...]:
    """(d1 v1, d2 v1, d1 v2, d2 v2) of grid values, each from its own symbol
    i k_axis, the unpaired Nyquist wavenumber zeroed."""
    n = v1.shape[0]
    k = np.fft.fftfreq(n, d=1.0 / n)
    k[n // 2] = 0.0
    k1, k2 = np.meshgrid(k, k, indexing="ij")
    return tuple(
        np.real(np.fft.ifft2(1j * kd * np.fft.fft2(v))) for v in (v1, v2) for kd in (k1, k2)
    )


def physical_identity_terms(u_nu, u_e, nu: float, times) -> tuple[np.ndarray, ...]:
    """(ddt_half_gap_sq, advection, viscous) of the energy-difference identity
    at the interior samples, from two runs' velocity fields at the shared
    `times` (sequences of VectorFields), in velocity space: w = uN - uE, the
    exactly summed grid sums 1/2 int |w|^2, int (w . grad uE) . w and
    nu int grad uN : grad w, and the fourth-order centered stencil in time."""
    cv = (TWO_PI / u_e[0].grid.points_per_axis) ** 2
    half_gap_sq, adv, visc = [], [], []
    for i, (a, b) in enumerate(zip(u_nu, u_e)):
        n1, n2, e1, e2 = a.u1.values, a.u2.values, b.u1.values, b.u2.values
        w1, w2 = n1 - e1, n2 - e2
        half_gap_sq.append(0.5 * math.fsum((w1 * w1 + w2 * w2).ravel()) * cv)
        if not 2 <= i < len(times) - 2:
            continue
        grad_e = _physical_gradient(e1, e2)
        pairs = (w1 * w1, w2 * w1, w1 * w2, w2 * w2)
        adv.append(math.fsum(sum(p * g for p, g in zip(pairs, grad_e)).ravel()) * cv)
        grad_n, grad_w = _physical_gradient(n1, n2), _physical_gradient(w1, w2)
        visc.append(nu * math.fsum(sum(gn * gw for gn, gw in zip(grad_n, grad_w)).ravel()) * cv)
    dt = times[1] - times[0]
    q = half_gap_sq
    ddt = [(-q[i + 2] + 8 * q[i + 1] - 8 * q[i - 1] + q[i - 2]) / (12 * dt)
           for i in range(2, len(times) - 2)]
    return np.array(ddt), np.array(adv), np.array(visc)


# The majorant integrator as it was with np.interp coefficients, kept as the
# exactness reference: the package's pure-Python lookup must reproduce its
# trajectories bit for bit.  The constants mirror loglimit.osgood's.
_MAJORANT_Z_BLOWUP = 1e290
_MAJORANT_REL_TOL = 1e-8
_MAJORANT_MAX_HALVINGS = 16


def _majorant_rhs(p):
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


def _majorant_rk4(rhs, t: float, z: float, h: float) -> float:
    k1 = rhs(t, z)
    k2 = rhs(t + 0.5 * h, z + 0.5 * h * k1)
    k3 = rhs(t + 0.5 * h, z + 0.5 * h * k2)
    k4 = rhs(t + h, z + h * k3)
    return z + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _majorant_advance(p, h_nominal: float):
    """(times, log_y, blow_up) of one RK4 pass at step h_nominal."""
    rhs = _majorant_rhs(p)
    T = p.horizon
    t, z = 0.0, math.log(p.nu)
    ts, zs = [t], [z]
    while t < T - 1e-14 * T:
        h = min(h_nominal, T - t)
        z_new = _majorant_rk4(rhs, t, z, h)
        if not math.isfinite(z_new) or z_new > _MAJORANT_Z_BLOWUP:
            return np.array(ts), np.array(zs), True
        if z != 0.0 and z_new != 0.0 and (z < 0.0) != (z_new < 0.0):
            # bisect the step length to land on the |ln y| kink at y = 1
            lo, hi = 0.0, h
            for _ in range(80):
                mid = 0.5 * (lo + hi)
                zm = _majorant_rk4(rhs, t, z, mid)
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
    return np.array(ts), np.array(zs), False


def majorant_reference(p):
    """(times, log_y, blow_up) of the majorant, step halved until ln y(T) settles."""
    fmax = float(p.f.max())
    h = min(p.horizon / 64.0, 0.25 / fmax if fmax > 0 else math.inf)
    coarse = _majorant_advance(p, h)
    for _ in range(_MAJORANT_MAX_HALVINGS):
        if coarse[2]:
            return coarse
        h *= 0.5
        fine = _majorant_advance(p, h)
        if fine[2]:
            return fine
        if abs(fine[1][-1] - coarse[1][-1]) < _MAJORANT_REL_TOL * max(1.0, abs(fine[1][-1])):
            return fine
        coarse = fine
    return coarse


# The BMO scan as it was with the standard-deviation bound as its only
# pruning, copied verbatim but for the name: the package's scan reads fewer
# squares and must return the same float.
_GATHER_CELLS = 1 << 16
_U = np.finfo(float).eps / 2  # unit roundoff


def std_pruned_bmo_seminorm(g) -> float:
    """Mean oscillation sup over all dyadic squares and periodic translates.

    Squares have side 2pi * 2**-j for j = 0 .. log2(n); every grid-aligned
    translate (with wrap) is considered and the mean absolute deviation from
    the square's own mean is maximized.  Single-cell squares oscillate by zero
    and are skipped.  A square's mean absolute deviation is at most its
    standard deviation (Cauchy-Schwarz), so a square whose rounding-widened
    standard deviation cannot beat the running maximum is skipped.  Every other
    square's deviation is computed from its cells, so the maximum is the one a
    scan of every square computes, up to the rounding of each square's sums.
    """
    vals = g.values
    if vals.min() == vals.max():
        return 0.0  # every square of a constant oscillates by exactly zero
    # centered, so the rounding of the s^2-term sums scales with the oscillation
    v = vals - vals.mean()
    best = float(np.abs(v).mean())  # full-torus square, all translates equal
    # bounds live on w = v * 2^-e, max|w| in [1/2, 1): w^2 neither overflows nor
    # underflows to matter, and the power-of-two scaling adds no rounding
    e = int(np.frexp(np.abs(v).max())[1])
    # small squares first: they are cheap to read, and on rough fields one of
    # them holds the maximum, which then prunes nearly all larger squares
    for s, bound in _std_bounds(np.ldexp(v, -e)).items():
        live = np.flatnonzero(bound > np.ldexp(best, -e))
        live = live[np.argsort(-bound[live])]
        padded = np.pad(v, ((0, s - 1), (0, s - 1)), mode="wrap")
        chunk = max(1, _GATHER_CELLS // (s * s))
        for start in range(0, live.size, chunk):
            if bound[live[start]] <= np.ldexp(best, -e):
                break  # bounds are sorted: no later square can beat best
            best = max(best, _gathered_max(padded, s, live[start : start + chunk]))
    return best


def _std_bounds(w: np.ndarray) -> dict[int, np.ndarray]:
    """Per level s = 2 .. n/2, flat upper bounds on the computed mean absolute
    deviation of every wrapped s x s square of w, indexed by corner i * n + j.

    Window sums of w and w^2 are built by pairwise doubling, O(n^2) per level.
    Rounding, with u the unit roundoff and g_k = k u / (1 - k u): a window sum
    is a pairwise sum of depth 2 log2 s, so with k = 2 log2 s + 1 (one more for
    squaring) the window means m of w and q of w^2 come out within
    g_k mean|w| <= g_k sqrt(q) and g_k q.  Hence the computed q - m^2 is
    within (3 g_k + 4 u) q (1 + g_k) <= 4 (k + 1) u q of the true variance,
    which the bound adds.  A deviation computed from the cells, in any
    summation order, exceeds the true one (at most the standard deviation) by
    at most g_{s^2+1} (std + 2 sqrt(q)); the relative tol = 1e-9 + 3 s^2 u
    covers that and the rounding of the sqrt.  Underflow in w, w^2 or m^2 moves
    a variance by at most about 2^-1072, its root by 2^-536: the absolute 2^-500
    covers it, far below any running best (at least mean|w| >= 1/(2 n^2)).
    """
    n = w.shape[0]
    s1, s2 = w, w * w
    out = {}
    s, depth = 1, 0
    while 2 * s <= n // 2:
        for axis in (0, 1):
            s1 = s1 + np.roll(s1, -s, axis)
            s2 = s2 + np.roll(s2, -s, axis)
        s, depth = 2 * s, depth + 2
        m, q = s1 / (s * s), s2 / (s * s)
        var = np.maximum(q - m * m, 0.0) + 4 * (depth + 2) * _U * q
        tol = 1e-9 + 3 * s * s * _U
        out[s] = ((np.sqrt(var) + tol * np.sqrt(q)) * (1 + tol) + 2.0**-500).ravel()
    return out


def _gathered_max(padded: np.ndarray, s: int, corners: np.ndarray) -> float:
    """Largest mean absolute deviation among the s x s squares at flat corners."""
    n = padded.shape[0] - s + 1
    i, j = np.divmod(corners, n)
    blocks = sliding_window_view(padded, (s, s))[i, j].reshape(corners.size, s * s)
    blocks -= blocks.mean(axis=1, keepdims=True)
    return float(np.abs(blocks, out=blocks).sum(axis=1).max()) / (s * s)


def full_grid_chord_bounds(w: np.ndarray, s: int) -> np.ndarray:
    """The sub-square chord bound of every wrapped s x s square of w, by flat
    corner, as the package built it before it evaluated the bound at chosen
    corners only: box statistics by rolled doubling, then one pass per 8 x 8
    sub-square over whole n x n slices of the wrapped statistics.  The
    package's bound at any corner must be this one's, bit for bit."""
    n, t = w.shape[0], 8
    s1, s2, lo, hi = w, w * w, w, w
    r = 1
    while r < t:
        for axis in (0, 1):
            s1 = s1 + np.roll(s1, -r, axis)
            s2 = s2 + np.roll(s2, -r, axis)
            lo = np.minimum(lo, np.roll(lo, -r, axis))
            hi = np.maximum(hi, np.roll(hi, -r, axis))
        r *= 2
    m, c = s1 / (t * t), s1
    while r < s:
        for axis in (0, 1):
            c = c + np.roll(c, -r, axis)
        r *= 2
    c = c / (s * s)
    span = hi - lo
    alpha = np.clip(np.divide(hi - m, span, out=np.zeros_like(span), where=span > 0), 0.0, 1.0)
    var = np.maximum(s2 / (t * t) - m * m, 0.0) + (9 * s.bit_length() + 90) * _U
    stats = [np.pad(x, ((0, s - t), (0, s - t)), mode="wrap")
             for x in (m, 2.0 * alpha - 1.0, (1.0 - alpha) * hi - alpha * lo, var)]
    acc = np.zeros_like(w)
    for a in range(0, s, t):
        for b in range(0, s, t):
            pm, slope, offset, pvar = (x[a : a + n, b : b + n] for x in stats)
            chord = np.maximum(slope * c + offset, np.abs(pm - c))
            acc += np.minimum(chord, np.sqrt((pm - c) ** 2 + pvar))
    acc /= (s // t) ** 2
    acc += 1e-9 + 4 * s * s * _U
    return acc.ravel()
