"""Function-space norms on discrete torus fields.

Covers the Lebesgue norms, the mean-oscillation (BMO) seminorm over dyadic
squares, the Hardy norm built from Riesz transforms, and the Zygmund
functional  integral of g * ln+(g / lambda).

Quadrature is the plain Riemann sum (cell volume times grid sum), which is
exact for trigonometric polynomials below the Nyquist band and is the same
measure used for support counting elsewhere, so discrete inequalities close
exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .grid import TWO_PI, ScalarField, csv_line, riesz_transform

NORM_CSV_HEADER = ("l1", "l2", "linf", "lp_sigma", "bmo", "hardy", "llogl")


def lp_norm(g: ScalarField, p: float) -> float:
    """Riemann-sum L_p norm; p = inf returns max |g|."""
    if not p >= 1:  # written so that nan fails it, as it fails every comparison
        raise ValueError(f"p must satisfy p >= 1, got {p}")
    if p == np.inf:
        return float(np.abs(g.values).max())
    cv = g.grid.cell_volume
    return float((np.sum(np.abs(g.values) ** p) * cv) ** (1.0 / p))


# Gathered s x s blocks hold at most this many cells at once.
_GATHER_CELLS = 1 << 16
_U = np.finfo(float).eps / 2  # unit roundoff
# The chord bound splits each s x s square into 4^k sub-squares of this side;
# it costs O(n^2 log s) for the box statistics and 4^k element passes per
# square it bounds.  A level builds it only when its live squares hold more
# than _CHORD_GATE * 4^k n^2 cells.
_SUB_SIDE = 8
_CHORD_GATE = 8


def bmo_seminorm(g: ScalarField) -> float:
    """Mean oscillation sup over all dyadic squares and periodic translates.

    Squares have side 2pi * 2**-j for j = 0 .. log2(n); every grid-aligned
    translate (with wrap) is considered and the mean absolute deviation from
    the square's own mean is maximized.  Single-cell squares oscillate by zero
    and are skipped.  A square's mean absolute deviation is at most its
    standard deviation (Cauchy-Schwarz), so a square whose rounding-widened
    standard deviation cannot beat the running maximum is skipped.  On a wide
    level where many squares survive that test, the bound of each survivor is
    tightened to the minimum with _chord_bounds, built from 8 x 8
    sub-squares and evaluated at the survivors only.  Every other
    square's deviation is computed from its cells, so the maximum is the one a
    scan of every square computes, up to the rounding of each square's sums;
    the bounds only decide which squares are read, so it is the same float
    whichever bound pruned them.  Before the levels, the one square whose
    standard-deviation bound is the largest over all levels is read, if that
    bound beats the full torus: on smooth fields it holds the maximum or
    comes close, and then prunes most squares of every level.  All levels
    read their squares from one copy of the field wrapped by n/2 - 1 cells,
    built when the first is read, through one s x s window view per level
    (_gathered_max).
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
    w = np.ldexp(v, -e)
    n = w.shape[0]
    padded = None  # v wrapped by n/2 - 1 cells, built once a square must be read

    def windows(s: int) -> np.ndarray:
        """The s x s windows of the wrapped copy, which the first call builds."""
        nonlocal padded
        if padded is None:
            padded = np.pad(v, ((0, n // 2 - 1), (0, n // 2 - 1)), mode="wrap")
        return sliding_window_view(padded, (s, s))

    bounds = _std_bounds(w)
    top_s = max(bounds, key=lambda s: bounds[s].max())
    top = int(bounds[top_s].argmax())
    if bounds[top_s][top] > np.ldexp(best, -e):
        best = max(best, _gathered_max(windows(top_s), n, top_s, np.array([top])))
    for s, bound in bounds.items():
        live = np.flatnonzero(bound > np.ldexp(best, -e))
        if s > _SUB_SIDE and live.size * s * s > _CHORD_GATE * (s // _SUB_SIDE) ** 2 * w.size:
            bound[live] = np.minimum(bound[live], _chord_bounds(w, s, live))
            live = live[bound[live] > np.ldexp(best, -e)]
        live = live[np.argsort(-bound[live])]
        chunk = max(1, _GATHER_CELLS // (s * s))
        view = None  # this level's s x s windows of the wrapped copy
        for start in range(0, live.size, chunk):
            if bound[live[start]] <= np.ldexp(best, -e):
                break  # bounds are sorted: no later square can beat best
            if view is None:
                view = windows(s)
            best = max(best, _gathered_max(view, n, s, live[start : start + chunk]))
    return best


def _doubled(op, a: np.ndarray, r: int, axis: int) -> np.ndarray:
    """op(a, np.roll(a, -r, axis)) for axis -1 or -2, in a fresh array: the
    same operations in the same order, without the roll's copy of a."""
    n, rest = a.shape[axis], (slice(None),) * (-1 - axis)
    head, wrap = (..., slice(0, n - r)) + rest, (..., slice(n - r, None)) + rest
    ahead, behind = (..., slice(r, None)) + rest, (..., slice(0, r)) + rest
    out = np.empty_like(a)
    op(a[head], a[ahead], out=out[head])
    op(a[wrap], a[behind], out=out[wrap])
    return out


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
    sums = np.stack((w, w * w))  # window sums of w and w^2
    out = {}
    s, depth = 1, 0
    while 2 * s <= n // 2:
        for axis in (-2, -1):
            sums = _doubled(np.add, sums, s, axis)
        s, depth = 2 * s, depth + 2
        m, q = sums / (s * s)
        var = m * m
        np.subtract(q, var, out=var)
        np.maximum(var, 0.0, out=var)
        var += 4 * (depth + 2) * _U * q
        tol = 1e-9 + 3 * s * s * _U
        np.sqrt(var, out=var)
        np.sqrt(q, out=q)
        q *= tol
        var += q
        var *= 1 + tol
        var += 2.0**-500
        out[s] = var.ravel()
    return out


def _chord_bounds(w: np.ndarray, s: int, corners: np.ndarray) -> np.ndarray:
    """Upper bounds on the computed mean absolute deviation of the wrapped
    s x s squares of w (max|w| = W < 1) at flat corners i * n + j, as
    _std_bounds indexes them, for s = 2^k t with sub-squares P of side
    t = _SUB_SIDE.

    Each square Q with mean c splits into 4^k sub-squares P with mean m, lo =
    min and hi = max.  On [lo, hi], |x - c| lies below its chord, so with
    alpha = (hi - m) / (hi - lo) in [0, 1],
        mean_P |w - c| <= F = alpha |lo - c| + (1 - alpha) |hi - c|
                            = max(|m - c|, (2 alpha - 1) c + (1 - alpha) hi - alpha lo),
    a convex piecewise-linear function of c with slopes -1, 2 alpha - 1, 1; it
    is exact when P lies on one side of c.  By Cauchy-Schwarz also
    mean_P |w - c| <= G = sqrt(var_P + (m - c)^2), and Q's deviation is the
    average over its sub-squares of min(F, G).  Box sums, mins and maxes come
    by doubling in O(n^2 log s) on the whole grid (_chord_stats); then 4^k
    passes gather the sub-square statistics of the given corners only, so a
    corner's bound is the same float whichever other corners are asked for.

    Rounding, with u the unit roundoff and g_j = j u / (1 - j u):
    - Box means: the window sums are pairwise sums of depth 2 log2 t and
      2 log2 s over at most t^2 W and s^2 W, and the power-of-two divisions
      are exact, so |m' - m| <= g_6 W and |c' - c| <= e = g_{2 log2 s} W.  The
      min and max are exact.  The computed q - m^2 is within 32 u of var_P, by
      the argument in _std_bounds with k = 7.
    - The chord: alpha' = (hi - m') / (hi - lo) rounded three times, then
      clipped to [0, 1] (0 where hi = lo, where F = |m - c| needs no alpha);
      clipping only moves alpha' towards the exact alpha, so
      |alpha' - alpha| (hi - lo) <= (1 + g_3) g_6 W + 2 g_3 W <= 13 u W.  Where
      lo <= c <= hi, F is the middle piece, which moves by that times
      |2c - lo - hi| / (hi - lo) <= 1, by e for c' and by at most 10 u W in
      rounding slope * c' + offset.  Elsewhere F = |m - c|, computed within
      e + 8 u W.  So the computed F' >= F - e - 23 u W.
    - Cauchy-Schwarz: |(m' - c')^2 - (m - c)^2| <= 4.01 W (e + 9 u W), and the
      sum under the root (at most 5 W^2) rounds by at most 16 u W^2; adding
      eta = (9 (log2 s + 1) + 90) u before the root covers these and the 32 u
      of the variance, so the computed root G' >= G - 3 u W.
    - The terms, each at most 2.01 W, are summed in 4^k - 1 additions, off by
      at most 2.01 g_{4^k} W after the exact division by 4^k.  So the computed
      average is at least the true deviation less e + 23 u W + 2.01 g_{4^k} W.
    - A deviation computed from the cells, in any summation order, exceeds the
      true one by at most g_{s^2} (2 W + W) (see _std_bounds).
    With 4^k = s^2 / 64 and s >= 16, all of this is below 4 s^2 u W <= 4 s^2 u,
    which the bound adds.  The absolute 1e-9 covers the rounding of that
    addition and underflow, which moves each of the ~20 4^k operations behind
    one bound by at most 2^-1074.
    """
    n, t = w.shape[0], _SUB_SIDE
    stats, c = _chord_stats(w, s)
    wide = n + s - t
    first = corners + corners // n * (wide - n)  # each square's first sub-square in stats
    c = c.ravel()[corners]
    at, sub = np.empty_like(first), np.empty((corners.size, 4))
    acc, d, f = np.zeros_like(c), np.empty_like(c), np.empty_like(c)
    pm, slope, offset, pvar = sub.T  # views of sub, which each pass refills
    for a in range(0, s, t):
        for b in range(0, s, t):
            np.add(first, a * wide + b, out=at)
            # the indices are in range; "clip" lets take fill sub unbuffered
            np.take(stats, at, axis=0, out=sub, mode="clip")
            np.subtract(pm, c, out=d)
            np.abs(d, out=d)
            np.multiply(slope, c, out=f)
            f += offset
            np.maximum(f, d, out=f)  # chord F
            d *= d
            d += pvar
            np.sqrt(d, out=d)  # Cauchy-Schwarz G
            np.minimum(f, d, out=f)
            acc += f
    acc /= (s // t) ** 2
    acc += 1e-9 + 4 * s * s * _U
    return acc


def _chord_stats(w: np.ndarray, s: int) -> tuple[np.ndarray, np.ndarray]:
    """The statistics _chord_bounds reads, for the whole n x n grid: per
    t x t sub-square corner, side by side, its mean, the chord's middle piece
    as slope * c + offset, and its variance plus eta, wrapped by s - t cells
    so that every sub-square of every s x s square has its corner in the
    copy, flat with row length n + s - t; and every s x s square's mean c."""
    n, t = w.shape[0], _SUB_SIDE
    sums, lo, hi = np.stack((w, w * w)), w, w
    r = 1
    while r < t:
        for axis in (-2, -1):
            sums = _doubled(np.add, sums, r, axis)
            lo = _doubled(np.minimum, lo, r, axis)
            hi = _doubled(np.maximum, hi, r, axis)
        r *= 2
    s1, s2 = sums
    m = s1 / (t * t)
    c = s1
    while r < s:
        for axis in (-2, -1):
            c = _doubled(np.add, c, r, axis)
        r *= 2
    c /= s * s
    span = hi - lo
    alpha = np.divide(hi - m, span, out=np.zeros_like(span), where=span > 0)
    np.clip(alpha, 0.0, 1.0, out=alpha)
    eta = (9 * s.bit_length() + 90) * _U
    var = np.maximum(s2 / (t * t) - m * m, 0.0) + eta
    wide = n + s - t
    stats = np.empty((wide, wide, 4))
    for k, x in enumerate((m, 2.0 * alpha - 1.0, (1.0 - alpha) * hi - alpha * lo, var)):
        stats[:n, :n, k] = x
    stats[n:, :n] = stats[: s - t, :n]
    stats[:, n:] = stats[:, : s - t]
    return stats.reshape(wide * wide, 4), c


def _gathered_max(windows: np.ndarray, n: int, s: int, corners: np.ndarray) -> float:
    """Largest mean absolute deviation among the s x s squares at flat corners
    i * n + j of an n x n field, read from windows, the s x s windows
    (sliding_window_view) of a copy of the field wrapped by at least s - 1
    cells.  A square's mean is its sum / s^2, the bits np.mean gives.  Where
    a chunk holds at most 16 squares (s >= 64), each square is centred by one
    scalar subtraction, which there is cheaper than broadcasting the means."""
    i, j = np.divmod(corners, n)
    blocks = windows[i, j].reshape(corners.size, s * s)
    means = blocks.sum(axis=1) / (s * s)
    if _GATHER_CELLS // (s * s) <= 16:
        for block, mean in zip(blocks, means):
            block -= mean
    else:
        blocks -= means[:, None]
    return float(np.abs(blocks, out=blocks).sum(axis=1).max()) / (s * s)


def hardy_norm(g: ScalarField) -> float:
    """L1 norm plus L1 norms of both Riesz transforms of the mean-free part.

    The torus Riesz transform annihilates means, so the mean is split off
    first and its mass |mean| * (2pi)^2 is charged to the L1 term.
    """
    return _hardy_riesz(g)[0]


def _hardy_riesz(g: ScalarField) -> tuple[float, tuple[float, float]]:
    """(hardy_norm(g), riesz_l1(g)), building the mean-free part of g once."""
    m = g.mean()
    g0 = g - m
    r1, r2 = riesz = _riesz_l1(g0)
    return lp_norm(g0, 1) + abs(m) * TWO_PI**2 + r1 + r2, riesz


def riesz_l1(g: ScalarField) -> tuple[float, float]:
    """L1 norms of both Riesz transforms of the mean-free part of g."""
    return _riesz_l1(g - g.mean())


def _riesz_l1(g0: ScalarField) -> tuple[float, float]:
    """riesz_l1 of a mean-free field g0."""
    return lp_norm(riesz_transform(g0, 1), 1), lp_norm(riesz_transform(g0, 2), 1)


def zygmund_functional(g: ScalarField, lam: float) -> float:
    """Quadrature of g * ln+(g / lam) for pointwise nonnegative g."""
    if not lam > 0:  # written so that nan fails it, as it fails every comparison
        raise ValueError(f"lambda must be positive, got {lam}")
    v = g.values
    if v.min() < 0:
        raise ValueError("zygmund_functional requires g >= 0 pointwise (pass |g|)")
    with np.errstate(divide="ignore", invalid="ignore"):
        integrand = np.where(v > lam, v * np.log(v / lam), 0.0)
    return float(integrand.sum() * g.grid.cell_volume)


@dataclass(frozen=True)
class NormReport:
    """All norms of one field; llogl is the Zygmund functional of |g| at lambda = 1."""

    l1: float
    l2: float
    linf: float
    lp_sigma: float
    bmo: float
    hardy: float
    llogl: float

    def __post_init__(self) -> None:
        slack = 1.0 + 1e-9
        if self.l1 > TWO_PI**2 * self.linf * slack + 1e-300:
            raise ValueError("norm report violates l1 <= (2pi)^2 * linf")
        if self.l2**2 > self.l1 * self.linf * slack + 1e-300:
            raise ValueError("norm report violates l2^2 <= l1 * linf")
        if self.hardy < self.l1 / slack - 1e-300:
            raise ValueError("norm report violates hardy >= l1")
        for name in ("l1", "l2", "linf", "lp_sigma", "bmo", "hardy", "llogl"):
            if getattr(self, name) < 0:
                raise ValueError(f"norm {name} must be nonnegative")

    def csv_row(self) -> str:
        return csv_line(getattr(self, name) for name in NORM_CSV_HEADER)


def compute_norms(g: ScalarField, sigma: float = 1.0) -> NormReport:
    """Evaluate the full report; lp_sigma is the L_{1 + sigma/2} norm."""
    if not 0 < sigma < np.inf:
        raise ValueError(f"sigma must be finite and positive, got {sigma}")
    absfield = ScalarField(g.grid, np.abs(g.values))
    return NormReport(
        l1=lp_norm(g, 1),
        l2=lp_norm(g, 2),
        linf=lp_norm(g, np.inf),
        lp_sigma=lp_norm(g, 1.0 + sigma / 2.0),
        bmo=bmo_seminorm(g),
        hardy=hardy_norm(g),
        llogl=zygmund_functional(absfield, 1.0),
    )
