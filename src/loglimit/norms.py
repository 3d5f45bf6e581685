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

from .grid import TWO_PI, ScalarField, riesz_transform

NORM_CSV_HEADER = ("l1", "l2", "linf", "lp_sigma", "bmo", "hardy", "llogl")


def lp_norm(g: ScalarField, p: float) -> float:
    """Riemann-sum L_p norm; p = inf returns max |g|."""
    if p != np.inf and p < 1:
        raise ValueError(f"p must satisfy p >= 1, got {p}")
    if p == np.inf:
        return float(np.abs(g.values).max())
    cv = g.grid.cell_volume
    return float((np.sum(np.abs(g.values) ** p) * cv) ** (1.0 / p))


def bmo_seminorm(g: ScalarField) -> float:
    """Mean oscillation sup over all dyadic squares and periodic translates.

    Squares have side 2pi * 2**-j for j = 0 .. log2(n); every grid-aligned
    translate (with wrap) is scanned and the mean absolute deviation from the
    square's own mean is maximized.  Single-cell squares oscillate by zero
    and are skipped.  Entry (i, j) of the wrapped translate padded[a:a+n, b:b+n]
    is cell (a, b) of the s x s square at (i, j): the s^2 translates sum every square.
    """
    # centered, so the rounding of the s^2-term sums scales with the oscillation
    v = g.values - g.values.mean()
    n = g.grid.points_per_axis
    best = float(np.abs(v).mean())  # full-torus square, all translates equal
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


def hardy_norm(g: ScalarField) -> float:
    """L1 norm plus L1 norms of both Riesz transforms of the mean-free part.

    The torus Riesz transform annihilates means, so the mean is split off
    first and its mass |mean| * (2pi)^2 is charged to the L1 term.
    """
    m = g.mean()
    g0 = g - m
    total = lp_norm(g0, 1) + abs(m) * TWO_PI**2
    for axis in (1, 2):
        total += lp_norm(riesz_transform(g0, axis), 1)
    return total


def zygmund_functional(g: ScalarField, lam: float) -> float:
    """Quadrature of g * ln+(g / lam) for pointwise nonnegative g."""
    if lam <= 0:
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
    sigma: float = 1.0
    mean_free: bool = True

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

    @staticmethod
    def csv_header() -> str:
        return ",".join(NORM_CSV_HEADER)

    def csv_row(self) -> str:
        vals = (self.l1, self.l2, self.linf, self.lp_sigma, self.bmo, self.hardy, self.llogl)
        return ",".join(f"{v:.17g}" for v in vals)


def compute_norms(g: ScalarField, sigma: float = 1.0) -> NormReport:
    """Evaluate the full report; lp_sigma is the L_{1 + sigma/2} norm."""
    if sigma <= 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    absfield = ScalarField(g.grid, np.abs(g.values))
    return NormReport(
        l1=lp_norm(g, 1),
        l2=lp_norm(g, 2),
        linf=lp_norm(g, np.inf),
        lp_sigma=lp_norm(g, 1.0 + sigma / 2.0),
        bmo=bmo_seminorm(g),
        hardy=hardy_norm(g),
        llogl=zygmund_functional(absfield, 1.0),
        sigma=sigma,
        mean_free=abs(g.mean()) <= 1e-13 * max(1.0, float(np.abs(g.values).max())),
    )
