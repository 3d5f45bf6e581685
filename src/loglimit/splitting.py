"""Truncation splitting of a field with Chebyshev and Hoelder consequences.

A field alpha is split at a threshold m > 1 into a bounded part alpha_m with
|alpha_m| = min(|alpha|, m) and a remainder alpha_r supported on the
super-level set {|alpha| > m}.  The support of the remainder obeys a
Chebyshev bound in the L_{1 + sigma/2} norm, and interpolating the remainder
between L_{1 + sigma/4} and L_{1 + sigma/2} over its support gives the
Hoelder bound evaluated here.  Both checks take the field alpha itself:
chebyshev_support_bound(alpha, cfg) counts {|alpha| > m} without splitting,
and holder_remainder_bound(alpha, cfg) forms only the remainder it needs
(truncation_remainder), and none when m >= max |alpha|, so a threshold sweep
truncates each field once per threshold below its maximum and takes its
L_{1 + sigma/2} norm once.  Both inequalities
are exact for the discrete quadrature (cell counting and Riemann sums share
the same measure); the checks forgive an excess of ROUNDING_SLACK relative,
which only guards floating-point rounding.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import ScalarField
from .norms import lp_norm

# Relative excess a check forgives.  Over the corpus at n = 16..128, 20
# thresholds each and sigma = 0.5, 1, 2, the worst Hoelder excess is 4.4e-16
# (equality on indicators) and the smallest Chebyshev margin is +5.2%.
ROUNDING_SLACK = 1e-9

# Columns of `loglimit split`, each a key of a threshold_sweep row.
SPLIT_CSV_HEADER = ("threshold", "measured_support", "cheb_bound", "holder_lhs", "holder_rhs")


@dataclass(frozen=True)
class SplitConfig:
    threshold: float
    sigma: float = 1.0

    def __post_init__(self) -> None:
        if not self.threshold > 1:
            raise ValueError(f"threshold must exceed 1, got {self.threshold}")
        if not 0 < self.sigma < np.inf:
            raise ValueError(f"sigma must be finite and positive, got {self.sigma}")


@dataclass(frozen=True)
class ChebyshevResult:
    measured_support: float
    bound: float
    satisfied: bool


@dataclass(frozen=True)
class HolderResult:
    lhs: float
    rhs: float
    combined_bound: float
    support_measure: float
    satisfied: bool


def truncate_split(alpha: ScalarField, cfg: SplitConfig) -> tuple[ScalarField, ScalarField]:
    """Split alpha = alpha_m + alpha_r with |alpha_m| = min(|alpha|, threshold)."""
    m = cfg.threshold
    v = alpha.values
    vm = np.clip(v, -m, m)
    alpha_m = ScalarField(alpha.grid, vm)
    alpha_r = ScalarField(alpha.grid, v - vm)
    return alpha_m, alpha_r


def truncation_remainder(alpha: ScalarField, cfg: SplitConfig) -> ScalarField:
    """The remainder alpha_r of truncate_split(alpha, cfg), without alpha_m."""
    v = alpha.values
    return ScalarField(alpha.grid, v - np.clip(v, -cfg.threshold, cfg.threshold))


def support_measure(field: ScalarField) -> float:
    """Cell-counted measure of {field != 0}."""
    return float(np.count_nonzero(field.values) * field.grid.cell_volume)


def chebyshev_support_bound(alpha: ScalarField, cfg: SplitConfig) -> ChebyshevResult:
    """Measure of {|alpha| > m} against (||alpha||_{1+sigma/2} / m)^{1+sigma/2}."""
    return _chebyshev_support_bound(alpha, cfg, lp_norm(alpha, 1.0 + cfg.sigma / 2.0))


def _chebyshev_support_bound(alpha: ScalarField, cfg: SplitConfig, norm: float) -> ChebyshevResult:
    """chebyshev_support_bound given norm = ||alpha||_{1+sigma/2}."""
    p = 1.0 + cfg.sigma / 2.0
    measured = float(np.count_nonzero(np.abs(alpha.values) > cfg.threshold) * alpha.grid.cell_volume)
    bound = (norm / cfg.threshold) ** p
    return ChebyshevResult(measured, bound, measured <= bound * (1.0 + ROUNDING_SLACK) + 1e-300)


def holder_remainder_bound(alpha: ScalarField, cfg: SplitConfig) -> HolderResult:
    """Interpolation bound on the remainder alpha_r of splitting alpha at cfg.

    lhs is ||alpha_r||_{1 + sigma/4}; rhs is

        ( |supp alpha_r|^(sigma/(4+2sigma))
          * (integral |alpha_r|^(1+sigma/2))^((4+sigma)/(4+2sigma)) )^(1/(1+sigma/4)),

    which is the raw Hoelder pairing of |alpha_r|^(1+sigma/4) with the
    indicator of its support (equality for indicator fields).  The combined
    bound  threshold^(-sigma/(4+sigma)) * ||alpha_r||_{1+sigma/2}^(1 - 2sigma/((sigma+2)(sigma+4)))
    obtained by inserting the Chebyshev support estimate is reported as well;
    its norm is the root of the same integral rhs uses.
    """
    if np.abs(alpha.values).max() <= cfg.threshold:
        # alpha_r is exactly zero, and the sums below would give these zeros
        return HolderResult(0.0, 0.0, 0.0, 0.0, True)
    sigma = cfg.sigma
    alpha_r = truncation_remainder(alpha, cfg)
    p_low = 1.0 + sigma / 4.0
    p_high = 1.0 + sigma / 2.0
    supp = support_measure(alpha_r)
    lhs = lp_norm(alpha_r, p_low)
    integral_high = float(np.sum(np.abs(alpha_r.values) ** p_high) * alpha_r.grid.cell_volume)
    theta = sigma / (4.0 + 2.0 * sigma)
    rhs = (supp**theta * integral_high ** ((4.0 + sigma) / (4.0 + 2.0 * sigma))) ** (1.0 / p_low)
    combined = cfg.threshold ** (-sigma / (4.0 + sigma)) * (integral_high ** (1.0 / p_high)) ** (
        1.0 - 2.0 * sigma / ((sigma + 2.0) * (sigma + 4.0))
    )
    return HolderResult(lhs, rhs, combined, supp, lhs <= rhs * (1.0 + ROUNDING_SLACK) + 1e-300)


def threshold_sweep(
    alpha: ScalarField, sigma: float, thresholds: np.ndarray
) -> list[dict[str, float]]:
    """Chebyshev and Hoelder quantities across a threshold sweep."""
    cfgs = [SplitConfig(threshold=float(m), sigma=sigma) for m in np.asarray(thresholds, dtype=float)]
    norm = lp_norm(alpha, 1.0 + sigma / 2.0)
    rows = []
    for cfg in cfgs:
        cheb = _chebyshev_support_bound(alpha, cfg, norm)
        hold = holder_remainder_bound(alpha, cfg)
        rows.append(
            {
                "threshold": cfg.threshold,
                "measured_support": cheb.measured_support,
                "cheb_bound": cheb.bound,
                "holder_lhs": hold.lhs,
                "holder_rhs": hold.rhs,
                "satisfied": float(cheb.satisfied and hold.satisfied),
            }
        )
    return rows
