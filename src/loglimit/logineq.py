"""Empirical verification of the logarithmic duality inequality

    |integral f g|  <=  C * ||f||_BMO * ||g||_L1 * [ |ln ||g||_L1| + ln(1 + ||g||_Linf) ]

on a fixed corpus of test fields, together with the Riesz/Zygmund L1 bound

    ||R_k h||_L1  <=  C0 + C0 * integral h ln+ h

for compactly supported h >= 0.  No numeric constant is asserted anywhere:
trials record the empirical ratio lhs / rhs-factor, and the scans only check
that the running maxima stay bounded as the grid is refined.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .grid import TWO_PI, GridSpec, ScalarField, _call, _map_tasks, write_csv
from .inviscid import fit_exponent
from .norms import _hardy_riesz, bmo_seminorm, lp_norm, riesz_l1, zygmund_functional
from .splitting import support_measure

# riesz_transform and hardy_norm stay bound here for the benchmark's call
# tracer (perfbench/tracing.py); this module's Riesz transforms and Hardy
# norms go through riesz_l1 and _hardy_riesz
from .grid import riesz_transform  # noqa: F401
from .norms import hardy_norm  # noqa: F401

TRIALS_CSV_HEADER = ("f_id", "g_id", "grid", "lhs", "bmo_f", "l1_g", "linf_g", "bracket", "ratio")


# ---------------------------------------------------------------------------
# fixed, versioned corpus of test fields
# ---------------------------------------------------------------------------


def _periodic_radius(grid: GridSpec) -> np.ndarray:
    """Periodic distance to the torus center (pi, pi)."""
    x1, x2 = grid.coordinates()
    d1 = np.abs(x1 - np.pi)
    d2 = np.abs(x2 - np.pi)
    d1 = np.minimum(d1, TWO_PI - d1)
    d2 = np.minimum(d2, TWO_PI - d2)
    return np.sqrt(d1**2 + d2**2)


def dyadic_indicator(grid: GridSpec, level: int) -> ScalarField:
    """Indicator of the corner-anchored dyadic square of side 2pi * 2**-level."""
    n = grid.points_per_axis
    if not 0 <= level <= int(math.log2(n)):
        raise ValueError(f"dyadic level {level} unavailable on a {n} grid")
    s = n // 2**level
    v = np.zeros(grid.shape)
    v[:s, :s] = 1.0
    return ScalarField(grid, v)


def normalized_indicator(grid: GridSpec, area: float) -> ScalarField:
    """Unit-mass indicator h = value * 1_Q with value = 1 / |Q|, |Q| ~ area.

    The square is snapped to whole cells, so the realized measure (hence the
    realized height) is reported by the field itself: value = 1 / measure.
    """
    h = grid.spacing
    side_cells = max(1, round(math.sqrt(area) / h))
    side_cells = min(side_cells, grid.points_per_axis // 2)
    measure = (side_cells * h) ** 2
    v = np.zeros(grid.shape)
    v[:side_cells, :side_cells] = 1.0 / measure
    return ScalarField(grid, v)


def truncated_log(grid: GridSpec) -> ScalarField:
    """ln(1/|x - x0|) about the center x0 = (pi, pi), capped at the grid-scale value ln(1/h)."""
    r = _periodic_radius(grid)
    cap = math.log(1.0 / grid.spacing)
    with np.errstate(divide="ignore"):
        v = np.where(r > 0, np.log(1.0 / np.maximum(r, 1e-300)), np.inf)
    return ScalarField(grid, np.minimum(v, cap))


def gaussian_bump(grid: GridSpec, width: float) -> ScalarField:
    """Gaussian of the given width about the center (pi, pi)."""
    r = _periodic_radius(grid)
    return ScalarField(grid, np.exp(-(r**2) / (2.0 * width**2)))


CORPUS_BUILDERS = (
    ("const_one", "constants", lambda grid: ScalarField(grid, np.ones(grid.shape))),
    ("mode_cos1", "modes", lambda grid: ScalarField.from_function(grid, lambda a, b: np.cos(a))),
    (
        "mode_coscos",
        "modes",
        lambda grid: ScalarField.from_function(grid, lambda a, b: np.cos(a) * np.cos(b)),
    ),
    (
        "step_half",
        "steps",
        lambda grid: ScalarField.from_function(grid, lambda a, b: np.where(a < np.pi, 1.0, -1.0)),
    ),
    ("ind_quarter", "indicators", lambda grid: dyadic_indicator(grid, 2)),
    ("ind_sixteenth", "indicators", lambda grid: dyadic_indicator(grid, 4)),
    ("log_cap", "logs", truncated_log),
    ("gauss_wide", "gaussians", lambda grid: gaussian_bump(grid, np.pi / 2)),
    ("gauss_mid", "gaussians", lambda grid: gaussian_bump(grid, np.pi / 8)),
    ("gauss_narrow", "gaussians", lambda grid: gaussian_bump(grid, np.pi / 32)),
    ("nind_4", "nind", lambda grid: normalized_indicator(grid, 1.0 / 4.0)),
    ("nind_16", "nind", lambda grid: normalized_indicator(grid, 1.0 / 16.0)),
)


# ind_sixteenth is a dyadic square of level 4: grids need 2**4 points per axis
MIN_CORPUS_GRID = 16


def make_corpus(grid: GridSpec) -> list[tuple[str, str, ScalarField]]:
    """Deterministic (id, family, field) list of the fixed corpus."""
    return [(fid, family, build(grid)) for fid, family, build in CORPUS_BUILDERS]


# ---------------------------------------------------------------------------
# the main inequality
# ---------------------------------------------------------------------------


def log_bracket(l1_g: float, linf_g: float) -> float:
    """|ln ||g||_L1| + ln(1 + ||g||_Linf)."""
    if l1_g == 0:
        return 0.0
    return abs(math.log(l1_g)) + math.log1p(linf_g)


@dataclass(frozen=True)
class IneqTrial:
    """One evaluation of the duality inequality for a pair (f, g)."""

    f_id: str
    g_id: str
    grid_points: int
    lhs: float
    bmo_f: float
    l1_g: float
    linf_g: float
    bracket: float
    rhs_factor: float
    ratio: float | None
    degenerate: bool

    @classmethod
    def of(cls, f_id: str, g_id: str, grid_points: int, lhs: float, bmo_f: float,
           l1_g: float, linf_g: float) -> IneqTrial:
        """Trial of lhs = |int f g| against bmo_f * l1_g * log_bracket(l1_g, linf_g); a zero
        right-hand factor (e.g. g == 0 or constant f) is degenerate and has ratio None."""
        bracket = log_bracket(l1_g, linf_g)
        rhs_factor = bmo_f * l1_g * bracket
        degenerate = rhs_factor == 0.0
        ratio = None if degenerate else lhs / rhs_factor
        return cls(f_id, g_id, grid_points, lhs, bmo_f, l1_g, linf_g, bracket, rhs_factor, ratio,
                   degenerate)


def pairing(f: ScalarField, g: ScalarField) -> float:
    """Quadrature of integral f * g."""
    if f.grid != g.grid:
        raise ValueError("fields live on different grids")
    return float(np.sum(f.values * g.values) * f.grid.cell_volume)


def verify_main_inequality(f: ScalarField, g: ScalarField, f_id: str = "f",
                           g_id: str = "g") -> IneqTrial:
    """Empirical trial of |int f g| against ||f||_BMO ||g||_L1 [|ln..| + ln(1+..)]."""
    return IneqTrial.of(f_id, g_id, f.grid.points_per_axis, abs(pairing(f, g)), bmo_seminorm(f),
                        lp_norm(g, 1), lp_norm(g, np.inf))


def _riesz_l1_chain(riesz: tuple[float, float], l1g: float, linfg: float) -> list:
    """The constants c_k of ||R_k g||_L1 <= c_k ||g||_L1 (1 + 2 ln(||g||_oo + 1)
    + |ln ||g||_L1|), k = 1, 2, from riesz_l1(g), ||g||_L1 and ||g||_Linf;
    None where the right-hand factor vanishes."""
    rhs = l1g * (1.0 + 2.0 * math.log1p(linfg) + (abs(math.log(l1g)) if l1g > 0 else 0.0))
    return [(lhs / rhs) if rhs > 0 else None for lhs in riesz]


# ---------------------------------------------------------------------------
# Riesz L1 versus the Zygmund functional for compactly supported h
# ---------------------------------------------------------------------------


def support_extent(field: ScalarField) -> tuple[float, float]:
    """Periodic-aware extent of the support bounding box along each axis."""
    nz = field.values != 0
    h = field.grid.spacing
    extents = []
    for axis_occupied in (nz.any(axis=1), nz.any(axis=0)):
        idx = np.nonzero(axis_occupied)[0]
        if len(idx) == 0:
            extents.append(0.0)
            continue
        n = len(axis_occupied)
        gaps = np.diff(np.append(idx, idx[0] + n))  # circular gaps between occupied rows
        extents.append((n - (int(gaps.max()) - 1)) * h)
    return tuple(extents)


@dataclass(frozen=True)
class ZygmundTrial:
    h_id: str
    grid_points: int
    support: float
    llogl: float
    riesz_l1: tuple[float, float]
    constant: float  # max_k lhs_k / (1 + llogl)
    bound: float | None = None  # C0 + C0 * llogl once a corpus constant is known


def verify_zygmund_estimate(h: ScalarField, h_id: str = "h") -> ZygmundTrial:
    """Record ||R_k h||_L1 per axis against C0 * (1 + int h ln+ h).

    h must be nonnegative with compact support: the support bounding box may
    occupy at most half the torus side per axis, which leaves the fourfold
    area margin used when a compactly supported function is wrapped onto the
    torus to emulate extension by zero.
    """
    if h.values.min() < 0:
        raise ValueError("h must be nonnegative")
    ext = support_extent(h)
    if max(ext) > np.pi * (1 + 1e-12):
        raise ValueError(
            f"support extent {max(ext):.3f} exceeds pi; h must be compactly supported "
            "in a sub-square of side at most half the torus"
        )
    llogl = zygmund_functional(h, 1.0)
    lhs = riesz_l1(h)
    constant = max(lhs) / (1.0 + llogl)
    return ZygmundTrial(h_id, h.grid.points_per_axis, support_measure(h), llogl, lhs, constant)


def _indicator_trial(grid: GridSpec, N: int) -> ZygmundTrial:
    """verify_zygmund_estimate of h = N * 1_{area 1/N}, built here: the
    family's n = 256 fields are not all held at once."""
    return verify_zygmund_estimate(normalized_indicator(grid, 1.0 / N), h_id=f"nind_{N}")


def zygmund_family_scan(grid: GridSpec) -> dict:
    """Scan the unit-mass indicator family h = N * 1_{area 1/N}, N = 2 .. 64.

    Returns the trials, the corpus-wide constant C0 = max lhs / (1 + llogl),
    the per-axis least-squares slopes of ||R_k h||_L1 against ln N, and the
    matching slope of the Zygmund functional itself (identically 1 up to
    cell quantization of the realized mass).
    """
    # side by side (_map_tasks), the largest N first; trials in increasing N
    trials = _map_tasks(_indicator_trial, [(grid, N) for N in (64, 32, 16, 8, 4, 2)])[::-1]
    c0 = max(t.constant for t in trials)
    trials = [replace(t, bound=c0 * (1.0 + t.llogl)) for t in trials]
    log_n = np.array([math.log(1.0 / t.support) for t in trials])  # realized ln N
    llogl = np.array([t.llogl for t in trials])
    slope_llogl = float(np.polyfit(log_n, llogl, 1)[0])
    slopes = {}
    for axis in (0, 1):
        lhs = np.array([t.riesz_l1[axis] for t in trials])
        slopes[axis + 1] = float(np.polyfit(log_n, lhs, 1)[0])
    return {"trials": trials, "c0": c0, "slope_llogl": slope_llogl, "riesz_slopes": slopes}


# ---------------------------------------------------------------------------
# corpus scan across grid refinements
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CorpusScan:
    sizes: tuple[int, ...]
    trials: tuple[IneqTrial, ...]
    max_ratio: float
    max_ratio_by_size: dict
    max_ratio_by_family: dict
    ratio_slope: float | None  # d ln(max ratio) / d ln(size)
    duality_max_by_size: dict
    duality_slope: float | None
    chain_max_by_size: dict
    chain_slope: float | None

    def write_csv(self, path) -> None:
        write_csv(path, TRIALS_CSV_HEADER, (
            (t.f_id, t.g_id, t.grid_points, t.lhs, t.bmo_f, t.l1_g, t.linf_g, t.bracket, t.ratio)
            for t in self.trials
        ))


def _max_defined(values) -> float:
    """Largest value that is not None, 0.0 if there is none."""
    return max([0.0] + [v for v in values if v is not None])


def _field_norms(g: ScalarField) -> tuple:
    """(_hardy_riesz(g), ||g||_L1, ||g||_Linf): a corpus field's norms as the
    g of a trial."""
    return _hardy_riesz(g), lp_norm(g, 1), lp_norm(g, np.inf)


def scan_corpus(sizes=(32, 64, 128)) -> CorpusScan:
    """Deterministically enumerate all (f, g, size) trials over the corpus.

    Per size, each field's BMO norm, Riesz L1 pair, Hardy norm (from that
    pair), L1 and Linf norms are computed once, and so is each pairing
    |int f g|.  Each size's corpus is built once, here; then one _map_tasks
    call runs every field's BMO scan and then every field's other norms
    (_field_norms), each largest size first, so the Riesz transforms of
    the first fields run beside the last scans; the pairings and the rows
    run in this process.  A trial row is the one
    verify_main_inequality computes from those numbers (IneqTrial.of); the
    duality ratio of (f, g) is |int f g| / (||f||_BMO ||g||_H1), and the
    Riesz-chain constants of g come from _riesz_l1_chain.  Sizes must be
    distinct (a repeated size adds no refinement step to the slope fits) and
    at least MIN_CORPUS_GRID.
    """
    if len(sizes) == 0:
        raise ValueError("scan requires at least one size")
    if len(set(sizes)) != len(sizes):
        raise ValueError(f"scan sizes must be distinct, got {tuple(sizes)}")
    if min(sizes) < MIN_CORPUS_GRID:
        raise ValueError(f"scan sizes must be at least {MIN_CORPUS_GRID} (the corpus's "
                         f"ind_sixteenth is a level-4 dyadic square), got {tuple(sizes)}")
    grids = [GridSpec(n) for n in sizes]  # every size is checked before any field is built
    corpora = {grid.points_per_axis: make_corpus(grid) for grid in grids}
    largest_first = sorted(sizes, reverse=True)
    queue = [f for n in largest_first for _, _, f in corpora[n]]
    done = iter(_map_tasks(_call, [(bmo_seminorm, f) for f in queue]
                           + [(_field_norms, f) for f in queue]))
    bmo_by_size = {n: [next(done) for _ in corpora[n]] for n in largest_first}
    norms_by_size = {n: [next(done) for _ in corpora[n]] for n in largest_first}
    trials: list[IneqTrial] = []
    max_by_family: dict[str, float] = {}
    max_by_size, duality_by_size, chain_by_size = {}, {}, {}
    for n in sizes:
        fields, bmo = corpora[n], bmo_by_size[n]
        g_norms, chain = [], []  # per field: (Hardy, L1, Linf) norms; chain constants
        for (hardy, riesz), l1, linf in norms_by_size[n]:
            g_norms.append((hardy, l1, linf))
            chain += _riesz_l1_chain(riesz, l1, linf)
        rows, dual = [], []
        for (fid, fam, f), bmo_f in zip(fields, bmo):
            for (gid, _, g), (hardy_g, l1_g, linf_g) in zip(fields, g_norms):
                lhs = abs(pairing(f, g))
                rows.append(IneqTrial.of(fid, gid, n, lhs, bmo_f, l1_g, linf_g))
                denom = bmo_f * hardy_g
                dual.append(None if denom == 0.0 else lhs / denom)
                if rows[-1].ratio is not None:
                    max_by_family[fam] = max(max_by_family.get(fam, 0.0), rows[-1].ratio)
        trials += rows
        max_by_size[n] = _max_defined(t.ratio for t in rows)
        duality_by_size[n] = _max_defined(dual)
        chain_by_size[n] = _max_defined(chain)
    return CorpusScan(
        sizes=tuple(sizes),
        trials=tuple(trials),
        max_ratio=max(max_by_size.values()),
        max_ratio_by_size=max_by_size,
        max_ratio_by_family=max_by_family,
        ratio_slope=fit_exponent(sizes, [max_by_size[n] for n in sizes]),
        duality_max_by_size=duality_by_size,
        duality_slope=fit_exponent(sizes, [duality_by_size[n] for n in sizes]),
        chain_max_by_size=chain_by_size,
        chain_slope=fit_exponent(sizes, [chain_by_size[n] for n in sizes]),
    )
