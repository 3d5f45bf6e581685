"""Norm computations against analytic values and brute-force references."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view
from numpy.testing import assert_allclose

from loglimit import norms
from loglimit.flow import random_band_velocity
from loglimit.grid import TWO_PI, GridSpec, ScalarField, csv_line
from loglimit.logineq import CORPUS_BUILDERS, gaussian_bump, make_corpus, normalized_indicator
from loglimit.norms import (
    NORM_CSV_HEADER,
    NormReport,
    _chord_bounds,
    _std_bounds,
    bmo_seminorm,
    compute_norms,
    hardy_norm,
    lp_norm,
    zygmund_functional,
)
from reference import (
    brute_bmo_seminorm,
    brute_hardy_norm,
    brute_lp_norm,
    brute_zygmund,
    full_grid_chord_bounds,
    random_band_limited,
    std_pruned_bmo_seminorm,
    translate_bmo_seminorm,
    velocity_gradient,
)


# fields whose squares' computed deviations no pruning bound may undercut
BOUND_FIELDS = [
    lambda idx: (idx[0] + idx[1]) % 2 * 1.0,
    lambda idx: (np.maximum(*idx) < 16) * 1.0,
    lambda idx: np.where(idx[0] < 16, 1.0, -1.0),
    lambda idx: 1e200 * np.random.default_rng(2).standard_normal(idx[0].shape),
    lambda idx: 1e-200 * np.random.default_rng(2).standard_normal(idx[0].shape),
    lambda idx: 1e8 + 1e-7 * ((idx[0] + idx[1]) % 2),
    # every sub-square two-valued: the chord bound is exact before rounding,
    # so without its margin it undercuts thousands of computed deviations
    lambda idx: np.where(np.random.default_rng(3).random(idx[0].shape) < 0.3, 0.618034, -0.271828),
]
BOUND_FIELD_IDS = [
    "checkerboard", "indicator", "step", "normal-1e200", "normal-1e-200", "offset-checkerboard",
    "two-valued",
]


def field_of(grid, fn):
    return ScalarField.from_function(grid, fn)


class TestLp:
    def test_constant_l1_is_domain_measure(self, grid32):
        f = ScalarField(grid32, np.ones(grid32.shape))
        assert_allclose(lp_norm(f, 1), TWO_PI**2, rtol=1e-14)

    def test_cos_l1(self):
        # integral of |cos x1| over the torus is 8 pi; the kink costs O(h^2)
        grid = GridSpec(256)
        f = field_of(grid, lambda a, b: np.cos(a))
        assert_allclose(lp_norm(f, 1), 8 * np.pi, rtol=1e-4)

    def test_cos_linf(self, grid32):
        f = field_of(grid32, lambda a, b: np.cos(a))
        assert lp_norm(f, np.inf) == 1.0

    def test_p_below_one_rejected(self, grid16):
        f = ScalarField(grid16, np.ones(grid16.shape))
        with pytest.raises(ValueError):
            lp_norm(f, 0.5)

    def test_nan_p_rejected(self, grid16):
        f = ScalarField(grid16, np.ones(grid16.shape))
        with pytest.raises(ValueError, match="p >= 1, got nan"):
            lp_norm(f, math.nan)

    def test_l2_matches_parseval(self, grid32):
        vals = random_band_limited(32, 8, seed=2)
        f = ScalarField(grid32, vals)
        spec = math.sqrt(TWO_PI**2 * np.sum(np.abs(f.spectral) ** 2))
        assert_allclose(lp_norm(f, 2), spec, rtol=1e-12)


def _square_mads(v: np.ndarray, s: int) -> np.ndarray:
    """Mean absolute deviations of the wrapped s x s squares of v, by corner."""
    n = v.shape[0]
    padded = np.pad(v, ((0, s - 1), (0, s - 1)), mode="wrap")
    blocks = sliding_window_view(padded, (s, s))[:n, :n].reshape(n, n, s * s)
    return np.abs(blocks - blocks.mean(axis=2, keepdims=True)).mean(axis=2)


class TestBmo:
    def test_constant_is_zero(self, grid16):
        assert bmo_seminorm(ScalarField(grid16, 4.2 * np.ones(grid16.shape))) < 1e-13

    def test_translation_invariance(self, grid32):
        vals = random_band_limited(32, 6, seed=5)
        f = ScalarField(grid32, vals)
        g = ScalarField(grid32, vals + 17.0)
        assert abs(bmo_seminorm(f) - bmo_seminorm(g)) < 1e-12

    @given(lam=st.floats(min_value=-50, max_value=50).filter(lambda x: abs(x) > 1e-3))
    @settings(max_examples=20, deadline=None)
    def test_homogeneity(self, lam):
        grid = GridSpec(16)
        vals = random_band_limited(16, 4, seed=9)
        base = bmo_seminorm(ScalarField(grid, vals))
        scaled = bmo_seminorm(ScalarField(grid, lam * vals))
        assert scaled == pytest.approx(abs(lam) * base, rel=1e-12)

    def test_bounded_by_twice_sup(self):
        grid = GridSpec(16)
        for seed in range(8):
            vals = np.random.default_rng(seed).standard_normal(grid.shape)
            f = ScalarField(grid, vals)
            assert bmo_seminorm(f) <= 2 * np.abs(vals).max() + 1e-14

    def test_step_attains_one(self, grid32):
        f = field_of(grid32, lambda a, b: np.where(a < np.pi, 1.0, -1.0))
        assert bmo_seminorm(f) == pytest.approx(1.0, abs=1e-14)

    @pytest.mark.parametrize(
        "n, build",
        [
            (16, lambda grid: random_band_limited(16, 4, seed=0)),
            (16, lambda grid: random_band_limited(16, 7, seed=1)),
            (16, lambda grid: np.where(grid.coordinates()[0] < np.pi, 1.0, -1.0)),
            (16, lambda grid: gaussian_bump(grid, np.pi / 8).values),
            (32, lambda grid: random_band_limited(32, 8, seed=3)),
            (32, lambda grid: np.random.default_rng(4).standard_normal(grid.shape)),
            # every 2 x 2 square splits 50/50, so its deviation equals its std
            (16, lambda grid: (np.add(*np.indices(grid.shape)) % 2).astype(float)),
            (16, lambda grid: (np.maximum(*np.indices(grid.shape)) < 8).astype(float)),
            (16, lambda grid: 1e-200 * np.random.default_rng(10).standard_normal(grid.shape)),
            (16, lambda grid: 1e200 * np.random.default_rng(10).standard_normal(grid.shape)),
            # far from zero: an oracle that averaged the uncentered values would
            # round at ulp(1e6) / 2 and miss by ~1e-11 at seeds 8 and 10
            (16, lambda grid: 1e6 + np.random.default_rng(10).standard_normal(grid.shape)),
            (16, lambda grid: 1e6 + np.random.default_rng(8).standard_normal(grid.shape)),
        ],
        ids=[
            "16-band4", "16-band7", "16-step", "16-bump", "32-band8", "32-normal",
            "16-checkerboard", "16-indicator", "16-normal-1e-200", "16-normal-1e200",
            "16-normal-plus-1e6", "16-normal-plus-1e6-seed8",
        ],
    )
    def test_brute_force_agreement(self, n, build):
        grid = GridSpec(n)
        vals = build(grid)
        fast = bmo_seminorm(ScalarField(grid, vals))
        slow = brute_bmo_seminorm(vals)
        assert fast == pytest.approx(slow, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize(
        "build",
        [lambda grid, b=b: b(grid).values for _, _, b in CORPUS_BUILDERS]
        + [
            lambda grid, i=i: velocity_gradient(random_band_velocity(grid, seed=42))[i].values
            for i in range(4)
        ],
        ids=[fid for fid, _, _ in CORPUS_BUILDERS] + ["d1u1", "d2u1", "d1u2", "d2u2"],
    )
    def test_matches_full_translate_scan(self, build):
        # the workloads' own fields at n = 64, where the pruning leaves from
        # under 1% to most of a level's squares; the brute oracle is too slow
        grid = GridSpec(64)
        vals = build(grid)
        got = bmo_seminorm(ScalarField(grid, vals))
        assert got == pytest.approx(translate_bmo_seminorm(vals), rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("build", BOUND_FIELDS, ids=BOUND_FIELD_IDS)
    def test_std_bound_dominates_every_square(self, build):
        # the pruning is exact only if no square's computed deviation exceeds
        # its bound; two-valued squares split 50/50 meet it to rounding
        vals = build(np.indices((32, 32)))
        v = vals - vals.mean()
        e = int(np.frexp(np.abs(v).max())[1])
        for s, bound in _std_bounds(np.ldexp(v, -e)).items():
            assert np.all(bound >= np.ldexp(_square_mads(v, s).ravel(), -e))

    @pytest.mark.parametrize("n, s", [(32, 16), (64, 32), (128, 16), (128, 64)])
    @pytest.mark.parametrize("build", BOUND_FIELDS, ids=BOUND_FIELD_IDS)
    def test_chord_bound_dominates_every_square(self, build, n, s):
        # depths k = 1, 2, 3 (4^k sub-squares of side 8), at the top level of
        # a grid and below it; two-valued sub-squares split 50/50 meet both
        # the chord and the Cauchy-Schwarz term with equality
        vals = build(np.indices((n, n)))
        v = vals - vals.mean()
        e = int(np.frexp(np.abs(v).max())[1])
        bound = _chord_bounds(np.ldexp(v, -e), s, np.arange(n * n)).reshape(n, n)
        padded = np.pad(v, ((0, s - 1), (0, s - 1)), mode="wrap")
        for i, row in enumerate(sliding_window_view(padded, (s, s))[:n]):
            blocks = row.reshape(n, s * s)
            mad = np.abs(blocks - blocks.mean(axis=1, keepdims=True)).mean(axis=1)
            assert np.all(bound[i] >= np.ldexp(mad, -e))

    @pytest.mark.parametrize("n, s", [(32, 16), (64, 32), (128, 16), (128, 64)])
    @pytest.mark.parametrize("build", BOUND_FIELDS, ids=BOUND_FIELD_IDS)
    def test_live_corner_chord_bounds_are_the_full_grid_bits(self, build, n, s):
        # the bounds at the corners the scan would pass (live under the std
        # bound against the full torus) and at a random third of the corners
        # are the full-grid pass's bits there, in any corner order
        vals = build(np.indices((n, n)))
        v = vals - vals.mean()
        e = int(np.frexp(np.abs(v).max())[1])
        w = np.ldexp(v, -e)
        full = full_grid_chord_bounds(w, s)
        live = np.flatnonzero(_std_bounds(w)[s] > np.abs(w).mean())
        some = np.random.default_rng(n + s).permutation(n * n)[: n * n // 3]
        for corners in (live, some, np.sort(some)):
            assert _chord_bounds(w, s, corners).tobytes() == full[corners].tobytes()

    @pytest.mark.parametrize("s, count", [(64, 16), (64, 5), (32, 64), (16, 7), (2, 300)])
    def test_window_view_read_is_the_per_square_mad(self, s, count):
        # one level's window view, read twice: each read is the largest
        # per-square deviation computed square by square, on the per-row
        # centring (s = 64) and the broadcast one (s <= 32)
        n = 128
        vals = np.random.default_rng(s + count).standard_normal((n, n)) + 3.0
        padded = np.pad(vals, ((0, n // 2 - 1), (0, n // 2 - 1)), mode="wrap")
        kept = padded.copy()
        view = sliding_window_view(padded, (s, s))
        for seed in (0, 1):
            corners = np.random.default_rng(seed).choice(n * n, count, replace=False)
            mads = []
            for corner in corners:
                i, j = divmod(int(corner), n)
                block = padded[i : i + s, j : j + s].ravel()
                mads.append(float(np.abs(block - block.mean()).sum()) / (s * s))
            assert norms._gathered_max(view, n, s, corners) == max(mads)
        assert np.array_equal(padded, kept)  # reads leave the wrapped copy as it was

    @pytest.mark.parametrize("n", [32, 64, 128])
    def test_corpus_bits_match_std_pruned_scan(self, n):
        for fid, _, f in make_corpus(GridSpec(n)):
            assert bmo_seminorm(f) == std_pruned_bmo_seminorm(f), fid

    @pytest.mark.parametrize(
        "n, build",
        [(64, lambda grid, i=i: velocity_gradient(random_band_velocity(grid, seed=42))[i].values)
         for i in range(4)]
        + [
            (64, lambda grid: random_band_limited(64, 8, seed=5)),
            (128, lambda grid: random_band_limited(128, 2, seed=6)),
            (128, lambda grid: random_band_limited(128, 3, seed=7)),
            (64, lambda grid: np.random.default_rng(8).standard_normal(grid.shape)),
            (64, lambda grid: 1e6 + np.random.default_rng(9).standard_normal(grid.shape)),
        ],
        ids=["d1u1", "d2u1", "d1u2", "d2u2", "64-band8", "128-band2", "128-band3",
             "64-normal", "64-normal-plus-1e6"],
    )
    def test_bits_match_std_pruned_scan(self, n, build):
        f = ScalarField(GridSpec(n), build(GridSpec(n)))
        assert bmo_seminorm(f) == std_pruned_bmo_seminorm(f)

    @pytest.mark.parametrize("fid, std_reads", [("gauss_wide", 5584), ("log_cap", 4912)])
    def test_chord_bound_prunes_top_level(self, monkeypatch, fid, std_reads):
        # squares read at s = 64 of n = 128 when the std bound alone prunes: std_reads
        reads = []
        gathered = norms._gathered_max

        def counting(padded, n, s, corners):
            reads.append(corners.size if s == 64 else 0)
            return gathered(padded, n, s, corners)

        monkeypatch.setattr(norms, "_gathered_max", counting)
        field = {i: f for i, _, f in make_corpus(GridSpec(128))}[fid]
        assert bmo_seminorm(field) == std_pruned_bmo_seminorm(field)
        assert 0 < sum(reads) <= std_reads / 4


class TestWrappedCopy:
    """bmo_seminorm reads every square from one copy of the field wrapped by
    n/2 - 1 cells, built only once a square must be read."""

    @pytest.fixture
    def reads(self, monkeypatch):
        """(s, corners) of every _gathered_max call, in call order."""
        calls = []
        gathered = norms._gathered_max

        def recording(padded, n, s, corners):
            calls.append((s, corners.copy()))
            return gathered(padded, n, s, corners)

        monkeypatch.setattr(norms, "_gathered_max", recording)
        return calls

    @pytest.mark.parametrize("n", [16, 32])
    def test_top_level_maximum(self, n, reads):
        # a shifted mode_coscos: only s = n/2 squares are read, among them
        # corners in the last row and column, which the copy's full width holds
        grid = GridSpec(n)
        x1, x2 = grid.coordinates()
        vals = np.roll(np.cos(x1) * np.cos(x2), (1, 1), axis=(0, 1))
        got = bmo_seminorm(ScalarField(grid, vals))
        assert got == pytest.approx(brute_bmo_seminorm(vals), rel=1e-12, abs=0.0)
        assert {s for s, _ in reads} == {n // 2}
        corners = np.concatenate([c for _, c in reads])
        assert n * n - 1 in corners  # the square wrapping both edges by n/2 - 1 cells

    @pytest.mark.parametrize("n", [16, 32])
    def test_maximum_wraps_both_edges(self, n, reads):
        # mode_coscos plus a bump has one maximizing square, at s = n/2; the
        # field is rolled so that its corner is the last cell, and the square
        # wraps around both edges by n/2 - 1 cells
        grid = GridSpec(n)
        x1, x2 = grid.coordinates()
        vals = np.cos(x1) * np.cos(x2) + 0.05 * gaussian_bump(grid, np.pi / 4).values
        mads = _square_mads(vals - vals.mean(), n // 2)
        i, j = np.unravel_index(np.argmax(mads), mads.shape)
        vals = np.roll(vals, (n - 1 - i, n - 1 - j), axis=(0, 1))
        v = vals - vals.mean()
        top = _square_mads(v, n // 2)
        below = max(_square_mads(v, 2**k).max() for k in range(1, n.bit_length() - 2))
        assert np.flatnonzero(top == top.max()).tolist() == [n * n - 1]
        assert top.max() > max(below, np.abs(v).mean())
        got = bmo_seminorm(ScalarField(grid, vals))
        assert got == pytest.approx(brute_bmo_seminorm(vals), rel=1e-12, abs=0.0)
        assert any(n * n - 1 in c for s, c in reads if s == n // 2)

    @pytest.mark.parametrize("component", range(3))
    def test_seed_square_read_first(self, component, reads):
        # a smooth gradient component: the square with the largest bound over
        # all levels is read alone, before any level, and the scan still
        # finds the maximum over every square
        grid = GridSpec(32)
        vals = velocity_gradient(random_band_velocity(grid, seed=42))[component].values
        got = bmo_seminorm(ScalarField(grid, vals))
        assert reads[0][1].size == 1
        assert got == pytest.approx(brute_bmo_seminorm(vals), rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("n", [16, 32])
    def test_no_square_read(self, n, reads, monkeypatch):
        # +-1 on diagonal bands, half the torus each: no square of side <= n/2
        # splits 50/50, so no bound beats the full torus and no copy is built
        i, j = np.indices((n, n))
        vals = np.where((i + j) % n < n // 2, 1.0, -1.0)
        field = ScalarField(GridSpec(n), vals)

        def no_copy(*args, **kwargs):
            raise AssertionError("a wrapped copy was built")

        monkeypatch.setattr(np, "pad", no_copy)
        got = bmo_seminorm(field)
        assert got == float(np.abs(vals - vals.mean()).mean()) == 1.0
        assert reads == []


class TestHardy:
    def test_zero_field(self, grid16):
        assert hardy_norm(ScalarField.zeros(grid16)) == 0.0

    def test_cos_mode_value(self):
        # ||cos||_L1 + ||R1 cos||_L1 + 0 = 8pi + 8pi = 16pi
        grid = GridSpec(256)
        f = field_of(grid, lambda a, b: np.cos(a))
        assert_allclose(hardy_norm(f), 16 * np.pi, rtol=2e-4)

    def test_dominates_l1(self):
        grid = GridSpec(32)
        for seed in range(6):
            vals = np.random.default_rng(seed).standard_normal(grid.shape)
            f = ScalarField(grid, vals)
            assert hardy_norm(f) >= lp_norm(f, 1) - 1e-12

    def test_mean_removal_decreases(self, grid64):
        bump = gaussian_bump(grid64, np.pi / 8)
        assert hardy_norm(bump - bump.mean()) < hardy_norm(bump)

    def test_gaussian_bump_refined_grid_oracle(self):
        # the bump occupies a quarter of the torus side, leaving the fourfold
        # margin of the zero-extension embedding; the refined grid is the oracle
        vals = [
            hardy_norm(gaussian_bump(GridSpec(n), np.pi / 8)) for n in (64, 256)
        ]
        assert np.isfinite(vals[0])
        assert vals[0] == pytest.approx(vals[1], rel=2e-3)

    def test_brute_force_agreement_16(self, grid16):
        vals = random_band_limited(16, 5, seed=13) + 0.3
        assert hardy_norm(ScalarField(grid16, vals)) == pytest.approx(
            brute_hardy_norm(vals), rel=1e-12
        )


class TestZygmund:
    def test_flat_bump_analytic(self, grid64):
        # h = e on a square Q, lambda = 1: integral is e * |Q|
        ind = normalized_indicator(grid64, 1.0)
        measure = 1.0 / np.max(ind.values)
        h = ScalarField(grid64, np.where(ind.values > 0, np.e, 0.0))
        assert_allclose(zygmund_functional(h, 1.0), np.e * measure, rtol=1e-13)

    def test_vanishes_when_lambda_dominates(self, grid32):
        g = gaussian_bump(grid32, np.pi / 4)
        assert zygmund_functional(g, 1.0001) == 0.0

    def test_negative_rejected(self, grid16):
        f = field_of(grid16, lambda a, b: np.cos(a))
        with pytest.raises(ValueError, match="requires g"):
            zygmund_functional(f, 1.0)

    def test_lambda_zero_rejected(self, grid16):
        f = ScalarField(grid16, np.ones(grid16.shape))
        with pytest.raises(ValueError):
            zygmund_functional(f, 0.0)

    def test_lambda_nan_rejected(self, grid16):
        f = ScalarField(grid16, np.ones(grid16.shape))
        with pytest.raises(ValueError, match="positive, got nan"):
            zygmund_functional(f, math.nan)

    @given(
        lam=st.floats(min_value=0.05, max_value=5.0),
        factor=st.floats(min_value=1.01, max_value=10.0),
    )
    @settings(max_examples=25, deadline=None)
    def test_nonincreasing_in_lambda(self, lam, factor):
        grid = GridSpec(16)
        vals = np.abs(random_band_limited(16, 4, seed=21)) * 3.0
        g = ScalarField(grid, vals)
        assert zygmund_functional(g, lam * factor) <= zygmund_functional(g, lam) + 1e-15

    def test_positive_part_cos_against_refined_quadrature(self):
        # same integrand sampled on a much finer grid as the oracle
        lam = 0.5
        vals = []
        for n in (64, 1024):
            grid = GridSpec(n)
            g = field_of(grid, lambda a, b: np.maximum(np.cos(a), 0.0))
            vals.append(zygmund_functional(g, lam))
        assert vals[0] == pytest.approx(vals[1], rel=1e-3)

    def test_brute_force_agreement_16(self, grid16):
        vals = np.abs(random_band_limited(16, 5, seed=30)) * 4.0
        g = ScalarField(grid16, vals)
        assert zygmund_functional(g, 0.7) == pytest.approx(
            brute_zygmund(vals, 0.7), rel=1e-12
        )


class TestNormReport:
    def test_interpolation_invariants(self):
        grid = GridSpec(32)
        for seed in range(8):
            vals = np.random.default_rng(seed).standard_normal(grid.shape) * 3
            rep = compute_norms(ScalarField(grid, vals))
            assert rep.l1 <= TWO_PI**2 * rep.linf * (1 + 1e-12)
            assert rep.l2**2 <= rep.l1 * rep.linf * (1 + 1e-12)
            assert rep.hardy >= rep.l1 * (1 - 1e-12)
            assert rep.llogl >= 0.0

    def test_lp_against_reference(self, grid16):
        vals = random_band_limited(16, 5, seed=8)
        rep = compute_norms(ScalarField(grid16, vals), sigma=2.0)
        assert rep.l1 == pytest.approx(brute_lp_norm(vals, 1), rel=1e-12)
        assert rep.l2 == pytest.approx(brute_lp_norm(vals, 2), rel=1e-12)
        assert rep.lp_sigma == pytest.approx(brute_lp_norm(vals, 2.0), rel=1e-12)
        assert rep.linf == brute_lp_norm(vals, math.inf)

    def test_csv_row(self, grid16):
        rep = compute_norms(ScalarField(grid16, np.ones(grid16.shape)))
        assert csv_line(NORM_CSV_HEADER) == "l1,l2,linf,lp_sigma,bmo,hardy,llogl"
        row = rep.csv_row()
        assert len(row.split(",")) == 7
        assert float(row.split(",")[0]) == pytest.approx(TWO_PI**2)

    def test_invalid_report_rejected(self):
        with pytest.raises(ValueError):
            NormReport(l1=10.0, l2=1.0, linf=1.0, lp_sigma=1.0, bmo=0.0, hardy=0.5, llogl=0.0)
