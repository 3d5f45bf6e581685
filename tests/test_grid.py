"""Grid fields, transforms, and spectral calculus."""

import math
import re

import numpy as np
import pytest
from numpy.testing import assert_allclose

from loglimit.grid import (
    FIELD_CSV_HEADER,
    TWO_PI,
    GridSpec,
    ScalarField,
    VectorField,
    curl,
    divergence,
    gradient,
    inverse_transform,
    leray_project,
    load_field_csv,
    read_csv,
    riesz_transform,
    save_field_csv,
    write_csv,
)
from reference import centered_difference, random_band_limited


def field_of(grid, fn):
    return ScalarField.from_function(grid, fn)


class TestGridSpec:
    def test_valid_sizes(self):
        for n in (8, 16, 64, 256):
            assert GridSpec(n).points_per_axis == n

    @pytest.mark.parametrize("n", [4, 7, 12, 48, 100])
    def test_invalid_sizes_rejected(self, n):
        with pytest.raises(ValueError):
            GridSpec(n)

    def test_cell_volume(self):
        g = GridSpec(32)
        assert_allclose(g.cell_volume, (TWO_PI / 32) ** 2, rtol=1e-15)


class TestScalarField:
    def test_rejects_nonfinite(self, grid16):
        vals = np.zeros(grid16.shape)
        vals[3, 5] = np.nan
        with pytest.raises(ValueError, match="finite"):
            ScalarField(grid16, vals)
        vals[3, 5] = np.inf
        with pytest.raises(ValueError, match="finite"):
            ScalarField(grid16, vals)

    def test_values_immutable(self, grid16):
        f = ScalarField(grid16, np.ones(grid16.shape))
        with pytest.raises(ValueError):
            f.values[0, 0] = 2.0

    def test_roundtrip(self, grid32):
        for seed in range(5):
            vals = np.random.default_rng(seed).standard_normal(grid32.shape)
            f = ScalarField(grid32, vals)
            back = inverse_transform(grid32, f.spectral)
            err = np.linalg.norm(back.values - vals) / np.linalg.norm(vals)
            assert err < 1e-12

    def test_spectral_cache_matches_fft(self, grid16):
        vals = np.random.default_rng(0).standard_normal(grid16.shape)
        f = ScalarField(grid16, vals)
        assert f.spectral is f.spectral  # cached object, computed once
        assert_allclose(f.spectral, np.fft.fft2(vals) / vals.size, atol=1e-15)

    def test_spectral_cache_fill_is_thread_safe(self, grid64):
        import threading

        vals = np.random.default_rng(5).standard_normal(grid64.shape)
        f = ScalarField(grid64, vals)
        got = []
        barrier = threading.Barrier(8)

        def grab():
            barrier.wait()
            got.append(f.spectral)

        threads = [threading.Thread(target=grab) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert all(g is got[0] for g in got)  # one cached array for everyone

    def test_parseval(self, grid32):
        vals = np.random.default_rng(1).standard_normal(grid32.shape)
        f = ScalarField(grid32, vals)
        quad = np.sum(vals**2) * grid32.cell_volume
        spec = TWO_PI**2 * np.sum(np.abs(f.spectral) ** 2)
        assert_allclose(quad, spec, rtol=1e-12)


class TestGradient:
    def test_constant_has_zero_gradient(self, grid32):
        g = gradient(ScalarField(grid32, 3.7 * np.ones(grid32.shape)))
        assert np.abs(g.u1.values).max() < 1e-14
        assert np.abs(g.u2.values).max() < 1e-14

    def test_sin_x1(self, grid32):
        f = field_of(grid32, lambda a, b: np.sin(a))
        g = gradient(f)
        x1, _ = grid32.coordinates()
        assert_allclose(g.u1.values, np.cos(x1), atol=1e-13)
        assert np.abs(g.u2.values).max() < 1e-13

    def test_product_mode(self, grid32):
        f = field_of(grid32, lambda a, b: np.sin(a) * np.cos(b))
        g = gradient(f)
        x1, x2 = grid32.coordinates()
        assert_allclose(g.u1.values, np.cos(x1) * np.cos(x2), atol=1e-13)
        assert_allclose(g.u2.values, -np.sin(x1) * np.sin(x2), atol=1e-13)

    def test_components_mean_free(self, grid32):
        vals = random_band_limited(32, 10, seed=3)
        g = gradient(ScalarField(grid32, vals))
        assert abs(g.u1.mean()) < 1e-14
        assert abs(g.u2.mean()) < 1e-14

    def test_finite_difference_oracle_second_order(self):
        errs = []
        for n in (32, 64, 128):
            grid = GridSpec(n)
            f = field_of(grid, lambda a, b: np.exp(np.sin(a)) * np.cos(b))
            spectral = gradient(f).u1.values
            fd = centered_difference(f.values, 1, grid.spacing)
            errs.append(np.abs(spectral - fd).max())
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.1)
        assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.1)


class TestRiesz:
    def test_axis_validation(self, grid16):
        f = ScalarField(grid16, np.ones(grid16.shape))
        for axis in (0, 3, -1):
            with pytest.raises(ValueError):
                riesz_transform(f, axis)

    def test_constant_annihilated(self, grid16):
        f = ScalarField(grid16, 5.0 * np.ones(grid16.shape))
        assert np.abs(riesz_transform(f, 1).values).max() < 1e-14

    def test_single_mode(self, grid32):
        f = field_of(grid32, lambda a, b: np.cos(a))
        x1, _ = grid32.coordinates()
        assert_allclose(riesz_transform(f, 1).values, np.sin(x1), atol=1e-13)
        assert np.abs(riesz_transform(f, 2).values).max() < 1e-13

    def test_riesz_identity(self, grid64):
        # sum_k R_k(R_k g) = -(g - mean g) on band-limited fields
        for seed in range(10):
            vals = random_band_limited(64, 12, seed=seed)
            f = ScalarField(grid64, vals)
            total = sum(
                riesz_transform(riesz_transform(f, k), k).values for k in (1, 2)
            )
            target = -(vals - vals.mean())
            err = np.linalg.norm(total - target) / np.linalg.norm(target)
            assert err < 1e-10

    def test_output_is_real_and_mean_free(self, grid32):
        vals = np.random.default_rng(7).standard_normal(grid32.shape)
        out = riesz_transform(ScalarField(grid32, vals), 1)
        assert out.values.dtype == np.float64
        assert abs(out.mean()) < 1e-14


class TestLeray:
    def test_divergence_free_fixed_point(self, grid32):
        v = VectorField(
            field_of(grid32, lambda a, b: np.sin(b)),
            ScalarField(grid32, np.zeros(grid32.shape)),
        )
        p = leray_project(v)
        assert np.abs(p.u1.values - v.u1.values).max() < 1e-12
        assert np.abs(p.u2.values).max() < 1e-12

    def test_gradient_in_kernel(self, grid32):
        phi = field_of(grid32, lambda a, b: np.sin(2 * a) * np.cos(b) + np.cos(a))
        p = leray_project(gradient(phi))
        assert np.abs(p.u1.values).max() < 1e-12
        assert np.abs(p.u2.values).max() < 1e-12

    def test_pure_gradient_mode_killed(self, grid32):
        # (sin x1, 0) = grad(-cos x1) projects to zero
        v = VectorField(
            field_of(grid32, lambda a, b: np.sin(a)),
            ScalarField(grid32, np.zeros(grid32.shape)),
        )
        p = leray_project(v)
        assert np.abs(p.u1.values).max() < 1e-13
        assert np.abs(p.u2.values).max() < 1e-13

    def test_idempotent_and_divergence_free(self, grid64):
        vals1 = random_band_limited(64, 20, seed=11)
        vals2 = random_band_limited(64, 20, seed=12)
        v = VectorField.from_values(grid64, vals1, vals2)
        p = leray_project(v)
        pp = leray_project(p)
        rel = np.linalg.norm(p.u1.values - pp.u1.values) / np.linalg.norm(p.u1.values)
        assert rel < 1e-12
        vmax = max(np.abs(p.u1.values).max(), np.abs(p.u2.values).max())
        assert np.abs(divergence(p).values).max() <= 1e-10 * vmax

    def test_projected_gradient_fd_convergence(self):
        # finite differences reproduce the spectral gradient of a projected
        # field at second order
        errs = []
        for n in (32, 64):
            grid = GridSpec(n)
            v = VectorField(
                ScalarField.from_function(grid, lambda a, b: np.sin(a + b) + np.cos(2 * a)),
                ScalarField.from_function(grid, lambda a, b: np.sin(b) * np.cos(a)),
            )
            p = leray_project(v)
            spectral = gradient(p.u1).u2.values
            fd = centered_difference(p.u1.values, 2, grid.spacing)
            errs.append(np.abs(spectral - fd).max())
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.15)


class TestCurlDivergence:
    def test_curl_of_gradient_vanishes(self, grid32):
        phi = field_of(grid32, lambda a, b: np.sin(a) * np.sin(2 * b))
        assert np.abs(curl(gradient(phi)).values).max() < 1e-12


class TestCsv:
    def test_roundtrip_exact(self, grid16, tmp_path):
        vals = np.random.default_rng(3).standard_normal(grid16.shape)
        f = ScalarField(grid16, vals)
        path = tmp_path / "field.csv"
        save_field_csv(f, path)
        g = load_field_csv(path)
        assert np.array_equal(g.values, vals)  # 17 significant digits round-trips
        header = path.read_text().splitlines()[0]
        assert header == "x1,x2,value"

    @pytest.mark.parametrize("n", [8, 64])
    def test_field_bytes_match_row_by_row_writer(self, n, tmp_path):
        # save_field_csv formats each axis coordinate once per file; its bytes
        # must be those of write_csv formatting every row's three cells
        grid = GridSpec(n)
        vals = np.random.default_rng(n).standard_normal(grid.shape)
        vals.flat[:6] = [-0.0, 5e-324, 1e300, -1e300, 0.1, 0.0]
        vals.flat[-1] = -5e-324
        path, old = tmp_path / "field.csv", tmp_path / "rows.csv"
        save_field_csv(ScalarField(grid, vals), path)
        x1, x2 = grid.coordinates()
        write_csv(old, FIELD_CSV_HEADER, zip(x1.ravel().tolist(), x2.ravel().tolist(),
                                             vals.ravel().tolist()))
        assert path.read_bytes() == old.read_bytes()
        back = load_field_csv(path).values
        assert back.tobytes() == vals.tobytes()  # -0.0 and subnormals included

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n0,0,1\n")
        with pytest.raises(ValueError, match="header"):
            load_field_csv(path)

    @pytest.mark.parametrize("text, message", [
        ("", "got an empty file"),
        ("a,b\n1,2\n", "expected header ('a', 'b', 'c')"),
        ("a,b,c\n", "no data rows"),
        ("a,b,c\n1,2,3\n1,2,3,4\n", "line 3 has 4 cells, expected 3"),
        ("a,b,c\n1,2,3\n1,,3\n", "line 3 has a cell that is not a number"),
        ("a,b,c\n1,2,x\n", "line 2 has a cell that is not a number"),
    ], ids=["empty", "header", "header-only", "long-row", "empty-cell", "text-cell"])
    def test_read_csv_rejects_malformed(self, text, message, tmp_path):
        path = tmp_path / "table.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match=re.escape(message)):
            read_csv(path, ("a", "b", "c"))

    def test_read_csv_round_trips_write_csv(self, tmp_path):
        rows = [(0.1, -2.5e-300, math.inf), (math.pi, math.nan, 0.0)]
        path = tmp_path / "table.csv"
        write_csv(path, ("a", "b", "c"), rows)
        np.testing.assert_array_equal(read_csv(path, ("a", "b", "c")), np.array(rows))

    def test_transposed_rows_rejected(self, grid16, tmp_path):
        # column-major rows, each correctly labelled: reading only the value
        # column would load the transposed field
        vals = np.random.default_rng(4).standard_normal(grid16.shape)
        x1, x2 = grid16.coordinates()
        rows = ["x1,x2,value"] + [
            f"{a:.17g},{b:.17g},{v:.17g}" for a, b, v in zip(x1.T.ravel(), x2.T.ravel(), vals.T.ravel())
        ]
        path = tmp_path / "transposed.csv"
        path.write_text("\n".join(rows) + "\n")
        with pytest.raises(ValueError, match="coordinates"):
            load_field_csv(path)
