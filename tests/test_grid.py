"""Grid fields, transforms, spectral calculus, CSVs, and the parallel map."""

import math
import os
import re
import signal
import threading
import time

import numpy as np
import pytest
from numpy.testing import assert_allclose

from loglimit.grid import (
    FIELD_CSV_HEADER,
    TWO_PI,
    GridSpec,
    ScalarField,
    VectorField,
    _map_tasks,
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
from conftest import assert_no_child_left
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


def _fail_after(k: int, delay: float):
    time.sleep(delay)
    raise ArithmeticError(f"task {k} failed")


def _pid_after(delay: float) -> int:
    time.sleep(delay)
    return os.getpid()


def _nested_pids() -> tuple[int, list]:
    return os.getpid(), _map_tasks(_pid_after, [(0.02,)] * 3)


def _exit_in_child(caller: int, delay: float) -> None:
    time.sleep(delay)
    if os.getpid() != caller:
        os._exit(3)


def _lock_in_child(caller: int, delay: float):
    time.sleep(delay)
    return None if os.getpid() == caller else threading.Lock()


def _log_index(log: int, k: int) -> int:
    os.write(log, f"{k}\n".encode())  # one O_APPEND write: whole lines, whoever writes
    return k


def _index_after(k: int, delay: float) -> int:
    time.sleep(delay)
    return k


def _open_fds() -> list:
    return sorted(os.listdir("/proc/self/fd"))


class TestMapTasks:
    """The one parallel map, in this process and in forked children."""

    @pytest.mark.parametrize("k", [1, 2])
    def test_first_error_in_task_order(self, cpus, k):
        # every task raises, task 0 last in time: its error is still the one raised
        cpus(k)
        tasks = [(i, 0.05 if i == 0 else 0.0) for i in range(4)]
        with pytest.raises(ArithmeticError, match=r"^task 0 failed$"):
            _map_tasks(_fail_after, tasks)
        assert_no_child_left()

    def test_map_tasks_placement(self, cpus):
        caller = os.getpid()
        cpus(1)
        assert _map_tasks(_pid_after, [(0.02,)] * 4) == [caller] * 4
        cpus(2)
        pids = _map_tasks(_pid_after, [(0.02,)] * 6)
        assert pids[0] == caller and len(set(pids)) == 2  # task 0 in the caller
        assert _map_tasks(pow, [(2, k) for k in range(9)]) == [2**k for k in range(9)]
        assert _map_tasks(os.getpid, [()]) == [caller]  # one task
        # a map inside a mapped task runs in-process, wherever that task runs
        nested = _map_tasks(_nested_pids, [()] * 4)
        assert nested[0] == (caller, [caller] * 3)
        assert all(inner == [pid] * 3 for pid, inner in nested)
        assert _map_tasks(lambda k: -k, [(k,) for k in range(3)]) == [0, -1, -2]  # fn need not pickle
        assert_no_child_left()

    def test_long_task_list(self, cpus, tmp_path):
        # hundreds of times the largest map the package makes (105 tasks);
        # the log shows that every index is drawn and run exactly once
        cpus(2)
        count = 40_000
        fds = _open_fds()
        assert _map_tasks(abs, [(-k,) for k in range(count)]) == list(range(count))
        log = os.open(tmp_path / "ran", os.O_WRONLY | os.O_CREAT | os.O_APPEND)
        try:
            assert _map_tasks(_log_index, [(log, k) for k in range(count)]) == list(range(count))
        finally:
            os.close(log)
        ran = sorted(int(line) for line in (tmp_path / "ran").read_text().splitlines())
        assert ran == list(range(count))
        assert_no_child_left()
        assert _open_fds() == fds

    def test_child_dying_mid_draw_does_not_hang(self, cpus, monkeypatch):
        # the child exits while it holds the counter's lock, before writing
        # the counter back, as the caller sleeps in task 0; the kernel drops
        # the lock and the caller draws and runs every task.  The alarm
        # fails a map that hangs instead of hanging the suite.
        cpus(2)
        caller, pwrite = os.getpid(), os.pwrite

        def pwrite_or_exit(fd, data, offset):
            if os.getpid() != caller:
                os._exit(3)
            return pwrite(fd, data, offset)

        def hung(signum, frame):
            raise TimeoutError("the map hangs after a child died mid-draw")

        monkeypatch.setattr(os, "pwrite", pwrite_or_exit)
        fds = _open_fds()
        previous = signal.signal(signal.SIGALRM, hung)
        signal.alarm(10)
        try:
            tasks = [(0, 0.2)] + [(k, 0.0) for k in range(1, 6)]
            assert _map_tasks(_index_after, tasks) == list(range(6))
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert_no_child_left()
        assert _open_fds() == fds

    def test_child_exit_raises(self, cpus):
        # task 1 ends its child with status 3 while the caller sleeps in task 0
        cpus(2)
        fds = _open_fds()
        with pytest.raises(RuntimeError, match=r"^task 1 sent no result: .* status \[3\]$"):
            _map_tasks(_exit_in_child, [(os.getpid(), 0.3), (os.getpid(), 0.0)])
        assert_no_child_left()
        assert _open_fds() == fds

    def test_result_that_does_not_pickle_raises(self, cpus, capfd):
        # the child that ran task 1 prints why it sent nothing back
        cpus(2)
        fds = _open_fds()
        with pytest.raises(RuntimeError, match=r"^task 1 sent no result: .* status \[1\]$"):
            _map_tasks(_lock_in_child, [(os.getpid(), 0.3), (os.getpid(), 0.0)])
        assert "TypeError: cannot pickle '_thread.lock' object" in capfd.readouterr().err
        assert_no_child_left()
        assert _open_fds() == fds

    def test_caller_error_waits_for_child(self, cpus):
        # task 0 raises in the caller while the child sleeps in task 1; the
        # map reaps the child and raises task 0's error
        cpus(2)
        fds = _open_fds()
        start = time.monotonic()
        with pytest.raises(ArithmeticError, match=r"^task 0 failed$"):
            _map_tasks(_fail_after, [(0, 0.05), (1, 0.3), (2, 0.0)])
        assert time.monotonic() - start >= 0.3
        assert_no_child_left()
        assert _open_fds() == fds
