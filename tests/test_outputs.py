"""Every CSV the package writes follows the one format `grid.write_csv` defines.

Header first, one cell per header column on every row, `\\n` line ends, floats
at 17 significant digits so that each cell reads back to the bits it was
written from, and an empty cell where a ratio is undefined.
"""

import csv
import math
import struct
from pathlib import Path

import numpy as np
import pytest

from loglimit.cli import main
from loglimit.flow import SERIES_CSV_HEADER, NormSeries
from loglimit.grid import FIELD_CSV_HEADER, GridSpec, ScalarField, load_field_csv, save_field_csv
from loglimit.inviscid import GAPS_CSV_HEADER, ExperimentConfig, run_sweep, verify_rate
from loglimit.logineq import TRIALS_CSV_HEADER, gaussian_bump, scan_corpus
from loglimit.osgood import OsgoodProblem, integrate_majorant, log_gronwall_bound
from loglimit.splitting import SPLIT_CSV_HEADER, threshold_sweep

SRC = Path(__file__).resolve().parent.parent / "src" / "loglimit"


def read_rows(path, header):
    """Data rows of a CSV after checking its header, row widths and line ends."""
    raw = Path(path).read_bytes()
    assert b"\r" not in raw
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert tuple(rows[0]) == tuple(header)
    assert all(len(row) == len(header) for row in rows[1:])
    return rows[1:]


def assert_bits(cells, values):
    """Each cell parses to exactly the float64 bits of its value."""
    assert len(cells) == len(values)
    for cell, value in zip(cells, values):
        assert struct.pack("<d", float(cell)) == struct.pack("<d", float(value)), (cell, value)


def column(rows, j):
    return [row[j] for row in rows]


@pytest.fixture(scope="module")
def sweep(tmp_path_factory):
    outdir = tmp_path_factory.mktemp("sweep")
    cfg = ExperimentConfig(grid_points=16, horizon=0.05, nu_list=(1e-1, 1e-2, 1e-3),
                           min_samples=4, output_dir=str(outdir))
    return run_sweep(cfg, compute_norms=False), outdir


def test_field_csv(grid16, tmp_path):
    vals = np.random.default_rng(5).standard_normal(grid16.shape)
    path = tmp_path / "field.csv"
    save_field_csv(ScalarField(grid16, vals), path)
    rows = read_rows(path, FIELD_CSV_HEADER)
    x1, x2 = grid16.coordinates()
    for j, expected in enumerate((x1, x2, vals)):
        assert_bits(column(rows, j), expected.ravel())


def test_field_csv_with_crlf_line_ends_still_loads(grid16, tmp_path):
    vals = np.random.default_rng(6).standard_normal(grid16.shape)
    x1, x2 = grid16.coordinates()
    path = tmp_path / "crlf.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)  # the \r\n dialect field CSVs used to be written in
        writer.writerow(FIELD_CSV_HEADER)
        for a, b, v in zip(x1.ravel(), x2.ravel(), vals.ravel()):
            writer.writerow((f"{a:.17g}", f"{b:.17g}", f"{v:.17g}"))
    assert b"\r\n" in path.read_bytes()
    assert np.array_equal(load_field_csv(path).values, vals)


def test_series_csv(tmp_path):
    rng = np.random.default_rng(7)
    cols = [np.linspace(0.0, 1.0, 9)] + [rng.random(9) for _ in SERIES_CSV_HEADER[1:]]
    path = tmp_path / "series.csv"
    NormSeries(*cols).write_csv(path)
    rows = read_rows(path, SERIES_CSV_HEADER)
    for j, expected in enumerate(cols):
        assert_bits(column(rows, j), expected)


def test_sweep_outputs(sweep):
    result, outdir = sweep
    series = result.series
    rows = read_rows(outdir / "gaps.csv", GAPS_CSV_HEADER)
    n = len(series.nu)
    expected = (series.nu, series.sup_gap, [series.M] * n, [series.theory_exponent] * n,
                verify_rate(series).bound_values)
    for j, values in enumerate(expected):
        assert_bits(column(rows, j), values)
    euler = result.euler
    rows = read_rows(outdir / "euler" / "series.csv", SERIES_CSV_HEADER)
    assert_bits(column(rows, 0), euler.series.times)
    assert_bits(column(rows, 5), euler.series.enstrophy)
    rows = read_rows(outdir / "euler" / "final_vorticity.csv", FIELD_CSV_HEADER)
    assert_bits(column(rows, 2), euler.states[-1].vorticity.values.ravel())


def test_gaps_bound_reads_nan_below_three_viscosities(tmp_path):
    cfg = ExperimentConfig(grid_points=16, horizon=0.05, nu_list=(1e-1, 1e-2),
                           min_samples=4, output_dir=str(tmp_path))
    run_sweep(cfg, compute_norms=False)
    rows = read_rows(tmp_path / "gaps.csv", GAPS_CSV_HEADER)
    assert column(rows, 4) == ["nan", "nan"]


def test_trials_csv(tmp_path):
    scan = scan_corpus(sizes=(16,))
    path = tmp_path / "trials.csv"
    scan.write_csv(path)
    rows = read_rows(path, TRIALS_CSV_HEADER)
    assert len(rows) == len(scan.trials)
    for row, t in zip(rows, scan.trials):
        assert row[:3] == [t.f_id, t.g_id, "16"]
        assert_bits(row[3:8], (t.lhs, t.bmo_f, t.l1_g, t.linf_g, t.bracket))
        if t.ratio is None:
            assert row[8] == ""
        else:
            assert_bits(row[8:], (t.ratio,))
    degenerate = [row for row in rows if row[0] == "const_one"]
    assert degenerate and all(row[8] == "" for row in degenerate)


def test_osgood_trajectory_csv(tmp_path, capsys):
    path = tmp_path / "traj.csv"
    assert main(["osgood", "--f-const", "1", "--nu", "1e-3", "--T", "1", "--out", str(path)]) == 0
    capsys.readouterr()
    rows = read_rows(path, ("t", "y", "bound"))
    problem = OsgoodProblem.constant(M=1.0, nu=1e-3, horizon=1.0)
    traj = integrate_majorant(problem)
    assert_bits(column(rows, 0), traj.times)
    assert_bits(column(rows, 1), [math.exp(ly) for ly in traj.log_y])
    assert_bits(column(rows, 2), [math.exp(log_gronwall_bound(problem, t)) for t in traj.times])


def test_split_table(tmp_path, capsys):
    grid = GridSpec(32)
    field = 5.0 * gaussian_bump(grid, np.pi / 6)
    path = tmp_path / "field.csv"
    save_field_csv(field, path)
    assert main(["split", "--field", str(path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == "PASS"
    table = tmp_path / "split.csv"
    table.write_text("\n".join(lines[:-1]) + "\n")
    rows = read_rows(table, SPLIT_CSV_HEADER)
    top = max(2.0, 2.0 * float(np.abs(field.values).max()))
    expected = threshold_sweep(field, 1.0, np.geomspace(1.0 + 1e-6, top, 20))
    assert len(rows) == len(expected) == 20
    for j, key in enumerate(SPLIT_CSV_HEADER):
        assert_bits(column(rows, j), [row[key] for row in expected])


def test_grid_alone_formats_csv_cells():
    # a second hand-rolled writer would repeat the 17-digit cell format
    owners = sorted(p.name for p in SRC.glob("*.py") if ":.17g" in p.read_text())
    assert owners == ["grid.py"]
