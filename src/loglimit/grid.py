"""Uniform periodic fields on the flat 2-torus [0, 2pi)^2 with spectral calculus.

Fields are sampled on an n-by-n grid (n a power of two) and carry a lazily
computed, cached array of Fourier coefficients.  The normalization is

    coeff[k] = fft2(values)[k] / n**2,

so a field is the trigonometric polynomial  sum_k coeff[k] * exp(i k.x)  and
Parseval reads  (cell volume) * sum(values**2) == (2pi)**2 * sum(|coeff|**2).
This module is the only one that knows the wavenumber layout and this
normalization; the solver's Biot-Savart and 2/3 dealiasing symbols are
cached here beside the derivative and Riesz multipliers, one n x n array
each per grid.  The wavenumbers are cached as broadcast views of one
length-n vector, and |k|^2 (`_laplacian`) is built where a symbol needs it
and not kept.  A field's coefficients are transformed in their own memory,
and an inverse transform scales and transforms one complex work array, so a
transform holds one complex grid and the real grid of its result.  The
2/3 rule is stated once, in `_dealias_band`: the rows it keeps, which are
also the columns it keeps, and the kept modes of those rows.  A flow state
and the solver's stages hold the kept modes as a vector in row-major order
(`_pack_dealiased` gathers it), `_unpack_band` scatters such a vector back
into the band rows, and `_band_ifft2` and `_band_fft2` are np.fft.ifft2 and
np.fft.fft2 on such spectra, bit for bit, without the 1-D passes over the
rows that are zero or the columns that the rule drops.  The band transforms
and flow._band_fields run in per-grid scratch arrays (`_band_scratch`, the
one cached helper whose arrays are writable) that every call at that grid
reuses, so a call allocates only its result.  What they return in scratch
is a view valid until the next call on that grid; every public caller
copies it.

It also owns the CSV format of every file the package writes (`csv_line`,
`write_csv`) and reads (`read_csv`): a header row, comma-separated cells,
numbers at 17 significant digits (so floats round-trip bit for bit), an
empty cell for None, and lines that end in a bare newline.

It also holds the package's one parallel map (`_map_tasks`), which runs
independent tasks side by side, in this process and in forked children
that draw task indices from one locked counter: a sweep's flows, pairings
and f0 scans, its file writes and its majorant checks, a corpus scan's BMO
norms, the Zygmund family's trials.  The caller unpickles each child's
results straight from its pipe (pickle.load), so no copy of their pickle
sits beside them.

All operations are pure: they return new fields and never mutate inputs, so
they are safe to call concurrently on distinct inputs, except the band
transforms, which share their grid's scratch: one thread at a time runs
them (the parallel map forks, and each process writes its own copy).  The
coefficient cache is filled once under a lock.
"""

from __future__ import annotations

import csv
import os
import pickle
import sys
import threading
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain
from pathlib import Path

import numpy as np

TWO_PI = 2.0 * np.pi

FIELD_CSV_HEADER = ("x1", "x2", "value")


@dataclass(frozen=True)
class GridSpec:
    """Uniform n x n discretization of the 2-torus of side 2pi."""

    points_per_axis: int

    def __post_init__(self) -> None:
        n = self.points_per_axis
        if not isinstance(n, (int, np.integer)) or n < 8 or (n & (n - 1)) != 0:
            raise ValueError(f"points_per_axis must be a power of two >= 8, got {n!r}")

    @property
    def spacing(self) -> float:
        return TWO_PI / self.points_per_axis

    @property
    def cell_volume(self) -> float:
        return self.spacing**2

    @property
    def shape(self) -> tuple[int, int]:
        return (self.points_per_axis, self.points_per_axis)

    def coordinates(self) -> tuple[np.ndarray, np.ndarray]:
        """Meshgrid (X1, X2) with values[i, j] sampled at (X1[i, j], X2[i, j])."""
        x = np.arange(self.points_per_axis) * self.spacing
        return np.meshgrid(x, x, indexing="ij")


@lru_cache(maxsize=32)
def _wavenumbers(n: int) -> tuple[np.ndarray, np.ndarray]:
    """(k1, k2) with k1[i, j] = k[i] and k2[i, j] = k[j], for the integer
    wavenumbers k = fftfreq(n, 1/n): read-only broadcast views of that one
    length-n vector."""
    k = np.fft.fftfreq(n, d=1.0 / n)
    return np.broadcast_to(k[:, None], (n, n)), np.broadcast_to(k[None, :], (n, n))


def _laplacian(n: int, safe: bool = False) -> np.ndarray:
    """|k|^2 as a fresh n x n array, with its zero mode set to 1 when `safe`,
    so that it can be divided by.  Not cached: the symbols built from it are."""
    k1, k2 = _wavenumbers(n)
    ksq = k1**2
    ksq += k2[0] ** 2
    if safe:
        ksq[0, 0] = 1.0  # the only zero of |k|^2
    return ksq


def _as_valid_values(grid: GridSpec, values: np.ndarray) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.shape != grid.shape:
        raise ValueError(f"values shape {arr.shape} does not match grid {grid.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("field values must be finite (found nan or inf)")
    arr = np.array(arr, order="C")  # one contiguous copy, whatever the input's layout
    arr.setflags(write=False)
    return arr


class ScalarField:
    """Real scalar field sampled on a GridSpec, immutable after construction."""

    __slots__ = ("grid", "values", "_spectral", "_lock")

    def __init__(self, grid: GridSpec, values: np.ndarray):
        self.grid = grid
        self.values = _as_valid_values(grid, values)
        self._spectral: np.ndarray | None = None
        self._lock = threading.Lock()

    @classmethod
    def from_function(cls, grid: GridSpec, fn) -> "ScalarField":
        x1, x2 = grid.coordinates()
        return cls(grid, fn(x1, x2))

    @classmethod
    def zeros(cls, grid: GridSpec) -> "ScalarField":
        return cls(grid, np.zeros(grid.shape))

    @property
    def spectral(self) -> np.ndarray:
        """Cached Fourier coefficients fft2(values) / n**2 (compute-once)."""
        if self._spectral is None:
            with self._lock:
                if self._spectral is None:
                    # fft2 of real values transforms their complex cast; here
                    # the cast is transformed and divided in its own memory
                    coeff = self.values.astype(complex)
                    coeff = np.fft.fft2(coeff, out=coeff)
                    coeff /= self.values.size
                    coeff.setflags(write=False)
                    self._spectral = coeff
        return self._spectral

    def mean(self) -> float:
        return float(self.values.mean())

    # field arithmetic, as curl, divergence and the Hardy norm's mean removal use it
    def __add__(self, other):
        if isinstance(other, ScalarField):
            _require_same_grid(self.grid, other.grid)
            return ScalarField(self.grid, self.values + other.values)
        return ScalarField(self.grid, self.values + float(other))

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, ScalarField):
            _require_same_grid(self.grid, other.grid)
            return ScalarField(self.grid, self.values - other.values)
        return ScalarField(self.grid, self.values - float(other))

    def __mul__(self, other):
        if isinstance(other, ScalarField):
            _require_same_grid(self.grid, other.grid)
            return ScalarField(self.grid, self.values * other.values)
        return ScalarField(self.grid, self.values * float(other))

    __rmul__ = __mul__

    def __repr__(self) -> str:
        n = self.grid.points_per_axis
        return f"ScalarField({n}x{n}, mean={self.mean():.3g})"


@dataclass(frozen=True)
class VectorField:
    """Pair of scalar components on a shared grid."""

    u1: ScalarField
    u2: ScalarField

    def __post_init__(self) -> None:
        _require_same_grid(self.u1.grid, self.u2.grid)

    @property
    def grid(self) -> GridSpec:
        return self.u1.grid

    @classmethod
    def from_values(cls, grid: GridSpec, v1: np.ndarray, v2: np.ndarray) -> "VectorField":
        return cls(ScalarField(grid, v1), ScalarField(grid, v2))


def _require_same_grid(a: GridSpec, b: GridSpec) -> None:
    if a != b:
        raise ValueError("fields live on different grids")


def inverse_transform(grid: GridSpec, coeff: np.ndarray) -> ScalarField:
    """Field whose Fourier coefficients are `coeff` (real part taken)."""
    return _field_of_coefficients(grid, np.array(coeff, dtype=complex))


def _field_of_coefficients(grid: GridSpec, work: np.ndarray) -> ScalarField:
    """inverse_transform(grid, work) bit for bit, computed in `work`, a fresh
    complex n x n array that this overwrites: it is scaled by n twice and
    inverse transformed in place, by ifftn's passes with out=, which are
    ifft2's (numpy 2.4's ifft2 drops its out)."""
    n = grid.points_per_axis
    work *= n
    work *= n
    return ScalarField(grid, np.fft.ifftn(work, out=work).real)


def _apply_multiplier(field: ScalarField, mult: np.ndarray) -> ScalarField:
    return _field_of_coefficients(field.grid, field.spectral * mult)


@lru_cache(maxsize=32)
def _derivative_multiplier(n: int, axis: int) -> np.ndarray:
    # Odd multiplier: the unpaired Nyquist row is zeroed so real fields map
    # to real fields exactly (its sine samples vanish on the grid anyway).
    k1, k2 = _wavenumbers(n)
    mult = (k1 if axis == 1 else k2).astype(complex)
    np.multiply(1j, mult, out=mult)
    mult[n // 2, :] = 0.0
    mult[:, n // 2] = 0.0
    mult.setflags(write=False)
    return mult


@lru_cache(maxsize=32)
def _riesz_multiplier(n: int, axis: int) -> np.ndarray:
    k1, k2 = _wavenumbers(n)
    root = _laplacian(n, safe=True)
    np.sqrt(root, out=root)
    mult = -1j * (k1 if axis == 1 else k2)
    mult /= root
    mult[0, 0] = 0.0
    mult[n // 2, :] = 0.0
    mult[:, n // 2] = 0.0
    mult.setflags(write=False)
    return mult


@lru_cache(maxsize=32)
def _biot_savart_multiplier(n: int, axis: int) -> np.ndarray:
    """Biot-Savart: u = (d2 psi, -d1 psi) from omega = -Laplace psi, zero mode annihilated."""
    k1, k2 = _wavenumbers(n)
    mult = 1j * k2 if axis == 1 else -1j * k1
    mult /= _laplacian(n, safe=True)
    mult[0, 0] = 0.0
    mult.setflags(write=False)
    return mult


@lru_cache(maxsize=32)
def _mode_box(n: int, kmax: int) -> np.ndarray:
    """Mask of the modes with |k1| <= kmax and |k2| <= kmax."""
    k1, k2 = _wavenumbers(n)
    mask = (np.abs(k1) <= kmax) & (np.abs(k2) <= kmax)
    mask.setflags(write=False)
    return mask


@lru_cache(maxsize=32)
def _dealias_band(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The 2/3 rule, which keeps the modes with |k1|, |k2| < floor(n/3), as
    (rows, mask): the ascending indices of the rows that hold a kept mode,
    which are also the indices of the columns that do, and the kept modes of
    those rows, both read-only."""
    keep = _mode_box(n, n // 3 - 1)
    rows = np.flatnonzero(keep.any(axis=1))
    mask = keep[rows]
    for a in (rows, mask):
        a.setflags(write=False)
    return rows, mask


def _pack_dealiased(coeff: np.ndarray) -> np.ndarray:
    """The modes of an n x n array that the 2/3 rule keeps, as a vector in
    row-major order: the zero mode first."""
    rows, mask = _dealias_band(coeff.shape[0])
    return coeff[rows][mask]


def _unpack_band(box: np.ndarray, n: int) -> np.ndarray:
    """The band rows (_dealias_band) of the n x n spectrum of a packed mode
    vector, 0 at the modes that the 2/3 rule drops."""
    mask = _dealias_band(n)[1]
    coeff = np.zeros(mask.shape, dtype=complex)
    coeff[mask] = box
    return coeff


@lru_cache(maxsize=32)
def _band_scratch(n: int) -> dict[str, np.ndarray]:
    """The scratch of the band transforms at grid n and of flow._band_fields:
    complex work arrays by name, each overwritten by every call that uses
    it, and the one cached helper whose arrays are writable.  "coeff" is
    written only in its band rows, so its other rows stay 0."""
    b = len(_dealias_band(n)[0])
    shapes = {"band": (b, n), "product": (b, n), "fields": (4, n, n),  # flow._band_fields
              "rows": (b, n), "coeff": (n, n),  # _band_ifft2
              "forward": (n, n), "columns": (n, b), "column_pass": (n, b)}  # _band_fft2
    return {name: np.zeros(shape, dtype=complex) for name, shape in shapes.items()}


def _band_ifft2(band: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """np.real(np.fft.ifft2(coeff)) bit for bit, for the n x n spectrum coeff
    whose band rows (_dealias_band) are `band` and whose other rows are 0:
    ifft2's passes, along axis -1 and then axis 0, without those over the
    zero rows, which come out exactly 0.  The row pass runs in this grid's
    scratch (_band_scratch), and the column pass writes into `out`, an n x n
    complex array (a fresh one when None), whose real part is returned as a
    view: a scratch `out` is valid until the next call on that grid, and
    every public caller copies it."""
    n = band.shape[1]
    scratch = _band_scratch(n)
    coeff = scratch["coeff"]
    coeff[_dealias_band(n)[0]] = np.fft.ifft(band, axis=-1, out=scratch["rows"])
    return np.fft.ifft(coeff, axis=0, out=out).real


def _band_fft2(values: np.ndarray) -> np.ndarray:
    """_pack_dealiased(np.fft.fft2(values)) bit for bit: fft2's passes, along
    axis -1 and then axis 0, without those over the columns and rows that the
    2/3 rule drops.  Both passes run in this grid's scratch (_band_scratch),
    overwriting the previous call's; only the packed result is fresh."""
    n = values.shape[0]
    rows = _dealias_band(n)[0]
    scratch = _band_scratch(n)
    full = np.fft.fft(values, axis=-1, out=scratch["forward"])
    columns = np.take(full, rows, axis=1, out=scratch["columns"])
    return np.fft.fft(columns, axis=0, out=scratch["column_pass"])[rows].ravel()


def derivative(field: ScalarField, axis: int) -> ScalarField:
    """Spectral partial derivative along axis 1 or 2."""
    if axis not in (1, 2):
        raise ValueError(f"axis must be 1 or 2, got {axis}")
    return _apply_multiplier(field, _derivative_multiplier(field.grid.points_per_axis, axis))


def gradient(field: ScalarField) -> VectorField:
    """Spectral gradient; each component is mean-free."""
    return VectorField(derivative(field, 1), derivative(field, 2))


def divergence(v: VectorField) -> ScalarField:
    return derivative(v.u1, 1) + derivative(v.u2, 2)


def curl(v: VectorField) -> ScalarField:
    """Scalar curl d1 u2 - d2 u1."""
    return derivative(v.u2, 1) - derivative(v.u1, 2)


def riesz_transform(g: ScalarField, axis: int) -> ScalarField:
    """Fourier multiplier -i k_axis / |k|; the zero mode is annihilated."""
    if axis not in (1, 2):
        raise ValueError(f"axis must be 1 or 2, got {axis}")
    return _apply_multiplier(g, _riesz_multiplier(g.grid.points_per_axis, axis))


def leray_project(v: VectorField) -> VectorField:
    """Remove the gradient part: vhat -> vhat - k (k.vhat) / |k|^2.

    Divergence-free fields (constants included) are fixed points; gradients
    of scalar potentials are sent to zero.
    """
    n = v.grid.points_per_axis
    k1, k2 = _wavenumbers(n)
    v1 = v.u1.spectral
    v2 = v.u2.spectral
    kdotv = k1 * v1
    kdotv += k2 * v2
    kdotv /= _laplacian(n, safe=True)
    p1 = v1 - k1 * kdotv
    p2 = v2 - k2 * kdotv
    return VectorField(_field_of_coefficients(v.grid, p1), _field_of_coefficients(v.grid, p2))


def csv_line(cells) -> str:
    """One CSV line without its line end: a str as it is, None as an empty
    cell, any other number at 17 significant digits."""
    return ",".join([c if isinstance(c, str) else "" if c is None else f"{c:.17g}"
                     for c in cells])


def write_csv(path: str | Path, header, rows) -> None:
    """Write the header and then each row as a csv_line, every line ending in \\n."""
    with open(path, "w", newline="\n") as fh:
        fh.write(csv_line(header) + "\n")
        fh.writelines(csv_line(row) + "\n" for row in rows)


def save_field_csv(field: ScalarField, path: str | Path) -> None:
    """Write `x1,x2,value` rows in row-major grid order: the bytes that
    write_csv(path, FIELD_CSV_HEADER, zip(x1, x2, values)) writes for the
    raveled coordinates and values, with each of the n axis coordinates
    formatted once per file rather than once per row."""
    cx = csv_line(field.grid.coordinates()[0][:, 0].tolist()).split(",")
    with open(path, "w", newline="\n") as fh:
        fh.write(csv_line(FIELD_CSV_HEADER) + "\n")
        fh.writelines(f"{a},{b},{v:.17g}\n"
                      for a, row in zip(cx, field.values.tolist()) for b, v in zip(cx, row))


def read_csv(path: str | Path, header) -> np.ndarray:
    """The data rows of a CSV with the given header row, one float per cell:
    an array of shape (rows, len(header)).  A file without that header,
    without a data row, or with a row of another width or a cell that is not
    a number is an error naming the line."""
    header = tuple(header)
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        got = tuple(next(reader, ()))
        if got != header:
            raise ValueError(f"expected header {header}, got {got or 'an empty file'}")
        rows = []
        for row in reader:
            if len(row) != len(header):
                raise ValueError(
                    f"line {reader.line_num} has {len(row)} cells, expected {len(header)}")
            try:
                rows.append([float(c) for c in row])
            except ValueError:
                raise ValueError(f"line {reader.line_num} has a cell that is not a number: "
                                 f"{row}") from None
    if not rows:
        raise ValueError("no data rows after the header")
    return np.array(rows)


def load_field_csv(path: str | Path) -> ScalarField:
    """Read a field written by save_field_csv; rows must follow row-major grid order."""
    rows = read_csv(path, FIELD_CSV_HEADER)
    n = round(len(rows) ** 0.5)
    if n * n != len(rows):
        raise ValueError(f"row count {len(rows)} is not a perfect square")
    grid = GridSpec(n)
    x1, x2 = grid.coordinates()
    if not (np.allclose(rows[:, 0], x1.ravel(), rtol=0, atol=1e-9)
            and np.allclose(rows[:, 1], x2.ravel(), rtol=0, atol=1e-9)):
        raise ValueError("x1,x2 coordinates do not follow the row-major grid order")
    return ScalarField(grid, rows[:, 2].reshape(grid.shape))


# True while this process runs tasks of a _map_tasks call (for good in a
# forked child of one): a map called inside a mapped task runs in-process
_in_map = False


def _map_tasks(fn, tasks: list[tuple]) -> list:
    """[fn(*task) for task in tasks], in task order, run by this process and
    up to min(len(tasks), CPUs) - 1 forked children, CPUs being those this
    process may run on.  The caller takes task 0 and forks; then it and the
    children draw the other task indices, in order, from one shared counter
    (_drawn), so a caller that wants its longest tasks done first lists
    them first.  Each child pickles its results back once, after its last
    task, and exits, and the caller unpickles them as they stream from the
    pipe, so their pickle is never held whole beside them; those results
    must pickle, but fn and the tasks need not, since they reach the
    children through the fork, with the caller's imports and replaced names
    (a tracer's wrappers, a test's fakes).

    A process stops drawing at its first task that raises.  When tasks
    raise, the first in task order raises here, wherever it ran; a task
    whose child exited without sending its results, or whose results
    stream ended early, counts as one that raised.  Every child is reaped,
    and every pipe and the counter closed, before this returns or raises.
    Runs in-process below 2 CPUs or tasks, and inside a mapped task.  The
    package starts no thread that a fork could break."""
    global _in_map
    procs = min(len(tasks), len(os.sched_getaffinity(0)))
    if procs < 2 or _in_map:
        return [fn(*task) for task in tasks]
    children = {}  # pid -> read end of the pipe its results come back on
    done: dict[int, tuple] = {}  # task index -> (raised, result or error)
    lost = []  # exit statuses of children that sent no results
    sys.stdout.flush()  # a child flushes its copies of these buffers when it exits
    sys.stderr.flush()
    counter = os.memfd_create("loglimit-map")
    _in_map = True
    try:
        os.pwrite(counter, (1).to_bytes(4, "little"), 0)  # task 0 is the caller's
        for _ in range(procs - 1):
            read_end, write_end = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read_end)
                os.close(write_end)
                raise
            if pid == 0:
                _run_child(fn, tasks, counter, write_end)
            os.close(write_end)
            children[pid] = open(read_end, "rb")
        _run_tasks(fn, tasks, chain((0,), _drawn(counter, len(tasks))), done)
        for pid, results in list(children.items()):
            try:  # from the pipe, so that no copy of the pickle sits beside them
                sent = pickle.load(results)
            except (EOFError, pickle.UnpicklingError):  # the stream ended early
                sent = None
            results.close()
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del children[pid]
            if status == 0 and sent is not None:
                done.update(sent)
            else:
                lost.append(status)
    finally:
        _in_map = False
        os.close(counter)
        for pid, results in children.items():  # left only when the caller is interrupted
            results.close()
            os.kill(pid, 9)  # SIGKILL
            os.waitpid(pid, 0)
    for i in range(len(tasks)):
        if i not in done:
            raise RuntimeError(f"task {i} sent no result: forked children of the map "
                               f"exited with status {lost}")
        raised, value = done[i]
        if raised:
            raise value
    return [done[i][1] for i in range(len(tasks))]


def _call(fn, *args):
    """fn(*args): the map function of a _map_tasks call whose tasks name
    their own function, (fn, *args)."""
    return fn(*args)


def _drawn(counter: int, count: int):
    """The task indices below count that this process draws from counter, a
    file that the caller of _map_tasks and its children share and whose
    first 4 bytes hold the next index to run.  A draw reads it and writes
    back its successor under a lockf lock, which the kernel releases if the
    holder dies, so a child that dies mid-draw cannot stall the others."""
    while True:
        os.lockf(counter, os.F_LOCK, 0)
        try:
            i = int.from_bytes(os.pread(counter, 4, 0), "little")
            os.pwrite(counter, (i + 1).to_bytes(4, "little"), 0)
        finally:
            os.lockf(counter, os.F_ULOCK, 0)
        if i >= count:
            return
        yield i


def _run_tasks(fn, tasks: list[tuple], indices, done: dict) -> None:
    """done[i] = (raised, result or error) of fn(*tasks[i]) for each index
    drawn, up to the first task that raises."""
    for i in indices:
        try:
            done[i] = (False, fn(*tasks[i]))
        except Exception as err:  # the caller of the map raises it, in task order
            done[i] = (True, err)
            return


def _run_child(fn, tasks: list[tuple], counter: int, write_end: int):
    """A forked child of _map_tasks: runs the tasks it draws, writes their
    outcomes to write_end in one pickle, and exits, never returning into
    the caller's stack.  When it cannot send them (a result that does not
    pickle, say), it prints the traceback and exits with status 1."""
    global _in_map
    status = 1
    try:
        _in_map = True
        done: dict[int, tuple] = {}
        _run_tasks(fn, tasks, _drawn(counter, len(tasks)), done)
        payload = pickle.dumps(done, pickle.HIGHEST_PROTOCOL)
        with open(write_end, "wb") as out:
            out.write(payload)
        status = 0
    except Exception:
        sys.excepthook(*sys.exc_info())
    finally:
        sys.stdout.flush()
        sys.stderr.flush()
        os._exit(status)
