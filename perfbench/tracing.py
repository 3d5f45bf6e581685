"""In-memory call tracing of the package, installed from outside it.

Each traced function is replaced, for the length of a traced operation, by a
wrapper in the module where callers look it up: a module that did
`from .norms import bmo_seminorm` holds its own binding, so patching
`norms.bmo_seminorm` alone would miss its calls.  Wrappers pass arguments
and results through untouched; they only append a `Span` per call.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict

from metrics import Span, bmo_cell_visits, self_time


def _grid_n(args, result) -> float:
    return args[0].grid.points_per_axis


def _fft_bytes(args, result) -> float:
    return args[0].nbytes + result.nbytes


def _traj_points(args, result) -> float:
    return len(result.times)


# (module, attribute looked up by callers, span name, tag of one call)
PATCHES = (
    ("numpy.fft", "fft2", "grid.fft", _fft_bytes),
    ("numpy.fft", "ifft2", "grid.fft", _fft_bytes),
    ("loglimit.norms", "riesz_transform", "grid.riesz_transform", None),
    ("loglimit.logineq", "riesz_transform", "grid.riesz_transform", None),
    ("loglimit.inviscid", "save_field_csv", "grid.save_field_csv", None),
    ("loglimit.norms", "bmo_seminorm", "norms.bmo_seminorm", _grid_n),
    ("loglimit.flow", "bmo_seminorm", "norms.bmo_seminorm", _grid_n),
    ("loglimit.logineq", "bmo_seminorm", "norms.bmo_seminorm", _grid_n),
    ("loglimit.logineq", "hardy_norm", "norms.hardy_norm", None),
    ("loglimit.flow", "step", "flow.step", _grid_n),
    ("loglimit.flow", "gradient_bmo", "flow.gradient_bmo", None),
    ("loglimit.inviscid", "run", "flow.run", None),
    ("loglimit.osgood", "integrate_majorant", "osgood.integrate_majorant", _traj_points),
    ("loglimit.inviscid", "check_majorization", "osgood.check_majorization", None),
    ("loglimit.inviscid", "run_sweep", "inviscid.run_sweep", None),
    ("loglimit.inviscid", "gap_l2", "inviscid.gap_l2", None),
    ("loglimit.inviscid", "measured_forcing", "inviscid.measured_forcing", None),
    ("loglimit.inviscid", "sweep_majorization", "inviscid.sweep_majorization", None),
    ("loglimit.inviscid", "verify_rate", "inviscid.verify_rate", None),
    ("loglimit.inviscid", "persist_sweep", "inviscid.persist_sweep", None),
    ("loglimit.logineq", "scan_corpus", "logineq.scan_corpus", None),
    ("loglimit.logineq", "zygmund_family_scan", "logineq.zygmund_family_scan", None),
    ("loglimit.logineq.CorpusScan", "write_csv", "logineq.write_csv", None),
    ("loglimit.splitting", "threshold_sweep", "splitting.threshold_sweep", None),
)

ROOT = "op"


class Tracer:
    """Span recorder for one closed-loop client (a single thread)."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, idx: int, tag: float = 0.0) -> None:
        end = time.perf_counter()
        self._stack.pop()
        self.spans[idx] = self.spans[idx]._replace(end=end, tag=tag)

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn inside a span called `name`."""
        idx = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(idx)

    def wrap(self, name: str, fn, tag=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                self._close(idx, tag(args, result) if tag is not None and result is not None else 0.0)

        return traced

    def install(self, patches=PATCHES) -> None:
        for path, attr, name, tag in patches:
            owner = _resolve(path)
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original, tag))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def _resolve(path: str):
    """Module or module-level class named by a dotted path."""
    try:
        return importlib.import_module(path)
    except ModuleNotFoundError:
        module, _, cls = path.rpartition(".")
        return getattr(importlib.import_module(module), cls)


# (metric, unit); values are per traced operation, averaged over the run's.  `_s` times include
# nested calls, `_self_s` times exclude them.
LAYER_METRICS = (
    ("norms.bmo_calls", "count"),
    ("norms.bmo_s", "s"),
    ("norms.bmo_ms.n32", "ms"),
    ("norms.bmo_ms.n64", "ms"),
    ("norms.bmo_ms.n128", "ms"),
    ("norms.bmo_cell_visits", "count"),
    ("norms.hardy_calls", "count"),
    ("norms.hardy_s", "s"),
    ("flow.step_calls", "count"),
    ("flow.step_s", "s"),
    ("flow.step_ms.n64", "ms"),
    ("flow.run_self_s", "s"),
    ("flow.gradient_bmo_calls", "count"),
    ("flow.gradient_bmo_s", "s"),
    ("flow.samples", "count"),
    ("flow.state_bytes", "B"),
    ("grid.fft_calls", "count"),
    ("grid.fft_s", "s"),
    ("grid.fft_bytes", "B"),
    ("grid.riesz_calls", "count"),
    ("grid.riesz_s", "s"),
    ("grid.save_field_csv_s", "s"),
    ("osgood.integrate_calls", "count"),
    ("osgood.integrate_s", "s"),
    ("osgood.traj_points", "count"),
    ("osgood.check_majorization_s", "s"),
    ("inviscid.run_sweep_self_s", "s"),
    ("inviscid.gap_l2_calls", "count"),
    ("inviscid.gap_l2_s", "s"),
    ("inviscid.measured_forcing_s", "s"),
    ("inviscid.majorization_s", "s"),
    ("inviscid.verify_rate_s", "s"),
    ("inviscid.persist_s", "s"),
    ("inviscid.persist_bytes", "B"),
    ("logineq.scan_corpus_s", "s"),
    ("logineq.scan_corpus_self_s", "s"),
    ("logineq.trials", "count"),
    ("logineq.zygmund_scan_s", "s"),
    ("splitting.threshold_sweep_calls", "count"),
    ("splitting.threshold_sweep_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.unattributed_s", "s"),
    ("trace.spans", "count"),
)

# counts the operation reports itself, from its result and its files
COMPUTED_BY_OPERATION = ("flow.samples", "flow.state_bytes", "inviscid.persist_bytes", "logineq.trials")


def layer_metrics(spans, op_counts: dict) -> dict:
    """Layer metrics of one traced operation; a layer not called reads 0.

    `trace.wall_s` and `trace.overhead_s` need untraced operations too and
    are left to the caller.
    """
    calls = defaultdict(list)
    for s in spans:
        calls[s.name].append(s)

    def total(name):
        return sum(s.duration for s in calls[name])

    def mean_ms_at(name, n):
        at = [s.duration for s in calls[name] if s.tag == n]
        return 1e3 * sum(at) / len(at) if at else 0.0

    out = {
        "norms.bmo_calls": len(calls["norms.bmo_seminorm"]),
        "norms.bmo_s": total("norms.bmo_seminorm"),
        "norms.bmo_cell_visits": sum(bmo_cell_visits(int(s.tag)) for s in calls["norms.bmo_seminorm"]),
        "norms.hardy_calls": len(calls["norms.hardy_norm"]),
        "norms.hardy_s": total("norms.hardy_norm"),
        "flow.step_calls": len(calls["flow.step"]),
        "flow.step_s": total("flow.step"),
        "flow.run_self_s": self_time(spans, "flow.run", frozenset({"flow.step", "flow.gradient_bmo"})),
        "flow.gradient_bmo_calls": len(calls["flow.gradient_bmo"]),
        "flow.gradient_bmo_s": total("flow.gradient_bmo"),
        "grid.fft_calls": len(calls["grid.fft"]),
        "grid.fft_s": total("grid.fft"),
        "grid.fft_bytes": sum(s.tag for s in calls["grid.fft"]),
        "grid.riesz_calls": len(calls["grid.riesz_transform"]),
        "grid.riesz_s": total("grid.riesz_transform"),
        "grid.save_field_csv_s": total("grid.save_field_csv"),
        "osgood.integrate_calls": len(calls["osgood.integrate_majorant"]),
        "osgood.integrate_s": total("osgood.integrate_majorant"),
        "osgood.traj_points": sum(s.tag for s in calls["osgood.integrate_majorant"]),
        "osgood.check_majorization_s": total("osgood.check_majorization"),
        "inviscid.run_sweep_self_s": self_time(spans, "inviscid.run_sweep"),
        "inviscid.gap_l2_calls": len(calls["inviscid.gap_l2"]),
        "inviscid.gap_l2_s": total("inviscid.gap_l2"),
        "inviscid.measured_forcing_s": total("inviscid.measured_forcing"),
        "inviscid.majorization_s": total("inviscid.sweep_majorization"),
        "inviscid.verify_rate_s": total("inviscid.verify_rate"),
        "inviscid.persist_s": total("inviscid.persist_sweep"),
        "logineq.scan_corpus_s": total("logineq.scan_corpus"),
        "logineq.scan_corpus_self_s": self_time(spans, "logineq.scan_corpus"),
        "logineq.zygmund_scan_s": total("logineq.zygmund_family_scan"),
        "splitting.threshold_sweep_calls": len(calls["splitting.threshold_sweep"]),
        "splitting.threshold_sweep_s": total("splitting.threshold_sweep"),
        "trace.unattributed_s": self_time(spans, ROOT),
        "trace.spans": len(spans) - len(calls[ROOT]),
    }
    for name in ("norms.bmo_ms.n32", "norms.bmo_ms.n64", "norms.bmo_ms.n128"):
        out[name] = mean_ms_at("norms.bmo_seminorm", int(name.rsplit(".n", 1)[1]))
    for name in ("flow.step_ms.n64",):
        out[name] = mean_ms_at("flow.step", int(name.rsplit(".n", 1)[1]))
    for name in COMPUTED_BY_OPERATION:
        out[name] = op_counts.get(name, 0)
    return out
