"""Tests of the benchmark's own arithmetic and tracing, not of the package.

    python3 -m pytest -q perfbench

No test asserts how often the package calls a function: a change that
legitimately alters call counts must not break these tests.
"""

import json
import sys
import types
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from metrics import END_TO_END, Span, bmo_cell_visits, child_time, self_time, state_bytes, summary  # noqa: E402
from tracing import LAYER_METRICS, ROOT, Tracer, _fft_bytes, layer_metrics  # noqa: E402


def test_summary_quartiles_match_statistics_exclusive_method():
    s = summary([5.0, 1.0, 4.0, 2.0, 3.0])
    assert (s["q1"], s["median"], s["q3"], s["n"]) == (1.5, 3.0, 4.5, 5)


def test_summary_single_value_and_empty():
    assert summary([2.5]) == {"median": 2.5, "q1": 2.5, "q3": 2.5, "n": 1}
    with pytest.raises(ValueError):
        summary([])


# root [0, 10] calls a [1, 4] and b [5, 6]; a calls c [2, 3]
SYNTHETIC = [
    Span("root", 0.0, 10.0, None),
    Span("a", 1.0, 4.0, 0),
    Span("c", 2.0, 3.0, 1),
    Span("b", 5.0, 6.0, 0),
]


def test_self_time_subtracts_direct_children_only():
    assert self_time(SYNTHETIC, "root") == 6.0
    assert self_time(SYNTHETIC, "a") == 2.0
    assert self_time(SYNTHETIC, "c") == 1.0
    assert self_time(SYNTHETIC, "root", minus=frozenset({"b"})) == 9.0


def test_self_times_sum_to_root_duration():
    covered = child_time(SYNTHETIC)
    assert covered == [4.0, 1.0, 0.0, 0.0]
    assert sum(s.duration - c for s, c in zip(SYNTHETIC, covered)) == SYNTHETIC[0].duration


def test_child_time_counts_only_named_children():
    assert child_time(SYNTHETIC, frozenset({"b", "c"})) == [1.0, 1.0, 0.0, 0.0]


def _op(mode, digest, wall=1.0):
    return {"mode": mode, "digest": digest, "wall": wall, "problems": []}


def test_check_outputs_takes_first_untraced_digest_that_exists():
    from run import check_outputs

    ops = [_op("op", None), _op("traced", "a"), _op("op", "a"), _op("traced", "b")]
    ops[0]["problems"].append("raised")
    check_outputs(ops)
    assert [len(op["problems"]) for op in ops] == [1, 0, 0, 1]


def test_check_outputs_fails_traced_ops_without_untraced_reference():
    from run import check_outputs

    ops = [_op("op", None), _op("traced", "a")]
    check_outputs(ops)
    assert ops[1]["problems"] == ["no untraced output to compare with"]


def test_paired_overhead_is_median_of_pair_differences():
    from run import paired_overhead

    walls = [10.0, 11.0, 20.0, 20.5, 9.0, 12.0]
    ops = [_op("op" if i % 2 == 0 else "traced", "a", w) for i, w in enumerate(walls)]
    assert paired_overhead(ops) == 1.0
    ops[1]["failed_to_run"] = True
    assert paired_overhead(ops) == 1.75


def test_bmo_cell_visits_sums_window_cells_over_levels():
    # n = 8: s = 4 and 2, n^2 translates each
    assert bmo_cell_visits(8) == 64 * 16 + 64 * 4
    assert bmo_cell_visits(32) == 1024 * (256 + 64 + 16 + 4)
    assert bmo_cell_visits(2) == 0


def test_state_bytes_counts_spectrum_and_velocity():
    n = 64
    per_sample = n * n * 16 + 2 * n * n * 8
    assert state_bytes(101, n) == 101 * per_sample


def test_fft_bytes_come_from_array_shapes():
    a = np.zeros((4, 4))
    assert _fft_bytes((a,), np.fft.fft2(a)) == 4 * 4 * 8 + 4 * 4 * 16


def test_tracer_records_nesting_and_restores_patches():
    mod = types.ModuleType("perfbench_fake_layer")
    mod.inner = lambda x: x + 1
    mod.outer = lambda x: mod.inner(x) * 2
    sys.modules[mod.__name__] = mod
    original = mod.inner
    try:
        tracer = Tracer()
        tracer.install(((mod.__name__, "inner", "layer.inner", lambda args, r: args[0]),
                        (mod.__name__, "outer", "layer.outer", None)))
        assert tracer.call(ROOT, mod.outer, 3) == 8
        tracer.uninstall()
    finally:
        del sys.modules[mod.__name__]
    assert mod.inner is original
    names = [(s.name, s.parent, s.tag) for s in tracer.spans]
    assert names == [(ROOT, None, 0.0), ("layer.outer", 0, 0.0), ("layer.inner", 1, 3)]
    assert all(s.end >= s.start for s in tracer.spans)


def test_tracer_closes_span_when_call_raises():
    tracer = Tracer()

    def boom():
        raise KeyError("x")

    with pytest.raises(KeyError):
        tracer.call(ROOT, tracer.wrap("layer.boom", boom))
    assert [s.parent for s in tracer.spans] == [None, 0]
    assert tracer.call(ROOT, lambda: 1) == 1
    assert tracer.spans[-1].parent is None


def test_layer_metrics_on_synthetic_spans():
    spans = [
        Span(ROOT, 0.0, 10.0, None),
        Span("flow.run", 1.0, 9.0, 0),
        Span("flow.step", 2.0, 3.0, 1, tag=64),
        Span("grid.fft", 2.0, 2.5, 2, tag=100),
        Span("flow.step", 4.0, 7.0, 1, tag=64),
        Span("grid.fft", 7.5, 8.0, 1, tag=100),
    ]
    out = layer_metrics(spans, {"flow.samples": 4})
    assert out["flow.step_calls"] == 2
    assert out["flow.step_s"] == 4.0
    assert out["flow.step_ms.n64"] == 2000.0
    assert out["norms.bmo_ms.n128"] == 0.0
    # run minus steps only: the FFT directly under run stays in run's own time
    assert out["flow.run_self_s"] == 8.0 - 4.0
    assert out["grid.fft_calls"] == 2 and out["grid.fft_bytes"] == 200
    assert out["trace.unattributed_s"] == 2.0
    assert out["trace.spans"] == 5
    assert out["flow.samples"] == 4 and out["logineq.trials"] == 0
    assert out["norms.bmo_calls"] == 0
    assert set(out) == {name for name, _ in LAYER_METRICS} - {"trace.wall_s", "trace.overhead_s"}


def test_benchmark_json_matches_reported_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(LAYER_METRICS)
    from workloads import WORKLOADS

    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()
    ]


def test_digest_tells_apart_outputs_that_differ_in_the_last_bit():
    from workloads import digest

    a = {"x": np.array([1.0, 2.0]), "y": [0.5, "s"]}
    b = {"x": np.array([1.0, np.nextafter(2.0, 3.0)]), "y": [0.5, "s"]}
    assert digest(a) == digest({"y": [0.5, "s"], "x": np.array([1.0, 2.0])})
    assert digest(a) != digest(b)
