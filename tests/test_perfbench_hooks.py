"""The benchmark's tracing hooks resolve against the live package.

`perfbench/tracing.PATCHES` names every function a traced benchmark run
(`perfbench/run.py --trace 1`) wraps.  Renaming or removing one of them in
the package fails here instead of breaking traced runs only.  So does a sweep
or a corpus scan whose pool tasks stop pickling under the tracer's wrappers.
"""

import os
from pathlib import Path

import numpy as np

from loglimit import inviscid, logineq
from loglimit.grid import GridSpec

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracing_patches_resolve_and_are_restored(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    def lookup(path, attr):
        return getattr(tracing._resolve(path), attr)

    originals = {(path, attr): lookup(path, attr) for path, attr, _, _ in tracing.PATCHES}
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for path, attr in originals:
            assert lookup(path, attr) is not originals[(path, attr)], f"{path}.{attr} not wrapped"
    finally:
        tracer.uninstall()
    for (path, attr), original in originals.items():
        assert lookup(path, attr) is original, f"{path}.{attr} not restored"


def test_sweep_runs_under_the_tracer(monkeypatch):
    # a pool task that does not pickle would fail every traced sweep operation
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    import tracing

    cfg = inviscid.ExperimentConfig(grid_points=32, horizon=0.2, nu_list=(1e-1, 1e-2, 1e-3),
                                    initial_condition_id="random_42", min_samples=10)

    def sweep():
        result = inviscid.run_sweep(cfg)
        return result, inviscid.sweep_majorization(result, c_emp=1.0)

    plain, plain_reports = sweep()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced, traced_reports = tracer.call(tracing.ROOT, sweep)
    finally:
        tracer.uninstall()
    assert {s.name for s in tracer.spans} >= {"inviscid.run_sweep", "inviscid.sweep_majorization"}
    assert traced_reports == plain_reports
    assert np.array_equal(traced.series.sup_gap, plain.series.sup_gap)
    assert traced.series.M == plain.series.M
    for nu in cfg.nu_list:
        assert np.array_equal(traced.gap_curves[nu], plain.gap_curves[nu])
        assert np.array_equal(traced.forcing[nu], plain.forcing[nu])


def test_corpus_scan_runs_under_the_tracer(monkeypatch):
    # a pool task that is a traced name (bmo_seminorm) does not pickle while
    # the tracer is installed: it would fail every traced verify_ineq operation
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    import tracing

    def scans():
        return logineq.scan_corpus(sizes=(16, 32)), logineq.zygmund_family_scan(GridSpec(64))

    plain_scan, plain_family = scans()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced_scan, traced_family = tracer.call(tracing.ROOT, scans)
    finally:
        tracer.uninstall()
    assert {s.name for s in tracer.spans} >= {"logineq.scan_corpus", "logineq.zygmund_family_scan"}
    assert traced_scan == plain_scan
    assert traced_family == plain_family
