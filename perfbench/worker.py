"""One benchmark process: import the package, set up, and run at most one operation.

    python3 perfbench/worker.py --workload sweep_f0 --seed 42 --mode op --index 0

`run.py` starts this once per set-up sample (`--mode setup`) and once per
operation (`--mode op`, or `--mode traced`), and waits for it.  Every
operation thus runs in a fresh process, as a `loglimit` command does: no
allocator, cache or retained state carries over from an earlier one, and
the process's peak memory is the operation's own.  The last line of
standard output is a JSON report.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE.parent / "perfbench_out"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402
import loglimit  # noqa: E402

from metrics import child_time  # noqa: E402
from tracing import ROOT, Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS, digest  # noqa: E402

IMPORT_SECONDS = time.perf_counter() - T_START

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "fft": sorted(m for m in sys.modules if m.startswith("numpy.fft._pocketfft")),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def run_operation(workload, inputs, traced: bool, spans_path: Path) -> dict:
    """Time one operation, checks included; hash its outputs afterwards."""
    workdir = OUT / f"work-{workload.name}-{os.getpid()}"
    workdir.mkdir(parents=True)
    tracer = Tracer()
    if traced:
        tracer.install()
    t0 = time.perf_counter()
    try:
        outcome = tracer.call(ROOT, workload.operation, inputs, workdir)
        wall = time.perf_counter() - t0
        report = {"wall": wall, "problems": outcome.problems, "counts": outcome.counts,
                  "digest": digest(outcome.values)}
    except Exception:  # a failed operation is reported, not fatal
        wall = time.perf_counter() - t0
        traceback.print_exc()
        report = {"wall": wall, "counts": {}, "digest": None,
                  "problems": ["raised " + traceback.format_exc().splitlines()[-1]]}
    finally:
        tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)
    if traced:
        spans = tracer.spans
        covered = child_time(spans)
        if any(s.duration - covered[i] < -1e-9 for i, s in enumerate(spans)):
            report["problems"].append("spans do not nest: a child outlasts its parent")
        top = {}
        for s in spans:
            if s.parent == 0:
                top[s.name] = top.get(s.name, 0.0) + s.duration
        report["top_level"] = top
        report["layers"] = layer_metrics(spans, report["counts"])
        with open(spans_path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "tag"], "spans": spans}, fh)
    return report


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--mode", choices=("setup", "op", "traced"), required=True)
    p.add_argument("--index", type=int, default=0)
    args = p.parse_args(argv)
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    if Path(loglimit.__file__).resolve().parent != SRC / "loglimit":
        print(f"error: loglimit imported from {loglimit.__file__}, not {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    t0 = time.perf_counter()
    inputs = workload.setup(args.seed)
    report = {"setup_s": IMPORT_SECONDS + time.perf_counter() - t0}
    if args.mode != "setup":
        spans_path = OUT / f"spans-{workload.name}-seed{args.seed}-op{args.index}.json"
        report.update(run_operation(workload, inputs, args.mode == "traced", spans_path))
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    report["env"] = environment()
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
