"""Benchmark of the loglimit package.

    python3 perfbench/run.py --workload sweep_f0 --seed 42 --seconds 40 --trace 0

Run from anywhere; the package is imported from `src/` next to this
directory.  One closed-loop client: each operation starts when the previous
one ends, in a fresh process (`worker.py`) that this one starts and waits
for, with no worker threads.  A run first sets the package up in
SETUP_REPEATS processes, then repeats the workload's operation until
`--seconds` have passed.  Every operation is checked; one that raises,
fails a check, or returns outputs that differ from the first operation's
counts as failed.

`--trace 0` reports the end-to-end metrics.  `--trace 1` alternates an
untraced and a traced operation for `--seconds` and reports per-layer
metrics; every traced operation's outputs must equal the untraced ones.
Human-readable lines come first; the last line of standard output is the
JSON result.  Results and spans go to `perfbench_out/` at the checkout
root.  See NOTES.md.
"""

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

from metrics import END_TO_END, summary
from tracing import LAYER_METRICS

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE.parent / "perfbench_out"
SETUP_REPEATS = 10
WORKER_TIMEOUT = 60  # seconds; one operation takes 10 to 15
# one thread per library pool, inherited by every worker: numbers measure
# the program, not the scheduler
THREAD_PINS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be nonnegative")
    return args


def spawn(args, mode: str, index: int = 0) -> dict:
    """Run one worker process to completion and return its report."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--mode", mode, "--index", str(index)]
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=HERE.parent, env=dict(os.environ, **THREAD_PINS),
                              stdout=subprocess.PIPE, text=True, timeout=WORKER_TIMEOUT)
    except subprocess.TimeoutExpired:  # run() has killed and reaped the worker
        return {"failed_to_run": True, "wall": time.perf_counter() - t0,
                "problems": [f"worker timed out after {WORKER_TIMEOUT} s"]}
    if proc.returncode != 0:
        return {"failed_to_run": True, "wall": time.perf_counter() - t0,
                "problems": [f"worker exited with status {proc.returncode}"]}
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_ops(args, modes: tuple[str, ...], seconds: float) -> list[dict]:
    """Closed loop: start the next operation when one ends, cycling through
    `modes`, until `seconds` have passed and the cycle is complete."""
    ops = []
    deadline = time.perf_counter() + seconds
    while True:
        for mode in modes:
            ops.append(dict(spawn(args, mode, len(ops)), mode=mode))
        if time.perf_counter() >= deadline:
            return ops


def check_outputs(ops: list[dict]) -> None:
    """Add a problem to each operation whose outputs differ from the first
    untraced operation's; traced operations also fail without that reference."""
    reference = next((op["digest"] for op in ops
                      if op["mode"] == "op" and op.get("digest") is not None), None)
    for op in ops:
        if op.get("digest") is None:
            continue  # failed already
        if reference is None:
            op["problems"].append("no untraced output to compare with")
        elif op["digest"] != reference:
            op["problems"].append("outputs differ from the first untraced operation's")


def paired_overhead(ops: list[dict]) -> float:
    """Median of traced minus untraced wall time over adjacent (untraced,
    traced) pairs that both ran."""
    diffs = [t["wall"] - u["wall"] for u, t in zip(ops[::2], ops[1::2])
             if not u.get("failed_to_run") and not t.get("failed_to_run")]
    return summary(diffs)["median"] if diffs else 0.0


def line(name, value, unit, extra=""):
    print(f"  {name:34s} {value:>16.6g} {unit:6s}{extra}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "loglimit" / "__init__.py").is_file():
        print(f"error: package source not found at {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    setups = []
    for _ in range(SETUP_REPEATS):
        setups.append(spawn(args, "setup"))
        if setups[-1].get("failed_to_run"):  # stop at once: the run must end in bounded time
            print("error: set-up failed: " + "; ".join(setups[-1]["problems"]), file=sys.stderr)
            return 2

    all_ops = run_ops(args, ("op", "traced") if args.trace else ("op",), args.seconds)
    # repeated operations must give identical outputs; traced ones must equal
    # the untraced ones
    check_outputs(all_ops)
    attempted = len(all_ops)
    failed = sum(1 for op in all_ops if op["problems"])

    env = setups[0]["env"]
    seed_note = "ignored, the corpus is fixed" if args.workload == "verify_ineq" else (
        f"initial condition random_{args.seed}")
    print(f"workload {args.workload}; seed {args.seed} ({seed_note}); trace {args.trace}; "
          f"closed loop, 1 client, a fresh process per operation, {args.seconds:g} s")
    print("environment " + json.dumps(env, sort_keys=True))
    for i, op in enumerate(all_ops):
        label = {"op": "untraced op", "traced": "traced op"}[op["mode"]] if args.trace else "op"
        status = "ok" if not op["problems"] else "FAILED: " + "; ".join(op["problems"])
        print(f"{label} {i}: {op['wall']:.4f} s, {status}")
    print(f"fail_frac {failed}/{attempted} = {failed / attempted:.6g}")

    ran = [op for op in all_ops if not op.get("failed_to_run")]
    wall = summary(op["wall"] for op in all_ops if op["mode"] == "op")
    setup = summary(s["setup_s"] for s in setups + ran)
    rss = summary([op["peak_rss_mb"] for op in ran] or [0.0])
    result = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "env": env,
              "wall_s": wall, "setup_s": setup, "peak_rss_mb": rss, "ops": all_ops,
              "fail_frac": failed / attempted}
    traced = [op for op in all_ops if "layers" in op]
    if args.trace and traced:
        values = {name: sum(op["layers"][name] for op in traced) / len(traced)
                  for name in traced[0]["layers"]}
        values["trace.wall_s"] = summary(op["wall"] for op in traced)["median"]
        values["trace.overhead_s"] = paired_overhead(all_ops)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in LAYER_METRICS}
        mean_wall = sum(op["wall"] for op in traced) / len(traced)
        print(f"traced operation, mean of {len(traced)}: {mean_wall:.4f} s "
              "= top-level calls + checks")
        top = {}
        for op in traced:
            for name, secs in op["top_level"].items():
                top[name] = top.get(name, 0.0) + secs / len(traced)
        for name, secs in sorted(top.items(), key=lambda kv: -kv[1]):
            line(name, secs, "s")
        line("(benchmark checks, not in a span)", values["trace.unattributed_s"], "s")
        print("per-layer metrics, per traced operation:")
        for name, unit in LAYER_METRICS:
            line(name, values[name], unit)
    elif args.trace:
        print("no traced operation completed", file=sys.stderr)
        metrics = {name: {"value": 0.0, "unit": unit} for name, unit in LAYER_METRICS}
    else:
        values = {"wall_s": wall["median"], "setup_s": setup["median"],
                  "peak_rss_mb": rss["median"]}
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
        for name, unit in END_TO_END:
            s = {"wall_s": wall, "setup_s": setup, "peak_rss_mb": rss}[name]
            line(name, values[name], unit, f"  q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  n={s['n']}")
    with open(OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(result, fh, indent=1)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
