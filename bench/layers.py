"""Per-layer timings of loglimit, pinned to one core, written as JSON.

    python3 bench/layers.py                      # n = 32, 64, 128, 256; 5 repeats each
    python3 bench/layers.py --quick --out x.json # n = 16 (end to end 16, 32), one repeat:
                                                 # the schema only

The script imports the package from `src/` of the checkout it sits in and
pins its own process to one CPU (os.sched_setaffinity), so the parallel map
runs every task in-process and a layer's time is one core's.  Each layer
runs once untimed, then REPEATS timed times; the file records the
median and quartiles of those times in ms, with the samples, and the
sha256 digest of the layer's output, so that a timing is tied to the result
it produced.  The layers, at each n:

- norms.bmo_seminorm.log_cap, norms.bmo_seminorm.mode_coscos: the BMO scan
  of two corpus fields;
- flow.gradient_bmo: the f0 scan of one sample, random_42 after 5 steps at
  nu = 1e-3 (the sweeps' per-sample BMO cost);
- norms.bmo_seminorm.d1u1: the BMO scan of that sample's gradient component
  d1 u1, one of the three scans of flow.gradient_bmo;
- norms.hardy_norm: the Hardy norm of log_cap;
- flow.step: one CFL step of that state;
- logineq.scan_corpus: scan_corpus((n,)).

One layer runs at one grid only, n = 64 (n = 16 under --quick):

- osgood.integrate_majorant: the majorant of the nu = 1e-4 member of the
  sweep_f0 benchmark's random_42 sweep (T = 0.5, 50 samples, c_emp the
  corpus max ratio at n = 64); the sweep that builds it runs untimed.

End to end, before it pins itself, the script runs `loglimit sweep` on the
README's sweep.cfg (taylor_green, nu = 1e-1 ... 1e-4, T = 0.5, 100 samples) at
grid n = 64, 128 and 256, and `loglimit verify-ineq --sizes 64,128,256`
(under --quick: the sweep at n = 16 and 32, and verify-ineq --sizes 16,32),
E2E_REPEATS times each (once under --quick), each run a fresh process on
every CPU the script may use, in a fresh directory.  It records the wall
time of each run, and the CPU time and peak RSS (ru_maxrss) of the process
and of its children (RUSAGE_SELF and RUSAGE_CHILDREN: the parallel map's
forked children), each as median, quartiles and samples, with the exit
status and the sha256 digest of the command's output: stdout and every file
it wrote.  The sweep at n = 256 takes about 100 s on 2 cores.

The default output is BENCH_layers.json at the repository root; a later
change reruns the script and commits the new file, and the file's history
is the trajectory.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from loglimit import flow, inviscid, logineq, norms, osgood  # noqa: E402
from loglimit.grid import GridSpec  # noqa: E402

SCHEMA = "loglimit-layers/2"
SIZES, REPEATS, MAJORANT_SIZE = (32, 64, 128, 256), 5, 64
E2E_SIZES, E2E_REPEATS = (64, 128, 256), 3
# README's sweep.cfg, at grid {n}
SWEEP_CONFIG = """grid = {n}
nu = 1e-1,1e-2,1e-3,1e-4
T = 0.5
ic = taylor_green
samples = 100
out = sweep_output
"""
# one end-to-end run: python -c E2E_CHILD SRC USAGE_JSON ARGV..., which runs
# loglimit's CLI on ARGV and writes its exit status and resource usage
E2E_CHILD = """
import json, resource, sys
sys.path.insert(0, sys.argv[1])
from loglimit.cli import main
status = main(sys.argv[3:])
usage = {who: resource.getrusage(getattr(resource, "RUSAGE_" + who.upper()))
         for who in ("self", "children")}
with open(sys.argv[2], "w") as fh:
    json.dump({"status": status, **{who: {"cpu_s": u.ru_utime + u.ru_stime,
                                          "peak_rss_mb": u.ru_maxrss / 1024.0}
                                    for who, u in usage.items()}}, fh)
"""
C_EMP = 5.579666089445635  # the corpus max ratio at n = 64, as sweep_f0 and acceptance 10 use
LAYERS = (
    "norms.bmo_seminorm.log_cap",
    "norms.bmo_seminorm.mode_coscos",
    "flow.gradient_bmo",
    "norms.bmo_seminorm.d1u1",
    "norms.hardy_norm",
    "flow.step",
    "logineq.scan_corpus",
    "osgood.integrate_majorant",
)


def digest(value) -> str:
    """sha256 of a layer's output: a float's bits, a flow state's mode
    vector and time, a majorant trajectory's times, ln y and blow-up flag,
    or a corpus scan's trial rows and maxima."""
    if isinstance(value, float):
        data = np.float64(value).tobytes()
    elif isinstance(value, flow.FlowState):
        data = value._box.tobytes() + np.float64(value.time).tobytes()
    elif isinstance(value, osgood.Trajectory):
        data = value.times.tobytes() + value.log_y.tobytes() + bytes([value.blow_up])
    else:
        data = repr((value.trials, value.max_ratio, value.duality_max_by_size,
                     value.chain_max_by_size)).encode()
    return hashlib.sha256(data).hexdigest()


def layer_calls(n: int) -> dict:
    """Layer name -> a call with no arguments, on inputs built here."""
    grid = GridSpec(n)
    corpus = {fid: f for fid, _, f in logineq.make_corpus(grid)}
    cfg = flow.SolverConfig(grid, nu=1e-3, horizon=1.0)
    state = flow.FlowState.from_velocity(flow.random_band_velocity(grid, seed=42))
    for _ in range(5):
        state = flow.step(state, cfg)
    d1u1 = flow._state_gradient(state)[0]
    return {
        "norms.bmo_seminorm.log_cap": lambda: norms.bmo_seminorm(corpus["log_cap"]),
        "norms.bmo_seminorm.mode_coscos": lambda: norms.bmo_seminorm(corpus["mode_coscos"]),
        "flow.gradient_bmo": lambda: flow.gradient_bmo(state),
        "norms.bmo_seminorm.d1u1": lambda: norms.bmo_seminorm(d1u1),
        "norms.hardy_norm": lambda: norms.hardy_norm(corpus["log_cap"]),
        "flow.step": lambda: flow.step(state, cfg),
        "logineq.scan_corpus": lambda: logineq.scan_corpus((n,)),
    }


def majorant_call(n: int):
    """integrate_majorant of the nu = 1e-4 member of sweep_f0's random_42
    sweep at grid n, with no arguments; the sweep runs here.  The member's
    run and its pairing with the reference do not depend on the other
    viscosities, so the sweep runs nu = 1e-4 alone."""
    sweep = inviscid.run_sweep(inviscid.ExperimentConfig(
        grid_points=n, horizon=0.5, nu_list=(1e-4,), initial_condition_id="random_42",
        min_samples=50))
    problem = inviscid.majorant_problem(sweep, 1e-4, C_EMP)
    return lambda: osgood.integrate_majorant(problem)


def time_layer(call, repeats: int) -> dict:
    """Median and quartiles (ms) of `repeats` timed calls after one untimed
    call, and the digest of the output, which every call must repeat."""
    out = digest(call())
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        result = call()
        samples.append(1e3 * (time.perf_counter() - start))
        if digest(result) != out:
            raise RuntimeError("a layer's output changed between repeats")
    return {**summary(samples), "digest": out}


def summary(samples: list) -> dict:
    """Median and quartiles of samples, with the samples."""
    q1, median, q3 = np.percentile(samples, [25, 50, 75])
    return {"median": float(median), "q1": float(q1), "q3": float(q3), "samples": samples}


def end_to_end_commands(sizes: tuple) -> dict:
    """Run name -> (sweep config text or None, loglimit argv)."""
    runs = {f"loglimit.sweep.n{n}": (SWEEP_CONFIG.format(n=n), ["sweep", "sweep.cfg"])
            for n in sizes}
    runs["loglimit.verify_ineq"] = (
        None, ["verify-ineq", "--sizes", ",".join(map(str, sizes)), "--out", "trials.csv"])
    return runs


def run_end_to_end(config: str | None, argv: list) -> dict:
    """One run of `loglimit argv` in a fresh process and directory: its wall
    time, exit status and resource usage, and the digest of its stdout and
    of every file it wrote, in path order."""
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        inputs = {"sweep.cfg", "usage.json"}  # written here, not by the command
        if config is not None:
            (work / "sweep.cfg").write_text(config)
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", E2E_CHILD, str(ROOT / "src"),
                               str(work / "usage.json"), *argv], cwd=work, capture_output=True)
        wall = time.perf_counter() - start
        if proc.returncode != 0:
            raise RuntimeError(f"loglimit {' '.join(argv)} crashed: {proc.stderr.decode()}")
        h = hashlib.sha256(proc.stdout)
        for path in sorted(p for p in work.rglob("*") if p.is_file() and p.name not in inputs):
            h.update(str(path.relative_to(work)).encode() + b"\0" + path.read_bytes())
        return {"wall_s": wall, "usage": json.loads((work / "usage.json").read_text()),
                "digest": h.hexdigest()}


def time_end_to_end(config: str | None, argv: list, repeats: int) -> dict:
    """`repeats` runs of run_end_to_end, which must repeat their exit status
    and digest, summarised."""
    runs = [run_end_to_end(config, argv) for _ in range(repeats)]
    if len({(r["usage"]["status"], r["digest"]) for r in runs}) != 1:
        raise RuntimeError("an end-to-end run's output changed between repeats")

    def by_process(key: str) -> dict:
        return {who: summary([r["usage"][who][key] for r in runs]) for who in ("self", "children")}

    return {"argv": argv, "wall_s": summary([r["wall_s"] for r in runs]),
            "cpu_s": by_process("cpu_s"), "peak_rss_mb": by_process("peak_rss_mb"),
            "exit_status": runs[0]["usage"]["status"], "digest": runs[0]["digest"]}


def git(*args: str) -> str | None:
    """Output of a git command in this checkout, None without git or a repository."""
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True, text=True,
                              timeout=30)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment(cpu: int) -> dict:
    status = git("status", "--porcelain", "--", "src", "bench")
    return {
        "commit": git("rev-parse", "HEAD"),
        "dirty": None if status is None else status != "",
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "pinned_cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "threads": {var: os.environ.get(var)
                    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--quick", action="store_true", help="n = 16 and one repeat")
    p.add_argument("--out", type=Path, default=ROOT / "BENCH_layers.json")
    args = p.parse_args(argv)
    sizes, repeats = ((16,), 1) if args.quick else (SIZES, REPEATS)
    e2e_sizes, e2e_repeats = ((16, 32), 1) if args.quick else (E2E_SIZES, E2E_REPEATS)
    end_to_end = {}
    for name, (config, cli_argv) in end_to_end_commands(e2e_sizes).items():
        end_to_end[name] = row = time_end_to_end(config, cli_argv, e2e_repeats)
        print(f"{name:32s} wall {row['wall_s']['median']:8.2f} s  peak RSS "
              f"{row['peak_rss_mb']['self']['median']:.1f} MB, children "
              f"{row['peak_rss_mb']['children']['median']:.1f} MB", flush=True)
    e2e_cpus = len(os.sched_getaffinity(0))
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    layers = {name: {"unit": "ms", "by_size": {}} for name in LAYERS}

    def record(name: str, n: int, call) -> None:
        layers[name]["by_size"][str(n)] = row = time_layer(call, repeats)
        print(f"{name:32s} n={n:4d}  median {row['median']:9.3f} ms  "
              f"[{row['q1']:.3f}, {row['q3']:.3f}]", flush=True)

    for n in sizes:
        for name, call in layer_calls(n).items():
            record(name, n, call)
    n = 16 if args.quick else MAJORANT_SIZE
    record("osgood.integrate_majorant", n, majorant_call(n))
    command = " ".join(["python3", "bench/layers.py", *(sys.argv[1:] if argv is None else argv)])
    report = {"schema": SCHEMA, "command": command, "sizes": list(sizes), "repeats": repeats,
              "environment": {**environment(cpu), "end_to_end_cpus": e2e_cpus},
              "layers": layers,
              "end_to_end": {"sizes": list(e2e_sizes), "repeats": e2e_repeats,
                             "runs": end_to_end}}
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
