"""bench/layers.py in its quick mode: the schema, the layer and run names, no timing."""

import hashlib
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

from loglimit.grid import GridSpec
from loglimit.logineq import make_corpus
from loglimit.norms import bmo_seminorm, hardy_norm

SCRIPT = Path(__file__).resolve().parent.parent / "bench" / "layers.py"
LAYERS = {
    "norms.bmo_seminorm.log_cap", "norms.bmo_seminorm.mode_coscos", "flow.gradient_bmo",
    "norms.bmo_seminorm.d1u1", "norms.hardy_norm", "flow.step", "logineq.scan_corpus",
    "osgood.integrate_majorant",
}
E2E_RUNS = {"loglimit.sweep.n16", "loglimit.sweep.n32", "loglimit.verify_ineq"}


def test_quick_mode_writes_every_layer(tmp_path):
    out = tmp_path / "layers.json"
    # a child process: the script pins the process it runs in to one CPU
    proc = subprocess.run([sys.executable, str(SCRIPT), "--quick", "--out", str(out)],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(out.read_text())
    assert report["schema"] == "loglimit-layers/2"
    assert report["sizes"] == [16] and report["repeats"] == 1
    assert report["command"] == f"python3 bench/layers.py --quick --out {out}"
    env = report["environment"]
    assert {"commit", "dirty", "machine", "cpu_count", "pinned_cpu", "python", "numpy",
            "threads", "end_to_end_cpus"} <= set(env)
    assert env["numpy"] == np.__version__
    assert set(report["layers"]) == LAYERS
    for name, layer in report["layers"].items():
        assert layer["unit"] == "ms", name
        assert set(layer["by_size"]) == {"16"}, name
        row = layer["by_size"]["16"]
        assert set(row) == {"median", "q1", "q3", "samples", "digest"}, name
        assert len(row["samples"]) == 1, name
        assert all(isinstance(row[k], float) for k in ("median", "q1", "q3")), name
        assert len(row["digest"]) == 64 and int(row["digest"], 16) >= 0, name
    # a digest is that of the output the layer computed
    log_cap = {fid: f for fid, _, f in make_corpus(GridSpec(16))}["log_cap"]
    for name, value in (("norms.bmo_seminorm.log_cap", bmo_seminorm(log_cap)),
                        ("norms.hardy_norm", hardy_norm(log_cap))):
        expected = hashlib.sha256(np.float64(value).tobytes()).hexdigest()
        assert report["layers"][name]["by_size"]["16"]["digest"] == expected
    # each end-to-end run: a fresh process's wall time, the CPU time and peak
    # RSS of it and of its children, its exit status and its output's digest
    e2e = report["end_to_end"]
    assert e2e["sizes"] == [16, 32] and e2e["repeats"] == 1
    assert set(e2e["runs"]) == E2E_RUNS
    for name, run in e2e["runs"].items():
        assert set(run) == {"argv", "wall_s", "cpu_s", "peak_rss_mb", "exit_status",
                            "digest"}, name
        assert run["argv"][0] in {"sweep", "verify-ineq"}, name
        assert run["exit_status"] == 0, name
        assert len(run["digest"]) == 64 and int(run["digest"], 16) >= 0, name
        assert set(run["wall_s"]) == {"median", "q1", "q3", "samples"}, name
        for metric in ("cpu_s", "peak_rss_mb"):
            assert set(run[metric]) == {"self", "children"}, name
            for who, row in run[metric].items():
                assert set(row) == {"median", "q1", "q3", "samples"}, (name, who)
                assert len(row["samples"]) == 1 and row["median"] >= 0.0, (name, who)
        assert run["peak_rss_mb"]["self"]["median"] > 0.0 and run["wall_s"]["median"] > 0.0
