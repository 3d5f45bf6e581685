"""The benchmark's operations pass their own checks.

Each workload of `perfbench/workloads.py` is set up and run once, as one
benchmark worker process would run it: at the default seed, and
`sweep_f0` also at seed 7, whose reference run differs.  A change that
breaks one of its correctness checks or moves a seed-42 reference value
fails here, not only in a benchmark run.
"""

from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.mark.parametrize("name, seed", [("sweep_f0", 42), ("sweep_f0", 7), ("verify_ineq", 42)],
                         ids=["sweep_f0", "sweep_f0-seed7", "verify_ineq"])
def test_operation_passes_its_checks(name, seed, monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    workload = workloads.WORKLOADS[name]
    outcome = workload.operation(workload.setup(seed), tmp_path)
    assert outcome.problems == []
