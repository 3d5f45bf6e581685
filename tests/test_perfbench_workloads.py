"""The benchmark's operations pass their own checks at the default seed.

Each workload of `perfbench/workloads.py` is set up and run once, as one
benchmark worker process would run it.  A change that breaks one of its
correctness checks or moves a seed-42 reference value fails here, not only
in a benchmark run.
"""

from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.mark.parametrize("name", ["sweep_f0", "verify_ineq"])
def test_operation_passes_its_checks(name, monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    workload = workloads.WORKLOADS[name]
    outcome = workload.operation(workload.setup(42), tmp_path)
    assert outcome.problems == []
