"""The benchmark's operations pass their own checks.

Each workload of `perfbench/workloads.py` is set up and run once, as one
benchmark worker process would run it: at the default seed, and
`sweep_f0` also at seed 7, whose reference run differs.  A change that
breaks one of its correctness checks or moves a seed-42 reference value
fails here, not only in a benchmark run.  The `sweep_f0` outputs, files
included, must also hash the same in-process and with forked children.
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


def test_sweep_digest_does_not_depend_on_placement(monkeypatch, tmp_path, cpus):
    # the sweep's outputs, files included, are the same in-process and with
    # forked children
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    workload = workloads.WORKLOADS["sweep_f0"]
    inputs = workload.setup(workloads.DEFAULT_SEED)
    digests = []
    for k in (1, 2):
        cpus(k)
        workdir = tmp_path / f"cpus{k}"
        workdir.mkdir()
        outcome = workload.operation(inputs, workdir)
        assert outcome.problems == []
        digests.append(workloads.digest(outcome.values))
    assert digests[0] == digests[1]
