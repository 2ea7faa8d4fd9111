"""Every benchmark workload still runs on the current program: its
per-spec work and output check (`perfbench/workloads.py`) read names of
the package beyond the tracer hooks, such as `Family.fibered`,
`verify.invariant_multiset`, `engine.somma_residue` and the report
fields, and `perfbench/test_perfbench.py` is not part of this suite."""

import importlib
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_workload_runs_and_checks_a_few_specs():
    saved = list(sys.path)
    sys.path.insert(0, str(PERFBENCH))
    try:
        workloads = importlib.import_module("workloads")
    finally:
        sys.path[:] = saved
    for workload in workloads.WORKLOADS.values():
        rows = workloads.enumerate_rows(workload.families, 24)[:5]
        assert rows, workload.name
        work = workloads.WORK[workload.kind]
        checker = workloads.PassChecker(workload)
        for index, row in enumerate(rows):
            checker.check(index, row.spec, work(row.spec))
        assert not checker.failed, (workload.name, checker.errors)
