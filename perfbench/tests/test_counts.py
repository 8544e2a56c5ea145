"""Work counts from the traced run must repeat exactly: two traced passes
over the same seeded inputs give the same calls, cells, nonzero counts,
coinvariant coordinates and Sweedler terms, and the same answers."""

import os
import tempfile

import pytest

from inputs import WORK_DIR
from run import layer_totals, prepare, run_pass
from workloads import WORKLOADS


def traced_once(workload: str, seed: int):
    os.makedirs(WORK_DIR, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK_DIR) as tmp:
        runner, _inputs, jobs = prepare(workload, seed, tmp)
        spans = run_pass(runner, jobs, traced=True)[3]
        totals = layer_totals(spans)
    counts = {k: v for k, v in totals.items() if not k.endswith("self_s")}
    return counts, runner.outputs, runner.failed


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_counts_repeat_exactly(workload):
    first = traced_once(workload, seed=7)
    second = traced_once(workload, seed=7)
    assert first[2] == second[2] == 0
    assert first[0] == second[0]
    assert first[1] == second[1]
    names = set(first[0])
    for key in ("hopf.sweedler_terms", "resolution.ambient_coords",
                "sparse.matmul_out_nnz", "linalg.max_cells", "cli.calls"):
        assert key in names
    assert first[0]["cli.calls"] > 0
