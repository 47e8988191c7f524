"""The benchmark's fresh-process runs reproduce its committed reference
outputs.

`perfbench/run.py` compares the checks of every child it starts with
`perfbench/reference/<workload>.json` and counts a value outside its band
(`run.mismatch`) as a failed operation.  Each test here starts one
untraced child of a workload the same way, with one BLAS thread, so that a
change which moves a banded value, such as the few-ulp band of
`sqrt.quadrature_converges`, fails here first.  Nothing under `perfbench/`
is written: the child's report goes to a temporary directory.
"""

import json
import os
import sys

import pytest

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench")
sys.path.insert(0, PERFBENCH)

import run  # noqa: E402


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_benchmark_child_matches_its_reference(workload, tmp_path):
    result, note = run.run_child(workload, 42, False, "guard", str(tmp_path),
                                 run.HARD_LIMIT_S)
    assert result is not None, note
    with open(run.reference_path(workload)) as fh:
        reference = json.load(fh)
    attempted, failures = run.compare(result["checks"], reference)
    assert attempted == len(reference["checks"]) > 0
    assert failures == []
