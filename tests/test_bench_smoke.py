"""The benchmark contract: every workload runs, traced, and checks correct.

Deleting a module that `bench/layers.py` lists, which the tracer imports,
or changing an output the oracles in `bench/` read, fails here rather than
only in a full benchmark run.  Deleting or renaming a function the tracer
wraps does not: the tracer lists it as missing, reads it as 0 and goes on.
Each run writes only to `bench/out/`.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["table-cold", "lookup-cold", "report-warm"])
def test_traced_workload_is_correct(workload):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, result.get("failures")
    assert result["failed"] == 0
