"""The benchmark contract: every workload runs, traced, and checks correct.

Deleting a module that `bench/layers.py` lists, which the tracer imports,
or changing an output the oracles in `bench/` read, fails here rather than
only in a full benchmark run.  So does deleting or renaming a function the
tracer wraps: the tracer lists such a name as missing and reads it as 0,
and the traced runs must list exactly the stale names pinned below.  Losing
a class the tracer times through its initialiser (`Subgroup.__init__`,
`AbelianAction.__post_init__`) makes `Tracer.install` raise `KeyError`, so
the run fails.  Each run writes only to `bench/out/`.

The tests import `bench/oracles.py` too (`bench` is on the test path), so
it must stay independent of the package it judges.
"""

import ast
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# The wrapped names that the package no longer has, in the tracer's order.
# `finabel.lattice_quotient` is among them: `cli` reads P/Q for `rootdata`
# with `LatticeQuotient` directly.
STALE_NAMES = [
    "rootdata.root_hyperplanes",
    "linalg.solve", "linalg.invert", "linalg.nullspace", "linalg.charpoly", "linalg.mat_mul",
    "finabel.lattice_quotient", "finabel.torsion_power",
    "weyl.coxeter_element", "weyl.orbits_on_roots", "weyl.orbits_on_hyperplane_pairs",
    "weyl.ordered_root_pair_orbit_count",
    "groupclass.fundamental_group", "groupclass.center_char_subgroup", "groupclass.out_group",
    "groupclass.out_action_on_pi1", "groupclass.out_action_on_center_chars",
    "moduli.delta_classes", "moduli.aut_presentation",
]


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
    detail = json.loads((ROOT / "bench" / "out" / f"{workload}-seed1-trace1.json").read_text())
    assert detail["layers"]["missing"] == STALE_NAMES


def test_the_oracles_import_nothing_from_the_package():
    tree = ast.parse((ROOT / "bench" / "oracles.py").read_text(encoding="utf-8"))
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names}
    imported |= {node.module for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom) and node.module}
    assert not {name for name in imported if name.split(".")[0] == "bundleaut"}, imported
    # both directories are on the test path: a shared module name would
    # shadow one module with the other
    bench = {path.stem for path in (ROOT / "bench").glob("*.py")}
    assert not bench & {path.stem for path in (ROOT / "tests").glob("*.py")}
