"""Whole-output digest: the sha256 of every table, rootdata and report output.

`snapshot.sha256` holds one line per command, `<sha256>  <argv>`:

- `table` in text, json and latex;
- `rootdata` for the 30 admissible types of rank <= 8, in text and json;
- `report` for every (form, delta) label in text, json and latex at genus 4,
  plus one genus-3 report, which prints the Hitchin numerology only.

A change that should not alter output leaves every line as it is.  After a
deliberate output change, regenerate the file and review its diff:

    PYTHONPATH=src python tests/test_snapshot.py --write
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import sys
from pathlib import Path

import pytest

from bundleaut import cli
from bundleaut.groupclass import enumerate_forms
from bundleaut.moduli import table_types
from bundleaut.rootdata import admissible_types

DIGESTS = Path(__file__).resolve().parent / "snapshot.sha256"
FORMATS = ("text", "json", "latex")


def snapshot_commands() -> list[str]:
    """Every command of the snapshot, as space-separated argv.

    A form's display name is also a group spec (`SL_4/mu_2`, `SemiSpin_12`,
    `E6_ad`), so the list names each form the way a user would."""
    cmds = [f"table --format {fmt}" for fmt in FORMATS]
    cmds += [f"rootdata --type {t.name} --format {fmt}"
             for t in admissible_types(8) for fmt in ("text", "json")]
    for t in table_types(8):
        for gf in enumerate_forms(t):
            for delta in sorted(gf.pi1.elements()):
                flag = f" --delta {','.join(map(str, delta))}" if delta else ""
                cmds += [f"report --group {gf.display_name}{flag} --format {fmt}"
                         for fmt in FORMATS]
    cmds.append("report --group E7_ad --genus 3")
    return cmds


def digest(command: str) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(command.split())
    assert code == 0, f"{command}: exit {code}"
    return hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()


def recorded() -> dict[str, str]:
    lines = DIGESTS.read_text(encoding="utf-8").splitlines()
    return {cmd: sha for sha, cmd in (line.split("  ", 1) for line in lines)}


@pytest.fixture(autouse=True)
def _plain_output(monkeypatch):
    monkeypatch.delenv("BUNDLEAUT_COLOR", raising=False)


def test_command_list_matches_recorded():
    assert snapshot_commands() == list(recorded())


@pytest.mark.parametrize("kind", ["table", "rootdata", "report"])
def test_output_digests_unchanged(kind):
    expected = {cmd: sha for cmd, sha in recorded().items() if cmd.startswith(kind)}
    assert expected
    changed = [cmd for cmd, sha in expected.items() if digest(cmd) != sha]
    assert not changed, f"{len(changed)} outputs changed, first: {changed[:5]}"


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_snapshot.py --write")
    os.environ.pop("BUNDLEAUT_COLOR", None)
    DIGESTS.write_text("".join(f"{digest(cmd)}  {cmd}\n" for cmd in snapshot_commands()),
                       encoding="utf-8")
