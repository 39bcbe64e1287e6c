"""Whole-output digest: the sha256 of every table, rootdata and report output,
and the contract of every command behind it: its handler returns the
document that its json format prints, and prints nothing itself.

`snapshot.sha256` holds one line per command, `<sha256>  <argv>`:

- `table` in text, json and latex;
- `rootdata` for the 30 admissible types of rank <= 8, in text and json;
- `report` for every (form, delta) label in text, json and latex at genus 4,
  plus one genus-3 report, which prints the Hitchin numerology only;
- `delta` for two profiles, in text and json;
- one `report` and one `rootdata` in colored text: a command that starts
  with `BUNDLEAUT_COLOR=1` runs with that variable set.

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
from unittest import mock

import pytest

from bundleaut import cli
from bundleaut.groupclass import enumerate_forms
from bundleaut.moduli import table_types
from bundleaut.rootdata import admissible_types

DIGESTS = Path(__file__).resolve().parent / "snapshot.sha256"
FORMATS = ("text", "json", "latex")
COLOR = "BUNDLEAUT_COLOR=1"
KINDS = ("table", "rootdata", "report", "delta")


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
    cmds += [f"delta --profile {profile} --format {fmt}"
             for profile in ("4:0,3:1", "2:0") for fmt in ("text", "json")]
    cmds += [f"{COLOR} report --group PSO_8 --delta 1,1 --format text",
             f"{COLOR} rootdata --type G2 --format text"]
    return cmds


def argv(command: str) -> list[str]:
    """The argv of a snapshot command, without its `BUNDLEAUT_COLOR=1`."""
    return command.removeprefix(COLOR).split()


def digest(command: str) -> str:
    out = io.StringIO()
    env = {"BUNDLEAUT_COLOR": "1"} if command.startswith(COLOR) else {}
    with mock.patch.dict(os.environ, env), contextlib.redirect_stdout(out):
        code = cli.main(argv(command))
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


@pytest.mark.parametrize("kind", KINDS)
def test_output_digests_unchanged(kind):
    expected = {cmd: sha for cmd, sha in recorded().items() if argv(cmd)[0] == kind}
    assert expected
    changed = [cmd for cmd, sha in expected.items() if digest(cmd) != sha]
    assert not changed, f"{len(changed)} outputs changed, first: {changed[:5]}"


@pytest.mark.parametrize("kind", KINDS)
def test_commands_return_the_document_their_json_prints(capsys, kind):
    # a handler prints nothing, and every format is a view of the one value
    # it returns; the json view, whatever --format the command names, is
    # that of the same argv with `--format json` put last, as the last wins
    for command in snapshot_commands():
        words = argv(command)
        if words[0] != kind:
            continue
        args = cli.parse_args(words)
        doc = args.func(args)
        assert capsys.readouterr().out == "", command
        assert cli.main([*words, "--format", "json"]) == 0, command
        assert capsys.readouterr().out == cli._json_text(doc) + "\n", command


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_snapshot.py --write")
    os.environ.pop("BUNDLEAUT_COLOR", None)
    DIGESTS.write_text("".join(f"{digest(cmd)}  {cmd}\n" for cmd in snapshot_commands()),
                       encoding="utf-8")
