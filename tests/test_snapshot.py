"""Whole-output digest: the sha256 of every table, rootdata and report output,
and the contract of every command behind it: its handler returns the
document that its json format prints, and prints nothing itself.

`snapshot.sha256` holds one line per command, `<sha256>  <argv>`:

- `table` in text, json and latex;
- `rootdata` for the 30 admissible types of rank <= 8, in text and json;
- `report` for every (form, delta) label in text, json and latex at genus 4,
  plus one genus-3 report, which prints the Hitchin numerology only;
- `delta` for two profiles, in text and json.

A change that should not alter output leaves every line as it is.  After a
deliberate output change, regenerate the file and review its diff:

    PYTHONPATH=src python tests/test_snapshot.py --write

`--check` compares the outputs with the file without pytest, so that any
interpreter can run it: it prints each command whose output differs, or
that only one of the command list and the file names, and exits 1.
`test_digests_match_under_other_interpreters` runs it under the other
CPython versions that pyenv installs, and under `python -O`.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import subprocess
import sys
from pathlib import Path

from bundleaut import cli
from bundleaut.groupclass import enumerate_forms
from bundleaut.moduli import table_types
from bundleaut.rootdata import admissible_types

DIGESTS = Path(__file__).resolve().parent / "snapshot.sha256"
FORMATS = ("text", "json", "latex")
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


def changed_commands() -> list[str]:
    """The commands whose output does not have its recorded digest, then the
    recorded commands that the list no longer names.  Under `python -O` the
    exit code is not asserted, but a failed command prints nothing, whose
    digest no command has."""
    expected, commands = recorded(), snapshot_commands()
    return ([cmd for cmd in commands if expected.get(cmd) != digest(cmd)]
            + sorted(expected.keys() - set(commands)))


if __name__ == "__main__":  # before pytest is imported, so that it needs none
    if sys.argv[1:] not in (["--write"], ["--check"]):
        sys.exit("usage: PYTHONPATH=src python tests/test_snapshot.py --write | --check")
    if sys.argv[1] == "--write":
        DIGESTS.write_text("".join(f"{digest(cmd)}  {cmd}\n" for cmd in snapshot_commands()),
                           encoding="utf-8")
        sys.exit(0)
    changed = changed_commands()
    print(*changed, sep="\n", end="\n" if changed else "")
    sys.exit(1 if changed else 0)

import pytest  # noqa: E402  (after the script, which runs without it)

PYENV_VERSIONS = Path(os.environ.get("PYENV_ROOT", Path.home() / ".pyenv")) / "versions"
OTHER_PYTHONS = ("3.10.13", "3.12.1", "3.13.0")  # requires-python is >= 3.10


def test_command_list_matches_recorded():
    assert snapshot_commands() == list(recorded())


@pytest.mark.parametrize("kind", KINDS)
def test_output_digests_unchanged(kind):
    expected = {cmd: sha for cmd, sha in recorded().items() if cmd.split()[0] == kind}
    assert expected
    changed = [cmd for cmd, sha in expected.items() if digest(cmd) != sha]
    assert not changed, f"{len(changed)} outputs changed, first: {changed[:5]}"


@pytest.mark.parametrize("kind", KINDS)
def test_commands_return_the_document_their_json_prints(capsys, kind):
    # a handler prints nothing, and every format is a view of the one value
    # it returns; the json view, whatever --format the command names, is
    # that of the same argv with `--format json` put last, as the last wins
    for command in snapshot_commands():
        words = command.split()
        if words[0] != kind:
            continue
        args = cli.parse_args(words)
        doc = args.func(args)
        assert capsys.readouterr().out == "", command
        assert cli.main([*words, "--format", "json"]) == 0, command
        assert capsys.readouterr().out == cli._json_text(doc) + "\n", command


@pytest.mark.parametrize("python,flags", [
    *((PYENV_VERSIONS / version / "bin" / "python", ()) for version in OTHER_PYTHONS),
    (Path(sys.executable), ("-O",)),
], ids=[*OTHER_PYTHONS, "optimize"])
def test_digests_match_under_other_interpreters(python, flags):
    # the same bytes on every interpreter the package supports, and with
    # the asserts stripped, where each `check` must still run
    if not python.exists():
        pytest.skip(f"no interpreter at {python}")
    src = Path(cli.__file__).resolve().parents[1]
    proc = subprocess.run([str(python), *flags, __file__, "--check"], capture_output=True,
                          text=True, timeout=300, env=dict(os.environ, PYTHONPATH=str(src)))
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "", "")
