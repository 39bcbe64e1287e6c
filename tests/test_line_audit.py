"""Every executable line of `src/` runs for some command a user can type.

`tests/test_callers.py` fails on a name with no caller in `src/`; this test
fails on a line that no command reaches, such as a branch that only a test
calls.  One child process installs a `sys.settrace` tracer, imports
`bundleaut.cli` with every cache empty, and runs through `cli.main`, with
stdout and stderr captured, each argv of the test suite's own lists:

- the `snapshot_commands()` of `tests/test_snapshot.py`, with
  `BUNDLEAUT_COLOR=1` where the snapshot sets it;
- the usage errors of `tests/test_cli.py`: `PAST_DIGIT_CEILINGS`,
  `UNPRINTABLE_INPUTS`, `NON_ASCII_NUMBERS`, `PAST_RANK_CEILINGS` and the
  argv of `EDGE_ARGVS`;
- `MORE_ARGVS` below, for the branches those lists miss.

The child imports no test module, so a line that only a test calls stays
unreached.  The executable lines of a module are the `co_lines()` of every
code object that `compile` gives for its source.  A line no command reaches
fails the test unless one of `EXEMPTIONS` covers it; an exemption names
code by module, function and construct, never by line number, and one that
covers no unreached line is stale and fails the test too.

    PYTHONPATH=src python tests/test_line_audit.py

prints the unreached lines by module, with their source, each marked with
the exemption that covers it, and exits 1 if the test would fail.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "bundleaut"

if __name__ == "__main__":  # pytest puts `bench` on the path; a script does it itself
    sys.path.append(str(ROOT / "bench"))

from test_cli import (
    EDGE_ARGVS,
    NON_ASCII_NUMBERS,
    PAST_DIGIT_CEILINGS,
    PAST_RANK_CEILINGS,
    UNPRINTABLE_INPUTS,
)
from test_snapshot import COLOR, snapshot_commands
from test_snapshot import argv as snapshot_argv

# what the lists above leave unreached: a trivial pi_1 given a delta, json at
# a genus without a presentation, a genus the Hitchin numerology rejects, a
# table genus and a table rank below their ranges, a profile entry with an
# odd and one with a negative deg - drop, an alias in an odd dimension it
# lacks, a rank its family lacks, and the help texts
MORE_ARGVS = [
    ["report", "--group", "E8", "--delta", "0"],
    ["report", "--group", "E7_ad", "--genus", "3", "--format", "json"],
    ["report", "--group", "E8", "--genus", "1"],
    ["table", "--genus", "3"],
    ["table", "--max-rank", "1"],
    ["delta", "--profile", "3:0"],
    ["delta", "--profile", "0:2"],
    ["report", "--group", "pso7"],
    ["rootdata", "--type", "E5"],
    ["-h"],
    ["report", "-h"],
]

# Code no command reaches, each entry with its reason and the code it
# names: (module, function, construct).  An empty function is module level,
# "*" is every module or every function; an empty construct is the whole
# module or function.  Otherwise the construct is the start of a statement:
# for an `if` it names the body, for any other statement or an `except`
# clause the whole of it.  `LAMBDA_TO_CHECK` names each lambda passed to
# `rootdata.check`, the message it formats when it fails.
LAMBDA_TO_CHECK = "check(..., lambda: ...)"
EXEMPTIONS = {
    "a check that fails": (
        "A command on a correct program fails no check; a witness that breaks the "
        "program and sees a check fail is a test's job (ROADMAP item 7).", [
            ("rootdata.py", "check", "if not cond"),
            ("*", "*", LAMBDA_TO_CHECK),
            ("cli.py", "main", "except ConsistencyError"),
            ("finabel.py", "smith_normal_form", "if pivot is None"),  # a singular relation matrix
            ("rootdata.py", "has_cartan_matrix", "return False"),
            ("rootdata.py", "build_root_datum", "if j == bound"),  # the root closure bound
        ]),
    "another process": (
        "Only a separate process runs `python -m bundleaut`, the module as a script or "
        "a closed stdout; tests/test_cli.py runs each in one.", [
            ("__main__.py", "", ""),
            ("cli.py", "", 'if __name__ == "__main__"'),
            ("cli.py", "main", "except BrokenPipeError"),
        ]),
    "the benchmark": (
        "bench/ reads a report back through ReportDocument and imports every module "
        "its layer list names, linalg.py included (ROADMAP items 18 and 20).", [
            ("cli.py", "ReportDocument.to_json", ""),
            ("cli.py", "ReportDocument.from_json", ""),
            ("linalg.py", "", ""),
        ]),
    "a value no document holds": (
        "_json_text rejects a value outside the JSON types; every document holds "
        "only those, and tests/test_json_text.py passes it the others.", [
            ("cli.py", "_json_text", "raise TypeError"),
        ]),
    "a negative profile entry": (
        "parse_profile reads each number of a profile in the digits 0-9, so no "
        "command gives delta_local a negative one.", [
            ("moduli.py", "delta_local", "if deg < 0 or drop < 0"),
        ]),
}

CHILD = r"""
import contextlib, io, json, os, sys

package = sys.argv[1]
reached = {}  # module file name -> the lines run in it


def trace(frame, event, arg):
    path = frame.f_code.co_filename
    if os.path.dirname(path) != package:
        return None
    lines = reached.setdefault(os.path.basename(path), set())
    lines.add(frame.f_lineno)

    def local(frame, event, arg):
        lines.add(frame.f_lineno)
        return local
    return local


commands = json.load(sys.stdin)
sys.settrace(trace)
from bundleaut import cli

for colored, argv in commands:
    if colored:
        os.environ["BUNDLEAUT_COLOR"] = "1"
    else:
        os.environ.pop("BUNDLEAUT_COLOR", None)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        cli.main(argv)
sys.settrace(None)
print(json.dumps({name: sorted(lines) for name, lines in reached.items()}))
"""


def commands() -> list[tuple[bool, list[str]]]:
    """(colored, argv) for every command the child runs."""
    argvs = [argv for argv, _ in (PAST_DIGIT_CEILINGS + UNPRINTABLE_INPUTS + NON_ASCII_NUMBERS
                                  + PAST_RANK_CEILINGS)]
    argvs += [argv for argv, _, _ in EDGE_ARGVS] + MORE_ARGVS
    return ([(command.startswith(COLOR), snapshot_argv(command))
             for command in snapshot_commands()] + [(False, argv) for argv in argvs])


def reached_lines() -> dict[str, set[int]]:
    """The lines of each module that the commands run, traced in a child."""
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, str(PACKAGE)], input=json.dumps(commands()),
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=str(PACKAGE.parent)))
    assert proc.returncode == 0, proc.stderr
    return {name: set(lines) for name, lines in json.loads(proc.stdout).items()}


def executable_lines(source: str, name: str) -> set[int]:
    """The lines of every code object compiled from the source."""
    lines, codes = set(), [compile(source, name, "exec")]
    for code in codes:
        lines.update(line for _, _, line in code.co_lines() if line)
        codes += [c for c in code.co_consts if isinstance(c, types.CodeType)]
    return lines


def scopes(tree: ast.Module) -> dict[str, ast.AST]:
    """Each function of a module by qualified name, "" for the module."""
    found = {"": tree}
    pending = [("", tree)]
    for prefix, node in pending:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                name = prefix + child.name
                if isinstance(child, ast.FunctionDef):
                    found[name] = child
                pending.append((name + ".", child))
    return found


def span(nodes) -> set[int]:
    return {line for node in nodes for line in range(node.lineno, node.end_lineno + 1)}


def covered(source: str, function: str, construct: str) -> set[int]:
    """The lines of the construct in the function (see `EXEMPTIONS`)."""
    tree, lines = ast.parse(source), source.splitlines()
    found = set()
    for name, scope in scopes(tree).items():
        if function not in ("*", name):
            continue
        if not construct:
            found |= span(scope.body if scope is tree else [scope])
            continue
        # the scope's own nodes: those of the functions and classes in it
        # belong to their own scopes
        inner = [scope]
        for node in inner:
            if node is scope or not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                inner += ast.iter_child_nodes(node)
        for node in inner[1:]:
            if construct == LAMBDA_TO_CHECK:
                if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                        and node.func.id == "check"):
                    found |= span(a for a in node.args if isinstance(a, ast.Lambda))
            elif (isinstance(node, (ast.stmt, ast.ExceptHandler))
                  and lines[node.lineno - 1][node.col_offset:].startswith(construct)):
                found |= span(node.body if isinstance(node, ast.If) else [node])
    return found


def audit() -> tuple[dict[str, dict[int, str | None]], list[str]]:
    """The unreached lines of each module, each with the exemption that
    covers it or None, and the selectors of `EXEMPTIONS` that cover no
    unreached line."""
    reached = reached_lines()
    sources = {path.name: path.read_text(encoding="utf-8")
               for path in sorted(PACKAGE.glob("*.py"))}
    unreached = {name: dict.fromkeys(sorted(executable_lines(source, name)
                                            - reached.get(name, set())))
                 for name, source in sources.items()}
    stale = []
    for exemption, (_, selectors) in EXEMPTIONS.items():
        for module, function, construct in selectors:
            hits = [(name, line) for name, source in sources.items() if module in ("*", name)
                    for line in covered(source, function, construct) if line in unreached[name]]
            if not hits:
                stale.append(f"{exemption}: {(module, function, construct)}")
            for name, line in hits:
                unreached[name][line] = unreached[name][line] or exemption
    return unreached, stale


def report(unreached, stale, failures_only=False) -> list[str]:
    """The unreached lines by module, with their source and exemption, and
    the stale selectors; with `failures_only`, the lines no exemption covers."""
    out = []
    for name, lines in unreached.items():
        shown = [(line, why) for line, why in lines.items() if not (why and failures_only)]
        if shown:
            source = (PACKAGE / name).read_text(encoding="utf-8").splitlines()
            out.append(f"{name}: {len(lines)} unreached")
            out += [f"  {line:4d} {'exempt: ' + why if why else 'NOT EXEMPT':<35}"
                    f"| {source[line - 1]}" for line, why in shown]
    return out + [f"stale exemption {selector}" for selector in stale]


if __name__ == "__main__":
    unreached, stale = audit()
    print(*report(unreached, stale), sep="\n")
    failures = report(unreached, stale, failures_only=True)
    print(f"{sum(map(len, unreached.values()))} unreached lines, "
          f"{'failing' if failures else 'passing'}")
    sys.exit(1 if failures else 0)


def test_every_line_of_src_runs_for_some_command():
    assert len(EXEMPTIONS) <= 6  # a short list, each entry with its reason
    failures = report(*audit(), failures_only=True)
    assert not failures, "\n".join(failures)
