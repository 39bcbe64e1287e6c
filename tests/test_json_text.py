"""The JSON encoder of the command line against the stdlib's `json.dumps`.

`cli._json_text` writes every JSON output.  Its text must be that of
`json.dumps(value, ensure_ascii=False, indent=2, sort_keys=True)`, which
stays here as the oracle: on generated values, and on the whole output of
every command that prints JSON.
"""

import contextlib
import copy
import io
import json

import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings
from hypothesis import strategies as st

from bundleaut import cli, groupclass
from bundleaut.cli import build_report, main, parse_group_spec
from bundleaut.groupclass import enumerate_forms
from bundleaut.moduli import table_types


def dumps(value) -> str:
    return json.dumps(value, ensure_ascii=False, indent=2, sort_keys=True)


# text the reports print, and text that needs escaping: quotes, backslashes,
# control characters, and the line and paragraph separators
SAMPLE_TEXT = ["δ ∈ {0}", "δ ≠ 0", "Pic(C)[4] ⋊ (Z/2Z × Aut(C))", 'a "quoted" word',
               "back\\slash", "\x00\x08\t\n\x0c\r\x1b\x1f\x7f", "  ", "", " "]

texts = st.text() | st.sampled_from(SAMPLE_TEXT)
# negative ints and ints of thousands of digits, below the 4300 digits that
# `int` writes as text by default
ints = st.integers() | st.integers(-(10 ** 4000), 10 ** 4000)
leaves = st.none() | ints | texts


def containers(children):
    return (st.lists(children, max_size=4) | st.lists(children, max_size=4).map(tuple)
            | st.dictionaries(texts, children, max_size=4))


# what the documents hold: a container at the top level, and no bool
values = containers(st.recursive(leaves, containers, max_leaves=24))


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(values)
@example({})
@example([])
@example(())
@example({"": [[], {}, ()], "a": {"b": [None, -1, 10 ** 3999]}})
@example([{"a": 1, "b": "x"}, {"b": "x", "a": 1}, [{"a": 1}]])
def test_json_text_is_the_stdlib_text(value):
    assert cli._json_text(value) == dumps(value)


@pytest.mark.parametrize("value", [1.5, float("nan"), {1: "a"}, {"a": {None: 1}}, {1, 2},
                                   b"bytes", pytest.param([object()], id="[object()]"),
                                   True, False, "x", 1,
                                   [{"a": 1, "b": "x"}, {"a": True, "b": "x"}]],
                         ids=repr)
def test_json_text_rejects_other_types(value):
    with pytest.raises(TypeError):
        cli._json_text(value)


class Text(str):
    pass


EDITS = {
    "a changed value": lambda block, key: block.update({key: "edited"}),
    "an added key": lambda block, key: block.update({"added": 0}),
    "a list put in": lambda block, key: block.update({key: [block[key], None]}),
    "a bool for an equal int": lambda block, key: block.update({"rank": True}),
}


@pytest.mark.parametrize("edit", EDITS)
def test_edited_fixed_blocks_are_encoded_as_edited(edit):
    # `group`, `actions` and `provenance` are encoded once per contents, so
    # a caller's edit to them must show in the text, and must not change
    # the next report; PSL_2 has rank 1, which `True` equals, and a bool is
    # rejected rather than served the cached text of rank 1
    gf = parse_group_spec("PSL2")
    fresh = build_report(gf, (1,), 4).to_json()
    doc = build_report(gf, (1,), 4)
    for block in (doc.group, doc.actions, doc.provenance):
        EDITS[edit](block, min(block))
    if edit == "a bool for an equal int":
        with pytest.raises(TypeError):
            doc.to_json()
    else:
        assert doc.to_json() == dumps(copy.deepcopy(doc._asdict()))
    assert build_report(gf, (1,), 4).to_json() == fresh


def test_a_str_subclass_in_a_fixed_block_is_rejected():
    gf = parse_group_spec("PSL2")
    build_report(gf, (1,), 4).to_json()
    doc = build_report(gf, (1,), 4)
    doc.group["name"] = Text(doc.group["name"])
    with pytest.raises(TypeError):
        doc.to_json()


def run(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    return out.getvalue()


def json_commands():
    yield ["delta", "--profile", "4:0,3:1,2:2", "--format", "json"]
    for max_rank in (8, 12):
        yield ["table", "--format", "json", "--max-rank", str(max_rank)]
    for t in table_types(8):
        yield ["rootdata", "--type", t.name, "--format", "json"]
    for t in table_types(8):
        for gf in enumerate_forms(t):
            for cls in gf.delta_classes:
                for delta in cls:
                    yield ["report", "--group", gf.display_name, "--delta",
                           groupclass.render_element(delta), "--format", "json"]


def test_every_json_output_is_the_stdlib_text():
    commands = list(json_commands())
    assert len(commands) == 1 + 2 + 30 + 143
    for argv in commands:
        out = run(argv)
        assert out == dumps(json.loads(out)) + "\n", argv


def test_no_command_runs_the_pure_python_encoder(monkeypatch):
    # `json.dumps` with an indent builds its encoder with `_make_iterencode`,
    # which is pure Python; the commands must not go back to it
    def refuse(*args, **kwargs):
        raise AssertionError("json.dumps with an indent was called")

    monkeypatch.setattr(json.encoder, "_make_iterencode", refuse)
    for argv in (["report", "--group", "E7_ad", "--delta", "1", "--format", "json"],
                 ["table", "--format", "json", "--max-rank", "4"],
                 ["delta", "--profile", "4:0,3:1", "--format", "json"],
                 ["rootdata", "--type", "G2", "--format", "json"]):
        assert json.loads(run(argv))["schema"].startswith("bundleaut.")
