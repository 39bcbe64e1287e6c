"""CLI behaviors: parsing, formats, exit codes, round-trips, determinism."""

import ast
import contextlib
import copy
import inspect
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import bundleaut
from bundleaut import cli, finabel, groupclass, moduli, rootdata, weyl
from bundleaut.cli import (
    ReportDocument,
    UsageError,
    build_report,
    main,
    parse_delta,
    parse_group_spec,
    parse_profile,
)
from bundleaut.groupclass import enumerate_forms, form_by_name
from bundleaut.moduli import classification_table, table_types
from bundleaut.rootdata import DEFAULT_MAX_RANK, DynkinType

from test_acceptance import GOLDEN, _norm
from test_moduli import reference_actions, reference_presentation
from test_snapshot import OTHER_PYTHONS, PYENV_VERSIONS, snapshot_commands
import workloads


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("spec,name", [
    ("D4:adjoint", "PSO_8"),
    ("A1:sc", "SL_2"),
    ("a3:mu2", "SL_4/mu_2"),
    ("Spin8", "Spin_8"),
    ("Spin_10", "Spin_10"),
    ("Spin7", "Spin_7"),
    ("SO9", "SO_9"),
    ("PSL4", "PSL_4"),
    ("SL6/mu3", "SL_6/mu_3"),
    ("Sp6", "Sp_6"),
    ("PSp8", "PSp_8"),
    ("SemiSpin12", "SemiSpin_12"),
    ("PSO10", "PSO_10"),
    ("E6_sc", "E6_sc"),
    ("E8_sc", "E8"),
    ("E8_ad", "E8"),
    ("F4_sc", "F4"),
    ("G2_ad", "G2"),
    ("E7:adjoint", "E7_ad"),
    ("E8", "E8"),
    ("F4", "F4"),
    ("G2", "G2"),
    ("D4:semispin", "SO_8"),  # triality folds the semispin classes into SO_8
])
def test_parse_group_spec(spec, name):
    assert parse_group_spec(spec).display_name == name


@pytest.mark.parametrize("spec", [
    "Spin6", "H4", "A0", "SL1", "Sp7", "D4:mu2", "D5:semispin", "E6:so", "junk",
    "PSO9", "SemiSpin9", "SemiSpin10", "B3:semispin", "C3:so", "E6:mu1", "A3:mu5",
    "A3:mux", "D4:foo",
])
def test_parse_group_spec_rejects(spec):
    with pytest.raises(UsageError):
        parse_group_spec(spec)


def test_form_lookups_return_the_enumerated_records():
    # a form's invariants are built once, with the record; a lookup by name
    # must hand back that record, not a rebuilt equal one
    for t in table_types(8):
        forms = enumerate_forms(t)
        reached = set()
        for kind in ("sc", "adjoint", "so", "semispin",
                     *(f"mu{r}" for r in range(1, t.rank + 2))):
            try:
                gf = form_by_name(t, kind)
            except ValueError:
                continue
            assert any(gf is f for f in forms)
            reached.add(id(gf))
        assert reached == {id(f) for f in forms}
        for gf in forms:
            assert parse_group_spec(gf.display_name) is gf


def test_parse_delta():
    gf = parse_group_spec("D4:adjoint")
    assert parse_delta(None, gf) == (0, 0)
    assert parse_delta("1,0", gf) == (1, 0)
    assert parse_delta("(1,1)", gf) == (1, 1)
    assert parse_delta(" ( +1, 0 ) ", gf) == (1, 0)  # parts are signed integers
    assert parse_delta("-0,+1", gf) == (0, 1)
    with pytest.raises(UsageError):
        parse_delta("2,0", gf)
    sc = parse_group_spec("E8")
    assert parse_delta("0", sc) == ()
    assert parse_delta(None, sc) == ()


def test_parse_profile():
    assert parse_profile("4:0,3:1") == [(4, 0), (3, 1)]
    with pytest.raises(UsageError):
        parse_profile("4:")


def test_report_pso8(capsys):
    code, out, _ = run(capsys, "report", "--group", "D4:adjoint",
                       "--genus", "5", "--delta", "0,0")
    assert code == 0
    assert "S_3 × Aut(C)" in out
    assert "δ = (0,0) ∈ (Z/2Z)^2" in out


def test_report_sl2(capsys):
    code, out, _ = run(capsys, "report", "--group", "A1:sc", "--genus", "4",
                       "--delta", "0")
    assert code == 0
    assert "Pic(C)[2] ⋊ Aut(C)" in out


def test_report_g2_numerology(capsys):
    code, out, _ = run(capsys, "report", "--group", "G2", "--genus", "4")
    assert code == 0
    assert "weights = [2, 6]" in out
    assert "dim basis = 42" in out
    assert "m = 2" in out


def test_report_low_genus_warns(capsys):
    code, out, _ = run(capsys, "report", "--group", "A1:sc", "--genus", "2")
    assert code == 0
    assert "warning" in out
    assert "Aut =" not in out
    assert "dim basis = 3" in out  # 3g - 3 at g = 2
    code, _, err = run(capsys, "report", "--group", "A1:sc", "--genus", "1")
    assert code == 1
    assert "genus >= 2" in err
    assert "Traceback" not in err


def test_report_invalid_delta_lists_values(capsys):
    code, _, err = run(capsys, "report", "--group", "D4:adjoint", "--delta", "9,9")
    assert code == 1
    assert "valid values: (0,0), (0,1), (1,0), (1,1)" in err


@pytest.mark.parametrize("delta,label", [("5", "5"), ("1,0,1", "(1,0,1)"), ("", "()")])
def test_rejected_delta_is_printed_as_the_valid_values_are(capsys, delta, label):
    code, _, err = run(capsys, "report", "--group", "D4:adjoint", "--delta", delta)
    assert code == 1
    assert err == (f"error: delta {label} is not a label in pi_1(PSO_8) = (Z/2Z)^2; "
                   "valid values: (0,0), (0,1), (1,0), (1,1)\n")


@pytest.mark.parametrize("gf", [gf for t in table_types(8) for gf in enumerate_forms(t)],
                         ids=lambda gf: gf.display_name)
def test_listed_delta_values_parse_back(gf):
    """Every value the "valid values" list offers is itself a valid --delta."""
    with pytest.raises(UsageError) as info:
        parse_delta("0,0,0,0,0", gf)
    valid = str(info.value).partition("valid values: ")[2].split(", ")
    assert len(valid) == gf.pi1.order
    assert {parse_delta(text, gf) for text in valid} == set(gf.pi1.elements())


def test_report_json_round_trip(capsys):
    code, out, _ = run(capsys, "report", "--group", "Spin10", "--genus", "5",
                       "--format", "json")
    assert code == 0
    doc = ReportDocument.from_json(out)
    assert ReportDocument.from_json(doc.to_json()) == doc
    assert doc.group["name"] == "Spin_10"
    assert doc.presentation == "Pic(C)[4] ⋊ (Z/2Z × Aut(C))"
    assert doc.hitchin["weights"] == [2, 4, 5, 6, 8]


def _scribble(value):
    """Change every dict and list inside value in place."""
    if isinstance(value, dict):
        for v in value.values():
            _scribble(v)
        value["scribbled"] = True
    elif isinstance(value, list):
        for v in value:
            _scribble(v)
        value.append("scribbled")


def test_report_json_is_asdict_for_every_label():
    # the json of a report is a deep copy of the dict of its fields, which
    # shares no container with the document
    labels = 0
    for t in table_types(8):
        for gf in enumerate_forms(t):
            for cls in gf.delta_classes:
                for delta in cls:
                    labels += 1
                    doc = build_report(gf, delta, 4)
                    assert ReportDocument.from_json(doc.to_json()) == doc
                    d = copy.deepcopy(doc._asdict())
                    assert json.loads(doc.to_json()) == d
                    before = copy.deepcopy(doc)
                    _scribble(d)
                    assert doc == before
    assert labels == 143


@pytest.mark.parametrize("edit", [lambda d: d.update(extra=1), lambda d: d.pop("warnings")],
                         ids=["extra_key", "missing_key"])
def test_from_json_rejects_a_report_with_other_keys(edit):
    # `from_json` takes the fields by name, so a report with a key that is
    # no field, or without one of the fields, is a TypeError
    d = json.loads(build_report(parse_group_spec("E8"), (), 4).to_json())
    edit(d)
    with pytest.raises(TypeError):
        ReportDocument.from_json(json.dumps(d))


def reference_report(gf, delta, genus):
    """`build_report` as it was before the genus-free parts were cached:
    every part computed afresh on each call."""
    warnings = []
    presentation = None
    delta_class = None
    actions = {}
    if genus >= moduli.MIN_GENUS_PRESENTATION:
        presentation = reference_presentation(gf, tuple(delta))
        actions = reference_actions(gf, tuple(delta))
        cls = next(c for c in gf.delta_classes if tuple(delta) in c)
        delta_class = moduli.delta_class_label(gf, cls)
    else:
        warnings.append(
            "presentation requires genus >= 4; emitting Hitchin numerology only")
    return ReportDocument(
        schema="bundleaut.report/1",
        group={
            "family": gf.dynkin.label,
            "rank": gf.dynkin.rank,
            "name": gf.display_name,
            "isogeny_kernel_order": len(gf.mu.elements),
            "center_chars": gf.chars.structure.symbol(),
            "pi1": gf.pi1.symbol(),
            "out": gf.out.symbol(),
        },
        genus=genus,
        delta=list(delta),
        delta_class=delta_class,
        presentation=presentation,
        actions=actions,
        hitchin=moduli.hitchin_report(gf, genus),
        provenance=dict(cli._PROVENANCE),
        warnings=warnings,
    )


def rendered(doc, json_text):
    """The report in every format."""
    return json_text, cli.render_report_text(doc), cli.render_report_latex(doc)


def report_labels() -> list:
    """(form, delta) for every label of the table, on the cached forms."""
    return [(gf, delta) for t in table_types(8) for gf in enumerate_forms(t)
            for cls in gf.delta_classes for delta in cls]


REPORT_LABELS = report_labels()


def test_cached_report_matches_the_reference(fresh_caches):
    # genus by genus, so that each label is built cold once and then read
    # from the caches at the other genera; the reference's json is the
    # stdlib encoder's text of a deep copy of the dict of its fields
    assert len(REPORT_LABELS) == 143
    for genus in (2, 3, 4, 7, 10):
        for gf, delta in REPORT_LABELS:
            ref = reference_report(gf, delta, genus)
            doc = build_report(gf, delta, genus)
            assert doc == ref
            ref_json = json.dumps(copy.deepcopy(ref._asdict()), ensure_ascii=False, indent=2,
                                  sort_keys=True)
            assert rendered(doc, doc.to_json()) == rendered(ref, ref_json)
            assert ReportDocument.from_json(doc.to_json()) == doc


def test_report_shares_no_container_with_a_cache(fresh_caches):
    # every dict and list of a returned document is scribbled on, the
    # hitchin weights among them; the next report of the label is unchanged.
    # So are the numerology and the table rows that `moduli` hands out
    for genus in (2, 4, 7):
        for gf, delta in REPORT_LABELS:
            doc = build_report(gf, delta, genus)
            for field in ("group", "actions", "hitchin", "delta", "warnings", "provenance"):
                _scribble(getattr(doc, field))
            assert build_report(gf, delta, genus).to_json() == reference_report(
                gf, delta, genus).to_json()
            numerology = moduli.hitchin_report(gf, genus)
            before = copy.deepcopy(numerology)
            _scribble(numerology)
            assert moduli.hitchin_report(gf, genus) == before
    rows = classification_table(4, 8)
    before = copy.deepcopy(rows)
    _scribble(rows)
    assert classification_table(4, 8) == before


def test_components_are_built_on_first_use(fresh_caches, capsys):
    # a cold report builds the one component it prints, at any genus
    assert run(capsys, "report", "--group", "PSO8", "--delta", "0,1")[0] == 0
    assert moduli.component.cache_info().currsize == 1
    assert run(capsys, "report", "--group", "PSO8", "--delta", "0,1", "--genus", "9")[0] == 0
    assert moduli.component.cache_info()[:2] == (1, 1)  # (hits, misses)
    # a cold table builds the component of each of the 143 labels once, and
    # a report of any of them then reads it, given the form the table built:
    # one built before the caches were cleared holds subgroups of its own
    moduli.component.cache_clear()
    classification_table(4, 8)
    info = moduli.component.cache_info()
    assert (info.currsize, info.misses) == (143, 143)
    for gf, delta in report_labels():
        build_report(gf, delta, 4)
    after = moduli.component.cache_info()
    assert (after.misses, after.hits - info.hits) == (143, 143)


def test_report_latex(capsys):
    code, out, _ = run(capsys, "report", "--group", "E6:sc", "--genus", "4",
                       "--format", "latex")
    assert code == 0
    assert r"\rtimes" in out and r"\mathrm{Pic}(C)[3]" in out


def test_table_contains_all_rows(capsys):
    code, out, _ = run(capsys, "table")
    assert code == 0
    lines = [l for l in out.splitlines() if l.strip()]
    assert len(lines) == 83
    assert any("SemiSpin_16" in l for l in lines)


def test_table_max_rank_filters(capsys):
    code, out, _ = run(capsys, "table", "--max-rank", "2")
    assert code == 0
    families = {l.split("|")[0].strip() for l in out.splitlines() if l.strip()}
    assert families == {"A_1", "B_2", "G_2"}


@pytest.mark.parametrize("rank", ["1", "0", "-3"])
def test_table_max_rank_below_2_is_a_usage_error(capsys, rank):
    # A_1 = SL_2 is the smallest type, so a bound below 2 lists none
    code, out, err = run(capsys, "table", "--max-rank", rank)
    assert code == 1
    assert out == ""
    assert err == f"error: --max-rank must be at least 2, got {rank}\n"


TOO_LONG = "9" * 5000  # more digits than `int` reads from text
PAST_RANK_CEILINGS = [
    (["rootdata", "--type", "A81"], "type A81 is outside the supported ranks 1 to 80"),
    (["rootdata", "--type", "A99999999999999999999"],
     "type A99999999999999999999 is outside the supported ranks 1 to 80"),
    (["rootdata", "--type", "A" + TOO_LONG],
     "the rank of A has 5000 digits; the supported ranks are 1 to 80"),
    (["report", "--group", "D81:adjoint"],
     "group spec 'D81:adjoint': type D81 is outside the supported ranks 1 to 80"),
    (["report", "--group", "SL82"],
     "group spec 'SL82': type A81 is outside the supported ranks 1 to 80"),
    (["report", "--group", "Spin163"],
     "group spec 'Spin163': type B81 is outside the supported ranks 1 to 80"),
    (["report", "--group", "A99999999999999999999"],
     "group spec 'A99999999999999999999': type A99999999999999999999 is outside "
     "the supported ranks 1 to 80"),
    (["report", "--group", "B" + TOO_LONG],
     f"group spec 'B{TOO_LONG}': a number of 5000 digits; the supported ranks are 1 to 80"),
    (["table", "--max-rank", "51"], "--max-rank 51 is outside the supported range 2 to 50"),
    (["table", "--max-rank", "99999999999999999999"],
     "--max-rank 99999999999999999999 is outside the supported range 2 to 50"),
]


@pytest.mark.parametrize("argv,message", PAST_RANK_CEILINGS, ids=[
    "A81", "A_huge", "A_5000_digits", "D81_adjoint", "SL82", "Spin163", "group_A_huge",
    "group_B_5000_digits", "max_rank_51", "max_rank_huge"])
def test_rank_past_the_ceiling_is_a_usage_error(capsys, argv, message):
    # the ceilings are checked before anything is built for the rank, so a
    # rank too large for an index is a message too, not an OverflowError;
    # they are at least 30, the highest rank the numerology tests reach
    assert (rootdata.MAX_RANK, rootdata.MAX_TABLE_RANK) == (80, 50)
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (1, "", f"error: {message}\n")


# a genus and each number of a delta profile have at most 600 digits, far
# below the 4300 that `int` converts to and from text: a number of 4299
# digits is read, and products or sums of such numbers are not printable
AT_CEILING = "9" * 600
PAST_CEILING = "1" + "0" * 600
UNPRINTABLE = "9" * 4299


def ceiling_argvs(genus: str, entry: str, repeat: int = 1) -> list[list[str]]:
    """A report in text and json, a table and a delta profile at one number."""
    return [["report", "--group", "E8", "--genus", genus],
            ["report", "--group", "E8", "--genus", genus, "--format", "json"],
            ["table", "--genus", genus, "--max-rank", "2", "--format", "json"],
            ["delta", "--profile", ",".join([f"{entry}:1"] * repeat), "--format", "json"]]


def test_numbers_at_the_digit_ceilings_are_read(capsys):
    assert moduli.MAX_DIGITS == 600
    genus = int(AT_CEILING)
    report, report_json, table, delta = ceiling_argvs(AT_CEILING, AT_CEILING, repeat=30)
    code, out, _ = run(capsys, *report)
    assert code == 0 and f"dim basis = {248 * (genus - 1)} = dim G (g-1)" in out
    code, out, _ = run(capsys, *report_json)
    assert code == 0 and json.loads(out)["hitchin"]["dim_basis"] == 248 * (genus - 1)
    code, out, _ = run(capsys, *table)
    assert code == 0 and json.loads(out)["genus"] == genus
    code, out, _ = run(capsys, *delta)
    assert code == 0 and json.loads(out)["total"] == 30 * (genus - 1) // 2
    code, out, _ = run(capsys, "delta", "--profile", f"{AT_CEILING}:{AT_CEILING}")
    assert (code, out.splitlines()[-1]) == (0, "total delta = 0")


PAST_DIGIT_CEILINGS = [
    *((argv, message) for argv, message in zip(
        ceiling_argvs(PAST_CEILING, PAST_CEILING),
        ["--genus has 601 digits; at most 600 are supported"] * 3
        + ["a number of profile entry 1 has 601 digits; at most 600 are supported"])),
    (["report", "--group", "E8", "--genus", "-" + PAST_CEILING],
     "--genus has 601 digits; at most 600 are supported"),
    (["delta", "--profile", f"4:0,1:{PAST_CEILING}"],
     "a number of profile entry 2 has 601 digits; at most 600 are supported"),
]
# the inputs that once ended in a ValueError traceback: an entry `int` does
# not read, a total with more digits than `str` writes, and a report whose
# dim_basis has more digits than `str` writes
UNPRINTABLE_INPUTS = [
    (["delta", "--profile", f"{'9' * 5000}:1"],
     "a number of profile entry 1 has 5000 digits; at most 600 are supported"),
    (ceiling_argvs(UNPRINTABLE, UNPRINTABLE, repeat=30)[3],
     "a number of profile entry 1 has 4299 digits; at most 600 are supported"),
    (ceiling_argvs(UNPRINTABLE, UNPRINTABLE)[0],
     "--genus has 4299 digits; at most 600 are supported"),
    (ceiling_argvs(UNPRINTABLE, UNPRINTABLE)[1],
     "--genus has 4299 digits; at most 600 are supported"),
]
UNPRINTABLE_IDS = ["profile_5000_digits", "profile_total", "report_text", "report_json"]


@pytest.mark.parametrize("argv,message", PAST_DIGIT_CEILINGS + UNPRINTABLE_INPUTS,
                         ids=["report_genus", "report_json_genus", "table_genus", "profile_deg",
                              "report_negative_genus", "profile_drop", *UNPRINTABLE_IDS])
def test_number_past_its_digit_ceiling_is_a_usage_error(capsys, argv, message):
    assert moduli.MAX_DIGITS == 600
    assert run(capsys, *argv) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize("argv,message", UNPRINTABLE_INPUTS, ids=UNPRINTABLE_IDS)
def test_unprintable_numbers_exit_1_in_a_process(argv, message):
    assert moduli.MAX_DIGITS == 600
    proc = run_process("-m", "bundleaut.cli", *argv)
    assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", f"error: {message}\n")


# each part of a delta label has at most 600 digits too, checked before `int`
# reads it: at the ceiling a label is read as its number, past it the message
# names the part and its length, not its digits or `int`'s limit
DELTA_PARTS = [
    ("0" * 599 + "1", 0, ""),
    ("0" * 600 + "1", 1, "error: part 1 of --delta has 601 digits; at most 600 are supported\n"),
    ("9" * 4301, 1, "error: part 1 of --delta has 4301 digits; at most 600 are supported\n"),
    ("0,-" + "9" * 4301, 1,
     "error: part 2 of --delta has 4301 digits; at most 600 are supported\n"),
]


@pytest.mark.parametrize("in_process", [True, False], ids=["in_process", "process"])
@pytest.mark.parametrize("delta,code,err", DELTA_PARTS,
                         ids=["600_digits", "601_digits", "4301_digits", "second_part"])
def test_delta_part_digit_ceiling(capsys, in_process, delta, code, err):
    assert moduli.MAX_DIGITS == 600
    argv = ["report", "--group", "PSL2", "--delta", delta]
    if in_process:
        result = run(capsys, *argv)
    else:
        proc = run_process("-m", "bundleaut.cli", *argv)
        result = proc.returncode, proc.stdout, proc.stderr
    expected_out = run(capsys, "report", "--group", "PSL2", "--delta", "1")[1] if code == 0 else ""
    assert result == (code, expected_out, err)


def test_table_json_round_trips(capsys):
    code, out, _ = run(capsys, "table", "--max-rank", "3", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    rows = classification_table(genus=doc["genus"], max_rank=3)
    assert rows == doc["rows"]


def test_table_latex(capsys):
    code, out, _ = run(capsys, "table", "--max-rank", "2", "--format", "latex")
    assert code == 0
    assert r"\rtimes" in out
    assert r"$A_{1}$" in out


def test_table_determinism(capsys):
    _, first, _ = run(capsys, "table", "--max-rank", "4")
    _, second, _ = run(capsys, "table", "--max-rank", "4")
    assert first == second


def test_delta_breakdown(capsys):
    code, out, _ = run(capsys, "delta", "--profile", "4:0")
    assert code == 0
    assert "total delta = 2" in out
    code, out, _ = run(capsys, "delta", "--profile", "3:1,1:1")
    assert code == 0
    assert "total delta = 1" in out


def test_delta_parity_exit_code(capsys):
    code, _, err = run(capsys, "delta", "--profile", "3:0")
    assert code == 2
    assert "3" in err


def test_delta_json(capsys):
    code, out, _ = run(capsys, "delta", "--profile", "4:0,1:1", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["total"] == 2
    assert doc["points"][0] == {"deg": 4, "drop": 0, "delta": 2}


def test_rootdata_e6(capsys):
    code, out, _ = run(capsys, "rootdata", "--type", "E6")
    assert code == 0
    assert "72 roots" in out
    assert "[2, 5, 6, 8, 9, 12]" in out


def test_rootdata_a1(capsys):
    code, out, _ = run(capsys, "rootdata", "--type", "A1")
    assert code == 0
    assert "2 roots" in out
    assert "[2]" in out


def test_rootdata_d5_quotient(capsys):
    code, out, _ = run(capsys, "rootdata", "--type", "D5")
    assert code == 0
    assert "P/Q = Z/4Z" in out


def test_rootdata_json(capsys):
    code, out, _ = run(capsys, "rootdata", "--type", "G2", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["num_roots"] == 12
    assert doc["degrees"] == [2, 6]
    assert doc["weyl_order"] == 12


def test_rootdata_bad_type(capsys):
    code, _, err = run(capsys, "rootdata", "--type", "D3")
    assert code == 1


def test_rootdata_type_ignores_spaces(capsys):
    assert run(capsys, "rootdata", "--type", "E 8")[:2] == run(capsys, "rootdata", "--type", "E8")[:2]


def test_usage_error_exit_code(capsys):
    code, _, err = run(capsys, "report", "--group", "nonsense")
    assert code == 1
    assert "nonsense" in err


def run_process(*args, stdout=subprocess.PIPE, timeout=60):
    """Run `python <args>` with the package on the path, so an uncaught
    exception would reach stderr."""
    src = str(Path(bundleaut.__file__).resolve().parent.parent)
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, *args], stdout=stdout, stderr=subprocess.PIPE,
        text=True, timeout=timeout, env=dict(os.environ, PYTHONPATH=path))


@pytest.mark.parametrize("spec", ["SL4/mu0", "SL4mu0", "A3:mu0"])
def test_zero_order_mu_is_a_usage_error(spec):
    proc = run_process("-m", "bundleaut.cli", "report", "--group", spec)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: ")
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("name", ["A²", "E⁸", "D_⁵"])
def test_rootdata_non_decimal_rank_is_a_usage_error(name):
    proc = run_process("-m", "bundleaut.cli", "rootdata", "--type", name)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: ")
    assert "Traceback" not in proc.stderr


# `int` and `\d` read any Unicode decimal digit, and `int` an underscore
# between digit groups; the numbers of a group spec, a Dynkin type, a delta
# label and a delta profile are read in the ASCII digits 0-9 only
NON_ASCII_NUMBERS = [
    (["report", "--group", "E٨"], "cannot parse group spec 'E٨'"),
    (["report", "--group", "A٣:mu2"], "cannot parse group spec 'A٣:mu2'"),
    (["report", "--group", "E٨_ad"], "cannot parse group spec 'E٨_ad'"),
    (["report", "--group", "SL٤"], "cannot parse group spec 'SL٤'"),
    (["report", "--group", "SL4/mu٢"], "cannot parse group spec 'SL4/mu٢'"),
    (["report", "--group", "Spin١٠"], "cannot parse group spec 'Spin١٠'"),
    (["report", "--group", "A3:mu٢"],
     "group spec 'A3:mu٢': no form 'mu٢' of type A_3 (forms of A_3: SL_4, SL_4/mu_2, PSL_4)"),
    (["rootdata", "--type", "A٣"], "cannot parse Dynkin type from 'A٣'"),
    (["rootdata", "--type", "E_٨"], "cannot parse Dynkin type from 'E_٨'"),
    (["report", "--group", "A3:mu2", "--delta", "1_1"],
     "cannot parse delta '1_1': '1_1' is not an integer in the digits 0-9"),
    (["report", "--group", "A3:mu2", "--delta", "١"],
     "cannot parse delta '١': '١' is not an integer in the digits 0-9"),
    (["report", "--group", "D4:adjoint", "--delta", "(1, ٠)"],
     "cannot parse delta '(1, ٠)': ' ٠' is not an integer in the digits 0-9"),
    (["report", "--group", "D4:adjoint", "--delta", "1,x"],
     "cannot parse delta '1,x': invalid literal for int() with base 10: 'x'"),
    (["delta", "--profile", "٤:٠,3:1"], "profile entry '٤:٠' does not match <deg>:<drop>"),
    (["delta", "--profile", "4:0,3:١"], "profile entry '3:١' does not match <deg>:<drop>"),
]


@pytest.mark.parametrize("argv,message", NON_ASCII_NUMBERS, ids=lambda v: repr(v)[:40])
def test_numbers_are_read_in_ascii_digits(capsys, argv, message):
    assert run(capsys, *argv) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize("argv", [
    ("table", "--format", "json"),  # fills the pipe: print itself fails
    ("rootdata", "--type", "A1"),   # fits the buffer: the flush fails
])
def test_closed_stdout_exits_1_without_traceback(argv):
    # the read end is closed before the command starts, so every write to
    # stdout fails with EPIPE, whatever the timing
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = run_process("-m", "bundleaut.cli", *argv, stdout=write_end)
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert proc.stderr == ""


def test_table_under_optimize_matches_golden():
    # `python -O` drops assert statements; the cross-checks must not be them
    proc = run_process("-O", "-m", "bundleaut.cli", "table")
    assert proc.returncode == 0, proc.stderr
    assert_golden_table(proc.stdout)


def assert_golden_table(out):
    golden = [_norm(line) for line in GOLDEN.read_text(encoding="utf-8").splitlines()
              if line.strip()]
    assert [_norm(line) for line in out.splitlines()] == golden


def test_cached_parser_leaks_no_state(capsys):
    # main may run many times in one process; a call must behave as the
    # same argv run alone, whatever ran before it
    first = ["report", "--group", "E7_ad", "--genus", "7", "--format", "json",
             "--delta", "1"]
    sequence = [
        first,
        ["report", "--group", "A1"],
        ["report"],
        ["table", "--max-rank", "2"],
        ["rootdata", "--type", "G2", "--format", "json"],
        ["-h"],
        first,
    ]
    codes = []
    for argv in sequence:
        code = main(argv)  # -h returns 0 like any command, it does not exit
        out = capsys.readouterr().out
        alone = run_process("-m", "bundleaut.cli", *argv)
        assert (code, out) == (alone.returncode, alone.stdout), argv
        codes.append(code)
    assert codes == [0, 0, 1, 0, 0, 0, 0]
    # the command line is parsed without argparse: neither importing the
    # module nor running a command, help included, loads it
    proc = run_process("-c", "import sys; from bundleaut import cli; "
                             "assert 'argparse' not in sys.modules; "
                             "cli.main(['table', '-h']); "
                             "sys.exit('argparse' in sys.modules)")
    assert proc.returncode == 0, proc.stderr


def test_no_rational_arithmetic_is_imported():
    # the package computes in integers only: importing the CLI and running
    # rootdata, table and report load neither `fractions` nor `decimal`,
    # which `fractions` imports.  Its records are named tuples, so neither
    # loads `dataclasses`, nor `inspect`, which `dataclasses` imports
    script = ("import contextlib, io, sys\n"
              "from bundleaut import cli\n"
              "def loaded(step):\n"
              "    found = [m for m in ('fractions', 'decimal', 'dataclasses', 'inspect')\n"
              "             if m in sys.modules]\n"
              "    assert not found, (step, found)\n"
              "loaded('import')\n"
              "for argv in (['rootdata', '--type', 'E8'], ['table'], ['report', '--group', 'E8']):\n"
              "    with contextlib.redirect_stdout(io.StringIO()):\n"
              "        assert cli.main(argv) == 0, argv\n"
              "    loaded(argv)\n")
    proc = run_process("-c", script)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "", "")


# every command in every format, a delta label, -h, a negative number and a
# usage error, run in one process after `cli` is imported
EVERY_COMMAND = """\
import contextlib, io, sys
from bundleaut import cli
runs = [["table", "--format", f] for f in cli.VIEWS["table"]]
runs += [["report", "--group", g, "--format", f] for g in ("E8", "PSO_8") for f in cli.VIEWS["report"]]
runs += [["report", "--group", "PSO_8", "--delta", "1,1", "--format", f] for f in cli.VIEWS["report"]]
runs += [["rootdata", "--type", "E8", "--format", f] for f in cli.VIEWS["rootdata"]]
runs += [["delta", "--profile", "4:0,3:1", "--format", f] for f in cli.VIEWS["delta"]]
runs += [["table", "-h"], ["table", "--genus", "-3"], ["report", "--group", "X9"]]
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    codes = [cli.main(argv) for argv in runs]
assert codes == [0] * (len(runs) - 2) + [1, 1], codes
print(*sorted(m for m in ("re", "enum", "json", "json.decoder", "json.encoder") if m in sys.modules))
"""


@pytest.mark.parametrize("python", [
    Path(sys.executable), *(PYENV_VERSIONS / version / "bin" / "python" for version in OTHER_PYTHONS),
], ids=["this", *OTHER_PYTHONS])
def test_no_regex_enum_or_json_is_imported(python):
    # the grammars are read with `str` methods and strings are escaped by the
    # C `_json.encode_basestring`, so no command loads `re`, `enum` or `json`.
    # `_json` is private to CPython, hence every interpreter of the snapshot
    # test; `site` loads `re` and `enum` itself, hence -S
    if not python.exists():
        pytest.skip(f"no interpreter at {python}")
    src = str(Path(bundleaut.__file__).resolve().parent.parent)
    proc = subprocess.run([str(python), "-S", "-c", EVERY_COMMAND], capture_output=True,
                          text=True, timeout=300, env=dict(os.environ, PYTHONPATH=src))
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "\n", "")


# ---------------------------------------------------------------------------
# the option table against the argparse parser it replaced


def argparse_reference():
    """The argparse parser `cli` built before its option table, kept as the
    reference the table's parser is checked against, with no flag cut to a
    prefix (`allow_abbrev=False`), as the table takes none."""
    import argparse

    class Parser(argparse.ArgumentParser):
        def error(self, message):
            raise UsageError(message)

    parser = Parser(prog="bundleaut", allow_abbrev=False)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("report", help="invariants and automorphism presentation",
                       allow_abbrev=False)
    p.add_argument("--group", required=True, help="group spec, e.g. D4:adjoint or Spin8")
    p.add_argument("--genus", type=int, default=4)
    p.add_argument("--delta", default=None, help="component label, e.g. 0,0")
    p.add_argument("--format", choices=("text", "json", "latex"), default="text")
    p.set_defaults(func=cli.cmd_report)

    p = sub.add_parser("table", help="full classification table", allow_abbrev=False)
    p.add_argument("--genus", type=int, default=4)
    p.add_argument("--max-rank", type=int, default=DEFAULT_MAX_RANK, dest="max_rank")
    p.add_argument("--format", choices=("text", "json", "latex"), default="text")
    p.set_defaults(func=cli.cmd_table)

    p = sub.add_parser("delta", help="local invariant calculator", allow_abbrev=False)
    p.add_argument("--profile", required=True,
                   help="comma-separated <deg>:<drop> entries, e.g. 4:0,3:1")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cli.cmd_delta)

    p = sub.add_parser("rootdata", help="root system data dump", allow_abbrev=False)
    p.add_argument("--type", required=True, help="Dynkin type, e.g. E6")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cli.cmd_rootdata)

    return parser


REFERENCE = argparse_reference()


def reference_outcome(argv) -> tuple:
    """("ok", fields), ("help", command or None) or ("error",), as argparse
    parses argv."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            args = REFERENCE.parse_args(argv)
    except UsageError:
        return ("error",)
    except SystemExit:  # argparse prints -h and exits
        level = out.getvalue().split()[2]
        return ("help", level if level in cli.COMMANDS else None)
    return ("ok", vars(args))


def table_outcome(argv) -> tuple:
    """The same for `cli.parse_args`."""
    try:
        args = cli.parse_args(argv)
    except UsageError:
        return ("error",)
    if args.func is cli._show_help:
        return ("help", args.command)
    return ("ok", vars(args))


EDGE_ARGVS = [
    # (argv, outcome kind, for an error a token its message must name)
    (["report", "--group", "A1"], "ok", None),
    (["report", "--group=A1", "--genus=5", "--format=json", "--delta=1"], "ok", None),
    (["table", "--max", "3"], "error", "--max"),  # no prefix of a flag is the flag
    (["report", "--gr", "A1", "--ge=6", "--d", "1", "--f", "latex"], "error", "--group"),
    (["table", "--genus", "5", "--genus", "6"], "ok", None),  # the last one wins
    (["report", "--group", "A1", "--group", "B2"], "ok", None),
    (["table", "--genus", "-2"], "ok", None),  # a negative number is a value
    (["report", "--group", "A1", "--delta", "-1"], "ok", None),
    (["report", "--group", "-x y"], "ok", None),  # so is a word with a space
    (["report", "--group="], "ok", None),
    (["table", "--genus", " +5 "], "ok", None),  # int() decides what a number is
    (["table", "--genus", "٣"], "ok", None),
    (["table", "--genus", "1_0"], "ok", None),
    (["delta", "--profile", "4:0,3:1"], "ok", None),
    (["report"], "error", "--group"),
    (["rootdata", "--format", "json"], "error", "--type"),
    (["table", "--format", "xml"], "error", "xml"),
    (["rootdata", "--type", "E8", "--format", "latex"], "error", "latex"),
    (["report", "--group", "A1", "--genus", "four"], "error", "four"),
    (["table", "--max-rank", "2.5"], "error", "2.5"),
    (["table", "--genus="], "error", "--genus"),
    (["table", "--colour"], "error", "--colour"),
    (["-x", "table"], "error", "-x"),
    (["table", "extra"], "error", "extra"),
    (["rootdata", "E8", "--type", "E8"], "error", "E8"),
    (["table", "-5"], "error", "-5"),
    (["table", "--", "--genus", "3"], "error", "--"),
    (["report", "--g", "A1"], "error", "--g"),  # --group or --genus
    (["table", "--genus"], "error", "--genus"),
    (["table", "--genus", "--format", "json"], "error", "--genus"),
    (["table", "--genus", "-1e3"], "error", "--genus"),
    ([], "error", "command"),
    (["--"], "error", "--"),
    (["Table"], "error", "Table"),
    (["-hx"], "error", "-h"),
    (["--help=x"], "error", "--help"),
    (["table", "-h="], "error", "-h"),
    (["-h"], "help", None),
    (["--he"], "error", "--he"),
    (["-hh"], "error", "-hh"),  # no -h bundle
    (["-x", "-h", "table"], "error", "-x"),  # the first token is -h, --help or a command
    (["table", "-h"], "help", "table"),
    (["report", "--h"], "error", "--group"),
    (["report", "-h", "--group"], "help", "report"),  # -h before the error
    (["table", "--bogus", "extra", "-h"], "help", "table"),  # strays are reported last
    (["-x", "table", "-h"], "error", "-x"),
    (["table", "--genus", "x", "-h"], "error", "x"),  # the error before -h
    (["table", "-h", "--g=x"], "help", "table"),
    (["report", "-h", "--g=x"], "help", "report"),  # no token after -h is read
]

# the edge argv that argparse reads otherwise, and why
ARGPARSE_READS_OTHERWISE = {
    ("-hh",): "argparse splits -hh into -h -h; the grammar has no -h bundle",
    ("-x", "-h", "table"): "argparse sets the unknown -x aside and reads -h; the "
                           "grammar reads no option before the command",
    ("-x", "table", "-h"): "argparse sets the unknown -x aside and reads -h; the "
                           "grammar reads no option before the command",
}


@pytest.mark.parametrize("argv,kind,named", EDGE_ARGVS, ids=lambda v: repr(v)[:40])
def test_option_table_parses_edge_argv_as_argparse_did(capsys, argv, kind, named):
    outcome = table_outcome(argv)
    if tuple(argv) in ARGPARSE_READS_OTHERWISE:
        assert reference_outcome(argv)[0] == "help" != kind
    else:
        assert outcome == reference_outcome(argv)
    assert outcome[0] == kind
    if kind == "help":
        assert outcome[1] == named
        return
    if kind == "error":
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert named in err, err


def test_help_lists_every_option_of_the_table(capsys):
    assert main(["-h"]) == 0
    out = capsys.readouterr().out
    assert all(name in out for name in cli.COMMANDS)
    for name, (_, _, options) in cli.COMMANDS.items():
        assert main([name, "--help"]) == 0
        out = capsys.readouterr().out
        assert out.startswith(f"usage: bundleaut {name} [-h] ")
        assert all(f"{o.flag} {o.metavar}" in out for o in options)


README = Path(__file__).resolve().parent.parent / "README.md"


def readme_usage_argvs() -> list[list[str]]:
    """The argv of each `bundleaut ...` line of the README's usage block."""
    block = README.read_text(encoding="utf-8").split("## CLI\n\n```sh\n")[1].split("```")[0]
    return [line.split()[1:] for line in block.splitlines() if line.startswith("bundleaut ")]


def test_callers_give_every_option_by_its_exact_flag(capsys):
    # the benchmark's workloads, the snapshot and the README's usage lines
    # give each option as its whole flag and a value, so none reads a flag
    # cut to a prefix, a -h bundle or a token before the command
    usage = readme_usage_argvs()
    assert len(usage) == 8
    argvs = [argv for w in workloads.WORKLOADS for seed in (1, 2, 3)
             for argv in workloads.commands(w, seed)]
    for argv in [*argvs, *map(str.split, snapshot_commands()), *usage]:
        command, *rest = argv
        flags = {o.flag for o in cli.COMMANDS[command][2]}
        assert len(rest) % 2 == 0 and set(rest[::2]) <= flags, argv
    for argv in usage:
        assert main(argv) == 0, argv
    capsys.readouterr()


def test_attached_double_dash_is_a_value():
    # argparse strips a `--` even from `--opt=--`, which left an empty list
    # in the field and a traceback in the handler; the table keeps the text
    assert REFERENCE.parse_args(["report", "--group=--"]).group == []
    assert cli.parse_args(["report", "--group=--"]).group == "--"
    for argv in (["report", "--group=--"], ["report", "--group=A1", "--format=--"],
                 ["table", "--genus=--"]):
        proc = run_process("-m", "bundleaut.cli", *argv)
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: ") and "--" in proc.stderr
        assert "Traceback" not in proc.stderr


def test_python_m_bundleaut_prints_the_table():
    proc = run_process("-m", "bundleaut", "table")
    assert proc.returncode == 0, proc.stderr
    assert_golden_table(proc.stdout)


def test_failed_check_exits_3_under_optimize():
    script = (
        "import sys\n"
        "from bundleaut import cli, moduli\n"
        "moduli.riemann_roch_basis_dim = lambda *args: -1\n"
        "sys.exit(cli.main(['report', '--group', 'A2']))\n")
    proc = run_process("-O", "-c", script)
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert proc.stderr == ("internal consistency failure: "
                           "Riemann-Roch sum disagrees with dim G(g-1)\n")


# Out(PSL_3) = Z/2 swaps the labels 1 and 2 of pi_1 = Z/3, one delta class,
# and fixes neither; this replacement for `groupclass.out_stabilizer`, given
# as source so that it runs in process and under `python -O` alike, makes
# Out(G, 2) all of Out(G), so the class would print two presentations
UNEVEN_STABILIZER = ("lambda gf, delta, stabilizer=groupclass.out_stabilizer: "
                     "gf.out if (gf.display_name, tuple(delta)) == ('PSL_3', (2,)) "
                     "else stabilizer(gf, delta)")
NOT_CONSTANT = "internal consistency failure: presentation not constant on a class\n"


def test_presentation_not_constant_on_a_class_exits_3(capsys, monkeypatch, fresh_caches):
    monkeypatch.setattr(groupclass, "out_stabilizer", eval(UNEVEN_STABILIZER))
    assert run(capsys, "table") == (3, "", NOT_CONSTANT)


def test_presentation_check_exits_3_under_optimize():
    script = ("import sys\n"
              "from bundleaut import cli, groupclass\n"
              f"groupclass.out_stabilizer = {UNEVEN_STABILIZER}\n"
              "sys.exit(cli.main(['table']))\n")
    proc = run_process("-O", "-c", script)
    assert (proc.returncode, proc.stdout, proc.stderr) == (3, "", NOT_CONSTANT)


def test_riemann_roch_check_runs_on_a_warm_report(capsys, monkeypatch, fresh_caches):
    # the caches hold everything of A2's report but the numerology in the
    # genus, so a report at a new genus still runs the check
    assert run(capsys, "report", "--group", "A2", "--genus", "4")[0] == 0
    monkeypatch.setattr(moduli, "riemann_roch_basis_dim", lambda *args: -1)
    code, out, err = run(capsys, "report", "--group", "A2", "--genus", "6")
    assert (code, out) == (3, "")
    assert err == ("internal consistency failure: "
                   "Riemann-Roch sum disagrees with dim G(g-1)\n")


# Coxeter elements of A2 for the degree checks, as permutations of its six
# roots -a1-a2, -a1, -a2, a2, a1, a1+a2; a true one has two orbits of h = 3
ONE_ORBIT = (5, 2, 4, 1, 0, 3)
OFF_ORDER = (5, 2, 3, 1, 0, 4)  # tr(c) = -1 and c^3 = 1 need tr(c^2) = -1, not 0
NILPOTENT = (4, 5, 0, 1, 2, 3)  # tr(c) = tr(c^2) = 0 and tr(c^3) = 2 leave x^3 - 1 2/3 times
# orbits of length h, but traces no Coxeter element of A2 has
TRACE_FAULTS = [
    (OFF_ORDER, "a Coxeter element of A2 has tr(c^2) = 0, not -1 as c^3 = 1 requires"),
    (NILPOTENT, "the traces of a Coxeter element of A2 give x^3 - 1 the multiplicity 2/3, "
                "not an integer"),
]


def degrees_exit(capsys, monkeypatch, name, patch):
    """Exit code, stdout and stderr of `rootdata --type A2` with one weyl
    helper patched; the callers request `fresh_caches`."""
    monkeypatch.setattr(weyl, name, patch)
    return run(capsys, "rootdata", "--type", "A2")


def test_coxeter_orbit_of_wrong_length_exits_3(capsys, monkeypatch, fresh_caches):
    # h is read off the orbits of c on the roots, and every orbit must have
    # length |Phi|/r, so a broken Coxeter element fails a check in main
    code, out, err = degrees_exit(capsys, monkeypatch, "_root_permutations",
                                  lambda t: (ONE_ORBIT, tuple(range(6))))
    assert code == 3
    assert out == ""
    assert err == ("internal consistency failure: a Coxeter element of A2 has "
                   "orbits of lengths [6] on the roots, not 2 of length |Phi|/r = 3\n")


@pytest.mark.parametrize("c,message", TRACE_FAULTS, ids=["off_order", "nilpotent"])
def test_coxeter_traces_off_a_weyl_group_exit_3(capsys, monkeypatch, fresh_caches, c, message):
    code, out, err = degrees_exit(capsys, monkeypatch, "_root_permutations",
                                  lambda t: (c, tuple(range(6))))
    assert (code, out, err) == (3, "", f"internal consistency failure: {message}\n")


def test_degree_routes_disagreeing_exits_3(capsys, monkeypatch, fresh_caches):
    # one extra root of height 3 moves the dual partition of the height
    # counts off the degrees from the Coxeter element
    heights = weyl._heights
    code, out, err = degrees_exit(capsys, monkeypatch, "_heights", lambda t: heights(t) + [3])
    assert code == 3
    assert out == ""
    assert err == ("internal consistency failure: the degrees [2, 3] of A2 from a "
                   "Coxeter element are not [2, 4] from the root heights\n")


# (h, multiplicity of each cyclotomic) that no Coxeter element of A2 has,
# for the checks `invariant_degrees` makes of `_coxeter_cyclotomics`
CYCLOTOMIC_FAULTS = [
    ((3, {1: 0, 3: -1}), "characteristic polynomial is not a product of cyclotomics"),
    ((3, {1: 1, 3: 1}), "a Coxeter element fixes no nonzero vector"),
    ((3, {1: 0, 3: 2}), "4 exponents for rank 2"),
]
CYCLOTOMIC_IDS = ["not_cyclotomic", "fixed_vector", "exponent_count"]


@pytest.mark.parametrize("cyclotomics,message", CYCLOTOMIC_FAULTS, ids=CYCLOTOMIC_IDS)
def test_cyclotomic_checks_exit_3(capsys, monkeypatch, fresh_caches, cyclotomics, message):
    code, out, err = degrees_exit(capsys, monkeypatch, "_coxeter_cyclotomics",
                                  lambda t: cyclotomics)
    assert (code, out, err) == (3, "", f"internal consistency failure: {message}\n")


@pytest.mark.parametrize("patch,message", [
    (f"weyl._root_permutations = lambda t: ({ONE_ORBIT}, tuple(range(6)))",
     "a Coxeter element of A2 has orbits of lengths [6] on the roots, "
     "not 2 of length |Phi|/r = 3"),
    ("heights = weyl._heights\nweyl._heights = lambda t: heights(t) + [3]",
     "the degrees [2, 3] of A2 from a Coxeter element are not [2, 4] from the root heights"),
    *((f"weyl._root_permutations = lambda t: ({c}, tuple(range(6)))", message)
      for c, message in TRACE_FAULTS),
    ("weyl.invariant_degrees = lambda t: (2, 4)",
     "|W| = 6 is not the product of the degrees [2, 4]"),
    *((f"weyl._coxeter_cyclotomics = lambda t: {c}", message)
      for c, message in CYCLOTOMIC_FAULTS),
], ids=["orbit", "routes", "traces", "nilpotent", "order", *CYCLOTOMIC_IDS])
def test_degree_checks_exit_3_under_optimize(patch, message):
    script = ("import sys\n"
              "from bundleaut import cli, weyl\n"
              f"{patch}\n"
              "sys.exit(cli.main(['rootdata', '--type', 'A2']))\n")
    proc = run_process("-O", "-c", script)
    assert (proc.returncode, proc.stdout) == (3, "")
    assert proc.stderr == f"internal consistency failure: {message}\n"


def test_weyl_order_off_the_degree_product_exits_3(capsys, monkeypatch, fresh_caches):
    # |W| = r! n_1 ... n_r f, from the highest root, whose coefficients 1
    # also give the connection index f, is checked against the product of the invariant degrees, here made 8
    # instead of 6
    monkeypatch.setattr(weyl, "invariant_degrees", lambda t: (2, 4))
    code, out, err = run(capsys, "rootdata", "--type", "A2")
    assert code == 3
    assert out == ""
    assert err == ("internal consistency failure: "
                   "|W| = 6 is not the product of the degrees [2, 4]\n")


def with_pairings(name, root, pairings):
    """A patch of `weyl.build_root_datum`, as source: the root datum of the
    type with the pairings of one positive root replaced."""
    return (f"lambda t, rd=weyl.build_root_datum(DynkinType.parse({name!r})): "
            "rd._replace(pairings=tuple("
            f"{pairings!r} if root == {root!r} else p "
            "for root, p in zip(rd.roots[len(rd.roots) // 2:], rd.pairings)))")


# the checks of `weyl.orbit_counts`, in the order they run.  A positive root
# with no nonzero pairing is a check, not a ValueError from `min`: G2 with
# the pairings {0: 1} of 2a1 + a2 dropped.  B3 with the pairings {0: 2, 1: -1}
# of alpha_1 made nonnegative has a third dominant root.  A2 with those of
# alpha_2 made {0: -1, 1: -1} has a simple root off its column of the Cartan
# matrix.  Every climb to a dominant root must end at one: G2 with the
# pairings {0: -1, 1: 1} of a1 + a2 made {0: -1} leaves a climb stuck at
# -(a1 + a2), and G2 with those {0: 3, 1: -1} of 3a1 + a2 made
# {0: -1, 1: -1} one at -(3a1 + a2).  The climbs are bounded by |Phi|
# steps: A3 with the pairings {0: -1, 1: 1, 2: 1} of a2 + a3 made
# {0: -1, 1: -3, 2: 1} reaches the bound.  The swap and the sign change
# must send each ordered-pair representative to one that they send back:
# A2 with the pairings {0: 1, 1: 1} of theta made {1: 1} has one that sends
# the pair (theta, -alpha_2) to one, (theta, alpha_1), that it does not send back
ORBIT_COUNT_FAULTS = [
    ("G2", (2, 1), {}, "a positive root of G2 pairs to zero with every simple coroot"),
    ("B3", (1, 0, 0), {0: 2, 1: 1},
     "B3 has 3 dominant roots, not one for each of its 2 root lengths"),
    ("A2", (0, 1), {0: -1, 1: -1},
     "the pairings of the simple root [0, 1] of A2 are not its column of the Cartan matrix"),
    ("G2", (1, 1), {0: -1}, "a climb in the roots of G2 stops off its dominant roots"),
    ("G2", (3, 1), {0: -1, 1: -1}, "a climb in the roots of G2 stops off its dominant roots"),
    ("A3", (0, 1, 1), {0: -1, 1: -3, 2: 1},
     "a climb to a chamber in the roots of A3 takes more than |Phi| = 12 steps"),
    ("A2", (1, 1), {1: 1}, "a swap or sign change of a pair of roots of A2 is not an "
     "involution on the ordered-pair representatives"),
]
ORBIT_COUNT_IDS = ["zero_pairings", "dominant_roots", "simple_root_column", "stuck_climb",
                   "endless_climb", "climb_bound", "pair_involution"]


def orbit_count_exit(capsys, monkeypatch, fault):
    """`rootdata` of the fault's type with its pairings patched, and the
    exit the fault's check should give; the callers request `fresh_caches`."""
    name, root, pairings, message = fault
    monkeypatch.setattr(weyl, "build_root_datum", eval(with_pairings(name, root, pairings)))
    return (run(capsys, "rootdata", "--type", name),
            (3, "", f"internal consistency failure: {message}\n"))


def test_root_pairing_to_zero_exits_3(capsys, monkeypatch, fresh_caches):
    got, expected = orbit_count_exit(capsys, monkeypatch, ORBIT_COUNT_FAULTS[0])
    assert got == expected


def test_root_orbits_off_the_dominant_roots_exit_3(capsys, monkeypatch, fresh_caches):
    got, expected = orbit_count_exit(capsys, monkeypatch, ORBIT_COUNT_FAULTS[1])
    assert got == expected


def test_simple_root_off_its_cartan_column_exits_3(capsys, monkeypatch, fresh_caches):
    got, expected = orbit_count_exit(capsys, monkeypatch, ORBIT_COUNT_FAULTS[2])
    assert got == expected


@pytest.mark.parametrize("fault", ORBIT_COUNT_FAULTS[3:6], ids=ORBIT_COUNT_IDS[3:6])
def test_walks_off_the_reflections_exit_3(capsys, monkeypatch, fresh_caches, fault):
    # pairings that disagree with the reflections end a walk in a check, not
    # in StopIteration or an endless loop
    got, expected = orbit_count_exit(capsys, monkeypatch, fault)
    assert got == expected


def test_hyperplane_pair_moves_off_the_representatives_exit_3(capsys, monkeypatch,
                                                              fresh_caches):
    got, expected = orbit_count_exit(capsys, monkeypatch, ORBIT_COUNT_FAULTS[6])
    assert got == expected


@pytest.mark.parametrize("name,root,pairings,message", ORBIT_COUNT_FAULTS, ids=ORBIT_COUNT_IDS)
def test_orbit_count_checks_exit_3_under_optimize(name, root, pairings, message):
    script = ("import sys\n"
              "from bundleaut import cli, weyl\n"
              "from bundleaut.rootdata import DynkinType\n"
              f"weyl.build_root_datum = {with_pairings(name, root, pairings)}\n"
              f"sys.exit(cli.main(['rootdata', '--type', {name!r}]))\n")
    proc = run_process("-O", "-c", script)
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        3, "", f"internal consistency failure: {message}\n")


# an actor that collapses the group, as source so that it runs in process
# and under `python -O` alike, fails a check inside main
COLLAPSING_APPLY = "lambda self, name, x: self.group.zero()"
NOT_INVERTIBLE = "internal consistency failure: actor 'e' is not invertible\n"


def test_non_invertible_actor_exits_3(capsys, monkeypatch, fresh_caches):
    monkeypatch.setattr(finabel.AbelianAction, "apply", eval(COLLAPSING_APPLY))
    assert run(capsys, "report", "--group", "D4:adjoint") == (3, "", NOT_INVERTIBLE)


def test_non_invertible_actor_exits_3_under_optimize():
    script = ("import sys\n"
              "from bundleaut import cli, finabel\n"
              f"finabel.AbelianAction.apply = {COLLAPSING_APPLY}\n"
              "sys.exit(cli.main(['report', '--group', 'D4:adjoint']))\n")
    proc = run_process("-O", "-c", script)
    assert (proc.returncode, proc.stdout, proc.stderr) == (3, "", NOT_INVERTIBLE)


# pi_1 of PSL_3 against the dual of its characters when all of P/Q is taken
# to annihilate mu = Z(SL_3), as a zero pairing would make it: then
# (P/Q)/mu^perp is trivial.  A zero `pairing` itself fails the earlier check
# that Out(G^sc) preserves the pairing (GROUP_FAULTS["zero_pairing"]).
PI1_NOT_DUAL = "pi_1(PSL_3) = Z/3Z is not (P/Q)/Hom(Z(G), G_m) = {0}, its dual"
WHOLE_ANNIHILATOR = ("lambda lat, mu: finabel.Subgroup.from_elements(lat.chars.group, "
                     "lat.chars.group.elements())")


def test_pairing_off_the_pi1_duality_exits_3(capsys, monkeypatch, fresh_caches):
    monkeypatch.setattr(groupclass, "_annihilator", eval(WHOLE_ANNIHILATOR))
    code, out, err = run(capsys, "report", "--group", "A2:adjoint")
    assert (code, out, err) == (3, "", f"internal consistency failure: {PI1_NOT_DUAL}\n")


def test_pi1_duality_check_exits_3_under_optimize():
    script = ("import sys\n"
              "from bundleaut import cli, finabel, groupclass\n"
              f"groupclass._annihilator = {WHOLE_ANNIHILATOR}\n"
              "sys.exit(cli.main(['report', '--group', 'A2:adjoint']))\n")
    proc = run_process("-O", "-c", script)
    assert (proc.returncode, proc.stdout) == (3, "")
    assert proc.stderr == f"internal consistency failure: {PI1_NOT_DUAL}\n"


# Faults for the checks on the Cartan matrix, each a replacement for one
# module attribute, given as source so that it runs in process and under
# `python -O` alike: the module, the attribute, the new value, the command
# and the message.  The diagram faults replace the bond table `_diagram`.
CARTAN_FAULTS = {
    # a bond from a node to itself overwrites (alpha_2, alpha_2) with -1
    "diagonal": ("rootdata", "_diagram", "lambda t: ([2, 2], [(0, 1), (1, 1)])",
                 ["rootdata", "--type", "A2"], "Cartan diagonal entry is not 2"),
    # a bond between roots whose squared lengths differ fourfold gives -4
    "off_diagonal": ("rootdata", "_diagram", "lambda t: ([2, 8], [(0, 1)])",
                     ["rootdata", "--type", "A2"],
                     "Cartan entry off the diagonal is not 0, -1, -2 or -3"),
    # a bond between roots of squared lengths 4 and 6 gives 2 (-3) / 4
    "non_integral": ("rootdata", "_diagram", "lambda t: ([4, 6], [(0, 1)])",
                     ["rootdata", "--type", "A2"], "Cartan entry is not an integer"),
    # G2 without its bond is A1 x A1, with a valid Cartan matrix
    "not_connected": ("rootdata", "_diagram", "lambda t: ([2, 6], [])",
                      ["report", "--group", "G2"], "the Dynkin diagram is not connected"),
    # D5 with nodes 1 and 5 numbered the other way round: the lift omega_5 of
    # the centre Z/4Z is then omega_1, the vector class, of order 2
    "relabelled_lifts": ("rootdata", "_diagram",
                         "lambda t, diagram=rootdata._diagram: "
                         "(diagram(t)[0], [tuple((4, 1, 2, 3, 0)[i] for i in bond) "
                         "for bond in diagram(t)[1]]) if t == ('D', 5) else diagram(t)",
                         ["report", "--group", "D5"],
                         "lifts do not generate independent classes"),
    # 2 (alpha_1, alpha_2) / (alpha_2, alpha_2) = -8/20 is not an integer
    "ambient_inexact": ("cli", "ambient_simple_roots",
                        "lambda t: (3, ((2, -2, 0), (0, 2, -4)))",
                        ["rootdata", "--type", "A2"],
                        "the ambient simple roots of A2 do not give the Cartan matrix "
                        "of its Dynkin diagram"),
    # orthogonal simple roots: the divisions are exact, the matrix is A1 x A1
    "ambient_other_matrix": ("cli", "ambient_simple_roots",
                             "lambda t: (3, ((2, -2, 0), (0, 0, 2)))",
                             ["rootdata", "--type", "A2"],
                             "the ambient simple roots of A2 do not give the Cartan matrix "
                             "of its Dynkin diagram"),
    # a zero simple root passes 2 (a, a) = 2 (a, a) and is caught by its
    # norm alone; in a higher rank its neighbours' rows already fail
    "ambient_zero_root": ("cli", "ambient_simple_roots", "lambda t: (2, ((0, 0),))",
                          ["rootdata", "--type", "A1"],
                          "the ambient simple roots of A1 do not give the Cartan matrix "
                          "of its Dynkin diagram"),
}


@pytest.mark.parametrize("fault", CARTAN_FAULTS)
def test_cartan_checks_exit_3(capsys, monkeypatch, fresh_caches, fault):
    module, attr, value, argv, message = CARTAN_FAULTS[fault]
    monkeypatch.setattr({"cli": cli, "rootdata": rootdata}[module], attr, eval(value))
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (3, "", f"internal consistency failure: {message}\n")


@pytest.mark.parametrize("fault", CARTAN_FAULTS)
def test_cartan_checks_exit_3_under_optimize(fault):
    module, attr, value, argv, message = CARTAN_FAULTS[fault]
    script = ("import sys\n"
              "from bundleaut import cli, rootdata\n"
              f"{module}.{attr} = {value}\n"
              f"sys.exit(cli.main({argv!r}))\n")
    proc = run_process("-O", "-c", script)
    assert (proc.returncode, proc.stdout) == (3, "")
    assert proc.stderr == f"internal consistency failure: {message}\n"


# Faults for the checks on Out(G) and on subgroups, in the same form as
# CARTAN_FAULTS.  Each replacement wraps the function it replaces, taken as
# a default argument when the replacement is made.
GROUP_FAULTS = {
    # an automorphism search that also keeps the 3-cycle of the nodes of A3,
    # which is no automorphism of its diagram: Out(SL_4) would have order 3
    "out_order": ("groupclass", "_cartan_automorphisms",
                  "lambda cartan, search=groupclass._cartan_automorphisms: "
                  "search(cartan) + [(1, 2, 0)]",
                  ["report", "--group", "A3"], "unexpected outer group order 3"),
    # Hom(Z(SO_8), G_m) made the class of omega_3 in P/Q = (Z/2Z)^2 instead of
    # omega_1 = omega_3 + omega_4: its quotient is still dual to pi_1 = Z/2Z,
    # but the swap of nodes 3 and 4, which Out(SO_8) holds, moves it
    "out_preserves": ("groupclass", "_annihilator",
                      "lambda lat, mu, annihilator=groupclass._annihilator: "
                      "finabel.Subgroup.from_elements(lat.chars.group, [(0, 0), (1, 0)]) "
                      "if len(mu.elements) == 2 else annihilator(lat, mu)",
                      ["report", "--group", "SO8"],
                      "outer element (3 4) does not preserve the subgroup"),
    # a basis of the sublattice twice too long: in Z/4Z the element 2 of the
    # subgroup {0, 2} gets the coordinates of 0
    "subgroup_coordinates": ("finabel", "sublattice_quotient",
                             "lambda rows, sub_rows, smith, "
                             "quotient=finabel.sublattice_quotient: "
                             "(lambda q, basis: (q, [[2 * a for a in row] for row in basis]))"
                             "(*quotient(rows, sub_rows, smith))",
                             ["report", "--group", "A3:mu2"],
                             "subgroup coordinates do not match its elements"),
    # the class 3 of P/Q = Z/4Z put into every annihilator, as a pairing
    # that is not bilinear, zero at 3, would give: the annihilator of
    # mu_2 = {0, 2} would be {0, 2, 3}, which is no subgroup, and the
    # coordinates of the subgroup it generates list all of Z/4Z
    "generators_span": ("groupclass", "_annihilator",
                        "lambda lat, mu, annihilator=groupclass._annihilator: "
                        "finabel.Subgroup.from_elements(lat.chars.group, "
                        "[*annihilator(lat, mu).elements, (3,)])",
                        ["report", "--group", "PSL4"],
                        "subgroup coordinates do not match its elements"),
    # a pairing made zero: `type_lattices` reads the generators' pairings
    # back through `pairing`, and the identity of Out(SL_3) already fails
    "zero_pairing": ("groupclass", "pairing", "lambda *args: 0",
                     ["report", "--group", "A2:adjoint"],
                     "outer element e does not preserve the pairing"),
    # Out(Spin_16) acting trivially on P/Q while it still swaps the two spin
    # classes of the centre: the swap (7 8) would then carry the pairing of
    # omega_7 with omega_8^vee, 1/2, onto that of omega_7 with omega_7^vee, 0
    "out_pairing": ("groupclass", "TypeLattices",
                    "lambda cls=groupclass.TypeLattices, **f: cls(**{**f, 'chars_action': "
                    "finabel.AbelianAction(f['chars_action'].group, dict.fromkeys("
                    "f['chars_action'].actors, f['chars_action'].actors['e']))})",
                    ["report", "--group", "D8"],
                    "outer element (7 8) does not preserve the pairing"),
}


@pytest.mark.parametrize("fault", GROUP_FAULTS)
def test_group_checks_exit_3(capsys, monkeypatch, fresh_caches, fault):
    module, attr, value, argv, message = GROUP_FAULTS[fault]
    monkeypatch.setattr({"finabel": finabel, "groupclass": groupclass}[module], attr,
                        eval(value))
    assert run(capsys, *argv) == (3, "", f"internal consistency failure: {message}\n")


@pytest.mark.parametrize("fault", GROUP_FAULTS)
def test_group_checks_exit_3_under_optimize(fault):
    module, attr, value, argv, message = GROUP_FAULTS[fault]
    script = ("import sys\n"
              "from bundleaut import cli, finabel, groupclass\n"
              f"{module}.{attr} = {value}\n"
              f"sys.exit(cli.main({argv!r}))\n")
    proc = run_process("-O", "-c", script)
    assert (proc.returncode, proc.stdout) == (3, "")
    assert proc.stderr == f"internal consistency failure: {message}\n"


# Single-operator faults in `smith_normal_form`'s loop, each of which made
# every command loop for ever before each pass had to shrink the pivot: the
# operator, its occurrence in the function's source, counted in source
# order, the operator put in its place, the expression the edit makes, and
# the failed check's message on `report --group PSO_8 --delta 1,1`.
SMITH_FAULTS = {
    "pivot_column": ("NotEq", 3, "Eq", "pivot[1] == t", "step 1", 1),
    "row_op_sign": ("Sub", 1, "Add", "a + q * b", "step 1", 1),
    "row_quotient": ("FloorDiv", 1, "Mult", "s[i][t] * s[t][t]", "step 3", 2),
    "column_quotient": ("FloorDiv", 2, "Mult", "s[t][j] * s[t][t]", "step 3", 2),
}


def smith_fault_source(op, occurrence, new, expression) -> str:
    """The source of `smith_normal_form` with the given occurrence of the
    operator `op`, among its operations and one-operator comparisons in
    source order, made `new`."""
    tree = ast.parse(inspect.getsource(finabel.smith_normal_form))
    sites = sorted((node for node in ast.walk(tree)
                    if type(getattr(node, "op", None)).__name__ == op
                    or [type(o).__name__ for o in getattr(node, "ops", ())] == [op]),
                   key=lambda node: (node.lineno, node.col_offset))
    site = sites[occurrence - 1]
    if isinstance(site, ast.Compare):
        site.ops = [getattr(ast, new)()]
    else:
        site.op = getattr(ast, new)()
    assert ast.unparse(site) == expression
    return ast.unparse(tree)


@pytest.mark.parametrize("flags", [(), ("-O",)], ids=["plain", "optimize"])
@pytest.mark.parametrize("fault", SMITH_FAULTS)
def test_smith_faults_exit_3(fault, flags):
    # in a child with a timeout, as a regression of the check would hang
    *edit, step, pivot = SMITH_FAULTS[fault]
    script = ("import sys\n"
              "from bundleaut import cli, finabel, groupclass\n"
              f"exec({smith_fault_source(*edit)!r}, vars(finabel))\n"
              "groupclass.smith_normal_form = finabel.smith_normal_form\n"
              "sys.exit(cli.main(['report', '--group', 'PSO_8', '--delta', '1,1']))\n")
    proc = run_process(*flags, "-c", script, timeout=30)
    assert (proc.returncode, proc.stdout) == (3, "")
    assert proc.stderr == (f"internal consistency failure: {step} of a Smith form does not "
                           f"shrink its pivot {pivot}\n")


# ((2, -3), (-3, 2)) is a generalized Cartan matrix of hyperbolic type: the
# closure of its simple roots under the reflections never ends
ROOT_CLOSURE_PAST_BOUND = ("the root closure of A2 holds more than "
                           "2r^2 + 240 = 248 roots")


@pytest.mark.parametrize("flags", [(), ("-O",)], ids=["plain", "optimize"])
def test_root_closure_past_its_bound_exits_3(flags):
    # the child limits its own address space, so that a closure without the
    # bound fails here with a MemoryError or the timeout instead of filling
    # the machine's memory
    script = ("import resource, sys\n"
              "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
              "from bundleaut import cli, rootdata\n"
              "rootdata.cartan_matrix = lambda t: ((2, -3), (-3, 2))\n"
              "sys.exit(cli.main(['rootdata', '--type', 'A2']))\n")
    proc = run_process(*flags, "-c", script, timeout=20)
    assert (proc.returncode, proc.stdout) == (3, "")
    assert proc.stderr == f"internal consistency failure: {ROOT_CLOSURE_PAST_BOUND}\n"
