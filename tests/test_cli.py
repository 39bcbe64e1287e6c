"""CLI behaviors: parsing, formats, exit codes, round-trips, determinism."""

import copy
import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import bundleaut
from bundleaut import cli, finabel, weyl
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

from test_acceptance import GOLDEN, _norm


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
    assert "(1, 1)" in err


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


def test_report_to_dict_is_asdict_for_every_label():
    # to_dict copies the containers itself instead of calling asdict; the
    # result must be the same, and as independent of the document
    labels = 0
    for t in table_types(8):
        for gf in enumerate_forms(t):
            for cls in gf.delta_classes:
                for delta in cls:
                    labels += 1
                    doc = build_report(gf, delta, 4)
                    assert ReportDocument.from_json(doc.to_json()) == doc
                    d = doc.to_dict()
                    assert d == dataclasses.asdict(doc)
                    before = copy.deepcopy(doc)
                    _scribble(d)
                    assert doc == before
    assert labels == 143


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


def test_table_json_round_trips(capsys):
    code, out, _ = run(capsys, "table", "--max-rank", "3", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    rows = classification_table(genus=doc["genus"], max_rank=3)
    assert [r.as_dict() for r in rows] == doc["rows"]


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


def test_usage_error_exit_code(capsys):
    code, _, err = run(capsys, "report", "--group", "nonsense")
    assert code == 1
    assert "nonsense" in err


def run_process(*args, stdout=subprocess.PIPE):
    """Run `python <args>` with the package on the path, so an uncaught
    exception would reach stderr."""
    src = str(Path(bundleaut.__file__).resolve().parent.parent)
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, *args], stdout=stdout, stderr=subprocess.PIPE,
        text=True, timeout=60, env=dict(os.environ, PYTHONPATH=path))


@pytest.mark.parametrize("spec", ["SL4/mu0", "SL4mu0", "A3:mu0"])
def test_zero_order_mu_is_a_usage_error(spec):
    proc = run_process("-m", "bundleaut.cli", "report", "--group", spec)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: ")
    assert "Traceback" not in proc.stderr


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
    golden = [_norm(line) for line in GOLDEN.read_text(encoding="utf-8").splitlines()
              if line.strip()]
    assert [_norm(line) for line in proc.stdout.splitlines()] == golden


def test_cached_parser_leaks_no_state(capsys, monkeypatch):
    # main builds its parser once per process; a call must behave as the
    # same argv run alone, whatever ran before it
    monkeypatch.setenv("COLUMNS", "80")  # the width of the -h text
    monkeypatch.delenv("BUNDLEAUT_COLOR", raising=False)
    builds = []
    make_parser = cli.make_parser

    def counting_make_parser():
        builds.append(1)
        return make_parser()

    monkeypatch.setattr(cli, "_parser", None)
    monkeypatch.setattr(cli, "make_parser", counting_make_parser)
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
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's own -h
            code = exc.code
        out = capsys.readouterr().out
        alone = run_process("-m", "bundleaut.cli", *argv)
        assert (code, out) == (alone.returncode, alone.stdout), argv
        codes.append(code)
    assert codes == [0, 0, 1, 0, 0, 0, 0]
    assert len(builds) == 1
    # and importing the module builds none
    proc = run_process("-c", "import sys; from bundleaut import cli; "
                             "sys.exit(cli._parser is not None)")
    assert proc.returncode == 0, proc.stderr


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


def test_coxeter_element_of_infinite_order_exits_3(capsys, monkeypatch):
    # the order search is bounded by |Phi|, so a broken Coxeter element
    # fails a check instead of looping or raising past main
    monkeypatch.setattr(weyl, "coxeter_element", lambda t: ((1, 1), (0, 1)))
    weyl.invariant_degrees.cache_clear()
    code, out, err = run(capsys, "rootdata", "--type", "A2")
    assert code == 3
    assert out == ""
    assert err == "internal consistency failure: element order exceeds the bound 6\n"


def test_weyl_order_off_the_degree_product_exits_3(capsys, monkeypatch):
    # |W| comes from an orbit-stabilizer chain and is checked against the
    # product of the invariant degrees, here made 8 instead of 6
    monkeypatch.setattr(weyl, "invariant_degrees", lambda t: (2, 4))
    weyl.weyl_order.cache_clear()
    try:
        code, out, err = run(capsys, "rootdata", "--type", "A2")
    finally:
        weyl.weyl_order.cache_clear()
    assert code == 3
    assert out == ""
    assert err == ("internal consistency failure: "
                   "|W| = 6 is not the product of the degrees [2, 4]\n")


def test_root_orbits_off_the_dominant_roots_exit_3(capsys, monkeypatch):
    # without s_3 the reflections of B3 split the roots into 5 orbits, and
    # the orbit count is checked against the dominant roots
    permutations = weyl._root_permutations
    monkeypatch.setattr(weyl, "_root_permutations", lambda t: permutations(t)[:-1])
    weyl.discriminant_orbit_counts.cache_clear()
    try:
        code, out, err = run(capsys, "rootdata", "--type", "B3")
    finally:
        weyl.discriminant_orbit_counts.cache_clear()
    assert code == 3
    assert out == ""
    assert err == ("internal consistency failure: 5 W-orbits of roots do not "
                   "hold one each of the 3 dominant roots\n")


def test_non_invertible_actor_exits_3(capsys, monkeypatch):
    # an actor that collapses the group fails a check inside main
    monkeypatch.setattr(finabel.AbelianAction, "apply", lambda self, name, x: self.group.zero())
    enumerate_forms.cache_clear()
    try:
        code, out, err = run(capsys, "report", "--group", "D4:adjoint")
    finally:
        enumerate_forms.cache_clear()
    assert code == 3
    assert out == ""
    assert err == "internal consistency failure: actor 'e' is not invertible\n"


def test_color_toggle(capsys, monkeypatch):
    monkeypatch.setenv("BUNDLEAUT_COLOR", "1")
    _, colored, _ = run(capsys, "rootdata", "--type", "A1")
    assert "\x1b[1m" in colored
    monkeypatch.delenv("BUNDLEAUT_COLOR")
    _, plain, _ = run(capsys, "rootdata", "--type", "A1")
    assert "\x1b[" not in plain
