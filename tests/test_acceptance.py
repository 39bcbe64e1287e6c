"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Criteria with stated runtime budgets are timed with a monotonic
clock inside the test.
"""

import contextlib
import io
import json
import random
import time
from pathlib import Path

from bundleaut import cli
from bundleaut.finabel import FiniteAbelianGroup, enumerate_subgroups
from bundleaut.groupclass import form_by_name
from bundleaut.moduli import delta_local, riemann_roch_basis_dim
from bundleaut.rootdata import DynkinType, admissible_types, build_root_datum
from bundleaut.weyl import invariant_degrees, weyl_order

import oracles
import test_finabel
import test_groupclass
import test_rootdata

GOLDEN = Path(__file__).resolve().parent.parent / "tables" / "corollary_b.golden"


def _norm(line: str) -> str:
    return " ".join(line.split())


def delta_total(profile) -> int:
    """The `total` of `delta --profile ... --format json`.  The command takes
    no empty profile, whose total, the sum over no points, is 0."""
    if not profile:
        return 0
    text = ",".join(f"{deg}:{drop}" for deg, drop in profile)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["delta", "--profile", text, "--format", "json"]) == 0
    return json.loads(out.getvalue())["total"]


def test_criterion_1_classification_table(capsys):
    start = time.monotonic()
    code = cli.main(["table"])
    out = capsys.readouterr().out
    elapsed = time.monotonic() - start
    assert code == 0
    golden = [_norm(l) for l in GOLDEN.read_text(encoding="utf-8").splitlines()
              if l.strip()]
    produced = [_norm(l) for l in out.splitlines() if l.strip()]
    assert produced == golden
    assert elapsed < 10.0, f"table took {elapsed:.1f}s"
    with capsys.disabled():
        print(f"\nACCEPTANCE 1 PASS: classification table matches the golden "
              f"transcription ({len(golden)} rows, {elapsed:.2f}s)")


def test_criterion_2_classification_subtables(capsys):
    start = time.monotonic()
    checked = 0
    for tname, form, name, out_sym, chars, pi1 in test_groupclass.ALL_TABLES:
        gf = form_by_name(DynkinType.parse(tname), form)
        assert gf.display_name == name
        assert gf.out.symbol() == out_sym
        assert gf.chars.structure.symbol() == chars
        assert gf.pi1.symbol() == pi1
        checked += 1
    elapsed = time.monotonic() - start
    assert elapsed < 5.0, f"sub-tables took {elapsed:.1f}s"
    with capsys.disabled():
        print(f"ACCEPTANCE 2 PASS: {checked} sub-table entries reproduced from "
              f"lattice computations ({elapsed:.2f}s)")


def test_criterion_3_degree_identities(capsys):
    checked = 0
    for t in admissible_types(8):
        rd = build_root_datum(t)
        degrees = invariant_degrees(t)
        nroots = len(rd.roots)
        assert sum(d - 1 for d in degrees) == nroots // 2
        assert degrees[-1] == nroots // rd.rank
        product = 1
        for d in degrees:
            product *= d
        assert weyl_order(t) == product
        assert weyl_order(t) == oracles.weyl_order(t.family, t.rank)
        checked += 1
    with capsys.disabled():
        print(f"ACCEPTANCE 3 PASS: degree identities exact for {checked} types, "
              f"|W| from the highest root = prod d_i = Humphreys' closed form "
              f"for every one")


def test_criterion_4_dimension_cross_check(capsys):
    checked = 0
    for t in admissible_types(8):
        rd = build_root_datum(t)
        degrees = invariant_degrees(t)
        dim_g = rd.rank + len(rd.roots)
        for g in range(2, 11):
            assert riemann_roch_basis_dim(degrees, rd.rank, g) == dim_g * (g - 1)
            checked += 1
    with capsys.disabled():
        print(f"ACCEPTANCE 4 PASS: Riemann-Roch sum equals dim G (g-1) in "
              f"{checked} cases")


def test_criterion_5_out_action_anchors(capsys):
    for n in (5, 6, 7, 8):
        test_groupclass.test_dn_generator_swaps_spin_classes(n)
    test_groupclass.test_e6_generator_inverts_w1()
    test_groupclass.test_d4_s3_permutes_the_three_classes()
    with capsys.disabled():
        print("ACCEPTANCE 5 PASS: D_n swap, E_6 inversion, and the D_4 triality "
              "permutation hold on lattice classes")


def test_criterion_6_delta_calculator(capsys):
    for m in range(1, 13):
        if m % 2 == 0:
            assert delta_local((m, 0)) == m // 2
        else:
            assert delta_local((m, 1)) == (m - 1) // 2
    rng = random.Random(20250809)
    for _ in range(1000):
        profile = []
        for _ in range(rng.randint(0, 7)):
            drop = rng.randint(0, 5)
            deg = drop + 2 * rng.randint(0, 6)
            profile.append((deg, drop))
        cut = rng.randint(0, len(profile))
        assert delta_total(profile) == (delta_total(profile[:cut])
                                        + delta_total(profile[cut:]))
        assert (delta_total(profile) == 0) == all(d == s for d, s in profile)
    with capsys.disabled():
        print("ACCEPTANCE 6 PASS: closed forms for m = 1..12; additivity and "
              "transversal-zero over 1000 randomized profiles")


def test_criterion_7_property_suites(capsys):
    start = time.monotonic()
    # Smith normal form round trip on randomized matrices
    rng = random.Random(99)
    for _ in range(100):
        rows = rng.randint(1, 8)
        cols = rng.randint(1, 8)
        m = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        test_finabel.check_snf(m)
    # subgroup enumeration against all-subset closure, orders up to 16
    for factors in [(), (2,), (4,), (2, 2), (8,), (2, 4), (2, 2, 2),
                    (12,), (16,), (2, 8), (4, 4), (2, 2, 4), (2, 2, 2, 2)]:
        group = FiniteAbelianGroup(factors)
        assert len(enumerate_subgroups(group)) == \
            test_finabel.brute_force_subgroup_count(group)
    # root closure idempotence: reflecting the closed set adds nothing, and
    # a from-scratch rebuild is identical
    for t in admissible_types(8):
        rd = build_root_datum(t)
        roots = set(rd.roots)
        for i in range(rd.rank):
            assert {test_rootdata.reflect(rd.cartan, i, a) for a in roots} == roots
        rebuilt = build_root_datum.__wrapped__(t)
        assert rebuilt.roots == rd.roots
    elapsed = time.monotonic() - start
    assert elapsed < 30.0, f"property suites took {elapsed:.1f}s"
    with capsys.disabled():
        print(f"ACCEPTANCE 7 PASS: SNF round-trip, subgroup brute force, root "
              f"closure idempotence ({elapsed:.2f}s)")
