"""Checks of every command's output against the oracles, and their self-test.

A check reads one output, compares what it finds with `oracles` (or with
the paper's table in `tables/corollary_b.golden`) and raises `Mismatch`.
It returns False when it has nothing to say about that output (an orbit
count on a type too large for Burnside, say).  No check compares against a
stored copy of the program's output.

Every check carries a mutation: a deliberate corruption of an output it
accepts.  `self_test` applies each mutation to a real output of the run and
requires the check to reject it, which shows that no check is vacuous.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from math import prod
from pathlib import Path
from typing import Callable

import oracles
from workloads import LOOKUP_REPORTS

GOLDEN = Path(__file__).resolve().parent.parent / "tables" / "corollary_b.golden"


class Mismatch(AssertionError):
    """An output disagrees with its oracle."""


def expect(cond: bool, message: str) -> None:
    if not cond:
        raise Mismatch(message)


@dataclass(frozen=True)
class Command:
    argv: tuple[str, ...]

    @property
    def kind(self) -> str:
        return self.argv[0]

    def option(self, name: str, default=None):
        args = list(self.argv)
        return args[args.index(name) + 1] if name in args else default

    @property
    def fmt(self) -> str:
        return self.option("--format", "text")

    @property
    def genus(self) -> int:
        return int(self.option("--genus", "4"))

    @property
    def type_facts(self) -> oracles.TypeFacts:
        if self.kind == "rootdata":
            t = self.option("--type")
            return oracles.type_facts(t[0], int(t[1:]))
        f = self.form
        return oracles.type_facts(f.family, f.rank)

    @property
    def form(self) -> oracles.FormFacts:
        spec = self.option("--group")
        family, n, token = LOOKUP_REPORTS.get(spec) or (spec[0], int(spec[1:].split(":")[0]),
                                                        spec.split(":")[1])
        return next(f for f in oracles.forms(family, n) if f.token == token)

    @property
    def delta(self) -> tuple[int, ...]:
        text = self.option("--delta")
        if text is None:
            return (0,) * len(self.form.pi1)
        return tuple(int(c) for c in text.split(","))


# ---------------------------------------------------------------------------
# readers


def group_factors(symbol: str) -> tuple[int, ...]:
    """Invariant factors from a group symbol such as `Z/2Z x (Z/4Z)^2`."""
    symbol = symbol.replace(r"\mathbb{Z}", "Z").replace(r"\{0\}", "{0}").strip()
    if symbol == "{0}":
        return ()
    factors: list[int] = []
    for part in symbol.split(" x "):
        m = re.fullmatch(r"\(Z/(\d+)Z\)\^(\d+)|Z/(\d+)Z", part.strip())
        expect(m is not None, f"unreadable group symbol {symbol!r}")
        if m.group(1):
            factors += [int(m.group(1))] * int(m.group(2))
        else:
            factors.append(int(m.group(3)))
    return tuple(factors)


def torsion_factors(presentation: str) -> tuple[int, ...]:
    """The l of every Pic(C)[l] block, with multiplicity."""
    presentation = presentation.replace(r"\mathrm{Pic}", "Pic")
    factors: list[int] = []
    for power, exp, single in re.findall(
            r"\(Pic\(C\)\[(\d+)\]\)\^(\d+)|Pic\(C\)\[(\d+)\]", presentation):
        factors += [int(power)] * int(exp) if power else [int(single)]
    return tuple(factors)


OUT_ORDERS = {"1": 1, "Z/2Z": 2, "S_3": 6}


def _match(pattern: str, text: str) -> re.Match:
    m = re.search(pattern, text, re.M)
    expect(m is not None, f"no line matching {pattern!r}")
    return m


def _ints(text: str) -> list[int]:
    return [int(x) for x in re.findall(r"-?\d+", text)]


def rootdata_facts(cmd: Command, text: str) -> dict:
    if cmd.fmt == "json":
        d = json.loads(text)
        return {
            "label": d["type"], "rank": d["rank"], "num_roots": d["num_roots"],
            "hyperplanes": d["num_hyperplanes"],
            "cartan": tuple(tuple(r) for r in d["cartan"]),
            "degrees": tuple(d["degrees"]), "h": d["coxeter_number"],
            "weyl_order": d["weyl_order"], "pq": group_factors(d["weight_quotient"]),
            "m": d["root_orbit_count"], "n": d["hyperplane_pair_orbit_count"],
            "ordered": d["ordered_root_pair_orbit_count"],
        }
    head = _match(r"^  rank (\d+), ambient dimension \d+, (\d+) roots, (\d+) hyperplanes$", text)
    degs = _match(r"invariant degrees: \[([\d, ]+)\]\s+\(Coxeter number h = (\d+)\)$", text)
    orbits = _match(r"orbit counts: roots m = (\d+), distinct hyperplane pairs n = (\d+), "
                    r"ordered root pairs = (\d+)$", text)
    return {
        "label": _match(r"^type (\S+)$", text).group(1),
        "rank": int(head.group(1)), "num_roots": int(head.group(2)),
        "hyperplanes": int(head.group(3)),
        "cartan": tuple(tuple(_ints(row)) for row in re.findall(r"^    \[([-\d ]+)\]$", text, re.M)),
        "degrees": tuple(_ints(degs.group(1))), "h": int(degs.group(2)),
        "weyl_order": int(_match(r"^  \|W\| = (\d+)$", text).group(1)),
        "pq": group_factors(_match(r"^  P/Q = (.+)$", text).group(1)),
        "m": int(orbits.group(1)), "n": int(orbits.group(2)), "ordered": int(orbits.group(3)),
    }


def report_facts(cmd: Command, text: str) -> dict:
    if cmd.fmt == "json":
        d = json.loads(text)
        g, h = d["group"], d["hitchin"]
        return {
            "name": g["name"], "label": g["family"], "rank": g["rank"],
            "pi1": group_factors(g["pi1"]), "chars": group_factors(g["center_chars"]),
            "out": OUT_ORDERS.get(g["out"]), "kernel": g["isogeny_kernel_order"],
            "genus": d["genus"], "delta": tuple(d["delta"]),
            "torsion": torsion_factors(d["presentation"]),
            "dim_group": h["dim_group"], "weights": tuple(h["weights"]),
            "h": h["coxeter_number"], "dim_basis": h["dim_basis"], "fiber": h["fiber_dim"],
            "higgs": h["higgs_stack_dim"], "m": h["m_ab_components"],
            "n": h["n_extra_components"], "hitchin_genus": h["genus"],
        }
    if cmd.fmt == "latex":
        rows = dict(re.findall(r"^(.+?) & (.+) \\\\$", text, re.M))
        expect(text.startswith("\\begin{tabular}{ll}\n") and text.endswith("\\end{tabular}\n"),
               "latex report is not one tabular")
        return {
            "name": rows["group"].replace(r"\_", "_"),
            "chars": group_factors(rows[r"$\operatorname{Hom}(\mathscr{Z}(G),\mathbb{G}_m)$"].strip("$")),
            "pi1": group_factors(rows[r"$\pi_1(G)$"].strip("$")),
            "out": OUT_ORDERS.get(rows[r"$\operatorname{Out}(G)$"].strip("$")
                                  .replace(r"\mathbb{Z}", "Z")),
            "torsion": torsion_factors(rows[r"$\operatorname{Aut}$"]),
        }
    head = _match(r"^(\S+)  \(type (\S+)\)$", text)
    aut = _match(r"^  Aut = (.+)   \(genus (\d+)\)$", text)
    delta = _match(r"^component delta = (\S+)   \[.+\]$", text).group(1)
    dims = _match(r"^  dim G = (\d+), weights = \[([\d, ]+)\], h = (\d+)$", text)
    basis = _match(r"^  dim basis = (\d+) = dim G \(g-1\), fiber dim = (\d+), "
                   r"Higgs stack dim = (\d+)$", text)
    disc = _match(r"^  discriminant components: m = (\d+), extra \(pairs\) = (\d+)$", text)
    return {
        "name": head.group(1), "label": head.group(2),
        "rank": int(head.group(2).split("_")[1]),
        "chars": group_factors(_match(r"^  Hom\(Z\(G\), G_m\) = (.+)$", text).group(1)),
        "pi1": group_factors(_match(r"^  pi_1\(G\)\s+= (.+)$", text).group(1)),
        "out": OUT_ORDERS.get(_match(r"^  Out\(G\)\s+= (.+)$", text).group(1)),
        "genus": int(aut.group(2)), "torsion": torsion_factors(aut.group(1)),
        "delta": () if delta == "0" and not cmd.form.pi1 else tuple(_ints(delta)),
        "dim_group": int(dims.group(1)), "weights": tuple(_ints(dims.group(2))),
        "h": int(dims.group(3)), "dim_basis": int(basis.group(1)),
        "fiber": int(basis.group(2)), "higgs": int(basis.group(3)),
        "m": int(disc.group(1)), "n": int(disc.group(2)),
        "hitchin_genus": int(_match(r"^Hitchin base \(genus (\d+)\)$", text).group(1)),
    }


# ---------------------------------------------------------------------------
# checks on root data and reports


def check_closed_forms(cmd: Command, text: str) -> bool:
    """Degrees, |Phi|, |W|, the Coxeter number, P/Q and the Cartan matrix."""
    tf = cmd.type_facts
    if cmd.kind == "rootdata":
        f = rootdata_facts(cmd, text)
        expect(f["label"] == tf.label and f["rank"] == tf.rank, f"type {f['label']} != {tf.label}")
        expect(f["num_roots"] == tf.num_roots, f"|Phi| = {f['num_roots']} != {tf.num_roots}")
        expect(f["hyperplanes"] == tf.num_roots // 2, "hyperplanes != |Phi|/2")
        expect(f["weyl_order"] == tf.weyl_order, f"|W| = {f['weyl_order']} != {tf.weyl_order}")
        expect(f["pq"] == tf.center, f"P/Q = {f['pq']} != {tf.center}")
        expect(f["cartan"] == tf.cartan, f"Cartan matrix of {tf.label} differs from Bourbaki")
    else:
        f = report_facts(cmd, text)
        expect(f["label"] == tf.label and f["rank"] == tf.rank, f"type {f['label']} != {tf.label}")
        expect(f["dim_group"] == tf.dim_group, f"dim G = {f['dim_group']} != r + |Phi|")
        f["degrees"] = f["weights"]
    expect(f["degrees"] == tf.degrees, f"degrees {f['degrees']} != {tf.degrees}")
    expect(f["h"] == tf.coxeter_number, f"h = {f['h']} != {tf.coxeter_number}")
    return True


def check_root_orbits(cmd: Command, text: str) -> bool:
    """m, the number of W-orbits on roots, is one per root length."""
    tf = cmd.type_facts
    f = (rootdata_facts if cmd.kind == "rootdata" else report_facts)(cmd, text)
    expect(f["m"] == tf.root_orbits, f"m = {f['m']} != {tf.root_orbits}")
    return True


def check_burnside(cmd: Command, text: str) -> bool:
    """n (and the ordered-pair count) against Burnside's lemma, on every
    type whose Weyl group is small enough to enumerate."""
    tf = cmd.type_facts
    if not oracles.can_enumerate(tf.family, tf.rank):
        return False
    f = (rootdata_facts if cmd.kind == "rootdata" else report_facts)(cmd, text)
    counts = oracles.burnside_counts(tf.family, tf.rank)
    expect(f["m"] == counts.roots, f"m = {f['m']} != {counts.roots}")
    expect(f["n"] == counts.hyperplane_pairs, f"n = {f['n']} != {counts.hyperplane_pairs}")
    if "ordered" in f:
        expect(f["ordered"] == counts.ordered_root_pairs,
               f"ordered pairs = {f['ordered']} != {counts.ordered_root_pairs}")
    return True


def check_form(cmd: Command, text: str) -> bool:
    """Name, pi_1, Z(G), Out(G), the torsion blocks and the echoed label."""
    ff = cmd.form
    f = report_facts(cmd, text)
    expect(f["name"] == ff.name, f"group {f['name']} != {ff.name}")
    expect(f["pi1"] == ff.pi1, f"pi_1 = {f['pi1']} != {ff.pi1}")
    expect(f["chars"] == ff.chars, f"Hom(Z(G), G_m) = {f['chars']} != {ff.chars}")
    expect(f["out"] == ff.out_order, f"|Out(G)| = {f['out']} != {ff.out_order}")
    expect(f["torsion"] == ff.chars, f"torsion blocks {f['torsion']} != {ff.chars}")
    expect(prod(f["pi1"]) * prod(f["torsion"]) == cmd.type_facts.center_order,
           "|pi_1| x prod l != det(Cartan)")
    if "kernel" in f:
        expect(f["kernel"] == prod(ff.pi1), "isogeny kernel order != |pi_1|")
    if "delta" in f:
        expect(f["delta"] == cmd.delta, f"delta {f['delta']} != requested {cmd.delta}")
    return True


def check_hitchin_dims(cmd: Command, text: str) -> bool:
    """dim basis = fibre dim = dim G (g-1); Higgs stack dim = 2 dim G (g-1)."""
    f = report_facts(cmd, text)
    g = cmd.genus
    expect(f["genus"] == f["hitchin_genus"] == g, f"genus {f['genus']} != requested {g}")
    expect(f["dim_basis"] == f["fiber"] == f["dim_group"] * (g - 1), "dim basis != dim G (g-1)")
    expect(f["higgs"] == 2 * f["dim_group"] * (g - 1), "Higgs stack dim != 2 dim G (g-1)")
    return True


def check_roundtrip(cmd: Command, text: str) -> bool:
    from bundleaut.cli import ReportDocument  # the package's own reader

    expect(ReportDocument.from_json(text).to_json() + "\n" == text,
           "json report does not round-trip through ReportDocument")
    return True


# ---------------------------------------------------------------------------
# checks on the classification table


def golden_lines() -> list[str]:
    return GOLDEN.read_text(encoding="utf-8").splitlines()


def check_paper_table(cmd: Command, text: str) -> bool:
    """Every format reproduces the paper's Corollary B table row by row."""
    golden = golden_lines()
    if cmd.fmt == "text":
        expect(text == "\n".join(golden) + "\n", "text table differs from the paper's table")
        return True
    rows = [line.split(" | ") for line in golden]
    if cmd.fmt == "json":
        doc = json.loads(text)
        expect((doc["schema"], doc["genus"], doc["max_rank"]) == ("bundleaut.table/1", 4, 8),
               "table header")
        got = [f"{r['family']} | {r['group']} | {r['delta_class']} | {r['presentation']}"
               for r in doc["rows"]]
        expect(got == golden, "json table rows differ from the paper's table")
        return True
    lines = text.splitlines()
    expect(len(lines) == len(rows), f"{len(lines)} latex rows != {len(rows)}")
    for line, (family, group, _, pres) in zip(lines, rows):
        fields = line.split(" & ")
        expect(len(fields) == 4 and line.endswith(" \\\\"), f"bad latex row {line!r}")
        f, n = family.split("_")
        expect(fields[0] == f"${f}_{{{n}}}$" and fields[1] == group.replace("_", r"\_"),
               f"latex row {line!r} is not {family} {group}")
        expect(torsion_factors(fields[3]) == torsion_factors(pres),
               f"latex torsion blocks of {group} differ from the paper's table")
    return True


def _table_forms(text: str) -> dict[tuple[str, str], list[dict]]:
    rows: dict[tuple[str, str], list[dict]] = {}
    for r in json.loads(text)["rows"]:
        rows.setdefault((r["family"], r["group"]), []).append(r)
    return rows


def check_table_partition(cmd: Command, text: str) -> bool:
    """The rows of each form partition pi_1(G) exactly, and the forms of
    each type are exactly the oracle's."""
    by_name = oracles.forms_by_name()
    table = _table_forms(text)
    expected = {(f"{f.family}_{f.rank}", f.name) for f in by_name.values()}
    expect(set(table) == expected, f"forms differ: {sorted(set(table) ^ expected)}")
    for (family, group), rows in table.items():
        ff = by_name[group]
        values = [tuple(v) for r in rows for v in r["delta_values"]]
        expect(len(values) == len(set(values)), f"{group}: a delta value sits in two rows")
        expect(set(values) == set(ff.labels()), f"{group}: rows do not cover pi_1 exactly")
        for r in rows:
            symbol = r["delta_class"].rsplit(" ∈ ", 1)[-1]
            expect(group_factors(symbol) == ff.pi1, f"{group}: pi_1 = {symbol}")
    return True


def check_table_torsion(cmd: Command, text: str) -> bool:
    """prod of the Pic(C)[l] orders x |pi_1(G)| = |Z(G^sc)| = det(Cartan)."""
    by_name = oracles.forms_by_name()
    for (family, group), rows in _table_forms(text).items():
        ff = by_name[group]
        center = oracles.type_facts(ff.family, ff.rank).center_order
        for r in rows:
            blocks = torsion_factors(r["presentation"])
            expect(blocks == ff.chars, f"{group}: torsion blocks {blocks} != {ff.chars}")
            expect(prod(blocks) * prod(ff.pi1) == center,
                   f"{group}: prod l x |pi_1| != det(Cartan) = {center}")
    return True


# ---------------------------------------------------------------------------
# mutations: one corruption per check and format


def _json_edit(edit: Callable[[dict], None]) -> Callable[[str], str]:
    def mutate(text: str) -> str:
        doc = json.loads(text)
        edit(doc)
        return json.dumps(doc, ensure_ascii=False, indent=2, sort_keys=True) + "\n"
    return mutate


def _bump(pattern: str) -> Callable[[str], str]:
    """Add one to the number in the first match's last group."""
    def mutate(text: str) -> str:
        return re.sub(pattern, lambda m: m.group(1) + str(int(m.group(2)) + 1), text, count=1)
    return mutate


def _drop_delta_value(doc: dict) -> None:
    row = next(r for r in doc["rows"] if len(r["delta_values"]) > 1)
    row["delta_values"].pop()


def _change_torsion_block(doc: dict) -> None:
    row = next(r for r in doc["rows"] if "Pic(C)[" in r["presentation"])
    row["presentation"] = re.sub(r"Pic\(C\)\[(\d+)\]",
                                 lambda m: f"Pic(C)[{2 * int(m.group(1))}]",
                                 row["presentation"], count=1)


def _set(path: tuple[str, ...], change: Callable) -> Callable[[dict], None]:
    def edit(doc: dict) -> None:
        *parents, key = path
        for p in parents:
            doc = doc[p]
        doc[key] = change(doc[key])
    return edit


def _last_plus_one(values: list) -> list:
    return values[:-1] + [values[-1] + 1]


# No group form in range has a factor 11 in pi_1, so this is always wrong.
WRONG_PI1 = "Z/11Z"


def _drop_or_change_delta(doc: dict) -> None:
    if doc["delta"]:
        doc["delta"].pop()
    else:
        doc["group"]["pi1"] = WRONG_PI1


@dataclass(frozen=True)
class Check:
    family: str
    kind: str
    fmt: str
    run: Callable[[Command, str], bool]
    mutate: Callable[[str], str]


CHECKS: tuple[Check, ...] = (
    Check("paper-table", "table", "text", check_paper_table,
          lambda t: t.replace("Pic(C)[4]", "Pic(C)[2]", 1)),
    Check("paper-table", "table", "json", check_paper_table,
          _json_edit(_set(("rows",), lambda rows: rows[:-1]))),
    Check("paper-table", "table", "latex", check_paper_table,
          lambda t: "".join(t.splitlines(keepends=True)[:-1])),
    Check("table-partition", "table", "json", check_table_partition,
          _json_edit(_drop_delta_value)),
    Check("table-torsion", "table", "json", check_table_torsion,
          _json_edit(_change_torsion_block)),
    Check("closed-forms", "rootdata", "json", check_closed_forms,
          _json_edit(_set(("degrees",), _last_plus_one))),
    Check("closed-forms", "rootdata", "text", check_closed_forms,
          _bump(r"(invariant degrees: \[[\d, ]*?)(\d+)\]")),
    Check("closed-forms", "report", "json", check_closed_forms,
          _json_edit(_set(("hitchin", "weights"), _last_plus_one))),
    Check("closed-forms", "report", "text", check_closed_forms,
          _bump(r"(weights = \[[\d, ]*?)(\d+)\]")),
    Check("root-orbits", "rootdata", "json", check_root_orbits,
          _json_edit(_set(("root_orbit_count",), lambda m: m + 1))),
    Check("root-orbits", "rootdata", "text", check_root_orbits, _bump(r"(roots m = )(\d+)")),
    Check("root-orbits", "report", "json", check_root_orbits,
          _json_edit(_set(("hitchin", "m_ab_components"), lambda m: m + 1))),
    Check("root-orbits", "report", "text", check_root_orbits, _bump(r"(components: m = )(\d+)")),
    Check("burnside", "rootdata", "json", check_burnside,
          _json_edit(_set(("hyperplane_pair_orbit_count",), lambda n: n + 1))),
    Check("burnside", "rootdata", "text", check_burnside,
          _bump(r"(distinct hyperplane pairs n = )(\d+)")),
    Check("burnside", "report", "json", check_burnside,
          _json_edit(_set(("hitchin", "n_extra_components"), lambda n: n + 1))),
    Check("burnside", "report", "text", check_burnside, _bump(r"(extra \(pairs\) = )(\d+)")),
    Check("forms", "report", "json", check_form, _json_edit(_drop_or_change_delta)),
    Check("forms", "report", "text", check_form,
          lambda t: re.sub(r"(pi_1\(G\)\s+= ).+", r"\g<1>" + WRONG_PI1, t, count=1)),
    Check("forms", "report", "latex", check_form,
          lambda t: re.sub(r"(\$\\pi_1\(G\)\$ & ).+( \\\\)",
                           r"\g<1>$\\mathbb{Z}/11\\mathbb{Z}$\2", t, count=1)),
    Check("hitchin-dims", "report", "json", check_hitchin_dims,
          _json_edit(_set(("hitchin", "dim_basis"), lambda d: d + 1))),
    Check("hitchin-dims", "report", "text", check_hitchin_dims, _bump(r"(dim basis = )(\d+)")),
    Check("json-roundtrip", "report", "json", check_roundtrip,
          lambda t: json.dumps(json.loads(t), ensure_ascii=False, indent=1, sort_keys=True) + "\n"),
)


def checks_for(cmd: Command) -> list[Check]:
    return [c for c in CHECKS if (c.kind, c.fmt) == (cmd.kind, cmd.fmt)]


def check_output(cmd: Command, text: str) -> list[str]:
    """Failures of every check that applies to one output."""
    failures = []
    for c in checks_for(cmd):
        try:
            c.run(cmd, text)
        except Exception as exc:  # a malformed output fails its check
            failures.append(f"{' '.join(cmd.argv)}: {c.family}: {type(exc).__name__}: {exc}")
    return failures


def self_test(outputs: list[tuple[Command, str]]) -> tuple[int, list[str]]:
    """Corrupt one accepted output per check; every corruption must be
    rejected.  Returns (corruptions tried, failures of the self-test)."""
    tried, problems = 0, []
    for c in CHECKS:
        for cmd, text in outputs:
            if (cmd.kind, cmd.fmt) != (c.kind, c.fmt):
                continue
            try:
                if not c.run(cmd, text):
                    continue
            except Exception:
                continue
            bad = c.mutate(text)
            tried += 1
            where = f"{c.family}/{c.kind}/{c.fmt}"
            try:
                if bad == text:
                    problems.append(f"{where}: corruption changed nothing")
                else:
                    c.run(cmd, bad)
                    problems.append(f"{where}: corrupted output accepted")
            except Mismatch:
                pass
            except Exception as exc:
                problems.append(f"{where}: check crashed on the corruption: {exc!r}")
            break
    return tried, problems
