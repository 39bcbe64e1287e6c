"""bundleaut: automorphism groups of moduli of principal bundles, their
classification table and Hitchin-base numerology, computed exactly from
Cartan data.

Subcommands: report (per-group invariants and the automorphism
presentation), table (the full classification table), delta (the local
invariant calculator), rootdata (root-system dump).  Output formats are
text, json, and latex; identical flags always produce byte-identical
output.  Exit codes: 0 success, 1 usage or parse error (or stdout closed
before the output was written), 2 mathematical inconsistency in the input
(e.g. a parity violation in a delta profile), 3 internal consistency
failure (a cross-check of the program's own results failed).

Commands return documents, and formats are views of them.  Each handler
`cmd_*` computes its command's document and prints nothing: a
`ReportDocument` for `report`, and for `table`, `delta` and `rootdata` the
dict that their json format prints.  `main` is the only writer of command
output: it prints the view of the document that --format names, from
`VIEWS`, one table of views by command and format.  The json view of every
command is `_json_text`, and each command's --format choices are its
formats in `VIEWS`, so a format is added to a command in that table alone.

`COMMANDS` is the whole grammar: `parse_args` reads argv in one pass against
the per-command tables built from it at import, each flag exactly as the table
names it, and the -h text is generated from it.  `main(argv)` may be called
repeatedly in one process, as a library or notebook does; no call leaves state
behind for the next but the package's caches, which hold immutable values
only.  This module's own caches are `parse_group_spec`, by the spec text (a
rejected spec is not cached), `_latexify`, by its input text, `_group_header`,
the form's `group` field, and `_dict_text`, the JSON text of a dict of str and
int values by its contents.  `build_report` copies the `group` field, and the
parts of `moduli.component` that do not depend on the genus, into a fresh
`ReportDocument`, whose `hitchin` field is the dict `moduli.hitchin_report`
returns: the Hitchin numerology, with its Riemann-Roch check on every call.
The `table` document holds the row dicts of `moduli.classification_table`,
read from the same `moduli.component` records as `report`.  Group specs,
delta labels and profiles are read with `str` methods, their numbers in the
ASCII digits 0-9; a genus, each part of a delta label and each number of a
profile have at most `moduli.MAX_DIGITS` digits, checked before anything is
built.  JSON is written by `_json_text`, as `json.dumps` writes it with sorted
keys and a two-space indent; no command imports `json` or `re`.
"""

from __future__ import annotations

import os
import sys
from _json import encode_basestring as _quote  # the C escaper of json.dumps
from collections import namedtuple
from functools import lru_cache
from types import SimpleNamespace

from . import groupclass, moduli, weyl
from .finabel import LatticeQuotient
from .groupclass import GroupForm, InvalidDegree
from .moduli import MAX_DIGITS, GenusOutOfRange, InconsistentProfile
from .rootdata import (
    DEFAULT_MAX_RANK,
    MAX_RANK,
    MAX_TABLE_RANK,
    ConsistencyError,
    DynkinType,
    InvalidType,
    ambient_simple_roots,
    build_root_datum,
    check,
    has_cartan_matrix,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INCONSISTENT = 2
EXIT_INTERNAL = 3


class UsageError(ValueError):
    pass


# ---------------------------------------------------------------------------
# group-spec grammar


# a matrix-group alias is a name and a size m: SL_m is of type A_{m-1},
# Sp_m of type C_{m/2}, an orthogonal group of type D_{m/2}, and Spin_m and
# SO_m of type B_{(m-1)/2} for odd m
_MATRIX_TOKENS = {"spin": "sc", "semispin": "semispin", "pso": "adjoint", "so": "so",
                  "psl": "adjoint", "sl": "sc", "psp": "adjoint", "sp": "sc"}


def _supported(t: DynkinType) -> DynkinType:
    """t, if `rootdata` and `report` take its rank; checked before anything
    is built for it."""
    if t.rank > MAX_RANK:
        raise InvalidType(f"type {t.name} is outside the supported ranks 1 to {MAX_RANK}")
    return t


def _within(what: str, digits: str, ceiling: int) -> None:
    """A usage error where a number has more than `ceiling` digits."""
    if len(digits) > ceiling:
        raise UsageError(f"{what} has {len(digits)} digits; at most {ceiling} are supported")


def _digits(text: str) -> bool:
    """One or more of the ASCII digits 0-9; `int` also reads other decimal digits and `_`."""
    return text.isascii() and text.isdecimal()


def _number(digits: str) -> int:
    try:
        return int(digits)
    except ValueError:  # more digits than `int` reads from text
        raise InvalidType(f"a number of {len(digits)} digits; the supported ranks "
                          f"are 1 to {MAX_RANK}") from None


def _type_and_token(spec: str) -> tuple[DynkinType, str]:
    """The Dynkin type and form token a group spec names; whether the type
    has that form is `groupclass.form_by_name`'s to decide."""
    # <TYPE><rank>[:<form>], E6ad, SL4/mu2 or SL4mu2, <alias><size>; one final newline may follow
    text = spec.strip().lower().replace("_", "").replace(" ", "").removesuffix("\n")
    head, colon, form = text.partition(":")
    if head[:1] in "abcdefg" and _digits(head[1:]) and (form or not colon) and "\n" not in form:
        return DynkinType(head[0].upper(), _number(head[1:])), form or "sc"
    if text[:1] in "efg" and "0" <= text[1:2] <= "9" and text[2:] in ("sc", "ad", "adjoint"):
        return DynkinType(text[0].upper(), int(text[1])), text[2:]
    size, _, order = text[2:].partition("mu")
    if text[:2] == "sl" and _digits(size.removesuffix("/")) and _digits(order):
        return DynkinType("A", _number(size.removesuffix("/")) - 1), f"mu{_number(order)}"
    name = text.rstrip("0123456789")
    if name not in _MATRIX_TOKENS or name == text:
        raise UsageError(f"cannot parse group spec {spec!r}")
    size = _number(text[len(name):])
    if name in ("sl", "psl"):
        return DynkinType("A", size - 1), _MATRIX_TOKENS[name]
    if size % 2 == 0:
        family = "C" if name in ("sp", "psp") else "D"
        return DynkinType(family, size // 2), _MATRIX_TOKENS[name]
    if name in ("spin", "so"):
        return DynkinType("B", (size - 1) // 2), _MATRIX_TOKENS[name]
    raise UsageError(f"group spec {spec!r}: no {name} group in odd dimension {size}")


@lru_cache(maxsize=1024)
def parse_group_spec(spec: str) -> GroupForm:
    """`<TYPE><rank>:<form>` with form a token of `groupclass.form_by_name`
    (`ad` abbreviates `adjoint`), or an alias such as Spin8, PSL4, Sp6, SO10,
    SemiSpin12, E6_sc, E8_ad.  Memoized by the spec text; a rejected spec
    raises and is not cached."""
    try:
        t, form = _type_and_token(spec)
        _supported(t)
    except InvalidType as exc:
        raise UsageError(f"group spec {spec!r}: {exc}") from exc
    try:
        return groupclass.form_by_name(t, "adjoint" if form == "ad" else form)
    except ValueError as exc:
        names = ", ".join(f.display_name for f in groupclass.enumerate_forms(t))
        raise UsageError(
            f"group spec {spec!r}: {exc} (forms of {t.label}: {names})") from exc


def parse_delta(text: str | None, gf: GroupForm) -> tuple[int, ...]:
    pi1 = gf.pi1
    if text is None:
        return pi1.zero()
    parts = [p for p in text.strip().strip("()").split(",") if p != ""]
    for k, p in enumerate(parts, 1):
        _within(f"part {k} of --delta", p.strip().lstrip("+-"), MAX_DIGITS)
    try:
        coords = tuple(map(int, parts))
    except ValueError as exc:
        raise UsageError(f"cannot parse delta {text!r}: {exc}") from exc
    for p in parts:  # `int` also takes any decimal digit, and `_` between digits
        if not _digits(p.strip().lstrip("+-")):  # one sign at most, as `int` took p
            raise UsageError(f"cannot parse delta {text!r}: {p!r} is not an integer "
                             "in the digits 0-9")
    if pi1.is_trivial and coords in ((), (0,)):
        return ()
    try:
        return groupclass.validate_delta(gf, coords)
    except InvalidDegree as exc:
        valid = ", ".join(groupclass.render_element(x) for x in pi1.elements())
        raise UsageError(f"{exc}; valid values: {valid}") from exc


# ---------------------------------------------------------------------------
# report document


_SCALARS = frozenset((str, int))  # values of these types are equal just when their texts are


def _json_text(value, newline: str = "\n") -> str:
    """The one JSON format of every command: sorted keys, two-space indent,
    non-ASCII characters kept.  The text is that of `json.dumps(value,
    ensure_ascii=False, indent=2, sort_keys=True)`, which with an indent
    runs the stdlib's pure-Python encoder (CPython 3.11); this one reads
    only what the commands print: a dict with str keys, a list, a tuple or a
    `ReportDocument`, as the object of its fields by name, holding str, int,
    None and more dicts, lists and tuples.  Any other value, a bool, a float
    or a subclass of int or str included, a str or an int outside a
    container, and any key that is not a str raise TypeError.  `newline` is
    the line break and indent before a nested value."""
    kind = type(value)
    if kind is dict:
        if not value:
            return "{}"
        flat = _SCALARS.issuperset(map(type, value.values()))
        return (_dict_text if flat else _dict_text.__wrapped__)(newline, *value.items())
    if kind is list or kind is tuple:
        if not value:
            return "[]"
        inner = newline + "  "
        return ("[" + inner + ("," + inner).join(
            [_quote(v) if type(v) is str else repr(v) if type(v) is int else _json_text(v, inner)
             for v in value]) + newline + "]")
    if value is None:
        return "null"
    if kind is ReportDocument:
        return _dict_text.__wrapped__(newline, *zip(value._fields, value))
    raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


@lru_cache(maxsize=1024)
def _dict_text(newline: str, *items) -> str:
    """A non-empty dict's text from its (key, value) pairs.  Memoized for a
    dict of str and int values alone, such as a report's `group`, `actions`
    and `provenance`, whose pairs key no other text: an edited dict is a new
    key.  Bounded, as the points of `delta` profiles are such dicts too."""
    inner = newline + "  "
    return ("{" + inner + ("," + inner).join(
        [f"{_quote(k)}: " + (_quote(v) if type(v) is str else repr(v) if type(v) is int
                             else _json_text(v, inner)) for k, v in sorted(items)])
        + newline + "}")


class ReportDocument(namedtuple("ReportDocument", "schema group genus delta delta_class "
                                                 "presentation actions hitchin provenance warnings")):
    __slots__ = ()

    def to_json(self) -> str:
        """The json view: the object of the fields by name, as `_json_text`
        writes it, which reads the fields and copies none of them."""
        return _json_text(self)

    @classmethod
    def from_json(cls, text: str) -> "ReportDocument":
        import json  # only to read a report back, so no command imports it
        return cls(**json.loads(text))


_PROVENANCE = {
    "center_chars": "annihilator of mu inside the lattice quotient P/Q",
    "pi1": "mu in P^vee/Q^vee, checked by duality against (P/Q)/mu^perp",
    "out": "Cartan-preserving node permutations acting on lattice classes",
    "presentation": "semidirect assembly from the stabilizer of the component label",
    "weights": "traces of the powers of a Coxeter element, checked against the root heights",
    "dim_basis": "Riemann-Roch sum cross-checked against dim G (g-1)",
    "m_ab_components": "count of dominant roots, checked against the number of root lengths",
    "n_extra_components": "orbit count on unordered pairs of distinct hyperplanes",
}


@lru_cache(maxsize=None)
def _group_header(gf: GroupForm) -> tuple[tuple[str, object], ...]:
    """The report's `group` field of the form, as (key, value) pairs of
    strings and ints, for each report to copy into a dict of its own."""
    return (
        ("family", gf.dynkin.label),
        ("rank", gf.dynkin.rank),
        ("name", gf.display_name),
        ("isogeny_kernel_order", len(gf.mu.elements)),
        ("center_chars", gf.chars.structure.symbol()),
        ("pi1", gf.pi1.symbol()),
        ("out", gf.out.symbol()),
    )


def build_report(gf: GroupForm, delta, genus: int) -> ReportDocument:
    """The report of the component delta of gf at this genus; every dict and
    list in it is the document's own."""
    warnings = []
    presentation = None
    delta_class = None
    actions = {}
    if genus >= moduli.MIN_GENUS_PRESENTATION:
        comp = moduli.component(gf, tuple(delta))
        presentation = comp.presentation
        actions = dict(comp.actions)
        delta_class = comp.delta_class
    else:
        warnings.append(f"presentation requires genus >= {moduli.MIN_GENUS_PRESENTATION}; "
                        "emitting Hitchin numerology only")
    return ReportDocument(
        schema="bundleaut.report/1",
        group=dict(_group_header(gf)),
        genus=genus,
        delta=list(delta),
        delta_class=delta_class,
        presentation=presentation,
        actions=actions,
        hitchin=moduli.hitchin_report(gf, genus),
        provenance=dict(_PROVENANCE),
        warnings=warnings,
    )


def _styled(text: str, colored: bool) -> str:
    return f"\x1b[1m{text}\x1b[0m" if colored else text


def render_report_text(doc: ReportDocument, colored: bool) -> str:
    g = doc.group
    lines = [
        _styled(f"{g['name']}  (type {g['family']})", colored),
        f"  Hom(Z(G), G_m) = {g['center_chars']}",
        f"  pi_1(G)        = {g['pi1']}",
        f"  Out(G)         = {g['out']}",
    ]
    for w in doc.warnings:
        lines.append(f"  warning: {w}")
    if doc.presentation is not None:
        delta = groupclass.render_element(doc.delta)
        lines.append(_styled(f"component delta = {delta}   [{doc.delta_class}]", colored))
        lines.append(f"  Aut = {doc.presentation}   (genus {doc.genus})")
        for name, desc in sorted(doc.actions.items()):
            lines.append(f"  action of {name}: {desc}")
    h = doc.hitchin
    lines.append(_styled(f"Hitchin base (genus {doc.genus})", colored))
    lines.append(
        f"  dim G = {h['dim_group']}, weights = {h['weights']}, "
        f"h = {h['coxeter_number']}")
    lines.append(
        f"  dim basis = {h['dim_basis']} = dim G (g-1), "
        f"fiber dim = {h['fiber_dim']}, Higgs stack dim = {h['higgs_stack_dim']}")
    lines.append(
        f"  discriminant components: m = {h['m_ab_components']}, "
        f"extra (pairs) = {h['n_extra_components']}")
    return "\n".join(lines)


_LATEX_MAP = [
    ("\u22ca", r" \rtimes "),
    ("\u00d7", r" \times "),
    ("\u03b4", r"\delta"),
    ("\u2208", r"\in"),
    ("\u2260", r"\neq"),
    ("Pic(C)", r"\mathrm{Pic}(C)"),
    ("Aut(C)", r"\operatorname{Aut}(C)"),
    ("{0}", r"\{0\}"),
]


@lru_cache(maxsize=None)
def _latexify(text: str) -> str:
    """text in LaTeX; memoized, as its inputs are the finitely many group
    symbols, class labels and presentations."""
    text, *after = text.split("Z")  # each Z/<n>Z, n in any decimal digits, left to right
    opens = False
    for i, p in enumerate(after, 1):  # the text after the i-th Z; a Z that closes opens none
        closes, opens = opens, not opens and i < len(after) and p[:1] == "/" and p[1:].isdecimal()
        text += (r"\mathbb{Z}" if opens or closes else "Z") + p
    for src, dst in _LATEX_MAP:
        text = text.replace(src, dst)
    return " ".join(text.split())  # each run of white space as one space


def render_report_latex(doc: ReportDocument) -> str:
    rows = [
        ("group", doc.group["name"].replace("_", r"\_")),
        (r"$\operatorname{Hom}(\mathscr{Z}(G),\mathbb{G}_m)$",
         f"${_latexify(doc.group['center_chars'])}$"),
        (r"$\pi_1(G)$", f"${_latexify(doc.group['pi1'])}$"),
        (r"$\operatorname{Out}(G)$", f"${_latexify(doc.group['out'])}$"),
    ]
    if doc.presentation is not None:
        rows.append((r"$\operatorname{Aut}$", f"${_latexify(doc.presentation)}$"))
    body = "\n".join(f"{k} & {v} \\\\" for k, v in rows)
    return "\\begin{tabular}{ll}\n" + body + "\n\\end{tabular}"


# ---------------------------------------------------------------------------
# subcommands: each returns the document of its command and prints nothing


def cmd_report(args) -> ReportDocument:
    _within("--genus", str(abs(args.genus)), MAX_DIGITS)
    gf = parse_group_spec(args.group)
    return build_report(gf, parse_delta(args.delta, gf), args.genus)


def render_table_text(doc: dict) -> str:
    return "\n".join(f"{r['family']} | {r['group']} | {r['delta_class']} | {r['presentation']}"
                     for r in doc["rows"])


def render_table_latex(doc: dict) -> str:
    lines = []
    for r in doc["rows"]:
        family, group = r["family"], r["group"].replace("_", r"\_")
        if "_" in family:
            family = family.replace("_", "_{") + "}"
        lines.append(
            f"${family}$ & {group} & ${_latexify(r['delta_class'])}$ & "
            f"${_latexify(r['presentation'])}$ \\\\")
    return "\n".join(lines)


def cmd_table(args) -> dict:
    _within("--genus", str(abs(args.genus)), MAX_DIGITS)
    if args.max_rank < 2:
        # A_1 = SL_2, the smallest type, needs a bound of 2
        raise UsageError(f"--max-rank must be at least 2, got {args.max_rank}")
    if args.max_rank > MAX_TABLE_RANK:
        raise UsageError(f"--max-rank {args.max_rank} is outside the supported range "
                         f"2 to {MAX_TABLE_RANK}")
    return {
        "schema": "bundleaut.table/1",
        "genus": args.genus,
        "max_rank": args.max_rank,
        "rows": moduli.classification_table(args.genus, args.max_rank),
    }


def parse_profile(text: str) -> list[tuple[int, int]]:
    points = []
    for k, token in enumerate(text.split(","), 1):
        token = token.strip()
        if len(numbers := token.split(":")) != 2 or not all(map(_digits, numbers)):
            raise UsageError(f"profile entry {token!r} does not match <deg>:<drop>")
        for digits in numbers:
            _within(f"a number of profile entry {k}", digits, MAX_DIGITS)
        points.append((int(numbers[0]), int(numbers[1])))
    return points


def cmd_delta(args) -> dict:
    points = [{"deg": d, "drop": s, "delta": moduli.delta_local((d, s))}
              for d, s in parse_profile(args.profile)]
    return {"schema": "bundleaut.delta/1", "points": points,
            "total": sum(p["delta"] for p in points)}


def render_delta_text(doc: dict) -> str:
    return "\n".join([*(f"deg = {p['deg']}, stabilizer rank drop = {p['drop']}  ->  "
                        f"delta_p = {p['delta']}" for p in doc["points"]),
                      f"total delta = {doc['total']}"])


def _halved(x: int) -> str:
    """x / 2 as `str` prints a fraction: `1/2`, `-1/2`, `0`, `2`."""
    return str(x // 2) if x % 2 == 0 else f"{x}/2"


def cmd_rootdata(args) -> dict:
    t = _supported(DynkinType.parse(args.type))  # InvalidType is a usage error in `main`
    rd = build_root_datum(t)
    ambient_dim, doubled = ambient_simple_roots(t)
    check(has_cartan_matrix(doubled, rd.cartan),
          f"the ambient simple roots of {t} do not give the Cartan matrix of its Dynkin diagram")
    degrees = weyl.invariant_degrees(t)
    # P/Q is Z^r, in fundamental-weight coordinates, modulo the simple
    # roots, which are the columns of A there
    weight_quotient = LatticeQuotient(rd.cartan, columns=True).group.symbol()
    m, n, ordered = weyl.orbit_counts(t)
    return {
        "schema": "bundleaut.rootdata/1",
        "type": t.label,
        "rank": rd.rank,
        "ambient_dim": ambient_dim,
        "num_roots": len(rd.roots),
        "simple_roots": [[_halved(x) for x in v] for v in doubled],
        "cartan": [list(row) for row in rd.cartan],
        "degrees": list(degrees),
        "coxeter_number": degrees[-1],
        "weyl_order": weyl.weyl_order(t),
        "weight_quotient": weight_quotient,
        "num_hyperplanes": len(rd.roots) // 2,
        "root_orbit_count": m,
        "hyperplane_pair_orbit_count": n,
        "ordered_root_pair_orbit_count": ordered,
    }


def render_rootdata_text(doc: dict, colored: bool) -> str:
    return "\n".join([
        _styled(f"type {doc['type']}", colored),
        f"  rank {doc['rank']}, ambient dimension {doc['ambient_dim']}, "
        f"{doc['num_roots']} roots, {doc['num_hyperplanes']} hyperplanes",
        "  simple roots:",
        *(f"    a_{i} = ({', '.join(v)})" for i, v in enumerate(doc["simple_roots"], 1)),
        "  Cartan matrix:",
        *("    [" + " ".join(f"{x:2d}" for x in row) + "]" for row in doc["cartan"]),
        f"  invariant degrees: {doc['degrees']}   "
        f"(Coxeter number h = {doc['coxeter_number']})",
        f"  |W| = {doc['weyl_order']}",
        f"  P/Q = {doc['weight_quotient']}",
        f"  orbit counts: roots m = {doc['root_orbit_count']}, distinct hyperplane pairs "
        f"n = {doc['hyperplane_pair_orbit_count']}, "
        f"ordered root pairs = {doc['ordered_root_pair_orbit_count']}",
    ])


# every view of every command's document, by command and format: `main`
# prints the one that --format names, and a command's --format choices are
# its formats here, in this order
VIEWS = {
    "report": {"text": lambda doc: render_report_text(doc, _color_enabled()),
               "json": _json_text, "latex": render_report_latex},
    "table": {"text": render_table_text, "json": _json_text, "latex": render_table_latex},
    "delta": {"text": render_delta_text, "json": _json_text},
    "rootdata": {"text": lambda doc: render_rootdata_text(doc, _color_enabled()),
                 "json": _json_text},
}


# ---------------------------------------------------------------------------
# entry point


def _color_enabled() -> bool:
    return os.environ.get("BUNDLEAUT_COLOR") == "1"


class Option(namedtuple("Option", (
        "flag",
        "kind",  # int, str, or the tuple of allowed values
        "default", "required", "help"), defaults=(None, False, ""))):
    __slots__ = ()

    @property
    def dest(self) -> str:
        return self.flag[2:].replace("-", "_")

    @property
    def metavar(self) -> str:
        if isinstance(self.kind, tuple):
            return "{" + ",".join(self.kind) + "}"
        return self.dest.upper()


# the whole command-line grammar: each subcommand, its handler, its one-line
# help and its options; `parse_args` and the -h text both read this table
COMMANDS = {
    "report": (cmd_report, "invariants and automorphism presentation", (
        Option("--group", str, required=True, help="group spec, e.g. D4:adjoint or Spin8"),
        Option("--genus", int, 4),
        Option("--delta", str, help="component label, e.g. 0,0"),
        Option("--format", tuple(VIEWS["report"]), "text"),
    )),
    "table": (cmd_table, "full classification table", (
        Option("--genus", int, 4),
        Option("--max-rank", int, DEFAULT_MAX_RANK),
        Option("--format", tuple(VIEWS["table"]), "text"),
    )),
    "delta": (cmd_delta, "local invariant calculator", (
        Option("--profile", str, required=True,
               help="comma-separated <deg>:<drop> entries, e.g. 4:0,3:1"),
        Option("--format", tuple(VIEWS["delta"]), "text"),
    )),
    "rootdata": (cmd_rootdata, "root system data dump", (
        Option("--type", str, required=True, help="Dynkin type, e.g. E6"),
        Option("--format", tuple(VIEWS["rootdata"]), "text"),
    )),
}

_HELP = ("-h", "--help")
# what `parse_args` reads of each command's entry in `COMMANDS`, built once:
# its handler, its options by flag and the field defaults
_PARSERS = {command: (func, {o.flag: o for o in options}, {o.dest: o.default for o in options})
            for command, (func, _, options) in COMMANDS.items()}


def _convert(option: Option, text: str):
    if option.kind is int:
        try:
            return int(text)
        except ValueError:
            raise UsageError(f"argument {option.flag}: invalid int value: {text!r}") from None
    if isinstance(option.kind, tuple) and text not in option.kind:
        raise UsageError(f"argument {option.flag}: invalid choice: {text!r} "
                         f"(choose from {', '.join(option.kind)})")
    return text


def _help_text(command: str | None) -> str:
    if command is None:
        names = ",".join(COMMANDS)
        width = max(map(len, COMMANDS)) + 2
        rows = [f"  {name:<{width}}{help_}" for name, (_, help_, _) in COMMANDS.items()]
        description = (__doc__ or "").split("\n\n")[0]
        return "\n".join([f"usage: bundleaut [-h] {{{names}}} ...", "", description, "",
                          "commands:", *rows, "", "options:",
                          "  -h, --help  show this help message and exit"])
    _, help_, options = COMMANDS[command]
    usage = " ".join(f"{o.flag} {o.metavar}" if o.required else f"[{o.flag} {o.metavar}]"
                     for o in options)
    left = [f"{o.flag} {o.metavar}" for o in options]
    width = max(map(len, left)) + 2
    rows = [f"  {'-h, --help':<{width}}show this help message and exit"]
    for o, text in zip(options, left):
        notes = [o.help] if o.help else []
        if o.required:
            notes.append("required")
        elif o.default is not None:
            notes.append(f"default: {o.default}")
        rows.append(f"  {text:<{width}}{'; '.join(notes)}")
    return "\n".join([f"usage: bundleaut {command} [-h] {usage}", "", help_, "",
                      "options:", *rows])


def _show_help(args) -> str:
    return _help_text(args.command)


def parse_args(argv) -> SimpleNamespace:
    """The namespace the `cmd_*` handlers read, from one pass over argv
    against `COMMANDS`: `command`, `func` (its handler) and one field per
    option.  The first token is -h, --help or a command.  After the command,
    a token that is exactly one of its flags takes the next token as its
    value, whatever that token looks like; `--opt=value` works too, and the
    last occurrence of an option wins.  A -h or --help before any error
    returns a namespace whose `func` returns the help text instead.  Every
    other token is an unrecognized argument.  Errors raise UsageError."""
    command, *rest = argv or [None]
    if command in _HELP:
        return SimpleNamespace(command=None, func=_show_help)
    if command not in _PARSERS:
        given = "no command given" if command is None else f"invalid command: {command!r}"
        raise UsageError(f"{given} (choose from {', '.join(COMMANDS)})")
    func, options, values = _PARSERS[command]
    values = dict(values)
    unknown = []
    tokens = iter(rest)
    for token in tokens:
        flag, eq, text = token.partition("=")
        if token in options:
            text = next(tokens, None)
            if text is None:
                raise UsageError(f"argument {flag}: expected one argument")
        elif token in _HELP:
            return SimpleNamespace(command=command, func=_show_help)
        elif not eq or flag not in options:
            unknown.append(token)
            continue
        values[options[flag].dest] = _convert(options[flag], text)
    # a required option has no default, and a value given is never None
    missing = [o.flag for o in options.values() if o.required and values[o.dest] is None]
    if missing:
        raise UsageError(f"the following arguments are required: {', '.join(missing)}")
    if unknown:
        raise UsageError(f"unrecognized arguments: {' '.join(unknown)}")
    return SimpleNamespace(command=command, func=func, **values)


def main(argv=None) -> int:
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
        doc = args.func(args)
        print(doc if args.func is _show_help else VIEWS[args.command][args.format](doc))
        sys.stdout.flush()
        return EXIT_OK
    except BrokenPipeError:
        # the reader went away (`bundleaut table | head -1`): send the rest of
        # the output, and the flush at exit, to /dev/null ("Note on SIGPIPE"
        # in the Python docs for the signal module)
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return EXIT_USAGE
    except (UsageError, InvalidDegree, GenusOutOfRange, InvalidType) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InconsistentProfile as exc:
        print(f"inconsistent profile: {exc}", file=sys.stderr)
        return EXIT_INCONSISTENT
    except ConsistencyError as exc:
        print(f"internal consistency failure: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
