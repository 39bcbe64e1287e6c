"""Command-line front end.

Subcommands: report (per-group invariants and the automorphism
presentation), table (the full classification table), delta (the local
invariant calculator), rootdata (root-system dump).  Output formats are
text, json, and latex; identical flags always produce byte-identical
output.  Exit codes: 0 success, 1 usage or parse error (or stdout closed
before the output was written), 2 mathematical inconsistency in the input
(e.g. a parity violation in a delta profile), 3 internal consistency
failure (a cross-check of the program's own results failed).

`main(argv)` may be called repeatedly in one process, as a library or
notebook does: it builds its argument parser on the first call and reuses
it for every later one.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from dataclasses import dataclass

from . import groupclass, moduli, weyl
from .finabel import lattice_quotient
from .groupclass import GroupForm, InvalidDegree
from .moduli import GenusOutOfRange, InconsistentProfile
from .rootdata import (
    DEFAULT_MAX_RANK,
    ConsistencyError,
    DynkinType,
    InvalidType,
    ambient_simple_roots,
    build_root_datum,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INCONSISTENT = 2
EXIT_INTERNAL = 3


class UsageError(ValueError):
    pass


# ---------------------------------------------------------------------------
# group-spec grammar


_TYPED = re.compile(r"^([a-g])(\d+)(?::(.+))?$")
_EXCEPTIONAL = re.compile(r"^([efg])(\d)(sc|ad|adjoint)$")
_SL_MU = re.compile(r"^sl(\d+)/?mu(\d+)$")
# a matrix-group alias is a name and a size m: SL_m is of type A_{m-1},
# Sp_m of type C_{m/2}, an orthogonal group of type D_{m/2}, and Spin_m and
# SO_m of type B_{(m-1)/2} for odd m
_MATRIX = re.compile(r"^(spin|semispin|pso|so|psl|sl|psp|sp)(\d+)$")
_MATRIX_TOKENS = {"spin": "sc", "semispin": "semispin", "pso": "adjoint", "so": "so",
                  "psl": "adjoint", "sl": "sc", "psp": "adjoint", "sp": "sc"}


def _type_and_token(spec: str) -> tuple[DynkinType, str]:
    """The Dynkin type and form token a group spec names; whether the type
    has that form is `groupclass.form_by_name`'s to decide."""
    text = spec.strip().lower().replace("_", "").replace(" ", "")
    m = _TYPED.match(text)
    if m:
        return DynkinType(m.group(1).upper(), int(m.group(2))), m.group(3) or "sc"
    m = _EXCEPTIONAL.match(text)
    if m:
        return DynkinType(m.group(1).upper(), int(m.group(2))), m.group(3)
    m = _SL_MU.match(text)
    if m:
        return DynkinType("A", int(m.group(1)) - 1), f"mu{int(m.group(2))}"
    m = _MATRIX.match(text)
    if not m:
        raise UsageError(f"cannot parse group spec {spec!r}")
    name, size = m.group(1), int(m.group(2))
    if name in ("sl", "psl"):
        return DynkinType("A", size - 1), _MATRIX_TOKENS[name]
    if size % 2 == 0:
        family = "C" if name in ("sp", "psp") else "D"
        return DynkinType(family, size // 2), _MATRIX_TOKENS[name]
    if name in ("spin", "so"):
        return DynkinType("B", (size - 1) // 2), _MATRIX_TOKENS[name]
    raise UsageError(f"group spec {spec!r}: no {name} group in odd dimension {size}")


def parse_group_spec(spec: str) -> GroupForm:
    """`<TYPE><rank>:<form>` with form a token of `groupclass.form_by_name`
    (`ad` abbreviates `adjoint`), or an alias such as Spin8, PSL4, Sp6, SO10,
    SemiSpin12, E6_sc, E8_ad."""
    try:
        t, form = _type_and_token(spec)
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
    try:
        coords = tuple(int(p) for p in parts)
    except ValueError as exc:
        raise UsageError(f"cannot parse delta {text!r}: {exc}") from exc
    if pi1.is_trivial and coords in ((), (0,)):
        return ()
    try:
        return groupclass.validate_delta(gf, coords)
    except InvalidDegree as exc:
        valid = ", ".join(moduli.render_element(x) for x in pi1.elements())
        raise UsageError(f"{exc}; valid values: {valid}") from exc


# ---------------------------------------------------------------------------
# report document


@dataclass
class ReportDocument:
    schema: str
    group: dict
    genus: int
    delta: list
    delta_class: str | None
    presentation: str | None
    actions: dict
    hitchin: dict
    provenance: dict
    warnings: list

    def to_dict(self) -> dict:
        """`dataclasses.asdict` for these JSON-valued fields: every dict and
        list is a fresh copy, and the str, int and None leaves are shared."""
        return {name: _fresh(value) for name, value in vars(self).items()}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), ensure_ascii=False, indent=2, sort_keys=True)

    @classmethod
    def from_dict(cls, d: dict) -> "ReportDocument":
        return cls(**d)

    @classmethod
    def from_json(cls, text: str) -> "ReportDocument":
        return cls.from_dict(json.loads(text))


def _fresh(value):
    if isinstance(value, dict):
        return {k: _fresh(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_fresh(v) for v in value]
    return value


_PROVENANCE = {
    "center_chars": "annihilator of mu inside the lattice quotient P/Q",
    "pi1": "coweight-lattice quotient in Smith normal form",
    "out": "Cartan-preserving node permutations acting on lattice classes",
    "presentation": "semidirect assembly from the stabilizer of the component label",
    "weights": "cyclotomic factorization of the Coxeter characteristic polynomial",
    "dim_basis": "Riemann-Roch sum cross-checked against dim G (g-1)",
    "m_ab_components": "orbit count on roots",
    "n_extra_components": "orbit count on unordered pairs of distinct hyperplanes",
}


def build_report(gf: GroupForm, delta, genus: int) -> ReportDocument:
    warnings = []
    presentation = None
    delta_class = None
    actions = {}
    if genus >= moduli.MIN_GENUS_PRESENTATION:
        pres = moduli.aut_presentation(gf, delta, genus)
        presentation = pres.render()
        actions = pres.action_descriptions()
        cls = next(c for c in gf.delta_classes if tuple(delta) in c)
        delta_class = moduli.delta_class_label(gf, cls)
    else:
        warnings.append(
            "presentation requires genus >= 4; emitting Hitchin numerology only")
    hr = moduli.hitchin_report(gf, genus)
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
        hitchin=hr.as_dict(),
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
        delta = moduli.render_element(doc.delta)
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


def _latexify(text: str) -> str:
    text = re.sub(r"Z/(\d+)Z", r"\\mathbb{Z}/\1\\mathbb{Z}", text)
    for src, dst in _LATEX_MAP:
        text = text.replace(src, dst)
    return re.sub(r"\s+", " ", text).strip()


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
# subcommands


def cmd_report(args) -> int:
    gf = parse_group_spec(args.group)
    delta = parse_delta(args.delta, gf)
    doc = build_report(gf, delta, args.genus)
    if args.format == "json":
        print(doc.to_json())
    elif args.format == "latex":
        print(render_report_latex(doc))
    else:
        print(render_report_text(doc, _color_enabled()))
    return EXIT_OK


def table_lines(rows) -> list[str]:
    return [f"{r.family} | {r.group} | {r.delta_class} | {r.presentation}"
            for r in rows]


def render_table_latex(rows) -> str:
    lines = []
    for r in rows:
        family = r.family.replace("_", "_{") + "}" if "_" in r.family else r.family
        group = r.group.replace("_", r"\_")
        lines.append(
            f"${family}$ & {group} & ${_latexify(r.delta_class)}$ & "
            f"${_latexify(r.presentation)}$ \\\\")
    return "\n".join(lines)


def cmd_table(args) -> int:
    if args.max_rank < 2:
        # A_1 = SL_2, the smallest type, needs a bound of 2
        raise UsageError(f"--max-rank must be at least 2, got {args.max_rank}")
    rows = moduli.classification_table(args.genus, args.max_rank)
    if args.format == "json":
        doc = {
            "schema": "bundleaut.table/1",
            "genus": args.genus,
            "max_rank": args.max_rank,
            "rows": [r.as_dict() for r in rows],
        }
        print(json.dumps(doc, ensure_ascii=False, indent=2, sort_keys=True))
    elif args.format == "latex":
        print(render_table_latex(rows))
    else:
        print("\n".join(table_lines(rows)))
    return EXIT_OK


_PROFILE_RE = re.compile(r"^(\d+):(\d+)$")


def parse_profile(text: str) -> list[tuple[int, int]]:
    points = []
    for token in text.split(","):
        token = token.strip()
        m = _PROFILE_RE.match(token)
        if not m:
            raise UsageError(
                f"profile entry {token!r} does not match <deg>:<drop>")
        points.append((int(m.group(1)), int(m.group(2))))
    return points


def cmd_delta(args) -> int:
    points = parse_profile(args.profile)
    locals_ = [moduli.delta_local(p) for p in points]
    total = sum(locals_)
    if args.format == "json":
        doc = {
            "schema": "bundleaut.delta/1",
            "points": [
                {"deg": d, "drop": s, "delta": v}
                for (d, s), v in zip(points, locals_)
            ],
            "total": total,
        }
        print(json.dumps(doc, ensure_ascii=False, indent=2, sort_keys=True))
    else:
        for (d, s), v in zip(points, locals_):
            print(f"deg = {d}, stabilizer rank drop = {s}  ->  delta_p = {v}")
        print(f"total delta = {total}")
    return EXIT_OK


def cmd_rootdata(args) -> int:
    t = DynkinType.parse(args.type)  # InvalidType is a usage error in `main`
    rd = build_root_datum(t)
    ambient_dim, simple_roots = ambient_simple_roots(t)
    degrees = weyl.invariant_degrees(t)
    # P/Q is Z^r, in fundamental-weight coordinates, modulo the simple
    # roots, which are the columns of A there
    weight_quotient = lattice_quotient(list(zip(*rd.cartan))).group.symbol()
    m, n = weyl.discriminant_orbit_counts(t)
    ordered = weyl.ordered_root_pair_orbit_count(t)
    order = weyl.weyl_order(t)
    if args.format == "json":
        doc = {
            "schema": "bundleaut.rootdata/1",
            "type": t.label,
            "rank": rd.rank,
            "ambient_dim": ambient_dim,
            "num_roots": len(rd.roots),
            "simple_roots": [[str(c) for c in v] for v in simple_roots],
            "cartan": [list(row) for row in rd.cartan],
            "degrees": list(degrees),
            "coxeter_number": degrees[-1],
            "weyl_order": order,
            "weight_quotient": weight_quotient,
            "num_hyperplanes": len(rd.roots) // 2,
            "root_orbit_count": m,
            "hyperplane_pair_orbit_count": n,
            "ordered_root_pair_orbit_count": ordered,
        }
        print(json.dumps(doc, ensure_ascii=False, indent=2, sort_keys=True))
    else:
        colored = _color_enabled()
        print(_styled(f"type {t.label}", colored))
        print(f"  rank {rd.rank}, ambient dimension {ambient_dim}, "
              f"{len(rd.roots)} roots, {len(rd.roots) // 2} hyperplanes")
        print("  simple roots:")
        for i, v in enumerate(simple_roots):
            print(f"    a_{i + 1} = ({', '.join(str(c) for c in v)})")
        print("  Cartan matrix:")
        for row in rd.cartan:
            print("    [" + " ".join(f"{x:2d}" for x in row) + "]")
        print(f"  invariant degrees: {list(degrees)}   "
              f"(Coxeter number h = {degrees[-1]})")
        print(f"  |W| = {order}")
        print(f"  P/Q = {weight_quotient}")
        print(f"  orbit counts: roots m = {m}, distinct hyperplane pairs n = {n}, "
              f"ordered root pairs = {ordered}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point


def _color_enabled() -> bool:
    return os.environ.get("BUNDLEAUT_COLOR") == "1"


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def make_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="bundleaut", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("report", help="invariants and automorphism presentation")
    p.add_argument("--group", required=True, help="group spec, e.g. D4:adjoint or Spin8")
    p.add_argument("--genus", type=int, default=4)
    p.add_argument("--delta", default=None, help="component label, e.g. 0,0")
    p.add_argument("--format", choices=("text", "json", "latex"), default="text")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("table", help="full classification table")
    p.add_argument("--genus", type=int, default=4)
    p.add_argument("--max-rank", type=int, default=DEFAULT_MAX_RANK, dest="max_rank")
    p.add_argument("--format", choices=("text", "json", "latex"), default="text")
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("delta", help="local invariant calculator")
    p.add_argument("--profile", required=True,
                   help="comma-separated <deg>:<drop> entries, e.g. 4:0,3:1")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_delta)

    p = sub.add_parser("rootdata", help="root system data dump")
    p.add_argument("--type", required=True, help="Dynkin type, e.g. E6")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_rootdata)

    return parser


_parser = None  # built by the first `main` call, not on import


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = make_parser()
    try:
        args = _parser.parse_args(argv)
        code = args.func(args)
        sys.stdout.flush()
        return code
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
