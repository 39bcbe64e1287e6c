"""Hypothesis fuzzing of the command line: any argv ends in exit 0, 1 or 2,
and `parse_args` and `parse_delta` return the namespace, the label or the
error message of the parsers they replaced (`reference_parsers.py`).

Generated ranks are at most 8, or just above the supported ceilings
(`rootdata.MAX_RANK` for a type or group spec, `MAX_TABLE_RANK` for
`table --max-rank`).  Above a ceiling every command must exit 1 before it
builds anything, so no command runs at a rank past 8.  Every numeric field
(a spec rank, `--genus`, `--max-rank`, a delta part, a profile entry) also
draws long numbers: at the digit ceilings of a genus and a profile entry,
one digit past them, and around the 4300 digits that `int` converts to and
from text; every number past those ceilings must exit 1.  Free text is
drawn without decimal digits, so it names no rank either.  Specs, delta
labels, profiles and argv tokens are also drawn with a final or an inner
newline, and numbers in decimal digits other than 0-9.  Every test has a
fixed example budget and a derandomized seed, so the suite runs the same
examples each time.

The group-spec and profile grammars and `_latexify` are read with `str`
methods; each is compared with the regex it replaced (`reference_parsers.py`),
whose `$` also matches before a final newline.  `parse_args` is compared
with a second reading of its exact-flag grammar on every generated argv,
flags cut to prefixes and odd tokens included, and with argparse on the
argv that both grammars read alike.
"""

import contextlib
import io
import re

import pytest

pytest.importorskip("hypothesis")

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from bundleaut import moduli
from bundleaut.cli import (
    COMMANDS,
    UsageError,
    _latexify,
    _type_and_token,
    main,
    parse_args,
    parse_delta,
    parse_group_spec,
    parse_profile,
)
from bundleaut.groupclass import GroupForm, enumerate_forms
from bundleaut.moduli import MAX_DIGITS, table_types
from bundleaut.rootdata import MAX_RANK as RANK_CEILING
from bundleaut.rootdata import MAX_TABLE_RANK, DynkinType, InvalidType
import reference_parsers
from test_cli import reference_outcome, table_outcome

MAX_RANK = 8


def budget(n: int):
    return settings(max_examples=n, deadline=None, derandomize=True, database=None)


free_text = st.text(st.characters(blacklist_categories=("Nd", "Cs")), max_size=12)
# the digit ceiling, and the 4300 digits of `int`'s text conversion
long_numbers = st.sampled_from(
    [MAX_DIGITS, MAX_DIGITS + 1, 4299, 4300, 4301, 5000]).map(lambda k: "9" * k)
# decimal digits other than 0-9, which `int` and `isdecimal` read and `[0-9]`
# does not: Arabic-Indic, Bengali, fullwidth and mathematical digits
other_digits = st.sampled_from(["٣", "٨", "৪", "５", "𝟠"])


@st.composite
def newlined(draw, texts):
    """A text of `texts`, as it is or with a newline: at its end, at its end
    before an `_` (which a group spec drops after its `strip`), or inside it."""
    text = draw(texts)
    where = draw(st.sampled_from(["", "", "", "end", "end_", "inner"]))
    if where == "inner":
        i = draw(st.integers(0, len(text)))
        return text[:i] + "\n" + text[i:]
    return text + {"": "", "end": "\n", "end_": "\n_"}[where]


@st.composite
def typed_specs(draw) -> str:
    family = draw(st.sampled_from("ABCDEFGHabcdefg"))
    sep = draw(st.sampled_from(["", "_"]))
    form = draw(st.sampled_from(
        ["", "sc", "adjoint", "ad", "so", "semispin", "mu", "mu0", "mu1", "mu2", "mu3",
         "mu4", "mu9", "x"]))
    # a rank in digits other than 0-9, which the parsers reject: superscripts,
    # which `int` rejects too, and other decimal digits, which it reads
    rank = draw(st.integers(0, MAX_RANK).map(str) | st.sampled_from(["²", "⁸"]) | other_digits
                | st.integers(RANK_CEILING + 1, RANK_CEILING + 3).map(str) | long_numbers)
    spec = f"{family}{sep}{rank}"
    return f"{spec}:{form}" if form else spec


@st.composite
def alias_specs(draw) -> str:
    name = draw(st.sampled_from(
        ["Spin", "SemiSpin", "SO", "PSO", "Sp", "PSp", "SL", "PSL", "SL/mu"]))
    # the matrix size m of a rank <= 8 group: SL_m has rank m - 1, the
    # orthogonal and symplectic groups rank m // 2
    # or of a group just above the rank ceiling
    scale = 1 if name.startswith(("SL", "PSL")) else 2
    m = draw(st.integers(0, scale * MAX_RANK + 1)
             | st.integers(scale * (RANK_CEILING + 1) + 1, scale * (RANK_CEILING + 1) + 3))
    sep = draw(st.sampled_from(["", "_"]))
    size = draw(st.just(str(m)) | long_numbers)
    if name == "SL/mu":
        k = draw(st.integers(0, m + 2).map(str) | long_numbers)
        return f"SL{sep}{size}/mu{sep}{k}"
    return f"{name}{sep}{size}"


group_specs = newlined(st.one_of(
    typed_specs(), alias_specs(),
    st.sampled_from(["E6_sc", "E6ad", "E7_adjoint", "E7sc", "E8", "F4", "G2", "E9", "G_2",
                     "E8_sc", "E8_ad", "F4_sc", "G2_ad", "E٨sc"]),
    free_text))

delta_texts = newlined(st.one_of(
    st.lists(st.integers(-3, 12).map(str) | long_numbers | other_digits, max_size=3)
    .map(",".join),
    st.lists(st.integers(0, 4), min_size=1, max_size=3).map(
        lambda xs: "(" + ",".join(map(str, xs)) + ")"),
    free_text))

profile_numbers = st.integers(0, 40).map(str) | long_numbers | other_digits
profile_texts = newlined(st.one_of(
    st.lists(st.tuples(profile_numbers, profile_numbers), min_size=1, max_size=4)
    .map(lambda ps: ",".join(f"{d}:{s}" for d, s in ps)),
    # many entries of one long number, whose sum has more digits than each
    st.tuples(long_numbers, st.integers(1, 30)).map(lambda nk: ",".join([f"{nk[0]}:1"] * nk[1])),
    free_text))

FORMS = [gf for t in table_types(MAX_RANK) for gf in enumerate_forms(t)]
formats = st.sampled_from(["text", "json", "latex", "xml"])
genera = st.one_of(st.integers(-2, 12).map(str), long_numbers, long_numbers.map("-".__add__),
                   other_digits, other_digits.map("-".__add__), free_text)


@st.composite
def report_argvs(draw) -> list[str]:
    argv = ["report", f"--group={draw(group_specs)}", f"--genus={draw(genera)}",
            f"--format={draw(formats)}"]
    delta = draw(st.none() | delta_texts)
    return argv if delta is None else argv + [f"--delta={delta}"]


argvs = st.one_of(
    report_argvs(),
    st.builds(lambda g, r, f: ["table", f"--genus={g}", f"--max-rank={r}", f"--format={f}"],
              genera, (st.integers(-1, MAX_RANK) | st.integers(MAX_TABLE_RANK + 1,
                                                               MAX_TABLE_RANK + 3)).map(str)
              | long_numbers,
              formats),
    st.builds(lambda p, f: ["delta", f"--profile={p}", f"--format={f}"], profile_texts, formats),
    st.builds(lambda t, f: ["rootdata", f"--type={t}", f"--format={f}"],
              typed_specs().map(lambda s: s.split(":")[0]) | free_text, formats),
    st.lists(free_text, max_size=3),
)


@budget(400)
@given(group_specs)
def test_parse_group_spec_returns_an_enumerated_form_or_usage_error(spec):
    try:
        gf = parse_group_spec(spec)
    except UsageError:
        return
    assert isinstance(gf, GroupForm)
    assert gf.dynkin.rank <= RANK_CEILING
    assert any(gf is f for f in enumerate_forms(gf.dynkin))
    # a typed spec, <TYPE><rank>[:<token>], returns a form carrying its token
    text = spec.strip().lower().replace("_", "").replace(" ", "")
    typed = re.match(r"^[a-g]\d+(?::(.+))?$", text)
    if typed:
        token = typed.group(1) or "sc"
        assert ("adjoint" if token == "ad" else token) in gf.tokens, (spec, gf.tokens)


@budget(300)
@given(st.sampled_from(FORMS), st.none() | delta_texts)
def test_parse_delta_returns_a_label_or_usage_error(gf, text):
    try:
        delta = parse_delta(text, gf)
    except UsageError:
        return
    assert gf.pi1.contains(delta)


@budget(300)
@given(profile_texts)
def test_parse_profile_returns_points_or_usage_error(text):
    try:
        points = parse_profile(text)
    except UsageError:
        return
    assert points and all(d >= 0 and s >= 0 for d, s in points)


@budget(300)
@given(argvs)
@example(["rootdata", "--type=A²", "--format=text"])
def test_main_exits_0_1_or_2_without_traceback(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)  # -h returns 0 like any command, it does not exit
    # an uncaught exception fails the test here, as a traceback would
    assert code in (0, 1, 2), (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue()
    rank = drawn_max_rank(argv)
    if rank is not None and not 2 <= rank <= MAX_TABLE_RANK:
        assert code == 1, (argv, code, err.getvalue())
    rank = drawn_type_rank(argv)
    if rank is not None and rank > RANK_CEILING:
        assert code == 1, (argv, code, err.getvalue())
    # no field takes a number past the genus and profile ceilings
    if re.search(f"[0-9]{{{MAX_DIGITS + 1}}}", " ".join(argv)):
        assert code == 1, (argv[:1], code, err.getvalue()[:200])


def drawn_max_rank(argv) -> int | None:
    """The `--max-rank` of a generated `table` argv, None for any other."""
    for arg in argv:
        if arg.startswith("--max-rank="):
            value = arg.partition("=")[2]
            if not value.lstrip("-").isdigit():
                return None
            # a long number is past the ceiling; `int` reads at most 4300 digits
            return int(value) if len(value) <= MAX_DIGITS else MAX_TABLE_RANK + 1
    return None


def drawn_type_rank(argv) -> int | None:
    """The rank of the type a generated `rootdata` or `report` argv names,
    None where it names none."""
    for arg in argv:
        flag, _, value = arg.partition("=")
        try:
            if flag == "--type":
                return DynkinType.parse(value).rank
            if flag == "--group":
                return _type_and_token(value)[0].rank
        except (InvalidType, UsageError):
            return None
    return None


# tokens argparse reads in ways a generated argv rarely reaches alone
ODD_TOKENS = ["-h", "--help", "--he", "-hh", "-h=x", "--", "-", "-2", "-1.5", "-x y",
              "--genus", "--g", "--format=json", "--max", "extra", "", "-.5", "-5.", "-٣",
              "-2\n"]


@st.composite
def reshaped_argvs(draw) -> list[str]:
    """An argv of `argvs` with each `--opt=value` cut to a prefix of at least
    `--x` and kept joined or split in two, up to two odd tokens put in, and
    any token given a newline."""
    out = []
    for token in draw(argvs):
        flag, eq, value = token.partition("=")
        if eq and flag.startswith("--"):
            flag = flag[:draw(st.integers(3, len(flag)))]
            out += draw(st.sampled_from([[f"{flag}={value}"], [flag, value]]))
        else:
            out.append(token)
    for odd in draw(st.lists(st.sampled_from(ODD_TOKENS), max_size=2)):
        out.insert(draw(st.integers(0, len(out))), odd)
    return [draw(newlined(st.just(token))) for token in out]


def read_alike_by_argparse(argv) -> bool:
    """Whether argparse, with no flag cut to a prefix, reads argv as the
    exact-flag grammar does: argv has no `-...` token in a value position,
    which argparse reads as an option, no `-h` bundle (`-hh`, `-h=x`) or
    `--help=x`, which argparse reads as -h, no option before the command,
    which argparse reads, and no `--`, after which argparse reads no option."""
    if not argv or argv[0] not in COMMANDS:  # no token after it is read
        return not argv or argv[0][:1] != "-" or argv[0] in ("-h", "--help")
    flags = {o.flag for o in COMMANDS[argv[0]][2]}
    value_position = False
    for token in argv[1:]:
        if token == "--" or token[:2] == "-h" != token or token.startswith("--help="):
            return False
        if value_position and token[:1] == "-":
            return False
        value_position = not value_position and token in flags
    return True


@budget(600)
@given(reshaped_argvs())
@example(["table", "--genus", "5", "--genus=-3"])
@example(["report", "--group", "A1", "--gr", "B2", "-h"])
def test_option_table_accepts_and_rejects_as_argparse_did(argv):
    # argparse turned an attached `--` (`--group=--`) into an empty list, a
    # value no handler can read; the table keeps the text (test_cli.py)
    assume(not any(token.startswith("--") and token.endswith("=--") for token in argv))
    assume(read_alike_by_argparse(argv))
    assert table_outcome(argv) == reference_outcome(argv), argv


def outcome(parse, *args) -> tuple:
    """("ok", the fields of the namespace or the label) or ("error", the
    message) of one parse."""
    try:
        result = parse(*args)
    except UsageError as exc:
        return ("error", str(exc))
    return ("ok", vars(result) if hasattr(result, "__dict__") else result)


@budget(600)
@given(reshaped_argvs())
@example(["-h", "report"])
@example(["--hel", "report"])
@example(["-x", "report", "--group", "A1", "-h"])
@example(["report", "--group", "A1", "--", "--genus", "5"])
@example(["report", "--gro", "A1", "--help=x"])
@example(["table", "--genus", "-3", "--max-rank=-1", "--format"])
def test_parse_args_matches_the_reference_parser(argv):
    assert outcome(parse_args, argv) == outcome(reference_parsers.parse_args, argv), argv


@budget(300)
@given(st.sampled_from(FORMS), st.none() | delta_texts)
@example(FORMS[0], "1_0")
@example(FORMS[0], "٣")
@example(FORMS[0], " +1 , -0 ")
@example(FORMS[0], "\u20031")
@example(FORMS[0], "+-1")
@example(FORMS[0], "(1,,2)")
def test_parse_delta_matches_the_reference_parser(gf, text):
    assert outcome(parse_delta, text, gf) == outcome(reference_parsers.parse_delta, text, gf)


def spec_outcome(parse, spec) -> tuple:
    """("ok", type, token) or (error class, message) of one group spec."""
    try:
        return ("ok", *parse(spec))
    except (UsageError, InvalidType) as exc:
        return (type(exc).__name__, str(exc))


@budget(600)
@given(group_specs)
@example("a3:s\nc")
@example("A3:")
@example("E٨sc")
@example("sl4/mu2")
@example("sl4mu2")
@example("semispin8")
@example("so7")
@example("so8")
@example("A3:sc\n_")
@example("E8sc\n_")
@example("SL4//mu2")
@example("Spin8\n\n_")
def test_type_and_token_matches_the_reference(spec):
    assert spec_outcome(_type_and_token, spec) == spec_outcome(reference_parsers.type_and_token,
                                                               spec)


@budget(300)
@given(profile_texts)
@example("4:0\n_")
@example("٣:1")
@example("4:")
@example(":4")
@example("4:0:1")
@example(" 4:0 ,\t3:1\n")
def test_parse_profile_matches_the_reference(text):
    assert outcome(parse_profile, text) == outcome(reference_parsers.parse_profile, text)


digit_runs = st.text(st.sampled_from("0129.x") | other_digits, max_size=3)
TABLE_FLAGS = ("-h", "--help", *(o.flag for o in COMMANDS["table"][2]))


@budget(300)
@given(newlined(st.builds("-{}{}".format, digit_runs, digit_runs)),
       st.sampled_from([("-h", "--help"), TABLE_FLAGS]))
@example("-5\n", ("-h", "--help"))
@example("-.5", ("-h", "--help"))
@example("-5.", ("-h", "--help"))
@example("-٣", ("-h", "--help"))
def test_negative_numbers_are_read_as_the_reference_reads_them(token, flags):
    # the token after a flag is its value, whatever it looks like, and after
    # -h it is not read
    for flag in flags:
        argv = ["table", flag, token]
        assert outcome(parse_args, argv) == outcome(reference_parsers.parse_args, argv), argv


@budget(400)
@given(st.lists(st.sampled_from([*"Z/019 xZ", "\t", "\n", "\x1c", "\u2003", "×", "δ", "{0}"])
                | other_digits, max_size=24).map("".join))
@example("Z/2Z/3Z")
@example("Z/٣Z")
@example("ZZ/2Z")
@example("Z/2ZZ/3Z")
@example("Z/Z")
@example(" Z/2Z \n× Z/4Z\t")
def test_latexify_matches_the_reference(text):
    assert _latexify(text) == reference_parsers.latexify(text)


def test_latexify_matches_the_reference_on_every_latex_view_text():
    # the group symbols, presentations and class labels the latex views of
    # `report` and `table` pass it, for every form of rank <= 16
    texts = set()
    for t in table_types(16):
        for gf in enumerate_forms(t):
            texts.update([gf.chars.structure.symbol(), gf.pi1.symbol(), gf.out.symbol()])
            for delta in gf.pi1.elements():
                comp = moduli.component(gf, tuple(delta))
                texts.update([comp.presentation, comp.delta_class])
    assert any("Z/" in text for text in texts)
    assert [text for text in sorted(texts)
            if _latexify(text) != reference_parsers.latexify(text)] == []
