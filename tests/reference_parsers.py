"""Second readings of the command-line grammars, which `test_cli_fuzz.py`
compares with `bundleaut.cli`, namespaces, results and error messages alike.
`parse_args` is a short reading of the exact-flag grammar of argv, written
apart from the package's, which walks argv by index and tracks the options
given in a set.  The others are the parsers as they were before they were
read with `str` methods and without `re`: `parse_delta` with every part of a
delta matched by a regex, and the group-spec grammar, the profile grammar and
`latexify`'s two substitutions as regexes.  Only `COMMANDS`, the handlers,
the error classes, `_number` (which reads a spec's digits) and `_LATEX_MAP`
are taken from the package.

One change is made to the regex `parse_delta`: it checks each part against
the 600-digit ceiling of a genus and a profile number before `int`, as the
package does, so that a part `int` cannot read gives a short message.
"""

import re
from types import SimpleNamespace

from bundleaut import groupclass
from bundleaut.cli import COMMANDS, _LATEX_MAP, UsageError, _number, _show_help, _within
from bundleaut.groupclass import InvalidDegree
from bundleaut.moduli import MAX_DIGITS
from bundleaut.rootdata import DynkinType

_INTEGER = re.compile(r"[+-]?[0-9]+")


def _convert(option, text):
    if option.kind is int:
        try:
            return int(text)
        except ValueError:
            raise UsageError(f"argument {option.flag}: invalid int value: {text!r}") from None
    if isinstance(option.kind, tuple) and text not in option.kind:
        raise UsageError(f"argument {option.flag}: invalid choice: {text!r} "
                         f"(choose from {', '.join(option.kind)})")
    return text


def parse_args(argv):
    """The first token is -h, --help or a command.  After it, a token equal
    to one of the command's flags takes the next token as its value, and
    `<flag>=<value>` sets it too; the last value given wins.  -h or --help
    is the help, unless a value was rejected before it.  Every other token
    is a stray, reported after a missing required option."""
    argv = list(argv)
    choices = ", ".join(COMMANDS)
    if not argv:
        raise UsageError(f"no command given (choose from {choices})")
    if argv[0] in ("-h", "--help"):
        return SimpleNamespace(command=None, func=_show_help)
    if argv[0] not in COMMANDS:
        raise UsageError(f"invalid command: {argv[0]!r} (choose from {choices})")
    command = argv[0]
    func, _, options = COMMANDS[command]
    by_flag = {o.flag: o for o in options}
    values = {o.dest: o.default for o in options}
    given, strays = set(), []
    i = 1
    while i < len(argv):
        token = argv[i]
        if token in ("-h", "--help"):
            return SimpleNamespace(command=command, func=_show_help)
        if token in by_flag:
            if i + 1 == len(argv):
                raise UsageError(f"argument {token}: expected one argument")
            flag, text = token, argv[i + 1]
            i += 2
        elif token.split("=", 1)[0] in by_flag and "=" in token:
            flag, text = token.split("=", 1)
            i += 1
        else:
            strays.append(token)
            i += 1
            continue
        values[by_flag[flag].dest] = _convert(by_flag[flag], text)
        given.add(flag)
    missing = [o.flag for o in options if o.required and o.flag not in given]
    if missing:
        raise UsageError(f"the following arguments are required: {', '.join(missing)}")
    if strays:
        raise UsageError(f"unrecognized arguments: {' '.join(strays)}")
    return SimpleNamespace(command=command, func=func, **values)


def parse_delta(text, gf):
    pi1 = gf.pi1
    if text is None:
        return pi1.zero()
    parts = [p for p in text.strip().strip("()").split(",") if p != ""]
    for k, p in enumerate(parts, 1):
        _within(f"part {k} of --delta", p.strip().lstrip("+-"), MAX_DIGITS)
    try:
        coords = tuple(int(p) for p in parts)
    except ValueError as exc:
        raise UsageError(f"cannot parse delta {text!r}: {exc}") from exc
    for p in parts:
        if not _INTEGER.fullmatch(p.strip()):
            raise UsageError(f"cannot parse delta {text!r}: {p!r} is not an integer "
                             "in the digits 0-9")
    if pi1.is_trivial and coords in ((), (0,)):
        return ()
    try:
        return groupclass.validate_delta(gf, coords)
    except InvalidDegree as exc:
        valid = ", ".join(groupclass.render_element(x) for x in pi1.elements())
        raise UsageError(f"{exc}; valid values: {valid}") from exc


_TYPED = re.compile(r"^([a-g])([0-9]+)(?::(.+))?$")
_EXCEPTIONAL = re.compile(r"^([efg])([0-9])(sc|ad|adjoint)$")
_SL_MU = re.compile(r"^sl([0-9]+)/?mu([0-9]+)$")
_MATRIX = re.compile(r"^(spin|semispin|pso|so|psl|sl|psp|sp)([0-9]+)$")
_MATRIX_TOKENS = {"spin": "sc", "semispin": "semispin", "pso": "adjoint", "so": "so",
                  "psl": "adjoint", "sl": "sc", "psp": "adjoint", "sp": "sc"}


def type_and_token(spec):
    text = spec.strip().lower().replace("_", "").replace(" ", "")
    m = _TYPED.match(text)
    if m:
        return DynkinType(m.group(1).upper(), _number(m.group(2))), m.group(3) or "sc"
    m = _EXCEPTIONAL.match(text)
    if m:
        return DynkinType(m.group(1).upper(), int(m.group(2))), m.group(3)
    m = _SL_MU.match(text)
    if m:
        return DynkinType("A", _number(m.group(1)) - 1), f"mu{_number(m.group(2))}"
    m = _MATRIX.match(text)
    if not m:
        raise UsageError(f"cannot parse group spec {spec!r}")
    name, size = m.group(1), _number(m.group(2))
    if name in ("sl", "psl"):
        return DynkinType("A", size - 1), _MATRIX_TOKENS[name]
    if size % 2 == 0:
        family = "C" if name in ("sp", "psp") else "D"
        return DynkinType(family, size // 2), _MATRIX_TOKENS[name]
    if name in ("spin", "so"):
        return DynkinType("B", (size - 1) // 2), _MATRIX_TOKENS[name]
    raise UsageError(f"group spec {spec!r}: no {name} group in odd dimension {size}")


_PROFILE_RE = re.compile(r"^([0-9]+):([0-9]+)$")


def parse_profile(text):
    points = []
    for k, token in enumerate(text.split(","), 1):
        token = token.strip()
        m = _PROFILE_RE.match(token)
        if not m:
            raise UsageError(
                f"profile entry {token!r} does not match <deg>:<drop>")
        for digits in m.groups():
            _within(f"a number of profile entry {k}", digits, MAX_DIGITS)
        points.append((int(m.group(1)), int(m.group(2))))
    return points


def latexify(text):
    text = re.sub(r"Z/(\d+)Z", r"\\mathbb{Z}/\1\\mathbb{Z}", text)
    for src, dst in _LATEX_MAP:
        text = text.replace(src, dst)
    return re.sub(r"\s+", " ", text).strip()
