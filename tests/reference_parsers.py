"""The command-line parsers as they were before they were read with fewer
calls and without `re`: `parse_args` with every token classified by
`_classify`, whose negative number is a regex; `parse_delta` with every part
of a delta matched by a regex; and the group-spec grammar, the profile
grammar and `latexify`'s two substitutions as regexes.  `test_cli_fuzz.py`
compares the namespaces, the results and the error messages of
`bundleaut.cli` with these.  Only `COMMANDS`, the handlers, the error
classes, `_number` (which reads a spec's digits) and `_LATEX_MAP` are taken
from the package.

One change is made to the parent's code: `parse_delta` checks each part
against the 600-digit ceiling of a genus and a profile number before `int`,
as the package does, so that a part `int` cannot read gives a short message.
"""

import re
from types import SimpleNamespace

from bundleaut import groupclass
from bundleaut.cli import COMMANDS, _LATEX_MAP, UsageError, _number, _show_help, _within
from bundleaut.groupclass import InvalidDegree
from bundleaut.moduli import MAX_DIGITS
from bundleaut.rootdata import DynkinType

_HELP = ("-h", "--help")
_GRAMMARS = {
    command: SimpleNamespace(
        func=func,
        flags=(*_HELP, *(o.flag for o in options)),
        by_flag={o.flag: o for o in options},
        dests={o.flag: o.dest for o in options},
        defaults={o.dest: o.default for o in options},
        required=tuple(o.flag for o in options if o.required))
    for command, (func, _, options) in COMMANDS.items()
}
_VALUE = "value"
_NEGATIVE = re.compile(r"^-\d+$|^-\d*\.\d+$")
_INTEGER = re.compile(r"[+-]?[0-9]+")


def _classify(token, flags):
    if not token.startswith("-") or token == "-":
        return _VALUE
    if token == "--":
        return token
    if token in flags:
        return token, None
    name, eq, attached = token.partition("=")
    if eq and name in flags:
        return name, attached
    if token.startswith("--"):
        matches = [f for f in flags if f.startswith(name)]
        attached = attached if eq else None
    else:
        matches = [token[:2]] if token[:2] in flags else []
        attached = token[2:]
    if len(matches) > 1:
        raise UsageError(f"ambiguous option: {token} could match {', '.join(matches)}")
    if matches:
        return matches[0], attached
    if _NEGATIVE.match(token) or " " in token:
        return _VALUE
    return None, None


def _check_help(flag, attached):
    if attached is not None and (flag.startswith("--") or not attached or attached.strip("h")):
        raise UsageError(f"argument {flag}: ignored explicit argument {attached!r}")


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
    argv = list(argv)
    unknown = []
    for i, token in enumerate(argv):
        kind = _classify(token, _HELP)
        if kind in (_VALUE, "--"):
            command = token
            break
        flag, attached = kind
        if flag is None:
            unknown.append(token)
        else:
            _check_help(flag, attached)
            return SimpleNamespace(command=None, func=_show_help)
    else:
        raise UsageError(f"no command given (choose from {', '.join(COMMANDS)})")
    grammar = _GRAMMARS.get(command)
    if grammar is None:
        raise UsageError(f"invalid command: {command!r} (choose from {', '.join(COMMANDS)})")
    rest = argv[i + 1:]
    cut = rest.index("--") if "--" in rest else len(rest)
    kinds = [_classify(token, grammar.flags) for token in rest[:cut]]
    values = dict(grammar.defaults)
    seen = set()
    j = 0
    while j < cut:
        flag, attached = (None, None) if kinds[j] == _VALUE else kinds[j]
        if flag is None:
            unknown.append(rest[j])
        elif flag in _HELP:
            _check_help(flag, attached)
            return SimpleNamespace(command=command, func=_show_help)
        else:
            if attached is None:
                if j + 1 == cut or kinds[j + 1] != _VALUE:
                    raise UsageError(f"argument {flag}: expected one argument")
                j += 1
                attached = rest[j]
            values[grammar.dests[flag]] = _convert(grammar.by_flag[flag], attached)
            seen.add(flag)
        j += 1
    unknown.extend(rest[cut:])
    missing = [flag for flag in grammar.required if flag not in seen]
    if missing:
        raise UsageError(f"the following arguments are required: {', '.join(missing)}")
    if unknown:
        raise UsageError(f"unrecognized arguments: {' '.join(unknown)}")
    return SimpleNamespace(command=command, func=grammar.func, **values)


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
