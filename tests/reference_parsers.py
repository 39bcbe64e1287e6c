"""`parse_args` and `parse_delta` as they were before argv and delta parts
were read with fewer calls: every token classified by `_classify`, every
part of a delta matched by a regex.  `test_cli_fuzz.py` compares the
namespaces and the error messages of `bundleaut.cli` with these.  Only
`COMMANDS`, the handlers and the error classes are taken from the package.
"""

import re
from types import SimpleNamespace

from bundleaut import groupclass
from bundleaut.cli import COMMANDS, UsageError, _show_help
from bundleaut.groupclass import InvalidDegree

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
