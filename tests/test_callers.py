"""Code with no caller is deleted: every top-level function and class of a
package module, and every module constant, is referenced somewhere in
`src/` outside its own definition.  A name that only tests or the benchmark
use is code kept for them, and belongs in the tests or is deleted.  The
package's caches are listed here by name, so that adding or removing one is
a visible change.  Every exception class the package defines is caught by
`cli.main`, so that it ends in an exit code and a message.
"""

import ast
import builtins
import sys
from collections import Counter
from functools import cache
from pathlib import Path

import bundleaut.cli  # loads every module that holds a cache
from conftest import package_caches

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "bundleaut"


def referenced_names(node) -> set:
    """Every name read or assigned as a bare name or an attribute in node."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
    return names


@cache
def top_level_nodes() -> dict:
    """Each package module's top-level statements, with the names each one
    references.  `__init__` defines nothing, and a re-export there is not a
    caller."""
    return {path.name: [(node, referenced_names(node)) for node in
                        ast.parse(path.read_text(encoding="utf-8")).body]
            for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"}


def uncalled(private: bool) -> list[str]:
    """The top-level definitions of the package modules that no code in
    `src/` reads outside the definition itself: the public functions and
    classes, or the private ones and every module constant, a name assigned
    at the top level."""
    modules = top_level_nodes()
    unused = []
    for module, nodes in modules.items():
        elsewhere = set().union(*(names for m, other in modules.items() if m != module
                                  for _, names in other))
        # how many top-level statements of the module reference each name
        here = Counter(name for _, names in nodes for name in names)
        for node, names in nodes:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined = [node.name] if node.name.startswith("_") == private else []
            elif isinstance(node, (ast.Assign, ast.AnnAssign)) and private:
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined = [n.id for target in targets for n in ast.walk(target)
                           if isinstance(n, ast.Name)]
            else:
                continue
            # a definition's own name, read inside it, is no caller
            unused += [f"{module}: {name}" for name in defined
                       if name not in elsewhere and here[name] == (name in names)]
    return unused


def test_every_public_definition_has_a_caller():
    assert uncalled(private=False) == []


def test_every_private_definition_and_constant_has_a_caller():
    # a private function or a constant with no reader, such as an old copy
    # of a helper that a merge left behind
    assert uncalled(private=True) == []


CACHES = [
    "bundleaut.cli._dict_text",
    "bundleaut.cli._group_header",
    "bundleaut.cli._latexify",
    "bundleaut.cli.parse_group_spec",
    "bundleaut.finabel._shared_subgroup",
    "bundleaut.finabel.enumerate_subgroups",
    "bundleaut.groupclass.enumerate_forms",
    "bundleaut.moduli.component",
    "bundleaut.rootdata.build_root_datum",
    "bundleaut.weyl.invariant_degrees",
    "bundleaut.weyl.orbit_counts",
]


def test_the_package_caches_are_these():
    names = sorted(f"{c.__module__}.{c.__qualname__}" for c in package_caches())
    assert names == CACHES


def test_every_package_exception_has_an_exit_code():
    # the classes named in the except clauses of `cli.main`, read from its
    # source, and every exception class defined at the top level of a
    # package module, which must be a subclass of one of them
    main = next(node for node, _ in top_level_nodes()["cli.py"]
                if isinstance(node, ast.FunctionDef) and node.name == "main")
    names = [n.id for handler in ast.walk(main) if isinstance(handler, ast.ExceptHandler)
             for n in ast.walk(handler.type) if isinstance(n, ast.Name)]
    caught = tuple(getattr(bundleaut.cli, name, None) or getattr(builtins, name)
                   for name in names)
    defined = [(module, node.name) for module, nodes in top_level_nodes().items()
               for node, _ in nodes if isinstance(node, ast.ClassDef)]
    classes = {f"{module}: {name}": getattr(sys.modules[f"bundleaut.{module[:-3]}"], name)
               for module, name in defined}
    exceptions = [name for name, cls in classes.items() if issubclass(cls, BaseException)]
    assert exceptions  # the package's own, such as `rootdata.ConsistencyError`
    assert [name for name in exceptions if not issubclass(classes[name], caught)] == []
