"""Code with no caller is deleted: every public top-level function and class
of a package module is referenced somewhere in `src/` outside its own
definition.  A name that only tests or the benchmark use is code kept for
them, and belongs in the tests or is deleted.  The package's caches are
listed here by name, so that adding or removing one is a visible change.
"""

import ast
from pathlib import Path

import bundleaut.cli  # loads every module that holds a cache
from conftest import package_caches

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "bundleaut"


def referenced_names(nodes) -> set:
    """Every name read or assigned as a bare name or an attribute in nodes."""
    names = set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                names.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                names.add(sub.attr)
    return names


def test_every_public_definition_has_a_caller():
    # `__init__` defines nothing, and a re-export there is not a caller
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"}
    unused = []
    for module, tree in trees.items():
        elsewhere = referenced_names(t for m, t in trees.items() if m != module)
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            own = referenced_names(n for n in tree.body if n is not node)
            if node.name not in own | elsewhere:
                unused.append(f"{module}: {node.name}")
    assert unused == []


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
