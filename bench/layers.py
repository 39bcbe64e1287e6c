"""Per-layer timing for the traced run, installed from outside the package.

Each listed public function is replaced, in every `bundleaut` module that
binds it, by a wrapper that counts calls and accumulates self time (its own
duration minus that of the wrapped calls nested inside it).  The wrapper sits
outside any `lru_cache`, so a cache hit counts as a call.  The two classes
are timed through their initialisers: replacing the class object would break
`Subgroup.__eq__`, which tests `isinstance`.
"""

from __future__ import annotations

import functools
import importlib
import sys
from time import perf_counter

LAYERS: dict[str, tuple[str, ...]] = {
    "rootdata": ("build_root_datum", "root_hyperplanes"),
    # dot, vadd and the other per-element helpers are too hot to wrap
    "linalg": ("solve", "invert", "nullspace", "charpoly", "mat_mul"),
    "finabel": ("smith_normal_form", "lattice_quotient", "enumerate_subgroups",
                "torsion_power", "Subgroup", "AbelianAction"),
    "weyl": ("weyl_order", "invariant_degrees", "coxeter_element", "orbits_on_roots",
             "orbits_on_hyperplane_pairs", "ordered_root_pair_orbit_count"),
    "groupclass": ("type_lattices", "enumerate_forms", "form_by_name",
                   "fundamental_group", "center_char_subgroup", "out_group",
                   "out_action_on_pi1", "out_action_on_center_chars", "out_stabilizer"),
    "moduli": ("classification_table", "delta_classes", "delta_class_label",
               "aut_presentation", "hitchin_report"),
    "cli": ("main", "parse_group_spec", "build_report"),
}

# Initialiser that stands for each class.
CLASS_INIT = {"Subgroup": "__init__", "AbelianAction": "__post_init__"}

# Every lru_cache of the package at the time the benchmark was written.
CACHES: tuple[tuple[str, str], ...] = (
    ("rootdata", "build_root_datum"),
    ("rootdata", "_simple_coordinate_matrix"),
    ("groupclass", "type_lattices"),
    ("groupclass", "_sc_out_elements"),
    ("groupclass", "enumerate_forms"),
    ("groupclass", "center_char_subgroup"),
    ("groupclass", "fundamental_group"),
    ("groupclass", "out_group"),
    ("groupclass", "out_action_on_pi1"),
    ("groupclass", "out_action_on_center_chars"),
    ("weyl", "_root_permutations"),
    ("weyl", "_hyperplane_permutations"),
    ("weyl", "cyclotomic_polynomial"),
    ("weyl", "invariant_degrees"),
    ("weyl", "weyl_order"),
)


def function_names() -> list[str]:
    return [f"{m}.{f}" for m, fs in LAYERS.items() for f in fs]


def _module(name: str):
    return importlib.import_module(f"bundleaut.{name}")


def cache_counts() -> dict[str, tuple[int, int]]:
    """(hits, misses) of every listed cache; a cache the package no longer
    has reads (0, 0)."""
    out = {}
    for m, f in CACHES:
        fn = getattr(_module(m), f, None)
        while fn is not None and not hasattr(fn, "cache_info"):  # under a Tracer wrapper
            fn = getattr(fn, "__wrapped__", None)
        info = fn.cache_info() if fn is not None else None
        out[f"{m}.{f}"] = (info.hits, info.misses) if info else (0, 0)
    return out


class Tracer:
    """Counts and self times of the listed functions, plus caller->callee
    edges, kept in memory until the run ends."""

    def __init__(self):
        self.calls = {name: 0 for name in function_names()}
        self.self_s = {name: 0.0 for name in function_names()}
        self.total_s = {name: 0.0 for name in function_names()}
        self.edges: dict[tuple[str, str], int] = {}
        self.missing: list[str] = []
        self._stack: list[list] = []  # [name, time spent in wrapped children]
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                self.calls[name] += 1
                self.self_s[name] += elapsed - frame[1]
                self.total_s[name] += elapsed
                caller = stack[-1][0] if stack else "bench"
                self.edges[(caller, name)] = self.edges.get((caller, name), 0) + 1
                if stack:
                    stack[-1][1] += elapsed

        return wrapper

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == "bundleaut" or key.startswith("bundleaut."))]
        for m, fs in LAYERS.items():
            mod = _module(m)
            for f in fs:
                name = f"{m}.{f}"
                orig = getattr(mod, f, None)
                if orig is None:
                    if name not in self.missing:
                        self.missing.append(name)
                    continue
                if f in CLASS_INIT:
                    method = CLASS_INIT[f]
                    init = orig.__dict__[method]
                    self._set(orig, method, init, self._wrap(name, init))
                    continue
                wrapper = self._wrap(name, orig)
                for other in modules:
                    for attr, value in list(vars(other).items()):
                        if value is orig:
                            self._set(other, attr, orig, wrapper)

    def _set(self, owner, attr: str, orig, replacement) -> None:
        setattr(owner, attr, replacement)
        self._undo.append((owner, attr, orig))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    def snapshot(self) -> dict:
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "total_s": dict(self.total_s),
            "edges": {f"{a} -> {b}": n for (a, b), n in sorted(self.edges.items())},
            "missing": list(self.missing),
        }
