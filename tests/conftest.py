"""Shared fixtures and helpers.

`fresh_caches` clears every `lru_cache` of the package before and after a
test.  A test that patches a helper to make a check fail requests it, so
that no result cached by an earlier test can skip the check, and no result
built under the patch outlives the test.  The caches are found by walking
the loaded `bundleaut` modules for objects with `cache_clear`, so a cache
added later is covered without a change here.
"""

import sys

import pytest


def unit(n, i) -> tuple[int, ...]:
    """e_i of Z^n: alpha_i, omega_i or omega_i^vee in simple-root or
    fundamental-(co)weight coordinates."""
    return tuple(1 if j == i else 0 for j in range(n))


def neg(v) -> tuple:
    return tuple(-x for x in v)


def lift(quotient, coords) -> tuple[int, ...]:
    """A vector of Z^r in the class `coords` of a `finabel.LatticeQuotient`:
    sum c_j * generator_lifts[j].  The package acts on classes through the
    matrices of `type_lattices`; lifting a class, permuting its nodes and
    projecting back is the reference route the tests compare them with."""
    result = [0] * quotient.rank
    for c, g in zip(coords, quotient.generator_lifts):
        result = [a + c * b for a, b in zip(result, g)]
    return tuple(result)


def package_caches() -> list:
    """Every object with `cache_clear` bound in a loaded `bundleaut` module."""
    found = {}
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "bundleaut" or name.startswith("bundleaut.")):
            continue
        for value in vars(module).values():
            if callable(getattr(value, "cache_clear", None)):
                found[id(value)] = value
    return list(found.values())


@pytest.fixture
def fresh_caches():
    # the caches are collected before the test runs, so one that the test
    # replaces with a patch is still cleared afterwards
    caches = package_caches()
    for cache in caches:
        cache.cache_clear()
    yield
    for cache in caches + package_caches():
        cache.cache_clear()
