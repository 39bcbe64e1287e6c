"""Shared fixtures and helpers.

`fresh_caches` clears every `lru_cache` of the package before and after a
test.  A test that patches a helper to make a check fail requests it, so
that no result cached by an earlier test can skip the check, and no result
built under the patch outlives the test.  The caches are found by walking
the loaded `bundleaut` modules for objects with `cache_clear`, so a cache
added later is covered without a change here.

Every test, from setup to teardown, and the collection of every test
module, whose imports build forms too, run under a timer of `LIMIT_S`
seconds that interrupts the main thread: a hang stops the run, which exits
2, instead of holding it.  The limit is above the largest subprocess
timeout a test sets, 300 s.  A thread timer leaves `SIGALRM` and
`ITIMER_REAL` to the tests that use them (`tests/test_fault_sweep.py`).
"""

import _thread
import contextlib
import sys
import threading

import pytest

from bundleaut.finabel import smith_normal_form


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


def scaled_inverse(a) -> tuple[list[list[int]], int]:
    """(N, e) with N = e A^-1 for a nonsingular square integer matrix A and e
    its last invariant factor, column i of N being e A^-1 applied to e_i.

    U A V = S = diag(d_k) from `smith_normal_form` gives A^-1 = V S^-1 U, so
    N = V diag(e / d_k) U, in integers.  A singular A has a zero d_k, on
    which the division raises ZeroDivisionError."""
    s, u, v = smith_normal_form(a)
    d = [s[k][k] for k in range(len(s))]
    e = d[-1] if d else 1
    scaled_u = [[e // dk * x for x in row] for dk, row in zip(d, u)]
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*scaled_u)] for row in v], e


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


LIMIT_S = 360


@contextlib.contextmanager
def _time_limit():
    timer = threading.Timer(LIMIT_S, _thread.interrupt_main)
    timer.start()
    try:
        yield
    finally:
        timer.cancel()


@pytest.hookimpl(wrapper=True)
def pytest_make_collect_report(collector):
    with _time_limit():
        return (yield)


@pytest.hookimpl(wrapper=True)
def pytest_runtest_protocol(item):
    with _time_limit():
        return (yield)
