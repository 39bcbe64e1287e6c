"""Shared fixtures.

`fresh_caches` clears every `lru_cache` of the package before and after a
test.  A test that patches a helper to make a check fail requests it, so
that no result cached by an earlier test can skip the check, and no result
built under the patch outlives the test.  The caches are found by walking
the loaded `bundleaut` modules for objects with `cache_clear`, so a cache
added later is covered without a change here.
"""

import sys

import pytest


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
