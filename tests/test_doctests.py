import doctest
import importlib
import pkgutil

import glhecke


def test_library_doctests_pass():
    # every docstring example in the package runs, so none can rot silently
    names = ["glhecke"] + [m.name for m in pkgutil.iter_modules(glhecke.__path__, "glhecke.")]
    failed, attempted = {}, 0
    for name in names:
        result = doctest.testmod(importlib.import_module(name))
        attempted += result.attempted
        if result.failed:
            failed[name] = result.failed
    assert failed == {}
    assert attempted >= 6
