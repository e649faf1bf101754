import ast
import doctest
import importlib
import inspect
import pkgutil

import glhecke

SUBMODULES = [m.name for m in pkgutil.iter_modules(glhecke.__path__, "glhecke.")]


def test_library_doctests_pass():
    # every docstring example in the package runs, so none can rot silently
    names = ["glhecke"] + SUBMODULES
    failed, attempted = {}, 0
    for name in names:
        result = doctest.testmod(importlib.import_module(name))
        attempted += result.attempted
        if result.failed:
            failed[name] = result.failed
    assert failed == {}
    assert attempted >= 6


def test_public_names_exist_and_package_imports_are_exported():
    # a name deleted from a module but left in an export list fails here
    for name in SUBMODULES:
        module = importlib.import_module(name)
        missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
        assert missing == [], name
    imports = [
        node
        for node in ast.parse(inspect.getsource(glhecke)).body
        if isinstance(node, ast.ImportFrom)
    ]
    assert len(imports) >= 6
    for node in imports:
        exported = importlib.import_module(f"glhecke.{node.module}").__all__
        unexported = [alias.name for alias in node.names if alias.name not in exported]
        assert unexported == [], node.module
