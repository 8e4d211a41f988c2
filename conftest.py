"""Shared set-up for `pytest bench tests` run in one process."""

import contextlib
import sys
from types import ModuleType

import pytest


def _package_modules() -> dict:
    return {name: module for name, module in sys.modules.items()
            if name.partition(".")[0] == "stiefel_lab"}


def _submodule_attributes(modules: dict) -> dict:
    """(package name, attribute) -> submodule, for every stiefel_lab module
    bound as an attribute of a package among `modules`."""
    return {(name, attr): value for name, module in modules.items()
            for attr, value in vars(module).items()
            if isinstance(value, ModuleType) and value.__name__ == f"{name}.{attr}"}


@contextlib.contextmanager
def package_modules_restored():
    """On exit, put back the stiefel_lab modules present on entry, in
    `sys.modules` and as attributes of their packages; drop the others
    from both.

    `bench/workloads.load_package` imports the package afresh, and a test
    may import a module of it first (`cli` imports some lazily).  Without
    this the test modules would keep the first copy's classes while later
    imports get the second, and `except` clauses, `isinstance` checks and
    monkeypatches would miss between the two copies.  A module deleted from
    `sys.modules` but left as a package attribute splits the same way:
    `from stiefel_lab import x` returns the attribute, while
    `import stiefel_lab.x` imports a fresh copy."""
    before = _package_modules()
    bound = _submodule_attributes(before)
    yield
    for name in _package_modules():
        if name not in before:
            del sys.modules[name]
    sys.modules.update(before)
    for package, attr in _submodule_attributes(before).keys() - bound.keys():
        delattr(before[package], attr)
    for (package, attr), module in bound.items():
        setattr(before[package], attr, module)


@pytest.fixture(autouse=True)
def _restore_package_modules():
    with package_modules_restored():
        yield
