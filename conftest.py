"""Shared set-up for `pytest bench tests` run in one process."""

import sys

import pytest


def _package_modules() -> dict:
    return {name: module for name, module in sys.modules.items()
            if name.partition(".")[0] == "stiefel_lab"}


@pytest.fixture(autouse=True)
def _restore_package_modules():
    """Put back the stiefel_lab modules a test started with.

    `bench/workloads.load_package` imports the package afresh; without this
    the test modules would keep the first copy's classes while later imports
    get the second, and `except` clauses, `isinstance` checks and
    monkeypatches would miss between the two copies."""
    before = _package_modules()
    yield
    for name in _package_modules():
        if name not in before:
            del sys.modules[name]
    sys.modules.update(before)
