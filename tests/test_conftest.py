"""The root conftest's restore of the stiefel_lab modules between tests,
which keeps `sys.modules` and the package attributes on one copy each."""

import importlib
import sys

import stiefel_lab
from conftest import package_modules_restored


def test_a_module_first_imported_inside_is_dropped_everywhere():
    """A module imported for the first time inside the block leaves neither
    `sys.modules` nor its package attribute behind, so a later
    `from stiefel_lab import stability` and a later
    `import stiefel_lab.stability` get the same fresh copy."""
    importlib.import_module("stiefel_lab.stability")
    saved = sys.modules.pop("stiefel_lab.stability")
    delattr(stiefel_lab, "stability")
    try:
        with package_modules_restored():
            fresh = importlib.import_module("stiefel_lab.stability")
            assert stiefel_lab.stability is fresh
        assert "stiefel_lab.stability" not in sys.modules
        assert not hasattr(stiefel_lab, "stability")
    finally:
        sys.modules["stiefel_lab.stability"] = saved
        stiefel_lab.stability = saved


def test_a_module_imported_afresh_inside_is_put_back_everywhere():
    """A module present on entry and imported afresh inside the block (as
    `bench/workloads.load_package` does) is the entry copy again after it,
    in `sys.modules` and as the package attribute."""
    gfnum = importlib.import_module("stiefel_lab.gfnum")
    with package_modules_restored():
        del sys.modules["stiefel_lab.gfnum"]
        fresh = importlib.import_module("stiefel_lab.gfnum")
        assert fresh is not gfnum and stiefel_lab.gfnum is fresh
    assert sys.modules["stiefel_lab.gfnum"] is gfnum
    assert stiefel_lab.gfnum is gfnum
