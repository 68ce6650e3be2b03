"""Export lists: every name in ``__all__`` exists, so star imports work."""

import importlib
import pkgutil

import pytest

import chfdet

MODULES = ["chfdet"] + sorted(
    f"chfdet.{info.name}" for info in pkgutil.iter_modules(chfdet.__path__)
)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []
    exec(f"from {name} import *", {})


def test_top_level_reexports_the_statistics():
    from chfdet import stats

    assert set(stats.__all__) <= set(chfdet.__all__)


# The test-only tools that left the package for tests/_references.py, and
# the small-t closed form, which cpv_init owns
MOVED = {
    "chfdet.painleve": ("verify_identities", "IdentityReport"),
    "chfdet.asymptotics": ("small_t_lnF", "b_from_gamma", "c_from_gamma"),
}


@pytest.mark.parametrize("module_name", sorted(MOVED))
def test_test_only_names_left_the_package(module_name):
    module = importlib.import_module(module_name)
    for name in MOVED[module_name]:
        assert name not in chfdet.__all__
        assert name not in module.__all__
        assert not hasattr(module, name)
        assert not hasattr(chfdet, name)
