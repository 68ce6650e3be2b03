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
