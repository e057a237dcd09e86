"""The public surface is declared once, by the ``__all__`` of each
solver module: the package republishes exactly the union of those
lists (``tests/test_api.py`` pins the names themselves)."""

import types

import pytest

import hpgalerkin
from hpgalerkin import adapt, estimator, galerkin, poly, problems

MODULES = (adapt, estimator, galerkin, poly, problems)
UNION = {name for module in MODULES for name in module.__all__}


def test_no_name_is_declared_twice():
    names = [name for module in MODULES for name in module.__all__]
    assert len(names) == len(set(names))


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_package_republishes_each_module_list(module):
    for name in module.__all__:
        assert getattr(hpgalerkin, name) is getattr(module, name), name


def test_package_list_is_the_union():
    assert set(hpgalerkin.__all__) == UNION


def test_package_namespace_is_the_union():
    public = {
        name
        for name in dir(hpgalerkin)
        if not name.startswith("_") and not isinstance(getattr(hpgalerkin, name), types.ModuleType)
    }
    assert public == UNION
