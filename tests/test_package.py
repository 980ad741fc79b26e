"""The package namespace: every exported name imports its module on first use."""

import importlib

import pytest

import lorentzkit


@pytest.mark.parametrize("name", [name for name in lorentzkit.__all__ if name != "__version__"])
def test_export_is_its_module_attribute(name):
    module = importlib.import_module(f"lorentzkit.{lorentzkit._EXPORTS[name]}")
    assert getattr(lorentzkit, name) is getattr(module, name)


def test_dir_lists_every_export():
    assert set(lorentzkit.__all__) <= set(dir(lorentzkit))


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from lorentzkit import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(lorentzkit.__all__)


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'bogus'"):
        lorentzkit.bogus
    assert not hasattr(lorentzkit, "STATEMENTS")
