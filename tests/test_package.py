"""The ``dad`` package namespace: every public name and submodule resolves on
first access, to the object its defining module holds at that moment."""

import sys

import pytest

import dad
import dad.compose


def test_every_public_name_is_its_defining_modules_object():
    assert len(dad.__all__) == len(set(dad.__all__)) == 54
    for name in dad.__all__:
        value = getattr(dad, name)
        # DEFAULT_ROLE_TABLE is a plain tuple and names no module of its own
        home = getattr(value, "__module__", "dad.dac_emit")
        assert home.startswith("dad."), name
        assert getattr(sys.modules[home], name) is value, name


def test_dir_lists_every_public_name_and_submodule():
    listed = dir(dad)
    assert listed == sorted(listed)
    assert set(dad.__all__) <= set(listed)
    assert {"cli", "compose", "consistency", "dac_emit", "dac_ingest", "errors", "model", "yaml_io"} <= set(listed)


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from dad import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(dad.__all__)


def test_a_rebinding_in_the_defining_module_shows_through_the_package(monkeypatch):
    original = dad.compose.lower
    assert dad.lower is original
    monkeypatch.setattr(dad.compose, "lower", "stand-in")
    assert dad.lower == "stand-in"
    monkeypatch.undo()
    assert dad.lower is original
    assert "lower" not in vars(dad)


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="module 'dad' has no attribute 'no_such_name'"):
        dad.no_such_name  # noqa: B018
    assert not hasattr(dad, "unlower")
