"""The package's lazily loaded public names."""

import importlib

import pytest

import tropical_heights


def test_public_names_resolve_to_their_submodule_objects():
    for name in tropical_heights.__all__:
        module = importlib.import_module(
            f"tropical_heights.{tropical_heights._MODULE_OF[name]}")
        assert getattr(tropical_heights, name) is getattr(module, name), name


def test_dir_lists_every_public_name():
    assert set(tropical_heights.__all__) <= set(dir(tropical_heights))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        tropical_heights.no_such_name  # noqa: B018
    assert not hasattr(tropical_heights, "no_such_name")


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from tropical_heights import *", namespace)
    assert set(tropical_heights.__all__) <= set(namespace)
