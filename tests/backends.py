"""Run code on either YAML backend of ``dad.compose``.

``dad.compose`` parses and dumps through libyaml when PyYAML was built with
it. ``python_backend`` reloads the module as if PyYAML had no libyaml and
restores the original module afterwards. Modules that imported functions from
``dad.compose`` by name follow along, since those functions look up the
loader and dumper classes in the module's namespace at call time.
"""

import contextlib
import importlib

import pytest
import yaml

from dad import compose


@contextlib.contextmanager
def python_backend():
    """Reload dad.compose with libyaml switched off; restore it on exit."""
    saved = dict(vars(compose))
    try:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(yaml, "__with_libyaml__", False)
            importlib.reload(compose)
            yield
    finally:
        vars(compose).clear()
        vars(compose).update(saved)


def on_both_backends(fn):
    native = fn()
    with python_backend():
        pure = fn()
    return native, pure
