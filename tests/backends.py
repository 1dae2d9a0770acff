"""Run code on either YAML backend of ``dad.yaml_io``.

``dad.yaml_io`` parses and dumps through libyaml when PyYAML was built with
it. ``python_backend`` reloads the module as if PyYAML had no libyaml and
restores the original module afterwards. ``dad.compose`` and every module
that imported its functions follow along, since those functions look up
``dad.yaml_io`` and its loader and dumper classes at call time.
"""

import contextlib
import importlib

import pytest
import yaml

from dad import yaml_io


@contextlib.contextmanager
def python_backend():
    """Reload dad.yaml_io with libyaml switched off; restore it on exit."""
    saved = dict(vars(yaml_io))
    try:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(yaml, "__with_libyaml__", False)
            importlib.reload(yaml_io)
            yield
    finally:
        vars(yaml_io).clear()
        vars(yaml_io).update(saved)


def on_both_backends(fn):
    native = fn()
    with python_backend():
        pure = fn()
    return native, pure
