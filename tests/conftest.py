"""Shared pytest set-up.

Subprocesses started by tests import dad from this checkout, and the
``yaml_backend`` fixture runs a test once on each YAML backend.
"""

import os
from pathlib import Path

import pytest

from backends import python_backend

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture(autouse=True, scope="session")
def subprocesses_import_this_checkout():
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PYTHONPATH", str(SRC), prepend=os.pathsep)
        yield


@pytest.fixture(params=["default", "python"])
def yaml_backend(request):
    """Run the test on the default YAML backend and on the pure-Python one."""
    if request.param == "python":
        with python_backend():
            yield request.param
    else:
        yield request.param
