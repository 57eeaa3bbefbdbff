"""The benchmark's traced entry points still exist in the package.

``bench/traced_cli.py`` wraps functions by the names their calling
modules use; a name that no longer resolves turns its layer into an
absent metric, so a refactor must keep every one of them.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

_TRACED_CLI = Path(__file__).resolve().parents[1] / "bench" / "traced_cli.py"

# Names the harness lists for older versions of the package.
_GONE = {"faceaudit.cli.score_parallel", "faceaudit.pipeline.score_trials"}


def _traced_names():
    spec = importlib.util.spec_from_file_location("traced_cli", _TRACED_CLI)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return sorted({*module.ENTRY_POINTS, *module.COUNTED} - _GONE)


@pytest.mark.parametrize("name", _traced_names())
def test_traced_name_resolves(name):
    module_name, attr = name.rsplit(".", 1)
    assert callable(getattr(importlib.import_module(module_name), attr))


def test_gone_names_stay_gone():
    # if one of these comes back, it belongs among the checked names
    for name in _GONE:
        module_name, attr = name.rsplit(".", 1)
        assert not hasattr(importlib.import_module(module_name), attr)
