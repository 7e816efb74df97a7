"""The export lists: every name in ``bellsim.__all__`` and in each
submodule's ``__all__`` resolves, none is listed twice, ``from bellsim import
*`` runs clean, and the CH curve wrappers that ``ch_curve_value`` replaced
stay gone."""

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import bellsim

SRC = Path(__file__).resolve().parents[1] / "src"

MODULES = ["bellsim"] + [
    f"bellsim.{info.name}" for info in pkgutil.iter_modules(bellsim.__path__)
]

#: Names deleted in favour of ``ch_curve_value(k, quad, mode)`` and
#: ``ch_value(table_for_mode(k, quad, mode))``.
DELETED = ("ch_standard", "ch_multiwindow", "ch_union", "ch_multiwindow_two_term")


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


@pytest.mark.parametrize("name", MODULES)
def test_no_name_is_exported_twice(name):
    exported = importlib.import_module(name).__all__
    assert len(set(exported)) == len(exported)


def test_star_import_runs_under_warnings_as_errors():
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-c", "from bellsim import *; print(len(dir()))"],
        env={**os.environ, "PYTHONPATH": str(SRC)}, capture_output=True, text=True, timeout=60,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert int(proc.stdout) >= len(bellsim.__all__)


@pytest.mark.parametrize("module", [bellsim, bellsim.analytic], ids=["bellsim", "analytic"])
def test_deleted_ch_wrappers_are_gone(module):
    assert [n for n in DELETED if hasattr(module, n)] == []
