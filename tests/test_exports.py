"""The export lists: every name in ``bellsim.__all__`` and in each
submodule's ``__all__`` resolves, each submodule's ``__all__`` is what
``bellsim`` lists for it, none is listed twice, ``from bellsim import *``
runs clean, and the CH curve wrappers that ``ch_curve_value`` replaced and
the Q functions that ``qset`` replaced stay gone. ``bellsim`` resolves its
names on first use, so the start-up of a command loads only the modules that
command uses. Each list is written once: only ``bellsim`` and ``bellsim.cli``
spell out an ``__all__``, and ``EstimatedTable`` keeps its estimates in one
dict keyed by the ``ProbabilityTable`` fields."""

import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest

import bellsim

SRC = Path(__file__).resolve().parents[1] / "src"

MODULES = ["bellsim"] + [
    f"bellsim.{info.name}" for info in pkgutil.iter_modules(bellsim.__path__)
]

#: Names deleted in favour of ``ch_curve_value(k, quad, mode)`` and
#: ``ch_value(table_for_mode(k, quad, mode))``, the Q functions that
#: ``qset`` replaced, the model error that ``InvalidInputError`` replaced,
#: the scheme enum that the ``SCHEMES`` strings replaced, and the intensity
#: wrapper that the ``(i_a, i_b)`` pair replaced.
DELETED = ("ch_standard", "ch_multiwindow", "ch_union", "ch_multiwindow_two_term",
           "q_single", "q_joint", "ModelInvalidError", "WindowScheme", "IntensityPair")


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


@pytest.mark.parametrize("name", MODULES)
def test_no_name_is_exported_twice(name):
    exported = importlib.import_module(name).__all__
    assert len(set(exported)) == len(exported)


@pytest.mark.parametrize("name", sorted(bellsim._EXPORTS))
def test_package_lists_every_public_name(name):
    """``bellsim.<name>`` works for each public name of each submodule."""
    module = importlib.import_module(f"bellsim.{name}")
    assert sorted(module.__all__) == sorted(bellsim._EXPORTS[name])


def child(code: str) -> object:
    """The value that ``code`` prints as a Python literal, run under
    ``-W error`` in a fresh interpreter on ``src/``."""
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-c", code],
        env={**os.environ, "PYTHONPATH": str(SRC)}, capture_output=True, text=True, timeout=60,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    return ast.literal_eval(proc.stdout)


def test_star_import_runs_under_warnings_as_errors():
    assert child("from bellsim import *; print(len(dir()))") >= len(bellsim.__all__)


def test_bare_import_resolves_every_name_on_first_use():
    names = bellsim.__all__ + [m.rpartition(".")[2] for m in MODULES[1:]]
    assert child(
        "import sys, bellsim\n"
        "loaded = sorted(m for m in sys.modules if m.startswith('bellsim.'))\n"
        "listed = set(bellsim.__all__) <= set(dir(bellsim))\n"
        f"missing = [n for n in {names!r} if not hasattr(bellsim, n)]\n"
        "print((loaded, missing, listed))"
    ) == ([], [], True)


#: Modules that only ``bellsim waveform``, ``simulate``, a seeded command or a
#: sweep spec file use.
NOT_AT_START = ["bellsim.waveform", "concurrent.futures", "json", "csv", "numpy.random"]


def test_cli_start_up_leaves_unused_modules_unloaded():
    assert child(
        "import sys; before = set(sys.modules)\n"
        "import bellsim, bellsim.cli; bellsim.cli.build_parser()\n"
        f"print([m for m in {NOT_AT_START!r} if m in set(sys.modules) - before])"
    ) == []


def test_lazy_name_is_the_submodule_object_and_is_cached():
    assert child(
        "import bellsim\n"
        "print(bellsim.sample_events is bellsim.waveform.sample_events"
        " and 'sample_events' in vars(bellsim))"
    )


@pytest.mark.parametrize(
    "module",
    [bellsim, bellsim.analytic, bellsim.errors, bellsim.detector, bellsim.source],
    ids=["bellsim", "analytic", "errors", "detector", "source"],
)
def test_deleted_ch_wrappers_are_gone(module):
    assert [n for n in DELETED if hasattr(module, n)] == []


def test_nearest_delays_is_exported():
    assert bellsim.nearest_delays is bellsim.waveform.nearest_delays
    assert "nearest_delays" in bellsim.waveform.__all__


def _spelled_exports(path: Path) -> list[str]:
    """``file:line`` for each assignment of a list, tuple or set display to
    ``__all__``: a list of public names written out by hand."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if (
                any(isinstance(x, ast.Name) and x.id == "__all__" for x in targets)
                and isinstance(node.value, (ast.List, ast.Tuple, ast.Set))
            ):
                found.append(f"{path.name}:{node.lineno}")
    return found


def test_only_the_package_and_cli_spell_out_their_exports():
    """Every other submodule takes its ``__all__`` from ``bellsim._EXPORTS``,
    so a public name is written once and the two lists cannot drift."""
    modules = sorted((SRC / "bellsim").glob("*.py"))
    assert len(modules) > 5
    spelled = [
        hit for path in modules if path.name not in ("__init__.py", "cli.py")
        for hit in _spelled_exports(path)
    ]
    assert spelled == []


def test_the_scan_sees_a_spelled_out_export(tmp_path):
    copy = tmp_path / "copy.py"
    copy.write_text(
        '__all__ = ["a", "b"]\n'
        '__all__ = list(_EXPORTS["copy"])\n'
        '__all__ += ("c",)\n'
        '__all__: list[str] = []\n'
    )
    assert _spelled_exports(copy) == ["copy.py:1", "copy.py:3", "copy.py:4"]
    assert _spelled_exports(SRC / "bellsim" / "cli.py") != []


def test_estimated_table_lists_no_table_entry_as_a_field():
    """The estimates live in ``EstimatedTable.entries``, keyed by the
    ``ProbabilityTable`` fields, not in a second copy of those fields."""
    entries = {f.name for f in fields(bellsim.ProbabilityTable)}
    assert [f.name for f in fields(bellsim.EstimatedTable) if f.name in entries] == []
    assert not hasattr(bellsim.EstimatedTable, "entry_estimates")
