"""Shared fixtures: child interpreters at each SIMD level numpy offers here.

numpy picks some float kernels by CPU feature, so a test that pins bits
reruns its check once per level, with the features above that level
switched off through ``NPY_DISABLE_CPU_FEATURES``.  A test that takes the
``simd_disabled`` argument is parametrized with those feature lists.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import bellsim

SRC = Path(bellsim.__file__).resolve().parents[1]


def _simd_levels():
    """For each SIMD level numpy dispatches to on this host, the features
    above it, highest level first: the value of NPY_DISABLE_CPU_FEATURES."""
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__

    found = [name for name in __cpu_dispatch__ if __cpu_features__.get(name)]
    return [found[i:] for i in range(len(found), -1, -1)]


def pytest_generate_tests(metafunc):
    if "simd_disabled" in metafunc.fixturenames:
        metafunc.parametrize(
            "simd_disabled", _simd_levels(), ids=lambda names: " ".join(names) or "all"
        )


@pytest.fixture
def simd_child(simd_disabled):
    """Run Python source in a child interpreter (warnings as errors) with
    ``simd_disabled`` switched off; returns the completed process."""
    env = {**os.environ, "PYTHONPATH": str(SRC), "NPY_DISABLE_CPU_FEATURES": " ".join(simd_disabled)}

    def run(source):
        return subprocess.run([sys.executable, "-W", "error", "-c", source],
                              env=env, capture_output=True, text=True, timeout=120)

    return run
