"""Each demo runs under ``-W error`` with scipy absent, and prints exactly
the pinned bytes to stdout.

Wall times and other run-dependent lines go to stderr, so stdout is a
function of the code alone.  A changed digest means a demo's output
changed: re-pin it only together with the change that explains it.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from bellsim.analytic import ANALYTIC_ARITHMETIC
from bellsim.montecarlo import RNG_CONTRACT
from bellsim.waveform import WAVEFORM_STREAM

ROOT = Path(__file__).resolve().parents[1]

DEMO_SHA256 = {
    "01_bell_theorem_playground.py": "5b14dd13fd16095b23bf31bd0c46abbad9022aced03b8ab5170c7b96f6928b74",
    # Prints closed forms, so its digest is pinned per closed-form arithmetic.
    "02_standard_vs_multiwindow.py": {
        1: "f48f915260a522af4f4e31c58deea425e18fb97e92d47b509011def2184eb1ab",
        2: "17e540ab8148aeefb67b54d52f5fc9566aa9d82a032f677439734c58edf5345a",
    },
    "03_window_algebra.py": "9dada146586a759e6ba23d3ca305f3b74192390889ad6f6e6f456c9e646594e2",
    # Runs Monte Carlo trials, so its digest is pinned per RNG contract.
    "04_simulation_validation.py": {
        3: "687d5a415316204021ef79d0a7ca605f37bee22a11cca8a6ab14bff10e35852e",
        4: "09859c7631880a8848a09a3807bf93d9d7f73c061bd183b88684dab5e0568009",
    },
    # Draws event streams, so its digest is pinned per waveform stream.
    "05_chaotic_light_timing.py": {
        2: "c0fb642c950ec82f92b59fe8db668ac8a2fe1048a4fb792a309c9bfa05809fe0",
        3: "e739937b63cfc0d187a49502f6f5784c791588e45be63c212da70d791f04c485",
    },
}
#: The version that keys each demo's per-version digests above: that of its
#: stream, or of the closed-form arithmetic.
_PIN_VERSION = {
    "02_standard_vs_multiwindow.py": ANALYTIC_ARITHMETIC,
    "04_simulation_validation.py": RNG_CONTRACT,
    "05_chaotic_light_timing.py": WAVEFORM_STREAM,
}

_RUN = "import runpy, sys; sys.modules['scipy'] = None; runpy.run_path(sys.argv[1], run_name='__main__')"


def test_every_demo_is_pinned():
    assert sorted(p.name for p in (ROOT / "demos").glob("*.py")) == sorted(DEMO_SHA256)


@pytest.mark.parametrize("demo", sorted(DEMO_SHA256))
def test_demo_stdout(demo):
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-c", _RUN, str(ROOT / "demos" / demo)],
        cwd=ROOT, env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    expected = DEMO_SHA256[demo]
    if isinstance(expected, dict):
        assert _PIN_VERSION[demo] in expected, "new version: pin its digest"
        expected = expected[_PIN_VERSION[demo]]
    assert hashlib.sha256(proc.stdout).hexdigest() == expected, proc.stdout.decode()
