"""The library runs with scipy absent: no command imports it, eagerly or lazily.

scipy is a test dependency only.  Each check runs in a fresh interpreter in
which ``sys.modules["scipy"] = None`` makes every ``import scipy...`` fail.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

_SCRIPT = """
import contextlib, io, sys
sys.modules["scipy"] = None
from bellsim.cli import main

for argv in (
    ["analytic", "--points", "21"],
    ["lhv-check", "--models", "200"],
    ["simulate", "--k", "4", "--scheme", "halves", "--trials", "20000", "--seed", "1"],
    ["waveform", "stats"],
    ["waveform", "stats", "--detection-time", "0.3"],
    ["waveform", "windows", "--span", "2000"],
):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    print(" ".join(argv), code, len(out.getvalue()), out.getvalue().count(":zero-crossing"))
loaded = [m for m, module in sys.modules.items() if m.split(".")[0] == "scipy" and module is not None]
print("loaded", loaded)
"""


def test_cli_runs_without_scipy():
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-c", _SCRIPT],
        env={**os.environ, "PYTHONPATH": str(SRC)}, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    *runs, loaded = proc.stdout.splitlines()
    assert len(runs) == 6
    for line in runs:
        argv, code, size, crossings = line.rsplit(" ", 3)
        assert (code, int(size) > 0) == ("0", True), line
        # Both split-window sweep modes cross zero on the default bracket.
        assert int(crossings) == (2 if argv.startswith("analytic") else 0), line
    assert loaded == "loaded []"
