"""The four benchmark workloads and the checks on every result they time.

Each workload is a closed loop of *steps*. A step is one call into bellsim's
public API (the ``bellsim`` command line through ``bellsim.cli.main``, or the
``bellsim.waveform`` functions), timed on its own, and a check of what that
call returned, run after the clock stops. Each step has a label:

===============  ==========================  ===========================  ==============================
workload         ``call1``                   ``call2``                    ``parallel``
===============  ==========================  ===========================  ==============================
mc_halves        ``simulate --workers 1``                                 ``simulate --workers <nproc>``
mc_single        ``simulate --workers 1``                                 ``simulate --workers <nproc>``
closed_form      ``analytic --points 2001``  ``lhv-check --models 20000``
waveform_timing  ``sample_events`` x4        delay and window scans
===============  ==========================  ===========================  ==============================

The ``call1`` steps give the end-to-end ``call1_s``; the single-threaded
steps (``call1`` and ``call2``) of a cycle together give ``serial_cycle_s``.

All inputs come from the benchmark seed, so a cycle repeated with the same
seed does exactly the same work.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from bellsim import cli, waveform

Z_LIMIT = 5.0
#: The multiwindow-exact CH(k) zero crossing lies at k ~= 1.03596.
CROSSING_BOUNDS = (1.0359, 1.0360)
#: Widths of ``bellsim waveform windows`` when ``--windows`` is not given.
CLI_WINDOWS = (0.05, 0.1, 0.2, 0.5, 1.0, 2.0, 5.0)
#: ``bellsim waveform`` default rate: mean events per unit time per stream.
EVENT_RATE = 1.0
#: Shared-intensity streams must sit at least twice as close as independent ones.
MAX_DELAY_RATIO = 0.5


@dataclass(frozen=True)
class Sizes:
    """Problem sizes of one cycle."""

    mc_trials: int  # trials per setting pair
    sweep_points: int
    sweeps_per_cycle: int
    lhv_models: int
    event_span: float  # observation span; EVENT_RATE * span events per stream


FULL = Sizes(mc_trials=1 << 18, sweep_points=2001, sweeps_per_cycle=3,
             lhv_models=20_000, event_span=5e5)
TINY = Sizes(mc_trials=1 << 12, sweep_points=101, sweeps_per_cycle=1,
             lhv_models=200, event_span=2e4)


@dataclass
class Checked:
    """What the check of one step found.

    ``work`` counts what the call produced, read from its output (trials,
    sweep rows, models, events); the traced run must count the same.
    """

    work: dict[str, int] = field(default_factory=dict)
    output_bytes: int = 0
    errors: list[str] = field(default_factory=list)


@dataclass(frozen=True)
class Step:
    call: str  # "call1", "call2" or "parallel"
    run: Callable[[], object]
    check: Callable[[object], Checked]


def nproc() -> int:
    """CPUs this process may run on (what ``nproc`` prints)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def run_cli(argv: list[str]) -> tuple[int, str]:
    """Call ``bellsim.cli.main`` in this process and capture its stdout."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


class MonteCarlo:
    """``bellsim simulate`` at one worker and at ``nproc`` workers."""

    def __init__(self, scheme: str, k: float, seed: int, sizes: Sizes) -> None:
        self.scheme, self.k, self.seed = scheme, k, seed
        self.trials = sizes.mc_trials
        self.workers = nproc()
        self._serial: dict | None = None

    def steps(self) -> list[Step]:
        return [
            Step("call1", lambda: self._simulate(1), self._check_serial),
            Step("parallel", lambda: self._simulate(self.workers), self._check_parallel),
        ]

    def named_metrics(self, median_s: dict[str, float]) -> list[tuple[str, float, str]]:
        trials = 4 * self.trials
        return [
            ("mc_trials_per_s_1w", trials / median_s["call1"], "trials/s"),
            ("mc_trials_per_s_nw", trials / median_s["parallel"], "trials/s"),
        ]

    def _simulate(self, workers: int) -> tuple[int, str]:
        return run_cli([
            "simulate", "--scheme", self.scheme, "--k", repr(self.k),
            "--trials", str(self.trials), "--seed", str(self.seed),
            "--workers", str(workers),
        ])

    def _check(self, raw: tuple[int, str]) -> tuple[Checked, dict | None]:
        code, text = raw
        out = Checked(output_bytes=len(text.encode()))
        if code != 0:
            out.errors.append(f"simulate exited with {code}")
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            out.errors.append(f"simulate printed no JSON report: {exc}")
            return out, None
        if payload.get("passed") is not True:
            out.errors.append(f"simulate comparison failed, max|z|={payload.get('max_abs_z')}")
        for row in payload.get("rows", []):
            z = row["z"]
            if not (isinstance(z, float) and abs(z) <= Z_LIMIT):
                out.errors.append(f"simulate row {row['name']}: z={z!r} outside +-{Z_LIMIT}")
        out.work["trials"] = 4 * int(payload["config"]["n_trials"])
        return out, payload

    def _check_serial(self, raw: tuple[int, str]) -> Checked:
        out, self._serial = self._check(raw)
        return out

    def _check_parallel(self, raw: tuple[int, str]) -> Checked:
        out, payload = self._check(raw)
        if payload is not None and self._serial is not None:
            keys = ("rows", "ch", "conditional_b_given_a")
            if any(payload[key] != self._serial[key] for key in keys):
                out.errors.append(
                    f"estimates at {self.workers} workers differ from 1 worker"
                )
        return out


class ClosedForm:
    """``bellsim analytic`` (log grid x 3 modes) and ``bellsim lhv-check``."""

    def __init__(self, seed: int, sizes: Sizes) -> None:
        self.seed = seed
        self.points = sizes.sweep_points
        self.sweeps = sizes.sweeps_per_cycle
        self.models = sizes.lhv_models

    def steps(self) -> list[Step]:
        sweep = Step("call1", self._sweep, self._check_sweep)
        lhv = Step("call2", self._lhv, self._check_lhv)
        return [sweep] * self.sweeps + [lhv]

    def named_metrics(self, median_s: dict[str, float]) -> list[tuple[str, float, str]]:
        return [
            ("sweep_s", median_s["call1"], "s"),
            ("lhv_models_per_s", self.models / median_s["call2"], "models/s"),
        ]

    def _sweep(self) -> tuple[int, str]:
        return run_cli(["analytic", "--points", str(self.points)])

    def _lhv(self) -> tuple[int, str]:
        return run_cli(["lhv-check", "--models", str(self.models), "--seed", str(self.seed)])

    def _check_sweep(self, raw: tuple[int, str]) -> Checked:
        code, text = raw
        out = Checked(output_bytes=len(text.encode()))
        if code != 0:
            out.errors.append(f"analytic exited with {code}")
        rows = list(csv.reader(io.StringIO(text)))
        data = [row for row in rows[1:] if not row[1].endswith(":zero-crossing")]
        crossings = {row[1]: float(row[0]) for row in rows[1:] if row[1].endswith(":zero-crossing")}
        out.work["sweep_rows"] = len(data)
        if len(data) != 3 * self.points:
            out.errors.append(f"analytic printed {len(data)} rows, expected {3 * self.points}")
        bad = [row[0] for row in data if row[1] == "standard" and not float(row[4]) > 0.0]
        if bad:
            out.errors.append(f"standard CH not positive at k={bad[:3]}")
        k0 = crossings.get("multiwindow-exact:zero-crossing")
        if k0 is None or not CROSSING_BOUNDS[0] < k0 < CROSSING_BOUNDS[1]:
            out.errors.append(f"multiwindow-exact zero crossing {k0!r} outside {CROSSING_BOUNDS}")
        return out

    def _check_lhv(self, raw: tuple[int, str]) -> Checked:
        code, text = raw
        out = Checked(output_bytes=len(text.encode()))
        lines = text.splitlines()
        if code != 0 or "result=PASS" not in lines:
            out.errors.append(f"lhv-check exited with {code}: {lines[-1:]}")
        fields = dict(part.split("=", 1) for part in lines[0].split()) if lines else {}
        out.work["models"] = int(fields.get("models", 0))
        return out


class WaveformTiming:
    """Event sampling on the (1, -2, 1) three-wave, then delay and window scans.

    Mirrors ``bellsim waveform delays|windows``: two streams thinned from the
    shared intensity and two homogeneous streams, all at the same mean rate.
    """

    def __init__(self, seed: int, sizes: Sizes) -> None:
        self.seed = seed
        self.span = sizes.event_span
        self.wave = waveform.three_wave()
        self.rate_scale = EVENT_RATE / waveform.harmonic_expansion(self.wave).a0
        self._streams: tuple | None = None
        self._events = 0

    def steps(self) -> list[Step]:
        return [
            Step("call1", self._sample, self._check_events),
            Step("call2", self._scan, self._check_scan),
        ]

    def named_metrics(self, median_s: dict[str, float]) -> list[tuple[str, float, str]]:
        return [
            ("events_per_s", self._events / median_s["call1"], "events/s"),
            ("coincidence_scan_s", median_s["call2"], "s"),
        ]

    def _sample(self) -> tuple:
        rng_sa, rng_sb, rng_ia, rng_ib = (
            np.random.Generator(np.random.Philox(child))
            for child in np.random.SeedSequence(self.seed).spawn(4)
        )
        return (
            waveform.sample_events(self.wave, self.span, self.rate_scale, rng_sa),
            waveform.sample_events(self.wave, self.span, self.rate_scale, rng_sb),
            waveform.sample_homogeneous_events(EVENT_RATE, self.span, rng_ia),
            waveform.sample_homogeneous_events(EVENT_RATE, self.span, rng_ib),
        )

    def _scan(self) -> tuple:
        shared_a, shared_b, indep_a, indep_b = self._streams
        delays = (
            waveform.delay_statistics(shared_a, shared_b),
            waveform.delay_statistics(indep_a, indep_b),
        )
        windows = tuple(
            [waveform.windowed_coincidences(a, b, width) for width in CLI_WINDOWS]
            for a, b in ((shared_a, shared_b), (indep_a, indep_b))
        )
        return delays, windows

    def _check_events(self, streams: tuple) -> Checked:
        self._streams = streams
        out = Checked()
        expected = EVENT_RATE * self.span
        for stream in streams:
            if abs(stream.n - expected) > Z_LIMIT * math.sqrt(expected):
                out.errors.append(f"stream of {stream.n} events; expected {expected:g} +- 5 sigma")
        self._events = sum(stream.n for stream in streams)
        out.work["events"] = self._events
        return out

    def _check_scan(self, result: tuple) -> Checked:
        (shared, indep), windows = result
        out = Checked()
        if not (shared.median_abs_delay and indep.median_abs_delay):
            out.errors.append("a delay median is missing")
        elif shared.median_abs_delay / indep.median_abs_delay >= MAX_DELAY_RATIO:
            out.errors.append(
                f"shared/independent median delay ratio "
                f"{shared.median_abs_delay / indep.median_abs_delay:.3f} >= {MAX_DELAY_RATIO}"
            )
        for counts, n in zip(windows, (shared.n, indep.n)):
            if counts != sorted(counts) or counts[-1] > n:
                out.errors.append(f"window counts {counts} not monotone within 0..{n}")
        return out


#: Workload name -> constructor taking (seed, sizes). README.md gives the
#: reason for each.
WORKLOADS = {
    "mc_halves": lambda seed, sizes: MonteCarlo("halves", 4.0, seed, sizes),
    "mc_single": lambda seed, sizes: MonteCarlo("single", 1.0, seed, sizes),
    "closed_form": ClosedForm,
    "waveform_timing": WaveformTiming,
}


def make(name: str, seed: int, sizes: Sizes):
    """Build the workload ``name`` with inputs drawn from ``seed``."""
    return WORKLOADS[name](seed, sizes)
