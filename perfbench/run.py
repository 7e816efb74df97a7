"""Run one bellsim benchmark workload and print its metrics.

    python3 perfbench/run.py --workload mc_halves --seed 1 --seconds 20 --trace 0

Imports ``bellsim`` from ``src/`` of the checkout this file sits in, runs the
workload's steps in a closed loop for about ``--seconds`` seconds, checks
every result, and prints a report whose last line is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. With ``--trace 0`` the
metrics are the end-to-end ones of BENCHMARK.json; with ``--trace 1`` they are
the per-layer ones, from cycles run under :class:`spans.Tracer` alternating
with untraced cycles (whose difference is ``trace.overhead_frac``). The full
record, with the environment, goes to ``perfbench/out/``. See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
WORKLOADS = ("mc_halves", "mc_single", "closed_form", "waveform_timing")
#: Cycles per run at least, so that counts can be compared between cycles.
MIN_CYCLES = 2
#: Fresh interpreters started per run to time set-up; the median is reported.
SETUP_SAMPLES = 5
_SETUP_CODE = (
    "import bellsim, bellsim.cli; bellsim.cli.build_parser(); "
    "print(bellsim.__file__, flush=True)"
)


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def import_bellsim() -> None:
    """Make ``bellsim`` importable from ``src/`` of this checkout, and only there."""
    if not (SRC / "bellsim" / "__init__.py").is_file():
        raise BenchError(f"no bellsim package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import bellsim

    if not Path(bellsim.__file__).resolve().is_relative_to(SRC):
        raise BenchError(f"bellsim imported from {bellsim.__file__}, not from {SRC}")


def setup_seconds(samples: int) -> list[float]:
    """Seconds from starting a fresh interpreter until ``import bellsim`` and
    ``bellsim.cli.build_parser()`` are done, once per sample."""
    times = []
    for _ in range(samples):
        start = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, "-c", _SETUP_CODE], cwd=ROOT, env={**os.environ, "PYTHONPATH": str(SRC)},
            stdout=subprocess.PIPE, text=True,
        ) as proc:
            try:
                line = proc.stdout.readline()
                times.append(time.perf_counter() - start)
                proc.communicate(timeout=60)
            finally:
                proc.kill()
        if proc.returncode != 0 or not Path(line.strip()).resolve().is_relative_to(SRC):
            raise BenchError(f"set-up sample failed: exit {proc.returncode}, {line!r}")
    return times


def environment(seed: int) -> dict:
    import numpy
    import scipy

    import bellsim
    import workloads

    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=30, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "bellsim": bellsim.__version__,
        "nproc": workloads.nproc(),
        "machine": platform.machine(),
        "commit": commit,
        "seed": seed,
    }


@dataclass
class Cycle:
    """One pass over a workload's steps."""

    times: dict[str, list[float]] = field(default_factory=dict)  # step label -> seconds
    work: dict[str, int] = field(default_factory=dict)
    output_bytes: int = 0

    @property
    def wall(self) -> float:
        return sum(sum(times) for times in self.times.values())

    @property
    def serial(self) -> float:
        """Time of the single-threaded steps."""
        return sum(sum(times) for call, times in self.times.items() if call != "parallel")


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)


def run_cycle(steps, tally: Tally, tracer=None) -> Cycle:
    """Run and check each step once; a failing step counts in ``tally``."""
    cycle = Cycle()
    for step in steps:
        tally.attempted += 1
        try:
            with tracer.op(step.call) if tracer else nullcontext():
                start = time.perf_counter()
                raw = step.run()
                seconds = time.perf_counter() - start
            checked = step.check(raw)
        except Exception:  # a failing operation is counted, not fatal
            tally.failed += 1
            tally.errors.append(traceback.format_exc())
            continue
        if checked.errors:
            tally.failed += 1
            tally.errors.extend(checked.errors)
        cycle.times.setdefault(step.call, []).append(seconds)
        cycle.output_bytes += checked.output_bytes
        for key, value in checked.work.items():
            cycle.work[key] = cycle.work.get(key, 0) + value
    return cycle


def run(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    """Run one workload; returns the full record (see README.md)."""
    import_bellsim()
    import spans
    import workloads

    sizes = workloads.TINY if tiny else workloads.FULL
    wl = workloads.make(workload, seed, sizes)
    tally = Tally()
    record = {"workload": workload, "seconds": seconds, "trace": int(trace),
              "tiny": tiny, "env": environment(seed)}
    if not trace:
        record["setup_samples_s"] = setup_seconds(1 if tiny else SETUP_SAMPLES)

    # Warm-up at tiny size: lazy imports and first-call costs stay out of timing.
    run_cycle(workloads.make(workload, seed, workloads.TINY).steps(), tally)

    tracer = spans.Tracer() if trace else None
    untraced: list[Cycle] = []
    traced: list[tuple[Cycle, dict[str, float]]] = []
    started = time.perf_counter()
    while True:
        lap = time.perf_counter()
        untraced.append(run_cycle(wl.steps(), tally))
        if tracer is not None:
            first_op = tracer.ops
            with tracer.installed():
                cycle = run_cycle(wl.steps(), tally, tracer)
            cycle_spans = [s for s in tracer.spans if s.op > first_op]
            layer, seen, errors = spans.summarize(cycle_spans, cycle.output_bytes)
            tally.errors.extend(errors)
            tally.errors.extend(
                f"traced {key}={value} but the outputs report {cycle.work.get(key, 0)}"
                for key, value in seen.items()
                if value != cycle.work.get(key, 0)
            )
            traced.append((cycle, layer))
            record.setdefault("traced_work_per_cycle", seen)
        lap = time.perf_counter() - lap
        if len(untraced) >= MIN_CYCLES and time.perf_counter() - started + lap > seconds:
            break

    cycles = untraced + [cycle for cycle, _ in traced]
    if any(cycle.work != cycles[0].work for cycle in cycles):
        tally.errors.append(f"work differs between cycles: {[c.work for c in cycles]}")

    samples: dict[str, list[float]] = {}
    for cycle in untraced:
        for call, times in cycle.times.items():
            samples.setdefault(call, []).extend(times)
    record["samples_s"] = samples
    record["cycles"] = len(untraced)
    record["work_per_cycle"] = cycles[0].work
    e2e = {}
    if set(samples) == {step.call for step in wl.steps()}:
        medians = {call: statistics.median(times) for call, times in samples.items()}
        e2e["call1_s"] = (medians["call1"], "s")
        e2e["serial_cycle_s"] = (statistics.median(c.serial for c in untraced), "s")
        record["named_metrics"] = {
            name: {"value": value, "unit": unit}
            for name, value, unit in wl.named_metrics(medians)
        }
    if not trace:
        e2e["setup_s"] = (statistics.median(record["setup_samples_s"]), "s")
        e2e["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
        metrics = e2e
    else:
        layer, errors = spans.median_metrics([m for _, m in traced])
        tally.errors.extend(errors)
        untraced_wall = statistics.median(c.wall for c in untraced)
        layer["trace.overhead_frac"] = (
            statistics.median(c.wall for c, _ in traced) - untraced_wall
        ) / untraced_wall
        metrics = {name: (layer[name], unit) for name, unit in spans.PER_LAYER.items()}
        record["end_to_end_untraced"] = {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()}
        tracer.write(OUT / f"{workload}-seed{seed}.spans.csv.gz")

    record["metrics"] = {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}
    record["failed_ops_ratio"] = tally.failed / tally.attempted
    record["errors"] = tally.errors
    record["result"] = {
        "correct": tally.failed == 0 and not tally.errors,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": record["metrics"],
    }
    return record


def report_lines(record: dict) -> list[str]:
    """Human-readable report: every metric by name with its unit."""
    env = record["env"]
    lines = [
        f"# workload={record['workload']} seed={env['seed']} trace={record['trace']} "
        f"cycles={record['cycles']} work/cycle={record['work_per_cycle']}",
        "# env " + " ".join(f"{key}={value}" for key, value in env.items()),
    ]
    for call, values in record["samples_s"].items():
        if values:
            lines.append(
                f"{call}_s samples: n={len(values)} median={statistics.median(values):.6g} "
                f"min={min(values):.6g} max={max(values):.6g}"
            )
    for section in ("named_metrics", "end_to_end_untraced", "metrics"):
        for name, m in record.get(section, {}).items():
            value = m["value"] if isinstance(m["value"], int) else f"{m['value']:.6g}"
            lines.append(f"{name} {value} {m['unit']}")
    lines.append(
        f"failed_ops_ratio {record['failed_ops_ratio']:.6g} "
        f"({record['result']['failed']} of {record['result']['attempted']} ops)"
    )
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny sizes, for the smoke test")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    try:
        record = run(args.workload, args.seed, args.seconds, bool(args.trace), args.tiny)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for error in record["errors"]:
        print(f"check failed: {error}", file=sys.stderr)
    OUT.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1) + "\n")
    print("\n".join(report_lines(record)))
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
