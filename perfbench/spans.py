"""Layer spans recorded from outside bellsim.

:meth:`Tracer.installed` replaces each function in :data:`TARGETS` by a
wrapper that records a span, in the namespace of the module that calls it
(``bellsim.detector.sample_field`` is the name ``run_trials`` looks up), and
puts every original back in a ``finally``. No file of the package changes.

A span is (op, id, parent, thread, name, start, end, quantity). ``run_trials``
runs on pool threads, so spans are stored under a lock, and a span opened on
a thread with nothing open is parented to the innermost open span of the
thread that started the op (``estimate_table``, waiting on the pool).

A span's self time is its duration minus the part of it that its children
cover. Over one op the self times of all spans, minus the time children of
one parent overlapped each other, add up to the op's wall time, which
:func:`summarize` checks; the benchmark's own root span (``bench.*``) holds
what no layer covers.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import gzip
import importlib
import statistics
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Iterator, NamedTuple

LAYERS = ("source", "detector", "montecarlo", "analytic", "inequalities", "waveform", "cli")


def _arg(index: int, name: str) -> Callable:
    def get(args: tuple, kwargs: dict, result: object) -> float:
        value = args[index] if len(args) > index else kwargs.get(name)
        return 1 if value is None else value
    return get


def _stream_events(args: tuple, kwargs: dict, result) -> int:
    return result.n


def _workers(args: tuple, kwargs: dict, result) -> int:
    return args[0].workers


#: (module whose global is replaced, attribute, span name, quantity).
#: The span name is ``<layer>.<function>``, the layer being the module that
#: defines the function. The quantity is read from the arguments or result.
TARGETS = (
    ("bellsim.cli", "main", "cli.main", None),
    ("bellsim.cli", "compare_to_analytic", "montecarlo.compare_to_analytic", None),
    ("bellsim.montecarlo", "estimate_table", "montecarlo.estimate_table", _workers),
    ("bellsim.montecarlo", "run_trials", "detector.run_trials", _arg(5, "n")),
    ("bellsim.montecarlo", "standard_table", "analytic.standard_table", None),
    ("bellsim.montecarlo", "multiwindow_table", "analytic.multiwindow_table", None),
    ("bellsim.montecarlo", "union_coincidence_table", "analytic.union_coincidence_table", None),
    ("bellsim.detector", "sample_field", "source.sample_field", _arg(1, "size")),
    ("bellsim.detector", "intensities", "source.intensities", None),
    ("bellsim.detector", "detect_prob", "detector.detect_prob", None),
    ("bellsim.cli", "table_for_mode", "analytic.table_for_mode", None),
    ("bellsim.cli", "ch_zero_crossing", "analytic.ch_zero_crossing", None),
    ("bellsim.analytic", "qset", "analytic.qset", None),
    ("bellsim.cli", "ch_value", "inequalities.ch_value", None),
    ("bellsim.analytic", "ch_value", "inequalities.ch_value", None),
    ("bellsim.cli", "random_discrete_model", "inequalities.random_discrete_model", None),
    ("bellsim.cli", "eval_discrete_lhv", "inequalities.eval_discrete_lhv", None),
    ("bellsim.cli", "pointwise_ch_inequality_check",
     "inequalities.pointwise_ch_inequality_check", None),
    ("bellsim.waveform", "sample_events", "waveform.sample_events", _stream_events),
    ("bellsim.waveform", "sample_homogeneous_events",
     "waveform.sample_homogeneous_events", _stream_events),
    ("bellsim.waveform", "intensity_at", "waveform.intensity_at", None),
    ("bellsim.waveform", "delay_statistics", "waveform.delay_statistics", None),
    ("bellsim.waveform", "windowed_coincidences", "waveform.windowed_coincidences", None),
)

#: Per-layer metrics of the traced run: name -> unit. Per cycle of the
#: workload; ``.calls`` counts spans, ``.s`` sums their durations, ``.self_s``
#: their self times.
PER_LAYER = {
    "source.sample_field.calls": "count",
    "source.sample_field.s": "s",
    "source.intensities.calls": "count",
    "source.intensities.s": "s",
    "source.values_drawn_per_trial": "values/trial",
    "source.self_s": "s",
    "detector.run_trials.calls": "count",
    "detector.run_trials.self_s": "s",
    "detector.detect_prob.calls": "count",
    "detector.detect_prob.s": "s",
    "detector.self_s": "s",
    "montecarlo.chunks": "count",
    "montecarlo.estimate_table.s": "s",
    "montecarlo.compare_to_analytic.self_s": "s",
    "montecarlo.kernel_busy_ratio": "ratio",
    "montecarlo.self_s": "s",
    "analytic.qset.calls": "count",
    "analytic.table_for_mode.calls": "count",
    "analytic.table_for_mode.s": "s",
    "analytic.ch_zero_crossing.s": "s",
    "analytic.self_s": "s",
    "inequalities.random_discrete_model.s": "s",
    "inequalities.eval_discrete_lhv.s": "s",
    "inequalities.ch_value.calls": "count",
    "inequalities.ch_value.s": "s",
    "inequalities.self_s": "s",
    "waveform.sample_events.s": "s",
    "waveform.intensity_at.calls": "count",
    "waveform.events": "count",
    "waveform.delay_statistics.s": "s",
    "waveform.windowed_coincidences.s": "s",
    "waveform.self_s": "s",
    "cli.main.self_s": "s",
    "cli.output_bytes": "B",
    "trace.wall_s": "s",
    "trace.remainder_s": "s",
    "trace.concurrent_s": "s",
    "trace.overhead_frac": "ratio",
}

#: Per-layer metrics that must repeat exactly for a fixed seed.
COUNTS = tuple(
    name for name in PER_LAYER
    if name.endswith(".calls")
    or name in ("source.values_drawn_per_trial", "montecarlo.chunks", "waveform.events")
)


class Span(NamedTuple):
    op: int
    sid: int
    parent: int | None
    thread: int
    name: str
    start: float
    end: float
    qty: float | None


class Tracer:
    """Records spans of the wrapped functions; see the module docstring."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self.spans: list[Span] = []
        self._next_sid = 0
        self.ops = 0
        self._op_stack: list | None = None

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> tuple:
        stack = self._stack()
        with self._lock:
            self._next_sid += 1
            if stack:
                parent = stack[-1][0]
            elif self._op_stack:
                parent = self._op_stack[-1][0]
            else:
                parent = None
            frame = (self._next_sid, parent, self.ops, name, time.perf_counter())
            stack.append(frame)
        return frame

    def _close(self, frame: tuple, end: float, qty: float | None) -> None:
        sid, parent, op, name, start = frame
        with self._lock:
            self._stack().pop()
            self.spans.append(Span(op, sid, parent, threading.get_ident(), name, start, end, qty))

    def _wrap(self, name: str, fn: Callable, qty: Callable | None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = self._open(name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                value = None if qty is None or result is None else qty(args, kwargs, result)
                self._close(frame, end, value)
        return traced

    @contextlib.contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Wrap every target for the duration of the block."""
        saved = []
        try:
            for module_name, attr, name, qty in TARGETS:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self._wrap(name, original, qty))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    @contextlib.contextmanager
    def op(self, name: str) -> Iterator[None]:
        """Root span ``bench.<name>`` of one timed step; run on one thread."""
        stack = self._stack()
        with self._lock:
            self.ops += 1
            self._op_stack = stack
        frame = self._open(f"bench.{name}")
        try:
            yield
        finally:
            self._close(frame, time.perf_counter(), None)
            with self._lock:
                self._op_stack = None

    def write(self, path: Path) -> None:
        """Write every span recorded so far as gzip-compressed CSV."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(Span._fields)
            for s in self.spans:
                writer.writerow((s.op, s.sid, s.parent, s.thread, s.name,
                                 repr(s.start), repr(s.end), s.qty))


def _union(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def summarize(
    spans: list[Span], output_bytes: int
) -> tuple[dict[str, float], dict[str, float], list[str]]:
    """Per-layer metrics of one cycle's spans (all but ``trace.overhead_frac``).

    Also returns the work the spans saw, keyed like the ``work`` the checks
    read from the outputs, and the errors found: a child span outside its
    parent, or self times that do not add up to the wall time of the ops.
    """
    children: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    calls: dict[str, int] = defaultdict(int)
    total: dict[str, float] = defaultdict(float)
    self_s: dict[str, float] = defaultdict(float)
    qty: dict[str, float] = defaultdict(float)
    errors = []
    concurrent = 0.0
    # Per op: the root span's duration, and the self times of the op's spans
    # minus the time their children overlapped; the two must agree.
    op_wall: dict[int, float] = defaultdict(float)
    op_accounted: dict[int, float] = defaultdict(float)
    busy: dict[int, float] = defaultdict(float)  # estimate_table sid -> run_trials time
    for s in spans:
        kids = children.get(s.sid, [])
        raw = [(c.start, c.end) for c in kids]
        covered = _union([(max(lo, s.start), min(hi, s.end)) for lo, hi in raw])
        if any(lo < s.start or hi > s.end for lo, hi in raw):
            errors.append(f"a child of span {s.name} lies outside it")
        overlap = sum(hi - lo for lo, hi in raw) - _union(raw)
        concurrent += overlap
        duration = s.end - s.start
        op_accounted[s.op] += duration - covered - overlap
        calls[s.name] += 1
        total[s.name] += duration
        self_s[s.name] += duration - covered
        if s.qty is not None:
            qty[s.name] += s.qty
        if s.parent is None:
            op_wall[s.op] += duration
        if s.name == "detector.run_trials":
            busy[s.parent] += duration

    for op, wall in op_wall.items():
        if abs(op_accounted[op] - wall) > 1e-9 * (len(spans) + 1):
            errors.append(f"self times account for {op_accounted[op]!r} s of op wall {wall!r} s")
    by_layer: dict[str, float] = defaultdict(float)
    for name, value in self_s.items():
        by_layer[name.split(".")[0]] += value
    if set(by_layer) - {"bench", *LAYERS}:
        errors.append(f"spans outside the known layers: {sorted(set(by_layer) - set(LAYERS))}")
    m = {name: 0.0 for name in PER_LAYER}
    for name in PER_LAYER:
        base, _, kind = name.rpartition(".")
        if kind == "calls":
            m[name] = calls[base]
        elif kind == "s":
            m[name] = total[base]
        elif kind == "self_s":
            m[name] = by_layer[base] if base in LAYERS else self_s[base]
    trials = qty["detector.run_trials"]
    m["source.values_drawn_per_trial"] = 4 * qty["source.sample_field"] / trials if trials else 0.0
    m["montecarlo.chunks"] = calls["detector.run_trials"]
    tables = [s for s in spans if s.name == "montecarlo.estimate_table"]
    if tables:
        most = max(s.qty for s in tables)
        widest = [s for s in tables if s.qty == most]
        m["montecarlo.kernel_busy_ratio"] = sum(busy[s.sid] for s in widest) / sum(
            (s.end - s.start) * most for s in widest
        )
    m["waveform.events"] = int(
        qty["waveform.sample_events"] + qty["waveform.sample_homogeneous_events"]
    )
    m["cli.output_bytes"] = output_bytes
    m["trace.wall_s"] = sum(op_wall.values())
    m["trace.remainder_s"] = by_layer["bench"]
    m["trace.concurrent_s"] = concurrent
    work = {
        "trials": trials,
        "sweep_rows": calls["analytic.table_for_mode"],
        "models": calls["inequalities.random_discrete_model"],
        "events": m["waveform.events"],
    }
    return m, work, errors


def median_metrics(cycles: list[dict[str, float]]) -> tuple[dict[str, float], list[str]]:
    """Medians over cycles; counts must be identical in every cycle."""
    errors = [
        f"{name} differs between cycles: {[c[name] for c in cycles]}"
        for name in COUNTS
        if any(c[name] != cycles[0][name] for c in cycles)
    ]
    medians = {
        name: cycles[0][name] if name in COUNTS else statistics.median(c[name] for c in cycles)
        for name in cycles[0]
    }
    return medians, errors
