"""Command-line front end: sweeps, simulation runs, waveform demos, LHV checks.

Subcommands
-----------
``bellsim analytic``   closed-form CH sweeps over k, CSV output with
                       zero-crossing footer rows.
``bellsim simulate``   Monte Carlo run compared against the closed forms,
                       JSON report, exit code reflects the comparison.
``bellsim waveform``   ``stats`` / ``delays`` / ``windows`` demonstrations of
                       intensity-driven event timing, CSV output.
``bellsim lhv-check``  random local-model CH screening plus the 16-case
                       pointwise inequality, text summary.

Exit codes: 0 success/pass, 1 configuration error, 2 comparison failure.
All randomness is seeded; CSV output uses dot decimals, a header row, fixed
column order, and ``\\n`` line endings, so identical inputs give
byte-identical files.  Angles are radians by default; a ``deg`` or ``rad``
suffix selects the unit explicitly (e.g. ``30deg``).
"""

from __future__ import annotations

import argparse
import io
import math
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .analytic import SWEEP_MODES, ch_zero_crossing, table_for_mode
from .detector import SCHEMES
from .errors import (
    _MAX_GRID, BellsimError, InvalidInputError, _count, _interval, _member, _positive, _real,
    _seed,
)
from .inequalities import (
    DEFAULT_QUAD,
    AngleQuad,
    DiscreteLHVModel,
    batched_ch,
    ch_value,
    eval_discrete_lhv,
    pointwise_ch_inequality_check,
    random_discrete_model,
)
from .montecarlo import RNG_CONTRACT, RunConfig, _generator, compare_to_analytic

# waveform, json and csv are imported by the functions that use them, so a
# command that needs none of them starts without compiling or loading them.
if TYPE_CHECKING:
    from .waveform import Waveform

__all__ = ["main", "parse_angle"]

_SCHEMA_VERSION = 2
_LHV_TOLERANCE = 1e-12
# lhv-check screens this many models per batched_ch call: large enough to
# amortize the per-call overhead, small enough that a block stays ~1 MB.
_LHV_BLOCK = 256
# Models screened within this of a block's lowest CH are re-evaluated
# exactly; it is far above the screen's float error (~1e-15).
_LHV_SCREEN_MARGIN = 1e-9

_EXIT_OK = 0
_EXIT_CONFIG = 1
_EXIT_COMPARISON = 2


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # noqa: D401 - argparse hook
        raise InvalidInputError(f"{self.prog}: {message}")


def parse_angle(text: str | float) -> float:
    """Parse an angle: bare numbers are radians, 'Xdeg'/'Xrad' are explicit.
    Anything but a string must be a finite real number itself."""
    if not isinstance(text, str):
        return _real("angle", text)
    s = text.strip().lower()
    try:
        if s.endswith("deg"):
            value = math.radians(float(s[: -len("deg")]))
        elif s.endswith("rad"):
            value = float(s[: -len("rad")])
        else:
            value = float(s)
    except ValueError:
        raise InvalidInputError(
            f"cannot parse angle {text!r} (use radians, or a deg/rad suffix)"
        ) from None
    return _real("angle", value)


def _fmt(x: object) -> str:
    if isinstance(x, float):
        # repr of a builtin float is the shortest round-trip form; the cast
        # also strips numpy scalar types so CSV cells stay plain numbers.
        return repr(float(x))
    return str(x)


def _emit_text(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8")


def _emit_csv(header: Sequence[str], rows: Sequence[Sequence[object]], out: str | None) -> None:
    import csv

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([_fmt(cell) for cell in row] for row in rows)
    _emit_text(buf.getvalue(), out)


def _json_safe(obj):
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else repr(obj)
    if isinstance(obj, dict):
        return {key: _json_safe(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(value) for value in obj]
    return obj


# ---------------------------------------------------------------------------
# analytic

@dataclass(frozen=True)
class SweepSpec:
    """A k-sweep request: grid, angle quad, and the curve modes to emit."""

    grid_kind: str
    start: float
    stop: float
    points: int
    quad: AngleQuad
    modes: tuple[str, ...]

    def __post_init__(self) -> None:
        _member("k_grid kind", self.grid_kind, ("log", "linear"))
        _interval("k_grid start/stop", (self.start, self.stop), positive=True)
        _count("k_grid points", self.points, 2, _MAX_GRID)
        for mode in self.modes:
            _member("mode", mode, SWEEP_MODES)

    def k_values(self) -> np.ndarray:
        if self.grid_kind == "log":
            return np.geomspace(self.start, self.stop, self.points)
        return np.linspace(self.start, self.stop, self.points)


def _load_quad(args: argparse.Namespace, raw: dict) -> AngleQuad:
    """Settings from the ``--angle-*`` flags, else from ``raw``, else the defaults."""
    angles = asdict(DEFAULT_QUAD)
    unknown = set(raw) - set(angles)
    if unknown:
        raise InvalidInputError(f"unknown quad keys: {sorted(unknown)}; expected {sorted(angles)}")
    from_raw = {name: parse_angle(raw[name]) for name in angles if name in raw}
    from_flags = {
        name: parse_angle(text)
        for name in angles
        if (text := getattr(args, f"angle_{name}")) is not None
    }
    return AngleQuad(**{**angles, **from_raw, **from_flags})


def _load_sweep_spec(args: argparse.Namespace) -> SweepSpec:
    raw: dict = {}
    if args.spec is not None:
        import json

        try:
            raw = json.loads(Path(args.spec).read_text(encoding="utf-8"))
        except OSError as exc:
            raise InvalidInputError(f"cannot read spec file: {exc}") from None
        except json.JSONDecodeError as exc:
            raise InvalidInputError(
                f"config parse error in {args.spec} at line {exc.lineno} column {exc.colno}: {exc.msg}"
            ) from None
        if not isinstance(raw, dict):
            raise InvalidInputError("sweep config must be a JSON object")
        unknown = set(raw) - {"k_grid", "quad", "modes"}
        if unknown:
            raise InvalidInputError(f"unknown sweep config keys: {sorted(unknown)}")

    grid = raw.get("k_grid", {})
    if not isinstance(grid, dict):
        raise InvalidInputError("'k_grid' must be a JSON object")
    grid_kind = args.grid if args.grid is not None else grid.get("kind", "log")
    start = args.start if args.start is not None else grid.get("start", 0.01)
    stop = args.stop if args.stop is not None else grid.get("stop", 100.0)
    points = args.points if args.points is not None else grid.get("points", 121)

    quad_raw = raw.get("quad", {})
    if not isinstance(quad_raw, dict):
        raise InvalidInputError("'quad' must be a JSON object")
    quad = _load_quad(args, quad_raw)

    if args.modes is not None:
        modes = tuple(m for m in (s.strip() for s in args.modes.split(",")) if m)
    else:
        modes_raw = raw.get("modes", list(SWEEP_MODES))
        if not isinstance(modes_raw, list):
            raise InvalidInputError("'modes' must be a JSON array")
        modes = tuple(str(m) for m in modes_raw)
    return SweepSpec(
        grid_kind=grid_kind, start=start, stop=stop, points=points, quad=quad, modes=modes
    )


def cmd_analytic(args: argparse.Namespace) -> int:
    spec = _load_sweep_spec(args)
    if not spec.modes:
        print("warning: empty mode set; no rows emitted", file=sys.stderr)
    # Rows are formatted as computed, in csv.writer's bytes: each cell is a
    # builtin float's repr, a sweep mode or "", and none needs quoting.
    ks = spec.k_values().tolist()
    k_cells = [repr(k) for k in ks]
    lines = ["k,mode,p_s,p_c,ch\n"]
    footers = []
    for mode in spec.modes:
        for k, k_cell in zip(ks, k_cells):
            b = ch_value(table_for_mode(k, spec.quad, mode))
            lines.append(f"{k_cell},{mode},{b.p_s!r},{b.p_c!r},{b.ch!r}\n")
        crossing = ch_zero_crossing(spec.quad, mode=mode, bracket=(spec.start, spec.stop))
        if crossing is not None:
            footers.append(f"{crossing!r},{mode}:zero-crossing,,,0.0\n")
    _emit_text("".join(lines + footers), args.out)
    return _EXIT_OK


# ---------------------------------------------------------------------------
# simulate

def cmd_simulate(args: argparse.Namespace) -> int:
    import json

    cfg = RunConfig(
        k=args.k,
        quad=_load_quad(args, {}),
        scheme=args.scheme,
        n_trials=args.trials,
        seed=args.seed,
        phase_mode="sampled" if args.phases else "suppressed",
        workers=args.workers,
    )
    started = time.perf_counter()
    report = compare_to_analytic(cfg, analytic_k=args.analytic_k)
    runtime = time.perf_counter() - started
    est = report.estimated
    payload = {
        "schema_version": _SCHEMA_VERSION,
        "config": {**asdict(cfg), "rng_contract": RNG_CONTRACT},
        "analytic_k": report.analytic_k,
        "rows": [asdict(row) for row in report.rows],
        "ch": {**asdict(est.ch), "std_error": est.ch_std_error},
        "conditional_b_given_a": est.conditional_b_given_a,
        "max_abs_z": report.max_abs_z,
        "z_limit": report.z_limit,
        "passed": report.passed,
        "monotonicity_violations": list(report.monotonicity_violations),
        "notes": [
            "marginals reuse the pair runs; the CH standard error uses the exact "
            "multinomial variance of P_A + P_B - P_AB within the (A, B) run plus "
            "the independent variances of the other three joints",
            "closed-form references assume suppressed phases; with --phases the "
            "z-scores measure the phase cross-term effect",
        ],
        "runtime_seconds": runtime,
    }
    _emit_text(json.dumps(_json_safe(payload), indent=2, sort_keys=True) + "\n", args.out)
    return _EXIT_OK if report.passed else _EXIT_COMPARISON


# ---------------------------------------------------------------------------
# waveform

def _parse_floats(flag: str, text: object, what: str) -> list[float]:
    """The comma-separated numbers of a flag's value."""
    try:
        return [float(part) for part in str(text).split(",")]
    except ValueError:
        raise InvalidInputError(
            f"cannot parse {flag} {text!r}; expected comma-separated {what}"
        ) from None


def _parse_wave(args: argparse.Namespace) -> Waveform:
    from .waveform import Waveform

    coeffs = _parse_floats("--wave", args.wave, "numbers")
    return Waveform.from_coefficients(coeffs, omega=args.omega, amplitude=args.amplitude)


def _paired_streams(w: Waveform, span: float, rate: float, seed: int):
    """Two shared-intensity streams and two constant-rate baselines.

    All four have the same mean event rate: the shared pair is thinned from
    the waveform intensity with rate_scale = rate / mean_intensity, the
    baseline pair is homogeneous at ``rate``.
    """
    from .waveform import harmonic_expansion, sample_events, sample_homogeneous_events

    mean_intensity = harmonic_expansion(w).a0
    if mean_intensity <= 0:
        raise InvalidInputError("waveform has zero mean intensity; no events to sample")
    rng_sa, rng_sb, rng_ia, rng_ib = (_generator("events", seed, i) for i in range(4))
    shared_a = sample_events(w, span, rate / mean_intensity, rng_sa)
    shared_b = sample_events(w, span, rate / mean_intensity, rng_sb)
    indep_a = sample_homogeneous_events(rate, span, rng_ia)
    indep_b = sample_homogeneous_events(rate, span, rng_ib)
    return shared_a, shared_b, indep_a, indep_b


def cmd_waveform(args: argparse.Namespace) -> int:
    from .waveform import (
        DelayStatistics,
        intensity_stats,
        nearest_delays,
        windowed_coincidence_counts,
    )

    w = _parse_wave(args)
    if args.waveform_command == "stats":
        stats = intensity_stats(
            w, samples_per_period=args.samples, detection_time=args.detection_time
        )
        rows: list[list[object]] = [
            ["mean", stats.mean],
            ["maximum", stats.maximum],
            ["peak_to_mean", stats.peak_to_mean],
            ["peak_to_mean_squared", stats.peak_to_mean_squared],
        ]
        rows.extend(["argmax_time", t] for t in stats.argmax_times)
        rows.append(["samples_per_period", stats.samples_per_period])
        rows.append(["detection_time", "" if stats.detection_time is None else stats.detection_time])
        if stats.note is not None:
            rows.append(["note", stats.note])
        _emit_csv(("quantity", "value"), rows, args.out)
        return _EXIT_OK

    _positive("--span", args.span)
    _positive("--rate", args.rate)
    _seed("--seed", args.seed)
    if args.waveform_command == "delays":
        _count("--bins", args.bins, maximum=_MAX_GRID)
    else:
        windows = sorted(
            _positive("window", width)
            for width in _parse_floats("--windows", args.windows, "durations")
        )
    shared_a, shared_b, indep_a, indep_b = _paired_streams(w, args.span, args.rate, args.seed)

    if args.waveform_command == "delays":
        # One search per pair; both histograms share the larger delay limit.
        shared_d = nearest_delays(shared_a, shared_b)
        indep_d = nearest_delays(indep_a, indep_b)
        limit = max(
            float(np.max(np.abs(shared_d), initial=0.0)),
            float(np.max(np.abs(indep_d), initial=0.0)),
        ) or 1.0
        histogram_range = (-limit, limit)
        shared = DelayStatistics.from_delays(shared_d, args.bins, histogram_range)
        indep = DelayStatistics.from_delays(indep_d, args.bins, histogram_range)
        rows = []
        for case, stats in (("independent", indep), ("shared", shared)):
            for left, right, count in zip(stats.bin_edges[:-1], stats.bin_edges[1:], stats.counts):
                rows.append(["bin", case, float(left), float(right), int(count)])
        for case, stats in (("independent", indep), ("shared", shared)):
            rows.append(["n_events", case, "", "", stats.n])
            rows.append(
                ["median_abs_delay", case, "", "",
                 "" if stats.median_abs_delay is None else stats.median_abs_delay]
            )
        if indep.median_abs_delay and shared.median_abs_delay is not None:
            rows.append(
                ["median_ratio", "shared/independent", "", "",
                 shared.median_abs_delay / indep.median_abs_delay]
            )
        _emit_csv(("quantity", "case", "bin_left", "bin_right", "value"), rows, args.out)
        return _EXIT_OK

    # windows
    rows = list(zip(
        windows,
        windowed_coincidence_counts(shared_a, shared_b, windows),
        windowed_coincidence_counts(indep_a, indep_b, windows),
    ))
    _emit_csv(("window", "shared", "independent"), rows, args.out)
    return _EXIT_OK


# ---------------------------------------------------------------------------
# lhv-check

def cmd_lhv_check(args: argparse.Namespace) -> int:
    _count("--models", args.models)
    _count("--max-states", args.max_states, maximum=_MAX_GRID)
    _seed("--seed", args.seed)
    if args.adversarial:
        # Negative control: a response outside [0, 1] must be rejected at
        # model construction, as any bad argument is (exit 1).
        DiscreteLHVModel(
            weights=(0.5, 0.5),
            response_a=((0.2, 1.3), (0.4, 0.1)),
            response_b=((0.3, 0.6), (0.9, 0.0)),
        )
        raise AssertionError("unreachable: invalid model must not validate")
    rng = _generator("lhv", args.seed)
    min_ch = math.inf
    min_info = ""
    for start in range(0, args.models, _LHV_BLOCK):
        models = [
            random_discrete_model(rng, max_states=args.max_states)
            for _ in range(min(_LHV_BLOCK, args.models - start))
        ]
        screened = batched_ch(models)
        floor = float(screened.min())
        if floor > min_ch + _LHV_SCREEN_MARGIN:
            continue
        # The screen is within ~1e-15 of the exact value, so every model that
        # can hold or tie the minimum lies within the margin of the floor.
        # Re-evaluating those exactly, in index order, reports the same value
        # and index as evaluating every model exactly.
        for j in np.flatnonzero(screened <= floor + _LHV_SCREEN_MARGIN):
            ch = ch_value(eval_discrete_lhv(models[j])).ch
            if ch < min_ch:
                min_ch = ch
                min_info = f"model {start + j}, n_states={models[j].n_states}"
    pointwise = pointwise_ch_inequality_check()
    passed = min_ch >= -_LHV_TOLERANCE and pointwise.all_nonnegative
    lines = [
        f"models={args.models} seed={args.seed} max_states={args.max_states}",
        f"min_ch={min_ch:.17g} ({min_info})",
        f"pointwise_cases={len(pointwise.cases)} min_slack={pointwise.min_slack:.17g} "
        f"all_nonnegative={pointwise.all_nonnegative}",
        f"tolerance={-_LHV_TOLERANCE:.1e}",
        f"result={'PASS' if passed else 'FAIL'}",
    ]
    _emit_text("\n".join(lines) + "\n", args.out)
    return _EXIT_OK if passed else _EXIT_COMPARISON


# ---------------------------------------------------------------------------
# parser

_ANGLE_FLAGS = {
    "--angle-a": "setting A (radians, or e.g. 30deg)",
    "--angle-b": "setting B",
    "--angle-a-prime": "setting A'",
    "--angle-b-prime": "setting B'",
}
_DIGITS = frozenset("0123456789.")


def _add_angle_flags(parser: argparse.ArgumentParser) -> None:
    for flag, help_text in _ANGLE_FLAGS.items():
        parser.add_argument(flag, default=None, help=help_text)


def _join_negative_angles(argv: Sequence[str]) -> list[str]:
    """Write ``--angle-a -30deg`` as ``--angle-a=-30deg``.

    argparse reads a token that starts with ``-`` as a value only if it looks
    like ``-<digits>[.<digits>]``, so ``-30deg``, ``-0.5rad`` and ``-1e-7``
    after an angle flag would be taken for an option.  A token that starts
    with ``-`` and then a digit or ``.`` cannot be an option of this CLI, so
    joining it to the angle flag before it changes nothing else.  The flag
    may be abbreviated, as argparse allows, to a prefix of exactly one of the
    four; ``--angle-a`` is itself, not short for ``--angle-a-prime``.  Tokens
    after ``--`` are left alone.
    """
    out = list(argv)
    end = out.index("--") if "--" in out else len(out)
    # Right to left, so that a join does not shift the tokens still to visit.
    for i in range(end - 2, -1, -1):
        flag, value = out[i], out[i + 1]
        named = flag in _ANGLE_FLAGS or sum(name.startswith(flag) for name in _ANGLE_FLAGS) == 1
        if named and value[:1] == "-" and value[1:2] in _DIGITS:
            out[i : i + 2] = [f"{flag}={value}"]
    return out


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="bellsim", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_analytic = sub.add_parser(
        "analytic", help="closed-form CH sweep over k, CSV with zero-crossing footers"
    )
    p_analytic.add_argument("--spec", default=None, help="JSON sweep config file")
    p_analytic.add_argument("--out", default=None, help="output CSV path (default stdout)")
    p_analytic.add_argument("--grid", choices=("log", "linear"), default=None)
    p_analytic.add_argument("--start", type=float, default=None, help="first k (> 0)")
    p_analytic.add_argument("--stop", type=float, default=None, help="last k")
    p_analytic.add_argument("--points", type=int, default=None, help="grid size (>= 2)")
    p_analytic.add_argument(
        "--modes", default=None,
        help=f"comma-separated subset of: {', '.join(SWEEP_MODES)}",
    )
    _add_angle_flags(p_analytic)
    p_analytic.set_defaults(func=cmd_analytic)

    p_sim = sub.add_parser(
        "simulate", help="Monte Carlo run vs closed forms, JSON report"
    )
    p_sim.add_argument("--k", type=float, required=True, help="detector response parameter")
    p_sim.add_argument("--scheme", choices=SCHEMES, default="single")
    p_sim.add_argument("--trials", type=int, default=100_000, help="trials per setting pair")
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--workers", type=int, default=1)
    p_sim.add_argument(
        "--phases", action="store_true",
        help="sample interference phases instead of suppressing them "
             "(closed forms then no longer apply; comparison may fail)",
    )
    p_sim.add_argument(
        "--analytic-k", type=float, default=None,
        help="compare against closed forms at this k instead (negative control)",
    )
    p_sim.add_argument("--out", default=None, help="output JSON path (default stdout)")
    _add_angle_flags(p_sim)
    p_sim.set_defaults(func=cmd_simulate)

    p_wave = sub.add_parser("waveform", help="intensity/event-timing demonstrations, CSV")
    wave_sub = p_wave.add_subparsers(dest="waveform_command", required=True, parser_class=_Parser)
    for name, help_text in (
        ("stats", "period mean/max/argmax of the intensity"),
        ("delays", "nearest-neighbor delay histogram: shared vs independent streams"),
        ("windows", "coincidences vs window width: shared vs independent streams"),
    ):
        p = wave_sub.add_parser(name, help=help_text)
        p.add_argument("--wave", default="1,-2,1", help="comma-separated coefficients on harmonics 1..n")
        p.add_argument("--omega", type=float, default=1.0, help="base angular frequency")
        p.add_argument("--amplitude", type=float, default=1.0, help="overall amplitude |A|")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", default=None, help="output CSV path (default stdout)")
        if name == "stats":
            p.add_argument("--samples", type=int, default=4096, help="samples per period (>= 1000)")
            p.add_argument(
                "--detection-time", type=float, default=None,
                help="moving-average pre-filter width (default off)",
            )
        else:
            p.add_argument("--rate", type=float, default=1.0, help="mean events per unit time, per stream")
            p.add_argument("--span", type=float, default=20000.0, help="observation span")
        if name == "delays":
            p.add_argument("--bins", type=int, default=64, help="histogram bins")
        if name == "windows":
            p.add_argument(
                "--windows", default="0.05,0.1,0.2,0.5,1.0,2.0,5.0",
                help="comma-separated window widths",
            )
        p.set_defaults(func=cmd_waveform)

    p_lhv = sub.add_parser("lhv-check", help="random LHV models obey CH >= 0; pointwise suite")
    p_lhv.add_argument("--models", type=int, default=1000, help="number of random models")
    p_lhv.add_argument("--seed", type=int, default=0)
    p_lhv.add_argument("--max-states", type=int, default=64, help="largest hidden-state count")
    p_lhv.add_argument(
        "--adversarial", action="store_true",
        help="negative control: inject a response of 1.3 and expect rejection",
    )
    p_lhv.add_argument("--out", default=None, help="output path (default stdout)")
    p_lhv.set_defaults(func=cmd_lhv_check)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(_join_negative_angles(sys.argv[1:] if argv is None else argv))
        return args.func(args)
    except (BellsimError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
