"""Command-line interface: argument handling, exit codes, and output formats."""

import contextlib
import csv
import hashlib
import io
import json
import math
from dataclasses import fields
from pathlib import Path
from tempfile import TemporaryDirectory

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bellsim.analytic import SWEEP_MODES, ch_zero_crossing, table_for_mode
from bellsim.cli import main, parse_angle
from bellsim.inequalities import AngleQuad, ch_value, eval_discrete_lhv, random_discrete_model
from bellsim.montecarlo import RNG_CONTRACT, RunConfig
from bellsim.waveform import WAVEFORM_STREAM


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParseAngle:
    def test_bare_number_is_radians(self):
        assert parse_angle("0.5") == 0.5
        assert parse_angle(1.25) == 1.25

    def test_degree_suffix(self):
        assert parse_angle("30deg") == pytest.approx(math.pi / 6, abs=1e-15)
        assert parse_angle("90deg") == pytest.approx(math.pi / 2, abs=1e-15)

    def test_radian_suffix(self):
        assert parse_angle("1.5rad") == 1.5

    def test_rejections(self):
        from bellsim.errors import InvalidInputError

        with pytest.raises(InvalidInputError, match=r"^cannot parse angle 'fast' \(use radians"):
            parse_angle("fast")
        with pytest.raises(InvalidInputError, match="^angle must be a real number, got inf$"):
            parse_angle("inf")


_INTERVAL = "k_grid start/stop must be finite with 0 < lo < hi and a finite width hi - lo, got "


class TestAnalytic:
    def test_seed_is_not_an_option(self, capsys):
        # The sweep draws nothing, so there is no seed to set.
        code, out, err = run(capsys, "analytic", "--seed", "1")
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_csv_structure(self, capsys, tmp_path):
        out = tmp_path / "sweep.csv"
        code = main([
            "analytic", "--grid", "log", "--start", "0.1", "--stop", "10",
            "--points", "5", "--out", str(out),
        ])
        assert code == 0
        rows = list(csv.reader(out.read_text().splitlines()))
        assert rows[0] == ["k", "mode", "p_s", "p_c", "ch"]
        body = [r for r in rows[1:] if not r[1].endswith("zero-crossing")]
        footers = [r for r in rows[1:] if r[1].endswith("zero-crossing")]
        # 5 k-points x 3 default modes.
        assert len(body) == 15
        # Crossings exist for both split-window laws, not the standard one.
        assert {r[1] for r in footers} == {
            "multiwindow-exact:zero-crossing",
            "multiwindow-paper:zero-crossing",
        }
        exact_root = float(
            next(r for r in footers if r[1].startswith("multiwindow-exact"))[0]
        )
        assert exact_root == pytest.approx(1.0359500170058693, abs=1e-9)

    def test_overflowing_k_sweep_exits_0(self, capsys):
        code, out, _ = run(capsys, "analytic", "--start", "1e200", "--stop", "1e300",
                           "--points", "3", "--modes", "standard")
        assert code == 0
        assert "nan" not in out

    def test_byte_identical_runs(self, tmp_path):
        args = ["analytic", "--grid", "log", "--start", "0.05", "--stop", "50",
                "--points", "11"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_mode_filter(self, capsys):
        code, out, _ = run(capsys, "analytic", "--start", "1", "--stop", "2",
                           "--points", "2", "--modes", "standard")
        assert code == 0
        data_rows = [r for r in csv.reader(out.splitlines())][1:]
        assert all(r[1] == "standard" for r in data_rows)

    def test_empty_modes_warns_but_succeeds(self, capsys):
        code, out, err = run(capsys, "analytic", "--start", "1", "--stop", "2",
                             "--points", "2", "--modes", "")
        assert code == 0
        assert "empty mode" in err.lower()
        assert out.splitlines() == ["k,mode,p_s,p_c,ch"]

    def test_spec_file(self, capsys, tmp_path):
        spec = tmp_path / "sweep.json"
        spec.write_text(json.dumps({
            "k_grid": {"kind": "linear", "start": 1.0, "stop": 2.0, "points": 3},
            "modes": ["standard"],
        }))
        code, out, _ = run(capsys, "analytic", "--spec", str(spec))
        assert code == 0
        ks = [float(r[0]) for r in list(csv.reader(out.splitlines()))[1:]]
        assert ks == [1.0, 1.5, 2.0]

    def test_spec_flag_override(self, capsys, tmp_path):
        spec = tmp_path / "sweep.json"
        spec.write_text(json.dumps({
            "k_grid": {"kind": "linear", "start": 1.0, "stop": 2.0, "points": 3},
            "modes": ["standard"],
        }))
        code, out, _ = run(capsys, "analytic", "--spec", str(spec), "--points", "4")
        assert code == 0
        assert len(out.splitlines()) == 1 + 4

    def test_spec_rejects_mc_key(self, capsys, tmp_path):
        spec = tmp_path / "sweep.json"
        spec.write_text(json.dumps({"modes": ["standard"], "mc": {"n_trials": 10}}))
        code, out, err = run(capsys, "analytic", "--spec", str(spec))
        assert code == 1
        assert out == ""
        assert err == "error: unknown sweep config keys: ['mc']\n"

    def test_malformed_spec_reports_location(self, capsys, tmp_path):
        spec = tmp_path / "bad.json"
        spec.write_text('{"k_grid": {"kind": "linear",\n  "start": oops}}')
        code, _, err = run(capsys, "analytic", "--spec", str(spec))
        assert code == 1
        assert "line 2" in err

    @pytest.mark.parametrize("grid, message", [
        ({"start": "abc"}, f"{_INTERVAL}('abc', 100.0)"),
        ({"stop": False}, f"{_INTERVAL}(0.01, False)"),
        ({"start": int("1" + "0" * 400)}, f"{_INTERVAL}(1{'0' * 400}, 100.0)"),
        ({"points": None}, "k_grid points must be an integer >= 2, got None"),
        ({"points": 2.7}, "k_grid points must be an integer >= 2, got 2.7"),
        ({"points": True}, "k_grid points must be an integer >= 2, got True"),
    ])
    def test_spec_grid_values_must_be_json_numbers(self, capsys, tmp_path, grid, message):
        """A non-numeric k_grid value is one error line and exit 1, never a
        traceback, a truncated float or a bool read as 1."""
        spec = tmp_path / "sweep.json"
        spec.write_text(json.dumps({"k_grid": grid, "modes": ["standard"]}))
        code, out, err = run(capsys, "analytic", "--spec", str(spec))
        assert (code, out, err) == (1, "", f"error: {message}\n")

    @pytest.mark.parametrize("angle, message", [
        (True, "angle must be a real number, got True"),
        (int("1" + "0" * 400), "angle must be a real number, got 1" + "0" * 400),
    ], ids=["bool", "int-beyond-float"])
    def test_spec_angle_must_be_a_finite_number(self, capsys, tmp_path, angle, message):
        """A quad angle that is a bool or an integer beyond the float range
        is one error line and exit 1, never a bool read as 1 rad or a
        traceback."""
        spec = tmp_path / "sweep.json"
        spec.write_text(json.dumps({"quad": {"a": angle}, "modes": ["standard"]}))
        code, out, err = run(capsys, "analytic", "--spec", str(spec))
        assert (code, out, err) == (1, "", f"error: {message}\n")

    def test_bad_grid_rejected(self, capsys):
        code, _, err = run(capsys, "analytic", "--start", "5", "--stop", "1",
                           "--points", "4")
        assert code == 1
        assert "error" in err.lower()

    @pytest.mark.parametrize("argv", [
        ["--start", "0"],
        ["--start", "nan"],
        ["--points", "1"],
        ["--modes", "foo"],
        ["--spec", "cubic.json"],
    ], ids=["start-zero", "start-nan", "points-one", "unknown-mode", "spec-kind-cubic"])
    def test_bad_sweep_spec_is_one_error_line(self, capsys, tmp_path, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        Path("cubic.json").write_text(json.dumps({"k_grid": {"kind": "cubic"}}))
        code, out, err = run(capsys, "analytic", *argv)
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_custom_angles(self, capsys):
        code, out, _ = run(
            capsys, "analytic", "--start", "1", "--stop", "2", "--points", "2",
            "--modes", "standard",
            "--angle-a", "30deg", "--angle-b", "60deg",
            "--angle-a-prime", "0deg", "--angle-b-prime", "90deg",
        )
        assert code == 0
        # Same angles as the defaults, so the values match the default run.
        default_code, default_out, _ = run(
            capsys, "analytic", "--start", "1", "--stop", "2", "--points", "2",
            "--modes", "standard",
        )
        assert out == default_out


def _reference_sweep(grid, start, stop, points, quad, modes):
    """The sweep CSV as csv.writer writes it, each float cell as
    repr(float(x)), from the same rows and footers the CLI computes."""
    space = np.geomspace if grid == "log" else np.linspace
    ks = space(start, stop, points).tolist()
    rows, footers = [], []
    for mode in modes:
        for k in ks:
            b = ch_value(table_for_mode(k, quad, mode))
            rows.append([k, mode, b.p_s, b.p_c, b.ch])
        crossing = ch_zero_crossing(quad, mode=mode, bracket=(start, stop))
        if crossing is not None:
            footers.append([crossing, f"{mode}:zero-crossing", "", "", 0.0])
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(("k", "mode", "p_s", "p_c", "ch"))
    writer.writerows(
        [repr(float(cell)) if isinstance(cell, float) else cell for cell in row]
        for row in rows + footers
    )
    return buf.getvalue()


sweep_angles = st.one_of(
    st.sampled_from([0.0, math.pi / 2, math.pi, -math.pi / 2]),
    st.floats(min_value=-2 * math.pi, max_value=2 * math.pi),
)


class TestSweepBytes:
    """``analytic`` writes each row as one formatted line; the bytes are those
    of csv.writer over the same cells."""

    @settings(max_examples=60, deadline=None)
    @given(
        grid=st.sampled_from(["log", "linear"]),
        log_start=st.floats(min_value=-4.0, max_value=3.0),
        log_span=st.floats(min_value=0.01, max_value=6.0),
        points=st.integers(min_value=2, max_value=30),
        angles=st.tuples(sweep_angles, sweep_angles, sweep_angles, sweep_angles),
        modes=st.lists(st.sampled_from(SWEEP_MODES), unique=True, max_size=3),
        to_file=st.booleans(),
    )
    @example("log", -2.0, 4.0, 121, (math.pi / 6, math.pi / 3, 0.0, math.pi / 2),
             list(SWEEP_MODES), False)
    @example("linear", 0.0, 1.0, 5, (0.0, math.pi / 2, 0.0, math.pi / 2), [], True)
    def test_matches_csv_writer(self, grid, log_start, log_span, points, angles, modes, to_file):
        start, stop = 10.0**log_start, 10.0 ** (log_start + log_span)
        quad = AngleQuad(*angles)
        # "--flag=value", so that an angle such as -1e-07 is not read as a flag.
        argv = [
            "analytic", f"--grid={grid}", f"--start={start!r}", f"--stop={stop!r}",
            f"--points={points}", f"--modes={','.join(modes)}",
            f"--angle-a={quad.a!r}", f"--angle-b={quad.b!r}",
            f"--angle-a-prime={quad.a_prime!r}", f"--angle-b-prime={quad.b_prime!r}",
        ]
        stdout, stderr = io.StringIO(), io.StringIO()
        with TemporaryDirectory() as tmp, contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(stderr):
            path = Path(tmp) / "sweep.csv"
            code = main(argv + ["--out", str(path)] if to_file else argv)
            written = path.read_text(encoding="utf-8") if to_file else stdout.getvalue()
        assert code == 0
        assert written == _reference_sweep(grid, start, stop, points, quad, modes)
        assert (stdout.getvalue() == "") == to_file
        assert ("empty mode set" in stderr.getvalue()) == (not modes)


def _without_runtime(command, out):
    if command != "simulate":
        return out
    payload = json.loads(out)
    del payload["runtime_seconds"]
    return payload


class TestNegativeAngles:
    """A negative angle may follow its flag as its own token, even where
    argparse alone would take it for an option."""

    COMMANDS = {
        "analytic": ("analytic", "--points", "3", "--modes", "standard"),
        "simulate": ("simulate", "--k", "1", "--trials", "2000", "--seed", "4"),
    }

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    @pytest.mark.parametrize(
        "flag",
        [
            "--angle-a", "--angle-b", "--angle-a-prime", "--angle-b-prime",
            # Abbreviations argparse takes for exactly one flag.
            "--angle-a-p", "--angle-b-pr", "--angle-a-",
        ],
    )
    @pytest.mark.parametrize("value", ["-30deg", "-0.5rad", "-1e-7", "-.5deg", "-0.25"])
    def test_separate_token_matches_equals_form(self, capsys, command, flag, value):
        argv = self.COMMANDS[command]
        code, out, err = run(capsys, *argv, flag, value)
        joined_code, joined_out, joined_err = run(capsys, *argv, f"{flag}={value}")
        assert joined_code in (0, 2) and joined_err == ""
        # Byte for byte, but for the wall time in the simulate report.
        assert (code, _without_runtime(command, out), err) == (
            joined_code, _without_runtime(command, joined_out), joined_err
        )

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_flag_without_value_is_a_usage_error(self, capsys, command):
        code, out, err = run(capsys, *self.COMMANDS[command], "--angle-a", "--angle-b", "1")
        assert (code, out) == (1, "")
        assert err.endswith("argument --angle-a: expected one argument\n")

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_ambiguous_abbreviation_is_a_usage_error(self, capsys, command):
        code, out, err = run(capsys, *self.COMMANDS[command], "--angle-", "-30deg")
        assert (code, out) == (1, "")
        assert "ambiguous option: --angle- could match" in err

    def test_values_after_double_dash_are_not_joined(self, capsys):
        code, out, err = run(capsys, *self.COMMANDS["analytic"], "--", "--angle-a", "-30deg")
        assert (code, out) == (1, "")
        assert err.endswith("unrecognized arguments: -- --angle-a -30deg\n")


class TestSimulate:
    def test_passing_run(self, capsys, tmp_path):
        out = tmp_path / "report.json"
        code = main(["simulate", "--k", "1.0", "--trials", "20000", "--seed", "7",
                     "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["schema_version"] == 2
        assert payload["config"]["rng_contract"] == RNG_CONTRACT
        assert payload["passed"] is True
        assert payload["config"]["scheme"] == "single"
        assert len(payload["rows"]) == 8
        assert payload["max_abs_z"] <= 5.0
        assert "ch" in payload and "std_error" in payload["ch"]

    @pytest.mark.parametrize("scheme", ["single", "halves"])
    def test_huge_k_saturates_without_a_warning(self, capsys, scheme):
        """At k = 1e308, k*I overflows: every shot with I > 0 fires, and
        nothing reaches stderr (a warning would be an error here)."""
        code, out, err = run(capsys, "simulate", "--k", "1e308", "--trials", "1000",
                             "--scheme", scheme)
        assert code == 0
        assert err == ""
        assert json.loads(out)["config"]["k"] == 1e308

    def test_config_mirrors_run_config(self, capsys):
        code, out, _ = run(capsys, "simulate", "--k", "1.0", "--trials", "2000")
        assert code == 0
        config = json.loads(out)["config"]
        assert set(config) == {f.name for f in fields(RunConfig)} | {"rng_contract"}
        assert set(config["quad"]) == {f.name for f in fields(AngleQuad)}

    def test_halves_run_has_union_rows(self, capsys):
        code, out, _ = run(capsys, "simulate", "--k", "4.0", "--scheme", "halves",
                           "--trials", "20000", "--seed", "42")
        assert code == 0
        payload = json.loads(out)
        names = {row["name"] for row in payload["rows"]}
        assert {"union_ab", "union_ab_prime", "union_a_prime_b",
                "union_a_prime_b_prime"} <= names
        assert payload["monotonicity_violations"]

    def test_negative_control_exits_2(self, capsys):
        code, out, _ = run(capsys, "simulate", "--k", "4.0", "--analytic-k", "2.0",
                           "--trials", "20000", "--seed", "1")
        assert code == 2
        assert json.loads(out)["passed"] is False

    def test_zero_standard_error_reports_inf(self, capsys):
        """At k = 1e-9 ten trials detect nothing: each estimate is 0 with no
        spread, so each z is -inf and the run fails, in strict JSON."""
        code, out, _ = run(capsys, "simulate", "--k", "1e-9", "--trials", "10", "--seed", "0")
        assert code == 2

        def reject(constant):
            raise ValueError(f"not JSON: {constant}")

        payload = json.loads(out, parse_constant=reject)
        assert payload["max_abs_z"] == "inf"
        assert {row["z"] for row in payload["rows"]} == {"-inf"}
        assert payload["passed"] is False

    def test_bad_k_exits_1(self, capsys):
        code, _, err = run(capsys, "simulate", "--k", "0.0")
        assert code == 1
        assert "error" in err.lower()

    def test_worker_cap_is_checked_before_any_run(self, capsys, monkeypatch):
        import bellsim.cli

        calls = []
        monkeypatch.setattr(bellsim.cli, "compare_to_analytic", lambda *a, **kw: calls.append(a))
        code, out, err = run(capsys, "simulate", "--k", "1", "--workers", "1025")
        line = "error: workers must be an integer <= 1024, got 1025\n"
        assert (code, out, err, calls) == (1, "", line, [])

    def test_bad_trials_exits_1(self, capsys):
        """`RunConfig` is the one check of the trial count."""
        code, _, err = run(capsys, "simulate", "--k", "1.0", "--trials", "0")
        assert code == 1
        assert err == "error: n_trials must be an integer >= 1, got 0\n"


class TestWaveform:
    def test_stats_csv(self, capsys):
        code, out, _ = run(capsys, "waveform", "stats")
        assert code == 0
        rows = dict(
            (r[0], r[1]) for r in csv.reader(out.splitlines()) if len(r) == 2
        )
        assert float(rows["mean"]) == pytest.approx(3.0, rel=1e-9)
        assert float(rows["maximum"]) == pytest.approx(16.0, rel=1e-9)
        assert float(rows["peak_to_mean"]) == pytest.approx(16.0 / 3.0, rel=1e-6)

    def test_stats_custom_wave(self, capsys):
        code, out, _ = run(capsys, "waveform", "stats", "--wave", "1",
                           "--omega", "2.0", "--amplitude", "3.0")
        assert code == 0
        rows = dict(
            (r[0], r[1]) for r in csv.reader(out.splitlines()) if len(r) == 2
        )
        assert float(rows["mean"]) == pytest.approx(4.5, rel=1e-9)

    def test_delays_csv(self, capsys):
        code, out, _ = run(capsys, "waveform", "delays", "--span", "300",
                           "--rate", "5", "--seed", "3")
        assert code == 0
        rows = list(csv.reader(out.splitlines()))
        assert rows[0] == ["quantity", "case", "bin_left", "bin_right", "value"]
        cases = {r[1] for r in rows[1:]}
        assert {"shared", "independent"} <= cases
        ratio_rows = [r for r in rows[1:] if r[0] == "median_ratio"]
        assert len(ratio_rows) == 1

    def test_windows_csv(self, capsys):
        code, out, _ = run(capsys, "waveform", "windows", "--span", "200",
                           "--rate", "2", "--windows", "0.1,1.0", "--seed", "5")
        assert code == 0
        rows = list(csv.reader(out.splitlines()))
        assert rows[0] == ["window", "shared", "independent"]
        assert len(rows) == 3
        widths = [float(r[0]) for r in rows[1:]]
        assert widths == [0.1, 1.0]
        shared = [int(r[1]) for r in rows[1:]]
        assert shared == sorted(shared)

    def test_bad_wave_exits_1(self, capsys):
        code, _, err = run(capsys, "waveform", "stats", "--wave", "")
        assert code == 1
        assert err == "error: cannot parse --wave ''; expected comma-separated numbers\n"

    def test_bad_span_exits_1(self, capsys):
        code, _, err = run(capsys, "waveform", "delays", "--span", "-5")
        assert code == 1

    @pytest.mark.parametrize("command", ["delays", "windows"])
    @pytest.mark.parametrize("flag, value", [
        ("--span", "-5"), ("--span", "nan"), ("--span", "inf"),
        ("--rate", "0"), ("--rate", "nan"), ("--rate", "inf"),
    ])
    def test_bad_span_or_rate_is_named_by_its_flag(self, capsys, command, flag, value):
        """NaN and inf are caught with the flag's name, not later as the
        library's rate_scale."""
        code, out, err = run(capsys, "waveform", command, flag, value)
        line = f"error: {flag} must be positive and finite, got {float(value)!r}\n"
        assert (code, out, err) == (1, "", line)


    @pytest.mark.parametrize("argv, line", [
        (("delays", "--bins", "0"), "--bins must be an integer >= 1, got 0"),
        (("delays", "--bins", str(2**62)), f"--bins must be an integer <= {2**32}, got {2**62}"),
        (("windows", "--windows", "abc"),
         "cannot parse --windows 'abc'; expected comma-separated durations"),
        (("windows", "--windows", "-1"), "window must be positive and finite, got -1.0"),
    ])
    def test_bad_flag_is_rejected_before_any_stream(self, capsys, monkeypatch, argv, line):
        """Every flag is checked before the streams are drawn."""
        import bellsim.waveform

        calls = []
        monkeypatch.setattr(bellsim.waveform, "sample_events", lambda *a: calls.append(a))
        code, out, err = run(capsys, "waveform", *argv)
        assert (code, out, err, calls) == (1, "", f"error: {line}\n", [])


class TestLhvCheck:
    def test_pass_run(self, capsys):
        code, out, _ = run(capsys, "lhv-check", "--models", "50", "--seed", "0")
        assert code == 0
        assert "result=PASS" in out
        assert "all_nonnegative=True" in out

    def test_deterministic(self, capsys):
        _, out1, _ = run(capsys, "lhv-check", "--models", "30", "--seed", "9")
        _, out2, _ = run(capsys, "lhv-check", "--models", "30", "--seed", "9")
        assert out1 == out2

    def test_adversarial_exits_1(self, capsys):
        code, _, err = run(capsys, "lhv-check", "--adversarial")
        assert code == 1
        assert "error" in err.lower()

    def test_bad_models_exits_1(self, capsys):
        code, _, _ = run(capsys, "lhv-check", "--models", "0")
        assert code == 1

    @pytest.mark.parametrize("max_states", ["0", "-3"])
    def test_bad_max_states_exits_1(self, capsys, max_states):
        code, out, err = run(capsys, "lhv-check", "--max-states", max_states)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and "--max-states" in err

    # Line 2 as printed before the screen was batched (one exact evaluation
    # per model); the batched screen must reproduce it byte for byte.
    @pytest.mark.parametrize("argv, line", [
        (["--models", "20000", "--seed", "7"],
         "min_ch=0.064327127102198123 (model 12038, n_states=1)"),
        (["--models", "2000", "--seed", "0"],
         "min_ch=0.16011825975742311 (model 922, n_states=1)"),
        (["--models", "3000", "--seed", "123", "--max-states", "3"],
         "min_ch=0.046997636659460336 (model 2545, n_states=1)"),
        (["--models", "500", "--seed", "9", "--max-states", "1"],
         "min_ch=0.077375825113458238 (model 216, n_states=1)"),
    ])
    def test_golden_min_ch_line(self, capsys, argv, line):
        code, out, _ = run(capsys, "lhv-check", *argv)
        assert code == 0
        assert out.splitlines()[1] == line
        assert out.splitlines()[-1] == "result=PASS"

    @pytest.mark.parametrize("seed, max_states", [(0, 64), (1, 4), (2, 1), (3, 1000)])
    def test_matches_exact_loop(self, capsys, seed, max_states):
        """The block screen reports what exact evaluation of every model does
        (first index wins ties), across block boundaries."""
        n = 600
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
        best, info = math.inf, ""
        for index in range(n):
            model = random_discrete_model(rng, max_states=max_states)
            ch = ch_value(eval_discrete_lhv(model)).ch
            if ch < best:
                best, info = ch, f"model {index}, n_states={model.n_states}"
        _, out, _ = run(capsys, "lhv-check", "--models", str(n), "--seed", str(seed),
                        "--max-states", str(max_states))
        assert out.splitlines()[1] == f"min_ch={best:.17g} ({info})"


class TestTopLevel:
    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0

    def test_unknown_command_exits_1(self, capsys):
        code, _, err = run(capsys, "frobnicate")
        assert code == 1

    def test_no_command_exits_1(self, capsys):
        code, _, err = run(capsys)
        assert code == 1

    @pytest.mark.parametrize(
        "argv, line",
        [
            (("simulate", "--k", "0"), "error: k must be positive and finite, got 0.0"),
            (
                ("simulate", "--k", "1", "--workers", "0"),
                "error: workers must be an integer >= 1, got 0",
            ),
            (
                ("waveform", "stats", "--omega", "0"),
                "error: omega must be positive and finite, got 0.0",
            ),
            (
                ("waveform", "windows", "--windows", "0,1", "--span", "100"),
                "error: window must be positive and finite, got 0.0",
            ),
            (
                ("waveform", "stats", "--omega", "1e-320"),
                "error: omega's period 2*pi/omega must be positive and finite, got inf",
            ),
            (("lhv-check", "--seed=-1"), "error: --seed must be an integer >= 0, got -1"),
            (("waveform", "delays", "--seed=-1"), "error: --seed must be an integer >= 0, got -1"),
            (("waveform", "windows", "--seed=-1"), "error: --seed must be an integer >= 0, got -1"),
            (
                ("waveform", "stats", "--samples", str(10**20)),
                f"error: samples_per_period must be an integer <= {2**32}, got {10**20}",
            ),
            (
                ("analytic", "--points", str(10**20)),
                f"error: k_grid points must be an integer <= {2**32}, got {10**20}",
            ),
            (
                ("lhv-check", "--max-states", str(10**20)),
                f"error: --max-states must be an integer <= {2**32}, got {10**20}",
            ),
            (
                ("simulate", "--k", "1", "--trials", str(10**20)),
                f"error: n_trials must be an integer <= {2**40}, got {10**20}",
            ),
            # Counts below 2**63 whose grid no memory holds are turned away
            # before any allocation.
            (
                ("analytic", "--points", str(2**62)),
                f"error: k_grid points must be an integer <= {2**32}, got {2**62}",
            ),
            (
                ("waveform", "stats", "--samples", str(2**62)),
                f"error: samples_per_period must be an integer <= {2**32}, got {2**62}",
            ),
            (
                ("lhv-check", "--models", "1", "--max-states", str(2**62)),
                f"error: --max-states must be an integer <= {2**32}, got {2**62}",
            ),
            (
                ("simulate", "--k", "1", "--trials", str(2**62)),
                f"error: n_trials must be an integer <= {2**40}, got {2**62}",
            ),
        ],
    )
    def test_library_errors_exit_1_with_one_line(self, capsys, argv, line):
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err == line + "\n"


#: stdout of ``waveform windows --seed S`` and ``waveform delays --seed S
#: --bins 8``, per waveform stream.  Stream 2's values come from the plain
#: thinning loop and two-search window count that preceded the thinning
#: screen and the one-search count; stream 3's from the per-bin bound.
WINDOWS_GOLDEN = {
    2: {
        "0": (
            "window,shared,independent\n"
            "0.05,2678,995\n"
            "0.1,4926,2008\n"
            "0.2,8257,3757\n"
            "0.5,13453,8044\n"
            "1.0,16417,12886\n"
            "2.0,18158,17559\n"
            "5.0,20012,20177\n"
        ),
        "7": (
            "window,shared,independent\n"
            "0.05,2662,994\n"
            "0.1,4797,1918\n"
            "0.2,8155,3624\n"
            "0.5,13371,7839\n"
            "1.0,16382,12636\n"
            "2.0,18205,17390\n"
            "5.0,19830,19985\n"
        ),
    },
    3: {
        "0": (
            "window,shared,independent\n"
            "0.05,2646,995\n"
            "0.1,4802,2008\n"
            "0.2,8130,3757\n"
            "0.5,13370,8044\n"
            "1.0,16408,12886\n"
            "2.0,18069,17559\n"
            "5.0,19678,20177\n"
        ),
        "7": (
            "window,shared,independent\n"
            "0.05,2703,994\n"
            "0.1,4874,1918\n"
            "0.2,8073,3624\n"
            "0.5,13377,7839\n"
            "1.0,16402,12636\n"
            "2.0,18131,17390\n"
            "5.0,19832,19985\n"
        ),
    },
}
DELAYS_GOLDEN = {
    2: {
        "0": (
            "quantity,case,bin_left,bin_right,value\n"
            "bin,independent,-5.475060046765066,-4.106295035073799,1\n"
            "bin,independent,-4.106295035073799,-2.737530023382533,27\n"
            "bin,independent,-2.737530023382533,-1.3687650116912664,603\n"
            "bin,independent,-1.3687650116912664,0.0,9543\n"
            "bin,independent,0.0,1.3687650116912664,9464\n"
            "bin,independent,1.3687650116912664,2.737530023382533,612\n"
            "bin,independent,2.737530023382533,4.106295035073799,16\n"
            "bin,independent,4.106295035073799,5.475060046765066,4\n"
            "bin,shared,-5.475060046765066,-4.106295035073799,8\n"
            "bin,shared,-4.106295035073799,-2.737530023382533,20\n"
            "bin,shared,-2.737530023382533,-1.3687650116912664,437\n"
            "bin,shared,-1.3687650116912664,0.0,9725\n"
            "bin,shared,0.0,1.3687650116912664,9506\n"
            "bin,shared,1.3687650116912664,2.737530023382533,355\n"
            "bin,shared,2.737530023382533,4.106295035073799,8\n"
            "bin,shared,4.106295035073799,5.475060046765066,8\n"
            "n_events,independent,,,20270\n"
            "median_abs_delay,independent,,,0.34315966183112323\n"
            "n_events,shared,,,20067\n"
            "median_abs_delay,shared,,,0.1372890196107619\n"
            "median_ratio,shared/independent,,,0.4000733037157642\n"
        ),
        "7": (
            "quantity,case,bin_left,bin_right,value\n"
            "bin,independent,-5.619341339670427,-4.2145060047528204,4\n"
            "bin,independent,-4.2145060047528204,-2.8096706698352136,30\n"
            "bin,independent,-2.8096706698352136,-1.4048353349176068,576\n"
            "bin,independent,-1.4048353349176068,0.0,9467\n"
            "bin,independent,0.0,1.4048353349176068,9432\n"
            "bin,independent,1.4048353349176068,2.8096706698352136,593\n"
            "bin,independent,2.8096706698352136,4.2145060047528204,38\n"
            "bin,independent,4.2145060047528204,5.619341339670427,4\n"
            "bin,shared,-5.619341339670427,-4.2145060047528204,12\n"
            "bin,shared,-4.2145060047528204,-2.8096706698352136,5\n"
            "bin,shared,-2.8096706698352136,-1.4048353349176068,280\n"
            "bin,shared,-1.4048353349176068,0.0,9647\n"
            "bin,shared,0.0,1.4048353349176068,9617\n"
            "bin,shared,1.4048353349176068,2.8096706698352136,292\n"
            "bin,shared,2.8096706698352136,4.2145060047528204,9\n"
            "bin,shared,4.2145060047528204,5.619341339670427,16\n"
            "n_events,independent,,,20144\n"
            "median_abs_delay,independent,,,0.3498814397312344\n"
            "n_events,shared,,,19878\n"
            "median_abs_delay,shared,,,0.13807213373365812\n"
            "median_ratio,shared/independent,,,0.3946254875357775\n"
        ),
    },
    3: {
        "0": (
            "quantity,case,bin_left,bin_right,value\n"
            "bin,independent,-5.751378117871354,-4.313533588403516,1\n"
            "bin,independent,-4.313533588403516,-2.875689058935677,21\n"
            "bin,independent,-2.875689058935677,-1.4378445294678386,524\n"
            "bin,independent,-1.4378445294678386,0.0,9628\n"
            "bin,independent,0.0,1.4378445294678386,9555\n"
            "bin,independent,1.4378445294678386,2.875689058935677,526\n"
            "bin,independent,2.875689058935677,4.313533588403516,12\n"
            "bin,independent,4.313533588403516,5.751378117871354,3\n"
            "bin,shared,-5.751378117871354,-4.313533588403516,14\n"
            "bin,shared,-4.313533588403516,-2.875689058935677,8\n"
            "bin,shared,-2.875689058935677,-1.4378445294678386,246\n"
            "bin,shared,-1.4378445294678386,0.0,9516\n"
            "bin,shared,0.0,1.4378445294678386,9680\n"
            "bin,shared,1.4378445294678386,2.875689058935677,252\n"
            "bin,shared,2.875689058935677,4.313533588403516,9\n"
            "bin,shared,4.313533588403516,5.751378117871354,11\n"
            "n_events,independent,,,20270\n"
            "median_abs_delay,independent,,,0.34315966183112323\n"
            "n_events,shared,,,19736\n"
            "median_abs_delay,shared,,,0.13501401987105055\n"
            "median_ratio,shared/independent,,,0.39344373738628424\n"
        ),
        "7": (
            "quantity,case,bin_left,bin_right,value\n"
            "bin,independent,-5.526839300895517,-4.145129475671638,6\n"
            "bin,independent,-4.145129475671638,-2.7634196504477586,32\n"
            "bin,independent,-2.7634196504477586,-1.3817098252238793,604\n"
            "bin,independent,-1.3817098252238793,0.0,9435\n"
            "bin,independent,0.0,1.3817098252238793,9411\n"
            "bin,independent,1.3817098252238793,2.7634196504477586,605\n"
            "bin,independent,2.7634196504477586,4.145129475671638,46\n"
            "bin,independent,4.145129475671638,5.526839300895517,5\n"
            "bin,shared,-5.526839300895517,-4.145129475671638,20\n"
            "bin,shared,-4.145129475671638,-2.7634196504477586,16\n"
            "bin,shared,-2.7634196504477586,-1.3817098252238793,354\n"
            "bin,shared,-1.3817098252238793,0.0,9639\n"
            "bin,shared,0.0,1.3817098252238793,9512\n"
            "bin,shared,1.3817098252238793,2.7634196504477586,330\n"
            "bin,shared,2.7634196504477586,4.145129475671638,22\n"
            "bin,shared,4.145129475671638,5.526839300895517,17\n"
            "n_events,independent,,,20144\n"
            "median_abs_delay,independent,,,0.3498814397312344\n"
            "n_events,shared,,,19910\n"
            "median_abs_delay,shared,,,0.13863405799475004\n"
            "median_ratio,shared/independent,,,0.39623152946107526\n"
        ),
    },
}

#: sha256 of stdout at the default settings, per waveform stream.
WAVEFORM_SHA256 = {
    2: {
        ("delays", "0"): "971de41a6b7c19e44c81f6acfebf040be1a9bbd9ff0bbedca8113d7827bb21ac",
        ("delays", "7"): "d1c277ba10f6ad7e5c7d9f9e5b4a91e88558ed5e99a5a4c2e9750d4da78d3e2c",
    },
    3: {
        ("delays", "0"): "7c0f4ff5009a8f15b093ed4f5621f74571347b9ea92c74fc54b0b2296bdf7462",
        ("delays", "7"): "f9f5317d00d397da0a48bf4b069b869b91989bcec365d46749f6c3f3f35a9aee",
    },
}
#: sha256 of stdout at ``--span 300000 --seed 3``, per waveform stream: ~3e5
#: events a stream, so the neighbour search runs over many blocks.  Captured
#: before that search was cut into blocks, from one search of all of A in B.
MULTI_BLOCK_SHA256 = {
    3: {
        "windows": "c44627e82a059621cd101f40245dda2a8e6924b7e90eadafed3a9a3596a27732",
        "delays": "d3ecb0ef64ff9ea5b72312e7706cad12b74b3eba9b4b682c7e9d58cb6461a5a0",
    },
}
#: sha256 of ``waveform stats`` stdout, from the Brent-refined maximum of
#: stream 1.  The three-wave peaks at a grid point, so its maximum prints as
#: 16.0 and its argmax as math.pi exactly.
STATS_SHA256 = {
    (): "db201a8c03f3d3cb2b202d2a81caf82120e5383a8111a36e4097ffcd979b3637",
    ("--detection-time", "0.3"): "434b7cdd95e4a80577c000d905aaa617d385c754eb028354323193362e43fcf7",
}
ANALYTIC_SHA256 = {
    (): "f2b495e00682529e984d3e86a96155fc96d93d132109f4c52c00391ac1302479",
    ("--points", "2001"): "1eec648f8c81c04a99f0d6c95783588fa7747a7e6249dd084236e4908f3811a9",
    ("--start", "1e-3", "--stop", "1e30", "--points", "301"):
        "f78daddfcb37d512b8250f5bea198bd36b50791b3200ad18d12e6d70a46e7ab3",
    (
        "--grid", "linear", "--start", "0.5", "--stop", "9", "--points", "77",
        "--angle-a", "10deg", "--angle-b", "0.4", "--angle-a-prime", "1",
        "--angle-b-prime", "80deg",
    ): "0a5ca1f4270d12693dfb617f3037f07567ce068f378e89cffd7794ad4166ae0f",
}
#: sha256 of the ``simulate --k 4 --trials 70000 --seed 3`` report without
#: ``runtime_seconds``, re-serialized with sorted keys, per RNG contract.
SIMULATE_SHA256 = {
    2: {
        "single": "050dfdfe31d1c907a2e43bcbf444979508e295ea985b96069da0930f3c8bf75e",
        "halves": "43a1228f3b9b3955aeaf24fc0ad8533263e5883b1ea8afe5139ef0706e95b45d",
    },
    3: {
        "single": "b3bfd0edb4c52e2da9b1534388808c8f5c184aaf1f59431d63434c852444380c",
        "halves": "70b8c8a14de43b33b18fd032086e8f33aaf39ab56cdb3c55e170263f0c4a3b85",
    },
    4: {
        "single": "a4f90b6ed61b779b24b5061dd23d5cd4d8be2249a5365a3421c2fe890d99d85d",
        "halves": "8f0500fd806a334c8b526b43eafb7c42c18d5d9cff5247cb31cf72c5b0725244",
    },
}


#: Run in a child interpreter: the features still on, then the two waveform
#: golden commands' stdout.
_WAVEFORM_GOLDEN_CHECK = """
from numpy._core._multiarray_umath import __cpu_features__
from bellsim.cli import main
print(*sorted(name for name, on in __cpu_features__.items() if on))
assert main(["waveform", "windows", "--seed", "0"]) == 0
assert main(["waveform", "delays", "--seed", "0", "--bins", "8"]) == 0
"""


#: Run in a child interpreter: the features still on, then line 2 of
#: ``lhv-check --models 2000 --seed 0`` and the digest of each ``simulate``
#: report of :func:`TestGoldenOutput.test_simulate_report`.
_LHV_SIMULATE_GOLDEN_CHECK = """
import contextlib, hashlib, io, json
from numpy._core._multiarray_umath import __cpu_features__
from bellsim.cli import main

def stdout(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(list(argv)) == 0
    return out.getvalue()

print(*sorted(name for name, on in __cpu_features__.items() if on))
print(stdout("lhv-check", "--models", "2000", "--seed", "0").splitlines()[1])
for scheme in ("single", "halves"):
    report = json.loads(stdout(
        "simulate", "--scheme", scheme, "--k", "4", "--trials", "70000", "--seed", "3"
    ))
    del report["runtime_seconds"]
    print(hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest())
"""


class TestGoldenOutput:
    @pytest.mark.parametrize("seed", ["0", "7"])
    def test_waveform_windows(self, capsys, seed):
        assert WAVEFORM_STREAM in WINDOWS_GOLDEN, "new waveform stream: pin its digest"
        code, out, _ = run(capsys, "waveform", "windows", "--seed", seed)
        assert code == 0
        assert out == WINDOWS_GOLDEN[WAVEFORM_STREAM][seed]

    @pytest.mark.parametrize("seed", ["0", "7"])
    def test_waveform_delays(self, capsys, seed):
        assert WAVEFORM_STREAM in DELAYS_GOLDEN, "new waveform stream: pin its digest"
        assert WAVEFORM_STREAM in WAVEFORM_SHA256, "new waveform stream: pin its digest"
        code, out, _ = run(capsys, "waveform", "delays", "--seed", seed, "--bins", "8")
        assert code == 0
        assert out == DELAYS_GOLDEN[WAVEFORM_STREAM][seed]
        code, out, _ = run(capsys, "waveform", "delays", "--seed", seed)
        assert code == 0
        digest = hashlib.sha256(out.encode()).hexdigest()
        assert digest == WAVEFORM_SHA256[WAVEFORM_STREAM][("delays", seed)]

    def test_waveform_goldens_at_each_simd_level(self, simd_disabled, simd_child):
        """``waveform windows --seed 0`` and ``waveform delays --seed 0 --bins
        8`` print the pinned bytes with numpy's kernels above each level off."""
        proc = simd_child(_WAVEFORM_GOLDEN_CHECK)
        assert proc.returncode == 0, proc.stderr
        features_on, out = proc.stdout.split("\n", 1)
        assert not set(simd_disabled) & set(features_on.split())
        golden = WINDOWS_GOLDEN[WAVEFORM_STREAM]["0"] + DELAYS_GOLDEN[WAVEFORM_STREAM]["0"]
        assert out == golden

    @pytest.mark.parametrize("command", ["windows", "delays"])
    def test_waveform_over_many_scan_blocks(self, capsys, command):
        assert WAVEFORM_STREAM in MULTI_BLOCK_SHA256, "new waveform stream: pin its digest"
        code, out, _ = run(capsys, "waveform", command, "--span", "300000", "--seed", "3")
        assert code == 0
        digest = hashlib.sha256(out.encode()).hexdigest()
        assert digest == MULTI_BLOCK_SHA256[WAVEFORM_STREAM][command]

    def test_lhv_check_and_simulate_goldens_at_each_simd_level(self, simd_disabled, simd_child):
        """The pinned ``lhv-check --models 2000 --seed 0`` line and the
        ``simulate`` digests of both schemes hold with numpy's kernels above
        each level off."""
        proc = simd_child(_LHV_SIMULATE_GOLDEN_CHECK)
        assert proc.returncode == 0, proc.stderr
        features_on, line, *digests = proc.stdout.splitlines()
        assert not set(simd_disabled) & set(features_on.split())
        assert line == "min_ch=0.16011825975742311 (model 922, n_states=1)"
        assert digests == [SIMULATE_SHA256[RNG_CONTRACT][scheme] for scheme in ("single", "halves")]

    @pytest.mark.parametrize("argv", list(STATS_SHA256))
    def test_waveform_stats(self, capsys, argv):
        code, out, _ = run(capsys, "waveform", "stats", *argv)
        assert code == 0
        assert "\nargmax_time,3.141592653589793\n" in out
        assert hashlib.sha256(out.encode()).hexdigest() == STATS_SHA256[argv]

    @pytest.mark.parametrize("argv", list(ANALYTIC_SHA256))
    def test_analytic_csv(self, capsys, argv):
        code, out, _ = run(capsys, "analytic", *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == ANALYTIC_SHA256[argv]

    @pytest.mark.parametrize("scheme", ["single", "halves"])
    def test_simulate_report(self, capsys, scheme):
        assert RNG_CONTRACT in SIMULATE_SHA256, "new RNG contract: pin its digest"
        code, out, _ = run(
            capsys, "simulate", "--scheme", scheme, "--k", "4", "--trials", "70000", "--seed", "3"
        )
        assert code == 0
        payload = json.loads(out)
        del payload["runtime_seconds"]
        digest = hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()
        assert digest == SIMULATE_SHA256[RNG_CONTRACT][scheme]


class TestNoFalseZeroCrossing:
    """A CH curve that cancels to rounding noise has no crossing footer."""

    @pytest.mark.parametrize(
        "argv",
        [
            ("--start", "1e3", "--stop", "1e12", "--points", "10", "--modes", "standard"),
            ("--start", "1e100", "--stop", "1e300"),
        ],
    )
    def test_no_footer(self, capsys, argv):
        code, out, _ = run(capsys, "analytic", *argv)
        assert code == 0
        assert "zero-crossing" not in out

    @pytest.mark.parametrize("mode", ["standard", "multiwindow-exact", "multiwindow-paper"])
    def test_dark_end_sweep(self, capsys, mode):
        """Below k ~ 1e-15 the CH of every row lies under the rounding of
        its entries; the multiwindow-paper sweep used to end with a footer
        at 1.6e-16."""
        code, out, err = run(
            capsys, "analytic", "--start", "1e-16", "--stop", "1e-10", "--points", "5",
            "--modes", mode,
        )
        assert (code, err) == (0, "")
        assert "zero-crossing" not in out

    @pytest.mark.parametrize("mode", ["standard", "multiwindow-exact", "multiwindow-paper"])
    def test_small_k_sweep(self, capsys, mode):
        """Joints that cancel below rounding at k < 1e-8 used to reach the
        crossing scan as -2e-16 and exit 1."""
        code, out, err = run(
            capsys, "analytic", "--start", "1e-12", "--stop", "1e-6", "--points", "5",
            "--modes", mode,
        )
        assert (code, err) == (0, "")
        assert "zero-crossing" not in out

    def test_default_footers_kept(self, capsys):
        code, out, _ = run(capsys, "analytic")
        assert code == 0
        footers = [line for line in out.splitlines() if "zero-crossing" in line]
        assert [line.split(",")[1] for line in footers] == [
            "multiwindow-exact:zero-crossing",
            "multiwindow-paper:zero-crossing",
        ]


class TestPoissonLimitExits:
    @pytest.mark.parametrize(
        "argv", [("--span", "1e300"), ("--span", "100", "--rate", "1e300")]
    )
    @pytest.mark.parametrize("command", ["delays", "windows"])
    def test_exits_1_with_error(self, capsys, command, argv):
        code, out, err = run(capsys, "waveform", command, *argv)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and "Poisson" in err
