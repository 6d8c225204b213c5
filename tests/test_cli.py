import csv
import hashlib
import itertools
import json
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings, strategies as st

from dpdispatch.cli import (COLUMNS, EXIT_CONFIG, EXIT_GUARD, EXIT_INFEASIBLE, EXIT_OK,
                           _emit_run_files, main)
from dpdispatch.metrics import RunReport
from dpdispatch.privacy import generate_noise_trace
from dpdispatch.scenario import ScenarioConfig
from dpdispatch.traces import write_csv


# every file of a simulate tree: report reads and checks all but summary.csv,
# which it regenerates
RUN_TREE = ["flags.csv", "manifest.json", "noise.csv", "pv.csv", "results.csv",
            "summary.csv", "temperatures.csv"]


def small_config(tmp_path, days=1):
    path = tmp_path / "cfg.yaml"
    path.write_text(
        "n_buildings: 4\n"
        "seed: 42\n"
        f"traces:\n  days: {days}\n  pv_peak_kw: 20.0\n"
    )
    return str(path)


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def drop_manifest_mpc(out):
    path = out / "manifest.json"
    manifest = json.loads(path.read_text())
    del manifest["config"]["mpc"]
    path.write_text(json.dumps(manifest))


def set_manifest_mpc(key, value):
    """Replace one entry of the manifest's mpc section; json writes NaN as NaN."""
    def mutate(out):
        path = out / "manifest.json"
        manifest = json.loads(path.read_text())
        manifest["config"]["mpc"][key] = value
        path.write_text(json.dumps(manifest))
    return mutate


def truncate(name, keep_lines=None):
    """Cut a run file in half by bytes, or after `keep_lines` whole lines."""
    def mutate(out):
        path = out / name
        data = path.read_bytes()
        if keep_lines is None:
            path.write_bytes(data[: len(data) // 2])
        else:
            path.write_bytes(b"".join(data.splitlines(keepends=True)[:keep_lines]))
    return mutate


def edit_line(name, line_no, edit):
    def mutate(out):
        path = out / name
        lines = path.read_text().splitlines(keepends=True)
        lines[line_no] = edit(lines[line_no])
        path.write_text("".join(lines))
    return mutate


def drop_last_column(name):
    """Remove the last column from the header and from every row."""
    def mutate(out):
        path = out / name
        lines = path.read_text().splitlines()
        path.write_text("".join(line.rsplit(",", 1)[0] + "\n" for line in lines))
    return mutate


def put_bad_byte(name, line_no):
    """Put byte 0xff, which no UTF-8 text holds, after the first comma of a line."""
    def mutate(out):
        path = out / name
        lines = path.read_bytes().splitlines(keepends=True)
        lines[line_no] = lines[line_no].replace(b",", b",\xff", 1)
        path.write_bytes(b"".join(lines))
    return mutate


def set_cell(name, line_no, col, value):
    def edit(line):
        cells = line.rstrip("\r\n").split(",")
        cells[col] = value
        return ",".join(cells) + "\n"
    return edit_line(name, line_no, edit)


def shift_with_residual(line_no, col, delta):
    """Add `delta` to results.csv's ref_kw (col 1) or agg_kw (col 2) cell on a
    line and rewrite that line's residual_kw as agg_kw - ref_kw, so the
    residual check still holds."""
    def edit(line):
        cells = line.rstrip("\r\n").split(",")
        cells[col] = repr(float(cells[col]) + delta)
        cells[3] = repr(float(cells[2]) - float(cells[1]))
        return ",".join(cells) + "\n"
    return edit_line("results.csv", line_no, edit)


class TestSimulateCommand:
    def test_small_greedy_run(self, tmp_path, capsys):
        out = tmp_path / "run"
        rc = main(["simulate", "--config", small_config(tmp_path), "--out", str(out)])
        assert rc == EXIT_OK
        assert "violations=0" in capsys.readouterr().out
        rows = read_rows(out / "results.csv")
        assert len(rows) == 144
        assert set(rows[0]) == {"step", "ref_kw", "agg_kw", "residual_kw", "n_on", "violations"}
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["n_buildings"] == 4

    def test_exact_solver_small_instance(self, tmp_path):
        out = tmp_path / "run"
        rc = main([
            "simulate", "--config", small_config(tmp_path), "--out", str(out),
            "--solver", "exact", "--n-buildings", "2", "--horizon", "4",
        ])
        assert rc == EXIT_OK

    def test_exact_solver_guard(self, tmp_path, capsys):
        out = tmp_path / "run"
        rc = main(["simulate", "--out", str(out), "--solver", "exact"])
        assert rc == EXIT_GUARD
        assert "guard" in capsys.readouterr().err

    def test_guard_leaves_no_output_directory(self, tmp_path):
        out = tmp_path / "run"
        rc = main(["simulate", "--out", str(out), "--solver", "exact",
                   "--n-buildings", "5", "--horizon", "5"])
        assert rc == EXIT_GUARD
        assert not out.exists()

    def test_one_step_run(self, tmp_path):
        # fewer steps than synth_pv's cloud smoothing kernel has taps
        path = tmp_path / "cfg.yaml"
        path.write_text("n_buildings: 3\ntraces:\n  days: 1\n  step_seconds: 86400\n")
        out = tmp_path / "run"
        assert main(["simulate", "--config", str(path), "--out", str(out)]) == EXIT_OK
        assert len(read_rows(out / "results.csv")) == 1

    def test_exact_solver_table_guard(self, tmp_path, capsys):
        # 20 binaries pass the binary guard, but one building's prefix tree
        # at horizon 20 has 2^21 - 2 entries per table
        out = tmp_path / "run"
        rc = main([
            "simulate", "--config", small_config(tmp_path), "--out", str(out),
            "--solver", "exact", "--n-buildings", "1", "--horizon", "20",
        ])
        assert rc == EXIT_GUARD
        err = capsys.readouterr().err
        assert "guard" in err and "1x20" in err and "2097150" in err

    def test_per_step_headers_are_the_table(self, tmp_path):
        out = tmp_path / "run"
        main(["simulate", "--config", small_config(tmp_path), "--out", str(out)])
        for name in ("results.csv", "pv.csv", "noise.csv", "flags.csv"):
            with open(out / name, newline="") as fh:
                assert next(csv.reader(fh)) == ["step"] + [c.header for c in COLUMNS[name]]

    @pytest.mark.parametrize("solver_argv", [
        ["--solver", "greedy"],
        ["--solver", "exact", "--n-buildings", "2", "--horizon", "4"],
    ], ids=["greedy", "exact"])
    def test_tree_has_no_byte_copies(self, tmp_path, solver_argv):
        out = tmp_path / "run"
        assert main(["simulate", "--config", small_config(tmp_path), "--out", str(out),
                     *solver_argv]) == EXIT_OK
        entries = sorted(p.relative_to(out).as_posix() for p in out.rglob("*"))
        assert entries == RUN_TREE
        files = {name: (out / name).read_bytes() for name in entries}
        for a, b in itertools.combinations(sorted(files), 2):
            assert files[a] != files[b], f"{a} and {b} are byte-identical"

    def test_temperatures_are_streamed(self, tmp_path):
        # the run files of a 2000-building, 432-step report; holding the
        # temperature table as Python floats alone would take n_b * n_steps
        # float objects
        n_b, n_steps = 2000, 432
        zeros = (0.0,) * n_steps
        report = RunReport(
            step_seconds=600, pv_kw=zeros, noise_kw=zeros, reference_kw=zeros,
            unclamped_reference_kw=zeros, aggregate_kw=zeros,
            temps=np.random.default_rng(16).uniform(22.0, 24.0, (n_b, n_steps)),
            n_on=(0,) * n_steps, must_on_kw=zeros, free_kw=zeros,
        )
        tracemalloc.start()
        try:
            _emit_run_files(report, ScenarioConfig(), tmp_path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < n_b * n_steps * sys.getsizeof(0.0)
        with open(tmp_path / "temperatures.csv", newline="") as fh:
            assert sum(1 for _ in fh) == n_steps + 1

    def test_strict_exits_three_and_writes_the_full_tree(self, tmp_path, capsys):
        path = tmp_path / "cfg.yaml"
        path.write_text("buildings:\n  jitter: 0.2\n")
        argv = ["simulate", "--config", str(path), "--n-buildings", "5", "--seed", "7"]
        assert main(argv + ["--out", str(tmp_path / "plain")]) == EXIT_OK
        assert main(argv + ["--out", str(tmp_path / "strict"), "--strict"]) == EXIT_INFEASIBLE
        assert "--strict set" in capsys.readouterr().err
        flags = read_rows(tmp_path / "strict" / "flags.csv")
        assert sum(int(row["infeasible"]) for row in flags) == 77
        names = sorted(p.name for p in (tmp_path / "plain").iterdir())
        assert names == sorted(p.name for p in (tmp_path / "strict").iterdir())
        assert names == RUN_TREE
        for name in names:
            assert (tmp_path / "plain" / name).read_bytes() == (tmp_path / "strict" / name).read_bytes()

    def test_vanishing_epsilon_writes_a_tree_report_reproduces(self, tmp_path):
        # at epsilon 1e-300 the Laplace scale is 1e300 kW, whose square
        # overflows a float
        out = tmp_path / "run"
        assert main(["simulate", "--n-buildings", "2", "--epsilon", "1e-300",
                     "--out", str(out)]) == EXIT_OK
        assert sorted(p.name for p in out.iterdir()) == RUN_TREE
        before = (out / "summary.csv").read_bytes()
        (out / "summary.csv").unlink()
        assert main(["report", "--out", str(out)]) == EXIT_OK
        assert (out / "summary.csv").read_bytes() == before

    def test_overflowing_epsilon_refused_naming_it(self, tmp_path, capsys):
        # 1e-320 is positive and finite, but 1 / 1e-320 overflows a float
        out = tmp_path / "run"
        assert main(["simulate", "--n-buildings", "2", "--epsilon", "1e-320",
                     "--out", str(out)]) == EXIT_CONFIG
        assert "error: dp.sensitivity / dp.epsilon = 1.0 / 1e-320" in capsys.readouterr().err
        assert not out.exists()

    def test_strict_passes_a_run_with_no_flagged_step(self, tmp_path):
        out = tmp_path / "run"
        assert main(["simulate", "--n-buildings", "5", "--out", str(out), "--strict"]) == EXIT_OK
        assert {row["infeasible"] for row in read_rows(out / "flags.csv")} == {"0"}

    def test_bad_config_exits_one(self, tmp_path, capsys):
        rc = main(["simulate", "--config", str(tmp_path / "nope.yaml"), "--out", str(tmp_path / "r")])
        assert rc == EXIT_CONFIG
        assert "error" in capsys.readouterr().err

    def test_epsilon_override_rescales(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        argv = ["simulate", "--n-buildings", "1", "--seed", "1"]
        assert main(argv + ["--out", str(a)]) == EXIT_OK
        assert main(argv + ["--out", str(b), "--epsilon", "1"]) == EXIT_OK
        va = [float(r["noise_kw"]) for r in read_rows(a / "noise.csv")]
        vb = [float(r["noise_kw"]) for r in read_rows(b / "noise.csv")]
        # same seed, scale shrinks from 10 to 1
        for x, y in zip(va, vb):
            assert y == pytest.approx(x / 10.0, rel=1e-12)

    def test_default_trace_is_the_code_built_configs(self, tmp_path):
        # the default run and ScenarioConfig() draw the same noise
        assert main(["simulate", "--n-buildings", "1", "--out", str(tmp_path / "run")]) == EXIT_OK
        noise = generate_noise_trace(ScenarioConfig().dp, 432)
        write_csv(tmp_path / "code.csv", ["step", "noise_kw"], enumerate(noise.values))
        assert (tmp_path / "run" / "noise.csv").read_bytes() == (tmp_path / "code.csv").read_bytes()

    # a fleet that does not cool, or a jitter that could flip or zero a and b
    @pytest.mark.parametrize("buildings, field", [
        ("b: 6.0", "buildings.b"), ("b: 0.0", "buildings.b"),
        ("jitter: -0.3", "buildings.jitter"), ("jitter: 1.0", "buildings.jitter"),
    ], ids=["b-heats", "b-zero", "jitter-negative", "jitter-one"])
    def test_fleet_that_does_not_cool_exits_one(self, tmp_path, capsys, buildings, field):
        path = tmp_path / "cfg.yaml"
        path.write_text(
            f"n_buildings: 20\nbuildings:\n  {buildings}\n"
            "traces:\n  days: 1\n  weather_mean_c: 20.0\nmpc:\n  horizon_np: 1\n"
        )
        rc = main(["simulate", "--config", str(path), "--out", str(tmp_path / "r")])
        assert rc == EXIT_CONFIG
        assert field in capsys.readouterr().err

    # values that escaped main as a TypeError or a YAML parser error, were
    # truncated, or gave a negative PV trace; the n_buildings cases take the
    # file's fleet size
    @pytest.mark.parametrize("text, field", [
        ("n_buildings: [1\n", "cfg.yaml: not a YAML config: while parsing a flow sequence"),
        ("dp:\n  seed: 1.5\n", "dp.seed"),
        ("dp:\n  seed: 2.0\n", "dp.seed"),
        ("mpc:\n  horizon_np: 2.5\n", "mpc.horizon_np"),
        ("mpc:\n  horizon_np: 2.0\n", "mpc.horizon_np"),
        ("n_buildings: 2.5\n", "n_buildings"),
        ("n_buildings: 2.0\n", "n_buildings"),
        ("seed: 1.5\n", "error: seed"),
        ("traces:\n  days: 1.5\n", "traces.days"),
        ("traces:\n  step_seconds: 600.0\n", "traces.step_seconds"),
        ("traces:\n  cloud_intensity: 2\n", "traces.cloud_intensity"),
        ("traces:\n  cloud_intensity: -0.5\n", "traces.cloud_intensity"),
        ("traces:\n  pv_peak_kw: -5\n", "traces.pv_peak_kw"),
        # YAML 1.1 reads an exponent without a dot as a string
        ("buildings:\n  jitter: 1e-5\n", "buildings.jitter must be a finite number"),
        ("traces:\n  weather_mean_c: 3e1\n", "traces.weather_mean_c must be a finite number"),
        ("buildings:\n  p_rate: '5'\n", "buildings.p_rate must be a finite number"),
        ("traces:\n  pv_csv: 5\n", "traces.pv_csv must be a path string or null"),
        ("traces:\n  weather_csv: true\n", "traces.weather_csv must be a path string or null"),
        ("traces:\n  pv_csv: nope.csv\n", "error: file not found: nope.csv"),
        ("dp:\n  epsilon: true\n", "dp.epsilon must be a finite number, got True"),
        ("buildings:\n  g_temp: .nan\n", "buildings.g_temp must be a finite number, got nan"),
        ("buildings:\n  g_solar: .inf\n", "buildings.g_solar must be a finite number, got inf"),
        ("mpc:\n  weight_r: .inf\n", "mpc.weight_r must be a finite number, got inf"),
        ("traces:\n  step_seconds: 0\n", "traces.step_seconds must be at least 1"),
        ("traces:\n  step_seconds: -600\n", "traces.step_seconds must be at least 1"),
        ("traces:\n  days: 0\n", "traces.days must be at least 1"),
        ("traces:\n  days: 1\n  step_seconds: 172800\n",
         "error: traces.step_seconds must be at most traces.days * 86400 (traces.days is 1), "
         "got 172800"),
        ("dp:\n  delta: 0.0\n", "unexpected keyword argument 'delta'"),
        ("n_building: 5\nmcp:\n  horizon_np: 2\n",
         "unknown key 'n_building'; known keys: n_buildings, seed, dp, mpc, buildings, traces"),
        ("seed: -1\n", "error: seed must be nonnegative, got -1"),
        ("dp:\n  seed: -1\n", "error: dp.seed must be a 64-bit unsigned integer"),
        # range rules, each naming its section's field
        ("buildings:\n  a: 0.5\n", "error: buildings.a must not be positive"),
        ("buildings:\n  p_rate: 0\n", "error: buildings.p_rate must be positive, got 0"),
        ("dp:\n  epsilon: 0\n", "error: dp.epsilon must be positive and finite, got 0"),
        ("dp:\n  sensitivity: -1.0\n", "error: dp.sensitivity must be positive and finite"),
        ("dp:\n  sensitivity: 1.0e+308\n", "error: dp.sensitivity / dp.epsilon = 1e+308 / 0.1"),
        ("mpc:\n  horizon_np: 0\n", "error: mpc.horizon_np must be at least 1, got 0"),
        ("mpc:\n  weight_q: -1\n", "error: mpc.weight_q must be nonnegative, got -1"),
        ("mpc:\n  weight_r: -1\n", "error: mpc.weight_r must be nonnegative, got -1"),
        ("mpc:\n  comfort_min: 24.0\n", "error: mpc.comfort_min must be below mpc.comfort_max"),
        ("mpc:\n  setpoint_xr: 25.0\n", "error: mpc.setpoint_xr must lie inside the comfort band"),
    ], ids=["yaml-syntax-error", "dp-seed-fraction", "dp-seed-float", "horizon-fraction",
            "horizon-float", "n-buildings-fraction", "n-buildings-float", "seed-fraction", "days-fraction",
            "step-seconds-float", "cloud-above-one", "cloud-negative", "pv-peak-negative",
            "jitter-exponent-text", "weather-mean-exponent-text", "p-rate-string",
            "pv-csv-int", "weather-csv-bool", "pv-csv-missing", "epsilon-bool", "g-temp-nan",
            "g-solar-inf", "weight-r-inf", "step-seconds-zero", "step-seconds-negative", "days-zero",
            "step-longer-than-run", "dp-delta", "unknown-top-level-keys", "seed-negative",
            "dp-seed-negative", "a-positive", "p-rate-zero", "epsilon-zero", "sensitivity-negative",
            "sensitivity-overflows",
            "horizon-zero", "weight-q-negative", "weight-r-negative", "comfort-band-empty",
            "setpoint-outside-band"])
    def test_bad_scenario_value_exits_one(self, tmp_path, capsys, text, field):
        path = tmp_path / "cfg.yaml"
        path.write_text(text)
        argv = ["simulate", "--config", str(path), "--out", str(tmp_path / "r")]
        if not text.startswith("n_buildings"):
            argv += ["--n-buildings", "3"]
        assert main(argv) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert field in err
        assert not (tmp_path / "r").exists()

    def test_usage_error_is_not_the_guard_code(self, tmp_path):
        rc = main(["simulate", "--solver", "simplex", "--out", str(tmp_path / "r")])
        assert rc == EXIT_CONFIG
        assert main(["simulate", "--help"]) == EXIT_OK


class TestOutRefusedUpFront:
    """An --out whose nearest existing path is not a directory is refused
    before any run input is built, and nothing is written."""

    @pytest.mark.parametrize("kind", ["file", "under-file", "dangling-link"])
    @pytest.mark.parametrize("command", ["simulate"])
    def test_refused_before_the_run(self, tmp_path, capsys, monkeypatch, command, kind):
        def never(*args, **kwargs):
            raise AssertionError("run inputs built for a refused --out")

        for name in ("build_simulation", "receding_horizon_run"):
            monkeypatch.setattr(f"dpdispatch.cli.{name}", never)
        taken = tmp_path / "taken"
        if kind == "dangling-link":  # mkdir cannot make a directory there either
            taken.symlink_to(tmp_path / "gone")
        else:
            taken.write_text("step,pv_kw\n0,1.0\n")
        held = taken.readlink() if taken.is_symlink() else taken.read_text()
        out = taken / "run" if kind == "under-file" else taken
        assert main([command, "--out", str(out)]) == EXIT_CONFIG
        assert capsys.readouterr().err == f"error: --out {out}: {taken} is not a directory\n"
        assert (taken.readlink() if taken.is_symlink() else taken.read_text()) == held
        assert list(tmp_path.iterdir()) == [taken]


class TestPinnedDigests:
    """Gate files of fixed scenarios, byte for byte.

    Rerunning one build only shows that a build is deterministic; these
    digests also catch a change that moves a byte between builds. The
    non-integer p_rate makes the fleet sums inexact, so a change of
    summation order shows.
    """

    CASES = {
        "greedy_50": (
            "n_buildings: 50\nseed: 7\nbuildings:\n  jitter: 0.1\n  p_rate: 4.3\n"
            "traces:\n  pv_peak_kw: 550.0\n",
            [],
            {
                "results.csv": "ca77227af5ebd45e0fd21d175ec10850523763f7627672e3092edae123af485c",
                "flags.csv": "2dd55aed667626c7e0bc5cd1ac5c7bbbfb117ece68642610d0627df996d56891",
                "summary.csv": "b122cedf5b961ff28aed8ba1b0528d3700c53d3fe232ee4726e42e178c15af04",
            },
        ),
        "exact_2x4": (
            "n_buildings: 2\nseed: 7\nbuildings:\n  jitter: 0.1\n  p_rate: 4.3\n"
            "traces:\n  days: 1\n  pv_peak_kw: 22.0\n",
            ["--solver", "exact", "--horizon", "4"],
            {
                "results.csv": "bf8379a83e81da4a4d321e89b94675a4d01e9b7f49f543440b198d92f15c54ae",
                "flags.csv": "775ec92b9f5932b71eaa54d6b49408df03fe793a5c66710dad7fb116c3097126",
                "summary.csv": "ed15be73cc702969ac76f8b588eb3e38f76b0810a12369d2a9bec678245235d7",
            },
        ),
        # the exact benchmark's shape: 4 buildings x horizon 5, 20 binaries
        "exact_4x5": (
            "n_buildings: 4\nseed: 7\nbuildings:\n  jitter: 0.1\n  p_rate: 4.3\n"
            "traces:\n  days: 1\n",
            ["--solver", "exact", "--horizon", "5"],
            {
                "results.csv": "b1033a7ea7dc8e0b03f96e2bb48daa5d8e4809da6e76ecd1052c4f946a33efbf",
                "flags.csv": "ac3d9565017954354eb26d02dd630fe698547a5740f4bc268364dde56be74d6f",
                "summary.csv": "9e4345705659b4867dd43aff62843049548a900bfadc39982d9477636c7d172a",
            },
        ),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_gate_files(self, tmp_path, name):
        text, extra, digests = self.CASES[name]
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(text)
        out = tmp_path / "run"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)] + extra) == EXIT_OK
        got = {f: hashlib.sha256((out / f).read_bytes()).hexdigest() for f in digests}
        assert got == digests


class TestGreedyHorizon:
    """Greedy's applied column reads only the current state and reference, so
    its horizon changes no run file, flags included."""

    @pytest.mark.parametrize("weather", ["", "  weather_mean_c: 25.0\n"], ids=["30C", "25C"])
    def test_horizon_one_and_six_trees_agree(self, tmp_path, weather):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(TestPinnedDigests.CASES["greedy_50"][0] + weather)
        for h in (1, 6):
            argv = ["simulate", "--config", str(cfg), "--out", str(tmp_path / f"h{h}"),
                    "--horizon", str(h)]
            assert main(argv) == EXIT_OK
        for name in ("results.csv", "flags.csv", "summary.csv", "temperatures.csv"):
            assert (tmp_path / "h1" / name).read_bytes() == (tmp_path / "h6" / name).read_bytes()


class TestReportCommand:
    def test_regenerates_identical_summary(self, tmp_path):
        out = tmp_path / "run"
        main(["simulate", "--config", small_config(tmp_path), "--out", str(out)])
        before = (out / "summary.csv").read_bytes()
        (out / "summary.csv").unlink()
        rc = main(["report", "--out", str(out)])
        assert rc == EXIT_OK
        assert (out / "summary.csv").read_bytes() == before

    def test_missing_detail_named(self, tmp_path, capsys):
        out = tmp_path / "run"
        main(["simulate", "--config", small_config(tmp_path), "--out", str(out)])
        (out / "results.csv").unlink()
        rc = main(["report", "--out", str(out)])
        assert rc == EXIT_CONFIG
        assert "results.csv" in capsys.readouterr().err

    @pytest.mark.parametrize("mutate, named", [
        (drop_manifest_mpc, "manifest.json"),
        (truncate("manifest.json"), "manifest.json"),
        (lambda out: (out / "manifest.json").write_text("[]\n"),
         "manifest.json: not a run manifest: TypeError("),
        (truncate("temperatures.csv", keep_lines=50), "temperatures.csv"),
        (edit_line("temperatures.csv", 3, lambda line: line.rsplit(",", 1)[0] + "\n"),
         "temperatures.csv"),
        (truncate("results.csv", keep_lines=50), "results.csv"),
        (truncate("results.csv"), "results.csv"),
        (truncate("noise.csv", keep_lines=50), "noise.csv"),
        (truncate("flags.csv"), "flags.csv"),
        (edit_line("flags.csv", 5, lambda line: line.replace(",0,", ",x,", 1)), "flags.csv"),
        (edit_line("results.csv", 0, lambda line: line.replace("agg_kw", "agg")), "results.csv"),
        (set_cell("results.csv", 5, 1, "nan"), "results.csv: non-finite value at row 5"),
        (set_cell("pv.csv", 10, 0, "10"), "pv.csv: gap or reorder at row 10"),
        (drop_last_column("temperatures.csv"), "temperatures.csv: expected header"),
        (set_cell("results.csv", 5, 5, "7"), "results.csv: violations at step 4"),
        (set_cell("results.csv", 5, 3, "100.0"), "results.csv: residual_kw at step 4"),
        (set_cell("results.csv", 5, 4, "2.5"), "results.csv: n_on at step 4"),
        (set_cell("results.csv", 5, 4, "-1"), "results.csv: n_on at step 4"),
        (set_cell("results.csv", 5, 4, "5"), "results.csv: n_on at step 4"),
        (set_cell("flags.csv", 5, 2, "2"), "flags.csv: ref_clamped at step 4"),
        (set_cell("flags.csv", 5, 3, "0.5"), "flags.csv: target_clipped at step 4"),
        (set_cell("flags.csv", 5, 6, "-1"), "flags.csv: infeasible at step 4"),
        (set_cell("flags.csv", 1, 2, "1"), "flags.csv: ref_clamped at step 0 is 1.0, expected 0"),
        (set_cell("flags.csv", 4, 3, "1"), "flags.csv: target_clipped at step 3 is 1.0, expected 0"),
        (put_bad_byte("pv.csv", 10), "pv.csv: not utf-8 text: byte 0xff"),
        (put_bad_byte("pv.csv", 0), "pv.csv: not utf-8 text: byte 0xff"),
        (set_cell("flags.csv", 4, 1, "0.5"),
         "flags.csv: ref_unclamped_kw at step 3 is 0.5, expected pv_kw - noise_kw = "),
        (set_manifest_mpc("comfort_min", "22.5"),
         "manifest.json: not a run manifest: ConfigError(\"mpc.comfort_min must be a finite"),
        (set_manifest_mpc("comfort_max", None),
         "manifest.json: not a run manifest: ConfigError('mpc.comfort_max must be a finite"),
        (set_manifest_mpc("comfort_min", float("nan")),
         "manifest.json: not a run manifest: ConfigError('mpc.comfort_min must be a finite"),
        # step 8 is clamped to 0; the edits keep residual_kw = agg_kw - ref_kw
        (shift_with_residual(9, 1, 1.0), "results.csv: ref_kw at step 8 is 1.0, expected 0.0 from"),
        (shift_with_residual(10, 2, 2.0), "results.csv: agg_kw at step 9 is 12.0, expected 10.0 from"),
        # buildings.p_rate is 5.0 and n_buildings 4; step 1 draws 5.0 must-ON
        # and 0 free, step 5 5.0 and 0, step 8 0 and 10.0
        (set_cell("flags.csv", 6, 4, "7.25"),
         "flags.csv: must_on_kw at step 5 is 7.25, expected the draw of at most 4 units of"),
        (set_cell("flags.csv", 9, 5, "2.5"),
         "flags.csv: free_kw at step 8 is 2.5, expected the draw of at most 4 units of"),
        (set_cell("flags.csv", 2, 4, "25.0"),
         "flags.csv: must_on_kw at step 1 is 25.0, expected the draw of at most 4 units of"),
        (set_cell("flags.csv", 2, 5, "20.0"),
         "flags.csv: free_kw at step 1 is 20.0, expected the draw of at most 3 units of"),
    ], ids=[
        "manifest-without-mpc", "manifest-truncated", "manifest-not-an-object",
        "temperatures-truncated", "temperatures-short-row",
        "results-truncated-lines", "results-truncated-bytes", "noise-truncated",
        "flags-truncated-bytes", "flags-non-numeric", "results-renamed-column",
        "results-nan-cell", "pv-step-gap", "temperatures-building-dropped",
        "results-violations-edited", "results-residual-edited", "results-n-on-fractional",
        "results-n-on-negative", "results-n-on-above-fleet", "flags-ref-clamped-2",
        "flags-target-clipped-half", "flags-infeasible-negative",
        "flags-ref-clamped-flipped", "flags-target-clipped-flipped",
        "pv-undecodable-cell", "pv-undecodable-header", "flags-ref-unclamped-edited",
        "manifest-comfort-min-string", "manifest-comfort-max-null", "manifest-comfort-min-nan",
        "results-ref-kw-edited", "results-agg-kw-edited", "flags-must-on-off-lattice",
        "flags-free-off-lattice", "flags-must-on-above-fleet", "flags-counts-above-fleet",
    ])
    def test_malformed_run_named(self, tmp_path, capsys, mutate, named):
        out = tmp_path / "run"
        main(["simulate", "--config", small_config(tmp_path), "--out", str(out)])
        mutate(out)
        rc = main(["report", "--out", str(out)])
        assert rc == EXIT_CONFIG
        assert named in capsys.readouterr().err

    # every column the table checks, one parametrized case each
    @pytest.mark.parametrize("name, header", [
        (name, c.header) for name, columns in COLUMNS.items() for c in columns if c.text is not None
    ])
    def test_checked_column_edit_named(self, tmp_path, capsys, name, header):
        out = tmp_path / "run"
        main(["simulate", "--config", small_config(tmp_path), "--out", str(out)])
        with open(out / name, newline="") as fh:
            rows = list(csv.reader(fh))
        col, step = rows[0].index(header), 5
        set_cell(name, step + 1, col, repr(float(rows[step + 1][col]) + 0.5))(out)
        assert main(["report", "--out", str(out)]) == EXIT_CONFIG
        assert f"{name}: {header} at step {step} is " in capsys.readouterr().err

    # (solver, n_buildings, horizon); exact at 12 binaries or fewer
    @settings(max_examples=40, deadline=None)
    @given(
        solver_shape=st.one_of(
            st.tuples(st.just("greedy"), st.integers(1, 12), st.integers(1, 3)),
            st.tuples(st.just("exact"), st.integers(1, 6), st.integers(1, 3)).filter(
                lambda s: s[1] * s[2] <= 12),
        ),
        jitter=st.floats(0.0, 0.3),
        weather_mean=st.floats(20.0, 32.0),
        p_rate=st.sampled_from([4.3, 5.1]),
        epsilon=st.sampled_from([0.1, 1.0, 10.0]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_report_round_trip(self, solver_shape, jitter, weather_mean, p_rate, epsilon, seed):
        # report rebuilds the run from the stored floats and checks the
        # stored flags against RunReport's own definitions, so a flag the
        # loop's floats and their repr round trip decide differently fails it
        solver, n_b, horizon = solver_shape
        with tempfile.TemporaryDirectory() as tmp:
            cfg = Path(tmp) / "cfg.yaml"
            # safe_dump writes floats so that YAML reads them back as floats;
            # 5e-324 as written by repr would load as a string
            cfg.write_text(yaml.safe_dump({
                "n_buildings": n_b, "seed": seed, "dp": {"epsilon": epsilon},
                "buildings": {"jitter": jitter, "p_rate": p_rate},
                "traces": {"days": 1, "weather_mean_c": weather_mean, "pv_peak_kw": 5.0 * n_b},
            }))
            out = Path(tmp) / "run"
            argv = ["simulate", "--config", str(cfg), "--out", str(out), "--solver", solver,
                    "--horizon", str(horizon)]
            assert main(argv) == EXIT_OK
            before = (out / "summary.csv").read_bytes()
            (out / "summary.csv").unlink()
            assert main(["report", "--out", str(out)]) == EXIT_OK
            assert (out / "summary.csv").read_bytes() == before

    def test_empty_directory_errors(self, tmp_path, capsys):
        rc = main(["report", "--out", str(tmp_path / "missing")])
        assert rc == EXIT_CONFIG
