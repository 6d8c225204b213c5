"""Smoke test of the benchmark harness at tiny fleet sizes (a few seconds).

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json

import pytest

import harness
import run
from harness import HarnessError, Runner, Workload
from spans import Tracer, self_times

TINY_GREEDY = Workload("tiny_greedy", "greedy", "greedy_fleet.yaml", 3, 2, 1)
TINY_EXACT = Workload("tiny_exact", "exact", "exact_bnb.yaml", 2, 2, 2)
TINY_REPORT = Workload("tiny_report", None, "greedy_fleet.yaml", 3, 2, 1)
SEED = 11
BENCHMARK = json.loads((harness.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def cli():
    return harness.import_cli()


def names(section: str) -> set[str]:
    return {m["name"] for m in BENCHMARK[section]}


@pytest.mark.parametrize("workload", [TINY_GREEDY, TINY_EXACT, TINY_REPORT])
def test_end_to_end_metric_names(cli, tmp_path, workload):
    runner = Runner(cli, workload, SEED, tmp_path)
    runner.prepare()
    ops = run.measure(runner, harness.run_seeds(SEED, workload.seeds_per_run), 0.0)
    assert [op.problems for op in ops] == [[]] * len(ops)
    metrics = harness.end_to_end(ops, harness.measure_setup(repeats=1))
    assert set(metrics) == names("end_to_end")
    assert all(value > 0 for value, _ in metrics.values())
    units = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: u for k, (_, u) in metrics.items()} == units


def test_traced_run_counts_every_layer_call(cli, tmp_path):
    runner = Runner(cli, TINY_GREEDY, SEED, tmp_path)
    tracer = Tracer(__import__("dpdispatch"))
    untraced, traced, run_ids = run.measure_traced(runner, tracer, SEED, 0.0)
    metrics = run.layer_metrics(tracer, run_ids[0], traced[0], untraced, traced)
    assert set(metrics) == names("per_layer")
    # the solver sees min(horizon, steps left) columns and classifies each,
    # and the loop classifies once more per step
    steps, horizon, n_b = 432, 2, 3
    columns = sum(min(horizon, steps - t) for t in range(steps))
    assert metrics["dispatch.solve_calls"][0] == steps
    assert metrics["dispatch.classify_step_calls"][0] == columns + steps
    assert metrics["thermal.predict_temp_calls"][0] == 5 * n_b * columns + 3 * n_b * steps
    assert untraced[0].digests == traced[0].digests
    # shims are gone afterwards
    import dpdispatch.dispatch as d
    assert d.classify_step.__module__ == "dpdispatch.dispatch"
    assert not hasattr(d.SOLVERS["greedy"], "__wrapped__")
    assert min(self_times(tracer.spans)) >= 0.0


def test_failures_are_counted(cli, tmp_path):
    # 5 buildings x 5 steps exceeds the exact solver's 24-binary guard: exit 2
    guarded = Workload("guarded", "exact", "exact_bnb.yaml", 5, 5, 1)
    ops = run.measure(Runner(cli, guarded, SEED, tmp_path / "g"), [SEED], 0.0)
    assert ops[0].problems and ops[0].problems[0].startswith("exit code 2")
    good = Runner(cli, TINY_GREEDY, SEED, tmp_path / "t").op(SEED)
    metrics = harness.end_to_end(ops + [good], [0.1])
    assert metrics["ok_rate"][0] == 0.5


def test_checks_catch_bad_trees(cli, tmp_path):
    out = tmp_path / "tree"
    harness.build_report_tree(TINY_GREEDY, SEED, out)

    def check(first=None):
        op = harness.Op("t", SEED, 0.0, 0)
        harness.check_tree(op, out, first if first is not None else {}, "")
        return op.problems

    assert check() == []
    first = {}
    check(first)
    assert check(first) == []  # a repeat with the same digests passes
    first[SEED]["flags.csv"] = "0" * 64
    assert any("flags.csv sha256" in p for p in check(first))

    results = (out / "results.csv").read_text().splitlines()
    cols = results[1].split(",")
    cols[2] = repr(float(cols[2]) + 5.0)  # agg_kw of step 0
    (out / "results.csv").write_text("\n".join([results[0], ",".join(cols)] + results[2:]) + "\n")
    assert any("tracking_rmse_kw" in p for p in check())

    (out / "flags.csv").unlink()
    assert any("missing output files: flags.csv" in p for p in check())


def test_report_must_reproduce_summary(cli, tmp_path):
    runner = Runner(cli, TINY_REPORT, SEED, tmp_path)
    runner.prepare()
    assert runner.op(SEED).problems == []
    runner.reference_summary += b"\n"
    assert any("summary.csv differs" in p for p in runner.op(SEED).problems)


def test_refuses_a_checkout_without_source(tmp_path):
    with pytest.raises(HarnessError):
        harness.import_cli(tmp_path)


def test_benchmark_json_lists_the_workloads():
    assert names("workloads") == set(harness.WORKLOADS)
    assert BENCHMARK["paths"] == [harness.BENCH_DIR.name]


def test_tail_needs_ten_samples_beyond_a_high_percentile():
    assert harness.tail(list(range(100))) == 89
    assert harness.tail(list(range(1000))) == 989
    assert harness.tail([3.0, 1.0, 2.0]) == 3.0
    assert harness.tail(list(range(99))) == 98


def test_probe_time_is_taken_out_and_scaled_to_reference_speed():
    ref = harness.PROBE_REF_S
    # a 10 s call with solver calls at 2, 5 and 9 s; the host ran the probe
    # at twice its reference time, once before, inside steps 2-5 and 5-9, and after
    probes = [(-1.0, -1.0 + 2 * ref), (3.0, 3.0 + 2 * ref), (6.0, 6.0 + 2 * ref),
              (10.5, 10.5 + 2 * ref)]
    timing = harness.normalize(0.0, 10.0, [2.0, 5.0, 9.0], probes)
    assert timing.seconds == 10.0
    assert timing.speed == pytest.approx(2.0)
    assert timing.norm_seconds == pytest.approx((10.0 - 4 * ref) / 2)
    assert timing.step_seconds == pytest.approx([(3.0 - 2 * ref) / 2, (4.0 - 2 * ref) / 2])


def test_speed_probe_runs_during_a_call():
    probes = []
    with harness.speed_probe(probes):
        end = harness.perf_counter() + 5 * harness.PROBE_INTERVAL_S
        while harness.perf_counter() < end:
            pass
    assert len(probes) >= 4  # before, at least two ticks, after
    assert all(b > a for a, b in probes)
