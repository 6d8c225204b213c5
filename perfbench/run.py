"""Closed-loop dispatch benchmark.

    python3 perfbench/run.py --workload greedy_fleet --seed 7 --seconds 15 --trace 0

runs one workload (or ``all`` of them, one after another in this process)
through ``dpdispatch.cli.main``, checks every output tree, prints each metric
by name and unit, and ends with one JSON line:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates an
untraced and a traced call of the run seed, reports the per-layer metrics
from the traced one and writes its spans to ``.perfbench/traces/``.
See perfbench/README.md for the metric definitions.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import sys

import harness
from harness import HarnessError, Op, Runner, Workload
from spans import Tracer, layer_summary, self_times

SPAN_TOTALS = {
    "dispatch.solve_s": ("dispatch.solve_priority_heuristic", "dispatch.solve_exact"),
    "dispatch.cost_s": ("dispatch.cost",),
    "dispatch.classify_step_s": ("dispatch.classify_step",),
    "dispatch.receding_horizon_run_s": ("dispatch.receding_horizon_run",),
    "scenario.load_config_s": ("scenario.load_config",),
    "scenario.build_simulation_s": ("scenario.build_simulation",),
    "privacy.generate_noise_trace_s": ("privacy.generate_noise_trace",),
    "privacy.compute_net_pv_s": ("privacy.compute_net_pv",),
    "metrics.summarize_s": ("metrics.summarize",),
}
SPAN_CALLS = {
    "dispatch.solve_calls": ("dispatch.solve_priority_heuristic", "dispatch.solve_exact"),
    "dispatch.cost_calls": ("dispatch.cost",),
    "dispatch.classify_step_calls": ("dispatch.classify_step",),
}


def measure(runner: Runner, seeds: list[int], seconds: float) -> list[Op]:
    """Run every seed once, then keep going while another op fits in the budget."""
    ops: list[Op] = []
    spent = 0.0
    while len(ops) < len(seeds) or spent + statistics.median(o.seconds for o in ops) <= seconds:
        ops.append(runner.op(seeds[len(ops) % len(seeds)]))
        spent += ops[-1].seconds
    return ops


def measure_traced(runner: Runner, tracer: Tracer, seed: int, seconds: float):
    """Alternate untraced and traced calls of one seed while a pair fits the budget.

    Returns (untraced ops, traced ops, run id of each traced op).
    """
    untraced: list[Op] = []
    traced: list[Op] = []
    run_ids: list[str] = []
    spent = 0.0
    while not traced or spent + untraced[-1].seconds + traced[-1].seconds <= seconds:
        untraced.append(runner.op(seed))
        tracer.counts.clear()
        tracer.run_id = f"{runner.workload.name}-{seed}-{len(traced)}"
        run_ids.append(tracer.run_id)
        with tracer.installed():
            traced.append(runner.op(seed))
        traced[-1].counts = dict(tracer.counts)
        spent += untraced[-1].seconds + traced[-1].seconds
    return untraced, traced, run_ids


def layer_metrics(tracer: Tracer, run_id: str, op: Op, untraced: list[Op], traced: list[Op]) -> dict:
    """Per-layer numbers of one traced call, plus the tracing overhead."""
    summary = layer_summary(tracer.spans, run_id)
    loop = summary.get("dispatch.receding_horizon_run", {"self_s": 0.0})

    def total(names, key):
        return sum(summary[n][key] for n in names if n in summary)

    out = {k: (total(v, "total_s"), "s") for k, v in SPAN_TOTALS.items()}
    out.update({k: (total(v, "calls"), "count") for k, v in SPAN_CALLS.items()})
    out["dispatch.loop_self_s"] = (loop["self_s"], "s")
    out["thermal.predict_temp_calls"] = (op.counts.get("thermal.predict_temp", 0), "count")
    out["cli.self_s"] = (
        sum(row["self_s"] for name, row in summary.items() if name.startswith("cli.")), "s")
    out["cli.output_bytes"] = (op.output_bytes, "B")
    out["cli.output_files"] = (op.output_files, "count")
    out["metrics.comfort_violations"] = (op.violations, "count")
    out["trace.overhead_ratio"] = (
        statistics.median(o.norm_seconds for o in traced)
        / statistics.median(o.norm_seconds for o in untraced),
        "ratio",
    )
    return out


def run_workload(cli, workload: Workload, seed: int, seconds: float, trace: bool):
    """(ops, metrics) for one workload; ops include failed ones."""
    work = harness.make_work_dir()
    try:
        runner = Runner(cli, workload, seed, work)
        try:
            runner.prepare()
        except HarnessError as exc:
            return [Op(workload.name, seed, 0.0, None, problems=[str(exc)])], {}
        if not trace:
            setup = harness.measure_setup()
            ops = measure(runner, harness.run_seeds(seed, workload.seeds_per_run), seconds)
            return ops, harness.end_to_end(ops, setup)

        import dpdispatch
        tracer = Tracer(dpdispatch)
        untraced, traced, run_ids = measure_traced(runner, tracer, seed, seconds)
        ops = untraced + traced
        if any(o.problems for o in ops):
            return ops, {}
        write_spans(tracer, workload, seed)
        return ops, layer_metrics(tracer, run_ids[0], traced[0], untraced, traced)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def write_spans(tracer: Tracer, workload: Workload, seed: int) -> None:
    out_dir = harness.STATE_DIR / "traces"
    out_dir.mkdir(parents=True, exist_ok=True)
    selfs = self_times(tracer.spans)
    doc = {
        "workload": workload.name,
        "seed": seed,
        "fields": ["name", "start", "end", "parent", "run", "self_s"],
        "spans": [s + [self_s] for s, self_s in zip(tracer.spans, selfs)],
    }
    (out_dir / f"{workload.name}-seed{seed}.json").write_text(json.dumps(doc))


def report(name: str, ops: list[Op], metrics: dict) -> None:
    failed = [op for op in ops if op.problems]
    steps = harness.latency_samples([op for op in ops if not op.problems])
    print(f"== {name}: {len(ops)} operations, {len(failed)} failed, "
          f"error_rate {len(failed) / len(ops):.4f}, {len(steps)} latency samples, "
          f"median {statistics.median(steps) * 1e3 if steps else float('nan'):.3f} ms")
    for i, op in enumerate(ops):
        print(f"{name} op {i} seed {op.seed}: {op.seconds:.4f} s wall, {op.norm_seconds:.4f} s "
              f"at reference speed (host {op.speed:.3f}x slower), exit {op.rc}, "
              f"tracking_rmse_kw {op.rmse_kw!r}, comfort_violations {op.violations}")
    for key, (value, unit) in metrics.items():
        print(f"{name} {key} {value!r} {unit}")
    seen = set()
    for op in ops:
        if op.digests and op.seed not in seen:
            seen.add(op.seed)
            for f, digest in op.digests.items():
                print(f"{name} seed {op.seed} sha256 {f} {digest}")
    for op in failed:
        for problem in op.problems:
            print(f"{name} FAILED seed {op.seed}: {problem}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(harness.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=20260826)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        cli = harness.import_cli()
    except HarnessError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    names = list(harness.WORKLOADS) if args.workload == "all" else [args.workload]
    all_ops: list[Op] = []
    result: dict[str, dict] = {}
    try:
        for name in names:
            ops, metrics = run_workload(cli, harness.WORKLOADS[name], args.seed, args.seconds,
                                        bool(args.trace))
            report(name, ops, metrics)
            all_ops += ops
            prefix = f"{name}." if args.workload == "all" else ""
            result.update({prefix + k: {"value": v, "unit": u} for k, (v, u) in metrics.items()})
    except HarnessError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    failed = sum(1 for op in all_ops if op.problems)
    print(json.dumps({"correct": failed == 0 and bool(result), "attempted": len(all_ops),
                      "failed": failed, "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
