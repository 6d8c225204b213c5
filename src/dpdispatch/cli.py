"""Command-line entry point.

Subcommands:
  noise     generate the privacy noise trace plus histogram and moment checks
  simulate  full pipeline: noise -> net reference -> receding-horizon dispatch
  report    regenerate summary.csv from a stored run directory

Exit codes: 0 success, 1 usage, config or IO error, 2 exact-solver guard,
3 comfort infeasibility under --strict.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path
from typing import TYPE_CHECKING

from dpdispatch import metrics
from dpdispatch.dispatch import SOLVERS, MPCConfig, SolverGuardError, receding_horizon_run
from dpdispatch.metrics import RunReport
from dpdispatch.privacy import compute_net_pv, generate_noise_trace
from dpdispatch.scenario import (ConfigError, ScenarioConfig, TraceSources, build_simulation,
                                 check_fields, load_config)
from dpdispatch.traces import Trace, TraceError, read_table, save_trace, write_csv

if TYPE_CHECKING:
    import numpy as np

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_GUARD = 2
EXIT_INFEASIBLE = 3

# Headers of the fixed-width per-step files; `report` reads their columns by
# position, so it refuses a file whose header differs.
RESULTS_HEADER = ["step", "ref_kw", "agg_kw", "residual_kw", "n_on", "violations"]
FLAGS_HEADER = ["step", "ref_unclamped_kw", "ref_clamped", "target_clipped",
                "must_on_kw", "free_kw", "infeasible"]


def _temperatures_header(n_buildings: int) -> list[str]:
    return ["step"] + [f"b{j:03d}" for j in range(n_buildings)]


def _manifest(cfg: ScenarioConfig, args: argparse.Namespace) -> dict:
    return {
        "tool": "dpdispatch",
        "subcommand": args.command,
        "solver": getattr(args, "solver", None),
        "config": dataclasses.asdict(cfg),
    }


def _emit_noise_files(noise: Trace, cfg: ScenarioConfig, out: Path) -> None:
    save_trace(noise, out / "noise.csv", "noise_kw")
    counts, edges = metrics.noise_histogram(noise, n_bins=40)
    centers = (edges[:-1] + edges[1:]) / 2.0
    write_csv(
        out / "noise_histogram.csv",
        ["bin_center", "count"],
        [(repr(float(c)), int(n)) for c, n in zip(centers, counts)],
    )
    moments = metrics.noise_moment_check(noise, cfg.dp)
    write_csv(
        out / "noise_moments.csv",
        ["n", "mean", "variance", "expected_variance"],
        [[moments["n"], moments["mean"],
          moments["variance"] if moments["variance_defined"] else "undefined",
          moments["expected_variance"]]],
    )


def cmd_noise(args: argparse.Namespace) -> int:
    cfg = _load(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    noise = generate_noise_trace(cfg.dp, cfg.horizon_steps, cfg.traces.step_seconds)
    _emit_noise_files(noise, cfg, out)
    (out / "manifest.json").write_text(json.dumps(_manifest(cfg, args), indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(noise)}-step noise trace to {out / 'noise.csv'}")
    return EXIT_OK


def _emit_run_files(report: RunReport, cfg: ScenarioConfig, out: Path) -> dict:
    residual = report.residual_kw
    band = (cfg.mpc.comfort_min, cfg.mpc.comfort_max)
    per_step_viol = metrics.comfort_violations_per_step(report, band).tolist()
    write_csv(
        out / "results.csv",
        RESULTS_HEADER,
        [
            (k, report.reference_kw[k], report.aggregate_kw[k], residual[k],
             report.n_on[k], per_step_viol[k])
            for k in range(report.n_steps)
        ],
    )
    write_csv(
        out / "pv.csv",
        ["step", "pv_kw"],
        [(k, v) for k, v in enumerate(report.pv_kw)],
    )
    write_csv(
        out / "temperatures.csv",
        _temperatures_header(report.temps.shape[0]),
        ([k, *report.temps[:, k].tolist()] for k in range(report.n_steps)),
    )
    infeasible = set(report.infeasible_steps)
    # each property builds its tuple anew, so read it once, not once per row
    ref_clamped, target_clipped = report.ref_clamped, report.target_clipped
    write_csv(
        out / "flags.csv",
        FLAGS_HEADER,
        [
            (k, report.unclamped_reference_kw[k], int(ref_clamped[k]),
             int(target_clipped[k]), report.must_on_kw[k],
             report.free_kw[k], int(k in infeasible))
            for k in range(report.n_steps)
        ],
    )
    summary = metrics.summarize(report, band=band)
    write_csv(out / "summary.csv", list(summary), [list(summary.values())])
    return summary


def cmd_simulate(args: argparse.Namespace) -> int:
    cfg = _load(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    models, init_states, disturbances, pv = build_simulation(cfg)
    noise = generate_noise_trace(cfg.dp, len(pv), cfg.traces.step_seconds)
    net = compute_net_pv(pv, noise)

    report = receding_horizon_run(
        models, init_states, disturbances, net, cfg.mpc,
        solver_choice=args.solver, pv=pv, noise_kw=noise.values,
    )

    _emit_noise_files(noise, cfg, out)
    summary = _emit_run_files(report, cfg, out)
    (out / "manifest.json").write_text(json.dumps(_manifest(cfg, args), indent=2, sort_keys=True) + "\n")

    print(
        f"simulated {report.n_steps} steps, {cfg.n_buildings} buildings, solver={args.solver}: "
        f"rmse={summary['tracking_rmse_kw']:.4f} kW, "
        f"violations={summary['comfort_violations']}, "
        f"clamped_steps={summary['ref_clamped_steps']}"
    )
    if args.strict and summary["infeasible_steps"] > 0:
        print("comfort infeasibility flagged and --strict set", file=sys.stderr)
        return EXIT_INFEASIBLE
    return EXIT_OK


def _check_stored_columns(
    out: Path, report: RunReport, results: np.ndarray, flags: np.ndarray, band: tuple
) -> None:
    """Refuse, naming the file and the first bad step, a stored column that
    `report`, the RunReport of the stored measured columns, contradicts: a
    `residual_kw`, `ref_clamped` or `target_clipped` other than `report`'s
    own, evaluated on the stored floats (`residual_kw` was written as the
    repr of `agg_kw - ref_kw`), a `ref_unclamped_kw` other than
    `compute_net_pv` of the stored `pv_kw` and `noise_kw`, a `violations`
    cell other than the per-step count over `temperatures.csv`, an `n_on`
    that is not an integer in [0, n_b], or an `infeasible` other than 0 or 1.
    """
    n_b = report.temps.shape[0]
    n_on = results[:, 4]
    residual, clamped, clipped = report.residual_kw, report.ref_clamped, report.target_clipped
    net = compute_net_pv(*(Trace(values=v, unit="kW", step_seconds=report.step_seconds)
                           for v in (report.pv_kw, report.noise_kw))).values
    violations = metrics.comfort_violations_per_step(report, band)
    checks = [
        ("results.csv", "residual_kw", results[:, 3], results[:, 3] != residual,
         lambda k: f"agg_kw - ref_kw = {residual[k]}"),
        ("results.csv", "n_on", n_on, (n_on != n_on.round()) | (n_on < 0) | (n_on > n_b),
         lambda k: f"an integer in [0, {n_b}]"),
        ("results.csv", "violations", results[:, 5], results[:, 5] != violations,
         lambda k: f"{violations[k]} from temperatures.csv"),
        ("flags.csv", "ref_unclamped_kw", flags[:, 1], flags[:, 1] != net,
         lambda k: f"pv_kw - noise_kw = {net[k]}"),
        ("flags.csv", "ref_clamped", flags[:, 2], flags[:, 2] != clamped,
         lambda k: f"{int(clamped[k])} from ref_kw and ref_unclamped_kw"),
        ("flags.csv", "target_clipped", flags[:, 3], flags[:, 3] != clipped,
         lambda k: f"{int(clipped[k])} from ref_kw, must_on_kw and free_kw"),
        ("flags.csv", "infeasible", flags[:, 6], (flags[:, 6] != 0) & (flags[:, 6] != 1),
         lambda k: "0 or 1"),
    ]
    for name, column, stored, bad, expected in checks:
        if bad.any():
            k = int(bad.argmax())
            raise TraceError(
                f"{out / name}: {column} at step {k} is {stored[k]}, expected {expected(k)}"
            )


def cmd_report(args: argparse.Namespace) -> int:
    out = Path(args.out)
    if not out.is_dir():
        raise ConfigError(f"run directory not found: {out}")
    manifest_path = out / "manifest.json"
    if not manifest_path.exists():
        raise TraceError(f"file not found: {manifest_path}")
    try:
        config = json.loads(manifest_path.read_text())["config"]
        n_b = config["n_buildings"]
        check_fields("", ScenarioConfig, {"n_buildings": n_b})
        check_fields("mpc.", MPCConfig, config["mpc"])
        check_fields("traces.", TraceSources, config["traces"])
        mpc, traces = MPCConfig(**config["mpc"]), TraceSources(**config["traces"])
        temp_header = _temperatures_header(n_b)
    except (ValueError, KeyError, TypeError) as exc:
        raise ConfigError(f"{manifest_path}: not a run manifest: {exc!r}") from None

    _, results = read_table(out / "results.csv", RESULTS_HEADER)
    _, pv = read_table(out / "pv.csv", ["step", "pv_kw"])
    _, noise = read_table(out / "noise.csv", ["step", "noise_kw"])
    _, temps = read_table(out / "temperatures.csv", temp_header)
    _, flags = read_table(out / "flags.csv", FLAGS_HEADER)
    for name, table in (("pv.csv", pv), ("noise.csv", noise), ("temperatures.csv", temps),
                        ("flags.csv", flags)):
        if len(table) != len(results):
            raise TraceError(
                f"{out / name}: {len(table)} data rows, results.csv has {len(results)}"
            )

    band = (mpc.comfort_min, mpc.comfort_max)
    report = RunReport(
        step_seconds=traces.step_seconds,
        pv_kw=tuple(pv[:, 1].tolist()),
        noise_kw=tuple(noise[:, 1].tolist()),
        reference_kw=tuple(results[:, 1].tolist()),
        unclamped_reference_kw=tuple(flags[:, 1].tolist()),
        aggregate_kw=tuple(results[:, 2].tolist()),
        temps=temps[:, 1:].T,
        n_on=tuple(results[:, 4].astype(int).tolist()),
        must_on_kw=tuple(flags[:, 4].tolist()),
        free_kw=tuple(flags[:, 5].tolist()),
        infeasible_steps=tuple(flags[flags[:, 6] != 0, 0].astype(int).tolist()),
    )
    _check_stored_columns(out, report, results, flags, band)
    summary = metrics.summarize(report, band=band)
    write_csv(out / "summary.csv", list(summary), [list(summary.values())])
    print(
        f"report regenerated for {report.n_steps} steps x {n_b} buildings: "
        f"rmse={summary['tracking_rmse_kw']:.4f} kW, violations={summary['comfort_violations']}"
    )
    return EXIT_OK


def _load(args: argparse.Namespace) -> ScenarioConfig:
    overrides = {}
    for key in ("seed", "epsilon", "horizon", "n_buildings"):
        val = getattr(args, key, None)
        if val is not None:
            overrides[key] = val
    return load_config(args.config, overrides)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dpdispatch",
        description="Privacy-preserving PV load-following simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_solver=False):
        p.add_argument("--config", type=str, default=None, help="YAML scenario configuration")
        p.add_argument("--out", type=str, required=True, help="output directory")
        p.add_argument("--seed", type=int, default=None, help="master seed override")
        p.add_argument("--epsilon", type=float, default=None, help="privacy budget override")
        p.add_argument("--horizon", type=int, default=None, help="MPC prediction horizon override")
        p.add_argument("--n-buildings", dest="n_buildings", type=int, default=None)
        if with_solver:
            p.add_argument("--solver", choices=sorted(SOLVERS), default="greedy")
            p.add_argument("--strict", action="store_true",
                           help="exit 3 when comfort infeasibility is flagged")

    p_noise = sub.add_parser("noise", help="generate the privacy noise artifacts")
    common(p_noise)
    p_noise.set_defaults(func=cmd_noise)

    p_sim = sub.add_parser("simulate", help="run the full closed-loop pipeline")
    common(p_sim, with_solver=True)
    p_sim.set_defaults(func=cmd_simulate)

    p_rep = sub.add_parser("report", help="regenerate summary.csv from a run directory")
    p_rep.add_argument("--out", type=str, required=True, help="existing run directory")
    p_rep.set_defaults(func=cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse's usage error code, 2, is the guard's here
        return EXIT_CONFIG if exc.code else EXIT_OK
    try:
        return args.func(args)
    except SolverGuardError as exc:
        print(f"solver guard: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except (ConfigError, TraceError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
