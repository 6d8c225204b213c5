"""Command-line entry point.

Subcommands:
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
from typing import Callable, Iterable, NamedTuple

import numpy as np

from dpdispatch import metrics
from dpdispatch.dispatch import SOLVERS, SolverGuardError, clamp_reference, receding_horizon_run
from dpdispatch.metrics import RunReport
from dpdispatch.privacy import compute_net_pv, generate_noise_trace
from dpdispatch.scenario import ConfigError, ScenarioConfig, build_config, build_simulation, load_config
from dpdispatch.traces import Trace, TraceError, read_table, write_csv

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_GUARD = 2
EXIT_INFEASIBLE = 3


class Column(NamedTuple):
    """One per-step column of a run file, after its `step` column.

    `simulate` writes `value(report, band)` under `header`. `report` reads it
    back by header, and a column with a `text` must hold what `value` gives
    for the run `report` rebuilds; at its first step that does not, `report`
    says it expected `text.format(want, n_b=..., capacity=...)`.
    """

    header: str
    value: Callable[[RunReport, tuple[float, float]], Iterable]
    text: str | None = None


# Each per-step run file's columns after `step`, in file order. Once must_on_kw
# and free_kw hold draws of unit counts, `report` names the first column in this
# order whose check fails. An edited cell of a checked column fails that
# column's check alone, but an n_on edited to another count fails agg_kw's.
COLUMNS = {
    "results.csv": (
        Column("ref_kw", lambda r, band: r.reference_kw,
               "{} from pv_kw - noise_kw clamped to [0, {capacity}]"),
        Column("agg_kw", lambda r, band: r.aggregate_kw, "{} from n_on and buildings.p_rate"),
        Column("residual_kw", lambda r, band: r.residual_kw, "agg_kw - ref_kw = {}"),
        Column("n_on", lambda r, band: r.n_on, "an integer in [0, {n_b}]"),
        Column("violations", lambda r, band: metrics.comfort_violations_per_step(r, band).tolist(),
               "{} from temperatures.csv"),
    ),
    "pv.csv": (Column("pv_kw", lambda r, band: r.pv_kw),),
    "noise.csv": (Column("noise_kw", lambda r, band: r.noise_kw),),
    "flags.csv": (
        Column("ref_unclamped_kw", lambda r, band: r.unclamped_reference_kw,
               "pv_kw - noise_kw = {}"),
        Column("ref_clamped", lambda r, band: map(int, r.ref_clamped),
               "{} from ref_kw and ref_unclamped_kw"),
        Column("target_clipped", lambda r, band: map(int, r.target_clipped),
               "{} from ref_kw, must_on_kw and free_kw"),
        Column("must_on_kw", lambda r, band: r.must_on_kw),
        Column("free_kw", lambda r, band: r.free_kw),
        # infeasible_steps holds each flagged step once
        Column("infeasible",
               lambda r, band: np.bincount(r.infeasible_steps, minlength=r.n_steps).tolist(),
               "0 or 1"),
    ),
}


def _header(name: str) -> list[str]:
    return ["step"] + [column.header for column in COLUMNS[name]]


def _temperatures_header(n_buildings: int) -> list[str]:
    return ["step"] + [f"b{j:03d}" for j in range(n_buildings)]


def _out_dir(args: argparse.Namespace) -> Path:
    """--out, refused unless its nearest existing path is a directory; creates nothing."""
    out = Path(args.out)
    existing = next(p for p in (out, *out.parents) if p.exists() or p.is_symlink())
    if not existing.is_dir():
        raise ConfigError(f"--out {out}: {existing} is not a directory")
    return out


def _emit_run_files(report: RunReport, cfg: ScenarioConfig, out: Path) -> dict:
    out.mkdir(parents=True, exist_ok=True)  # only once the run's inputs are built
    band = (cfg.mpc.comfort_min, cfg.mpc.comfort_max)
    for name, columns in COLUMNS.items():
        write_csv(out / name, _header(name), zip(
            range(report.n_steps), *(column.value(report, band) for column in columns)))
    write_csv(
        out / "temperatures.csv",
        _temperatures_header(report.temps.shape[0]),
        ([k, *report.temps[:, k].tolist()] for k in range(report.n_steps)),
    )
    summary = metrics.summarize(report, band=band)
    write_csv(out / "summary.csv", list(summary), [list(summary.values())])
    return summary


def cmd_simulate(args: argparse.Namespace) -> int:
    out = _out_dir(args)
    cfg = _load(args)
    models, init_temps, disturbances, pv = build_simulation(cfg)
    noise = generate_noise_trace(cfg.dp, len(pv), cfg.traces.step_seconds)
    net = compute_net_pv(pv, noise)

    report = receding_horizon_run(
        models, init_temps, disturbances, net, cfg.mpc,
        solver_choice=args.solver, pv=pv, noise_kw=noise.values,
    )

    summary = _emit_run_files(report, cfg, out)
    manifest = {"solver": args.solver, "config": dataclasses.asdict(cfg)}
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")

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


def cmd_report(args: argparse.Namespace) -> int:
    out = Path(args.out)
    if not out.is_dir():
        raise ConfigError(f"run directory not found: {out}")
    manifest_path = out / "manifest.json"
    if not manifest_path.exists():
        raise TraceError(f"file not found: {manifest_path}")
    try:
        manifest = json.loads(manifest_path.read_text())
        raw = manifest["config"]
        cfg = build_config(raw, "config")
        built = dataclasses.asdict(cfg)
        for key in built:  # a run's manifest is the complete config it builds
            if built[key] != raw.get(key):
                raise ConfigError(f"config's {key} {raw.get(key)!r} builds as {built[key]!r}")
        if manifest["solver"] not in SOLVERS:
            raise ConfigError(f"solver {manifest['solver']!r} is not one of {sorted(SOLVERS)}")
    except (ValueError, KeyError, TypeError) as exc:
        raise ConfigError(f"{manifest_path}: not a run manifest: {exc!r}") from None

    n_b, step_seconds = cfg.n_buildings, cfg.traces.step_seconds
    tables = {}
    for name in [*COLUMNS, "temperatures.csv"]:
        header = _header(name) if name in COLUMNS else _temperatures_header(n_b)
        _, tables[name] = read_table(out / name, header)
        if len(tables[name]) != len(tables["results.csv"]):
            raise TraceError(f"{out / name}: {len(tables[name])} data rows, "
                             f"results.csv has {len(tables['results.csv'])}")
    stored = {column.header: tuple(tables[name][:, i].tolist())
              for name, columns in COLUMNS.items() for i, column in enumerate(columns, start=1)}

    # the fleet's draw with n units ON, for n = 0..n_b: the left fold of n ratings
    draws = dict(enumerate([0.0, *np.add.accumulate(np.full(n_b, cfg.buildings.p_rate)).tolist()]))
    net = compute_net_pv(*(Trace(values=stored[header], unit="kW", step_seconds=step_seconds)
                           for header in ("pv_kw", "noise_kw"))).values
    # must_on_kw and free_kw are the draws of two counts of units that sum to at most n_b
    counts, left = {kw: n for n, kw in draws.items()}, np.full(len(net), n_b)
    for header in ("must_on_kw", "free_kw"):
        count = np.array([counts.get(kw, n_b + 1) for kw in stored[header]])
        bad = count > left
        if bad.any():
            k = int(bad.argmax())
            raise TraceError(f"{out / 'flags.csv'}: {header} at step {k} is {stored[header][k]}, "
                             f"expected the draw of at most {left[k]} units of buildings.p_rate")
        left -= count
    # NaN, which equals no stored value, where n_on is no count of units
    n_on = [n if n in draws else np.nan for n in stored["n_on"]]
    report = RunReport(
        step_seconds=step_seconds, temps=tables["temperatures.csv"][:, 1:].T,
        pv_kw=stored["pv_kw"], noise_kw=stored["noise_kw"],
        must_on_kw=stored["must_on_kw"], free_kw=stored["free_kw"],
        infeasible_steps=tuple(np.flatnonzero(stored["infeasible"]).tolist()),
        # the reference and the draw as the closed loop derives them
        unclamped_reference_kw=net, reference_kw=tuple(clamp_reference(net, draws[n_b])),
        n_on=tuple(n_on), aggregate_kw=tuple(draws.get(n, a) for n, a in zip(n_on, stored["agg_kw"])),
    )
    band = (cfg.mpc.comfort_min, cfg.mpc.comfort_max)
    for name, columns in COLUMNS.items():
        for column in columns:
            if column.text is not None:
                have, want = np.array(stored[column.header]), list(column.value(report, band))
                bad = have != want
                if bad.any():
                    k = int(bad.argmax())
                    raise TraceError(f"{out / name}: {column.header} at step {k} is {have[k]}, expected "
                                     + column.text.format(want[k], n_b=n_b, capacity=draws[n_b]))
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
        val = getattr(args, key)
        if val is not None:
            overrides[key] = val
    return load_config(args.config, overrides)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dpdispatch",
        description="Privacy-preserving PV load-following simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run the full closed-loop pipeline")
    p_sim.add_argument("--config", type=str, default=None, help="YAML scenario configuration")
    p_sim.add_argument("--out", type=str, required=True, help="output directory")
    p_sim.add_argument("--seed", type=int, default=None, help="master seed override")
    p_sim.add_argument("--epsilon", type=float, default=None, help="privacy budget override")
    p_sim.add_argument("--horizon", type=int, default=None, help="MPC prediction horizon override")
    p_sim.add_argument("--n-buildings", dest="n_buildings", type=int, default=None)
    p_sim.add_argument("--solver", choices=sorted(SOLVERS), default="greedy")
    p_sim.add_argument("--strict", action="store_true",
                       help="exit 3 when comfort infeasibility is flagged")
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
