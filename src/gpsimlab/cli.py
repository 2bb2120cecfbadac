"""Command line interface.

Subcommands map one-to-one onto the library's entry points:

  plan          feasibility numbers and layout validation for a deployment
  simulate      handover scenarios (static, driving, pedestrian, outdoor)
  sweep         reacquisition and error versus controlled clock offset
  calibrate     delay measurement, correction and residual statistics
  sync-compare  worst-case sync error across connection and server types

Every command reads the JSON config (``--config`` flag, else the
GPSIMLAB_CONFIG environment variable, else built-in defaults), writes
its artifacts under ``--out`` and prints a short summary. Runs are
deterministic for a given config and seed; repeating one rewrites
byte-identical artifacts.

Exit codes: 0 success, 1 the deployment or scenario failed its own
feasibility or success checks, 2 bad configuration or arguments or an
``--out`` that cannot be written, 3 unexpected runtime failure.
"""

import argparse
import dataclasses
import math
import os
import sys
from pathlib import Path

from . import __version__
from . import receiver as rcv
from . import scenarios as sc
from .calibration import calibrate, export_samples_csv, import_samples_csv, measured_delays_ns
from .config import DEFAULTS, Config, ConfigError, DeploymentConfig, config_from_dict, config_to_dict, load_config
from .ntp import run_sync_comparison
from .placement import (
    WARM,
    blockage_time,
    can_update,
    gap_path,
    kmh_to_ms,
    max_separation,
    min_coverage_radius,
    min_radius_for_separation,
    ms_to_kmh,
    reception_time,
    separation_radius_floor,
    slow_path_speed_bound,
    validate_deployment,
)
from .reports import format_table, write_csv, write_json
from .rng import stream
from .solver import NoConvergence, SingularGeometry
from .timebase import NS_PER_MS

EXIT_OK = 0
EXIT_INFEASIBLE = 1
EXIT_CONFIG = 2
EXIT_RUNTIME = 3

CONFIG_ENV_VAR = "GPSIMLAB_CONFIG"

# plan.json's blockage curve runs from one diameter up to this separation
BLOCKAGE_CURVE_END_M = 1000.0

SCENARIOS = ("static", "driving", "pedestrian", "outdoor")


def _load(args: argparse.Namespace) -> Config:
    """The run's whole config, checked: the file's or the defaults, with ``--receiver`` and ``--trials`` folded in."""
    path = args.config or os.environ.get(CONFIG_ENV_VAR)
    data = config_to_dict(load_config(path) if path else DEFAULTS)
    if getattr(args, "receiver", None):
        data["deployment"]["receiver"] = args.receiver
    if getattr(args, "trials", None) is not None:
        data["sweep" if args.command == "sweep" else "handover"]["trials"] = args.trials
    return config_from_dict(data)


def _write_run_artifacts(out: Path, name: str, result: sc.ScenarioResult) -> list[Path]:
    paths = [out / f"{name}.json", out / f"{name}_fixes.csv", out / f"{name}_transitions.csv"]
    write_json(paths[0], result)
    columns = (result.t_s, result.positions, result.clock_bias_s, result.coverage)
    write_csv(
        paths[1],
        ("t_s", "x_m", "y_m", "z_m", "clock_bias_s", "source", "coverage"),
        (
            (t, *xyz, bias, "live_sky" if k < 0 else "simulator", "" if k < 0 else k)
            for t, xyz, bias, k in zip(*(c.tolist() for c in columns))
        ),
    )
    write_csv(
        paths[2],
        ("t_s", "mode", "signal", "offset_ms", "coverage"),
        (
            (r.t_s, r.mode, r.signal, r.offset_ms, "" if r.coverage is None else r.coverage)
            for r in result.transitions
        ),
    )
    return paths


def _announce(paths) -> None:
    for p in paths:
        print(f"wrote {p}")


# ------------------------------------------------------------------- plan


def _check_plan_range(dep: DeploymentConfig, v: float, t_max_s: float) -> None:
    """plan divides lengths up to the last center or curve end by v and multiplies v by t_max."""
    longest_m = max(2.0 * dep.separation_m, BLOCKAGE_CURVE_END_M)
    if not math.isfinite(longest_m):
        raise ConfigError(f"deployment.separation_m: {dep.separation_m} leaves float range in plan")
    if not (math.isfinite(longest_m / v) and math.isfinite(v * t_max_s)):
        raise ConfigError(f"deployment.max_speed_kmh: {dep.max_speed_kmh} leaves float range in plan")


def cmd_plan(cfg: Config, args: argparse.Namespace) -> int:
    dep = cfg.deployment
    timing = rcv.PROFILES[dep.receiver]
    v = kmh_to_ms(dep.max_speed_kmh)
    _check_plan_range(dep, v, timing.t_max_s)

    derived = {
        "reception_time_s": reception_time(dep.radius_m, v),
        "blockage_time_s": blockage_time(dep.separation_m, dep.radius_m, v),
        "min_coverage_radius_m": min_coverage_radius(v, timing.t_reacq_s),
        # the separation term of min_radius_m, shown on its own so a
        # planner can see which constraint binds
        "radius_floor_separation_m": separation_radius_floor(dep.separation_m, timing),
        "min_radius_m": min_radius_for_separation(dep.separation_m, timing, v),
        "max_separation_m": max_separation(dep.radius_m, timing),
        "slow_path_speed_bound_kmh": ms_to_kmh(
            slow_path_speed_bound(dep.radius_m, timing.t_acq_s)
        ),
    }
    update = can_update(v, dep.radius_m, dep.separation_m, timing)
    report = validate_deployment(dep.radius_m, dep.separation_m, v, timing)

    out = Path(args.out)
    payload = {
        "inputs": {
            "radius_m": dep.radius_m,
            "separation_m": dep.separation_m,
            "max_speed_kmh": dep.max_speed_kmh,
            "receiver": dep.receiver,
            "t_reacq_s": timing.t_reacq_s,
            "t_max_s": timing.t_max_s,
            "t_acq_s": timing.t_acq_s,
        },
        "derived": derived,
        "update_check": {"ok": update.ok, "reason": update.reason},
        "layout_report": report,
    }
    write_json(out / "plan.json", payload)

    rows = [(k, f"{v_:.3f}" if isinstance(v_, float) else v_) for k, v_ in sorted(derived.items())]
    rows.append(("update_ok", update.ok))
    rows.append(("layout_ok", report.ok))
    table = format_table(("quantity", "value"), rows)
    (out / "plan.txt").write_text(table)

    radii = [10.0 + 5.0 * i for i in range(39)]
    write_csv(
        out / "reception_curve.csv",
        ("radius_m", "reception_time_s", "reacq_fits"),
        (
            (r, reception_time(r, v), timing.t_reacq_s <= reception_time(r, v))
            for r in radii
        ),
    )
    d0 = 2.0 * dep.radius_m
    seps = [d0 + 20.0 * i for i in range(int((BLOCKAGE_CURVE_END_M - d0) // 20.0) + 1)]
    write_csv(
        out / "blockage_curve.csv",
        ("separation_m", "blockage_time_s", "within_t_max"),
        (
            (d, blockage_time(d, dep.radius_m, v), blockage_time(d, dep.radius_m, v) <= timing.t_max_s)
            for d in seps
        ),
    )
    _announce([out / "plan.json", out / "plan.txt", out / "reception_curve.csv", out / "blockage_curve.csv"])
    print(table, end="")

    ok = report.ok
    if args.strict:
        ok = ok and gap_path(v, dep.radius_m, derived["blockage_time_s"], timing) == WARM
    return EXIT_OK if ok else EXIT_INFEASIBLE


# --------------------------------------------------------------- simulate


def _ignored_simulate_flag(args: argparse.Namespace) -> str | None:
    """Why a flag of ``simulate`` would have no effect, or None."""
    if args.scenario == "outdoor" and args.clock != "all":
        return "--clock: the outdoor comparison always runs private/calibrated"
    matrix = args.clock == "all" and args.scenario in ("static", "driving")
    if args.trials is not None and not matrix:
        return "--trials: applies only to the --clock all matrices of static and driving"
    if args.strict and (matrix or args.scenario == "outdoor"):
        return "--strict: applies only to single static, driving and pedestrian runs"
    return None


def _write_matrix(out: Path, name: str, matrix, columns: tuple[str, ...]) -> None:
    """A ``--clock all`` matrix as JSON and as a CSV of ``clock`` and the named cell columns."""
    paths = [out / f"{name}.json", out / f"{name}.csv"]
    write_json(paths[0], matrix)
    write_csv(paths[1], ("clock", *columns), ((c.label, *(getattr(c, k) for k in columns)) for c in matrix.cells))
    _announce(paths)


def _check_draws(result: sc.ScenarioResult, strict: bool) -> int:
    ok = all(result.handover_success.values())
    if strict:
        ok = ok and all(d.within_budget for d in result.clock_draws.values())
    return EXIT_OK if ok else EXIT_INFEASIBLE


def cmd_simulate(cfg: Config, args: argparse.Namespace) -> int:
    out = Path(args.out)
    seed = args.seed

    if args.scenario == "static":
        if args.clock == "all":
            matrix = sc.run_static_handover_matrix(seed=seed, cfg=cfg)
            _write_matrix(out, "handover_matrix", matrix, ("median_p95_m", "median_avg_m", "max_m"))
            print(
                format_table(
                    ("clock", "median p95 [m]", "median avg [m]"),
                    [(c.label, f"{c.median_p95_m:.3f}", f"{c.median_avg_m:.3f}") for c in matrix.cells],
                ),
                end="",
            )
            return EXIT_OK if matrix.ordering_ok_every_trial else EXIT_INFEASIBLE
        result = sc.run_static_handover(sc.CLOCK_CONFIGS_BY_LABEL[args.clock], seed, cfg)
        _announce(_write_run_artifacts(out, "handover", result))
        return _check_draws(result, args.strict)

    if args.scenario in ("driving", "pedestrian"):
        base = (
            sc.default_driving_scenario(cfg)
            if args.scenario == "driving"
            else sc.default_pedestrian_scenario()
        )
        if args.clock == "all" and args.scenario == "driving":
            matrix = sc.run_traversal_matrix(base, seed=seed, cfg=cfg)
            _write_matrix(out, "traversal_matrix", matrix, ("median_avg_m", "handover_success_all"))
            ok = matrix.ordering_ok_every_trial and all(c.handover_success_all for c in matrix.cells)
            return EXIT_OK if ok else EXIT_INFEASIBLE
        if args.clock != "all":
            base = dataclasses.replace(base, clock=sc.CLOCK_CONFIGS_BY_LABEL[args.clock])
        result = sc.run_dynamic_traversal(base, seed, cfg)
        _announce(_write_run_artifacts(out, args.scenario, result))
        return _check_draws(result, args.strict)

    comparison = sc.run_outdoor_comparison(seed=seed, cfg=cfg)
    write_json(out / "outdoor.json", comparison)
    _announce([out / "outdoor.json"])
    print(
        f"live avg {comparison.live.avg_m:.3f} m, simulated avg "
        f"{comparison.simulated.avg_m:.3f} m, fit_for_outdoor_use={comparison.fit_for_outdoor_use}"
    )
    return EXIT_OK if comparison.fit_for_outdoor_use else EXIT_INFEASIBLE


# ------------------------------------------------------------------ sweep


def cmd_sweep(cfg: Config, args: argparse.Namespace) -> int:
    result = sc.run_offset_sweep(seed=args.seed, cfg=cfg)
    out = Path(args.out)
    write_json(out / "sweep.json", result)
    write_csv(
        out / "sweep.csv",
        ("offset_ms", "mean_reacq_s", "std_reacq_s", "mean_error_m", "std_error_m"),
        (
            (r.offset_ms, r.mean_reacq_s, r.std_reacq_s, r.mean_error_m, r.std_error_m)
            for r in result.rows
        ),
    )
    _announce([out / "sweep.json", out / "sweep.csv"])
    print(
        format_table(
            ("offset [ms]", "reacq [s]", "pos err [m]"),
            [(f"{r.offset_ms:+.0f}", f"{r.mean_reacq_s:.2f}", f"{r.mean_error_m:.2f}") for r in result.rows],
        ),
        end="",
    )
    return EXIT_OK


# -------------------------------------------------------------- calibrate


def cmd_calibrate(cfg: Config, args: argparse.Namespace) -> int:
    out = Path(args.out)
    if args.samples_csv:
        # read before anything is written: a refused file leaves no --out directory behind
        try:
            samples = import_samples_csv(args.samples_csv)
        except (OSError, ValueError) as exc:
            print(f"samples error: {exc}", file=sys.stderr)
            return EXIT_CONFIG
    else:
        out.mkdir(parents=True, exist_ok=True)
        model = cfg.delay_model
        samples = measured_delays_ns(model, model.sample_count, stream(args.seed, "cli", "calibrate"))
        export_samples_csv(out / "delay_samples.csv", samples)
    result = calibrate(samples)
    payload = {
        "correction_ms": result.correction_ns / NS_PER_MS,
        "sample_stddev_ms": result.sample_stddev_ns / NS_PER_MS,
        "residual_bound_ms": result.residual_bound_ns / NS_PER_MS,
        "sample_count": result.sample_count,
    }
    write_json(out / "calibration.json", payload)
    paths = [out / "calibration.json"]
    if not args.samples_csv:
        paths.append(out / "delay_samples.csv")
    _announce(paths)
    print(
        f"correction {payload['correction_ms']:.3f} ms over {result.sample_count} samples, "
        f"residual bound {payload['residual_bound_ms']:.3f} ms"
    )
    return EXIT_OK


# ----------------------------------------------------------- sync-compare


def cmd_sync_compare(cfg: Config, args: argparse.Namespace) -> int:
    cells = run_sync_comparison(duration_s=cfg.sync.duration_s, seed=args.seed)
    out = Path(args.out)
    write_json(out / "sync_compare.json", cells)
    write_csv(
        out / "sync_compare.csv",
        ("connection_type", "server_type", "est_max_ntp_error_ms"),
        ((c.connection_type, c.server_type, c.est_max_ntp_error_ms) for c in cells),
    )
    _announce([out / "sync_compare.json", out / "sync_compare.csv"])
    print(
        format_table(
            ("connection", "server", "est max err [ms]", "bound held"),
            [
                (c.connection_type, c.server_type, f"{c.est_max_ntp_error_ms:.3f}", c.bound_held)
                for c in cells
            ],
        ),
        end="",
    )
    if args.strict and not all(c.bound_held for c in cells):
        return EXIT_INFEASIBLE
    return EXIT_OK


# ------------------------------------------------------------------- main


def _int_at_least(low: int):
    """An argparse type: an integer of at least ``low``."""

    def integer(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be an integer of at least {low}, got {text}")
        return value

    return integer


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--config",
        default=None,
        help=f"JSON config path (default: ${CONFIG_ENV_VAR} if set, else built-ins)",
    )
    common.add_argument("--seed", type=_int_at_least(0), default=0, help="base seed, non-negative (default 0)")
    common.add_argument("--out", default="out", help="artifact directory (default ./out)")
    strict = argparse.ArgumentParser(add_help=False)
    strict.add_argument(
        "--strict",
        action="store_true",
        help="escalate soft failures (budget excursions, slow-path gaps, bound misses)",
    )

    parser = argparse.ArgumentParser(
        prog="gpsimlab",
        description="Deployment planning and handover simulation for indoor satnav coverage.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("plan", parents=[common, strict], help="feasibility report for the configured deployment")

    sim = sub.add_parser("simulate", parents=[common, strict], help="run a handover scenario")
    sim.add_argument("--scenario", choices=SCENARIOS, required=True)
    sim.add_argument(
        "--clock",
        choices=tuple(sc.CLOCK_CONFIGS_BY_LABEL) + ("all",),
        default="all",
        help="clock pipeline (default: all applicable)",
    )
    sim.add_argument(
        "--trials", type=_int_at_least(1), default=None, help="override handover.trials of a --clock all matrix"
    )

    sw = sub.add_parser("sweep", parents=[common], help="reacquisition vs controlled clock offset")
    sw.add_argument("--receiver", choices=tuple(rcv.PROFILES), default=None, help="override deployment.receiver")
    sw.add_argument("--trials", type=_int_at_least(1), default=None, help="override sweep.trials")

    cal = sub.add_parser("calibrate", parents=[common], help="delay calibration statistics")
    cal.add_argument("--samples-csv", default=None, help="calibrate from an existing sample CSV")

    sub.add_parser("sync-compare", parents=[common, strict], help="sync error across connection and server types")
    return parser


_COMMANDS = {
    "plan": cmd_plan,
    "simulate": cmd_simulate,
    "sweep": cmd_sweep,
    "calibrate": cmd_calibrate,
    "sync-compare": cmd_sync_compare,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "simulate" and (problem := _ignored_simulate_flag(args)):
        parser.error(problem)
    try:
        return _COMMANDS[args.command](_load(args), args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (sc.EmptyFixSet, SingularGeometry, NoConvergence) as exc:
        print(f"scenario failed: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except OSError as exc:
        # mapped here rather than by creating --out up front, so a command
        # refused before it writes still leaves no --out directory behind
        print(f"output error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:  # pragma: no cover - defensive
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
