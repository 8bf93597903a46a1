"""Command-line front end.

Subcommands cover the full workflow: synthesize a schedule, evaluate a stored
one, sweep the base-station or user angle, run a localization probe (with an
optional schedule codebook), and export a codebook back to CSV. Every one but
export runs through _run, which loads the config with the --seed, --grid and
--mode overrides, builds the scenario, calls the command's own function (which
checks its inputs, creates --out, writes its files and returns its summary
fields and message), then writes summary.json and prints the command's line.
Outputs land in --out as fixed-name files; everything except summary.json
(which records wall time) is byte-reproducible for a given config and seed.
"""

import argparse
import sys
import time
from dataclasses import asdict
from pathlib import Path

from .codebook import CodebookError, read_codebook, write_codebook
from .config import MODE_NAMES, ConfigError, RunConfig, apply_overrides, load_config
from .export import (
    read_schedule_csv,
    write_convergence_csv,
    write_json,
    write_pattern_csv,
    write_schedule_csv,
    write_sweep_csv,
)
from .fields import DirectionGrid, FieldEngine
from .isac import Scenario, best_sample, build_codebook, localize, matched_sweep, measure_bs_ratio
from .synthesis import pso_optimize


def _run(args) -> int:
    """One config-driven command: args.work(args, cfg, scenario) does the
    command's own work and returns (summary fields, message)."""
    t0 = time.perf_counter()
    cfg = apply_overrides(load_config(args.config), seed=args.seed, eval_grid_n=args.grid,
                          mode=args.mode)
    fields, message = args.work(args, cfg, cfg.scenario())
    out = Path(args.out)
    write_json(out / "summary.json", {
        "command": args.command,
        "config": cfg.resolved,
        **fields,
        "wall_time_s": time.perf_counter() - t0,
    })
    print(f"{args.command}: {message} -> {out}")
    return 0


def _outdir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_patterns(out: Path, scenario: Scenario, schedule, grid_n: int):
    engine = FieldEngine(scenario.geometry, DirectionGrid.uniform(grid_n))
    inc = scenario.incidence()
    for h in (0, 1):  # each pattern is dropped before the next is computed
        write_pattern_csv(out / f"pattern_h{h}.csv",
                          engine.pattern(schedule, scenario.states, inc, h=h), scenario.reference)


def cmd_synthesize(args, cfg: RunConfig, scenario: Scenario) -> tuple:
    out = _outdir(args)
    [[res]] = pso_optimize([scenario.evaluator()], scenario.mode, scenario.pso)
    ratio = measure_bs_ratio(scenario, res.schedule, noise_power=cfg.noise_power)
    write_schedule_csv(out / "schedule.csv", res.schedule)
    write_convergence_csv(out / "convergence.csv", res.history)
    _write_patterns(out, scenario, res.schedule, cfg.eval_grid_n)
    results = {"phi": res.phi, "iterations": res.iterations, "stop_reason": res.stop_reason,
               "bs_u": scenario.bs_u, **asdict(ratio)}
    return ({"results": results},
            f"phi={res.phi:.6g} xi={ratio.xi:.6g} ({res.iterations} iterations, "
            f"{res.stop_reason})")


def cmd_evaluate(args, cfg: RunConfig, scenario: Scenario) -> tuple:
    out = _outdir(args)
    schedule = read_schedule_csv(args.schedule)
    g = scenario.geometry
    if schedule.shape != (g.rows, g.cols):
        raise ValueError(f"schedule is {schedule.shape[0]}x{schedule.shape[1]} but the "
                         f"surface is {g.rows}x{g.cols}")
    phi = scenario.evaluator().phi(schedule)
    ratio = measure_bs_ratio(scenario, schedule, noise_power=cfg.noise_power)
    _write_patterns(out, scenario, schedule, cfg.eval_grid_n)
    return ({"schedule_file": str(args.schedule),
             "results": {"phi": phi, "bs_u": scenario.bs_u, **asdict(ratio)}},
            f"phi={phi:.6g} xi={ratio.xi:.6g}")


def cmd_sweep(args, cfg: RunConfig, scenario: Scenario) -> tuple:
    # sweep-user reads the angles as incidence angles, which cannot be negative
    angles = cfg.user_angles_deg if args.vary == "user" else cfg.sweep_angles_deg
    out = _outdir(args)
    repeats = args.repeats or 1
    samples = matched_sweep(scenario, args.vary, angles, master_seed=cfg.seed,
                            repeats=repeats, noise_power=cfg.noise_power)
    write_sweep_csv(out / "sweep.csv", samples, args.vary)
    xi_values = ", ".join(f"{s.angle_deg:g}:{s.xi:.4g}" for s in samples)
    return ({"repeats": repeats, "samples": [asdict(s) for s in samples]},
            f"xi per angle [{xi_values}] best at {best_sample(samples).angle_deg:g}")


def cmd_localize(args, cfg: RunConfig, scenario: Scenario) -> tuple:
    out = _outdir(args)
    repeats = args.repeats or cfg.repeats
    book = None
    built = bool(args.codebook) and not Path(args.codebook).exists()
    if built:
        book = build_codebook(scenario, cfg.candidates_deg, cfg.seed, repeats=repeats)
        write_codebook(args.codebook, book)
    elif args.codebook:
        book = read_codebook(args.codebook)
    res = localize(scenario, cfg.candidates_deg, cfg.seed, repeats=repeats, codebook=book,
                   noise_power=cfg.noise_power)
    write_sweep_csv(out / "localization.csv", res.samples, "candidate")
    return ({
        "repeats": repeats,
        "codebook": {
            "path": args.codebook or None,
            "built": built,
            "digest": book.digest.hex() if book is not None else None,
        },
        "results": {
            "estimate_deg": res.estimate_deg,
            "true_theta_deg": scenario.theta_inc_deg,
            "best_xi": res.best_xi,
            "runner_up_xi": res.runner_up_xi,
            "margin": res.margin,
        },
        "samples": [asdict(s) for s in res.samples],
    }, (f"estimate {res.estimate_deg:g} deg (true {scenario.theta_inc_deg:g}, "
        f"xi={res.best_xi:.4g}, margin={res.margin:.3g})"))


def cmd_export(args) -> int:
    out = _outdir(args)
    book = read_codebook(args.codebook)
    entries = []
    for entry in book.entries:
        name = f"schedule_{entry.angle_mdeg}mdeg.csv"
        write_schedule_csv(out / name, book.schedule(entry))
        entries.append({"angle_deg": entry.angle_deg, "phi": entry.phi, "file": name})
    write_json(out / "codebook.json", {
        "command": "export",
        "source": str(args.codebook),
        "mode": book.mode.value,
        "rows": book.rows,
        "cols": book.cols,
        "seed": book.seed,
        "period_s": book.period_s,
        "f0_hz": book.f0_hz,
        "digest": book.digest.hex(),
        "entries": entries,
    })
    print(f"export: {len(entries)} schedules from {args.codebook} -> {out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tmems",
        description="Synthesis and sensing tools for time-modulated reflective surfaces.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH", default=None,
                        help="YAML configuration file (defaults apply when omitted)")
    common.add_argument("--out", metavar="DIR", default="out",
                        help="output directory (created if missing)")
    common.add_argument("--seed", type=int, default=None,
                        help="override synthesis.seed")
    common.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="accepted for compatibility (N >= 1); all designs of a "
                             "command share one PSO loop, so N has no effect")
    common.add_argument("--grid", type=int, default=None, metavar="N",
                        help="override evaluation.grid_n")
    common.add_argument("--mode", choices=MODE_NAMES, default=None,
                        help="override modulation.mode")
    common.set_defaults(func=_run)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synthesize", parents=[common],
                       help="design a schedule and export it with its patterns")
    p.set_defaults(work=cmd_synthesize)

    p = sub.add_parser("evaluate", parents=[common],
                       help="evaluate a stored schedule against the configured scenario")
    p.add_argument("--schedule", metavar="PATH", required=True)
    p.set_defaults(work=cmd_evaluate)

    p = sub.add_parser("sweep-bs", parents=[common],
                       help="xi versus base-station angle, one matched design per angle")
    p.add_argument("--repeats", type=int, default=None,
                   help="synthesis repeats per angle, best kept (default 1)")
    p.set_defaults(work=cmd_sweep, vary="bs")

    p = sub.add_parser("sweep-user", parents=[common],
                       help="xi versus user angle, one matched design per angle")
    p.add_argument("--repeats", type=int, default=None,
                   help="synthesis repeats per angle, best kept (default 1)")
    p.set_defaults(work=cmd_sweep, vary="user")

    p = sub.add_parser("localize", parents=[common],
                       help="probe candidate user angles and report the argmax of xi")
    p.add_argument("--repeats", type=int, default=None)
    p.add_argument("--codebook", metavar="PATH", default=None,
                   help="reuse (or build, if missing) a schedule codebook")
    p.set_defaults(work=cmd_localize)

    p = sub.add_parser("export", help="unpack a codebook into per-angle schedule CSVs")
    p.add_argument("--codebook", metavar="PATH", required=True)
    p.add_argument("--out", metavar="DIR", default="out")
    p.set_defaults(func=cmd_export)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if getattr(args, "jobs", 1) < 1:
        print("error: --jobs must be >= 1", file=sys.stderr)
        return 2
    if getattr(args, "repeats", None) is not None and args.repeats < 1:
        print("error: --repeats must be >= 1", file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except (ConfigError, CodebookError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        detail = f": {exc}" if str(exc) else ""
        print(f"error: out of memory{detail}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
