"""Command-line interface for the experiment suite.

Usage::

    python -m repro.cli list
    python -m repro.cli describe figure1
    python -m repro.cli run figure1 --quick --trials 20 --out fig1.csv
    python -m repro.cli run figure2 --backend batched --progress
    python -m repro.cli run all --quick
    python -m repro.cli sweep --protocol user --n 200 --m 1000 \
        --axis eps=0.1,0.2,0.4 --trials 50 --backend batched
    python -m repro.cli sweep --protocol resource --graph torus:8x8 \
        --m 512 --weights two_point:1:50:5 --axis m=256,512,1024
    python -m repro.cli replay --quick --verify
    python -m repro.cli replay --protocol user --n 200 --m 400 \
        --dynamics poisson:4:150:80 --seed 7 --verify
    python -m repro.cli replay --protocol resource --graph torus:8x8 \
        --m 300 --dynamics trace:events.jsonl --json
    python -m repro.cli replay --quick --profile replay.pstats

``run`` executes a registered paper artefact; ``--quick`` applies its
minutes-scale preset (preset overrides are registry *data*, see
``describe``).  ``sweep`` builds a declarative Study straight from
flags — any scenario axis can carry the grid — without touching Python.
``replay`` feeds one trial's arrival/departure schedule through the
online :class:`~repro.router.Router` and prints its metrics snapshot;
``--verify`` re-runs the same trial through the simulation engine and
fails loudly unless the two agree bit for bit.
"""

from __future__ import annotations

import argparse
import cProfile
import dataclasses
import json
import sys
import time

import numpy as np

from .core.backends import BACKEND_NAMES, run_single_trial, validate_workers
from .experiments.io import write_csv
from .experiments.registry import EXPERIMENTS
from .router import Router, replay
from .study import (
    Scenario,
    Study,
    Sweep,
    parse_axis_values,
    parse_dynamics,
    parse_graph,
    parse_speeds,
    parse_weights,
    scenario_axes,
    sweep as make_sweep,
)

__all__ = ["build_parser", "main"]


def _add_execution_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trials", type=int, default=None, help="override trials per point"
    )
    parser.add_argument(
        "--seed", type=int, default=None, help="override root seed"
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help=(
            "process-pool size for the process and sharded backends "
            "(-1 = all cores)"
        ),
    )
    parser.add_argument(
        "--backend",
        choices=list(BACKEND_NAMES),
        default=None,
        help=(
            "trial execution backend: 'serial' (reference), 'process' "
            "(pool of --workers), 'batched' (vectorised across trials; "
            "fastest on one core), or 'sharded' (batched engine fanned "
            "out over --workers processes; fastest on many cores)"
        ),
    )
    parser.add_argument(
        "--out", type=str, default=None, help="write result rows to this CSV"
    )
    parser.add_argument(
        "--progress",
        action="store_true",
        help="print one line per completed sweep point",
    )


def _add_scenario_flags(parser: argparse.ArgumentParser) -> None:
    """Flags composing one :class:`Scenario` (shared: sweep, replay)."""
    parser.add_argument(
        "--protocol",
        choices=("user", "resource", "hybrid"),
        default="user",
        help="protocol kind (default: user)",
    )
    parser.add_argument(
        "--n", type=int, default=None,
        help="resources for the user protocol's complete graph",
    )
    parser.add_argument(
        "--graph", type=str, default=None,
        help="graph spec for resource/hybrid, e.g. torus:8x8",
    )
    parser.add_argument("--m", type=int, default=0, help="number of tasks")
    parser.add_argument(
        "--weights", type=str, default="unit",
        help="weight distribution spec (default: unit)",
    )
    parser.add_argument(
        "--speeds", type=str, default=None,
        help=(
            "resource speed distribution spec for heterogeneous "
            "machines, e.g. two_class:1:4:8 or pareto:2.5 "
            "(default: homogeneous)"
        ),
    )
    parser.add_argument(
        "--dynamics", type=str, default=None,
        help=(
            "arrival/departure stream spec for the online regime, "
            "e.g. poisson:2:200, poisson:2:200:50 or "
            "trace:events.jsonl (default: one-shot model)"
        ),
    )
    parser.add_argument(
        "--threshold", type=str, default="above_average",
        help="threshold policy kind (default: above_average)",
    )
    parser.add_argument(
        "--placement", type=str, default="single_source",
        help="initial placement kind (default: single_source)",
    )
    parser.add_argument(
        "--arrival-order", type=str, default="random",
        help="arrival stacking order (default: random)",
    )
    parser.add_argument("--alpha", type=float, default=1.0)
    parser.add_argument("--eps", type=float, default=0.2)
    parser.add_argument("--resource-fraction", type=float, default=0.5)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description=(
            "Reproduce the tables and figures of 'Threshold Load Balancing "
            "with Weighted Tasks' (Berenbrink et al.)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list available experiments")

    describe = sub.add_parser(
        "describe", help="show one experiment's config, presets and sweep"
    )
    describe.add_argument(
        "experiment", choices=list(EXPERIMENTS), help="experiment key"
    )

    run = sub.add_parser("run", help="run one experiment (or 'all')")
    run.add_argument(
        "experiment",
        choices=[*EXPERIMENTS.keys(), "all"],
        help="experiment key or 'all'",
    )
    run.add_argument(
        "--quick",
        action="store_true",
        help="use the reduced minutes-scale preset",
    )
    _add_execution_flags(run)

    swp = sub.add_parser(
        "sweep",
        help="build and run a custom Study from scenario flags",
        description=(
            "Compose a scenario from flags and sweep any of its axes: "
            "repeat --axis NAME=V1,V2,... (axes multiply into a grid; "
            "the last flag varies fastest).  Graphs use family:args "
            "specs (complete:64, torus:8x8, expander:64:3); weight "
            "distributions use kind:args (unit, two_point:1:50:5, "
            "pareto:2.5); resource speeds use kind:args too "
            "(two_class:1:4:8, pareto:2.5, explicit:1:2:4); dynamics "
            "use poisson:RATE:HORIZON with an optional :LIFETIME tail "
            "(poisson:2:200:50, or 'none' for the one-shot model)."
        ),
    )
    _add_scenario_flags(swp)
    swp.add_argument(
        "--axis",
        action="append",
        default=[],
        metavar="NAME=V1,V2,...",
        help="sweep a scenario axis over a grid (repeatable)",
    )
    swp.add_argument(
        "--max-rounds", type=int, default=100_000,
        help="per-trial round budget",
    )
    _add_execution_flags(swp)

    rpl = sub.add_parser(
        "replay",
        help="replay one trial's dynamics through the online router",
        description=(
            "Compose a scenario from flags, compile one trial's "
            "arrival/departure schedule from the root seed, and drive "
            "it through the long-lived Router round by round (live "
            "ingestion + one protocol round per tick), printing the "
            "router's metrics snapshot.  With --verify the same trial "
            "is re-run through the simulation engine and the command "
            "exits non-zero unless rounds, placements and final loads "
            "agree bit for bit."
        ),
    )
    _add_scenario_flags(rpl)
    rpl.add_argument(
        "--seed", type=int, default=0, help="root seed (default: 0)"
    )
    rpl.add_argument(
        "--trial", type=int, default=0,
        help="which spawned trial of the root seed to replay (default: 0)",
    )
    rpl.add_argument(
        "--max-rounds", type=int, default=100_000,
        help="round budget for the replay",
    )
    rpl.add_argument(
        "--verify",
        action="store_true",
        help="cross-check the replay against simulate() on the same seed",
    )
    rpl.add_argument(
        "--profile",
        metavar="OUT.pstats",
        help=(
            "run the replay under cProfile, write the stats dump to "
            "this path, and print the router's per-phase timings "
            "(rng / gating / conflict / sync / fallback)"
        ),
    )
    rpl.add_argument(
        "--quick",
        action="store_true",
        help=(
            "fill unset scenario flags with a small smoke-test "
            "workload (n=50, m=150, poisson:2:40:20)"
        ),
    )
    rpl.add_argument(
        "--json",
        action="store_true",
        help="emit the report as JSON instead of the text summary",
    )
    return parser


def _progress_printer(event) -> None:
    print(f"  {event}")


def _check_pool_flags(args, parser: argparse.ArgumentParser) -> None:
    """Reject --workers with a backend that cannot use a pool, up front.

    Mirrors :func:`repro.core.runner.run_trials`'s precedence check so
    the conflict surfaces as a clean usage error instead of a traceback
    after the first sweep point starts.
    """
    workers = getattr(args, "workers", None)
    backend = getattr(args, "backend", None)
    try:
        validate_workers(workers)
    except ValueError as err:  # one source of truth for the rule + text
        parser.error(f"--{err}")
    if workers not in (None, 1) and backend not in (
        None,
        "process",
        "sharded",
    ):
        parser.error(
            f"--workers {workers} only applies to --backend process or "
            f"sharded; the {backend!r} backend cannot use a process pool"
        )


#: CLI flags that override the config field of the same name, where
#: the experiment's config has one (table1 is analytical: no trials).
_CONFIG_FLAGS = ("trials", "seed", "workers", "backend")


def _configure(exp, args) -> object:
    fields = {f.name for f in dataclasses.fields(exp.config_factory())}
    return exp.configure(
        preset="quick" if getattr(args, "quick", False) else None,
        **{
            flag: getattr(args, flag, None)
            for flag in _CONFIG_FLAGS
            if flag in fields
        },
    )


def _run_one(key: str, args) -> int:
    exp = EXPERIMENTS[key]
    config = _configure(exp, args)
    print(f"== {exp.paper_artifact}: {exp.description}")
    start = time.perf_counter()
    result = exp.run(
        config, progress=_progress_printer if args.progress else None
    )
    elapsed = time.perf_counter() - start
    print(result.format_table())
    if hasattr(result, "chart"):
        print()
        print(result.chart())
    print(f"-- completed in {elapsed:.1f}s")
    if args.out:
        suffix = f".{key}" if args.experiment == "all" else ""
        path = write_csv(result.rows, args.out + suffix)
        print(f"-- rows written to {path}")
    print()
    return 0


def _describe(key: str) -> int:
    exp = EXPERIMENTS[key]
    print(f"{exp.key}  [{exp.paper_artifact}]")
    print(exp.description)
    print()
    config = exp.config_factory()
    print("config defaults:")
    import dataclasses

    for f in dataclasses.fields(config):
        print(f"  {f.name} = {getattr(config, f.name)!r}")
    for name, overrides in exp.presets.items():
        print(f"preset --{name}:")
        for field_name, value in overrides.items():
            print(f"  {field_name} = {value!r}")
    print()
    print("study:")
    for line in exp.build_study(config).describe().splitlines():
        print(f"  {line}")
    return 0


def _build_sweep_study(args, parser: argparse.ArgumentParser) -> Study:
    try:
        scenario = Scenario(
            protocol=args.protocol,
            n=args.n,
            graph=parse_graph(args.graph) if args.graph else None,
            m=args.m,
            weights=parse_weights(args.weights),
            speeds=parse_speeds(args.speeds) if args.speeds else None,
            dynamics=(
                parse_dynamics(args.dynamics) if args.dynamics else None
            ),
            threshold=args.threshold,
            placement=args.placement,
            arrival_order=args.arrival_order,
            alpha=args.alpha,
            eps=args.eps,
            resource_fraction=args.resource_fraction,
        )
        if not args.axis:
            raise ValueError(
                "sweep needs at least one --axis NAME=V1,V2,... "
                f"(valid axes: {', '.join(scenario_axes())})"
            )
        grid: Sweep | None = None
        for spec in args.axis:
            name, sep, text = spec.partition("=")
            if not sep:
                raise ValueError(
                    f"--axis {spec!r} is not of the form NAME=V1,V2,..."
                )
            axis = make_sweep(
                name.strip(), parse_axis_values(name.strip(), text)
            )
            grid = axis if grid is None else grid * axis
        # verify every grid point compiles before burning trial time
        study = Study(
            scenario=scenario,
            sweep=grid,
            trials=args.trials if args.trials is not None else 10,
            seed=args.seed if args.seed is not None else 0,
            max_rounds=args.max_rounds,
            workers=args.workers,
            backend=args.backend,
        )
        for point in grid.points():
            scenario.with_(**point.values).compile()
        return study
    except ValueError as exc:
        parser.error(str(exc))


def _run_sweep(args, parser: argparse.ArgumentParser) -> int:
    study = _build_sweep_study(args, parser)
    print("== custom sweep")
    for line in study.describe().splitlines():
        print(f"   {line}")
    start = time.perf_counter()
    result = study.run(
        progress=_progress_printer if args.progress else None
    )
    elapsed = time.perf_counter() - start
    print(result.format_table())
    print(f"-- completed in {elapsed:.1f}s")
    if args.out:
        path = result.write_csv(args.out)
        print(f"-- rows written to {path}")
    return 0


def _build_replay_trial_setup(args, parser: argparse.ArgumentParser):
    """Compile the replay command's scenario into a trial setup."""
    n, m = args.n, args.m
    graph_spec, dynamics_spec = args.graph, args.dynamics
    if args.quick:
        if m == 0:
            m = 150
        if args.protocol == "user" and n is None:
            n = 50
        if args.protocol != "user" and graph_spec is None:
            graph_spec = "torus:6x8"
        if dynamics_spec is None:
            dynamics_spec = "poisson:2:40:20"
    try:
        scenario = Scenario(
            protocol=args.protocol,
            n=n,
            graph=parse_graph(graph_spec) if graph_spec else None,
            m=m,
            weights=parse_weights(args.weights),
            speeds=parse_speeds(args.speeds) if args.speeds else None,
            dynamics=(
                parse_dynamics(dynamics_spec) if dynamics_spec else None
            ),
            threshold=args.threshold,
            placement=args.placement,
            arrival_order=args.arrival_order,
            alpha=args.alpha,
            eps=args.eps,
            resource_fraction=args.resource_fraction,
        )
        return scenario.compile()
    except (ValueError, OSError) as exc:
        parser.error(str(exc))


def _trial_child(seed: int, trial: int) -> np.random.SeedSequence:
    """Trial ``trial``'s SeedSequence child, as run_trials spawns it."""
    return np.random.SeedSequence(seed).spawn(trial + 1)[trial]


def _run_replay(args, parser: argparse.ArgumentParser) -> int:
    if args.trial < 0:
        parser.error("--trial must be non-negative")
    setup = _build_replay_trial_setup(args, parser)
    router = Router.from_setup(
        setup,
        _trial_child(args.seed, args.trial),
        profile=bool(args.profile),
    )
    profiler = cProfile.Profile() if args.profile else None
    start = time.perf_counter()
    if profiler is not None:
        profiler.enable()
    report = replay(router, max_rounds=args.max_rounds)
    if profiler is not None:
        profiler.disable()
    elapsed = time.perf_counter() - start
    if profiler is not None:
        profiler.dump_stats(args.profile)
    verified: bool | None = None
    mismatches: list[str] = []
    if args.verify:
        engine = run_single_trial(
            setup, _trial_child(args.seed, args.trial), args.max_rounds
        )
        if engine.rounds != report.rounds:
            mismatches.append(
                f"rounds: engine {engine.rounds} vs router {report.rounds}"
            )
        if engine.balanced != report.balanced:
            mismatches.append(
                f"balanced: engine {engine.balanced} "
                f"vs router {report.balanced}"
            )
        if not np.array_equal(engine.final_loads, report.final_loads):
            mismatches.append("final load vectors differ")
        verified = not mismatches

    metrics = report.metrics
    if args.json:
        payload = {
            "protocol": report.protocol_name,
            "seed": args.seed,
            "trial": args.trial,
            "rounds": report.rounds,
            "balanced": report.balanced,
            "final_makespan": report.final_makespan,
            "time_in_violation": round(report.time_in_violation, 4),
            "rebalance_churn": round(report.rebalance_churn, 2),
            "elapsed_seconds": round(elapsed, 3),
            "metrics": metrics.as_dict(),
        }
        if args.profile:
            payload["pstats_path"] = args.profile
            payload["phase_seconds"] = {
                k: round(v, 6) for k, v in router.phase_seconds.items()
            }
        if verified is not None:
            payload["verified"] = verified
            payload["mismatches"] = mismatches
        print(json.dumps(payload, indent=2))
    else:
        print(f"== router replay: {report.protocol_name}")
        print(
            f"   seed {args.seed}, trial {args.trial}: "
            f"{metrics.resources} resources, "
            f"{metrics.live_tasks} live tasks "
            f"({metrics.ingested} ingested, {metrics.departed} departed)"
        )
        print(
            f"   rounds: {report.rounds}  balanced: {report.balanced}  "
            f"final makespan: {report.final_makespan:.3f}"
        )
        print(
            f"   time in violation: {report.time_in_violation:.1%}  "
            f"churn: {report.rebalance_churn:.1f} migrations/round  "
            f"migrated weight: {metrics.migrated_weight:.1f}"
        )
        print(f"-- replayed in {elapsed:.2f}s")
        if args.profile:
            print(f"-- cProfile stats written to {args.profile}")
            print("-- router phase seconds:")
            for phase, secs in router.phase_seconds.items():
                print(f"     {phase:<10} {secs:.6f}")
        if verified is not None:
            print(
                "-- verify: "
                + (
                    "OK (bit-identical to simulate())"
                    if verified
                    else "MISMATCH against simulate()"
                )
            )
    if mismatches:
        for line in mismatches:
            print(f"   !! {line}", file=sys.stderr)
        return 1
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "list":
        width = max(len(k) for k in EXPERIMENTS)
        for exp in EXPERIMENTS.values():
            print(
                f"{exp.key:<{width}}  "
                f"[{exp.paper_artifact}] {exp.description}"
            )
        return 0
    if args.command == "describe":
        return _describe(args.experiment)
    if args.command == "replay":
        return _run_replay(args, parser)
    _check_pool_flags(args, parser)
    if args.command == "sweep":
        return _run_sweep(args, parser)
    keys = list(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    for key in keys:
        _run_one(key, args)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
