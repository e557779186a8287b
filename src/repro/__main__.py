"""Top-level CLI: run any algorithm on any generated workload.

Examples::

    python -m repro --algorithm algorithm1 --family geometric --n 1000
    python -m repro --algorithm luby --family gnp_sqrt_degree --n 512 -v
    python -m repro --algorithm radio_decay --channel broadcast --n 256
    python -m repro --algorithm luby --seeds 20 --telemetry runs.jsonl
    python -m repro --algorithm algorithm1 --n 1000 --profile
    python -m repro --algorithm luby --faults drop=0.1,crash=0.05,seed=7
    python -m repro -a luby --seeds 50 -j 4 --checkpoint cp.jsonl --resume
    python -m repro report runs.jsonl
    python -m repro --list
    python -m repro dynamic --workload sensor_battery_decay -a algorithm1
    python -m repro dynamic --workload link_flap --strategy full_recompute
"""

from __future__ import annotations

import argparse
import sys
from time import perf_counter

from .analysis import verify_mis
from .congest import CHANNELS, ENGINE_MODES, RunOptions
from .graphs import FAMILIES, make_family
from .harness import ALGORITHMS, run_algorithm
from .obs import configure_logging, get_logger, set_telemetry_path

_log = get_logger("cli")


def _probability(text: str) -> float:
    """argparse type: a float in [0, 1]."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}")
    if not 0.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError(
            f"probability must be in [0, 1], got {value}"
        )
    return value


def _non_negative_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _jobs_count(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    if value != -1 and value < 1:
        raise argparse.ArgumentTypeError(
            f"jobs must be positive or -1 (all cores), got {value}"
        )
    return value


def _positive_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}")
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be > 0, got {value}")
    return value


def _non_negative_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _add_resilience_flags(parser: argparse.ArgumentParser) -> None:
    """Per-task retry/timeout knobs shared by run-executing subcommands."""
    parser.add_argument(
        "--retries", type=_non_negative_int, default=None, metavar="K",
        help="retry each failed/timed-out task up to K more times "
             "(exponential backoff; default 0)",
    )
    parser.add_argument(
        "--task-timeout", type=_positive_float, default=None, metavar="SEC",
        help="per-task wall-clock budget in seconds (default: unlimited)",
    )


def _install_resilience(args) -> None:
    """Install --retries/--task-timeout as the module-wide defaults."""
    from .harness import set_default_resilience

    overrides = {}
    if args.retries is not None:
        overrides["retries"] = args.retries
    if getattr(args, "task_timeout", None) is not None:
        overrides["task_timeout"] = args.task_timeout
    if overrides:
        set_default_resilience(**overrides)


def _add_observability_flags(parser: argparse.ArgumentParser) -> None:
    """The flags every subcommand shares: logging, telemetry, profiling."""
    parser.add_argument(
        "--verbose", "-v", action="count", default=0,
        help="diagnostics on stderr: -v progress, -vv per-cell detail "
             "(also enables extra result detail where noted)",
    )
    parser.add_argument(
        "--quiet", "-q", action="store_true",
        help="suppress all diagnostics below ERROR",
    )
    parser.add_argument(
        "--telemetry", metavar="PATH", default=None,
        help="append one JSONL record per completed run to PATH "
             "(streamed as runs finish; aggregate with 'repro report')",
    )
    parser.add_argument(
        "--profile", action="store_true",
        help="attach a wall-clock profiler and print the section tree",
    )


def _static_main(argv) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Distributed MIS with Low Energy and Time "
            "Complexities' (PODC 2023): run an MIS algorithm on a generated "
            "graph and report time/energy. (See also: "
            "'python -m repro dynamic --help' for churn workloads.)"
        ),
    )
    parser.add_argument(
        "--algorithm", "-a", default="algorithm1",
        help=f"one of {sorted(ALGORITHMS)}",
    )
    parser.add_argument(
        "--family", "-f", default="gnp_log_degree",
        help=f"one of {sorted(FAMILIES)}",
    )
    parser.add_argument("--n", "-n", type=_positive_int, default=512)
    parser.add_argument("--seed", "-s", type=_non_negative_int, default=0)
    parser.add_argument(
        "--arrays", action="store_true",
        help=(
            "build the graph as a CSR-native GraphArrays instead of a "
            "networkx Graph (skips per-edge dict adjacency; the only "
            "practical route at n >= 10^6). Array-native families sample "
            "edges directly into arrays; others convert after generation."
        ),
    )
    parser.add_argument(
        "--channel", "-c", default=None, metavar="CHANNEL",
        help=(
            f"delivery model, one of {sorted(CHANNELS)} or a fault-wrapper "
            "spec like 'lossy(drop=0.1):congest' "
            "(default: the algorithm's own, CONGEST for most)"
        ),
    )
    parser.add_argument(
        "--faults", default=None, metavar="KEY=VAL,...",
        help=(
            "inject faults: channel keys drop/burst/flip/jam/jam_fraction/"
            "jam_rounds wrap --channel; node keys crash/straggle/"
            "recover_after/straggle_duration/horizon build a crash plan; "
            "seed applies to both (e.g. 'drop=0.1,crash=0.05,seed=7')"
        ),
    )
    parser.add_argument(
        "--engine", default="auto", choices=list(ENGINE_MODES),
        help=(
            "engine path: auto (vectorized dense rounds when the program "
            "declares the capability), fast (cached loop only), or "
            "vectorized (require the vectorized path; error if it cannot "
            "engage)"
        ),
    )
    parser.add_argument(
        "--seeds", type=_positive_int, default=1, metavar="K",
        help="run K seeds (seed, seed+1, ...) and report per-seed + mean",
    )
    parser.add_argument(
        "--jobs", "-j", type=_jobs_count, default=1, metavar="N",
        help="worker processes for multi-seed runs (-1 = all cores)",
    )
    _add_resilience_flags(parser)
    parser.add_argument(
        "--checkpoint", metavar="PATH", default=None,
        help="record each finished multi-seed task to PATH (JSONL); with "
             "--resume, skip tasks already recorded there",
    )
    parser.add_argument(
        "--resume", action="store_true",
        help="resume from --checkpoint instead of truncating it",
    )
    _add_observability_flags(parser)
    parser.add_argument(
        "--list", action="store_true", help="list algorithms and families"
    )
    args = parser.parse_args(argv)
    configure_logging(verbose=args.verbose, quiet=args.quiet)

    if args.list:
        from .dynamic import WORKLOADS

        print("algorithms:", ", ".join(sorted(ALGORITHMS)))
        print("families:  ", ", ".join(sorted(FAMILIES)))
        print("workloads: ", ", ".join(sorted(WORKLOADS)), "(via 'dynamic')")
        return 0

    if args.resume and not args.checkpoint:
        parser.error("--resume requires --checkpoint PATH")

    fault_wrappers, fault_plan_params = {}, {}
    if args.faults:
        from .faults import parse_fault_flags

        try:
            fault_wrappers, fault_plan_params = parse_fault_flags(args.faults)
        except ValueError as error:
            parser.error(str(error))
    channel = args.channel
    if fault_wrappers:
        from .faults import compose_faulty_spec

        channel = compose_faulty_spec(channel, fault_wrappers)
    if channel is not None:
        from .congest import make_channel

        try:
            make_channel(channel)
        except (KeyError, ValueError) as error:
            parser.error(str(error))
        # Delegate to the isinstance-based check so every broadcast
        # variant (broadcast, broadcast-no-cd, fault-wrapped ones, future
        # variants) gets the clean argparse error, not a traceback later.
        from .harness.runner import _check_radio_safety

        try:
            _check_radio_safety(args.algorithm, channel)
        except ValueError as error:
            parser.error(str(error))

    set_telemetry_path(args.telemetry)
    _install_resilience(args)

    if args.seeds > 1:
        if args.arrays:
            parser.error(
                "--arrays applies to single-seed runs; multi-seed workers "
                "regenerate graphs from task tuples"
            )
        return _static_multi_seed(args, channel, fault_plan_params)

    _log.info(
        "running %s on %s n=%d seed=%d (engine=%s)",
        args.algorithm, args.family, args.n, args.seed, args.engine,
    )
    graph = make_family(
        args.family, args.n, seed=args.seed, as_arrays=args.arrays
    )
    faults = None
    if fault_plan_params:
        from .faults import FaultPlan

        faults = FaultPlan.random(graph.nodes, **fault_plan_params)
        _log.info(
            "fault plan: %d node events (%s)",
            len(faults.events), ", ".join(sorted(faults.kinds())) or "none",
        )
    started = perf_counter()
    result = run_algorithm(
        args.algorithm, graph, seed=args.seed, engine=args.engine,
        channel=channel, profile=args.profile, faults=faults,
    )
    elapsed = perf_counter() - started
    _log.info("run finished in %.3fs", elapsed)
    report = verify_mis(graph, result.mis)
    from .harness import emit_static_record

    emit_static_record(
        args.algorithm, graph, args.seed, channel, args.engine, result,
        report, elapsed, extra={"family": args.family},
    )

    print(f"graph:        {args.family}, n={graph.number_of_nodes()}, "
          f"m={graph.number_of_edges()}")
    channel_name = channel or result.details.get("channel", "congest")
    print(f"algorithm:    {result.algorithm} (channel: {channel_name})")
    print(f"|MIS|:        {len(result.mis)}")
    print(f"rounds:       {result.rounds}")
    print(f"max energy:   {result.max_energy}")
    print(f"avg energy:   {result.average_energy:.2f}")
    if result.metrics.collisions:
        print(f"collisions:   {result.metrics.collisions} "
              f"(billed to the energy ledger)")
    print(f"independent:  {report.independent}")
    print(f"maximal:      {report.maximal}")
    if args.verbose and result.metrics.phases:
        print("phases:")
        for name, phase in result.metrics.phases.items():
            print(f"  {name:10s} rounds={phase.rounds:6d} "
                  f"max_energy={phase.max_energy:5d} "
                  f"avg_energy={phase.average_energy:7.2f}")
    if args.profile:
        from .obs import render_profile

        print(render_profile(result.details["profile"]))
    return 0 if report.independent else 2


def _static_multi_seed(args, channel, fault_plan_params) -> int:
    """Run one algorithm across several seeds (optionally in parallel)."""
    from .harness import measure_many

    if args.profile:
        _log.warning("--profile profiles a single run; ignored with --seeds")
    seeds = list(range(args.seed, args.seed + args.seeds))
    _log.info(
        "measuring %s on %s n=%d, %d seeds, jobs=%s%s",
        args.algorithm, args.family, args.n, args.seeds, args.jobs,
        f", streaming telemetry to {args.telemetry}" if args.telemetry else "",
    )
    tasks = [
        (args.algorithm, args.family, args.n, seed, channel,
         fault_plan_params or None, args.engine)
        for seed in seeds
    ]
    checkpoint = None
    if args.checkpoint:
        from .harness import SweepCheckpoint

        checkpoint = SweepCheckpoint(args.checkpoint, resume=args.resume)
    outcomes = measure_many(tasks, n_jobs=args.jobs, checkpoint=checkpoint)

    print(f"graph:     {args.family}, n={args.n}")
    print(f"algorithm: {args.algorithm}, seeds {seeds[0]}..{seeds[-1]}, "
          f"jobs={args.jobs}")
    keys = ["rounds", "max_energy", "average_energy", "mis_size",
            "independent", "maximal"]
    header = f"{'seed':>6} " + " ".join(f"{key:>14}" for key in keys)
    print(header)
    for seed, outcome in zip(seeds, outcomes):
        if outcome is None:
            print(f"{seed:>6} " + " ".join(f"{'FAILED':>14}" for _ in keys))
        else:
            print(f"{seed:>6} "
                  + " ".join(f"{outcome[key]:>14.2f}" for key in keys))
    completed = [outcome for outcome in outcomes if outcome is not None]
    if not completed:
        _log.error("every task failed; see the checkpoint manifest")
        return 1
    if len(completed) < len(outcomes) and checkpoint is not None:
        _log.warning(
            "%d/%d tasks failed permanently; manifest in %s",
            len(outcomes) - len(completed), len(outcomes), checkpoint.path,
        )
    means = {
        key: sum(outcome[key] for outcome in completed) / len(completed)
        for key in keys
    }
    print(f"{'mean':>6} " + " ".join(f"{means[key]:>14.2f}" for key in keys))
    return 0 if means["independent"] == 1.0 else 2


def _dynamic_main(argv) -> int:
    from .dynamic import STRATEGIES, WORKLOADS
    from .harness import run_dynamic_workload

    parser = argparse.ArgumentParser(
        prog="repro dynamic",
        description=(
            "Maintain an MIS across a churn timeline: apply batched "
            "topology updates, repair the independent set, verify the "
            "invariant after every epoch, and report lifetime time/energy."
        ),
    )
    parser.add_argument(
        "--workload", "-w", default="sensor_battery_decay",
        choices=sorted(WORKLOADS), metavar="WORKLOAD",
        help=f"one of {sorted(WORKLOADS)}",
    )
    parser.add_argument(
        "--algorithm", "-a", default="algorithm1",
        choices=sorted(ALGORITHMS), metavar="ALGORITHM",
        help=f"one of {sorted(ALGORITHMS)}",
    )
    parser.add_argument(
        "--strategy", default="incremental",
        choices=list(STRATEGIES),
        help="repair only the invalidated region, or re-elect from scratch",
    )
    parser.add_argument("--n", "-n", type=_positive_int, default=200)
    parser.add_argument("--epochs", "-e", type=_positive_int, default=10)
    parser.add_argument("--seed", "-s", type=_non_negative_int, default=0)
    parser.add_argument(
        "--rate", type=_non_negative_float, default=1.0, metavar="R",
        help="churn-rate multiplier (scales events per epoch)",
    )
    parser.add_argument(
        "--seeds", type=_positive_int, default=1, metavar="K",
        help="run K seeds (seed, seed+1, ...) and report summary means",
    )
    parser.add_argument(
        "--jobs", "-j", type=_jobs_count, default=1, metavar="N",
        help="worker processes for multi-seed runs (-1 = all cores)",
    )
    _add_resilience_flags(parser)
    _add_observability_flags(parser)
    parser.add_argument(
        "--list", action="store_true", help="list workloads and strategies"
    )
    args = parser.parse_args(argv)
    configure_logging(verbose=args.verbose, quiet=args.quiet)
    set_telemetry_path(args.telemetry)
    _install_resilience(args)

    if args.list:
        print("workloads: ", ", ".join(sorted(WORKLOADS)))
        for name, workload in sorted(WORKLOADS.items()):
            print(f"  {name}: {workload.description}")
        print("strategies:", ", ".join(STRATEGIES))
        return 0

    if args.seeds > 1:
        from .harness import measure_dynamic_many

        if args.profile:
            _log.warning(
                "--profile profiles a single run; ignored with --seeds"
            )
        seeds = list(range(args.seed, args.seed + args.seeds))
        _log.info(
            "measuring %s/%s n=%d epochs=%d, %d seeds, jobs=%s",
            args.workload, args.algorithm, args.n, args.epochs, args.seeds,
            args.jobs,
        )
        tasks = [
            (args.workload, args.algorithm, args.strategy, args.n,
             args.epochs, seed, args.rate)
            for seed in seeds
        ]
        summaries = measure_dynamic_many(tasks, n_jobs=args.jobs)
        print(f"workload:  {args.workload}, n={args.n}, epochs={args.epochs}")
        print(f"algorithm: {args.algorithm} ({args.strategy}), "
              f"seeds {seeds[0]}..{seeds[-1]}, jobs={args.jobs}")
        keys = sorted(summaries[0])
        for key in keys:
            values = [summary[key] for summary in summaries]
            print(f"  {key:20s} mean={sum(values) / len(values):10.2f} "
                  f"min={min(values):10.2f} max={max(values):10.2f}")
        all_valid = all(summary["all_valid"] == 1.0 for summary in summaries)
        return 0 if all_valid else 2

    _log.info(
        "maintaining MIS across %s (n=%d, epochs=%d, strategy=%s)",
        args.workload, args.n, args.epochs, args.strategy,
    )
    profiler = None
    if args.profile:
        from .obs import Profiler

        profiler = Profiler()
    # Record (rather than raise on) invariant violations so a failed
    # w.h.p. run reports cleanly through the exit code below.
    started = perf_counter()
    result = run_dynamic_workload(
        args.workload,
        args.algorithm,
        strategy=args.strategy,
        n=args.n,
        epochs=args.epochs,
        seed=args.seed,
        rate=args.rate,
        check_invariant=False,
        options=RunOptions(instrument=profiler),
    )
    elapsed = perf_counter() - started
    from .harness import emit_dynamic_record

    emit_dynamic_record(
        args.workload, args.algorithm, args.strategy, args.n, args.epochs,
        args.seed, args.rate, result.summary(), elapsed,
    )

    print(f"workload:           {args.workload}, n={args.n}, "
          f"epochs={args.epochs}")
    print(f"algorithm:          {result.algorithm} ({result.strategy})")
    final = result.epochs[-1]
    print(f"final topology:     n={final.nodes}, m={final.edges}, "
          f"|MIS|={final.mis_size}")
    print(f"total rounds:       {result.total_rounds}")
    print(f"cumulative energy:  {result.cumulative_energy}")
    print(f"max energy:         {result.max_energy}")
    print(f"avg energy:         {result.average_energy:.2f}")
    print(f"repair region (Σ):  {result.total_repair_region}")
    print(f"MIS churn (Σ):      {result.total_mis_churn}")
    print(f"invariant held:     {result.all_valid}")
    if args.verbose:
        print("timeline:")
        print(f"  {'epoch':>5} {'events':>6} {'nodes':>6} {'|MIS|':>6} "
              f"{'repair':>6} {'rounds':>6} {'energy':>7} {'churn':>6}")
        for row in result.epochs:
            print(f"  {row.epoch:>5} {row.events:>6} {row.nodes:>6} "
                  f"{row.mis_size:>6} {row.repair_region:>6} "
                  f"{row.rounds:>6} {row.energy:>7} {row.mis_churn:>6}")
    if profiler is not None:
        from .obs import render_profile

        print(render_profile(profiler.as_dict()))
    return 0 if result.all_valid else 2


def _report_main(argv) -> int:
    parser = argparse.ArgumentParser(
        prog="repro report",
        description=(
            "Aggregate a telemetry JSONL stream (written via --telemetry) "
            "into per-configuration summary tables. Works on finished and "
            "in-flight streams alike: a partially-written final line is "
            "counted and skipped, so this doubles as a live progress view."
        ),
    )
    parser.add_argument("path", help="telemetry JSONL file to aggregate")
    parser.add_argument(
        "--max-keys", type=int, default=None, metavar="K",
        help="show at most K metrics per group (default: all)",
    )
    parser.add_argument(
        "--verbose", "-v", action="count", default=0,
        help="diagnostics on stderr",
    )
    parser.add_argument(
        "--quiet", "-q", action="store_true",
        help="suppress all diagnostics below ERROR",
    )
    args = parser.parse_args(argv)
    configure_logging(verbose=args.verbose, quiet=args.quiet)
    # Imported here, not at module top: the report loader pulls in the
    # analysis package, which plain runs never need.
    from .obs import report

    try:
        print(report.report_file(args.path, max_keys=args.max_keys))
    except OSError as error:
        _log.error("cannot read %s: %s", args.path, error)
        return 1
    return 0


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "dynamic":
        return _dynamic_main(argv[1:])
    if argv and argv[0] == "report":
        return _report_main(argv[1:])
    return _static_main(argv)


if __name__ == "__main__":
    sys.exit(main())
