"""Repo benchmark: fixed MIS workloads, end-to-end metrics, per-layer trace.

Run from the repository root::

    python3 perfbench/run.py --workload paper-sparse --seed 1 --seconds 10 --trace 0

Each run first times the set-up — a fresh interpreter that imports
``repro`` and builds the workload's input graph from ``--seed`` — several
times. It then builds the graph itself and solves the workload's instance
set — each algorithm of the workload on that graph with each of its
algorithm seeds, each solve followed by ``verify_mis`` — over and over for
``--seconds``. Times are reported in reference seconds, scaled by a fixed
calibration loop timed around every timed piece (see :class:`Clock` and
``README.md``).
``--trace 0`` prints the end-to-end metrics; ``--trace 1``
additionally runs the same passes with the span tracer installed and prints
the per-layer metrics. The last line of standard output is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics``. Per-instance records
and the span dump are written under ``perfbench/out/``.
"""

import argparse
import functools
import gc
import hashlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import networkx as nx
import numpy as np

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

#: Fresh-interpreter set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Printed by a set-up child once its graph is built.
BUILT = "built"
#: Seconds :func:`calibrate` takes on the reference host speed. Times are
#: reported as ``measured * REFERENCE_CALIBRATION_S / calibration``.
REFERENCE_CALIBRATION_S = 0.03
#: Calibrations before and after every timed piece.
CALIBRATION_SAMPLES = 3


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="n in the hundreds (the benchmark's own tests)")
    parser.add_argument("--setup-only", action="store_true",
                        help="import and build the graph, print 'built', exit")
    return parser.parse_args(argv)


@functools.lru_cache(maxsize=None)
def _calibration_inputs():
    rng = np.random.default_rng(1)
    return (rng.random(50_000), np.arange(2_000_000, dtype=np.int64),
            rng.integers(0, 2_000_000, 150_000),
            nx.gnp_random_graph(300, 0.1, seed=3))


def calibrate() -> float:
    """Time a fixed mix of the kinds of work the workloads do (about 30 ms).

    Five to ten milliseconds each of interpreter dict work with a numpy
    sort, per-node generator creation, a networkx subgraph copy with its
    components, and random gathers from a 16 MiB array. Contention on a
    shared host slows these kinds by different factors at different times;
    the mix tracks the workloads better than any one of them. It uses
    nothing from ``repro``, so a change to the program never moves it, and
    it runs with the garbage collector off, so the size of the benchmark's
    own heap does not move it either.
    """
    noise, big, gather, graph = _calibration_inputs()
    gc.disable()
    started = perf_counter()
    table = {i: (i * 7919) % 10007 for i in range(10_000)}
    values = set(table.values())
    sum(1 for value in table.values() if value in values)
    sorted(table, key=table.get)
    np.cumsum(noise[np.argsort(noise)])
    for child in np.random.SeedSequence(5).spawn(300):
        np.random.default_rng(child).random()
    list(nx.connected_components(graph.subgraph(range(0, 300, 2)).copy()))
    np.sort(big[gather])
    elapsed = perf_counter() - started
    gc.enable()
    return elapsed


class Clock:
    """Wall clock that converts to reference seconds.

    Every timed piece is bracketed by :func:`calibrate`. A measured time is
    reported as ``seconds * REFERENCE_CALIBRATION_S / c``, where ``c`` is
    the median calibration of the whole run: the host's speed drifts by up
    to 2x over minutes, and the calibration drifts with it, while one
    calibration sample is too short to be steady on its own.
    """

    def __init__(self) -> None:
        self.calibrations = []

    def time(self, action):
        """Run ``action``; return (its measured seconds, its result)."""
        self.sample()
        started = perf_counter()
        result = action()
        elapsed = perf_counter() - started
        self.sample()
        return elapsed, result

    def sample(self) -> None:
        self.calibrations.extend(calibrate() for _ in range(CALIBRATION_SAMPLES))

    def reference_s(self, seconds: float) -> float:
        return seconds * REFERENCE_CALIBRATION_S / statistics.median(
            self.calibrations
        )


def spawn_setup(args):
    """Spawn a fresh interpreter that imports ``repro`` and builds the
    workload's input graph; return once the graph is built."""
    command = [sys.executable, str(Path(__file__).resolve()),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", "0", "--setup-only"]
    if args.tiny:
        command.append("--tiny")
    child = subprocess.Popen(command, stdout=subprocess.PIPE, text=True)
    return child, child.stdout.readline()


def time_setup(clock: Clock, args) -> float:
    """Measured seconds from spawning a set-up child until its graph is
    built; the child's exit is not timed."""
    elapsed, (child, line) = clock.time(lambda: spawn_setup(args))
    with child:
        pass
    if child.returncode != 0 or line.strip() != BUILT:
        raise RuntimeError(f"set-up child failed with code {child.returncode}")
    return elapsed


def digest(mis) -> str:
    """Order-free fingerprint of an MIS, for diffing two commits."""
    data = ",".join(str(node) for node in sorted(mis)).encode()
    return hashlib.sha256(data).hexdigest()[:16]


def solve_pass(clock, runner, analysis, workload, graph, n: int, seed: int):
    """Solve and verify every instance once; return (measured seconds,
    records), one entry per instance."""
    times, records = [], []
    for algorithm in workload.algorithms:
        for instance_seed in workload.instance_seeds(seed):
            # A user solves a freshly built graph: drop the CSR that a
            # previous run parked in networkx's per-graph cache.
            cache = getattr(graph, "__networkx_cache__", None)
            if cache:
                cache.clear()
            gc.collect()

            def solve_one():
                result = runner.run_algorithm(algorithm, graph, instance_seed)
                return result, analysis.verify_mis(graph, result.mis)

            elapsed, (result, report) = clock.time(solve_one)
            times.append(elapsed)
            records.append({
                "workload": workload.name,
                "algorithm": algorithm,
                "n": n,
                "graph_seed": seed,
                "seed": instance_seed,
                "rounds": int(result.rounds),
                "max_energy": int(result.max_energy),
                "avg_energy": float(result.average_energy),
                "mis_size": len(result.mis),
                "mis_digest": digest(result.mis),
                "messages": int(result.metrics.messages_delivered),
                "valid": bool(report.valid),
            })
    return times, records


def run_passes(seconds: float, solve):
    """Repeat ``solve`` while another pass as long as the last one still
    ends within ``seconds`` (at least once)."""
    times, passes = [], []
    deadline = perf_counter() + seconds
    while True:
        started = perf_counter()
        pass_times, records = solve()
        times.append(pass_times)
        passes.append(records)
        if 2 * perf_counter() - started > deadline:
            return times, passes


def pass_s(times, repeats: int) -> float:
    """Measured time of one pass over the instance set.

    Each instance counts with its median over the passes. An algorithm run
    with several seeds counts as the median over its seeds times the
    number of seeds, so that one seed from the heavy tail of a dense
    workload does not swing the run.
    """
    instances = [statistics.median(instance) for instance in zip(*times)]
    return sum(
        repeats * statistics.median(instances[start:start + repeats])
        for start in range(0, len(instances), repeats)
    )


def bound_ratios(record) -> str:
    """The paper-bound ratios of one instance (information only)."""
    log_n = math.log2(max(4, record["n"]))
    return (
        f"bounds {record['algorithm']} n={record['n']}: "
        f"max_energy/log2log2n={record['max_energy'] / math.log2(log_n):.3f} "
        f"avg_energy={record['avg_energy']:.3f} "
        f"rounds/log2^2n={record['rounds'] / log_n ** 2:.3f}"
    )


def mean_pass_s(times) -> float:
    """Measured time of the passes, summed over instances, averaged."""
    return sum(map(sum, times)) / len(times)


def layer_metrics(clock, tracer, since, until, traced, untraced,
                  vector_rounds, records):
    """Per-layer metrics of the traced passes, each a mean per pass; times
    in reference seconds."""
    totals = tracer.layer_totals(since, until)
    passes = len(traced)
    traced_s = clock.reference_s(mean_pass_s(traced))

    def self_s(prefix):
        return clock.reference_s(sum(
            entry["self_s"] for name, entry in totals.items()
            if name == prefix or name.startswith(prefix + ".")
        ) / passes)

    def calls(name):
        return totals.get(name, {}).get("calls", 0) / passes

    def count(name):
        return totals.get(name, {}).get("count", 0) / passes

    scalar_rounds = calls("congest.scalar_round")
    vector = vector_rounds / passes
    layered = sum(entry["self_s"] for entry in totals.values())
    return {
        "graphs.max_degree_s": (self_s("graphs.max_degree"), "s"),
        "congest.construct_s": (self_s("congest.construct"), "s"),
        "congest.networks": (calls("congest.construct"), "count"),
        "congest.construct_nodes": (count("congest.construct"), "count"),
        "congest.csr_s": (self_s("congest.csr"), "s"),
        "congest.vector_round_s": (self_s("congest.vector_round"), "s"),
        "congest.vector_rounds": (vector, "count"),
        "congest.scalar_round_s": (self_s("congest.scalar_round"), "s"),
        "congest.scalar_rounds": (scalar_rounds, "count"),
        "congest.deliver_s": (self_s("congest.deliver"), "s"),
        "congest.messages": (sum(r["messages"] for r in records), "count"),
        "congest.vector_frac": (
            vector / (vector + scalar_rounds) if vector + scalar_rounds else 0.0,
            "ratio",
        ),
        "baselines.driver_s": (self_s("baselines.driver"), "s"),
        "core.driver_s": (self_s("core.driver"), "s"),
        "core.phase1_s": (self_s("core.phase1"), "s"),
        "core.phase2_s": (self_s("core.phase2"), "s"),
        "core.phase3_s": (self_s("core.phase3"), "s"),
        "core.lemma42_s": (self_s("core.lemma42"), "s"),
        "core.handoff_s": (self_s("core.handoff"), "s"),
        "core.handoffs": (calls("core.handoff.copy"), "count"),
        "core.handoff_nodes": (count("core.handoff.copy"), "count"),
        "cluster.merge_s": (self_s("cluster.merge"), "s"),
        "analysis.verify_s": (self_s("analysis.verify"), "s"),
        "trace.solve_s": (traced_s, "s"),
        "trace.coverage": (
            layered / sum(map(sum, traced)), "ratio"
        ),
        "trace.overhead_frac": (
            mean_pass_s(traced) / mean_pass_s(untraced) - 1.0, "ratio"
        ),
        **{
            f"mis.{key}": (sum(r[key] for r in records) / len(records), "count")
            for key in ("rounds", "max_energy", "avg_energy")
        },
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from repro import analysis
    from repro.congest import vectorized
    from repro.harness import runner

    from mis_workloads import WORKLOADS
    from span_trace import Tracer

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"have {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    n = workload.tiny_n if args.tiny else workload.n
    seed = args.seed
    if args.setup_only:
        workload.build(n, seed)
        print(BUILT, flush=True)
        # Skip tearing down the graph: the parent has stopped its clock.
        os._exit(0)

    # One CPU for the whole run, set-up children included: the two CPUs of
    # a shared host change speed independently, so the calibration must
    # run where the timed work runs.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    clock = Clock()
    # A traced run reports no set-up time, so it skips the set-ups.
    setups = [] if args.trace else [
        time_setup(clock, args) for _ in range(SETUP_REPEATS)
    ]

    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    gc.collect()
    graph = workload.build(n, seed)
    if tracer is not None:
        tracer.uninstall()
        build_totals = tracer.layer_totals()

    def solve():
        return solve_pass(clock, runner, analysis, workload, graph, n, seed)

    # A traced run splits its time: untraced passes (the overhead baseline),
    # then traced passes.
    window = args.seconds / 2 if tracer is not None else args.seconds
    times, passes = run_passes(window, solve)
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if tracer is not None:
        vector_before = vectorized.vector_stats()["rounds"]
        since = len(tracer.spans)
        tracer.install()
        try:
            traced, traced_passes = run_passes(window, solve)
        finally:
            tracer.uninstall()
        until = len(tracer.spans)
        vector_rounds = vectorized.vector_stats()["rounds"] - vector_before
        passes.extend(traced_passes)

    first = passes[0]
    deterministic = all(records == first for records in passes)
    attempted = sum(len(records) for records in passes)
    failed = sum(1 for records in passes for r in records if not r["valid"])
    correct = deterministic and failed == 0

    OUT.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{seed}{'-tiny' if args.tiny else ''}"
    with open(OUT / f"{stem}-records.jsonl", "w", encoding="utf-8") as handle:
        for record in first:
            handle.write(json.dumps(record, sort_keys=True) + "\n")
    for record in first:
        print("record " + json.dumps(record, sort_keys=True))
    for record in first:
        print(bound_ratios(record))
    print("paper quantities (mean over instances, exact per seed): " + ", ".join(
        f"{key}={sum(r[key] for r in first) / len(first):.4f} count"
        for key in ("rounds", "max_energy", "avg_energy")
    ))
    print("instance seconds, median over passes: "
          f"{[round(statistics.median(t), 4) for t in zip(*times)]}")
    # Converted only now, with every calibration of the run in.
    measured_s = pass_s(times, workload.repeats)
    solve_s = clock.reference_s(measured_s)
    print(f"solve_s={solve_s:.4f} reference s from {len(times)} passes "
          f"(measured {measured_s:.4f} s); set-ups measured "
          f"{[round(t, 4) for t in setups]} s; calibration median "
          f"{statistics.median(clock.calibrations) * 1e3:.2f} ms over "
          f"{len(clock.calibrations)}; invalid_frac={failed / attempted:.4f}; "
          f"deterministic={deterministic}")

    if tracer is None:
        metrics = {
            "setup_s": (clock.reference_s(statistics.median(setups)), "s"),
            "solve_s": (solve_s, "s"),
            "peak_rss_mib": (peak_rss_mib, "MiB"),
            "valid_frac": (1.0 - failed / attempted, "ratio"),
        }
    else:
        tracer.dump(OUT / f"{stem}-trace.json")
        metrics = layer_metrics(clock, tracer, since, until, traced, times,
                                vector_rounds, first)
        print(f"traced solve_s={metrics['trace.solve_s'][0]:.4f} reference s "
              f"from {len(traced)} passes")
        build = build_totals.get("graphs.build", {"self_s": 0.0})
        metrics["graphs.build_s"] = (clock.reference_s(build["self_s"]), "s")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value:.6g} {unit}")

    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
