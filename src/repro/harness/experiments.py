"""Experiment registry: every theorem-derived experiment of the paper.

Each experiment returns ``(report, data)``: a human-readable text block and
the raw numbers. ``python -m repro.harness --experiment E1`` prints the
report; ``--all`` runs the full battery. ``quick=True`` shrinks
sizes/seeds for smoke runs; ``--jobs N`` (or ``run_all(n_jobs=N)`` /
``run_experiment(..., n_jobs=N)``) fans every sweep/measure batch inside
the experiments out to a process pool.

Beyond the theorem experiments (E*) and ablations (A*), the registry holds
C1 (awake complexity across the congest/local/broadcast channel models),
D1 (dynamic MIS energy vs churn rate, covering ``repro.dynamic``), and
F1 (MIS quality/energy degradation under seeded channel faults, covering
``repro.faults``).
"""

from __future__ import annotations

import math
from time import perf_counter
from typing import Callable, Dict, List, Tuple

import networkx as nx
import numpy as np

from .. import graphs
from ..obs import get_logger
from ..analysis import (
    ascii_chart,
    best_model,
    fit_model,
    log2_safe,
    loglog,
)
from ..baselines import luby_mis
from ..cluster import Choreography, merge_component_clusters, singleton_clusters
from ..congest import EnergyLedger
from ..core import (
    DEFAULT_CONFIG,
    run_lemma31_iteration,
    run_phase1_alg1,
    run_phase2,
)
from ..schedule import schedule_for_round, schedule_size_bound, verify_overlap_property
from .parallel import parallel_map, use_jobs
from .runner import measure_dynamic_many, measure_many
from .sweep import series, sweep
from .tables import format_table, section

ExperimentFn = Callable[[bool], Tuple[str, dict]]

REGISTRY: Dict[str, ExperimentFn] = {}
DESCRIPTIONS: Dict[str, str] = {}

_log = get_logger("harness.experiments")


def experiment(name: str, description: str):
    def wrap(fn: ExperimentFn) -> ExperimentFn:
        REGISTRY[name] = fn
        DESCRIPTIONS[name] = description
        return fn

    return wrap


def _sizes(quick: bool) -> List[int]:
    return [128, 256, 512] if quick else [256, 512, 1024, 2048, 4096]


def _seeds(quick: bool) -> int:
    return 2 if quick else 3


def _scaling_report(
    name: str,
    claim_time: str,
    claim_energy: str,
    algorithm: str,
    quick: bool,
) -> Tuple[str, dict]:
    sizes = _sizes(quick)
    seeds = _seeds(quick)
    points = sweep([algorithm, "luby"], sizes, seeds=seeds)
    rows = []
    for n in sizes:
        alg_rounds = series(points, algorithm, "rounds")[n]
        alg_energy = series(points, algorithm, "max_energy")[n]
        luby_rounds = series(points, "luby", "rounds")[n]
        luby_energy = series(points, "luby", "max_energy")[n]
        rows.append(
            [n, alg_rounds, alg_energy, luby_rounds, luby_energy]
        )
    xs = sizes
    alg_energy = [series(points, algorithm, "max_energy")[n] for n in xs]
    luby_energy = [series(points, "luby", "max_energy")[n] for n in xs]
    alg_rounds = [series(points, algorithm, "rounds")[n] for n in xs]
    energy_fit = fit_model(xs, alg_energy, "loglog")
    luby_energy_fit = fit_model(xs, luby_energy, "log")
    time_fit = best_model(
        xs,
        alg_rounds,
        candidates=("const", "loglog", "log", "log_times_loglog", "log_sq"),
    )
    span = xs[-1] / xs[0]
    body = format_table(
        ["n", f"{algorithm} rounds", f"{algorithm} energy",
         "luby rounds", "luby energy"],
        rows,
    )
    body += (
        f"\n\nPaper claim: time {claim_time}, energy {claim_energy}."
        f"\nEnergy growth over a {span:.0f}x size span:"
        f" {algorithm} x{alg_energy[-1] / max(1, alg_energy[0]):.2f},"
        f" luby x{luby_energy[-1] / max(1, luby_energy[0]):.2f}"
        f"\n{algorithm} energy ~ a·loglog n + b: a={energy_fit.scale:.1f},"
        f" b={energy_fit.offset:.1f} (R²={energy_fit.r_squared:.2f})"
        f"\nluby energy ~ a·log n + b:        a={luby_energy_fit.scale:.1f},"
        f" b={luby_energy_fit.offset:.1f} (R²={luby_energy_fit.r_squared:.2f})"
        f"\nBest-fit growth of {algorithm} rounds: {time_fit.model}"
        "\nNote: small-n points include the Phase II/III turn-on transient"
        "\n(residual components growing from trivial to typical); see E8 for"
        "\nthe per-phase plateau evidence."
    )
    data = {
        "points": points,
        "energy_fit": energy_fit,
        "luby_energy_fit": luby_energy_fit,
        "time_fit": time_fit,
    }
    return section(name, body), data


@experiment("E1", "Theorem 1.1: Algorithm 1 time/energy scaling")
def experiment_e1(quick: bool = False):
    return _scaling_report(
        "E1 — Theorem 1.1 (Algorithm 1)",
        "O(log² n)",
        "O(log log n)",
        "algorithm1",
        quick,
    )


@experiment("E2", "Theorem 1.2: Algorithm 2 time/energy scaling")
def experiment_e2(quick: bool = False):
    return _scaling_report(
        "E2 — Theorem 1.2 (Algorithm 2)",
        "O(log n · log log n · log* n)",
        "O(log² log n)",
        "algorithm2",
        quick,
    )


@experiment("E3", "Luby baseline and the headline comparison")
def experiment_e3(quick: bool = False):
    sizes = _sizes(quick)
    seeds = _seeds(quick)
    points = sweep(["luby", "algorithm1", "algorithm2"], sizes, seeds=seeds)
    rows = []
    for n in sizes:
        rows.append([
            n,
            series(points, "luby", "rounds")[n],
            series(points, "luby", "max_energy")[n],
            series(points, "algorithm1", "max_energy")[n],
            series(points, "algorithm2", "max_energy")[n],
        ])
    luby_fit = fit_model(
        sizes, [series(points, "luby", "max_energy")[n] for n in sizes], "log"
    )
    # Fit Algorithm 1 on the tail sizes only: the small-n points reflect the
    # Phase II/III machinery "turning on" (components grow from trivial to
    # typical), not the asymptotic loglog growth.
    tail = sizes[-3:] if len(sizes) >= 3 else sizes
    alg1_fit = fit_model(
        tail,
        [series(points, "algorithm1", "max_energy")[n] for n in tail],
        "loglog",
    )
    # Search for the crossover only beyond the measured range (backward
    # extrapolation of the tail fit is meaningless).
    start_exponent = math.ceil(math.log2(max(sizes))) + 1
    crossover = None
    for exponent in range(start_exponent, 2000):
        n = 2.0**exponent
        if alg1_fit.predict(n) < luby_fit.predict(n):
            crossover = exponent
            break
    body = format_table(
        ["n", "luby rounds", "luby energy", "alg1 energy", "alg2 energy"],
        rows,
    )
    body += "\n\n" + ascii_chart(
        {
            "luby": series(points, "luby", "max_energy"),
            "alg1": series(points, "algorithm1", "max_energy"),
            "alg2": series(points, "algorithm2", "max_energy"),
        },
        title="max awake rounds vs n",
        height=12,
    )
    body += (
        "\n\nLuby energy fit (a·log n + b):   "
        f"a={luby_fit.scale:.2f}, b={luby_fit.offset:.2f}, R²={luby_fit.r_squared:.3f}"
        "\nAlg1 tail energy fit (a·loglog n + b): "
        f"a={alg1_fit.scale:.2f}, b={alg1_fit.offset:.2f}"
        "\n(small-n algorithm-1 energy reflects phase machinery turning on,"
        "\n so the loglog fit uses the largest sizes only)"
    )
    if crossover is not None:
        body += (
            f"\nExtrapolated energy crossover (alg1 beats luby): n ≈ 2^{crossover}"
            "\n(with our simulation-scale constants; the paper's claim is the"
            "\n growth-rate separation, which the fits above measure)"
        )
    else:
        body += (
            "\nNo crossover within the extrapolation horizon: at simulation"
            "\nscales the measured algorithm-1 energy still includes the"
            "\ncomponent-size turn-on transient (see E8 for the per-phase"
            "\nplateau evidence), so the tail slope overestimates the"
            "\nasymptotic constant."
        )
    return section("E3 — Baseline comparison", body), {
        "points": points,
        "luby_fit": luby_fit,
        "alg1_fit": alg1_fit,
        "crossover_exponent": crossover,
    }


@experiment("E4", "Section 4: constant node-averaged energy")
def experiment_e4(quick: bool = False):
    sizes = _sizes(quick)
    seeds = _seeds(quick)
    algorithms = ["luby", "algorithm1", "algorithm1_avg", "algorithm2_avg"]
    points = sweep(algorithms, sizes, seeds=seeds)
    rows = []
    for n in sizes:
        rows.append([
            n,
            series(points, "luby", "average_energy")[n],
            series(points, "algorithm1", "average_energy")[n],
            series(points, "algorithm1_avg", "average_energy")[n],
            series(points, "algorithm2_avg", "average_energy")[n],
        ])
    fits = {}
    for algorithm in algorithms:
        ys = [series(points, algorithm, "average_energy")[n] for n in sizes]
        fits[algorithm] = best_model(sizes, ys, candidates=("const", "loglog", "log"))
    body = format_table(
        ["n", "luby avg", "alg1 (plain) avg", "alg1_avg avg", "alg2_avg avg"],
        rows,
    )
    body += "\n\nBest-fit growth of node-averaged energy:"
    for algorithm in algorithms:
        body += f"\n  {algorithm}: {fits[algorithm].model}"
    body += (
        "\n\nSection 4's claim, measured: the augmented variants keep the"
        "\nnode-averaged energy flat and below the plain Algorithm 1, whose"
        "\naverage rises with the Phase II/III participation; Luby's average"
        "\nstays low on random graphs because most nodes decide quickly —"
        "\nthe paper's contrast is about guarantees (O(1) average alongside"
        "\npolyloglog worst case), which the augmented rows exhibit."
    )
    return section("E4 — Constant average energy", body), {
        "points": points,
        "fits": fits,
    }


def _e5_task(n: int) -> dict:
    """One Phase-I degree-reduction cell (module-level for process pools)."""
    degree = min(n / 2.5, 4.0 * log2_safe(n) ** 2)
    graph = graphs.gnp_expected_degree(n, degree, seed=n)
    result = run_phase1_alg1(graph, seed=0, size_bound=n)
    return {
        "n": n,
        "degree": degree,
        "details": result.details,
        "max_energy": result.metrics.max_energy,
    }


@experiment("E5", "Lemma 2.1: Phase I residual degree O(log² n)")
def experiment_e5(quick: bool = False):
    sizes = [200, 400] if quick else [200, 400, 800, 1600]
    rows = []
    data = []
    for cell in parallel_map(_e5_task, sizes):
        n = cell["n"]
        bound = 4 * log2_safe(n) ** 2
        rows.append([
            n,
            int(cell["degree"]),
            cell["details"]["iterations"],
            cell["details"]["residual_max_degree"],
            f"{bound:.0f}",
            cell["max_energy"],
        ])
        data.append(cell["details"])
    body = format_table(
        ["n", "input Δ", "iterations", "residual Δ", "4·log² n", "energy"],
        rows,
    )
    body += "\n\nPaper claim: residual degree O(log² n), energy O(log log n)."
    return section("E5 — Phase I degree reduction", body), {"rows": data}


@experiment("E6", "Lemma 2.5: overlap schedule size and property")
def experiment_e6(quick: bool = False):
    totals = [2**k for k in (4, 6, 8, 10)] if quick else [2**k for k in range(4, 15, 2)]
    rows = []
    for total in totals:
        max_size = max(
            len(schedule_for_round(total, k))
            for k in range(0, total, max(1, total // 64))
        )
        rows.append([total, max_size, schedule_size_bound(total)])
    verified = all(verify_overlap_property(t) for t in (16, 64, 256))
    body = format_table(["T", "max |S_k| (sampled)", "⌈log T⌉+1 bound"], rows)
    body += f"\n\nExhaustive overlap property verified for T in {{16, 64, 256}}: {verified}"
    return section("E6 — Awake-overlap schedules", body), {"verified": verified}


def _e7_task(n: int) -> dict:
    """One shattering cell (module-level for process pools)."""
    graph = graphs.gnp_expected_degree(n, max(8.0, n**0.5), seed=n)
    result = run_phase2(graph, seed=0, size_bound=n)
    return {"n": n, "details": result.details,
            "undecided": len(result.remaining)}


@experiment("E7", "Lemma 2.6: shattering leaves small components")
def experiment_e7(quick: bool = False):
    sizes = [256, 512] if quick else [256, 512, 1024, 2048, 4096]
    rows = []
    data = []
    for cell in parallel_map(_e7_task, sizes):
        n = cell["n"]
        bound = 4 * log2_safe(n) ** 2
        rows.append([
            n,
            cell["details"]["delta2"],
            cell["undecided"],
            cell["details"]["largest_component"],
            f"{bound:.0f}",
            cell["details"]["components"],
        ])
        data.append(cell["details"])
    body = format_table(
        ["n", "Δ₂", "undecided", "largest comp", "4·log² n", "#components"],
        rows,
    )
    body += "\n\nPaper claim: every component has poly(log n) nodes."
    return section("E7 — Shattering", body), {"rows": data}


@experiment("E8", "Lemma 2.8: cluster merging builds an O(log n)-diameter tree")
def experiment_e8(quick: bool = False):
    sizes = [64, 128] if quick else [64, 128, 256, 512]
    rows = []
    data = []
    for n in sizes:
        graph = graphs.gnp(n, min(0.9, 4.0 / n * log2_safe(n)), seed=n)
        component = max(nx.connected_components(graph), key=len)
        sub = graph.subgraph(component).copy()
        state = singleton_clusters(sub)
        ledger = EnergyLedger(sub.nodes)
        choreography = Choreography(ledger)
        tree, report = merge_component_clusters(state, choreography)
        rows.append([
            len(component),
            report.iterations,
            f"{2 * math.ceil(log2_safe(len(component))):.0f}",
            tree.height,
            ledger.max_energy(),
        ])
        data.append(report)
    body = format_table(
        ["component size", "iterations", "2·⌈log s⌉ bound", "tree height",
         "max energy"],
        rows,
    )
    body += (
        "\n\nPaper claim: O(log #clusters) iterations, tree diameter O(log n),"
        "\nO(1) awake rounds per node per iteration."
    )
    return section("E8 — Cluster merging", body), {"reports": data}


def _e9_task(task) -> dict:
    """One Lemma-3.1 contraction trial (module-level for process pools)."""
    delta, seed = task
    n = max(400, 4 * delta)
    graph = graphs.planted_max_degree(n, delta, seed=delta + seed)
    result = run_lemma31_iteration(graph, delta, seed=seed, size_bound=n)
    return {
        "residual": result.details["residual_max_degree"],
        "energy": result.metrics.max_energy,
    }


@experiment("E9", "Lemma 3.1: one iteration contracts Δ toward Δ^0.7")
def experiment_e9(quick: bool = False):
    deltas = [60, 120] if quick else [60, 120, 200, 300]
    seeds = 2 if quick else 3
    rows = []
    data = []
    trials = iter(parallel_map(
        _e9_task,
        [(delta, seed) for delta in deltas for seed in range(seeds)],
    ))
    for delta in deltas:
        n = max(400, 4 * delta)
        residuals = []
        energy = 0
        for seed in range(seeds):
            trial = next(trials)
            residuals.append(trial["residual"])
            energy = max(energy, trial["energy"])
        residuals.sort()
        rows.append([
            n,
            delta,
            residuals[len(residuals) // 2],
            f"{min(residuals)}..{max(residuals)}",
            f"{delta ** 0.7:.0f}",
            f"{8 * delta ** 0.6:.0f}",
            energy,
        ])
        data.append({"delta": delta, "residuals": residuals})
    body = format_table(
        ["n", "Δ", "median residual Δ", "range", "Δ^0.7", "8·Δ^0.6",
         "energy"],
        rows,
    )
    body += (
        "\n\nPaper claim: residual degree ≤ 8·Δ^0.6 ≪ Δ^0.7 w.h.p. (the"
        "\nw.h.p. part needs Δ ≥ log²⁰ n; at our Δ the contraction holds in"
        "\nthe median with occasional above-target seeds, which the"
        "\nCorollary 3.2 driver absorbs by falling back to the true degree)."
    )
    return section("E9 — Lemma 3.1 contraction", body), {"rows": data}


@experiment("E10", "Lemma 3.4: degree-estimate concentration")
def experiment_e10(quick: bool = False):
    rng = np.random.default_rng(0)
    # The estimate's relative concentration is controlled by
    # E[tags] = Δ^0.1, so the paper's Δ >= log^20 n regime is what makes it
    # sharp. We span Δ up to that regime directly (the estimator is a plain
    # binomial, so no graph is needed at astronomic Δ).
    deltas = [10**4, 10**8] if quick else [10**4, 10**6, 10**8, 10**10, 10**12]
    trials = 1000 if quick else 4000
    rows = []
    data = {}
    for delta in deltas:
        tag_probability = delta**-0.5
        true_degree = max(1, int(delta**0.6))
        estimates = (
            rng.binomial(true_degree, tag_probability, size=trials)
            * delta**0.5
        )
        within = np.mean(
            (estimates >= true_degree / 2) & (estimates <= 2 * true_degree)
        )
        rows.append([
            f"1e{int(math.log10(delta))}",
            true_degree,
            f"{delta**0.1:.1f}",
            f"{100 * within:.0f}%",
        ])
        data[delta] = float(within)
    body = format_table(
        ["Δ", "true degree Δ^0.6", "E[tags] = Δ^0.1", "within [d/2, 2d]"],
        rows,
    )
    body += (
        "\n\nPaper claim (Lemma 3.4): within a factor 2 w.h.p. once"
        "\nΔ ≥ log²⁰ n. The concentration is governed by E[tags] = Δ^0.1,"
        "\nclearly sharpening along the ladder."
    )
    return section("E10 — Degree-estimate concentration", body), data


@experiment("E11", "Correctness: independence always, maximality w.h.p.")
def experiment_e11(quick: bool = False):
    families = ["gnp_log_degree", "geometric", "barabasi_albert", "grid"]
    algorithms = ["luby", "algorithm1", "algorithm2",
                  "algorithm1_avg", "algorithm2_avg"]
    n = 200 if quick else 400
    seeds = 2 if quick else 3
    rows = []
    total = {"runs": 0, "independent": 0, "maximal": 0}
    tasks = [
        (algorithm, family, n, seed)
        for algorithm in algorithms
        for family in families
        for seed in range(seeds)
    ]
    outcomes = iter(measure_many(tasks))
    for algorithm in algorithms:
        runs = independent = maximal = 0
        for family in families:
            for seed in range(seeds):
                outcome = next(outcomes)
                runs += 1
                independent += int(outcome["independent"])
                maximal += int(outcome["maximal"])
        rows.append([
            algorithm, runs, independent, maximal,
            f"{100 * maximal / runs:.0f}%",
        ])
        total["runs"] += runs
        total["independent"] += independent
        total["maximal"] += maximal
    body = format_table(
        ["algorithm", "runs", "independent", "maximal", "maximal rate"], rows
    )
    body += (
        "\n\nIndependence must be 100% (it holds unconditionally);"
        "\nmaximality is the w.h.p. part."
    )
    return section("E11 — Correctness", body), total


@experiment("A1", "Ablation: one-shot marking vs always-awake re-marking")
def experiment_a1(quick: bool = False):
    from ..baselines import regularized_luby_mis

    sizes = [256, 512] if quick else [256, 512, 1024]
    rows = []
    for n in sizes:
        degree = 4.0 * log2_safe(n) ** 2
        graph = graphs.gnp_expected_degree(n, min(degree, n / 2), seed=n)
        one_shot = run_phase1_alg1(graph, seed=0, size_bound=n)
        regularized = regularized_luby_mis(graph, seed=0, size_bound=n)
        luby = luby_mis(graph, seed=0)
        rows.append([
            n,
            one_shot.metrics.max_energy,
            regularized.max_energy,
            luby.max_energy,
            one_shot.details["residual_max_degree"],
        ])
    body = format_table(
        ["n", "phase-I energy (one-shot)",
         "regularized-luby energy (re-marking)", "luby energy",
         "phase-I residual Δ"],
        rows,
    )
    body += (
        "\n\nThe ladder the paper climbs: regularized Luby (the unmodified"
        "\nbase, re-marking every round) is even costlier than plain Luby;"
        "\nthe one-shot modification makes the marking schedule precomputable"
        "\nand collapses the energy to O(log log n)."
    )
    return section("A1 — One-shot marking", body), {}


@experiment("A2", "Ablation: overlap schedules vs staying awake")
def experiment_a2(quick: bool = False):
    sizes = [256, 512] if quick else [256, 512, 1024, 2048]
    rows = []
    for n in sizes:
        degree = 4.0 * log2_safe(n) ** 2
        graph = graphs.gnp_expected_degree(n, min(degree, n / 2), seed=n)
        result = run_phase1_alg1(graph, seed=0, size_bound=n)
        total_rounds = result.metrics.rounds
        rows.append([
            n,
            result.metrics.max_energy,
            total_rounds,
            (
                f"{total_rounds / max(1, result.metrics.max_energy):.1f}x"
            ),
        ])
    body = format_table(
        ["n", "energy with schedules", "always-awake counterfactual",
         "savings"],
        rows,
    )
    body += (
        "\n\nWithout Lemma 2.5 schedules every Phase-I participant would be"
        "\nawake for all rounds (energy = rounds)."
    )
    return section("A2 — Overlap schedules", body), {}


@experiment("A3", "Ablation: iteration truncation (−2 log log n term)")
def experiment_a3(quick: bool = False):
    sizes = [256, 512] if quick else [256, 512, 1024]
    rows = []
    for n in sizes:
        degree = 4.0 * log2_safe(n) ** 2
        graph = graphs.gnp_expected_degree(n, min(degree, n / 2), seed=n)
        truncated = run_phase1_alg1(graph, seed=0, size_bound=n)
        full = run_phase1_alg1(
            graph,
            seed=0,
            size_bound=n,
            config=DEFAULT_CONFIG.with_overrides(phase1_truncation=0.0),
        )
        rows.append([
            n,
            truncated.details["iterations"],
            truncated.metrics.rounds,
            truncated.details["residual_max_degree"],
            full.details["iterations"],
            full.metrics.rounds,
            full.details["residual_max_degree"],
        ])
    body = format_table(
        ["n", "trunc iters", "trunc rounds", "trunc residual Δ",
         "full iters", "full rounds", "full residual Δ"],
        rows,
    )
    body += (
        "\n\nTruncating at log Δ − 2 log log n stops Phase I exactly where"
        "\nextra iterations stop paying: the later iterations cost rounds"
        "\nwhile Phase II handles the polylog residue more cheaply."
    )
    return section("A3 — Truncation", body), {}


@experiment("C1", "Channel models: awake complexity across congest/local/radio")
def experiment_c1(quick: bool = False):
    """Compare MIS cost across the pluggable channel layer.

    Luby on CONGEST vs LOCAL isolates the bit-accounting question (the
    rounds/energy are identical; LOCAL just refuses to price them); the
    decay radio MIS on the broadcast channel shows what one shared medium
    costs: collisions billed as wasted listening slots, yet per-epoch
    schedules keep the spectator energy small.
    """
    sizes = [64, 128] if quick else [64, 128, 256, 512]
    seeds = _seeds(quick)
    cells = [
        ("luby", "congest"),
        ("luby", "local"),
        ("radio_decay", "broadcast"),
        ("radio_decay", "congest"),
    ]
    tasks = [
        (algorithm, "gnp_log_degree", n, seed, channel)
        for algorithm, channel in cells
        for n in sizes
        for seed in range(seeds)
    ]
    outcomes = iter(measure_many(tasks))
    table: Dict[Tuple[str, str], Dict[int, Dict[str, float]]] = {}
    for algorithm, channel in cells:
        by_n = {}
        for n in sizes:
            trials = [next(outcomes) for _ in range(seeds)]
            by_n[n] = {
                key: sum(t[key] for t in trials) / seeds for key in trials[0]
            }
        table[(algorithm, channel)] = by_n
    rows = []
    for n in sizes:
        rows.append([
            n,
            table[("luby", "congest")][n]["max_energy"],
            table[("luby", "local")][n]["max_energy"],
            table[("radio_decay", "broadcast")][n]["max_energy"],
            table[("radio_decay", "congest")][n]["max_energy"],
            table[("radio_decay", "broadcast")][n]["collisions"],
        ])
    body = format_table(
        ["n", "luby@congest", "luby@local", "radio@broadcast",
         "radio@congest", "radio collisions"],
        rows,
    )
    ok = all(
        table[cell][n]["independent"] == 1.0
        for cell in cells
        for n in sizes
    )
    body += (
        f"\n\nAll runs independent: {ok}."
        "\nluby@local must match luby@congest exactly (the LOCAL channel"
        "\nchanges accounting, not delivery); the radio rows price the"
        "\nshared-medium reality: collision-billed energy, no addressing."
        "\nradio@congest is the ablation — the same decay program on"
        "\nreliable point-to-point delivery, where collisions cost nothing."
    )
    return section("C1 — Channel models", body), {"table": table}


@experiment("D1", "Dynamic MIS: energy vs churn rate (repro.dynamic)")
def experiment_d1(quick: bool = False):
    """Energy-vs-churn-rate curve for MIS maintenance under churn.

    Sweeps the churn-rate multiplier of the ``sensor_battery_decay``
    workload for both repair strategies; the claim under test is that
    incremental repair's energy grows with the churn rate while staying
    under the full-recompute baseline.
    """
    # n stays >= 200 even in quick mode so the rate multiplier actually
    # changes the integer events-per-epoch (at n=200 the base death count
    # is 2: rates 0.5/1/2/4 give 1/2/4/8 deaths per epoch).
    n = 200
    epochs = 4 if quick else 8
    seeds = 2 if quick else 3
    rates = [0.5, 1.0, 2.0] if quick else [0.5, 1.0, 2.0, 4.0]
    strategies = ["incremental", "full_recompute"]
    tasks = [
        ("sensor_battery_decay", "algorithm1", strategy, n, epochs, seed,
         rate)
        for strategy in strategies
        for rate in rates
        for seed in range(seeds)
    ]
    outcomes = iter(measure_dynamic_many(tasks))
    curves: Dict[str, Dict[float, Dict[str, float]]] = {}
    for strategy in strategies:
        by_rate = {}
        for rate in rates:
            trials = [next(outcomes) for _ in range(seeds)]
            by_rate[rate] = {
                key: sum(t[key] for t in trials) / seeds for key in trials[0]
            }
        curves[strategy] = by_rate
    rows = []
    for rate in rates:
        inc = curves["incremental"][rate]
        full = curves["full_recompute"][rate]
        rows.append([
            rate,
            inc["cumulative_energy"],
            full["cumulative_energy"],
            inc["total_repair_region"],
            inc["total_mis_churn"],
            f"{100 * inc['all_valid']:.0f}%",
        ])
    body = format_table(
        ["churn rate", "incr energy", "full energy", "repair region Σ",
         "MIS churn Σ", "valid"],
        rows,
    )
    body += "\n\n" + ascii_chart(
        {
            "incr": {
                rate: curves["incremental"][rate]["cumulative_energy"]
                for rate in rates
            },
            "full": {
                rate: curves["full_recompute"][rate]["cumulative_energy"]
                for rate in rates
            },
        },
        title="lifetime energy vs churn-rate multiplier",
        height=10,
    )
    body += (
        "\n\nBoth curves rise with churn; the gap is the payoff of"
        "\nrepairing only the invalidated region (repro.dynamic's"
        "\nincremental maintainer) instead of re-electing from scratch."
    )
    return section("D1 — Energy vs churn rate", body), {"curves": curves}


@experiment("F1", "Fault injection: MIS quality/energy vs drop and jam rate")
def experiment_f1(quick: bool = False):
    """Degradation curves under seeded channel faults (``repro.faults``).

    Two algorithm×channel pairings, each swept over its natural fault
    knob: Luby on a lossy CONGEST channel (iid per-message drops) and the
    decay radio MIS on a jammed broadcast medium (whole rounds blanketed
    for every listener, billed as collisions). Rate 0 doubles as the
    transparency check — an inactive wrapper must reproduce the bare
    channel's numbers exactly — and rising rates show faults buying
    rounds/energy and eroding maximality (dropped join/retire
    announcements leave conflicts and uncovered nodes; see
    ``repro.faults.healing`` for the repair path).
    """
    n = 128 if quick else 256
    seeds = _seeds(quick)
    drop_rates = [0.0, 0.05, 0.1, 0.2]
    jam_rates = [0.0, 0.1, 0.2, 0.4]
    cells = [
        ("luby", f"lossy(drop={drop},seed=1):congest", drop)
        for drop in drop_rates
    ] + [
        ("radio_decay", f"jam(rate={rate},seed=1):broadcast", rate)
        for rate in jam_rates
    ]
    tasks = [
        (algorithm, "gnp_log_degree", n, seed, channel)
        for algorithm, channel, _ in cells
        for seed in range(seeds)
    ]
    outcomes = iter(measure_many(tasks))
    table: Dict[Tuple[str, float], Dict[str, float]] = {}
    for algorithm, _, rate in cells:
        trials = [next(outcomes) for _ in range(seeds)]
        table[(algorithm, rate)] = {
            key: sum(t[key] for t in trials) / seeds for key in trials[0]
        }
    rows = []
    for drop, jam in zip(drop_rates, jam_rates):
        lossy = table[("luby", drop)]
        jammed = table[("radio_decay", jam)]
        rows.append([
            f"{drop:.2f}/{jam:.2f}",
            lossy["rounds"],
            lossy["max_energy"],
            f"{100 * lossy['maximal']:.0f}%",
            jammed["rounds"],
            jammed["max_energy"],
            f"{100 * jammed['maximal']:.0f}%",
            jammed["collisions"],
        ])
    body = format_table(
        ["drop/jam", "luby rounds", "luby energy", "luby maximal",
         "radio rounds", "radio energy", "radio maximal", "radio collisions"],
        rows,
    )
    body += "\n\n" + ascii_chart(
        {
            "luby": {
                drop: table[("luby", drop)]["maximal"]
                for drop in drop_rates
            },
            "radio": {
                rate: table[("radio_decay", rate)]["maximal"]
                for rate in jam_rates
            },
        },
        title="maximality rate vs fault rate (1.0 = every run a valid MIS)",
        height=10,
        log_x=False,
    )
    body += (
        "\n\nRate 0 rows run through the fault wrappers in their inactive"
        "\nstate and must match an unwrapped run bit-for-bit (the zero-cost"
        "\ntransparency contract, gated in benchmarks/test_bench_faults.py)."
        "\nRising rates trade rounds and energy for lost announcements;"
        "\nonce drops eat a join/retire message, maximality (and for Luby"
        "\neven independence) can fail — the self-healing path in"
        "\nrepro.faults.healing exists to repair exactly those runs."
    )
    return section("F1 — Fault degradation curves", body), {"table": table}


def run_experiment(
    name: str, quick: bool = False, n_jobs: int = None
) -> Tuple[str, dict]:
    """Run one experiment; ``n_jobs`` parallelizes its internal sweeps."""
    if name not in REGISTRY:
        raise KeyError(f"unknown experiment {name!r}; have {sorted(REGISTRY)}")
    _log.info("experiment %s: %s", name, DESCRIPTIONS[name])
    started = perf_counter()
    with use_jobs(n_jobs):
        outcome = REGISTRY[name](quick)
    _log.info("experiment %s finished in %.1fs", name, perf_counter() - started)
    return outcome


def run_all(quick: bool = False, n_jobs: int = None) -> str:
    """Run the whole battery and join the reports.

    With ``n_jobs`` every sweep/measure batch inside every experiment runs
    on a process pool via :func:`repro.harness.parallel.parallel_map`.
    """
    reports = []
    with use_jobs(n_jobs):
        for name in sorted(REGISTRY):
            report, _ = run_experiment(name, quick=quick)
            reports.append(report)
    return "\n".join(reports)
