"""Who sleeps when: tracing an execution round by round.

The engine can record every round's awake set. This example traces Luby's
algorithm (everyone awake until decided) side by side with Phase I of
Algorithm 1 (nodes wake only at their Lemma 2.5 schedule slots) on the same
dense graph, and prints ASCII sleep diagrams — the visual version of the
energy-complexity separation.

Run:  python examples/sleep_diagram.py
"""

from functools import partial

from repro import graphs
from repro.baselines import LubyProgram
from repro.congest import Network
from repro.core import DEFAULT_CONFIG
from repro.core.phase1_alg1 import Phase1Alg1Program
from repro.graphs.properties import max_degree


def main():
    n = 600
    graph = graphs.gnp_expected_degree(n, 200.0, seed=2)
    delta = max_degree(graph)
    sample_nodes = sorted(graph.nodes)[:12]

    # --- Luby: no sleeping until decided -----------------------------
    luby_net = Network(graph, LubyProgram, seed=0, trace=True)
    luby_net.run()
    print("Luby's algorithm (every undecided node awake every round):\n")
    print(luby_net.trace.sleep_diagram(sample_nodes, width=60))
    print(f"\n  rounds={luby_net.metrics().rounds} "
          f"max_energy={luby_net.metrics().max_energy}")

    # --- Phase I of Algorithm 1: scheduled micro-naps -----------------
    config = DEFAULT_CONFIG
    iterations = config.phase1_iterations(n, delta)
    rounds_per_iteration = config.phase1_rounds_per_iteration(n)
    programs = partial(
        Phase1Alg1Program, iterations, rounds_per_iteration, delta,
        config.phase1_mark_divisor,
    )
    phase_net = Network(graph, programs, seed=0, trace=True)
    phase_net.run_rounds(3 * iterations * rounds_per_iteration)
    print("\n\nPhase I of Algorithm 1 (awake only at schedule slots, '#'):\n")
    print(phase_net.trace.sleep_diagram(sample_nodes, width=60))
    print(f"\n  rounds={phase_net.metrics().rounds} "
          f"max_energy={phase_net.metrics().max_energy}")

    counts = phase_net.trace.awake_counts()
    print(f"\n  awake nodes per round: min={min(counts)}, "
          f"max={max(counts)}, mean={sum(counts)/len(counts):.1f} "
          f"(of {n} nodes)")
    print("\nThe diagram is the paper in one picture: the baseline's rows"
          "\nare solid, Phase I's rows are almost entirely dots.")


if __name__ == "__main__":
    main()
