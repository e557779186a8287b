"""One homogeneous program population per kernel-bearing program class.

Shared by the engine-equivalence and fault-matrix suites so both cover the
same six dense-round kernels. Not a test module (pytest only collects
``test_*.py``).
"""

import networkx as nx

from repro.baselines import LubyProgram, RegularizedLubyProgram
from repro.baselines.ghaffari import GhaffariProgram
from repro.core.average_energy import Lemma42Program
from repro.core.config import DEFAULT_CONFIG
from repro.core.phase1_alg1 import Phase1Alg1Program
from repro.core.phase1_alg2 import Phase1Alg2Program
from repro.graphs.properties import max_degree


def kernel_programs(graph):
    """Per kernel-bearing class name, a zero-argument program factory.

    The Phase I budgets are explicit: the default config gives zero
    Phase I iterations at test sizes. Lemma 4.2's small ``delta`` makes
    condition (B) bite, so on the suites' 96-node graph some nodes fail
    and others are still active when the last iteration halts them.
    """
    delta = max(2, max_degree(graph))
    return {
        "LubyProgram": LubyProgram,
        "RegularizedLubyProgram": lambda: RegularizedLubyProgram(4, 3, delta),
        "GhaffariProgram": lambda: GhaffariProgram(
            iterations=10, executions=3
        ),
        "Phase1Alg1Program": lambda: Phase1Alg1Program(4, 8, delta, 10.0),
        "Phase1Alg2Program": lambda: Phase1Alg2Program(
            delta, 6, DEFAULT_CONFIG
        ),
        "Lemma42Program": lambda: Lemma42Program(
            3, 4, 4, DEFAULT_CONFIG, graph.number_of_nodes()
        ),
    }


KERNEL_PROGRAMS = sorted(kernel_programs(nx.path_graph(3)))
