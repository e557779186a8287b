"""Runtime checks of the node-program and kernel contracts.

Each test breaks one contract on a shipped program or kernel (a subclass
or a monkeypatch) and asserts the error raised where that contract is
enforced: kernel instantiation (the abstract ``VectorRound`` protocol),
class creation (``StateField`` defaults), column allocation (string
widths), kernel engagement (state a hook added, the ``vector_round``
factory's return value) and the
channel's inbox views (a stored view read after its round). The last
test pins that a node's ``Context`` is one object for the network's
lifetime, so a program that keeps it sees nothing recycled. The
allocation and engagement checks run on a networkx graph and on its
array-native ``GraphArrays`` twin.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro import graphs
from repro.baselines import LubyProgram
from repro.baselines.ghaffari import GhaffariProgram
from repro.baselines.luby import _LubyVectorRound
from repro.congest import (
    ChannelError,
    Network,
    StateField,
    VectorizationError,
)
from repro.congest.vectorized import GraphArrays, VectorRound

from kernel_programs import KERNEL_PROGRAMS, kernel_programs


@pytest.fixture(scope="module")
def graph():
    return graphs.make_family("gnp_log_degree", 96, seed=3)


#: The two graph inputs a ``Network`` takes: the networkx graph and its
#: array-native ``GraphArrays`` twin, which builds no networkx object.
GRAPH_FORMS = ["networkx", "arrays"]


def _graph_input(graph, form):
    return graph if form == "networkx" else GraphArrays.from_graph(graph)


class DeferredLuby(LubyProgram):
    """Luby that stores each inbox unread, to read it next round."""

    def __init__(self):
        super().__init__()
        self.inbox = None

    def on_round(self, ctx):
        if self.inbox is not None:
            list(self.inbox)
        super().on_round(ctx)

    def on_receive(self, ctx, messages):
        self.inbox = messages


def _kernel_class(program, graph):
    """The program class one kernel-bearing factory builds."""
    return type(kernel_programs(graph)[program]())


def _with_scratch_hook(monkeypatch, cls):
    """Make ``cls.on_round`` add ``scratch``: neither a schema field nor
    set by ``__init__``, so no kernel flush would carry it."""
    on_round = cls.on_round

    def scratch_on_round(self, ctx):
        self.scratch = ctx.degree
        on_round(self, ctx)

    monkeypatch.setattr(cls, "on_round", scratch_on_round)


@pytest.mark.parametrize("missing", ["load", "step_round", "flush_state"])
def test_kernel_missing_part_of_the_protocol_is_refused(missing):
    parts = {
        name: getattr(_LubyVectorRound, name)
        for name in ("load", "step_round", "flush_state")
        if name != missing
    }
    kernel = type("Kernel", (VectorRound,), parts)
    with pytest.raises(TypeError, match=f"abstract method.*{missing}"):
        kernel(None)


@pytest.mark.parametrize("dtype, default", [(np.uint32, -1), (np.bool_, 7)])
def test_default_the_dtype_cannot_hold_is_refused(dtype, default):
    with pytest.raises(ValueError, match="'sentinel'.*round trip"):
        class Sentinel(LubyProgram):
            @classmethod
            def state_schema(cls):
                return (
                    *LubyProgram.state_schema(),
                    StateField("sentinel", dtype, default=default),
                )


@pytest.mark.parametrize("dtype, default", [
    (np.int64, -1), (np.uint8, 255), (np.bool_, True), (np.float64, np.nan),
])
def test_default_the_dtype_holds_is_accepted(dtype, default):
    assert StateField("sentinel", dtype, default=default).default is default


@pytest.mark.parametrize("form", GRAPH_FORMS)
def test_width_naming_a_missing_attribute_names_class_and_field(graph, form):
    class RenamedWidth(GhaffariProgram):
        @classmethod
        def state_schema(cls):
            return tuple(
                replace(field, width="execs")
                for field in GhaffariProgram.state_schema()
            )

    with pytest.raises(
        AttributeError, match="RenamedWidth field 'status'.*'execs'"
    ):
        Network(_graph_input(graph, form), RenamedWidth, seed=1)


@pytest.mark.parametrize("engine", ["auto", "vectorized"])
@pytest.mark.parametrize("form", GRAPH_FORMS)
@pytest.mark.parametrize("program", KERNEL_PROGRAMS)
def test_every_kernel_reengages_after_scalar_rounds(
    graph, program, form, engine
):
    """No shipped program trips the hook-added-state check: scalar
    rounds, then the kernel, give the records of one unbroken run. The
    cut-and-resume of ``TestStateColumns``, on every kernel."""
    make = kernel_programs(graph)[program]

    def fresh():
        return Network(_graph_input(graph, form), make, seed=11)

    reference = fresh()
    reference.run(engine="fast")
    resumed = fresh()
    resumed.run_rounds(3, engine="fast")
    resumed.run(engine=engine)
    assert resumed.vector_rounds > 0
    assert resumed.metrics() == reference.metrics()
    assert resumed.ledger.snapshot() == reference.ledger.snapshot()


@pytest.mark.parametrize("engine", ["auto", "vectorized"])
@pytest.mark.parametrize("form", GRAPH_FORMS)
@pytest.mark.parametrize("program", KERNEL_PROGRAMS)
def test_every_kernel_refuses_hook_added_state(
    graph, program, form, engine, monkeypatch
):
    make = kernel_programs(graph)[program]
    _with_scratch_hook(monkeypatch, _kernel_class(program, graph))
    network = Network(_graph_input(graph, form), make, seed=11)
    network.run_rounds(3, engine="fast")
    assert any("scratch" in vars(p) for p in network.programs.built().values())
    with pytest.raises(VectorizationError, match=r"\['scratch'\]"):
        network.run(engine=engine)


@pytest.mark.parametrize("engine", ["auto", "vectorized"])
@pytest.mark.parametrize("program", KERNEL_PROGRAMS)
def test_vector_round_returning_a_non_kernel_is_refused(
    graph, program, engine, monkeypatch
):
    make = kernel_programs(graph)[program]
    monkeypatch.setattr(
        _kernel_class(program, graph), "vector_round",
        classmethod(lambda cls, network: object()),
    )
    network = Network(graph, make, seed=1)
    with pytest.raises(VectorizationError, match="not a VectorRound"):
        network.run(engine=engine)


@pytest.mark.parametrize("channel", [
    "congest", "local", "lossy(drop=0.0,seed=1):congest",
])
def test_inbox_view_read_after_its_round_raises(graph, channel):
    network = Network(graph, DeferredLuby, seed=11, channel=channel)
    with pytest.raises(ChannelError, match="after its round ended"):
        network.run_rounds(2, engine="fast")


@pytest.mark.parametrize("program", KERNEL_PROGRAMS)
def test_a_node_sees_one_context_for_the_network_lifetime(
    graph, program, monkeypatch
):
    """Every callback of a node gets the one ``Context`` that
    ``network.contexts`` holds for it, from the first round to the last."""
    make = kernel_programs(graph)[program]
    cls = _kernel_class(program, graph)
    seen = {}
    on_round = cls.on_round

    def keeping_on_round(self, ctx):
        seen.setdefault(ctx.node, []).append(ctx)
        on_round(self, ctx)

    monkeypatch.setattr(cls, "on_round", keeping_on_round)
    network = Network(graph, make, seed=11)
    network.run(engine="fast")
    assert max(map(len, seen.values())) > 3
    for node, contexts in seen.items():
        assert all(ctx is network.contexts[node] for ctx in contexts), node
