"""The synchronous CONGEST-with-sleeping engine.

One :class:`Network` simulates one execution of a distributed algorithm on a
fixed undirected graph. The engine owns the global round counter and the
:class:`~repro.congest.metrics.EnergyLedger`; node programs interact with the
world only through their :class:`~repro.congest.program.Context`.

Round structure (matching Section 1.1 of the paper):

1. every node awake this round runs ``on_round`` and queues messages;
2. messages are delivered *within the round* by the network's pluggable
   :class:`~repro.congest.channels.Channel` (CONGEST point-to-point by
   default; LOCAL and radio-broadcast models are available); messages to
   sleeping nodes are dropped (a sleeping node "does not send or receive
   any messages");
3. every awake node runs ``on_receive`` with what reached it.

Each awake round charges exactly one unit of energy per awake node;
channels may bill extra (e.g. radio collisions).

Performance model
-----------------

The engine's whole reason to exist is simulating algorithms whose nodes
sleep almost always, so the hot path is built around *awake events*, not
rounds:

* the wake calendar is keyed by round only (round -> nodes); a
  population start hook lays the whole network's wakes down in one
  :meth:`Network._schedule_population` call, one calendar entry at a time
  rather than one ``(node, round)`` pair at a time;
* every node runs the program of one factory
  (``Network(graph, ProgramClass)``), so a population costs no Python
  object per node: state columns are filled from one template instance,
  the halted set, always-awake set and output table live on the network
  and are written in bulk, and a node's program and
  :class:`~repro.congest.program.Context` are built only when scalar
  code first touches them;
* pending wake rounds live in a min-heap (``_wake_heap``), so finding the
  next event and :meth:`Network.has_pending_work` are O(1) amortized:
  halting only adds the node to the halted set, and a peek drops the
  halted nodes it meets
  from the entry it looks at, so each ``(node, round)`` pair is dropped
  at most once;
* when no node is in always-awake mode, :meth:`Network.run` fast-forwards
  ``round_index`` straight to the next scheduled wake (or node-fault
  event, which must land in its own round) — idle rounds still
  count for time complexity and appear in the trace (as compact idle
  spans), but a batch of them costs O(1);
* :meth:`Network.step` avoids per-round re-sorting of the awake set, builds
  inboxes lazily, and skips all trace bookkeeping when tracing is off;
* programs that declare the vectorized-round capability
  (``NodeProgram.vector_round``) execute whole-network numpy rounds (see
  ``repro.congest.vectorized``) instead of per-node python in every round
  someone is awake: dense always-on stretches and the sleep-scheduled
  rounds of the paper's Phase I kernels alike (the kernel builds each
  round's awake mask from the wake calendar).

``Network.run(engine=...)`` — for a whole algorithm run, the ``engine``
of its :class:`RunOptions` — selects between ``auto``/``fast``/
``vectorized``. With no channel fault active, the paths are
bit-identical in outputs, metrics, and ledger state to each other and to
the naive one-``step``-per-round loop, which survives as a test oracle
(``tests/oracles.py``; see ``tests/test_engine_equivalence.py``). Under
an active lossy channel the vectorized path draws its drops per CSR edge
slot, so it sees a different fault pattern than the scalar paths; an
active corrupting channel keeps the vectorized path off.

Programs that declare a ``state_schema()`` keep their per-node state in
flat network-owned columns (see :mod:`repro.congest.state`); the
vectorized kernels load and flush those columns directly, so a network
without them never vectorizes.
"""

from __future__ import annotations

import heapq
from collections.abc import ItemsView, KeysView, ValuesView
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

import networkx as nx
import numpy as np

from ..obs.instrument import NULL_INSTRUMENT, resolve_instrument
from ..obs.profiler import section_scope
from .channels import ChannelSpec, make_channel
from .errors import SchedulingError, SimulationLimitError, VectorizationError
from .message import default_bit_budget
from .metrics import EnergyLedger, RunMetrics
from .program import Context, NodeProgram
from .state import allocate_columns, bind_state
from .streams import NodeStreams
from .vectorized import GraphArrays, VectorRound

#: Engine paths selectable per run (``Network.run(engine=...)``):
#:
#: * ``"auto"`` (default) — the vectorized round path, for always-on and
#:   wake-scheduled rounds alike, when the program declares the capability
#:   (and the channel supports it, and the graph is big enough to amortize
#:   numpy overhead), else the cached fast loop with idle fast-forward;
#: * ``"fast"`` — the cached round loop, never vectorized;
#: * ``"vectorized"`` — like auto, but *raises*
#:   :class:`~repro.congest.errors.VectorizationError` instead of silently
#:   falling back when the vectorized path cannot engage at all.
ENGINE_MODES = ("auto", "fast", "vectorized")

#: Below this node count the auto mode skips vectorization: per-round numpy
#: dispatch overhead beats python loops only once arrays have some width.
#: Forced ``"vectorized"`` mode ignores the floor.
VECTOR_AUTO_MIN_NODES = 64


def _check_engine(mode: str) -> str:
    if mode not in ENGINE_MODES:
        raise ValueError(
            f"unknown engine mode {mode!r}; have {list(ENGINE_MODES)}"
        )
    return mode


@dataclass(frozen=True)
class RunOptions:
    """How one run executes: the engine path, and the channel, node-fault
    plan and instrument of every network the run builds.

    A driver hands ``channel``, ``faults`` and ``instrument`` to each
    :class:`Network` it builds and ``engine`` to that network's
    :meth:`Network.run` / :meth:`Network.run_rounds`, so a multi-phase
    algorithm runs all its phases in one model under one observer.
    ``None`` fields mean the driver's own channel (CONGEST, or the radio
    medium for ``radio_decay``), no node faults and no instrument.
    """

    engine: str = "auto"
    channel: ChannelSpec = None
    #: A :class:`repro.faults.FaultPlan`, duck-typed (``empty`` and
    #: ``bind(network)``) so the engine does not import ``repro.faults``,
    #: which builds on this module.
    faults: Any = None
    instrument: Any = None

    def __post_init__(self):
        _check_engine(self.engine)


#: The options of a plain run: auto engine, CONGEST, no faults, unobserved.
DEFAULT_OPTIONS = RunOptions()


class _NodeTable(dict):
    """Node -> per-node object for every node of one network, each object
    built by ``build(node)`` on its first lookup.

    A lookup of a built object is a plain dict hit, so the scalar round
    loops pay nothing for the laziness. Iteration, ``len``, membership and
    the ``keys``/``values``/``items`` views cover every node of the
    network (in rank order), building whatever is still missing — so
    library code that must not build objects reads :meth:`built` instead.
    """

    __slots__ = ("_network", "_build")

    def __init__(self, network: "Network", build):
        super().__init__()
        self._network = network
        self._build = build

    def __missing__(self, node):
        if node not in self._network.graph:
            raise KeyError(node)
        value = self._build(node)
        dict.__setitem__(self, node, value)
        return value

    def __iter__(self):
        return iter(self._network._node_order)

    def __len__(self) -> int:
        return len(self._network._node_order)

    def __contains__(self, node) -> bool:
        return node in self._network.graph

    def keys(self):
        return KeysView(self)

    def values(self):
        return ValuesView(self)

    def items(self):
        return ItemsView(self)

    def get(self, node, default=None):
        return self[node] if node in self else default

    def built(self) -> Dict[Any, Any]:
        """The objects built so far, by node (a snapshot)."""
        return dict(dict.items(self))


class Network:
    """Simulate node programs on an undirected graph.

    Parameters
    ----------
    graph:
        The communication topology: a ``networkx.Graph``, or a
        :class:`~repro.congest.vectorized.GraphArrays` CSR adjacency (the
        array-native path — generators produce one via ``as_arrays=True``
        without ever materializing per-node adjacency dicts). Node labels
        must be hashable; they are used directly as identifiers (MIS
        algorithms assume unique IDs).
    programs:
        The program every node runs: a zero-argument factory — a
        :class:`NodeProgram` subclass or a ``functools.partial`` of one.
        Anything else is refused with a ``TypeError``. The factory is
        called once up front for a *template* instance, whose
        ``__init__`` values fill the state columns in one array write
        per field; a node's own instance is built (bound to its column
        row) only when scalar code first reads
        ``network.programs[node]``, and likewise its :class:`Context` on
        the first ``network.contexts[node]``. A population that runs
        vectorized therefore builds neither. Per-node parameters live in
        state columns, written by the class's start hook.
    seed:
        Master seed keying every node's random stream (see
        :mod:`repro.congest.streams`), so it reproduces a run bit-for-bit.
    bit_budget:
        CONGEST message budget ``B`` in bits; defaults to ``Θ(log n)``.
    ledger:
        Optional shared :class:`EnergyLedger` so that several phases can
        accumulate into one energy account.
    channel:
        Delivery model: a name from :data:`repro.congest.channels.CHANNELS`
        (``"congest"``, ``"local"``, ``"broadcast"``, ...), a
        :class:`~repro.congest.channels.Channel` instance, or a factory.
        Defaults to CONGEST.
    instrument:
        Observer for run/round/phase events (see :mod:`repro.obs`).
        Defaults to the shared null instrument. Whether the network is
        observed is decided once here, so the disabled path costs the hot
        loop only a couple of ``is not None`` checks per round. A
        profiler times the construction itself as section ``construct``.
    faults:
        Optional node-fault timeline (a :class:`repro.faults.FaultPlan`)
        injected through the step loop: crashes halt their node at the
        scheduled round, stragglers are forced asleep for their duration.
        An empty plan costs the step loop nothing (no injector is
        installed at all).

    The engine's own per-node state lives here, not on the contexts: the
    halted set ``_halted``, the always-awake set ``_always_on``, and the
    output table ``_output_table`` (``key -> {node: value}``, which
    ``ctx.output`` views one row of and :meth:`outputs` reads per key).
    """

    def __init__(
        self,
        graph: nx.Graph,
        programs: Callable[[], NodeProgram],
        *,
        seed: int = 0,
        bit_budget: Optional[int] = None,
        ledger: Optional[EnergyLedger] = None,
        size_bound: Optional[int] = None,
        trace: bool = False,
        channel: ChannelSpec = None,
        instrument=None,
        faults=None,
    ):
        if graph.number_of_nodes() == 0:
            raise ValueError("cannot simulate an empty graph")
        if not callable(programs):
            raise TypeError(
                f"Network takes a zero-argument program factory (a "
                f"NodeProgram subclass or a functools.partial of one) that "
                f"every node runs, not a {type(programs).__name__}"
            )
        self.instrument = resolve_instrument(instrument)
        self._observed = self.instrument is not NULL_INSTRUMENT
        self._profiler = self.instrument.profiler if self._observed else None
        with section_scope(self._profiler, "construct"):
            self._construct(graph, programs, seed, bit_budget, ledger,
                            size_bound, trace, channel, faults)

    def _construct(self, graph, programs, seed, bit_budget, ledger,
                   size_bound, trace, channel, faults) -> None:
        self.graph = graph
        #: Node labels in ascending order — the canonical rank order shared
        #: by the random streams, state-column rows, and the CSR adjacency.
        self._node_order = (
            graph.nodes
            if isinstance(graph, GraphArrays)
            else sorted(graph.nodes)
        )
        self.n = size_bound if size_bound is not None else graph.number_of_nodes()
        self.bit_budget = (
            bit_budget if bit_budget is not None else default_bit_budget(self.n)
        )
        self._ranks: Optional[Dict[Any, int]] = None
        self._output_table: Dict[str, Dict[Any, Any]] = {}
        self._halted: Set[Any] = set()
        self.programs = _NodeTable(self, self._build_program)
        self.contexts = _NodeTable(self, self._build_context)
        #: The population's factory and its template instance (one call of
        #: the factory, never bound to a node).
        self._factory = programs
        self._template = programs()
        self.ledger = ledger if ledger is not None else EnergyLedger(graph.nodes)
        self.round_index = -1

        self.messages_sent = 0
        self.messages_delivered = 0
        self.messages_dropped = 0
        self.total_message_bits = 0
        self.max_message_bits = 0
        self.collisions = 0

        self.streams = NodeStreams(seed, len(self._node_order))

        #: Flat per-field state columns when the programs declare a schema
        #: (see :mod:`repro.congest.state`), else None (plain instance
        #: attributes; such a network never vectorizes).
        self.state_columns = None
        #: Instance-dict names a program may hold when a kernel engages:
        #: the ones set before any hook ran (see
        #: :meth:`_refuse_undeclared_state`).
        self._init_names: frozenset = frozenset()
        self._allocate_state_columns()

        # Wake bookkeeping: nodes in always-awake mode run every round;
        # scheduled nodes run only at rounds present in ``_wake_calendar``.
        # ``_wake_heap`` holds every round that has (or once had) a calendar
        # entry, so the next wake event is a heap peek. Halting leaves a
        # node's entries in place; peeks drop halted nodes as they meet
        # them (:meth:`_entry_is_live`).
        self._wake_calendar: Dict[int, Set[int]] = {}
        self._wake_heap: List[int] = []
        self._always_on: Set[int] = set(self._node_order)
        # (sorted list, snapshot set) of the always-on nodes, rebuilt only
        # when membership changes; mid-round changes leave the round's local
        # references pointing at the old snapshot, which is exactly the
        # round-start semantics the naive loop had.
        self._always_view: Optional[Tuple[List[int], Set[int]]] = None
        self._started = False
        self.channel = make_channel(channel)
        self.channel.bind(self)
        self._fault_injector = faults.bind(self) if faults is not None else None
        #: Rounds executed by the vectorized dense-round path (see
        #: ``repro.congest.vectorized``); 0 when it never engaged.
        self.vector_rounds = 0
        self._vector_runner_cache: Optional[Tuple] = None
        if trace:
            from .trace import NetworkTrace

            self.trace: Optional["NetworkTrace"] = NetworkTrace()
        else:
            self.trace = None

    # ------------------------------------------------------------------
    # Populations, state columns and adjacency views
    # ------------------------------------------------------------------
    def _rank_of(self, node) -> int:
        graph = self.graph
        if isinstance(graph, GraphArrays):
            return graph.rank[node]
        ranks = self._ranks
        if ranks is None:
            ranks = self._ranks = {
                label: rank for rank, label in enumerate(self._node_order)
            }
        return ranks[node]

    def _build_program(self, node) -> NodeProgram:
        """The instance for ``node``, bound to the node's column row as it
        stands (its staged ``__init__`` values are the template's, which
        the row started from)."""
        program = self._factory()
        if self.state_columns is not None:
            bind_state(program, self.state_columns, self._rank_of(node))
        return program

    def _build_context(self, node) -> Context:
        return Context(self, node, self._rank_of(node), self.n)

    def _allocate_state_columns(self) -> None:
        """Allocate the schema-declared state columns, every row filled
        from the template (a class with an empty schema keeps plain
        instance attributes and runs on the scalar loops)."""
        template = self._template
        schema = type(template).state_schema()
        if not schema:
            return
        self.state_columns = allocate_columns(
            schema, template, len(self._node_order)
        )
        self._init_names = frozenset(
            ("_state_columns", "_state_rank", *template.__dict__)
        )

    def _refuse_undeclared_state(self) -> None:
        """Refuse a kernel engagement while a built program holds a name
        that is neither a schema field nor set by ``__init__`` (one a hook
        added). Kernels load and flush only the columns and ``__init__``
        state, so that name would split the scalar and vectorized paths.
        Runs once per engagement, over the programs built so far."""
        names = self._init_names
        for node, program in dict.items(self.programs):
            extra = program.__dict__.keys() - names
            if extra:
                raise VectorizationError(
                    f"{type(program).__name__} at node {node!r} holds "
                    f"{sorted(extra)}, neither a schema field nor set by "
                    f"__init__: declare it in state_schema() or set it in "
                    f"__init__"
                )

    def _neighbors_of(self, node) -> Tuple[int, ...]:
        """Ascending neighbor tuple of one node (Context's lazy backing)."""
        graph = self.graph
        if isinstance(graph, GraphArrays):
            # CSR rows hold ranks; ``neighbors`` maps them back to labels.
            return tuple(graph.neighbors(node))
        return tuple(sorted(graph.neighbors(node)))

    def _degree_of(self, node) -> int:
        graph = self.graph
        if isinstance(graph, GraphArrays):
            rank = node if graph.identity_ranks else graph.rank[node]
            return int(graph.degrees[rank])
        return graph.degree(node)

    # ------------------------------------------------------------------
    # Scheduling plumbing (called from Context)
    # ------------------------------------------------------------------
    def _schedule_wake(self, node: int, wake_round: int) -> None:
        entry = self._wake_calendar.get(wake_round)
        if entry is None:
            self._wake_calendar[wake_round] = {node}
            heapq.heappush(self._wake_heap, wake_round)
        else:
            entry.add(node)

    def _schedule_population(
        self, ranks: np.ndarray, keys: np.ndarray, schedule_of
    ) -> None:
        """Put the nodes at ``ranks`` on scheduled sleeping: the node at
        ``ranks[i]`` wakes at the rounds ``schedule_of(keys[i])``.

        The population form of one ``ctx.use_wake_schedule`` per node.
        Nodes that share a key share a schedule, so ``schedule_of`` runs
        once per distinct key and each of its rounds takes the key's whole
        group into the calendar in one set update.
        """
        sleepers = self._labels_of(ranks)
        self._always_on.difference_update(sleepers)
        self._always_view = None
        by_key = np.argsort(keys, kind="stable")
        sorted_keys = keys[by_key]
        cuts = np.flatnonzero(sorted_keys[1:] != sorted_keys[:-1]) + 1
        nodes = self._labels_of(ranks[by_key])
        calendar = self._wake_calendar
        for start, end in zip([0, *cuts.tolist()], [*cuts.tolist(), len(nodes)]):
            group = nodes[start:end]
            for wake_round in schedule_of(int(sorted_keys[start])):
                if wake_round <= self.round_index:
                    raise SchedulingError(
                        f"node {group[0]} tried to schedule round "
                        f"{wake_round} in the past (current round "
                        f"{self.round_index})"
                    )
                entry = calendar.get(wake_round)
                if entry is None:
                    calendar[wake_round] = set(group)
                    heapq.heappush(self._wake_heap, wake_round)
                else:
                    entry.update(group)

    def _labels_of(self, ranks: np.ndarray) -> list:
        """Node labels of ``ranks``, in order (the ranks themselves when
        every label equals its rank)."""
        graph = self.graph
        if isinstance(graph, GraphArrays) and graph.identity_ranks:
            return ranks.tolist()
        order = self._node_order
        return [order[rank] for rank in ranks.tolist()]

    def _set_always_awake(self, node: int, always: bool) -> None:
        if always:
            if node not in self._always_on:
                self._always_on.add(node)
                self._always_view = None
        elif node in self._always_on:
            self._always_on.discard(node)
            self._always_view = None

    def _halt_many(self, halting) -> None:
        """Halt every node in the collection ``halting``: it joins the
        halted set and leaves always-awake mode (``Context.halt`` is the
        one-node call; a dense JOIN round of the vectorized engine retires
        thousands of nodes at once). Calendar entries stay; peeks drop
        halted nodes lazily."""
        self._halted.update(halting)
        always_on = self._always_on
        if not always_on.isdisjoint(halting):
            always_on.difference_update(halting)
            self._always_view = None

    def _entry_is_live(self, wake_round: int) -> bool:
        """Whether the calendar entry at ``wake_round`` still holds a
        live node, dropping the halted nodes the scan meets (and the
        entry, once empty).

        Each ``(node, round)`` pair is dropped at most once, and a scan
        stops at the first live node, so peeks cost amortized O(1) per
        calendar pair.
        """
        entry = self._wake_calendar.get(wake_round)
        if entry is None:
            return False
        halted = self._halted
        dead = []
        for node in entry:
            if node not in halted:
                if dead:
                    entry.difference_update(dead)
                return True
            dead.append(node)
        del self._wake_calendar[wake_round]
        return False

    def _always_on_view(self) -> Tuple[List[int], Set[int]]:
        view = self._always_view
        if view is None:
            ordered = sorted(self._always_on)
            view = (ordered, set(ordered))
            self._always_view = view
        return view

    def _next_wake_round(self) -> Optional[int]:
        """Earliest future round with a live calendar entry (heap peek)."""
        heap = self._wake_heap
        current = self.round_index
        while heap:
            wake_round = heap[0]
            if wake_round > current and self._entry_is_live(wake_round):
                return wake_round
            heapq.heappop(heap)
        return None

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Run the free local precomputation before round 0: one
        :meth:`NodeProgram.start_population` call over every rank."""
        if self._started:
            raise RuntimeError("network already started")
        self._started = True
        if self._observed:
            self.instrument.on_run_start(self)
        type(self._template).start_population(
            self, np.arange(len(self._node_order))
        )

    def step(self) -> Set[int]:
        """Run one synchronous round; return the set of awake nodes."""
        if not self._started:
            self.start()
        self.round_index += 1

        # Node faults strike at the top of the round: a crash halts its
        # node before the awake set is assembled, a straggler is filtered
        # out of it below.
        injector = self._fault_injector
        if injector is not None:
            injector.begin_round(self, self.round_index)

        # Assemble the awake set; reuse the cached sorted view when no
        # scheduled node wakes this round (the common case for always-on
        # algorithms like Luby).
        scheduled = self._wake_calendar.pop(self.round_index, None)
        halted = self._halted
        if scheduled:
            awake = self._always_on | (scheduled - halted)
            ordered = sorted(awake)
        else:
            ordered, awake = self._always_on_view()
        if injector is not None:
            # Never mutates the cached always-on view: stalled nodes are
            # dropped from fresh copies of (ordered, awake).
            ordered, awake = injector.filter_awake(
                self, self.round_index, ordered, awake
            )

        trace = self.trace
        if not awake:
            if trace is not None:
                trace.record(self.round_index, awake, 0, 0, 0)
            return awake
        if trace is not None:
            sent_before = self.messages_sent
            delivered_before = self.messages_delivered
            dropped_before = self.messages_dropped

        prof = self._profiler
        if prof is not None:
            prof.begin("round")
            prof.begin("compute")

        self.ledger.charge_many(ordered)

        # Phase 1: computation + sending.
        contexts = self.contexts
        programs = self.programs
        for node in ordered:
            programs[node].on_round(contexts[node])

        # Phase 2: delivery is the channel's business (drop messages to
        # sleeping nodes, price bits, detect radio collisions, ...). Only
        # actual receivers get an inbox entry.
        channel = self.channel
        if prof is not None:
            prof.end()
            prof.begin("deliver")
        inboxes = channel.deliver(ordered, awake)

        # Phase 3: receiving.
        if prof is not None:
            prof.end()
            prof.begin("receive")
        for node in ordered:
            if node not in halted:
                inbox = inboxes.get(node)
                programs[node].on_receive(
                    contexts[node], inbox if inbox is not None else []
                )
        channel.finish_round()
        if prof is not None:
            prof.end()
            prof.end()
        if trace is not None:
            trace.record(
                self.round_index,
                awake,
                self.messages_sent - sent_before,
                self.messages_delivered - delivered_before,
                self.messages_dropped - dropped_before,
            )
        if self._observed:
            self.instrument.on_round(self, self.round_index, len(ordered))
        return awake

    def _skip_idle_to(self, target_round: int) -> None:
        """Fast-forward over rounds in which no node is awake.

        The skipped rounds still advance simulated time (they are part of
        the time complexity) and still appear in the trace, but as one
        compact idle span instead of per-round records.
        """
        if target_round <= self.round_index:
            return
        prof = self._profiler
        if prof is not None:
            prof.begin("idle_ff")
        if self.trace is not None:
            self.trace.record_idle(self.round_index + 1, target_round)
        self.round_index = target_round
        if prof is not None:
            prof.end()

    def _next_event_round(self) -> Optional[int]:
        """Next round the run loops must simulate: the earliest live wake,
        or the fault injector's next due event when that comes first — a
        crash inside an idle stretch lands in its own round, so a run whose
        pending nodes all crash ends there instead of at the cancelled
        wake."""
        next_wake = self._next_wake_round()
        injector = self._fault_injector
        if injector is not None:
            due = injector.next_due_round
            if due is not None and (next_wake is None or due < next_wake):
                return due
        return next_wake

    def has_pending_work(self) -> bool:
        """True if some node may still wake up in a future round."""
        if self._always_on:
            return True
        return self._next_wake_round() is not None

    # ------------------------------------------------------------------
    # Vectorized dense-round path
    # ------------------------------------------------------------------
    def _vector_runner(self, *, force: bool = False):
        """The network's vectorized round runner, or None if ineligible.

        Eligibility, checked once per network: the program class declares
        the capability (overrides ``NodeProgram.vector_round`` with a
        factory), the network holds the programs' state in schema columns
        (kernels load and flush only those), and the channel stack raises
        no :meth:`~repro.congest.channels.Channel.vector_obstacle` (radio
        delivery is vectorized inside :class:`BroadcastChannel` instead).
        In auto mode small graphs additionally fall back to the cached
        loop (:data:`VECTOR_AUTO_MIN_NODES`); ``force`` bypasses that
        floor.
        """
        if not force and self.graph.number_of_nodes() < VECTOR_AUTO_MIN_NODES:
            # Below the auto floor the runner would never be used; skip
            # even building it (the CSR is the overhead the floor exists
            # to avoid).
            return None
        cache = self._vector_runner_cache
        if cache is None:
            runner = None
            reason = "no program declares the vectorized-round capability"
            cls = type(self._template)
            factory = cls.vector_round
            if factory is not None:
                obstacle = self.channel.vector_obstacle()
                if obstacle is not None:
                    reason = obstacle
                elif self._fault_injector is not None:
                    reason = (
                        "node-fault injection (crash/straggler plans) "
                        "requires the scalar step loop"
                    )
                elif self.state_columns is None:
                    reason = f"{cls.__name__} declares no state_schema()"
                else:
                    runner = factory(self)
                    if not isinstance(runner, VectorRound):
                        raise VectorizationError(
                            f"{cls.__name__}.vector_round returned a "
                            f"{type(runner).__name__}, not a VectorRound"
                        )
                    reason = ""
            cache = (runner, reason)
            self._vector_runner_cache = cache
        runner, reason = cache
        if runner is None and force:
            raise VectorizationError(
                f"vectorized engine requested but unavailable: {reason}"
            )
        return runner

    def _try_vector_step(self, runner) -> bool:
        """Take one vectorized round if *this* round has someone awake.

        Someone is awake when an always-on node is live or the wake
        calendar has an entry at ``round_index + 1``; the idle gaps
        between scheduled wakes are fast-forwarded by the callers, which
        retry the vector step after the skip.  Kernels of programs that
        schedule wakes assemble each round's active set from the calendar
        (:meth:`VectorRound.pop_scheduled_awake`); the other kernels only
        ever see an empty calendar, because their programs never call
        ``use_wake_schedule`` and node-fault plans keep the runner off.
        Flushing back to scalar state is the caller's business
        (:meth:`_flush_runner`, immediately before a scalar ``step``), so
        a runner is not thrashed through load/flush cycles at every wake
        gap.
        """
        if runner is None:
            return False
        if self._always_on or self._entry_is_live(self.round_index + 1):
            runner.step()
            return True
        return False

    @staticmethod
    def _flush_runner(runner) -> None:
        """Flush a loaded vector runner back to program instances.

        Must run immediately before any scalar :meth:`step` while a
        runner may hold live state — the scalar loop reads program
        attributes, which the runner owns while loaded.
        """
        if runner is not None and runner.loaded:
            runner.flush()

    def run(
        self,
        max_rounds: int = 1_000_000,
        *,
        engine: str = "auto",
    ) -> RunMetrics:
        """Run until no node will ever wake again (or ``max_rounds``).

        Idle stretches (rounds where no node is awake) are jumped over in
        O(1) per stretch; every round with someone awake — always-on or
        wake-scheduled — of capability-declaring programs runs through the
        vectorized round path (``engine="vectorized"`` to require it,
        ``engine="fast"`` to forbid it; default ``"auto"``), every other
        round through the cached scalar :meth:`step`. All paths are
        bit-identical in outputs, metrics, and ledger state when no
        channel fault is active (``tests/test_engine_equivalence.py``).
        """
        return self._run_loop(engine, max_rounds - 1, until_quiet=True)

    def run_rounds(self, rounds: int, *, engine: str = "auto") -> RunMetrics:
        """Run exactly ``rounds`` rounds (idle rounds still advance time)."""
        return self._run_loop(
            engine, self.round_index + rounds, until_quiet=False
        )

    def _run_loop(
        self, engine: str, last_round: int, *, until_quiet: bool
    ) -> RunMetrics:
        """The round loop of :meth:`run` (``until_quiet``: stop once no
        node will wake again, and raise past ``last_round``) and of
        :meth:`run_rounds` (stop at ``last_round``)."""
        mode = _check_engine(engine)
        if not self._started:
            self.start()
        runner = None
        if mode != "fast":
            runner = self._vector_runner(force=mode == "vectorized")
        stopped_at_limit = False
        try:
            while not until_quiet or self.has_pending_work():
                if self.round_index >= last_round:
                    stopped_at_limit = True
                    break
                if self._try_vector_step(runner):
                    continue
                if self._always_on:
                    self._flush_runner(runner)
                    self.step()
                    continue
                next_round = self._next_event_round()
                if next_round is None or next_round > last_round:
                    # The naive loop idles up to the stop round; advance
                    # time the same way.
                    self._skip_idle_to(last_round)
                    stopped_at_limit = True
                    break
                self._skip_idle_to(next_round - 1)
                if self._try_vector_step(runner):
                    continue
                self._flush_runner(runner)
                self.step()
        finally:
            if runner is not None:
                runner.flush()
        if until_quiet and stopped_at_limit:
            raise SimulationLimitError(
                f"simulation exceeded {last_round + 1} rounds"
            )
        metrics = self.metrics()
        if self._observed:
            self.instrument.on_run_end(self, metrics)
        return metrics

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def metrics(self) -> RunMetrics:
        return RunMetrics.from_ledger(
            rounds=self.round_index + 1,
            ledger=self.ledger,
            messages_sent=self.messages_sent,
            messages_delivered=self.messages_delivered,
            messages_dropped=self.messages_dropped,
            total_message_bits=self.total_message_bits,
            max_message_bits=self.max_message_bits,
            collisions=self.collisions,
        )

    def outputs(self, key: str, default=None) -> Dict[int, object]:
        """Collect one output field across all nodes (``default`` where a
        node never set it), in rank order: one read of the output table's
        column for ``key``."""
        collected = dict.fromkeys(self._node_order, default)
        column = self._output_table.get(key)
        if column is not None:
            collected.update(column)
        return collected
