"""RL4xx — capability-drift checks for vector kernels and registries.

Capability declarations are load-bearing in this repo: the engine trusts
``supports_schedules`` / ``supports_edge_faults`` to decide whether a
dense round may engage under wake schedules or channel faults, and the
harness derives ``VECTOR_CAPABLE_ALGORITHMS`` from ``vector_round``
hooks.  A declaration that drifts from the implementation does not
crash — the engine silently falls back to the scalar path (perf cliff)
or, worse, runs a dense round that ignores the schedule/fault state it
claimed to honor (wrong results that still look plausible).
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Set

from ..findings import Finding
from ..model import KernelClass, ModuleModel, attribute_chain
from .base import Check

#: The dense-round protocol every concrete kernel must implement.
_KERNEL_PROTOCOL = ("load", "step_round", "flush_state")

#: Syntactic evidence that a kernel actually consumes fault state.
_FAULT_MARKERS = {"fault_keep", "faults"}
#: Syntactic evidence that a kernel actually consumes the wake schedule.
_SCHEDULE_MARKERS = {"pop_scheduled_awake"}


def _kernel_attr_uses(kernel: KernelClass) -> Set[str]:
    """All ``self.<attr>`` / helper names referenced in the kernel body."""
    used: Set[str] = set()
    for fn in kernel.methods.values():
        for node in ast.walk(fn):
            if isinstance(node, ast.Attribute) and isinstance(
                node.value, ast.Name
            ) and node.value.id == "self":
                used.add(node.attr)
    return used


class KernelProtocolCheck(Check):
    """RL401: a VectorRound subclass must implement the full protocol."""

    id = "RL401"
    name = "kernel-incomplete"
    summary = (
        "VectorRound subclasses must implement load, step_round and "
        "flush_state"
    )
    rationale = """
The vectorized engine drives kernels through a fixed protocol: load()
pulls program state into dense arrays once per engagement, step_round()
advances one synchronous round, flush_state() writes results back so
the scalar path (and the user) see them. A kernel missing one of the
three raises NotImplementedError mid-run — but only when the vectorized
engine actually engages, which "auto" mode decides per run, so the gap
ships if tests only exercise the fast path.
"""
    bad_example = """
class _MyKernel(VectorRound):
    def load(self):
        ...

    def step_round(self):
        ...
    # flush_state missing: results never leave the dense arrays
"""
    good_example = """
class _MyKernel(VectorRound):
    def load(self):
        ...

    def step_round(self):
        ...

    def flush_state(self):
        ...
"""

    def run(self, module: ModuleModel) -> Iterator[Finding]:
        for kernel in module.kernel_classes:
            missing = [
                name
                for name in _KERNEL_PROTOCOL
                if name not in kernel.methods
            ]
            if missing:
                yield self.finding(
                    module,
                    kernel.node,
                    f"kernel {kernel.name} does not implement "
                    f"{', '.join(missing)}; the vectorized engine "
                    f"raises NotImplementedError the first time it "
                    f"engages this kernel",
                )


class EdgeFaultDriftCheck(Check):
    """RL402: ``supports_edge_faults`` must match the implementation."""

    id = "RL402"
    name = "edge-fault-drift"
    summary = (
        "supports_edge_faults must agree with whether the kernel reads "
        "self.faults / fault_keep()"
    )
    rationale = """
supports_edge_faults=True tells the engine a dense round may run while
a channel-fault stack is active. A kernel that declares True but never
consults self.faults / self.fault_keep() computes fault-free rounds
under injected faults — results diverge from the scalar engines exactly
when the fault matrix runs. The converse (fault handling implemented
but the flag left False/undeclared) silently forfeits the dense path
for every faulted sweep: a perf cliff no test fails on.
"""
    bad_example = """
class _MyKernel(VectorRound):
    supports_edge_faults = True    # declared...

    def step_round(self):
        exchange = self.adjacency @ self.flags   # ...but faults ignored
"""
    good_example = """
class _MyKernel(VectorRound):
    supports_edge_faults = True

    def load(self): ...

    def step_round(self):
        keep = self.fault_keep() if self.faults is not None else None
        exchange = self.masked_exchange(keep)

    def flush_state(self): ...
"""

    def run(self, module: ModuleModel) -> Iterator[Finding]:
        for kernel in module.kernel_classes:
            declared = kernel.flag("supports_edge_faults")
            uses_faults = bool(
                _kernel_attr_uses(kernel) & _FAULT_MARKERS
            )
            if declared is True and not uses_faults:
                yield self.finding(
                    module,
                    kernel.node,
                    f"kernel {kernel.name} declares "
                    f"supports_edge_faults=True but never reads "
                    f"self.faults or self.fault_keep(); dense rounds "
                    f"would ignore injected channel faults",
                )
            elif not declared and uses_faults:
                yield self.finding(
                    module,
                    kernel.node,
                    f"kernel {kernel.name} consumes fault state "
                    f"(self.faults / fault_keep) but does not declare "
                    f"supports_edge_faults=True; the engine will never "
                    f"use the dense path under faults",
                )


class ScheduleDriftCheck(Check):
    """RL403: ``supports_schedules`` must match the implementation."""

    id = "RL403"
    name = "schedule-drift"
    summary = (
        "supports_schedules must agree with whether the kernel calls "
        "pop_scheduled_awake()"
    )
    rationale = """
Wake schedules are the paper's energy mechanism: a node not scheduled
awake this round must neither act nor be charged. The engine consults
supports_schedules before engaging a kernel on a scheduling program. A
kernel declaring True without calling self.pop_scheduled_awake() runs
every node every round — it both corrupts the awake-round energy
accounting and diverges from the scalar path. Declaring False while
consuming the schedule means the calendar queue is popped by a kernel
the engine thinks is schedule-blind.
"""
    bad_example = """
class _MyKernel(VectorRound):
    supports_schedules = True      # declared...

    def step_round(self):
        draws = self.draws.take(self.ranks)   # ...but every node acts
"""
    good_example = """
class _MyKernel(VectorRound):
    supports_schedules = True

    def load(self): ...

    def step_round(self):
        awake = self.pop_scheduled_awake()
        draws = self.draws.take(np.flatnonzero(awake))

    def flush_state(self): ...
"""

    def run(self, module: ModuleModel) -> Iterator[Finding]:
        for kernel in module.kernel_classes:
            declared = kernel.flag("supports_schedules")
            uses_schedule = bool(
                _kernel_attr_uses(kernel) & _SCHEDULE_MARKERS
            )
            if declared is True and not uses_schedule:
                yield self.finding(
                    module,
                    kernel.node,
                    f"kernel {kernel.name} declares "
                    f"supports_schedules=True but never calls "
                    f"self.pop_scheduled_awake(); scheduled-asleep "
                    f"nodes would act (and be charged) every round",
                )
            elif not declared and uses_schedule:
                yield self.finding(
                    module,
                    kernel.node,
                    f"kernel {kernel.name} calls pop_scheduled_awake() "
                    f"but does not declare supports_schedules=True; "
                    f"the engine treats it as schedule-blind and the "
                    f"calendar pops fall out of sync",
                )


class RegistryDriftCheck(Check):
    """RL404: ``ALGORITHMS`` and ``_program_classes`` keys must match."""

    id = "RL404"
    name = "registry-drift"
    summary = (
        "ALGORITHMS and _program_classes() must register the same "
        "algorithm names"
    )
    rationale = """
The harness keeps two registries in harness/runner.py: ALGORITHMS maps
names to runner callables, _program_classes() maps the same names to
the NodeProgram classes those runners execute — and
VECTOR_CAPABLE_ALGORITHMS is *derived* from the second. A name present
in one and missing from the other either crashes sweep dispatch with a
KeyError or, quieter, keeps a new algorithm permanently out of the
vector-capability set so "auto" mode never vectorizes it and the CI
never-silently-falls-back gate cannot see it.
"""
    bad_example = """
ALGORITHMS = {"luby": luby_mis, "newalg": newalg_mis}

def _program_classes():
    return {"luby": (LubyProgram,)}    # "newalg" forgotten
"""
    good_example = """
ALGORITHMS = {"luby": luby_mis, "newalg": newalg_mis}

def _program_classes():
    return {"luby": (LubyProgram,), "newalg": (NewAlgProgram,)}
"""

    def run(self, module: ModuleModel) -> Iterator[Finding]:
        algorithms = _toplevel_dict_keys(module.tree, "ALGORITHMS")
        programs = _function_return_dict_keys(
            module.tree, "_program_classes"
        )
        if algorithms is None or programs is None:
            return
        algo_keys, algo_node = algorithms
        prog_keys, prog_node = programs
        for missing in sorted(algo_keys - prog_keys):
            yield self.finding(
                module,
                prog_node,
                f'algorithm "{missing}" is registered in ALGORITHMS '
                f"but missing from _program_classes(); it can never "
                f"enter VECTOR_CAPABLE_ALGORITHMS",
            )
        for missing in sorted(prog_keys - algo_keys):
            yield self.finding(
                module,
                algo_node,
                f'algorithm "{missing}" appears in _program_classes() '
                f"but is not registered in ALGORITHMS; sweep dispatch "
                f"raises KeyError for it",
            )


def _toplevel_dict_keys(tree: ast.Module, name: str):
    for node in tree.body:
        targets: List[ast.expr] = []
        value: Optional[ast.expr] = None
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        if not any(
            isinstance(t, ast.Name) and t.id == name for t in targets
        ):
            continue
        keys = _dict_literal_keys(value)
        if keys is not None:
            return keys, node
    return None


def _function_return_dict_keys(tree: ast.Module, name: str):
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and node.name == name:
            for inner in ast.walk(node):
                if isinstance(inner, ast.Return):
                    keys = _dict_literal_keys(inner.value)
                    if keys is not None:
                        return keys, node
    return None


def _dict_literal_keys(value: Optional[ast.expr]) -> Optional[Set[str]]:
    if not isinstance(value, ast.Dict):
        return None
    keys: Set[str] = set()
    for key in value.keys:
        if not (
            isinstance(key, ast.Constant) and isinstance(key.value, str)
        ):
            return None
        keys.add(key.value)
    return keys


class VectorFactoryCheck(Check):
    """RL405: ``vector_round`` must return a real kernel (or stay None)."""

    id = "RL405"
    name = "vector-factory"
    summary = (
        "vector_round must construct a VectorRound subclass or be left "
        "as None"
    )
    rationale = """
NodeProgram.vector_round is the capability hook: the engine calls it
with the network and expects a VectorRound instance (or the class-level
None meaning "no dense path"). A factory that instantiates a class
which is not a VectorRound — or a name that does not exist — passes the
callable(cls.vector_round) capability probe in the harness, so the
algorithm is advertised as vector-capable and then blows up (or worse,
returns an object without the kernel protocol) the first time "auto"
mode engages it.
"""
    bad_example = """
class Helper:          # not a VectorRound
    pass

class P(NodeProgram):
    @classmethod
    def vector_round(cls, network):
        return Helper(network)
"""
    good_example = """
class _PKernel(VectorRound):
    def load(self): ...
    def step_round(self): ...
    def flush_state(self): ...

class P(NodeProgram):
    @classmethod
    def vector_round(cls, network):
        return _PKernel(network)
"""

    def run(self, module: ModuleModel) -> Iterator[Finding]:
        kernel_names = {k.name for k in module.kernel_classes}
        opaque_names = _toplevel_non_class_names(module.tree)
        for cls in module.program_classes:
            fn = cls.methods.get("vector_round")
            if fn is None:
                continue
            for node in ast.walk(fn):
                if not isinstance(node, ast.Return) or node.value is None:
                    continue
                problem = self._classify_return(
                    node.value, kernel_names, opaque_names, module
                )
                if problem:
                    yield self.finding(
                        module,
                        node,
                        f"{cls.name}.vector_round {problem}; the "
                        f"engine expects a VectorRound instance or "
                        f"None",
                    )

    @staticmethod
    def _classify_return(
        value: ast.expr,
        kernel_names: Set[str],
        opaque_names: Set[str],
        module: ModuleModel,
    ) -> Optional[str]:
        if isinstance(value, ast.Constant):
            if value.value is None:
                return None
            return f"returns the constant {value.value!r}"
        if isinstance(value, ast.Call):
            chain = attribute_chain(value.func)
            if chain is None or len(chain) != 1:
                return None  # opaque factory (cls attr, imported module)
            name = chain[0]
            if (
                name in kernel_names
                or name in module.imported_names
                or name in opaque_names
            ):
                return None
            if name in module.classes:
                return (
                    f"instantiates {name}, which is not a VectorRound "
                    f"subclass"
                )
            return f"references undefined name {name}"
        return None  # non-literal returns are opaque


def _toplevel_non_class_names(tree: ast.Module) -> Set[str]:
    """Module-level functions and variables (opaque as factories)."""
    names: Set[str] = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    names.add(target.id)
        elif isinstance(node, ast.AnnAssign) and isinstance(
            node.target, ast.Name
        ):
            names.add(node.target.id)
    return names
