"""RL4xx — protocol checks for vector kernels and their factories.

A dense-round kernel that lacks part of the load/step/flush protocol, or
a ``vector_round`` hook that returns something other than a kernel, does
not fail at import: it fails the first time ``"auto"`` mode engages it,
which may be only on inputs the tests never run.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional, Set

from ..findings import Finding
from ..model import ModuleModel, attribute_chain
from .base import Check

#: The dense-round protocol every concrete kernel must implement.
_KERNEL_PROTOCOL = ("load", "step_round", "flush_state")


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
