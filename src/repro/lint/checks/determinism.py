"""RL2xx — determinism checks for per-node hooks and vector kernels.

The repo's correctness story is bit-identical outputs across the
{fast, vectorized} engine paths, the step-every-round oracle
(``tests/oracles.py``), and ``n_jobs`` worker splits.  That only holds while every random draw comes from the engine's
keyed per-node streams (``ctx.rng`` in hooks, ``self.draws`` in kernels)
in a deterministic per-node sequence: ambient RNG, wall-clock reads, and
hash-ordered iteration each break it in ways the equivalence matrices
catch late (or only on another machine).
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional, Set, Tuple, Union

from ..findings import Finding
from ..model import ModuleModel, attribute_chain
from .base import Check

#: Module roots whose call surface is ambient RNG.
_RNG_ROOTS = ("random",)
#: Attribute chains that mean "numpy's random namespace".
_NP_ALIASES = {"np", "numpy"}

#: (chain-suffix, why) pairs for wall-clock / entropy sources.
_ENTROPY_CALLS: Tuple[Tuple[Tuple[str, ...], str], ...] = (
    (("time", "time"), "wall-clock time"),
    (("time", "time_ns"), "wall-clock time"),
    (("time", "monotonic"), "wall-clock time"),
    (("time", "perf_counter"), "wall-clock time"),
    (("os", "urandom"), "OS entropy"),
    (("uuid", "uuid1"), "host/clock-derived UUIDs"),
    (("uuid", "uuid4"), "OS entropy"),
    (("secrets",), "OS entropy"),
    (("datetime", "now"), "wall-clock time"),
    (("datetime", "utcnow"), "wall-clock time"),
)


def _scoped_functions(module: ModuleModel):
    """(class-name, method-name, FunctionDef, kind) for hook/kernel scope."""
    for cls in module.program_classes:
        for item in cls.node.body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield cls.name, item.name, item, "program hook"
    for cls in module.kernel_classes:
        for item in cls.node.body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield cls.name, item.name, item, "vector kernel"


class AmbientRngCheck(Check):
    """RL201: no module-level RNG inside hooks or kernels."""

    id = "RL201"
    name = "ambient-rng"
    summary = (
        "hooks and kernels must draw from ctx.rng / self.draws, never "
        "random.* or np.random.*"
    )
    rationale = """
Every node owns a keyed random stream (ctx.rng; kernels draw for a whole
active set through self.draws.take, bumping the same per-node counters).
A draw from the random module or np.random.* consumes ambient,
process-global state instead: the values then depend on scheduling and
worker count, sweeps stop being reproducible across n_jobs, and the
three engine paths diverge — precisely what the equivalence matrix pins.
Even a *seeded* np.random.default_rng(...) inside a hook is wrong: it
forks a stream the engine does not account for, so scalar and
vectorized rounds replay different draws.
"""
    bad_example = """
class P(NodeProgram):
    def on_round(self, ctx):
        if np.random.random() < 0.5:   # ambient global stream
            ctx.broadcast(True)
"""
    good_example = """
class P(NodeProgram):
    def on_round(self, ctx):
        if ctx.rng.random() < 0.5:     # engine-owned per-node stream
            ctx.broadcast(True)
"""

    def run(self, module: ModuleModel) -> Iterator[Finding]:
        ambient_imports = _ambient_random_imports(module.tree)
        for cls_name, method, fn, kind in _scoped_functions(module):
            for node in ast.walk(fn):
                if not isinstance(node, ast.Call):
                    continue
                reason = self._classify(node.func, ambient_imports)
                if reason is None:
                    continue
                source = "ctx.rng" if kind == "program hook" \
                    else "self.draws"
                yield self.finding(
                    module,
                    node,
                    f"{reason} in {cls_name}.{method} breaks the "
                    f"deterministic per-node draws; use the engine-owned "
                    f"{source} instead",
                )

    @staticmethod
    def _classify(
        func: ast.expr, ambient_imports: Set[str]
    ) -> Optional[str]:
        chain = attribute_chain(func)
        if chain is None:
            return None
        if chain[0] in _RNG_ROOTS and len(chain) > 1:
            return f"call into the global random module ({'.'.join(chain)})"
        if (
            len(chain) >= 2
            and chain[0] in _NP_ALIASES
            and chain[1] == "random"
        ):
            return f"call into np.random ({'.'.join(chain)})"
        if len(chain) == 1 and chain[0] in ambient_imports:
            return f"call to random.{chain[0]} imported at module level"
        return None


def _ambient_random_imports(tree: ast.Module) -> Set[str]:
    """Names bound by ``from random import ...`` at module level."""
    names: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "random":
            for alias in node.names:
                names.add(alias.asname or alias.name)
    return names


class WallClockCheck(Check):
    """RL202: no wall-clock or OS-entropy reads inside hooks or kernels."""

    id = "RL202"
    name = "wallclock-entropy"
    summary = (
        "hooks and kernels must not read time.*, os.urandom, uuid, or "
        "secrets"
    )
    rationale = """
Simulated rounds are logical time; any read of physical time or OS
entropy inside per-node code makes outputs depend on the host, the
load, and the run — the cross-worker sweep determinism audit
(tests/test_parallel_determinism.py) exists because exactly this class
of leak is invisible on a single-process run. Wall-clock measurement
belongs in the observability layer (repro.obs.Profiler), which wraps
rounds from outside the simulation.
"""
    bad_example = """
class P(NodeProgram):
    def on_round(self, ctx):
        ctx.output["stamp"] = time.time()   # host-dependent output
"""
    good_example = """
class P(NodeProgram):
    def on_round(self, ctx):
        ctx.output["stamp"] = ctx.round     # logical time
"""

    def run(self, module: ModuleModel) -> Iterator[Finding]:
        for cls_name, method, fn, kind in _scoped_functions(module):
            for node in ast.walk(fn):
                if not isinstance(node, ast.Call):
                    continue
                chain = attribute_chain(node.func)
                if chain is None:
                    continue
                for suffix, why in _ENTROPY_CALLS:
                    if _chain_matches(chain, suffix):
                        yield self.finding(
                            module,
                            node,
                            f"{'.'.join(chain)} in {cls_name}.{method} "
                            f"injects {why} into a {kind}; simulated "
                            f"rounds must depend only on seeds and "
                            f"logical time (ctx.round)",
                        )
                        break


def _chain_matches(chain: Tuple[str, ...], suffix: Tuple[str, ...]) -> bool:
    if len(suffix) == 1:
        return chain[0] == suffix[0]
    return len(chain) >= len(suffix) and (
        chain[-len(suffix):] == suffix or chain[: len(suffix)] == suffix
    )


class UnorderedIterationCheck(Check):
    """RL203: no iteration over provably-set expressions in hook scope."""

    id = "RL203"
    name = "unordered-iteration"
    summary = (
        "hooks and kernels must not iterate sets directly; wrap them in "
        "sorted(...)"
    )
    rationale = """
Set iteration order is hash order: stable for small ints, but
PYTHONHASHSEED-dependent for strings and tuples — node labels are
arbitrary hashables (grid graphs use tuples). A hook that draws RNG,
sends messages, or fills outputs while walking a set can reorder those
effects between processes, which is exactly how cross-worker sweeps
lose bit-identity. Dict iteration is insertion-ordered and therefore
exempt. The repo idiom is sorted(...) at every such boundary (wake
schedules, neighbor walks); order-insensitive consumption (len, any,
membership, difference_update) is fine and not flagged.
"""
    bad_example = """
class P(NodeProgram):
    def on_receive(self, ctx, messages):
        joiners = {m.sender for m in messages}
        for u in joiners:                  # hash order
            ctx.send(u, True)
"""
    good_example = """
class P(NodeProgram):
    def on_receive(self, ctx, messages):
        joiners = {m.sender for m in messages}
        for u in sorted(joiners):          # deterministic order
            ctx.send(u, True)
"""

    def run(self, module: ModuleModel) -> Iterator[Finding]:
        for cls_name, method, fn, kind in _scoped_functions(module):
            set_names = _set_typed_locals(fn)
            for node in ast.walk(fn):
                iters = []
                if isinstance(node, (ast.For, ast.AsyncFor)):
                    iters.append(node.iter)
                elif isinstance(
                    node, (ast.ListComp, ast.SetComp, ast.DictComp,
                           ast.GeneratorExp)
                ):
                    iters.extend(gen.iter for gen in node.generators)
                for target in iters:
                    if _is_set_expr(target, set_names):
                        yield self.finding(
                            module,
                            target,
                            f"iteration over a set in "
                            f"{cls_name}.{method} follows hash order, "
                            f"which is not deterministic across "
                            f"processes; iterate sorted(...) instead",
                        )


def _set_typed_locals(
    fn: Union[ast.FunctionDef, ast.AsyncFunctionDef]
) -> Set[str]:
    """Local names provably bound to a set somewhere in this function."""
    names: Set[str] = set()
    for node in ast.walk(fn):
        if isinstance(node, ast.Assign):
            if _is_set_expr(node.value, names):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        names.add(target.id)
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            if _is_set_expr(node.value, names) and isinstance(
                node.target, ast.Name
            ):
                names.add(node.target.id)
    return names


def _is_set_expr(node: ast.expr, set_names: Set[str]) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        if node.func.id in ("set", "frozenset"):
            return True
    if isinstance(node, ast.Name):
        return node.id in set_names
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
    ):
        # Set algebra (a | b, a - b, ...) on a provable set stays a set.
        return _is_set_expr(node.left, set_names) or _is_set_expr(
            node.right, set_names
        )
    return False
