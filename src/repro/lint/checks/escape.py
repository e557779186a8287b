"""RL3xx — escape analysis for per-round engine objects.

``Context`` objects and inbox views are *loans*: the engines (fast,
vectorized) recycle them between rounds, and the point-to-point channels
back ``messages`` with an ``_InboxView`` over a buffer that is
overwritten next round.  Any of them stored on ``self`` outlives the
loan and turns into a stale read on the next round — or pickles the
whole engine into checkpoint blobs.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Set, Union

from ..findings import Finding
from ..model import ModuleModel
from .base import Check

#: Parameter names that bind the per-round context / inbox loans.
_CTX_PARAMS = {"ctx"}
_INBOX_PARAMS = {"messages", "msgs"}

_FnDef = Union[ast.FunctionDef, ast.AsyncFunctionDef]


def _param_names(fn: _FnDef) -> Set[str]:
    args = fn.args
    names = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
    if args.vararg:
        names.add(args.vararg.arg)
    if args.kwarg:
        names.add(args.kwarg.arg)
    return names


def _tainted_loop_vars(fn: _FnDef, sources: Set[str]) -> Set[str]:
    """Loop targets that range over a tainted name (``for m in messages``)."""
    tainted: Set[str] = set()
    for node in ast.walk(fn):
        iters: List[ast.expr] = []
        targets: List[ast.expr] = []
        if isinstance(node, (ast.For, ast.AsyncFor)):
            iters.append(node.iter)
            targets.append(node.target)
        elif isinstance(
            node, (ast.ListComp, ast.SetComp, ast.GeneratorExp)
        ):
            for gen in node.generators:
                iters.append(gen.iter)
                targets.append(gen.target)
        for it, tgt in zip(iters, targets):
            if isinstance(it, ast.Name) and it.id in sources:
                tainted.update(_flat_names(tgt))
    return tainted


def _flat_names(target: ast.expr) -> List[str]:
    if isinstance(target, ast.Name):
        return [target.id]
    if isinstance(target, (ast.Tuple, ast.List)):
        names: List[str] = []
        for element in target.elts:
            names.extend(_flat_names(element))
        return names
    return []


def _names_in_value(value: ast.expr) -> List[ast.Name]:
    """Bare names stored *as-is* by an assignment value.

    Only the identity-preserving shapes count: the name itself, or the
    name nested in a tuple/list literal.  ``list(messages)`` or
    ``[m.payload for m in messages]`` copies the data out of the loan
    and is fine.
    """
    if isinstance(value, ast.Name):
        return [value]
    if isinstance(value, (ast.Tuple, ast.List)):
        names: List[ast.Name] = []
        for element in value.elts:
            names.extend(_names_in_value(element))
        return names
    return []


def _escape_sites(fn: _FnDef, tainted: Set[str]):
    """(node, name, how) triples where a tainted name is stored on self."""
    for node in ast.walk(fn):
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = (
                node.targets
                if isinstance(node, ast.Assign)
                else [node.target]
            )
            stores_on_self = any(
                isinstance(t, ast.Attribute)
                and isinstance(t.value, ast.Name)
                and t.value.id == "self"
                for t in targets
            )
            if not stores_on_self or node.value is None:
                continue
            for name in _names_in_value(node.value):
                if name.id in tainted:
                    yield node, name.id, "assigned to"
        elif isinstance(node, ast.Call):
            func = node.func
            if not (
                isinstance(func, ast.Attribute)
                and func.attr in ("append", "add", "insert", "extend")
                and isinstance(func.value, ast.Attribute)
                and isinstance(func.value.value, ast.Name)
                and func.value.value.id == "self"
            ):
                continue
            for arg in node.args:
                if isinstance(arg, ast.Name) and arg.id in tainted:
                    yield node, arg.id, f"{func.attr}ed into"


class CtxEscapeCheck(Check):
    """RL301: never store the per-round ``ctx`` on ``self``."""

    id = "RL301"
    name = "ctx-escape"
    summary = "hooks must not store the round Context on self"

    rationale = """
The Context handed to on_start/on_round/on_receive is a per-node view
the engine recycles in place (fast and vectorized paths) every round. A Context kept on self therefore points
at whatever node/round the engine reused it for next — reads through it
are stale or cross-node — and, because Context holds the outbox and
network references, a checkpoint of the program pickles half the engine
with it. Read what you need from ctx during the hook and store plain
values.
"""
    bad_example = """
class P(NodeProgram):
    def __init__(self):
        self.last_ctx = None

    def on_round(self, ctx):
        self.last_ctx = ctx          # escapes the per-round loan
"""
    good_example = """
class P(NodeProgram):
    def __init__(self):
        self.last_degree = 0

    def on_round(self, ctx):
        self.last_degree = ctx.degree   # copy the value, not the view
"""

    def run(self, module: ModuleModel) -> Iterator[Finding]:
        for cls in module.program_classes:
            for method_name, fn in _hook_like_methods(cls):
                ctx_names = _param_names(fn) & _CTX_PARAMS
                if not ctx_names:
                    continue
                for node, name, how in _escape_sites(fn, ctx_names):
                    yield self.finding(
                        module,
                        node,
                        f"the round Context ({name}) is {how} a self "
                        f"attribute in {cls.name}.{method_name}; the "
                        f"engine recycles Context objects between rounds, "
                        f"so the stored reference goes stale — copy the "
                        f"needed values instead",
                    )


class InboxEscapeCheck(Check):
    """RL302: never store the inbox view or its Message objects."""

    id = "RL302"
    name = "inbox-escape"
    summary = (
        "hooks must not store the messages view or Message objects on "
        "self"
    )
    rationale = """
on_receive's messages argument is an _InboxView over a delivery buffer
the CONGEST/LOCAL channel overwrites next round (the per-Message test
oracle in tests/oracles.py hands out a fresh list, which is how this
class of bug hides in small tests and explodes at n=10^6). Storing the view — or individual Message objects
pulled from it — on self means next round's reads see this round's
buffer reused for other traffic. Extract payloads/senders into plain
values inside the hook; list(messages) copies references, not the
underlying buffer, so it is not a fix.
"""
    bad_example = """
class P(NodeProgram):
    def __init__(self):
        self.pending = []

    def on_receive(self, ctx, messages):
        self.pending = messages      # view over a reused buffer
"""
    good_example = """
class P(NodeProgram):
    def __init__(self):
        self.pending = []

    def on_receive(self, ctx, messages):
        self.pending = [m.payload for m in messages]   # copied values
"""

    def run(self, module: ModuleModel) -> Iterator[Finding]:
        for cls in module.program_classes:
            for method_name, fn in _hook_like_methods(cls):
                inbox_names = _param_names(fn) & _INBOX_PARAMS
                if not inbox_names:
                    continue
                tainted = set(inbox_names)
                tainted |= _tainted_loop_vars(fn, inbox_names)
                for node, name, how in _escape_sites(fn, tainted):
                    what = (
                        "the inbox view"
                        if name in inbox_names
                        else f"a Message object ({name})"
                    )
                    yield self.finding(
                        module,
                        node,
                        f"{what} is {how} a self attribute in "
                        f"{cls.name}.{method_name}; the fast engine "
                        f"reuses the delivery buffer next round, so the "
                        f"stored reference reads stale traffic — extract "
                        f"payload/sender values instead",
                    )


def _hook_like_methods(cls):
    for item in cls.node.body:
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if item.name == "__init__":
                continue
            yield item.name, item
