"""RL1xx — schema-contract checks for ``NodeProgram`` state.

Per-node state lives in network-owned typed columns declared by
``state_schema()``; attributes staged in ``__init__`` keep living in the
instance ``__dict__``.  Any *other* ``self.<attr>`` a hook touches
silently bypasses the columns: it is invisible to vector kernels, lost
on ``bind_state``/``unbind_state`` migration, and splits behavior between
the scalar and vectorized engine paths.  These checks pin the contract
at the AST level.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional, Set, Union

from ..findings import Finding
from ..model import ModuleModel, ProgramClass, SchemaField
from .base import Check

#: ``__init__`` stages state; ``state_schema``/``vector_round`` are
#: classmethod declarations, not per-node code.
_NON_HOOK_METHODS = {"__init__", "state_schema", "vector_round"}

#: Integer column bounds for the sentinel-vs-dtype check.
_INT_BOUNDS = {
    "int8": (-(2**7), 2**7 - 1),
    "int16": (-(2**15), 2**15 - 1),
    "int32": (-(2**31), 2**31 - 1),
    "int64": (-(2**63), 2**63 - 1),
    "uint8": (0, 2**8 - 1),
    "uint16": (0, 2**16 - 1),
    "uint32": (0, 2**32 - 1),
    "uint64": (0, 2**64 - 1),
}
_BOOL_DTYPES = {"bool_", "bool"}


class UndeclaredStateCheck(Check):
    """RL101: every ``self.<attr>`` in hooks must be declared state."""

    id = "RL101"
    name = "undeclared-state"
    summary = (
        "program hooks may only touch state declared in state_schema() "
        "or staged in __init__"
    )
    rationale = """
An attribute first assigned inside on_start/on_round/on_receive (or a
helper they call) lives only in that instance's __dict__: the network's
column allocator never sees it, vector kernels cannot load or flush it,
and bind_state/unbind_state migration drops it. The scalar and
vectorized engine paths then diverge exactly where the equivalence suite
cannot look. Declare the field in state_schema(), stage it in __init__, or —
for genuinely derived scratch values — keep it a local variable.
"""
    bad_example = """
class P(NodeProgram):
    def __init__(self):
        self.count = 0

    def on_round(self, ctx):
        self.scratch = ctx.degree   # undeclared: bypasses column state
"""
    good_example = """
class P(NodeProgram):
    def __init__(self):
        self.count = 0
        self.scratch = 0

    def on_round(self, ctx):
        self.scratch = ctx.degree
"""

    def run(self, module: ModuleModel) -> Iterator[Finding]:
        for cls in module.program_classes:
            declared = cls.declared_attrs()
            for method_name, fn in _own_methods(cls):
                if method_name in _NON_HOOK_METHODS:
                    continue
                if not _takes_self(fn):
                    continue
                seen: Set[int] = set()
                for node in ast.walk(fn):
                    if not (
                        isinstance(node, ast.Attribute)
                        and isinstance(node.value, ast.Name)
                        and node.value.id == "self"
                    ):
                        continue
                    attr = node.attr
                    if attr in declared or attr.startswith("__"):
                        continue
                    key = hash((attr, node.lineno))
                    if key in seen:
                        continue
                    seen.add(key)
                    action = (
                        "written"
                        if isinstance(node.ctx, (ast.Store, ast.Del))
                        else "read"
                    )
                    yield self.finding(
                        module,
                        node,
                        f"self.{attr} is {action} in "
                        f"{cls.name}.{method_name} but declared neither in "
                        f"state_schema() nor in __init__",
                    )


class WidthReferenceCheck(Check):
    """RL102: string ``width=`` must name a real program attribute."""

    id = "RL102"
    name = "width-reference"
    summary = (
        "StateField(width=\"attr\") must name an attribute the program "
        "instance actually has at bind time"
    )
    rationale = """
A string width is resolved at column-allocation time with
getattr(template_program, width): if no __init__ assignment (or class
attribute) backs that name, every schema-bound network dies with an
AttributeError at bind — but only in column mode, so the dict-layout
test matrix stays green while production breaks.
"""
    bad_example = """
class P(NodeProgram):
    def __init__(self, executions):
        self.execs = executions

    @classmethod
    def state_schema(cls):
        return (StateField("status", np.int8, width="executions"),)
"""
    good_example = """
class P(NodeProgram):
    def __init__(self, executions):
        self.executions = executions

    @classmethod
    def state_schema(cls):
        return (StateField("status", np.int8, width="executions"),)
"""

    def run(self, module: ModuleModel) -> Iterator[Finding]:
        for cls in module.program_classes:
            for field in cls.schema or []:
                if not isinstance(field.width, str):
                    continue
                if field.width in cls.init_attrs or \
                        field.width in cls.class_attrs:
                    continue
                yield self.finding(
                    module,
                    _anchor(cls, field),
                    f'width="{field.width}" of field '
                    f'"{field.name}" names no attribute assigned in '
                    f"{cls.name}.__init__ (column allocation would raise "
                    f"AttributeError at bind time)",
                )


class SentinelDtypeCheck(Check):
    """RL103: a schema default must be representable in its dtype."""

    id = "RL103"
    name = "sentinel-dtype"
    summary = (
        "schema defaults (e.g. -1 sentinels) must fit the declared "
        "column dtype"
    )
    rationale = """
Sentinel defaults are the idiom for "never happened" rounds (-1 in
join_round columns). np.full casts the default into the column dtype:
-1 in an unsigned column wraps to the dtype maximum, a 300 in an int8
column raises or wraps depending on the numpy version — either way the
sentinel comparisons in hooks and kernels silently stop matching.
"""
    bad_example = """
class P(NodeProgram):
    @classmethod
    def state_schema(cls):
        return (StateField("join_round", np.uint32, default=-1),)
"""
    good_example = """
class P(NodeProgram):
    @classmethod
    def state_schema(cls):
        return (StateField("join_round", np.int64, default=-1),)
"""

    def run(self, module: ModuleModel) -> Iterator[Finding]:
        for cls in module.program_classes:
            for field in cls.schema or []:
                problem = _dtype_problem(field)
                if problem:
                    yield self.finding(
                        module, _anchor(cls, field), problem
                    )


def _dtype_problem(field: SchemaField) -> Optional[str]:
    dtype = field.dtype_name
    default = field.default
    if dtype is None or default is None or not field.has_default:
        return None
    if dtype in _BOOL_DTYPES:
        if default in (0, 1, True, False):
            return None
        return (
            f'default {default!r} of field "{field.name}" is not a '
            f"boolean; a {dtype} column truncates it to "
            f"{bool(default)}"
        )
    bounds = _INT_BOUNDS.get(dtype)
    if bounds is None:
        return None  # floats and exotic dtypes admit any numeric default
    if isinstance(default, float) and not default.is_integer():
        return (
            f'default {default!r} of field "{field.name}" is fractional; '
            f"a {dtype} column truncates it to {int(default)}"
        )
    low, high = bounds
    value = int(default)
    if low <= value <= high:
        return None
    wrapped = value % (high - low + 1) + low
    return (
        f'sentinel default {value} of field "{field.name}" does not fit '
        f"dtype {dtype} (range [{low}, {high}]); the column holds "
        f"{wrapped} instead, so comparisons like == {value} never match"
    )


def _own_methods(cls: ProgramClass):
    for item in cls.node.body:
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield item.name, item


def _takes_self(fn: Union[ast.FunctionDef, ast.AsyncFunctionDef]) -> bool:
    args = fn.args.posonlyargs + fn.args.args
    return bool(args) and args[0].arg == "self"


class _FieldAnchor:
    """Location shim: anchor a finding at the StateField call site."""

    def __init__(self, lineno: int, col_offset: int):
        self.lineno = lineno
        self.col_offset = col_offset


def _anchor(cls: ProgramClass, field: SchemaField) -> _FieldAnchor:
    return _FieldAnchor(field.lineno, field.col)
