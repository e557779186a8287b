"""Schema-declared node state: flat network-owned columns with row views.

A program class *declares* its per-node state as a typed schema
(:meth:`NodeProgram.state_schema` returning :class:`StateField` triples);
the :class:`~repro.congest.network.Network` allocates one flat column per
field at construction, and

* scalar program bodies keep reading/writing ``self.<field>`` unchanged —
  a data descriptor transparently proxies the attribute into
  ``columns[name][rank]`` (the node's *row view*);
* vector kernels load and flush whole columns with array copies.

Columns are the only layout a schema-declaring population gets: every
vectorized kernel requires them, and the engine never vectorizes a
network without them (``Network.state_columns is None``).

Width fields (``StateField(width=...)``) allocate 2-D ``(n, width)``
columns; a node's row view is then a mutable length-``width`` numpy row,
so list-shaped program state (Ghaffari's per-execution status vector)
keeps its indexing syntax.  A ``width`` given as a *string* names an
attribute of the program (e.g. ``width="executions"``) read off the
template at allocation time, because such widths are run parameters, not
class constants.

Before a program is bound to a network (i.e. during ``__init__``), the
descriptors stage assignments in the instance ``__dict__`` exactly as
plain attributes would. :func:`allocate_columns` fills every row from
one template instance's staged values; an instance the network builds
later for one node is bound once, by :func:`bind_state`, which drops its
staged values (the template's, which the row started from) and points it
at the row.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple, Union

import numpy as np

__all__ = [
    "StateField",
    "allocate_columns",
    "bind_state",
]


@dataclass(frozen=True)
class StateField:
    """One declared per-node state column.

    ``dtype`` is anything ``np.dtype`` accepts (``np.bool_``, ``np.int8``,
    ``np.int64``, ``np.float64``, ...).  ``default`` fills the column at
    allocation; a program's ``__init__`` assignment (staged in the
    instance ``__dict__`` until bind) overrides it per node.  ``width``
    makes the column 2-D ``(n, width)``; a string names the program
    attribute holding the width.

    A ``default`` the dtype cannot hold is refused here, at class
    creation: allocation would otherwise fail (``-1`` in ``uint32``) or
    silently change it (``7`` in ``bool`` is stored as ``True``).
    """

    name: str
    dtype: Any
    default: Any = 0
    width: Optional[Union[int, str]] = None

    def __post_init__(self) -> None:
        default = self.default
        try:
            cast = np.dtype(self.dtype).type(default)
            # NaN never equals itself, yet survives a float column.
            fits = bool(cast == default or (
                cast != cast and default != default
            ))
        except (OverflowError, TypeError, ValueError):
            fits = False
        if not fits:
            raise ValueError(
                f"StateField {self.name!r}: default {self.default!r} does "
                f"not survive a round trip through {np.dtype(self.dtype)}"
            )


class _ScalarField:
    """Data descriptor proxying a scalar schema field into its column row.

    Unbound instances (no ``_state_columns`` in their ``__dict__``) behave
    exactly like plain attributes, staging values in the instance dict.
    Bound reads convert the numpy scalar back to the matching python
    scalar (``.item()``) so payload pricing, output dicts, and identity
    checks (``payload is False``) never see numpy scalar types.
    """

    __slots__ = ("name", "default")

    def __init__(self, name: str, default: Any):
        self.name = name
        self.default = default

    def __get__(self, obj: Any, objtype: Optional[type] = None) -> Any:
        if obj is None:
            return self
        d = obj.__dict__
        columns = d.get("_state_columns")
        if columns is not None:
            return columns[self.name][d["_state_rank"]].item()
        try:
            return d[self.name]
        except KeyError:
            return self.default

    def __set__(self, obj: Any, value: Any) -> None:
        d = obj.__dict__
        columns = d.get("_state_columns")
        if columns is not None:
            columns[self.name][d["_state_rank"]] = value
        else:
            d[self.name] = value


class _RowField:
    """Data descriptor proxying a width field into its 2-D column row.

    Bound reads return the node's row *view* (mutable in place — element
    assignment writes straight through to the column); wholesale
    assignment broadcasts a sequence into the row. Unbound instances
    stage plain lists/arrays in the instance dict.
    """

    __slots__ = ("name", "default")

    def __init__(self, name: str, default: Any):
        self.name = name
        self.default = default

    def __get__(self, obj: Any, objtype: Optional[type] = None) -> Any:
        if obj is None:
            return self
        d = obj.__dict__
        columns = d.get("_state_columns")
        if columns is not None:
            return columns[self.name][d["_state_rank"]]
        return d[self.name]

    def __set__(self, obj: Any, value: Any) -> None:
        d = obj.__dict__
        columns = d.get("_state_columns")
        if columns is not None:
            columns[self.name][d["_state_rank"]] = value
        else:
            d[self.name] = value


def install_descriptors(cls: type) -> None:
    """Install one proxy descriptor per declared schema field on ``cls``.

    Called from ``NodeProgram.__init_subclass__`` so declaring a schema is
    all a program author does — attribute syntax in the program body stays
    untouched whether the instance is bound or not.
    """
    for field in cls.state_schema():
        if not isinstance(field, StateField):
            raise TypeError(
                f"{cls.__name__}.state_schema() must yield StateField "
                f"entries, got {type(field).__name__}"
            )
        descriptor = (
            _ScalarField(field.name, field.default)
            if field.width is None
            else _RowField(field.name, field.default)
        )
        setattr(cls, field.name, descriptor)


def resolve_width(field: StateField, template: Any) -> int:
    """Concrete column width for one field against a template instance."""
    width = field.width
    if isinstance(width, str):
        try:
            width = getattr(template, width)
        except AttributeError:
            raise AttributeError(
                f"{type(template).__name__} field {field.name!r} takes its "
                f"width from attribute {width!r}, which the program does "
                f"not have"
            ) from None
    if width is None:
        raise ValueError(f"field {field.name!r} declares no width")
    return int(width)


def allocate_columns(
    schema: Tuple[StateField, ...], template: Any, n: int
) -> Dict[str, np.ndarray]:
    """Allocate columns for ``n`` nodes of one schema, every row filled
    with the value ``template`` staged for the field (one array write per
    field), else the schema default."""
    staged = template.__dict__
    columns: Dict[str, np.ndarray] = {}
    for field in schema:
        dtype = np.dtype(field.dtype)
        fill = staged.get(field.name, field.default)
        if field.width is None:
            column = np.full(n, fill, dtype=dtype)
        else:
            column = np.empty((n, resolve_width(field, template)), dtype=dtype)
            column[:] = fill
        columns[field.name] = column
    return columns


def bind_state(program: Any, columns: Dict[str, np.ndarray], rank: int) -> None:
    """Attach a freshly built ``program`` to row ``rank`` of the shared
    columns. The values its ``__init__`` staged in the instance
    ``__dict__`` are dropped: the row already holds the node's state (it
    was filled from the template and may have run since)."""
    d = program.__dict__
    for name in columns:
        d.pop(name, None)
    d["_state_columns"] = columns
    d["_state_rank"] = rank
