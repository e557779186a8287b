"""AST module model shared by every ``repro.lint`` check.

The engine parses each file once and distils the parts the checks care
about into a :class:`ModuleModel`:

* which classes are :class:`~repro.congest.program.NodeProgram` subclasses
  (*program classes*: their methods run per node, per round) and which are
  :class:`~repro.congest.vectorized.VectorRound` subclasses (*kernel
  classes*: whole-network dense rounds) — resolved by base-class name,
  transitively within the module, so fixtures and real modules alike need
  no imports to be classified;
* each program class's declared state surface: ``state_schema()`` fields
  (parsed from the literal ``StateField(...)`` tuple), attributes staged
  in ``__init__``, class-level attributes, methods and properties;
* each kernel class's implemented methods (own and inherited).

Everything is a plain syntactic summary — no imports are executed, so the
linter runs on broken or heavyweight modules equally well.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple, Union

#: Base-class names that make a class a program / kernel class.
PROGRAM_BASES = {"NodeProgram"}
KERNEL_BASES = {"VectorRound"}

#: Attributes every program inherits from ``NodeProgram`` itself.
PROGRAM_INHERITED = {
    "on_start",
    "on_round",
    "on_receive",
    "state_schema",
    "vector_round",
}


@dataclass
class SchemaField:
    """One ``StateField(...)`` entry of a literal ``state_schema``."""

    name: str
    lineno: int
    col: int
    #: Last attribute segment of the dtype expression (``"int8"`` for
    #: ``np.int8``), or None when the dtype is not a plain name/attribute.
    dtype_name: Optional[str]
    #: The default value when it is a numeric/bool constant, else None.
    default: Optional[Union[int, float, bool]]
    #: True when an explicit ``default=`` keyword was present.
    has_default: bool
    #: ``None`` (scalar), an int, or the attribute-name string.
    width: Optional[Union[int, str]]


@dataclass
class ProgramClass:
    """Syntactic summary of one NodeProgram subclass."""

    node: ast.ClassDef
    name: str
    #: Parsed literal schema fields; None when ``state_schema`` exists but
    #: is not a literal tuple of ``StateField(...)`` calls (opaque — the
    #: schema-contract checks then skip the class rather than guess).
    schema: Optional[List[SchemaField]]
    has_schema_method: bool
    init_attrs: Set[str]
    class_attrs: Set[str]
    methods: Dict[str, ast.FunctionDef]
    properties: Set[str]
    #: Names of in-module program-class ancestors (for inherited state).
    ancestors: List[str] = field(default_factory=list)

    def declared_attrs(self) -> Set[str]:
        declared = set(PROGRAM_INHERITED)
        declared |= self.init_attrs
        declared |= self.class_attrs
        declared |= set(self.methods)
        declared |= self.properties
        if self.schema:
            declared |= {f.name for f in self.schema}
        return declared


@dataclass
class KernelClass:
    """Syntactic summary of one VectorRound subclass."""

    node: ast.ClassDef
    name: str
    methods: Dict[str, ast.FunctionDef]
    ancestors: List[str] = field(default_factory=list)


@dataclass
class ModuleModel:
    """Everything the checks need to know about one parsed module."""

    path: str
    tree: ast.Module
    source: str
    program_classes: List[ProgramClass]
    kernel_classes: List[KernelClass]
    #: Top-level names bound by import statements (used to avoid flagging
    #: factories that return kernels imported from another module).
    imported_names: Set[str]
    #: All top-level class definitions by name.
    classes: Dict[str, ast.ClassDef]

    def program_class(self, name: str) -> Optional[ProgramClass]:
        for cls in self.program_classes:
            if cls.name == name:
                return cls
        return None

    def kernel_class(self, name: str) -> Optional[KernelClass]:
        for cls in self.kernel_classes:
            if cls.name == name:
                return cls
        return None


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------
def build_module_model(source: str, path: str) -> ModuleModel:
    """Parse ``source`` and summarize it; raises ``SyntaxError`` as-is."""
    tree = ast.parse(source, filename=path)
    classes = {
        node.name: node
        for node in tree.body
        if isinstance(node, ast.ClassDef)
    }
    program_names = _subclass_closure(classes, PROGRAM_BASES)
    kernel_names = _subclass_closure(classes, KERNEL_BASES)

    program_classes = []
    for name in program_names:
        program_classes.append(
            _build_program_class(
                classes[name],
                ancestors=_local_ancestors(classes[name], program_names),
            )
        )
    # Ancestor state is inherited: fold each ancestor's declarations in.
    by_name = {cls.name: cls for cls in program_classes}
    for cls in program_classes:
        for ancestor in cls.ancestors:
            parent = by_name.get(ancestor)
            if parent is None:
                continue
            cls.init_attrs |= parent.init_attrs
            cls.class_attrs |= parent.class_attrs
            cls.properties |= parent.properties
            for method_name, fn in parent.methods.items():
                cls.methods.setdefault(method_name, fn)
            if parent.schema:
                existing = {f.name for f in cls.schema or []}
                cls.schema = (cls.schema or []) + [
                    f for f in parent.schema if f.name not in existing
                ]

    kernel_classes = []
    for name in kernel_names:
        kernel_classes.append(
            _build_kernel_class(
                classes[name],
                ancestors=_local_ancestors(classes[name], kernel_names),
            )
        )
    kernels_by_name = {cls.name: cls for cls in kernel_classes}
    for cls in kernel_classes:
        for ancestor in cls.ancestors:
            parent = kernels_by_name.get(ancestor)
            if parent is None:
                continue
            for method_name, fn in parent.methods.items():
                cls.methods.setdefault(method_name, fn)

    return ModuleModel(
        path=path,
        tree=tree,
        source=source,
        program_classes=program_classes,
        kernel_classes=kernel_classes,
        imported_names=_imported_names(tree),
        classes=classes,
    )


def _base_name(base: ast.expr) -> Optional[str]:
    """Last name segment of a base-class expression."""
    if isinstance(base, ast.Name):
        return base.id
    if isinstance(base, ast.Attribute):
        return base.attr
    return None


def _subclass_closure(
    classes: Dict[str, ast.ClassDef], roots: Set[str]
) -> List[str]:
    """Names of classes deriving (transitively, in-module) from ``roots``.

    Returned in definition order so model summaries are stable.
    """
    matched: Set[str] = set()
    changed = True
    while changed:
        changed = False
        for name, node in classes.items():
            if name in matched:
                continue
            for base in node.bases:
                base_name = _base_name(base)
                if base_name in roots or base_name in matched:
                    matched.add(name)
                    changed = True
                    break
    return [name for name in classes if name in matched]


def _local_ancestors(node: ast.ClassDef, pool: List[str]) -> List[str]:
    return [
        name
        for name in (_base_name(base) for base in node.bases)
        if name in pool and name != node.name
    ]


def _imported_names(tree: ast.Module) -> Set[str]:
    names: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                names.add((alias.asname or alias.name).split(".")[0])
    return names


def _self_attr_targets(target: ast.expr) -> List[str]:
    """Attribute names assigned through ``self`` in one target expression."""
    names: List[str] = []
    if isinstance(target, ast.Attribute):
        if isinstance(target.value, ast.Name) and target.value.id == "self":
            names.append(target.attr)
    elif isinstance(target, (ast.Tuple, ast.List)):
        for element in target.elts:
            names.extend(_self_attr_targets(element))
    return names


def _build_program_class(
    node: ast.ClassDef, ancestors: List[str]
) -> ProgramClass:
    init_attrs: Set[str] = set()
    class_attrs: Set[str] = set()
    methods: Dict[str, ast.FunctionDef] = {}
    properties: Set[str] = set()
    schema: Optional[List[SchemaField]] = None
    has_schema_method = False

    for item in node.body:
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
            methods[item.name] = item  # type: ignore[assignment]
            if _is_property(item):
                properties.add(item.name)
            if item.name == "__init__":
                init_attrs |= _collect_init_attrs(item)
            elif item.name == "state_schema":
                has_schema_method = True
                schema = _parse_schema(item)
        elif isinstance(item, ast.Assign):
            for target in item.targets:
                if isinstance(target, ast.Name):
                    class_attrs.add(target.id)
        elif isinstance(item, ast.AnnAssign):
            if isinstance(item.target, ast.Name):
                class_attrs.add(item.target.id)

    return ProgramClass(
        node=node,
        name=node.name,
        schema=schema,
        has_schema_method=has_schema_method,
        init_attrs=init_attrs,
        class_attrs=class_attrs,
        methods=methods,
        properties=properties,
        ancestors=ancestors,
    )


def _build_kernel_class(
    node: ast.ClassDef, ancestors: List[str]
) -> KernelClass:
    methods: Dict[str, ast.FunctionDef] = {
        item.name: item  # type: ignore[misc]
        for item in node.body
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
    }
    return KernelClass(
        node=node,
        name=node.name,
        methods=methods,
        ancestors=ancestors,
    )


def _is_property(fn: ast.FunctionDef) -> bool:
    for decorator in fn.decorator_list:
        if isinstance(decorator, ast.Name) and decorator.id == "property":
            return True
        if isinstance(decorator, ast.Attribute) and decorator.attr in (
            "setter",
            "getter",
            "deleter",
        ):
            return True
    return False


def _collect_init_attrs(fn: ast.FunctionDef) -> Set[str]:
    attrs: Set[str] = set()
    for node in ast.walk(fn):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                attrs.update(_self_attr_targets(target))
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            attrs.update(_self_attr_targets(node.target))
    return attrs


def _parse_schema(fn: ast.FunctionDef) -> Optional[List[SchemaField]]:
    """Parse a literal ``return (StateField(...), ...)``; None if opaque."""
    returns = [
        node for node in ast.walk(fn) if isinstance(node, ast.Return)
    ]
    fields: List[SchemaField] = []
    for ret in returns:
        value = ret.value
        if value is None:
            continue
        if isinstance(value, (ast.Tuple, ast.List)):
            elements = value.elts
        elif isinstance(value, ast.Call):
            elements = [value]
        else:
            return None
        for element in elements:
            parsed = _parse_state_field(element)
            if parsed is None:
                return None
            fields.append(parsed)
    return fields


def _parse_state_field(node: ast.expr) -> Optional[SchemaField]:
    if not isinstance(node, ast.Call):
        return None
    callee = node.func
    callee_name = (
        callee.id
        if isinstance(callee, ast.Name)
        else callee.attr
        if isinstance(callee, ast.Attribute)
        else None
    )
    if callee_name != "StateField":
        return None
    args = list(node.args)
    if not args or not isinstance(args[0], ast.Constant) \
            or not isinstance(args[0].value, str):
        return None
    name = args[0].value
    dtype_expr = args[1] if len(args) > 1 else None
    default_expr: Optional[ast.expr] = args[2] if len(args) > 2 else None
    width_expr: Optional[ast.expr] = args[3] if len(args) > 3 else None
    has_default = len(args) > 2
    for keyword in node.keywords:
        if keyword.arg == "dtype":
            dtype_expr = keyword.value
        elif keyword.arg == "default":
            default_expr = keyword.value
            has_default = True
        elif keyword.arg == "width":
            width_expr = keyword.value
    return SchemaField(
        name=name,
        lineno=node.lineno,
        col=node.col_offset,
        dtype_name=_dtype_name(dtype_expr),
        default=_constant_value(default_expr),
        has_default=has_default,
        width=_width_value(width_expr),
    )


def _dtype_name(node: Optional[ast.expr]) -> Optional[str]:
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def _constant_value(
    node: Optional[ast.expr],
) -> Optional[Union[int, float, bool]]:
    if node is None:
        return None
    if isinstance(node, ast.Constant) and isinstance(
        node.value, (int, float, bool)
    ):
        return node.value
    if (
        isinstance(node, ast.UnaryOp)
        and isinstance(node.op, ast.USub)
        and isinstance(node.operand, ast.Constant)
        and isinstance(node.operand.value, (int, float))
    ):
        return -node.operand.value
    return None


def _width_value(node: Optional[ast.expr]) -> Optional[Union[int, str]]:
    if node is None:
        return None
    if isinstance(node, ast.Constant) and isinstance(
        node.value, (int, str)
    ):
        return node.value
    return None


# ---------------------------------------------------------------------------
# Shared AST helpers for checks
# ---------------------------------------------------------------------------
def attribute_chain(node: ast.expr) -> Optional[Tuple[str, ...]]:
    """``np.random.default_rng`` -> ("np", "random", "default_rng")."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return tuple(reversed(parts))
    return None


def iter_methods(cls: Union[ProgramClass, KernelClass]):
    """(name, FunctionDef) pairs of a summarized class, own body only."""
    for item in cls.node.body:
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield item.name, item
