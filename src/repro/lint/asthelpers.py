"""Small AST utilities shared by the rules."""

from __future__ import annotations

import ast


def dotted_name(node: ast.AST) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, else ``None``.

    The canonical spelling rules compare guard expressions with: two
    occurrences of ``self.bus`` produce the same string, while anything
    involving calls or subscripts (not a stable l-value) returns None.
    """
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def call_name(node: ast.Call) -> str | None:
    """Dotted name of a call's target (``np.random.default_rng``)."""
    return dotted_name(node.func)


def truthy_operands(test: ast.expr) -> list[str]:
    """Dotted names asserted *truthy* by an ``if`` test.

    ``bus`` -> [bus]; ``bus is not None and bus`` -> [bus]; nested
    ``and`` chains recurse.  ``bus is not None`` alone contributes
    nothing — a NullSink is not None but must still short-circuit the
    emit, so identity checks don't count as guards.
    """
    names: list[str] = []
    if isinstance(test, ast.BoolOp) and isinstance(test.op, ast.And):
        for value in test.values:
            names.extend(truthy_operands(value))
        return names
    name = dotted_name(test)
    if name is not None:
        names.append(name)
    return names


def falsy_operands(test: ast.expr) -> list[str]:
    """Dotted names asserted *falsy* by an ``if`` test (guard clauses).

    ``not bus`` -> [bus]; ``bus is None or not bus`` -> [bus] (the
    ``not`` operand is what counts).  Or-chains recurse: any branch
    taking the early exit still implies nothing, so only explicit
    ``not <name>`` operands are collected.
    """
    names: list[str] = []
    if isinstance(test, ast.BoolOp) and isinstance(test.op, ast.Or):
        for value in test.values:
            names.extend(falsy_operands(value))
        return names
    if isinstance(test, ast.UnaryOp) and isinstance(test.op, ast.Not):
        name = dotted_name(test.operand)
        if name is not None:
            names.append(name)
    return names


def ends_control_flow(body: list[ast.stmt]) -> bool:
    """Whether a statement list unconditionally leaves the function."""
    return bool(body) and isinstance(
        body[-1], (ast.Return, ast.Raise, ast.Continue, ast.Break)
    )


def has_slots(node: ast.ClassDef) -> bool:
    """Whether a class declares ``__slots__`` (directly or via
    ``@dataclass(slots=True)``)."""
    for stmt in node.body:
        if isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                if isinstance(target, ast.Name) and target.id == "__slots__":
                    return True
        elif isinstance(stmt, ast.AnnAssign):
            target = stmt.target
            if isinstance(target, ast.Name) and target.id == "__slots__":
                return True
    for dec in node.decorator_list:
        if not isinstance(dec, ast.Call):
            continue
        name = dotted_name(dec.func)
        if name is not None and name.split(".")[-1] == "dataclass":
            for kw in dec.keywords:
                if (
                    kw.arg == "slots"
                    and isinstance(kw.value, ast.Constant)
                    and kw.value.value is True
                ):
                    return True
    return False
