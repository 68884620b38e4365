"""Scalar value semantics shared by the interpreter and the columnar engine.

Comparison coercion, ``LIKE`` matching, arithmetic NULL propagation, and the
NULL-safe sort key all live here so the AST interpreter and the vectorized
columnar engine evaluate every operator with *identical* semantics — the
interpreter↔columnar equivalence sweep in ``tests/test_planner.py`` relies on
this module being the single source of truth.
"""

from __future__ import annotations

import re


def coerce_pair(left: object, right: object) -> tuple[object, object]:
    """Coerce operands so mixed numeric / textual comparisons behave sanely."""
    if isinstance(left, bool) or isinstance(right, bool):
        return left, right
    if isinstance(left, (int, float)) and isinstance(right, str):
        try:
            return left, float(right)
        except ValueError:
            return str(left), right
    if isinstance(left, str) and isinstance(right, (int, float)):
        try:
            return float(left), right
        except ValueError:
            return left, str(right)
    return left, right


def compare_values(op: str, left: object, right: object) -> bool:
    """SQL comparison with NULL-rejection and mixed-type coercion."""
    if left is None or right is None:
        return False
    left, right = coerce_pair(left, right)
    if op == "=":
        return left == right
    if op in ("<>", "!="):
        return left != right
    if op == ">":
        return left > right
    if op == "<":
        return left < right
    if op == ">=":
        return left >= right
    return left <= right


#: comparison operators handled by :func:`compare_values`
COMPARISON_OPS = frozenset({"=", "<>", "!=", ">", "<", ">=", "<="})


def arith_values(op: str, left: object, right: object) -> object:
    """SQL arithmetic / concatenation with NULL propagation.

    Assumes ``op`` is one of ``+ - * / % ||`` and neither operand is None
    (callers short-circuit NULLs to NULL first, matching the interpreter).
    """
    if op == "+":
        return left + right
    if op == "-":
        return left - right
    if op == "*":
        return left * right
    if op == "/":
        return left / right if right != 0 else None
    if op == "%":
        return left % right if right != 0 else None
    return f"{left}{right}"  # ||


#: arithmetic / concatenation operators handled by :func:`arith_values`
ARITHMETIC_OPS = frozenset({"+", "-", "*", "/", "%", "||"})


def like(value: object, pattern: object) -> bool:
    """SQL LIKE with % and _ wildcards (case-insensitive, SQLite style)."""
    if value is None or pattern is None:
        return False
    regex = re.escape(str(pattern)).replace("%", ".*").replace("_", ".")
    return re.fullmatch(regex, str(value), flags=re.IGNORECASE) is not None


def like_matcher(pattern: object):
    """A compiled ``value → bool`` LIKE matcher for one fixed pattern.

    The columnar engine compiles the pattern once per vector instead of once
    per row; a ``None`` pattern matches nothing, like :func:`like`.
    """
    if pattern is None:
        return lambda value: False
    regex = re.compile(
        re.escape(str(pattern)).replace("%", ".*").replace("_", "."),
        flags=re.IGNORECASE,
    )
    return lambda value: value is not None and regex.fullmatch(str(value)) is not None


def null_safe_key(value: object):
    """Sort key that orders NULLs first and keeps mixed types comparable."""
    if value is None:
        return (0, "", 0)
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return (1, "", value)
    return (2, str(value), 0)


def null_vector(n: int) -> list:
    """A typed-NULL padding column of ``n`` SQL NULLs.

    Outer joins pad the unmatched side with one of these per column; the
    column's declared :class:`~repro.database.types.DataType` is carried by
    its ``RelColumn`` schema entry, so padding never changes a column's type —
    only its values.
    """
    return [None] * n


def is_null_key(value: object) -> bool:
    """True for join-key components that can never match: NULL and NaN.

    ``=`` returns false for NULL operands and ``nan == nan`` is false, whereas
    a dict lookup would match a NaN key through Python's identity shortcut —
    the hash join must skip these values on build and probe.
    """
    return value is None or value != value
