"""Typed atomic values and the XQuery casting / comparison rules.

An :class:`AtomicValue` pairs a Python value with an XML Schema type
annotation.  The casting table follows XQuery 1.0 functions & operators
(F&O) section 17; we implement the subset reachable from the types the
XRPC protocol serialises.
"""

from __future__ import annotations

import math
from decimal import Decimal, InvalidOperation
from typing import Any

from repro.errors import DynamicError, TypeError_
from repro.xdm.types import XSType, xs, type_by_name


class AtomicValue:
    """A single typed atomic value.

    Parameters
    ----------
    value:
        The underlying Python value (``str``, ``int``, ``Decimal``,
        ``float`` or ``bool``; dates are stored in lexical form).
    type_:
        XML Schema type annotation.
    """

    __slots__ = ("value", "type")

    def __init__(self, value: Any, type_: XSType) -> None:
        self.value = value
        self.type = type_

    # -- lexical form -----------------------------------------------------

    def string_value(self) -> str:
        """Canonical lexical representation (used by serialization)."""
        if self.type is xs.boolean:
            return "true" if self.value else "false"
        if self.type.derives_from(xs.double) or self.type.derives_from(xs.float):
            return _double_to_lexical(float(self.value))
        if isinstance(self.value, Decimal):
            text = format(self.value, "f")
            if "." in text:
                text = text.rstrip("0").rstrip(".")
            return text or "0"
        return str(self.value)

    # -- numeric helpers --------------------------------------------------

    @property
    def is_numeric(self) -> bool:
        return self.type.is_numeric

    # -- comparisons ------------------------------------------------------

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"{self.type.name}({self.string_value()!r})"

    def __eq__(self, other: object) -> bool:
        """Structural equality, used mainly in tests.

        Query-level comparisons go through :func:`value_compare` which
        applies the XQuery casting rules; this is plain value+type equality
        with numeric cross-type tolerance.
        """
        if not isinstance(other, AtomicValue):
            return NotImplemented
        if self.is_numeric and other.is_numeric:
            return float(self.value) == float(other.value)
        return self.type is other.type and self.value == other.value

    def __hash__(self) -> int:
        if self.is_numeric:
            return hash(float(self.value))
        return hash((self.type.name, self.value))


# ---------------------------------------------------------------------------
# Constructors


def untyped(text: str) -> AtomicValue:
    return AtomicValue(text, xs.untypedAtomic)


def string(text: str) -> AtomicValue:
    return AtomicValue(text, xs.string)


def integer(value: int) -> AtomicValue:
    return AtomicValue(int(value), xs.integer)


def decimal(value: Decimal | int | str) -> AtomicValue:
    return AtomicValue(Decimal(value), xs.decimal)


def double(value: float) -> AtomicValue:
    return AtomicValue(float(value), xs.double)


def boolean(value: bool) -> AtomicValue:
    return AtomicValue(bool(value), xs.boolean)


# ---------------------------------------------------------------------------
# Casting


def _double_to_lexical(value: float) -> str:
    if math.isnan(value):
        return "NaN"
    if math.isinf(value):
        return "INF" if value > 0 else "-INF"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def _parse_double(text: str) -> float:
    text = text.strip()
    if text == "INF":
        return math.inf
    if text == "-INF":
        return -math.inf
    if text == "NaN":
        return math.nan
    return float(text)


def cast(value: AtomicValue, target: XSType) -> AtomicValue:
    """Cast *value* to *target* following XQuery casting rules.

    Raises
    ------
    DynamicError
        With code ``FORG0001`` when the lexical form is invalid for the
        target type, or ``XPTY0004`` when the cast is not permitted.
    """
    if value.type is target:
        return value
    if value.type.derives_from(target):
        return AtomicValue(value.value, target)

    text = value.string_value()
    try:
        if target is xs.string or target.derives_from(xs.string):
            return AtomicValue(text, target)
        if target is xs.untypedAtomic:
            return AtomicValue(text, target)
        if target is xs.anyURI:
            return AtomicValue(text.strip(), target)
        if target is xs.boolean:
            return _cast_boolean(value, text)
        if target.derives_from(xs.integer):
            return _cast_integer(value, text, target)
        if target.derives_from(xs.decimal):
            return _cast_decimal(value, text, target)
        if target is xs.double or target is xs.float:
            return AtomicValue(_parse_double(text), target)
        if target in (xs.date, xs.time, xs.dateTime, xs.duration,
                      xs.gYear, xs.gMonth, xs.gDay, xs.QName,
                      xs.base64Binary, xs.hexBinary):
            # Stored in lexical form; validated lightly.
            return AtomicValue(text.strip(), target)
    except (ValueError, InvalidOperation) as exc:
        raise DynamicError(
            "FORG0001",
            f"cannot cast {value.type.name} value {text!r} to {target.name}",
        ) from exc
    raise TypeError_(
        "XPTY0004", f"cast from {value.type.name} to {target.name} not allowed"
    )


def _cast_boolean(value: AtomicValue, text: str) -> AtomicValue:
    if value.is_numeric:
        number = float(value.value)
        return AtomicValue(not (number == 0 or math.isnan(number)), xs.boolean)
    text = text.strip()
    if text in ("true", "1"):
        return AtomicValue(True, xs.boolean)
    if text in ("false", "0"):
        return AtomicValue(False, xs.boolean)
    raise DynamicError("FORG0001", f"invalid boolean lexical form {text!r}")


def _cast_integer(value: AtomicValue, text: str, target: XSType) -> AtomicValue:
    if value.type is xs.boolean:
        return AtomicValue(1 if value.value else 0, target)
    if value.is_numeric:
        number = float(value.value)
        if math.isnan(number) or math.isinf(number):
            raise DynamicError("FOCA0002", f"cannot cast {text} to integer")
        return AtomicValue(int(number), target)
    return AtomicValue(int(text.strip()), target)


def _cast_decimal(value: AtomicValue, text: str, target: XSType) -> AtomicValue:
    if value.type is xs.boolean:
        return AtomicValue(Decimal(1 if value.value else 0), target)
    if value.is_numeric:
        return AtomicValue(Decimal(str(value.value)), target)
    return AtomicValue(Decimal(text.strip()), target)


def cast_by_name(value: AtomicValue, type_name: str) -> AtomicValue:
    """Cast using a lexical type name, e.g. ``"xs:integer"``."""
    return cast(value, type_by_name(type_name))


# ---------------------------------------------------------------------------
# Value comparison (the 'eq', 'lt', ... operators and general comparisons)


_OPS = {
    "eq": lambda c: c == 0,
    "ne": lambda c: c != 0,
    "lt": lambda c: c < 0,
    "le": lambda c: c <= 0,
    "gt": lambda c: c > 0,
    "ge": lambda c: c >= 0,
}


def _numeric_key(value: AtomicValue) -> float:
    return float(value.value)


def value_compare(left: AtomicValue, op: str, right: AtomicValue) -> bool:
    """Apply a value comparison operator with XQuery casting rules.

    ``xs:untypedAtomic`` operands are cast to ``xs:string`` (value
    comparison rule); numeric operands are promoted to a common type.
    """
    if left.type is xs.untypedAtomic:
        left = cast(left, xs.string)
    if right.type is xs.untypedAtomic:
        right = cast(right, xs.string)
    ordering = _compare_key(left, right)
    return _OPS[op](ordering)


def general_compare_pair(left: AtomicValue, op: str, right: AtomicValue) -> bool:
    """One atom-pair of a general comparison (``=``, ``<`` ...).

    General comparison casts untypedAtomic operands to the *other*
    operand's type (or double when compared against a numeric, string when
    both are untyped).
    """
    if left.type is xs.untypedAtomic and right.type is xs.untypedAtomic:
        left, right = cast(left, xs.string), cast(right, xs.string)
    elif left.type is xs.untypedAtomic:
        target = xs.double if right.is_numeric else (
            xs.string if right.type is xs.anyURI else right.type)
        left = cast(left, target)
    elif right.type is xs.untypedAtomic:
        target = xs.double if left.is_numeric else (
            xs.string if left.type is xs.anyURI else left.type)
        right = cast(right, target)
    return _OPS[op](_compare_key(left, right))


def _compare_key(left: AtomicValue, right: AtomicValue) -> int:
    """Return -1/0/+1 ordering between two comparable atomic values."""
    if left.is_numeric and right.is_numeric:
        lv, rv = _numeric_key(left), _numeric_key(right)
        if math.isnan(lv) or math.isnan(rv):
            # NaN compares false to everything; signal via sentinel.
            return 2  # no _OPS predicate matches 2 except 'ne'
        return (lv > rv) - (lv < rv)
    if left.type is xs.boolean and right.type is xs.boolean:
        return (left.value > right.value) - (left.value < right.value)
    lk, rk = _comparable_strings(left, right)
    return (lk > rk) - (lk < rk)


def _comparable_strings(left: AtomicValue, right: AtomicValue) -> tuple[str, str]:
    string_like = (xs.string, xs.anyURI, xs.untypedAtomic)
    l_ok = any(left.type.derives_from(t) for t in string_like)
    r_ok = any(right.type.derives_from(t) for t in string_like)
    same_family = left.type.derives_from(right.type) or right.type.derives_from(left.type)
    if (l_ok and r_ok) or same_family:
        return left.string_value(), right.string_value()
    raise TypeError_(
        "XPTY0004",
        f"cannot compare {left.type.name} with {right.type.name}",
    )
