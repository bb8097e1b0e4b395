"""SequenceType matching and the XQuery function conversion rules.

Used for function parameter/return conversion, ``instance of``,
``treat as`` and ``typeswitch``.  The paper notes that XRPC requires the
*caller* to perform parameter up-casting; these are the rules that
casting follows.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import TypeError_
from repro.xdm.atomic import AtomicValue, cast
from repro.xdm.nodes import (
    AttributeNode,
    CommentNode,
    DocumentNode,
    ElementNode,
    Node,
    ProcessingInstructionNode,
    TextNode,
)
from repro.xdm.sequence import atomize
from repro.xdm.types import XSType, xs
from repro.xquery import xast as A

_KIND_CLASSES = {
    "node": Node,
    "element": ElementNode,
    "attribute": AttributeNode,
    "document": DocumentNode,
    "text": TextNode,
    "comment": CommentNode,
    "processing-instruction": ProcessingInstructionNode,
}


def _occurrence_ok(count: int, occurrence: str) -> bool:
    if occurrence == "":
        return count == 1
    if occurrence == "?":
        return count <= 1
    if occurrence == "+":
        return count >= 1
    return True  # "*"


def item_matches(item: object, item_type: A.ItemType) -> bool:
    """Does a single item match an ItemType?"""
    if item_type.kind == "item":
        return True
    if item_type.kind == "empty":
        return False
    if item_type.kind == "atomic":
        if not isinstance(item, AtomicValue):
            return False
        assert item_type.atomic_type is not None
        return item.type.derives_from(item_type.atomic_type)
    cls = _KIND_CLASSES.get(item_type.kind)
    if cls is None or not isinstance(item, cls):
        return False
    if item_type.name and item_type.name != "*":
        if isinstance(item, (ElementNode, AttributeNode)):
            wanted = item_type.name.split(":")[-1]
            return item.local_name == wanted
        if isinstance(item, ProcessingInstructionNode):
            return item.target == item_type.name
    return True


def sequence_matches(sequence: list, seq_type: A.SequenceType) -> bool:
    """``instance of`` semantics."""
    if seq_type.item_type.kind == "empty":
        return not sequence
    if not _occurrence_ok(len(sequence), seq_type.occurrence):
        return False
    return all(item_matches(item, seq_type.item_type) for item in sequence)


def _promotable(source: XSType, target: XSType) -> bool:
    """Numeric / URI type promotion per the function conversion rules."""
    if target is xs.double:
        return source.is_numeric
    if target is xs.float:
        return source.derives_from(xs.decimal)
    if target is xs.string:
        return source.derives_from(xs.anyURI)
    return False


class Converter:
    """The function conversion rules for one declared *seq_type*, bound
    once: atomic expected types atomize the argument, cast
    untypedAtomic and apply numeric promotion; node kinds are checked
    structurally.  What a source atomic type needs — kept, cast or
    refused — and, for a kind test without a name, whether an item class
    matches are decided the first time each is met.  Errors name *who*.

    Raises :class:`~repro.errors.TypeError_` (``XPTY0004``) when a
    value cannot be converted.
    """

    __slots__ = ("item_type", "occurrence", "who", "_casts", "_classes")

    def __init__(self, seq_type: A.SequenceType, who: str) -> None:
        self.item_type = seq_type.item_type
        self.occurrence = seq_type.occurrence
        self.who = who
        #: Source atomic type -> whether a value of it is cast.
        self._casts: dict[XSType, bool] = {}
        #: Item class -> whether it matches a kind test that names no
        #: node (then the class alone decides); ``None`` for one that does.
        name = self.item_type.name
        self._classes: Optional[dict[type, bool]] = \
            {} if not name or name == "*" else None

    def sequence(self, sequence: list) -> list:
        """One value converted."""
        kind = self.item_type.kind
        if kind == "empty":
            if sequence:
                raise self._not_empty()
            return []
        if kind == "atomic":
            sequence = [self._atomic(value) for value in atomize(sequence)]
        elif kind != "item":
            self._match(sequence)
        if not _occurrence_ok(len(sequence), self.occurrence):
            raise self._cardinality(len(sequence))
        return sequence

    def column(self, rows: list[tuple], count: int) -> list[tuple]:
        """The values of iterations ``1..count`` converted at once:
        *rows* is their ``iter|pos|item`` row list; so is the result."""
        kind = self.item_type.kind
        if kind == "empty":
            if rows:
                raise self._not_empty()
            return rows
        if kind == "atomic":
            atomic = self._atomic
            rows = [(it, pos, atomic(item if type(item) is AtomicValue
                                     else item.typed_value()[0]))
                    for it, pos, item in rows]
        elif kind != "item":
            self._match([row[2] for row in rows])
        if self.occurrence != "*":
            sizes = [0] * (count + 1)
            for row in rows:
                sizes[row[0]] += 1
            for size in sizes[1:]:
                if not _occurrence_ok(size, self.occurrence):
                    raise self._cardinality(size)
        return rows

    def _atomic(self, value: AtomicValue) -> AtomicValue:
        target = self.item_type.atomic_type
        assert target is not None
        source = value.type
        if source is target:
            return value
        cast_it = self._casts.get(source)
        if cast_it is None:
            if source is xs.untypedAtomic:
                cast_it = True
            elif source.derives_from(target):
                cast_it = False
            elif _promotable(source, target):
                cast_it = True
            else:
                raise TypeError_(
                    "XPTY0004",
                    f"{self.who}: cannot convert {source.name} "
                    f"to {target.name}")
            self._casts[source] = cast_it
        return cast(value, target) if cast_it else value

    def _match(self, items: list) -> None:
        """Every item of *items* passes the (node) kind test."""
        item_type, classes = self.item_type, self._classes
        for item in items:
            if classes is None:
                matches = item_matches(item, item_type)
            else:
                matches = classes.get(type(item))
                if matches is None:
                    matches = classes[type(item)] = \
                        item_matches(item, item_type)
            if not matches:
                kind = item.kind if isinstance(item, Node) \
                    else type(item).__name__
                raise TypeError_(
                    "XPTY0004",
                    f"{self.who}: expected {item_type.kind}(), got {kind}")

    def _not_empty(self) -> TypeError_:
        return TypeError_("XPTY0004", f"{self.who}: expected empty-sequence()")

    def _cardinality(self, size: int) -> TypeError_:
        return TypeError_(
            "XPTY0004",
            f"{self.who}: cardinality {size} does not match "
            f"occurrence {self.occurrence or 'exactly-one'!r}")


class Signature:
    """A function's declared types bound once — the converter of each
    parameter and of the result — so a Bulk RPC message converts each
    parameter column with one call (the engine's function cache holds
    it per (module, function, arity)), and the served verdict: whether
    a message to the function runs as one loop-lifted plan."""

    __slots__ = ("decl", "params", "result", "liftable")

    def __init__(self, decl: A.FunctionDecl, liftable: bool) -> None:
        self.decl = decl
        self.liftable = liftable
        self.params = [Converter(param.seq_type, f"{decl.name}(${param.name})")
                       for param in decl.params]
        self.result = Converter(decl.return_type, f"{decl.name}() result")


def convert_value(sequence: list, seq_type: A.SequenceType, who: str) -> list:
    """Apply the function conversion rules to *sequence* for *seq_type*
    (see :class:`Converter`)."""
    return Converter(seq_type, who).sequence(sequence)


def convert_arguments(decl: A.FunctionDecl,
                      args: list[list]) -> dict[str, list]:
    """One call's parameter bindings of *decl*: each argument under the
    function conversion rules for its declared type."""
    return {
        param.name: convert_value(value, param.seq_type,
                                  f"{decl.name}(${param.name})")
        for param, value in zip(decl.params, args)}


def convert_result(decl: A.FunctionDecl, result: list) -> list:
    """A non-updating call's result under *decl*'s return type."""
    return convert_value(result, decl.return_type, f"{decl.name}() result")


def describe(seq_type: A.SequenceType) -> str:
    """Human-readable rendering, e.g. ``"element()*"`` (for messages)."""
    item_type = seq_type.item_type
    if item_type.kind == "empty":
        return "empty-sequence()"
    if item_type.kind == "atomic":
        assert item_type.atomic_type is not None
        base: str = item_type.atomic_type.name
    elif item_type.kind == "item":
        base = "item()"
    else:
        inner = item_type.name or ""
        base = f"{item_type.kind}({inner})"
    return base + seq_type.occurrence
