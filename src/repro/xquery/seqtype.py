"""SequenceType matching and the XQuery function conversion rules.

Used for function parameter/return conversion, ``instance of``,
``treat as`` and ``typeswitch``.  The paper notes that XRPC requires the
*caller* to perform parameter up-casting; these are the rules that
casting follows.
"""

from __future__ import annotations


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


def convert_value(sequence: list, seq_type: A.SequenceType, who: str) -> list:
    """Apply the function conversion rules to *sequence* for *seq_type*.

    Atomic expected types atomize the argument, cast untypedAtomic and
    apply numeric promotion; node kinds are checked structurally.

    Raises
    ------
    TypeError_
        code ``XPTY0004`` when the value cannot be converted.
    """
    item_type = seq_type.item_type

    if item_type.kind == "empty":
        if sequence:
            raise TypeError_("XPTY0004", f"{who}: expected empty-sequence()")
        return []

    if item_type.kind == "atomic":
        target = item_type.atomic_type
        assert target is not None
        converted: list = []
        for value in atomize(sequence):
            if value.type is xs.untypedAtomic and target is not xs.untypedAtomic:
                converted.append(cast(value, target))
            elif value.type.derives_from(target):
                converted.append(value)
            elif _promotable(value.type, target):
                converted.append(cast(value, target))
            else:
                raise TypeError_(
                    "XPTY0004",
                    f"{who}: cannot convert {value.type.name} to {target.name}")
        sequence = converted
    elif item_type.kind != "item":
        for item in sequence:
            if not item_matches(item, item_type):
                kind = item.kind if isinstance(item, Node) else type(item).__name__
                raise TypeError_(
                    "XPTY0004",
                    f"{who}: expected {item_type.kind}(), got {kind}")

    if not _occurrence_ok(len(sequence), seq_type.occurrence):
        raise TypeError_(
            "XPTY0004",
            f"{who}: cardinality {len(sequence)} does not match "
            f"occurrence {seq_type.occurrence or 'exactly-one'!r}")
    return sequence


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
