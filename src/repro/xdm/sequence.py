"""Sequence-level XDM operations.

XQuery values are flat sequences of items.  This module implements the
operations the evaluator needs on whole sequences: atomization, effective
boolean value (EBV), string value, fn:deep-equal, and document-order
sorting with duplicate elimination (the semantics of path steps and the
``|`` operator).
"""

from __future__ import annotations

from typing import Iterable, Sequence as PySequence, Union

from repro.errors import DynamicError, TypeError_
from repro.xdm.atomic import AtomicValue, value_compare
from repro.xdm.nodes import (
    AttributeNode,
    CommentNode,
    DocumentNode,
    ElementNode,
    Node,
    ProcessingInstructionNode,
    TextNode,
)
from repro.xdm.types import xs

Item = Union[AtomicValue, Node]
XDMSequence = list  # list[Item]


def is_node(item: Item) -> bool:
    return isinstance(item, Node)


def atomize(sequence: Iterable[Item]) -> list[AtomicValue]:
    """fn:data() — replace each node by its typed value."""
    result: list[AtomicValue] = []
    for item in sequence:
        if isinstance(item, Node):
            result.extend(item.typed_value())
        else:
            result.append(item)
    return result


def effective_boolean_value(sequence: PySequence[Item]) -> bool:
    """The EBV rules of XPath 2.0 (fn:boolean)."""
    if not sequence:
        return False
    first = sequence[0]
    if isinstance(first, Node):
        return True
    if len(sequence) > 1:
        raise DynamicError(
            "FORG0006",
            "effective boolean value of a sequence of multiple atomic values",
        )
    value = first
    if value.type is xs.boolean:
        return bool(value.value)
    if value.is_numeric:
        number = float(value.value)
        return not (number == 0 or number != number)  # NaN check
    if value.type.derives_from(xs.string) or value.type in (
            xs.untypedAtomic, xs.anyURI):
        return bool(value.string_value())
    raise DynamicError(
        "FORG0006", f"no effective boolean value for type {value.type.name}")


def string_value(sequence: PySequence[Item]) -> str:
    """fn:string() applied to a zero-or-one item sequence."""
    if not sequence:
        return ""
    if len(sequence) > 1:
        raise TypeError_("XPTY0004", "fn:string expects at most one item")
    item = sequence[0]
    if isinstance(item, Node):
        return item.string_value()
    return item.string_value()


def singleton(item: Item) -> list[Item]:
    return [item]


def document_order_sort(nodes: Iterable[Node]) -> list[Node]:
    """Sort nodes by document order and remove duplicates (by identity)."""
    seen: set[int] = set()
    unique: list[Node] = []
    for node in nodes:
        if id(node) not in seen:
            seen.add(id(node))
            unique.append(node)
    unique.sort(key=lambda n: n.order_key)
    return unique


def deep_equal(left: PySequence[Item], right: PySequence[Item]) -> bool:
    """fn:deep-equal — pairwise structural equality of two sequences."""
    if len(left) != len(right):
        return False
    return all(_item_deep_equal(a, b) for a, b in zip(left, right))


def _item_deep_equal(left: Item, right: Item) -> bool:
    if isinstance(left, AtomicValue) and isinstance(right, AtomicValue):
        try:
            return value_compare(left, "eq", right)
        except (DynamicError, TypeError_):
            return False
    if isinstance(left, Node) and isinstance(right, Node):
        return _node_deep_equal(left, right)
    return False


def _node_deep_equal(left: Node, right: Node) -> bool:
    if left.kind != right.kind:
        return False
    if isinstance(left, (TextNode, CommentNode)):
        return left.string_value() == right.string_value()
    if isinstance(left, ProcessingInstructionNode):
        assert isinstance(right, ProcessingInstructionNode)
        return left.target == right.target and left.content == right.content
    if isinstance(left, AttributeNode):
        assert isinstance(right, AttributeNode)
        return left.local_name == right.local_name and left.value == right.value
    if isinstance(left, DocumentNode):
        return _children_deep_equal(left, right)
    if isinstance(left, ElementNode):
        assert isinstance(right, ElementNode)
        if left.local_name != right.local_name:
            return False
        left_attrs = {a.local_name: a.value for a in left.attributes
                      if not a.name.startswith("xmlns")}
        right_attrs = {a.local_name: a.value for a in right.attributes
                       if not a.name.startswith("xmlns")}
        if left_attrs != right_attrs:
            return False
        return _children_deep_equal(left, right)
    return False


def _comparable_children(node: Node) -> list[Node]:
    """Children relevant for deep-equal: elements and non-whitespace text."""
    children = []
    for child in node.children:
        if isinstance(child, TextNode):
            children.append(child)
        elif isinstance(child, ElementNode):
            children.append(child)
    return children


def _children_deep_equal(left: Node, right: Node) -> bool:
    left_children = _comparable_children(left)
    right_children = _comparable_children(right)
    if len(left_children) != len(right_children):
        return False
    return all(
        _node_deep_equal(a, b) for a, b in zip(left_children, right_children))
