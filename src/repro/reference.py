"""The reference oracles: what the product's answers are checked against.

*Queries* — :func:`evaluate`: the interpreter of
:mod:`repro.xquery.evaluator` with every path step evaluated the slow,
obviously-correct way — per context node, walk the node's own
parent/child links, filter, sort the pooled results into document order
— and no index of any kind: no :class:`StructuralIndex` window scans, no
:class:`ValueIndex` probes, no FLWOR hash joins.  It shares the language
semantics with what it checks, and none of the storage-layer machinery.

*Unmarshalling* — :func:`n2s`: the value holders of an ``xrpc:sequence``
read off a message that was parsed into a whole tree first; it shares
the holder vocabulary with the event-driven decode it checks
(:class:`repro.soap.messages._MessageDecoder`) and none of its state
machine.

Only tests import this module; nothing under ``src/`` does (CI checks).
``Database(try_lifted=False)`` is *not* this: that is the product's
interpreter, staircase scans and value indexes included.
"""

from __future__ import annotations

import functools
from typing import Any, Callable, Iterable, Optional

from repro.errors import TypeError_, XRPCFault
from repro.soap.marshal import atomic_value, shipped_attribute
from repro.xdm.atomic import AtomicValue
from repro.xdm.nodes import (
    CommentNode,
    DocumentNode,
    ElementNode,
    Node,
    ProcessingInstructionNode,
    TextNode,
)
from repro.xdm.sequence import document_order_sort
from repro.xquery import xast as A
from repro.xquery.context import DynamicContext, ExecutionContext
from repro.xquery.evaluator import CompiledQuery, Evaluator, Sequence


#: Axis name -> the nodes on that axis of one context node, read off
#: the node's own links (the parser admits no other axis name).
_WALKERS: dict[str, Callable[[Node], Iterable[Node]]] = {
    "child": lambda node: node.children,
    "descendant": lambda node: node.descendants(),
    "descendant-or-self": lambda node: node.descendants(include_self=True),
    "attribute": lambda node: node.attributes,
    "self": lambda node: [node],
    "parent": lambda node: [node.parent] if node.parent is not None else [],
    "ancestor": lambda node: node.ancestors(),
    "ancestor-or-self": lambda node: [node, *node.ancestors()],
    "following-sibling": lambda node: node.following_siblings(),
    "preceding-sibling": lambda node: node.preceding_siblings(),
    "following": lambda node: node.following(),
    "preceding": lambda node: node.preceding(),
}


class ReferenceEvaluator(Evaluator):
    """The interpreter with per-node axis walks and no indexes."""

    def _eval_axis_step(self, step: A.AxisStep, input_sequence: Sequence,
                        ctx: DynamicContext) -> Sequence:
        for item in input_sequence:
            if not isinstance(item, Node):
                raise TypeError_(
                    "XPTY0019", "path step applied to a non-node item")
        results: list[Node] = []
        for item in input_sequence:
            candidates = [
                node for node in _WALKERS[step.axis](item)
                if self._node_test_matches(node, step.node_test, step.axis, ctx)
            ]
            candidates = self._apply_predicates(candidates, step.predicates, ctx)
            results.extend(candidates)
        return document_order_sort(results)

    def _try_indexed_step(self, step: A.AxisStep, input_sequence: Sequence,
                          ctx: DynamicContext) -> Optional[Sequence]:
        return None  # never probe (or build) a ValueIndex


class _ReferenceQuery(CompiledQuery):
    evaluator_class = ReferenceEvaluator


#: Compiled once per source text, like the engine's plan cache: the
#: update matrices ask the same probes after every operation.
_compile = functools.lru_cache(maxsize=512)(_ReferenceQuery)


def evaluate(source: str,
             doc_resolver: Optional[Callable[[str], DocumentNode]] = None,
             variables: Optional[dict[str, list]] = None,
             context_item: Any = None) -> Sequence:
    """The result sequence of *source* according to the oracle.

    Reads only: a pending update list is dropped, not applied (update
    tests compare against a fresh parse of the serialized tree).
    """
    result, _pul = _compile(source).run(ExecutionContext(
        doc_resolver=doc_resolver,
        variables=variables,
        context_item=context_item,
        optimize_joins=False,
    ))
    return result


# ---------------------------------------------------------------------------
# Unmarshalling


def n2s(sequence_element: ElementNode) -> list[AtomicValue | Node]:
    """Unmarshal a parsed ``<xrpc:sequence>`` element into an XDM sequence.

    Node values are *adopted* out of the message tree — detached from
    their holder with the parent link cleared — rather than deep-copied:
    the parsed message tree is itself a fresh copy of the sender's data,
    so adoption keeps the call-by-value guarantee (empty upward/sideways
    axes).
    """
    return [_unmarshal_item(holder)
            for holder in sequence_element.child_elements()]


def _adopt(holder: ElementNode, node: Node) -> Node:
    """Detach *node* from its holder: a standalone fragment, no copy.

    The fragment becomes a tree root of its own; any structural index
    covering the message tree is invalidated so a later query against
    the fragment builds its own pre/size/level view.
    """
    node._invalidate_index()
    holder.children.remove(node)
    node.parent = None
    return node


def _unmarshal_item(holder: ElementNode) -> AtomicValue | Node:
    kind = holder.local_name
    if kind == "atomic-value":
        type_attr = holder.get_attribute("xsi:type") \
            or holder.get_attribute("type")
        return atomic_value(type_attr.value if type_attr else None,
                            holder.string_value())
    if kind == "element":
        element = next(
            (c for c in holder.children if isinstance(c, ElementNode)), None)
        if element is None:
            raise XRPCFault(
                "env:Sender", "xrpc:element holder without child element")
        return _adopt(holder, element)
    if kind == "document":
        # Reuse the holder's order key for the document node: it precedes
        # its adopted children's keys, keeping document order consistent.
        document = DocumentNode(holder.order_key)
        holder._invalidate_index()
        children = list(holder.children)
        holder.children.clear()
        for child in children:
            document.append(child)
        return document
    if kind == "attribute":
        index = shipped_attribute(
            (attribute.name, attribute.ns_uri)
            for attribute in holder.attributes)
        if index is None:
            raise XRPCFault(
                "env:Sender", "xrpc:attribute holder without attribute")
        source = holder.attributes[index]
        source.parent = None
        return source
    if kind == "text":
        return TextNode(holder.order_key, holder.string_value())
    if kind == "comment":
        return CommentNode(holder.order_key, holder.string_value())
    if kind == "pi":
        target_attr = holder.get_attribute("target")
        target = target_attr.value if target_attr else "pi"
        return ProcessingInstructionNode(
            holder.order_key, target, holder.string_value())
    raise XRPCFault("env:Sender", f"unknown XRPC value element <{kind}>")
