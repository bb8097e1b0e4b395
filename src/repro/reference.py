"""The reference oracle: the tree interpreter over naive axis walkers.

What the product's answers are checked against: the interpreter of
:mod:`repro.xquery.evaluator` with every path step evaluated the slow,
obviously-correct way — per context node, walk the node's own
parent/child links, filter, sort the pooled results into document order
— and no index of any kind: no :class:`StructuralIndex` window scans, no
:class:`ValueIndex` probes, no FLWOR hash joins.  It shares the language
semantics with what it checks, and none of the storage-layer machinery.

Only tests import this module; nothing under ``src/`` does.
``Database(try_lifted=False)`` is *not* this: that is the product's
interpreter, staircase scans and value indexes included.
"""

from __future__ import annotations

import functools
from typing import Any, Callable, Iterable, Optional

from repro.errors import TypeError_
from repro.xdm.nodes import DocumentNode, Node
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
