"""Axis-step operators over ``iter|pos|item`` node tables.

This is the relational pushdown the ROADMAP asks for: a path step in a
loop-lifted plan evaluates as window predicates over the per-tree
:class:`~repro.xdm.structural.StructuralIndex` columns (descendant:
``pre in (pre, pre+size]``; child: descendant ∧ ``level = level+1``,
realised as the size-skipping scan; attribute via the separate attribute
table; name tests via the tag partition) instead of per-node tree walks.

The staircase-join core itself lives in
:func:`repro.xdm.structural.axis_window_scan` — one implementation
shared with the interpreter's accelerated axis evaluation — so the
output of every step is duplicate-free and document-ordered *by
construction*; the operator only re-derives the dense ``pos`` column
per iteration.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.algebra.table import Table
from repro.xdm.nodes import AttributeNode, Node
from repro.xdm.sequence import document_order_sort
from repro.xdm.structural import (
    axis_scan_batched,
    axis_window_scan,
    split_context,
    structural_index,
    tree_groups,
)
from repro.xquery.evaluator import axis_value_index, positional_spec_keep

__all__ = [
    "axis_step",
    "contains_filter",
    "equality_probe_step",
    "merge_exploded_contexts",
    "positional_filter",
]


def axis_step(table: Table, axis: str, matches: Callable[[Node], bool],
              local_name: Optional[str] = None,
              match_all: bool = False,
              limit: Optional[int] = None) -> Table:
    """Map an ``iter|pos|item`` node table through one axis step.

    Every iteration's context sequence becomes a staircase-pruned window
    scan over its trees' pre/size/level columns; the result rows carry a
    fresh dense ``pos`` per iteration and are emitted in iteration order.

    Parameters
    ----------
    table:
        ``iter|pos|item`` relation whose items are all nodes.
    axis:
        Any XPath axis; all twelve are window scans over the index.
    matches:
        Node-test predicate for candidates (see
        :func:`repro.xquery.evaluator.node_test_matches`).
    local_name:
        Non-wildcard element name test — scans the tag partition.
    match_all:
        The test is ``node()``; skip per-candidate filtering.
    limit:
        Keep only each iteration's first *limit* matches in axis order
        (the early-exit for a leading positional ``[n]`` predicate).
        Applied on the batched single-context path only — the general
        path returns the full window, which the positional rank filter
        trims to the identical result.

    Raises
    ------
    ValueError:
        A non-node item in the context, or an axis name that is not
        XPath's (callers translate this into their fallback signal).
    """
    iter_index = table.col("iter")
    item_index = table.col("item")
    # Group rows by iteration, preserving the table's (typically already
    # iter-sorted) order; only pay a sort when input arrives shuffled.
    by_iter: dict = {}
    ascending = True
    previous = None
    for row in table.rows:
        it = row[iter_index]
        item = row[item_index]
        if not isinstance(item, Node):
            raise ValueError("path step over a non-node item")
        members = by_iter.get(it)
        if members is None:
            by_iter[it] = [item]
            if previous is not None and it < previous:
                ascending = False
            previous = it
        else:
            members.append(item)
    iters = list(by_iter) if ascending else sorted(by_iter)
    rows: list[tuple] = []
    # Batch accumulator: consecutive iterations whose context is a
    # single tree node of the same tree — the shape every for-lifted
    # step produces — scan in ONE set-at-a-time pass instead of paying
    # per-iteration grouping/pruning/dispatch overhead.
    pending: list[tuple] = []
    pending_index = None

    def flush() -> None:
        nonlocal pending_index
        if not pending:
            return
        scanned = axis_scan_batched(pending_index, axis, pending,
                                    matches=matches, local_name=local_name,
                                    match_all=match_all, limit=limit)
        last = None
        pos = 0
        for tag, node in scanned:
            if tag != last:
                last = tag
                pos = 0
            pos += 1
            rows.append((tag, pos, node))
        pending.clear()
        pending_index = None

    for it in iters:
        members = by_iter[it]
        if len(members) == 1 \
                and not isinstance(members[0], AttributeNode):
            node = members[0]
            index = structural_index(node.root())
            if pending_index is not None and index is not pending_index:
                flush()
            pending_index = index
            pending.append((it, index.rank_of(node)))
            continue
        flush()
        # General path: multi-node (or attribute) contexts go through
        # tree grouping, context splitting and staircase pruning.
        results: list[Node] = []
        for root, group in tree_groups(members):
            index = structural_index(root)
            ctx_pres, attr_members = split_context(index, group)
            results.extend(axis_window_scan(
                index, axis, ctx_pres, attr_members, matches=matches,
                local_name=local_name, match_all=match_all))
        for pos, node in enumerate(results, start=1):
            rows.append((it, pos, node))
    flush()
    return Table._of(("iter", "pos", "item"), rows)


def contains_filter(table: Table, needle: str) -> Table:
    """``[contains(., "lit")]`` as a posting-list prefilter + verify.

    The keyword-search twin of the equality probe: instead of computing
    every candidate's string value and substring-testing it (the
    interpreter's per-candidate cost — ``string_value`` walks the whole
    subtree), consult the tree's lazily built
    :class:`~repro.search.index.TermIndex`.  The needle's token
    constraints are joined against the term postings over each
    candidate's ``[pre, pre + size]`` serial window (two bisects per
    token), and only the surviving candidates pay the exact
    (case-sensitive) substring verify — so results stay byte-identical
    to the interpreter's ``fn:contains`` while non-matching subtrees
    are dismissed without touching their text.

    Rows keep document order within each iteration; ``pos`` is
    re-derived dense per iteration, exactly like the other predicates.
    """
    if not table.rows:
        return table  # no candidate: no search is made, none is counted
    from repro.search.index import term_index_for
    from repro.search.stats import SEARCH_STATS

    iter_index = table.col("iter")
    item_index = table.col("item")
    plans: dict[int, object] = {}
    rows: list[tuple] = []
    current_iter = None
    pos = 0
    hits = 0
    for row in table.rows:
        item = row[item_index]
        if isinstance(item, Node):
            root = item.root()
            plan = plans.get(id(root))
            if plan is None:
                plan = term_index_for(root).contains_plan(needle)
                plans[id(root)] = plan
            if not plan.candidate(item):
                continue
            if needle not in item.string_value():
                continue
        else:
            # Atomized/constructed items: plain row-wise containment.
            value = item.string_value() \
                if hasattr(item, "string_value") else str(item)
            if needle not in value:
                continue
        it = row[iter_index]
        if it != current_iter:
            current_iter = it
            pos = 0
        pos += 1
        hits += 1
        rows.append((it, pos, item))
    SEARCH_STATS.bump("search_queries")
    if hits:
        SEARCH_STATS.bump("postings_hits", hits)
    return Table._of(("iter", "pos", "item"), rows)


def positional_filter(table: Table, spec: tuple,
                      reverse: bool = False) -> Table:
    """Positional predicate as a rank computation over per-iteration
    doc-ordered windows.

    Each iteration's rows form one context window (the compiler
    explodes multi-node contexts so one iteration is one context
    node).  The row's rank in the window is its position — counted
    from the window's *end* for reverse axes, where XPath numbers
    nearest-first — and *spec* (see
    :func:`repro.xquery.evaluator.positional_predicate_spec`) decides
    which ranks survive.  Rows stay in document order; ``pos`` is
    re-derived dense per iteration.
    """
    iter_index = table.col("iter")
    item_index = table.col("item")
    by_iter: dict = {}
    for row in table.rows:
        by_iter.setdefault(row[iter_index], []).append(row[item_index])
    rows: list[tuple] = []
    for it, window in by_iter.items():
        count = len(window)
        pos = 0
        for rank, item in enumerate(window, start=1):
            position = count - rank + 1 if reverse else rank
            if positional_spec_keep(spec, position, count):
                pos += 1
                rows.append((it, pos, item))
    return Table._of(("iter", "pos", "item"), rows)


def merge_exploded_contexts(table: Table, mapping: Table) -> Table:
    """Undo a per-context explosion: map inner iterations back to their
    outer iteration and re-establish *step* semantics — the per-context
    results of one outer iteration union into a duplicate-free,
    document-ordered sequence (unlike a FLWOR unwind, which
    concatenates).
    """
    joined = table.join(mapping, "iter", "inner")
    outer_index = joined.col("outer")
    item_index = joined.col("item")
    by_outer: dict = {}
    order: list = []
    for row in joined.rows:
        outer = row[outer_index]
        members = by_outer.get(outer)
        if members is None:
            by_outer[outer] = [row[item_index]]
            order.append(outer)
        else:
            members.append(row[item_index])
    order.sort()
    rows: list[tuple] = []
    for outer in order:
        for pos, node in enumerate(document_order_sort(by_outer[outer]),
                                   start=1):
            rows.append((outer, pos, node))
    return Table._of(("iter", "pos", "item"), rows)


def equality_probe_step(table: Table, axis: str, node_test,
                        key_path: tuple,
                        probes_by_iter: dict[int, list[str]],
                        static) -> Optional[Table]:
    """Axis step + equality predicate as one hash-join probe.

    The relational form of ``axis::name[path = value]``: instead of
    scanning the axis window and re-evaluating the predicate per
    candidate (a per-iteration re-scan), probe the per-anchor value
    index the interpreter already builds
    (:func:`repro.xquery.evaluator.axis_value_index`, cached on the
    tree's ``StructuralIndex``) with each iteration's probe strings.
    Matches come back in document order, duplicate handling identical to
    the interpreter's indexed step.

    Parameters
    ----------
    table:
        ``iter|pos|item`` context relation.
    axis:
        ``child`` or ``descendant`` (the indexable axes).
    node_test:
        Non-wildcard :class:`~repro.xquery.xast.NameTest` of the step.
    key_path:
        Hashable predicate key path from
        ``_indexable_predicate_key_path``.
    probes_by_iter:
        Probe strings per iteration (an absent iteration probes
        nothing: ``[x = ()]`` keeps no candidates).
    static:
        Static context for name-test namespace resolution.

    Returns ``None`` when a context shape the probe cannot serve
    appears (multi-node or attribute contexts, non-node items) —
    callers fall back to the scan-then-filter pipeline.
    """
    iter_index = table.col("iter")
    item_index = table.col("item")
    by_iter: dict = {}
    ascending = True
    previous = None
    for row in table.rows:
        it = row[iter_index]
        item = row[item_index]
        if not isinstance(item, Node) or isinstance(item, AttributeNode):
            return None
        members = by_iter.get(it)
        if members is None:
            by_iter[it] = [item]
            if previous is not None and it < previous:
                ascending = False
            previous = it
        else:
            return None  # multi-node context: staircase scan handles it
    rows: list[tuple] = []
    for it in (by_iter if ascending else sorted(by_iter)):
        probes = probes_by_iter.get(it)
        if not probes:
            continue
        [anchor] = by_iter[it]
        index = axis_value_index(anchor, axis, node_test, key_path, static)
        matches: list[Node] = []
        for value in probes:
            matches.extend(index.get(value, ()))
        for pos, node in enumerate(document_order_sort(matches), start=1):
            rows.append((it, pos, node))
    return Table._of(("iter", "pos", "item"), rows)
