"""Axis-step operators over ``iter|pos|item`` node tables.

This is the relational pushdown the ROADMAP asks for: a path step in a
loop-lifted plan evaluates as window predicates over the per-tree
:class:`~repro.xdm.structural.StructuralIndex` columns (descendant:
``pre in (pre, pre+size]``; child: descendant ∧ ``level = level+1``,
realised as the size-skipping scan; attribute via the separate attribute
table; name tests via the tag partition) instead of per-node tree walks.

The staircase-join core itself lives in
:func:`repro.xdm.structural.axis_window_scan`, so the output of every
step is duplicate-free and document-ordered *by construction*; the
operator only re-derives the dense ``pos`` column per iteration.  These
operators are the one implementation of each axis: the lifted plan
calls them over its loop's iterations, the tree interpreter over its
context sequence as one iteration.

A step whose predicates are all statically positional (``[n]``,
``[last()]``, ``position()`` comparisons) is :func:`positional_step`:
``T[n]`` is a rank over each context node's window (§3's
pre|size|level encoding), computed per tree in one pass over the
windows instead of one iteration per context node.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Callable, Optional

from repro.algebra.table import Table
from repro.errors import TypeError_
from repro.xdm.nodes import AttributeNode, ElementNode, Node
from repro.xdm.sequence import document_order_sort
from repro.xdm.structural import (
    REVERSE_AXES,
    StructuralIndex,
    ValueIndex,
    axis_scan_batched,
    axis_window_scan,
    split_context,
    staircase_prune,
    structural_index,
    tree_groups,
)

__all__ = [
    "ANY_NAMESPACE",
    "axis_step",
    "axis_value_index",
    "contains_filter",
    "equality_probe_step",
    "merge_exploded_contexts",
    "positional_spec_keep",
    "positional_step",
    "window_rank",
]


def axis_step(table: Table, axis: str, matches: Callable[[Node], bool],
              local_name: Optional[str] = None,
              match_all: bool = False) -> Table:
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

    Raises
    ------
    TypeError_:
        ``XPTY0019``: a non-node item in the context.
    """
    # Group rows by iteration; the table is iter-ordered (the compiler's
    # order invariant), so the groups come out in iteration order.
    by_iter: dict = {}
    for it, _pos, item in table.rows:
        if not isinstance(item, Node):
            raise TypeError_(
                "XPTY0019", "path step applied to a non-node item")
        by_iter.setdefault(it, []).append(item)
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
                                    match_all=match_all)
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

    for it, members in by_iter.items():
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
    return Table(("iter", "pos", "item"), rows)


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

    plans: dict[int, object] = {}
    rows: list[tuple] = []
    current_iter = None
    pos = 0
    hits = 0
    for it, _pos, item in table.rows:
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
        if it != current_iter:
            current_iter = it
            pos = 0
        pos += 1
        hits += 1
        rows.append((it, pos, item))
    SEARCH_STATS.bump("search_queries")
    if hits:
        SEARCH_STATS.bump("postings_hits", hits)
    return Table(("iter", "pos", "item"), rows)


#: Axes whose windows of non-nested context nodes are disjoint and come
#: in the contexts' document order.
_ORDERED_WINDOWS = frozenset(
    ("child", "descendant", "descendant-or-self", "self", "attribute"))

#: ``[last()]`` and ``[position() = last()]``.
_LAST_SPECS = (("last",), ("pos-cmp", "eq", ("last",)))


def positional_step(table: Table, axis: str, specs: list[tuple],
                    matches: Callable[[Node], bool],
                    local_name: Optional[str] = None,
                    match_all: bool = False) -> Table:
    """An axis step whose predicates are all statically positional, as
    a rank over each context node's window.

    *specs* are the predicates' spec tuples in order (see
    :func:`repro.xquery.evaluator.positional_predicate_spec`); a rank
    counts from the window's end on the ``REVERSE_AXES``, where XPath
    numbers nearest-first.  Per iteration and tree the windows come
    from one pass (:func:`_ranked_windows`); iterations whose context
    is one tree node batch into one pass per tree, as in
    :func:`axis_step`.  The result is duplicate-free with a dense
    ``pos``; the kept nodes of several context nodes are re-sorted only
    when their windows can interleave — nested contexts, attribute
    contexts, or an axis whose windows overlap.

    Raises
    ------
    TypeError_:
        ``XPTY0019``: a non-node item in the context, as
        :func:`axis_step` raises.
    """
    by_iter: dict = {}
    for it, _pos, item in table.rows:
        if not isinstance(item, Node):
            raise TypeError_(
                "XPTY0019", "path step applied to a non-node item")
        by_iter.setdefault(it, []).append(item)
    reverse = axis in REVERSE_AXES

    def ranked(index: StructuralIndex, pres: list[int]) -> tuple[dict, bool]:
        return _ranked_windows(index, axis, pres, specs, matches,
                               local_name, match_all)

    rows: list[tuple] = []
    pending: list[tuple] = []  # (iteration, pre): one tree node each
    pending_index = None

    def flush() -> None:
        nonlocal pending_index
        if pending:
            kept, _nested = ranked(pending_index,
                                   sorted({pre for _it, pre in pending}))
            for it, pre in pending:
                rows.extend((it, pos, node) for pos, node
                            in enumerate(kept.get(pre, ()), start=1))
            pending.clear()
        pending_index = None

    for it, members in by_iter.items():
        if len(members) == 1 \
                and not isinstance(members[0], AttributeNode):
            index = structural_index(members[0].root())
            if index is not pending_index:
                flush()
                pending_index = index
            pending.append((it, index.rank_of(members[0])))
            continue
        flush()
        results: list[Node] = []
        for root, group in tree_groups(members):
            index = structural_index(root)
            ctx_pres, attr_members = split_context(index, group)
            kept, nested = ranked(index, ctx_pres)
            nodes = [node for p in ctx_pres for node in kept.get(p, ())]
            for attribute in attr_members:
                nodes.extend(_rank(axis_window_scan(
                    index, axis, [], [attribute], matches=matches,
                    local_name=local_name, match_all=match_all),
                    specs, reverse))
            if attr_members or (len(ctx_pres) > 1 and (
                    nested or axis not in _ORDERED_WINDOWS)):
                nodes = document_order_sort(nodes)
            results.extend(nodes)
        rows.extend((it, pos, node)
                    for pos, node in enumerate(results, start=1))
    flush()
    return Table(("iter", "pos", "item"), rows)


def _ranked_windows(index: StructuralIndex, axis: str, pres: list[int],
                    specs: list[tuple], matches: Callable[[Node], bool],
                    local_name: Optional[str],
                    match_all: bool) -> tuple[dict, bool]:
    """The kept nodes of each context node's window, by context pre and
    in document order, and whether the contexts nest.

    *pres* are one tree's distinct context pres, ascending.  A leading
    ``[n]`` stops each window at its n-th match in axis order (``[0]``
    and ``[1.5]`` keep nothing).  The windows come from one pass: a
    name-tested child step over nested contexts scans the name
    partition once over the staircase-pruned subtrees, counting each
    candidate toward its parent's window; another child test walks
    each context's children, from the end for ``[last()]``; every other
    step is one :func:`axis_scan_batched` call tagged by context pre.
    """
    sizes = index.sizes
    roots = staircase_prune(pres, sizes)
    nested = len(roots) < len(pres)
    first = specs[0]
    limit = None
    if first[0] == "literal":
        n = first[1]
        if not (n >= 1 and n.is_integer()):
            return {}, nested  # no position is 0, negative or fractional
        limit = int(n)
    windows: dict[int, list[Node]] = {}
    if axis != "child" or (local_name is not None and not nested):
        for tag, node in axis_scan_batched(
                index, axis, [(p, p) for p in pres], matches=matches,
                local_name=local_name, match_all=match_all, limit=limit):
            windows.setdefault(tag, []).append(node)
        reverse = axis in REVERSE_AXES
        return {p: _rank(window, specs, reverse)
                for p, window in windows.items()}, nested
    tail = first in _LAST_SPECS
    nodes = index.nodes
    if local_name is None:
        for p in pres:
            children = nodes[p].children
            window = []
            for child in (reversed(children) if tail else children):
                if match_all or matches(child):
                    window.append(child)
                    if tail or len(window) == limit:
                        break
            if window:
                windows[p] = window
    else:
        rank_of = index.rank_of
        names = index.name_pres(local_name)
        contexts = set(pres)
        for root in roots:
            lo = bisect_right(names, root)
            for q in names[lo:bisect_right(names, root + sizes[root], lo)]:
                node = nodes[q]
                parent = rank_of(node.parent)
                if parent not in contexts or not matches(node):
                    continue
                window = windows.get(parent)
                if window is None:
                    windows[parent] = [node]
                elif tail:
                    window[0] = node
                elif limit is None or len(window) < limit:
                    window.append(node)
    rest = specs[1:] if tail else specs
    if not rest:
        return windows, nested
    return {p: _rank(window, rest, False)
            for p, window in windows.items()}, nested


def positional_spec_keep(spec: tuple, position: int, count: int) -> bool:
    """Does the item at 1-based *position* in a *count*-item window
    survive *spec* (see
    :func:`repro.xquery.evaluator.positional_predicate_spec`)?  Float
    comparisons mirror XPath numeric predicate semantics (``[1.5]``
    keeps nothing)."""
    kind = spec[0]
    if kind == "literal":
        return position == spec[1]
    if kind == "last":
        return position == count
    op = spec[1]
    target = float(count) if spec[2] == ("last",) else spec[2][1]
    if op == "eq":
        return position == target
    if op == "ne":
        return position != target
    if op == "lt":
        return position < target
    if op == "le":
        return position <= target
    if op == "gt":
        return position > target
    return position >= target


def _rank(window: list, specs: list[tuple], reverse: bool) -> list:
    """*window* (document order) cut down by each spec in turn; a
    position counts from the end on a reverse axis."""
    for spec in specs:
        count = len(window)
        window = [node for rank, node in enumerate(window, start=1)
                  if positional_spec_keep(
                      spec, count - rank + 1 if reverse else rank, count)]
    return window


def window_rank(table: Table,
                spec: tuple | Callable[[tuple, int, int], bool],
                reverse: bool = False) -> Table:
    """Positional predicate as a rank computation over per-iteration
    doc-ordered windows.

    Each iteration's rows form one context window (the compiler
    explodes the context of a step with a predicate known only at run
    time, so one iteration is one context node).  The row's rank in the window is its position — counted
    from the window's *end* for reverse axes, where XPath numbers
    nearest-first — and *spec* decides which ranks survive: a static
    spec tuple (see
    :func:`repro.xquery.evaluator.positional_predicate_spec`), or a
    callable ``spec(row, position, count)`` for a predicate whose value
    is known per row only at run time.  Rows stay in document order;
    ``pos`` is re-derived dense per iteration.  *table*'s rows lead with
    ``iter, pos, item``; a callable *spec* sees any further columns.
    """
    dynamic = callable(spec)
    by_iter: dict = {}
    for row in table.rows:
        by_iter.setdefault(row[0], []).append(row)
    rows: list[tuple] = []
    for it, window in by_iter.items():
        count = len(window)
        pos = 0
        for rank, row in enumerate(window, start=1):
            position = count - rank + 1 if reverse else rank
            if (spec(row, position, count) if dynamic
                    else positional_spec_keep(spec, position, count)):
                pos += 1
                rows.append((it, pos, row[2]))
    return Table(("iter", "pos", "item"), rows)


def merge_exploded_contexts(table: Table, outer: list[int]) -> Table:
    """Undo a per-context explosion: map inner iterations back to their
    outer iteration (inner iteration *k* belongs to ``outer[k - 1]``,
    non-decreasing in *k*) and re-establish *step* semantics — the
    per-context results of one outer iteration union into a
    duplicate-free, document-ordered sequence (unlike a FLWOR unwind,
    which concatenates).  *table* is ordered by ``iter``, so the outer
    iterations arrive in order.
    """
    by_outer: dict = {}
    for it, _pos, node in table.rows:
        by_outer.setdefault(outer[it - 1], []).append(node)
    return Table(("iter", "pos", "item"), [
        (it, pos, node) for it, nodes in by_outer.items()
        for pos, node in enumerate(document_order_sort(nodes), start=1)])


#: The namespace of a name that any namespace URI matches (``*:name``).
ANY_NAMESPACE = "*"


def equality_probe_step(table: Table, axis: str, name: tuple,
                        key_path: tuple,
                        probes_by_iter: dict[int, list[str]],
                        matches: Callable[[Node], bool],
                        ) -> Optional[Table]:
    """Axis step + equality predicate as one hash-join probe.

    The relational form of ``axis::name[path = value]``: instead of
    scanning the axis window and re-evaluating the predicate per
    candidate (a per-iteration re-scan), probe the per-anchor value
    index (:func:`axis_value_index`, cached on the tree's
    ``StructuralIndex``) with each iteration's probe strings.  Matches
    come back in document order and duplicate-free.

    Parameters
    ----------
    table:
        ``iter|pos|item`` context relation.
    axis:
        ``child`` or ``descendant`` (the indexable axes).
    name:
        ``(namespace URI, local name)`` the step's non-wildcard name
        test resolves to (URI ``None``: no namespace;
        :data:`ANY_NAMESPACE`: any).
    key_path:
        Hashable predicate key path from
        ``_indexable_predicate_key_path``: ``(axis, namespace URI,
        local name)`` per step, resolved the same way.
    probes_by_iter:
        Probe strings per iteration (an absent iteration probes
        nothing: ``[x = ()]`` keeps no candidates).
    matches:
        The step's node test, resolved in the caller's namespace
        environment (see :func:`axis_value_index`).

    Returns ``None`` when a context shape the probe cannot serve
    appears (multi-node or attribute contexts, non-node items) —
    callers fall back to the scan-then-filter pipeline.
    """
    # One context node per iteration, in iteration order (the table is
    # iter-ordered).
    anchors: dict = {}
    for it, _pos, item in table.rows:
        if not isinstance(item, Node) or isinstance(item, AttributeNode):
            return None
        if it in anchors:
            return None  # multi-node context: staircase scan handles it
        anchors[it] = item
    rows: list[tuple] = []
    indexes: dict = {}  # per anchor: iterations mostly share one
    for it, anchor in anchors.items():
        probes = probes_by_iter.get(it)
        if not probes:
            continue
        index = indexes.get(anchor)
        if index is None:
            index = indexes[anchor] = axis_value_index(
                anchor, axis, name, key_path, matches)
        found: list[Node] = []
        for value in probes:
            found.extend(index.get(value, ()))
        for pos, node in enumerate(document_order_sort(found), start=1):
            rows.append((it, pos, node))
    return Table(("iter", "pos", "item"), rows)


def axis_value_index(anchor: Node, axis: str, name: tuple, key_path: tuple,
                     matches: Callable[[Node], bool]) -> ValueIndex:
    """Equality-predicate value index for one (anchor, axis, name, key path).

    Maps each key-path string value to the matching axis nodes — the
    hash-join probe side of ``step[path = value]`` for a ``child`` or
    ``descendant`` step with a non-wildcard name.  Cached on the tree's
    :class:`~repro.xdm.structural.StructuralIndex` under the anchor's
    *pre rank* (the index pins the tree's nodes, so no ``id()`` reuse)
    and the names it resolved — namespace URIs, not the prefixes a query
    happened to bind — and from then on *maintained* by the index's
    patch hooks: an XQUF update re-keys the members it touches instead
    of dropping the index, and only a full rebuild of the structural
    index (or the deletion of the anchor) discards it.  *matches* is the step's node
    test; the index keeps it for those hooks, so it must not hold a
    dynamic context alive.
    """
    structure = structural_index(anchor.root())
    anchor_pre = structure.rank_of_opt(anchor)
    cache_key = (anchor_pre, axis, *name, key_path)
    if anchor_pre is None:
        # Unranked anchor (an attribute): nothing below it, not cached.
        candidates: list[Node] = []
    else:
        cached = structure.value_indexes.get(cache_key)
        if cached is not None:
            return cached
        # Candidates straight off the tag partition: the anchor's window
        # holds far more rows than carry the step's name.
        nodes = structure.nodes
        pres = structure.window(
            anchor_pre, anchor_pre + structure.sizes[anchor_pre], name[1])
        if axis == "child":
            levels = structure.levels
            child_level = levels[anchor_pre] + 1
            pres = [pre for pre in pres if levels[pre] == child_level]
        candidates = [nodes[pre] for pre in pres]

    def keys(node: Node) -> tuple:
        return _walk_key_path(node, key_path)

    by_value: dict = {}
    keys_of: dict = {}
    for node in candidates:
        if not matches(node):
            continue
        values = _walk_key_path(node, key_path)
        if not values:
            continue
        keys_of[node] = values
        for value in values:
            bucket = by_value.get(value)
            if bucket is None:
                by_value[value] = {node: None}
            else:
                bucket[node] = None
    index = ValueIndex(anchor, axis == "child", matches, keys,
                       by_value, keys_of)
    if anchor_pre is not None:
        structure.value_indexes[cache_key] = index
    return index


def _walk_key_path(node: Node, key_path: tuple) -> tuple:
    """Evaluate an indexable key path, returning its string values."""
    current = [node]
    for axis, ns_uri, local in key_path:
        advanced: list[Node] = []
        any_namespace = ns_uri == ANY_NAMESPACE
        for item in current:
            if axis == "child":
                advanced.extend(
                    child for child in item.children
                    if isinstance(child, ElementNode)
                    and child.local_name == local
                    and (any_namespace or child.ns_uri == ns_uri))
            else:
                advanced.extend(
                    attribute for attribute in item.attributes
                    if attribute.local_name == local
                    and (any_namespace or attribute.ns_uri == ns_uri))
        current = advanced
    return tuple(item.string_value() for item in current)
