"""XPath-accelerator structural encoding and per-tree index.

This module adds the storage-layer machinery of the *XPath accelerator*
(Grust's pre/size/level encoding, the representation Pathfinder compiles
paths against inside MonetDB/XQuery):

* every node carries a ``pre / size / level`` stamp — ``pre`` is the
  node's document-order serial (``order_key[1]``), ``size`` the number of
  serials issued inside its subtree (attributes included), ``level`` its
  construction depth;
* per tree root, a lazily built :class:`StructuralIndex` materialises the
  pre-ordered node array plus subtree extents and depths, and partitions
  element pres by tag name — the columns a window scan needs to answer
  ``descendant`` (``pre in (pre, pre+size]``), ``following``
  (``pre > pre+size``) and friends without walking the tree;
* the *gapped pre-plane*: order-key serials are spaced
  :data:`~repro.xdm.nodes.KEY_STRIDE` apart, so a small XQUF splice
  usually mints its keys inside the gap between its document-order
  neighbours (:func:`reencode_spliced_children` /
  :func:`reencode_spliced_attributes`) in O(change); when a gap is
  exhausted, the nearest enclosing region is re-spread
  (:func:`_respread_region`), and only in the worst case does
  :func:`reencode_tree` restamp the whole tree;
* incremental :class:`StructuralIndex` maintenance: the PUL applier
  splices/evicts rows, patches the tag-name partitions and edits the
  cached equality-probe :class:`ValueIndex` objects (``patch_insert``
  / ``patch_delete`` / ``patch_rename`` / ``patch_content`` /
  ``patch_attributes`` / ``patch_respread``) instead of the historical
  stale-flag → full rebuild;
* :data:`ENCODING_STATS` counts what the update path actually did,
  surfaced through ``Explain.counters`` and
  ``Database.stats().counters`` as ``updates.*``.

Index invalidation stays O(1) at mutation time: building an index
stamps every tree node with a back-reference (``_sidx``); the mutating
entry points (``append``/``set_attribute``/PUL primitives) flip the
referenced index's ``stale`` bit when such a stamp is present.  The
staircase windows below operate on *positional* pre ranks (array
indices of the index, always dense) — they compare and slice, never
assume the stamped serials are dense, so sparse order keys need no
changes there.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right, insort
from typing import Callable, Iterator, Optional

from repro.obs import Counters
from repro.xdm.nodes import (
    KEY_STRIDE,
    AttributeNode,
    ElementNode,
    Node,
    _next_doc_id,
)


#: Process-wide counters of the structural-encoding maintenance (bumped
#: from any thread; the RPC server applies PULs on worker threads).
ENCODING_STATS = Counters("updates", {
    "reencodes_full":
        "whole-tree restamps (the worst-case update fallback)",
    "reencodes_subtree":
        "splices that only stamped the new content (gap minting) or one "
        "enclosing region",
    "gap_respreads":
        "subtree splices that found their key gap spent and first had to "
        "re-spread an enclosing region's keys",
    "index_patches":
        "in-place `StructuralIndex` row/partition patches",
    "index_builds":
        "full `StructuralIndex` (re)builds",
    "value_index_evictions":
        "equality-probe indexes dropped because their anchor was deleted "
        "or their tree's patch was abandoned",
})


class ValueIndex:
    """One maintained equality-probe index: the hash-join probe side of
    ``anchor/axis::name[key-path = value]``.

    ``by_value`` maps each key-path string value to its members (a dict
    used as an identity-keyed ordered set — probes sort their matches
    anyway); ``keys_of`` is the member → posted-values reverse map the
    un-post needs, because the patch hooks run *after* a value changed.
    ``matches`` / ``keys`` are the node test and key-path evaluators the
    index was built with (supplied by the step; the storage layer
    does not know XQuery name resolution), ``child_only`` says the step
    axis was ``child`` rather than ``descendant``.
    """

    __slots__ = ("anchor", "child_only", "matches", "keys", "by_value",
                 "keys_of", "get")

    def __init__(self, anchor: Node, child_only: bool,
                 matches: Callable[[Node], bool],
                 keys: Callable[[Node], tuple],
                 by_value: dict, keys_of: dict) -> None:
        self.anchor = anchor
        self.child_only = child_only
        self.matches = matches
        self.keys = keys
        self.by_value = by_value
        self.keys_of = keys_of
        #: The probe: ``get(value, ())`` iterates the members whose key
        #: path yields *value* (``by_value`` is only ever edited in
        #: place, so the bound method stays current).
        self.get = by_value.get

    def rekey(self, node: Node) -> None:
        """Bring the postings of *node* — a node on the index's axis
        below the anchor — in line with the tree: whether it still (or
        now) passes the node test, and what its key path yields."""
        old = self.keys_of.get(node, ())
        new = self.keys(node) if self.matches(node) else ()
        if new == old:
            return
        self.discard(node)
        if new:
            self.keys_of[node] = new
            by_value = self.by_value
            for value in new:
                bucket = by_value.get(value)
                if bucket is None:
                    by_value[value] = {node: None}
                else:
                    bucket[node] = None

    def discard(self, node: Node) -> None:
        """Un-post *node* (a no-op for non-members)."""
        old = self.keys_of.pop(node, None)
        if old is None:
            return
        by_value = self.by_value
        for value in old:
            bucket = by_value.get(value)
            if bucket is not None:
                bucket.pop(node, None)
                if not bucket:
                    del by_value[value]


class StructuralIndex:
    """Pre/size/level columns of one tree, in document order.

    ``nodes[pre]`` is the tree node with positional pre rank ``pre``
    (attributes are not ranked; they are reached through their owner
    element, matching the accelerator's separate attribute table).
    ``sizes[pre]`` is the number of tree nodes in the subtree below it,
    so the descendant window of ``pre`` is ``(pre, pre + sizes[pre]]``.
    ``levels[pre]`` is the depth below the tree root.

    ``sizes`` and ``levels`` are flat ``array.array("q")`` planes (the
    node row array stays a Python list of node objects): window kernels
    bisect and slice contiguous machine-word columns instead of chasing
    a pointer per comparison, and the O(change) update path splices the
    planes in place with the same slice operations as the node rows.
    """

    __slots__ = ("root", "generation", "stale", "nodes", "sizes", "levels",
                 "pre_of", "_by_name", "value_indexes", "term_index")

    def __init__(self, root: Node, generation: int) -> None:
        self.root = root
        self.generation = generation
        self.stale = False
        # Equality-predicate value indexes (the equality probe step's
        # hash-join build side), keyed (anchor rank, axis, prefix, local, key path).
        # They live on the index so a full rebuild drops them with it;
        # the patch hooks below edit them in place.
        self.value_indexes: dict[tuple, ValueIndex] = {}
        # Inverted term index (repro.search.TermIndex), attached lazily
        # by term_index_for(); duck-typed here so the storage layer does
        # not depend on the search package.  It shares this index's
        # lifetime (a stale structural index drops the postings too) and
        # is patched by the same hooks that splice the columns.
        self.term_index = None
        self._by_name: Optional[dict[str, list[int]]] = None
        self._build(root)

    # -- construction ------------------------------------------------------

    def _build(self, root: Node) -> None:
        nodes: list[Node] = [root]
        sizes: list[int] = [0]
        levels: list[int] = [0]
        pre_of: dict[int, int] = {id(root): 0}
        root._sidx = self
        for attribute in root.attributes:
            attribute._sidx = self
        stack: list[tuple[int, Iterator[Node]]] = [(0, iter(root.children))]
        while stack:
            parent_pre, children = stack[-1]
            child = next(children, None)
            if child is None:
                stack.pop()
                sizes[parent_pre] = len(nodes) - parent_pre - 1
                continue
            pre = len(nodes)
            pre_of[id(child)] = pre
            nodes.append(child)
            sizes.append(0)
            levels.append(len(stack))
            child._sidx = self
            for attribute in child.attributes:
                attribute._sidx = self
            stack.append((pre, iter(child.children)))
        self.nodes = nodes
        self.sizes = array("q", sizes)
        self.levels = array("q", levels)
        self.pre_of = pre_of
        ENCODING_STATS.bump("index_builds")

    # -- rank lookup (self-healing) ----------------------------------------
    #
    # ``pre_of`` is a *cache* of node → positional rank, complete after a
    # build.  Row splices do NOT eagerly renumber the tail (that would
    # make every patch O(doc)); instead each lookup validates its cached
    # rank against the node array (``nodes[rank] is node``) and lazily
    # re-resolves through an order-key bisect when a splice shifted it.
    # Read-only workloads always hit; after an update only the ranks a
    # query actually touches pay the O(log n) repair.

    def rank_of(self, node: Node) -> int:
        """Positional pre rank of *node*; raises KeyError when the node
        is not a ranked row of this index (e.g. an attribute)."""
        rank = self.rank_of_opt(node)
        if rank is None:
            raise KeyError(node)
        return rank

    def rank_of_opt(self, node: Node) -> Optional[int]:
        """Like :meth:`rank_of`, but ``None`` for unranked nodes."""
        nodes = self.nodes
        rank = self.pre_of.get(id(node))
        if rank is not None and rank < len(nodes) and nodes[rank] is node:
            return rank
        if isinstance(node, AttributeNode):
            return None  # attributes are never ranked: no O(n) fallback
        rank = self._resolve_rank(node)
        if rank is not None:
            self.pre_of[id(node)] = rank
        return rank

    def _resolve_rank(self, node: Node) -> Optional[int]:
        """Bisect the node array by order key (monotone in rank for
        every tree the incremental path maintains), with a linear scan
        as the safety net for hand-assembled non-monotone trees."""
        nodes = self.nodes
        key = node.order_key
        low, high = 0, len(nodes)
        while low < high:
            mid = (low + high) // 2
            if nodes[mid].order_key < key:
                low = mid + 1
            else:
                high = mid
        if low < len(nodes) and nodes[low] is node:
            return low
        for rank, candidate in enumerate(nodes):
            if candidate is node:
                return rank
        return None

    # -- incremental maintenance -------------------------------------------
    #
    # The XQUF applier keeps a live index consistent across a PUL by
    # splicing/evicting rows at the mutation point instead of letting the
    # stale flag force a full rebuild.  All patches work on *positional*
    # pre ranks; the gapped order-key serials never enter here.  Every
    # patch returns False when it cannot locate its splice point (node
    # not covered by this index) — the caller stale-marks and falls back.

    def patch_insert(self, parent: Node, roots: list[Node]) -> bool:
        """Splice freshly inserted subtrees into the columns.

        *roots* are contiguous new children of *parent*, already present
        in its child list.  Rows are inserted at the run's document
        position, ancestor subtree sizes grow, the tag partitions shift,
        and every value index anchored on an ancestor-or-self of
        *parent* posts the run's matching nodes and re-keys the members
        above the splice (their key values may reach into it).
        """
        parent_pre = self.rank_of_opt(parent)
        if parent_pre is None:
            return False
        if not roots:
            return True
        siblings = parent.children
        first = _identity_index(siblings, roots[0])
        if first is None:
            return False
        if first == 0:
            pos = parent_pre + 1
        else:
            prev_pre = self.rank_of_opt(siblings[first - 1])
            if prev_pre is None:
                return False
            pos = prev_pre + self.sizes[prev_pre] + 1
        new_nodes: list[Node] = []
        new_sizes: list[int] = []
        new_levels: list[int] = []
        base_level = self.levels[parent_pre] + 1
        for root in roots:
            offset = len(new_nodes)
            new_nodes.append(root)
            new_sizes.append(0)
            new_levels.append(base_level)
            root._sidx = self
            for attribute in root.attributes:
                attribute._sidx = self
            stack: list[tuple[int, Iterator[Node]]] = [
                (offset, iter(root.children))]
            while stack:
                parent_offset, children = stack[-1]
                child = next(children, None)
                if child is None:
                    stack.pop()
                    new_sizes[parent_offset] = \
                        len(new_nodes) - parent_offset - 1
                    continue
                child_offset = len(new_nodes)
                new_nodes.append(child)
                new_sizes.append(0)
                new_levels.append(new_levels[parent_offset] + 1)
                child._sidx = self
                for attribute in child.attributes:
                    attribute._sidx = self
                stack.append((child_offset, iter(child.children)))
        count = len(new_nodes)
        self.nodes[pos:pos] = new_nodes
        # array.array slice assignment requires a same-typecode array.
        self.sizes[pos:pos] = array("q", new_sizes)
        self.levels[pos:pos] = array("q", new_levels)
        ancestor: Optional[Node] = parent
        while ancestor is not None:
            self.sizes[self.rank_of(ancestor)] += count
            ancestor = ancestor.parent
        new_elements = [
            (pos + offset, node.local_name)
            for offset, node in enumerate(new_nodes)
            if isinstance(node, ElementNode)]
        self._patch_partitions(pos, count, new_elements)
        self._patch_value_indexes(pos, count)
        for value_index, chain in self._covering_value_indexes(parent):
            if not value_index.child_only:
                spliced = new_nodes
            elif parent is value_index.anchor:
                spliced = roots
            else:
                spliced = ()
            for node in spliced:
                value_index.rekey(node)
            for node in chain:
                value_index.rekey(node)
        if self.term_index is not None:
            self.term_index.on_insert(new_nodes)
        ENCODING_STATS.bump("index_patches")
        return True

    def patch_delete(self, target: Node) -> bool:
        """Evict the rows of *target*'s subtree.

        Must run while *target* is still attached — ancestor sizes are
        reached through its parent chain.  The gapped key plane needs no
        key work for deletes (freed serials simply become gaps).  Value
        indexes only lose the removed rows here: the members *above*
        the target still see it as their child, so the caller re-keys
        them with :meth:`rekey_value_indexes` once it is detached.
        """
        pre_of = self.pre_of
        pos = self.rank_of_opt(target)
        if pos is None:
            return False
        count = self.sizes[pos] + 1
        removed = self.nodes[pos:pos + count]
        for node in removed:
            pre_of.pop(id(node), None)
            if node._sidx is self:
                node._sidx = None
            for attribute in node.attributes:
                if attribute._sidx is self:
                    attribute._sidx = None
        ancestor = target.parent
        while ancestor is not None:
            self.sizes[self.rank_of(ancestor)] -= count
            ancestor = ancestor.parent
        del self.nodes[pos:pos + count]
        del self.sizes[pos:pos + count]
        del self.levels[pos:pos + count]
        self._patch_partitions(pos, -count)
        self._patch_value_indexes(pos, -count)
        if target.parent is not None:
            for value_index, _ in self._covering_value_indexes(target.parent):
                for node in removed:
                    value_index.discard(node)
        if self.term_index is not None:
            # After the row splice: the seam repair must see the
            # post-delete text sequence (the detached nodes still hold
            # their content, so un-posting needs no reverse lookup).
            self.term_index.on_delete(removed)
        ENCODING_STATS.bump("index_patches")
        return True

    def patch_rename(self, node: Node, old_local: Optional[str]) -> bool:
        """Re-partition one renamed element (or an attribute's owner)."""
        if isinstance(node, AttributeNode):
            return self.patch_content(node)
        pos = self.rank_of_opt(node)
        if pos is None:
            return False
        by_name = self._by_name
        if by_name is not None and isinstance(node, ElementNode):
            old = by_name.get(old_local)
            if old is not None:
                index = bisect_left(old, pos)
                if index < len(old) and old[index] == pos:
                    old.pop(index)
            insort(by_name.setdefault(node.local_name, []), pos)
        self.rekey_value_indexes(node)
        ENCODING_STATS.bump("index_patches")
        return True

    def patch_content(self, node: Node) -> bool:
        """A value-only mutation (replace value, attribute set/remove):
        rows and order keys stay valid; only the value-index members
        whose key path reaches the node are re-keyed."""
        row = node.parent if isinstance(node, AttributeNode) else node
        if row is None or self.rank_of_opt(row) is None:
            return False
        self.rekey_value_indexes(row)
        if self.term_index is not None:
            self.term_index.on_content(node)
        ENCODING_STATS.bump("index_patches")
        return True

    def patch_attributes(self, owner: Node,
                         attrs: list[Node] = ()) -> bool:
        """Attribute-table change on *owner* (insert/replace/delete).

        Attributes are not ranked, so no rows move; new attributes are
        stamped with this index's back-reference and the value-index
        members whose key path reaches the owner are re-keyed.
        """
        if self.rank_of_opt(owner) is None:
            return False
        for attribute in attrs:
            attribute._sidx = self
        self.rekey_value_indexes(owner)
        if self.term_index is not None:
            self.term_index.on_attributes(owner)
        ENCODING_STATS.bump("index_patches")
        return True

    def patch_respread(self, region: Node,
                       restamp: Callable[[], None]) -> None:
        """Run *restamp* — a gap respread re-keying every node below
        *region* — keeping the term index in step.

        Rows and value indexes hold nodes and positional ranks, which a
        re-key does not move; the term index is keyed by order-key
        serial, so it brackets the restamp with an un-post under the
        old serials and a re-post under the new
        (``TermIndex.on_respread``).  Content spliced in by the running
        primitive is not a row yet and is posted by its own
        ``patch_insert`` / ``patch_attributes``.
        """
        term_index = self.term_index
        pos = None if term_index is None else self.rank_of_opt(region)
        if pos is None:
            self.term_index = None  # nothing to re-key, or no way to
            restamp()
            return
        term_index.on_respread(self.nodes[pos:pos + self.sizes[pos] + 1],
                               restamp)
        ENCODING_STATS.bump("index_patches")

    def _patch_partitions(self, pos: int, delta: int,
                          new_elements: list[tuple[int, str]] = ()) -> None:
        """Shift the tag-name partitions across a row splice at *pos*
        (``delta`` rows inserted, or ``-delta`` rows removed from
        ``[pos, pos - delta)``) and register new element ranks.  Each
        list is sorted, so only its suffix past the splice is touched."""
        by_name = self._by_name
        if by_name is None:
            return
        if delta > 0:
            for pres in by_name.values():
                start = bisect_left(pres, pos)
                if start < len(pres):
                    pres[start:] = [q + delta for q in pres[start:]]
        elif delta < 0:
            cut = pos - delta
            for pres in by_name.values():
                low = bisect_left(pres, pos)
                if low == len(pres):
                    continue
                high = bisect_left(pres, cut, low)
                pres[low:] = [q + delta for q in pres[high:]]
        for pre, name in new_elements:
            insort(by_name.setdefault(name, []), pre)

    def _patch_value_indexes(self, pos: int, delta: int) -> None:
        """Shift value-index anchor ranks across a row splice at *pos*
        and drop the indexes whose anchor itself was removed."""
        if not self.value_indexes:
            return
        removed_end = pos - delta if delta < 0 else pos
        kept: dict[tuple, ValueIndex] = {}
        for key, value_index in self.value_indexes.items():
            anchor = key[0]
            if pos <= anchor < removed_end:
                continue
            if anchor >= pos:
                key = (anchor + delta,) + key[1:]
            kept[key] = value_index
        dropped = len(self.value_indexes) - len(kept)
        self.value_indexes = kept
        if dropped:
            ENCODING_STATS.bump("value_index_evictions", dropped)

    def _covering_value_indexes(
            self, node: Node) -> Iterator[tuple[ValueIndex, list[Node]]]:
        """Every value index anchored on an ancestor-or-self of *node*,
        each with the rows on *node*'s ancestor-or-self chain that lie on
        its axis — the only existing rows whose key values a change at
        or below *node* can reach (at most depth-many; for a ``child``
        index just the anchor's own child on that chain)."""
        if not self.value_indexes:
            return
        chain: list[Node] = []
        current: Optional[Node] = node
        while current is not None:
            chain.append(current)
            current = current.parent
        depth_of = {id(member): depth for depth, member in enumerate(chain)}
        for value_index in self.value_indexes.values():
            depth = depth_of.get(id(value_index.anchor))
            if depth is None:
                continue
            low = max(depth - 1, 0) if value_index.child_only else 0
            yield value_index, chain[low:depth]

    def rekey_value_indexes(self, node: Node) -> None:
        """Re-key the ancestors-or-self of *node* in every value index
        covering it — what every hook does after its mutation, and what
        the PUL applier calls on the former parent once a deleted or
        replaced node is detached (``patch_delete`` runs earlier)."""
        for value_index, chain in self._covering_value_indexes(node):
            for member in chain:
                value_index.rekey(member)

    # -- tag-name partition ------------------------------------------------

    def name_pres(self, local_name: str) -> list[int]:
        """Sorted pre ranks of elements with the given local name."""
        by_name = self._by_name
        if by_name is None:
            by_name = self._by_name = {}
            for pre, node in enumerate(self.nodes):
                if isinstance(node, ElementNode):
                    by_name.setdefault(node.local_name, []).append(pre)
        return by_name.get(local_name, _EMPTY_PRES)

    # -- window scans ------------------------------------------------------

    def window(self, low: int, high: int,
               local_name: Optional[str] = None) -> list[int]:
        """Pre ranks in the half-open window ``(low, high]``."""
        if local_name is None:
            return list(range(low + 1, min(high, len(self.nodes) - 1) + 1))
        pres = self.name_pres(local_name)
        return pres[bisect_right(pres, low):bisect_right(pres, high)]

    def after(self, boundary: int,
              local_name: Optional[str] = None) -> list[int]:
        """Pre ranks strictly greater than *boundary* (following window)."""
        if local_name is None:
            return list(range(boundary + 1, len(self.nodes)))
        pres = self.name_pres(local_name)
        return pres[bisect_right(pres, boundary):]

    def before(self, boundary: int,
               local_name: Optional[str] = None) -> list[int]:
        """Pre ranks strictly less than *boundary* (preceding window)."""
        if local_name is None:
            return list(range(0, boundary))
        pres = self.name_pres(local_name)
        return pres[:bisect_left(pres, boundary)]

    def ancestor_pres(self, pre: int) -> list[int]:
        """Pre ranks of the ancestors of *pre*, nearest first."""
        result: list[int] = []
        node = self.nodes[pre].parent
        while node is not None:
            result.append(self.rank_of(node))
            node = node.parent
        return result


_EMPTY_PRES: list[int] = []


def structural_index(root: Node) -> StructuralIndex:
    """The (cached) structural index of the tree rooted at *root*.

    Rebuilt lazily when the cached index is stale (tree mutated) or was
    built for a different root (the node was adopted into another tree).
    """
    index = root._sidx
    if index is not None and not index.stale and index.root is root:
        return index
    generation = root._struct_gen + 1
    root._struct_gen = generation
    return StructuralIndex(root, generation)


def invalidate_structural_index(node: Node) -> None:
    """Mark the index covering *node* stale, if one was ever built."""
    index = node._sidx
    if index is not None:
        index.stale = True


def reencode_tree(root: Node) -> None:
    """Restamp ``order_key`` / ``size`` / ``level`` over a whole tree.

    The worst-case fallback of the update path (and the repair pass for
    hand-assembled trees whose keys are not monotone): one pre-order
    pass re-keys the whole tree under a fresh ``doc_id`` — attributes
    are stamped directly after their owner, exactly like the parsers do
    — and invalidates any cached structural index.  Keys are re-issued
    *with gaps* (:data:`~repro.xdm.nodes.KEY_STRIDE`) so subsequent
    small updates return to the O(change) fast path.
    """
    invalidate_structural_index(root)
    _restamp_tree(root, _next_doc_id(), KEY_STRIDE)
    ENCODING_STATS.bump("reencodes_full")


def rekey_detached(root: Node) -> None:
    """Restamp a subtree an update just detached under a fresh doc id.

    A delete frees its serials into the source tree's gap plane, where
    a later insert may mint them again — so a held reference to the
    detached node must not keep its old key, or two distinct nodes
    could compare as the same document position.  Restamping the
    detached fragment (O(detached), part of the change) preserves the
    process-wide uniqueness of order keys, exactly like ``copy_tree``
    fragments and the historical full re-encode did.
    """
    _restamp_tree(root, _next_doc_id(), KEY_STRIDE)


def _restamp_tree(root: Node, doc_id: int, step: int) -> None:
    """One pre-order restamp pass over *root*'s whole subtree."""
    root.order_key = (doc_id, 0)
    root.level = 0
    serial = _stamp_attributes(root.attributes, doc_id, 0, step, 1)
    root.size = _stamp_run(root.children, doc_id, serial, step, 1)


# -- O(change) re-encoding: gap minting and region respreads ---------------


def _identity_index(nodes_list: list, target: Node) -> Optional[int]:
    """Position of *target* (by identity) in a sibling list, or None —
    works even while *target* carries a foreign, non-monotone key.  The
    list is searched from both ends at once, so a node near either end
    — where an append or a prepend splices — is found in a few visits
    whatever the list's length."""
    low, high = 0, len(nodes_list) - 1
    while low <= high:
        if nodes_list[high] is target:
            return high
        if nodes_list[low] is target:
            return low
        low += 1
        high -= 1
    return None


def subtree_key_count(node: Node) -> int:
    """Number of order keys a subtree occupies (attributes included)."""
    count = 0
    stack = [node]
    while stack:
        current = stack.pop()
        count += 1 + len(current.attributes)
        stack.extend(current.children)
    return count


def _next_key_after(node: Node) -> Optional[tuple[int, int]]:
    """Order key of the first node *after* node's subtree in document
    order, or ``None`` when the subtree ends the document."""
    current = node
    while True:
        parent = current.parent
        if parent is None:
            return None
        siblings = parent.children
        index = _identity_index(siblings, current)
        if index is not None and index + 1 < len(siblings):
            return siblings[index + 1].order_key
        current = parent


def _stamp_attributes(attrs: list, doc_id: int, serial: int, step: int,
                      level: int) -> int:
    """Stamp an attribute run (keys directly after their owner, size 0),
    invalidating each attribute's previous index back-reference;
    returns the last serial issued."""
    for attribute in attrs:
        serial += step
        attribute.order_key = (doc_id, serial)
        attribute.level = level
        attribute.size = 0
        invalidate_structural_index(attribute)
    return serial


def _stamp_run(roots: list[Node], doc_id: int, prev_serial: int,
               step: int, base_level: int) -> int:
    """Preorder-restamp sibling subtrees with serials ``prev_serial +
    step, + 2*step, ...`` (attributes directly after their owner);
    returns the last serial issued (``prev_serial`` for an empty run).
    Every stamped node's previous index back-reference is invalidated.
    """
    serial = prev_serial
    for root in roots:
        invalidate_structural_index(root)
        serial += step
        root.order_key = (doc_id, serial)
        root.level = base_level
        serial = _stamp_attributes(root.attributes, doc_id, serial, step,
                                   base_level + 1)
        stack: list[tuple[Node, Iterator[Node]]] = [(root, iter(root.children))]
        while stack:
            parent, children = stack[-1]
            child = next(children, None)
            if child is None:
                stack.pop()
                parent.size = serial - parent.order_key[1]
                continue
            invalidate_structural_index(child)
            serial += step
            child.order_key = (doc_id, serial)
            child.level = parent.level + 1
            serial = _stamp_attributes(child.attributes, doc_id, serial,
                                       step, child.level + 1)
            stack.append((child, iter(child.children)))
    return serial


def _bump_ancestor_sizes(node: Optional[Node], last_serial: int,
                         doc_id: int) -> None:
    """Extend the serial-unit subtree extents on *node* and its
    ancestors so freshly minted serials up to *last_serial* fall inside
    their descendant windows (only needed for end-of-subtree splices,
    where the gap borrowed room from an ancestor's envelope)."""
    while node is not None:
        if node.order_key[0] == doc_id:
            extent = last_serial - node.order_key[1]
            if extent > node.size:
                node.size = extent
        node = node.parent


def _respread_region(region: Node,
                     index: Optional[StructuralIndex]) -> bool:
    """Re-spread every key inside *region*'s subtree evenly across its
    serial envelope ``(region.serial, next-key-after-region)`` — the
    local recovery when a splice gap is exhausted.  Region's own key is
    kept.  Returns False when even the envelope is too small (the
    caller climbs towards the root).  *index* is the live index the
    caller is patching, if any: its serial-keyed term index is re-keyed
    around the restamp (:meth:`StructuralIndex.patch_respread`)."""
    prev_key = region.order_key
    needed = subtree_key_count(region) - 1
    next_key = _next_key_after(region)
    if next_key is None:
        step = KEY_STRIDE
    else:
        if next_key[0] != prev_key[0] or next_key[1] - prev_key[1] <= needed:
            return False
        step = (next_key[1] - prev_key[1]) // (needed + 1)
    doc_id = prev_key[0]

    def restamp() -> None:
        serial = _stamp_attributes(region.attributes, doc_id, prev_key[1],
                                   step, region.level + 1)
        last = _stamp_run(region.children, doc_id, serial, step,
                          region.level + 1)
        region.size = last - prev_key[1]
        _bump_ancestor_sizes(region.parent, last, doc_id)

    if index is None:
        restamp()
    else:
        index.patch_respread(region, restamp)
    return True


def _climb_respread(start: Node, index: Optional[StructuralIndex]) -> str:
    """Gap exhausted at *start*: re-spread the nearest enclosing region
    with room, falling back to a whole-tree re-encode at the root."""
    region = start
    while region.parent is not None:
        if _respread_region(region, index):
            ENCODING_STATS.bump("gap_respreads")
            ENCODING_STATS.bump("reencodes_subtree")
            return "respread"
        region = region.parent
    reencode_tree(region)
    return "full"


def reencode_spliced_children(parent: Node, roots: list[Node],
                              index: Optional[StructuralIndex] = None,
                              ) -> str:
    """Mint order keys for subtrees freshly spliced under *parent*.

    Fast path: the run's keys fit in the serial gap between its
    document-order neighbours, so *only the new nodes* are stamped —
    O(inserted) regardless of document size (``"subtree"``).  A run
    takes at most :data:`~repro.xdm.nodes.KEY_STRIDE` per key, never an
    even share of the whole gap: the wide gap at the tail of a region
    is what repeated appends live on, and spreading each run across it
    would spend it geometrically (a handful of appends instead of
    ``gap / (STRIDE × run)`` of them).  When the gap is exhausted (or
    the boundary keys are unusable — foreign doc ids, non-monotone
    hand-built trees), the nearest enclosing region is re-spread
    (``"respread"``, re-keying the term index of *index*, the live
    index the caller is patching); at the very worst the whole tree is
    re-encoded (``"full"``).  Returns which path ran.

    O(change) necessarily trusts the keys it does not look at: a tree
    whose existing keys are monotone (everything the parsers,
    ``copy_tree``, the constructors and ``reencode_tree`` produce)
    stays monotone, but pre-existing disorder far from the splice point
    is *not* repaired here — axis evaluation is unaffected (it reads
    the positional index), and :func:`reencode_tree` remains the
    explicit repair pass.
    """
    if not roots:
        return "subtree"
    siblings = parent.children
    first = _identity_index(siblings, roots[0])
    last_index = _identity_index(siblings, roots[-1])
    if first is None or last_index is None:
        reencode_tree(parent.root())
        return "full"
    if first == 0:
        attrs = parent.attributes
        prev_key = attrs[-1].order_key if attrs else parent.order_key
    else:
        prev_sibling = siblings[first - 1]
        prev_key = (prev_sibling.order_key[0],
                    prev_sibling.order_key[1] + prev_sibling.size)
    if last_index + 1 < len(siblings):
        next_key: Optional[tuple] = siblings[last_index + 1].order_key
    else:
        next_key = _next_key_after(parent)
    doc_id = prev_key[0]
    needed = sum(subtree_key_count(root) for root in roots)
    if next_key is None:
        step = KEY_STRIDE
    elif next_key[0] == doc_id and next_key[1] - prev_key[1] > needed:
        step = min(KEY_STRIDE, (next_key[1] - prev_key[1]) // (needed + 1))
    else:
        return _climb_respread(parent, index)
    last = _stamp_run(roots, doc_id, prev_key[1], step, parent.level + 1)
    _bump_ancestor_sizes(parent, last, doc_id)
    ENCODING_STATS.bump("reencodes_subtree")
    return "subtree"


def reencode_spliced_attributes(owner: Node, attrs: list[Node],
                                index: Optional[StructuralIndex] = None,
                                ) -> str:
    """Mint order keys for attributes freshly added to *owner*.

    Attribute keys live between the owner (plus its prior attributes)
    and the owner's first child, so the XDM rule "attributes sort after
    their element, before its children" keeps holding under global
    document-order merges.  Same capped gap → respread → full ladder
    as :func:`reencode_spliced_children`.
    """
    if not attrs:
        return "subtree"
    existing = owner.attributes
    first = _identity_index(existing, attrs[0])
    last_index = _identity_index(existing, attrs[-1])
    if first is None or last_index is None:
        reencode_tree(owner.root())
        return "full"
    prev_key = existing[first - 1].order_key if first > 0 \
        else owner.order_key
    if last_index + 1 < len(existing):
        next_key: Optional[tuple] = existing[last_index + 1].order_key
    elif owner.children:
        next_key = owner.children[0].order_key
    else:
        next_key = _next_key_after(owner)
    doc_id = prev_key[0]
    needed = len(attrs)
    if next_key is None:
        step = KEY_STRIDE
    elif next_key[0] == doc_id and next_key[1] - prev_key[1] > needed:
        step = min(KEY_STRIDE, (next_key[1] - prev_key[1]) // (needed + 1))
    else:
        return _climb_respread(owner, index)
    serial = _stamp_attributes(attrs, doc_id, prev_key[1], step,
                               owner.level + 1)
    _bump_ancestor_sizes(owner, serial, doc_id)
    ENCODING_STATS.bump("reencodes_subtree")
    return "subtree"


def staircase_prune(sorted_pres: list[int], sizes: list[int]) -> list[int]:
    """Drop context pres covered by an earlier context's subtree window.

    This is the staircase-join pruning step: on a pre-sorted context
    sequence, any node inside a previous node's ``(pre, pre+size]``
    window contributes no new descendants (and no new following nodes),
    so the windows that remain are disjoint and ascending — their
    concatenated scans are duplicate-free and document-ordered *by
    construction*.
    """
    pruned: list[int] = []
    covered = -1
    for pre in sorted_pres:
        if pre <= covered:
            continue
        pruned.append(pre)
        end = pre + sizes[pre]
        if end > covered:
            covered = end
    return pruned


def split_context(index: StructuralIndex,
                  members: list) -> tuple[list[int], list[Node]]:
    """Split a context sequence into pre-ranked tree nodes and attributes.

    The accelerator keeps attributes out of the pre array (MonetDB's
    separate attribute table), so window scans take sorted unique context
    pres plus the attribute members to route through their owners.
    """
    rank_of = index.rank_of
    pres_seen: set[int] = set()
    ctx_pres: list[int] = []
    attr_seen: set[int] = set()
    attr_members: list[Node] = []
    for node in members:
        if isinstance(node, AttributeNode):
            if id(node) not in attr_seen:
                attr_seen.add(id(node))
                attr_members.append(node)
        else:
            pre = rank_of(node)
            if pre not in pres_seen:
                pres_seen.add(pre)
                ctx_pres.append(pre)
    ctx_pres.sort()
    return ctx_pres, attr_members


def _preceding_ranges(index: StructuralIndex, boundary: int,
                      local_name: Optional[str]) -> list[int]:
    """Pre ranks of ``preceding(boundary)`` in document order.

    The preceding window is ``[0, boundary)`` minus the boundary's
    ancestors; since the ancestors partition that interval, the result
    is the concatenation of the contiguous ranges between consecutive
    ancestor ranks — no per-candidate membership test, and with a tag
    partition each range is one bisect + slice.
    """
    ancestors = sorted(index.ancestor_pres(boundary))
    out: list[int] = []
    if local_name is None:
        low = 0
        for a in ancestors:
            out.extend(range(low, a))
            low = a + 1
        out.extend(range(low, boundary))
        return out
    pres = index.name_pres(local_name)
    low = 0
    lo = 0
    for a in ancestors:
        hi = bisect_left(pres, a, lo)
        out.extend(pres[lo:hi])
        low = a + 1
        lo = bisect_left(pres, low, hi)
    hi = bisect_left(pres, boundary, lo)
    out.extend(pres[lo:hi])
    return out


def axis_window_scan(index: StructuralIndex, axis: str,
                     ctx_pres: list[int], attr_members: list[Node],
                     matches: Callable[[Node], bool],
                     local_name: Optional[str] = None,
                     match_all: bool = False) -> list[Node]:
    """Whole-context axis step as window scans over one tree's columns.

    This is the set-at-a-time staircase-join core of the algebra
    layer's axis-step operators: ``descendant`` is ``pre in (pre, pre+size]``,
    ``child`` additionally skips over subtrees, ``following`` is
    ``pre > pre+size``, ``ancestor`` walks parent chains with staircase
    early exit.  Covered context nodes are pruned before scanning, so
    results are duplicate-free and document-ordered *by construction*.

    Parameters
    ----------
    matches:
        Node-test predicate applied to candidates.
    local_name:
        Tag partition to scan instead of the full pre range (a
        non-wildcard element name test).
    match_all:
        The test is ``node()`` — skip per-candidate filtering.
    """
    nodes = index.nodes
    sizes = index.sizes
    rank_of = index.rank_of

    if axis == "attribute":
        out_attrs: list[Node] = []
        for p in ctx_pres:
            for attribute in nodes[p].attributes:
                if matches(attribute):
                    out_attrs.append(attribute)
        return out_attrs

    # Attribute context nodes: upward/order axes go through the owner
    # element; self-including axes contribute the attribute itself.
    owner_pres = [rank_of(a.parent) for a in attr_members
                  if a.parent is not None]
    extra: list[Node] = []
    if axis in ("self", "descendant-or-self", "ancestor-or-self"):
        extra = [a for a in attr_members if matches(a)]

    out_pres: list[int] = []
    if axis == "self":
        out_pres = ctx_pres
    elif axis in ("descendant", "descendant-or-self"):
        for p in staircase_prune(ctx_pres, sizes):
            if axis == "descendant-or-self":
                out_pres.append(p)  # non-matching selves filtered below
            out_pres.extend(index.window(p, p + sizes[p], local_name))
    elif axis == "child":
        gathered: list[int] = []
        if local_name is not None:
            # child = descendant ∧ level = level+1: scan the tag
            # partition inside the subtree window and keep the rows one
            # level down — far fewer candidates than walking the child
            # list when elements have many non-matching children.
            levels = index.levels
            for p in ctx_pres:
                child_level = levels[p] + 1
                gathered.extend(
                    q for q in index.window(p, p + sizes[p], local_name)
                    if levels[q] == child_level)
        else:
            for p in ctx_pres:
                end = p + sizes[p]
                q = p + 1
                while q <= end:
                    gathered.append(q)
                    q += sizes[q] + 1
        gathered.sort()  # children of nested contexts interleave
        out_pres = gathered
    elif axis == "parent":
        parent_set: set[int] = set(owner_pres)
        for p in ctx_pres:
            parent = nodes[p].parent
            if parent is not None:
                parent_set.add(rank_of(parent))
        out_pres = sorted(parent_set)
    elif axis in ("ancestor", "ancestor-or-self"):
        ancestor_set: set[int] = set()
        chains = [nodes[p].parent for p in ctx_pres]
        chains.extend(a.parent for a in attr_members)
        for node in chains:
            while node is not None:
                q = rank_of(node)
                if q in ancestor_set:
                    break  # staircase early exit: chain already seen
                ancestor_set.add(q)
                node = node.parent
        if axis == "ancestor-or-self":
            ancestor_set.update(ctx_pres)
        out_pres = sorted(ancestor_set)
    elif axis in ("following-sibling", "preceding-sibling"):
        sibling_set: set[int] = set()
        for p in ctx_pres:
            parent = nodes[p].parent
            if parent is None:
                continue
            pp = rank_of(parent)
            if axis == "following-sibling":
                q = p + sizes[p] + 1
                end = pp + sizes[pp]
                while q <= end:
                    sibling_set.add(q)
                    q += sizes[q] + 1
            else:
                q = pp + 1
                while q < p:
                    sibling_set.add(q)
                    q += sizes[q] + 1
        out_pres = sorted(sibling_set)
    elif axis == "following":
        ends = [p + sizes[p] for p in ctx_pres]
        ends.extend(p + sizes[p] for p in owner_pres)
        if ends:
            out_pres = index.after(min(ends), local_name)
    elif axis == "preceding":
        starts = ctx_pres + owner_pres
        if starts:
            # preceding(p1) ⊆ preceding(p2) for p1 < p2, so the whole
            # context collapses to the max boundary's window.  Instead
            # of materialising [0, boundary) and testing every rank
            # against the ancestor set, emit the contiguous ranges
            # *between* the boundary's ancestor ranks — the window
            # shrinks to exactly the preceding rows, and the tag
            # partition case bisects each range instead of filtering.
            boundary = max(starts)
            out_pres = _preceding_ranges(index, boundary, local_name)
    else:  # pragma: no cover - callers restrict axes
        raise ValueError(f"unknown axis {axis}")

    if match_all:
        out_nodes = [nodes[q] for q in out_pres]
    else:
        out_nodes = [node for node in (nodes[q] for q in out_pres)
                     if matches(node)]
    if extra:
        from repro.xdm.sequence import document_order_sort
        return document_order_sort(out_nodes + extra)
    return out_nodes


#: Axes whose predicate positions count in *reverse* document order
#: (XPath: position 1 is the nearest ancestor / closest preceding
#: node).  Step output is document-ordered regardless — only the
#: positional-predicate rank computation flips direction.
REVERSE_AXES = frozenset(
    ("ancestor", "ancestor-or-self", "preceding", "preceding-sibling"))


def axis_scan_batched(index: StructuralIndex, axis: str,
                      pairs: list[tuple],
                      matches: Callable[[Node], bool],
                      local_name: Optional[str] = None,
                      match_all: bool = False,
                      limit: Optional[int] = None) -> list[tuple]:
    """Set-at-a-time axis scan over many single-node contexts.

    *pairs* is ``[(tag, pre), ...]`` — one context node per tag (a
    loop-lifted iteration), tags in emission order.  One call scans
    every context against the shared pre/size/level columns with the
    per-axis dispatch hoisted out of the loop, returning ``(tag, node)``
    rows in per-tag document order — the batched form of
    :func:`axis_window_scan` the algebra layer uses for the
    overwhelmingly common one-context-per-iteration plans.

    The windows per axis: descendant is ``(p, p+size]``; child is
    descendant ∧ ``level = level+1`` (the size-skip scan, or the tag
    partition with a level filter); following is ``pre > p+size``
    (everything past the subtree — ancestors precede ``p``, so the
    boundary alone suffices); preceding is ``[0, p)`` minus the
    ancestor ranks, emitted as the contiguous ranges between them;
    siblings are the parent's window with size-skips; ancestors walk
    the (cached-rank) parent chain.

    ``limit`` keeps only each context's first *limit* matches in *axis
    order* — the early-exit for a leading positional ``[n]`` predicate:
    forward axes stop scanning after the limit-th hit, reverse axes
    keep the last *limit* document-ordered matches (their first in axis
    order).  Output rows stay in document order either way.
    """
    nodes = index.nodes
    sizes = index.sizes
    rank_of = index.rank_of
    out: list[tuple] = []
    if limit is not None and limit <= 0:
        return out
    if axis == "attribute":
        for tag, p in pairs:
            emitted = 0
            for attribute in nodes[p].attributes:
                if matches(attribute):
                    out.append((tag, attribute))
                    emitted += 1
                    if emitted == limit:
                        break
    elif axis == "self":
        for tag, p in pairs:
            node = nodes[p]
            if match_all or matches(node):
                out.append((tag, node))
    elif axis == "parent":
        # The level−1 ancestor: the nearest q < p with
        # levels[q] == levels[p] − 1, reached in O(1) through the
        # owner chain the index maintains.
        for tag, p in pairs:
            parent = nodes[p].parent
            if parent is not None and (match_all or matches(parent)):
                out.append((tag, parent))
    elif axis == "child":
        levels = index.levels
        if local_name is not None:
            pres = index.name_pres(local_name)
            for tag, p in pairs:
                child_level = levels[p] + 1
                lo = bisect_right(pres, p)
                hi = bisect_right(pres, p + sizes[p], lo)
                emitted = 0
                for q in pres[lo:hi]:
                    if levels[q] == child_level:
                        node = nodes[q]
                        if matches(node):
                            out.append((tag, node))
                            emitted += 1
                            if emitted == limit:
                                break
        else:
            for tag, p in pairs:
                end = p + sizes[p]
                q = p + 1
                emitted = 0
                while q <= end:
                    node = nodes[q]
                    if match_all or matches(node):
                        out.append((tag, node))
                        emitted += 1
                        if emitted == limit:
                            break
                    q += sizes[q] + 1
    elif axis in ("descendant", "descendant-or-self"):
        include_self = axis == "descendant-or-self"
        if local_name is not None:
            pres = index.name_pres(local_name)
            for tag, p in pairs:
                emitted = 0
                if include_self:
                    node = nodes[p]
                    if matches(node):
                        out.append((tag, node))
                        emitted += 1
                if emitted == limit:
                    continue
                lo = bisect_right(pres, p)
                hi = bisect_right(pres, p + sizes[p], lo)
                for q in pres[lo:hi]:
                    node = nodes[q]
                    if matches(node):
                        out.append((tag, node))
                        emitted += 1
                        if emitted == limit:
                            break
        else:
            for tag, p in pairs:
                start = p if include_self else p + 1
                emitted = 0
                for q in range(start, p + sizes[p] + 1):
                    node = nodes[q]
                    if match_all or matches(node):
                        out.append((tag, node))
                        emitted += 1
                        if emitted == limit:
                            break
    elif axis in ("ancestor", "ancestor-or-self"):
        # Axis order is nearest-first (reverse document order): collect
        # up the chain — the early exit truncates there — then reverse
        # into document order for emission.
        for tag, p in pairs:
            chain: list[Node] = []
            node = nodes[p]
            if axis == "ancestor-or-self" and (match_all or matches(node)):
                chain.append(node)
            if limit is None or len(chain) < limit:
                parent = node.parent
                while parent is not None:
                    if match_all or matches(parent):
                        chain.append(parent)
                        if limit is not None and len(chain) == limit:
                            break
                    parent = parent.parent
            for node in reversed(chain):
                out.append((tag, node))
    elif axis == "following-sibling":
        for tag, p in pairs:
            parent = nodes[p].parent
            if parent is None:
                continue
            pp = rank_of(parent)
            end = pp + sizes[pp]
            q = p + sizes[p] + 1
            emitted = 0
            while q <= end:
                node = nodes[q]
                if match_all or matches(node):
                    out.append((tag, node))
                    emitted += 1
                    if emitted == limit:
                        break
                q += sizes[q] + 1
    elif axis == "preceding-sibling":
        # Size-skips only run forward, so collect the parent's window in
        # document order and keep the *last* limit matches (nearest
        # siblings first in axis order).
        for tag, p in pairs:
            parent = nodes[p].parent
            if parent is None:
                continue
            pp = rank_of(parent)
            collected: list[Node] = []
            q = pp + 1
            while q < p:
                node = nodes[q]
                if match_all or matches(node):
                    collected.append(node)
                q += sizes[q] + 1
            if limit is not None:
                collected = collected[-limit:]
            for node in collected:
                out.append((tag, node))
    elif axis == "following":
        if local_name is not None:
            pres = index.name_pres(local_name)
            total = len(pres)
            for tag, p in pairs:
                emitted = 0
                # Indexes from the bisect point: a slice would copy the
                # partition's whole tail per context before an early exit.
                for k in range(bisect_right(pres, p + sizes[p]), total):
                    node = nodes[pres[k]]
                    if matches(node):
                        out.append((tag, node))
                        emitted += 1
                        if emitted == limit:
                            break
        else:
            total = len(nodes)
            for tag, p in pairs:
                emitted = 0
                for q in range(p + sizes[p] + 1, total):
                    node = nodes[q]
                    if match_all or matches(node):
                        out.append((tag, node))
                        emitted += 1
                        if emitted == limit:
                            break
    elif axis == "preceding":
        for tag, p in pairs:
            collected = []
            for q in _preceding_ranges(index, p, local_name):
                node = nodes[q]
                if match_all or matches(node):
                    collected.append(node)
            if limit is not None:
                collected = collected[-limit:]
            for node in collected:
                out.append((tag, node))
    else:  # pragma: no cover - callers restrict axes
        raise ValueError(f"axis {axis} is not a batched axis")
    return out


def tree_groups(nodes: list[Node]) -> list[tuple[Node, list[Node]]]:
    """Group nodes by tree root, groups ordered by global document order.

    Every tree root carries the minimal order key of its tree and
    distinct trees occupy disjoint key ranges, so concatenating per-group
    results in root-key order equals one global document-order merge.
    """
    groups: dict[int, tuple[Node, list[Node]]] = {}
    for node in nodes:
        root = node.root()
        entry = groups.get(id(root))
        if entry is None:
            groups[id(root)] = (root, [node])
        else:
            entry[1].append(node)
    return sorted(groups.values(), key=lambda entry: entry[0].order_key)
