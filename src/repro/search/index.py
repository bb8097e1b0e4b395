"""The inverted term index over the value plane, and its query kernels.

One :class:`TermIndex` per tree, cached on the tree's
:class:`~repro.xdm.structural.StructuralIndex` (``term_index`` slot) so
it lives and dies with the structural columns: a full re-encode or an
abandoned patch stales the structural index and the postings go with
it; the O(change) PUL path instead calls the ``on_*`` hooks below from
the structural patch methods and the postings survive *un-rebuilt*.

Postings are keyed by the **gapped order-key serial** (``node.pre``,
``order_key[1]``) — the one coordinate of the plane that is stable
across O(change) splices: inserts mint fresh serials inside gaps and
deletes free them, so existing postings never shift.  The one thing
that does move serials short of a full re-encode is a *gap respread*,
which re-keys a whole region; :meth:`TermIndex.on_respread` brackets
it and re-keys the region's postings in step.  Each term maps to
a sorted ``array.array("q")`` of serials; the subtree-window invariant
(every descendant's serial ``s`` of node ``x`` satisfies
``x.pre < s <= x.pre + x.size``) turns "does this subtree contain term
t" into two bisects.

Two query kernels:

* :meth:`TermIndex.contains_plan` — the sound substring *prefilter*
  behind lifted ``[contains(., "lit")]`` predicates.  The needle
  decomposes into token constraints (:mod:`repro.search.tokenizer`);
  a candidate window survives only if every constraint is satisfied by
  a posting in the window or by a *seam* — adjacent text nodes whose
  contents concatenate directly in ``string_value`` (nothing but
  non-text nodes between them), where a token can span the boundary:
  ``<d>worl<b/>dwide</d>`` contains ``"worldwide"`` though neither
  text does.  Survivors are re-verified with the exact case-sensitive
  substring test, so results are byte-identical to the interpreter's
  ``fn:contains``.
* :meth:`TermIndex.keyword_search` — EMBANKS-style SLCA: the smallest
  elements whose subtree (text *and* attribute values) contains every
  query term, doc-ordered, scored by term frequency.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass
from typing import Callable, Optional

from repro.search.stats import SEARCH_STATS
from repro.search.tokenizer import (
    MODE_EXACT,
    MODE_PREFIX,
    MODE_SUFFIX,
    distinct_tokens,
    is_word_char,
    needle_token_spec,
    token_matches,
    tokenize,
)
from repro.xdm.nodes import (
    AttributeNode,
    DocumentNode,
    ElementNode,
    Node,
    TextNode,
)
from repro.xdm.structural import StructuralIndex, structural_index

__all__ = [
    "SearchHit",
    "TermIndex",
    "keyword_search",
    "term_index_for",
]


def _lead_run(content: str) -> str:
    """Leading word-char run of *content*, lowercased ('' if none)."""
    lowered = content.lower()
    end = 0
    for ch in lowered:
        if not is_word_char(ch):
            break
        end += 1
    return lowered[:end]


def _trail_run(content: str) -> str:
    """Trailing word-char run of *content*, lowercased ('' if none)."""
    lowered = content.lower()
    start = len(lowered)
    for ch in reversed(lowered):
        if not is_word_char(ch):
            break
        start -= 1
    return lowered[start:]


def _seam_pair_matches(token: str, mode: str, left: str, right: str) -> bool:
    """Can needle-token *token* (under *mode*) cross the boundary of an
    adjacent text pair whose trailing/leading word runs are
    *left*/*right*?

    Sound over-approximation: consider the *first* text boundary the
    token's occurrence crosses — the part before it is then a suffix of
    *left* (the full run when the needle bounds the token's start), and
    the part after it must be compatible with *right* as a prefix (the
    occurrence may continue into further texts, or stop inside
    *right* when the token's end is unbounded in the needle).
    """
    bounded_left = mode in (MODE_EXACT, MODE_PREFIX)
    bounded_right = mode in (MODE_EXACT, MODE_SUFFIX)
    for split in range(1, len(token)):
        head, tail = token[:split], token[split:]
        if bounded_left:
            if head != left:
                continue
        elif not left.endswith(head):
            continue
        if bounded_right:
            if not tail.startswith(right):
                continue
        elif not (tail.startswith(right) or right.startswith(tail)):
            continue
        return True
    return False


def _serial_in(serials, lo: int, hi: int) -> bool:
    """Does the sorted serial array contain a serial in ``[lo, hi]``?"""
    index = bisect_left(serials, lo)
    return index < len(serials) and serials[index] <= hi


def _count_in(serials, lo: int, hi: int) -> int:
    """Number of serials in ``[lo, hi]`` of a sorted serial array."""
    return bisect_right(serials, hi) - bisect_left(serials, lo)


def _cut_window(postings: dict, terms, low: int, high: int) -> None:
    """Drop every serial in ``(low, high]`` from the posting lists of
    *terms* (one contiguous slice each)."""
    for term in terms:
        serials = postings[term]
        start = bisect_right(serials, low)
        del serials[start:bisect_right(serials, high, start)]
        if not serials:
            del postings[term]


def _paste_runs(postings: dict, runs: dict) -> None:
    """Splice each term's ascending serial run — all inside one window
    no other posting falls in — into its posting list."""
    for term, run in runs.items():
        serials = postings.get(term)
        if serials is None:
            postings[term] = array("q", run)
        else:
            start = bisect_left(serials, run[0])
            serials[start:start] = array("q", run)


class ContainsPlan:
    """Per-(tree, needle) prefilter: posting/seam windows a candidate
    must satisfy before the exact substring verify runs."""

    __slots__ = ("needle", "trivial", "tokenless", "degenerate",
                 "_index", "_text_arrays", "_attr_arrays", "_seam_arrays")

    def __init__(self, index: "TermIndex", needle: str) -> None:
        self.needle = needle
        self._index = index
        self.degenerate = index.degenerate
        self.trivial = needle == ""
        spec = () if self.trivial else needle_token_spec(needle)
        self.tokenless = not self.trivial and not spec
        # Per needle token: the union of postings of every vocabulary
        # term satisfying the constraint (sorted serials), for text
        # nodes and attributes separately, plus the matching seam pairs
        # as parallel (first-text, second-text) serial bounds.
        self._text_arrays: list = []
        self._attr_arrays: list = []
        self._seam_arrays: list = []
        if self.trivial or self.tokenless or self.degenerate:
            return
        for token, mode in spec:
            self._text_arrays.append(
                _matching_union(index._text_postings, token, mode))
            self._attr_arrays.append(
                _matching_union(index._attr_postings, token, mode))
            lows: list[int] = []
            highs: list[int] = []
            for lo, (hi, left, right) in sorted(index._seam_pairs.items()):
                if _seam_pair_matches(token, mode, left, right):
                    lows.append(lo)
                    highs.append(hi)
            self._seam_arrays.append((array("q", lows), array("q", highs)))

    def candidate(self, node: Node) -> bool:
        """May *node*'s string value contain the needle?  ``True`` is
        "verify it"; ``False`` is a proof of absence."""
        if self.trivial or self.degenerate:
            return True
        if isinstance(node, AttributeNode):
            if self.tokenless:
                return True  # a single value: verifying is the cheap path
            serial = node.pre
            return all(_serial_in(serials, serial, serial)
                       for serials in self._attr_arrays)
        if not isinstance(node, (ElementNode, DocumentNode, TextNode)):
            # Comment/PI string values are their (unindexed) content.
            return True
        lo = node.pre
        hi = lo + node.size
        if self.tokenless:
            # No word character to look up: any text in the window may
            # hold the needle.
            return _serial_in(self._index.text_serials, lo, hi)
        for serials, (seam_lows, seam_highs) in zip(self._text_arrays,
                                                    self._seam_arrays):
            if _serial_in(serials, lo, hi):
                continue
            index = bisect_left(seam_lows, lo)
            while index < len(seam_lows) and seam_lows[index] <= hi:
                if seam_highs[index] <= hi:
                    break
                index += 1
            else:
                return False
        return True


def _matching_union(postings: dict, token: str, mode: str):
    """Union of posting arrays of all vocabulary terms matching one
    needle-token constraint (an exact constraint is a dict hit)."""
    if mode == MODE_EXACT:
        return postings.get(token) or array("q")
    arrays = [serials for term, serials in postings.items()
              if token_matches(term, token, mode)]
    if not arrays:
        return array("q")
    if len(arrays) == 1:
        return arrays[0]
    merged = array("q")
    for serials in arrays:
        merged.extend(serials)
    return array("q", sorted(merged))


@dataclass
class SearchHit:
    """One keyword-search result: the smallest containing element and
    its term-frequency score (posting count over the element's
    window); ``uri`` is filled by the session/peer layers."""

    node: Node
    score: int
    uri: Optional[str] = None


class TermIndex:
    """Inverted term → sorted-serial-postings index of one tree.

    Built lazily by :func:`term_index_for`; maintained incrementally by
    the ``on_*`` hooks the structural patch methods call.
    """

    __slots__ = ("sidx", "degenerate", "_text_postings", "_attr_postings",
                 "text_serials", "_terms_at", "_attr_terms_at", "_attrs_of",
                 "_seam_pairs", "_plan_cache", "_node_cache")

    def __init__(self, sidx: StructuralIndex) -> None:
        self.sidx = sidx
        #: term → sorted serials of text nodes containing it.
        self._text_postings: dict[str, array] = {}
        #: term → sorted serials of attributes containing it.
        self._attr_postings: dict[str, array] = {}
        #: all text-node serials, sorted (the tokenless-needle filter).
        self.text_serials: array = array("q")
        #: reverse maps: serial → the distinct terms posted there (the
        #: mutation hooks run *after* the value changed, so the old
        #: terms must be remembered to be un-posted).
        self._terms_at: dict[int, tuple[str, ...]] = {}
        self._attr_terms_at: dict[int, tuple[str, ...]] = {}
        #: owner-element serial → serials of its attributes (the
        #: attribute-table hook diffs against this to find removals).
        self._attrs_of: dict[int, set[int]] = {}
        #: first-text serial → (second-text serial, trailing run,
        #: leading run) for every adjacent text pair that joins
        #: word-char to word-char (a token can span the boundary).
        self._seam_pairs: dict[int, tuple[int, str, str]] = {}
        #: needle → ContainsPlan (prepared-query discipline: the
        #: vocabulary/seam scan of plan construction is paid once per
        #: needle, dropped whenever a mutation hook runs).
        self._plan_cache: dict[str, ContainsPlan] = {}
        #: Lazy serial -> ranked-row cache fronting :meth:`_node_at`'s
        #: binary search; dropped with the plan cache on every mutation.
        self._node_cache: dict[int, Node] = {}
        #: Hand-assembled trees may carry non-monotone serials the
        #: window arithmetic cannot index; the plans then pass every
        #: candidate through to the exact verify (still correct).
        self.degenerate = False
        self._build()

    # -- construction ------------------------------------------------------

    def _build(self) -> None:
        built = 0
        previous = None
        text_serials: list[int] = []
        for node in self.sidx.nodes:
            serial = node.pre
            if previous is not None and serial <= previous:
                self.degenerate = True
                break
            previous = serial
            if isinstance(node, TextNode):
                terms = distinct_tokens(node.content)
                text_serials.append(serial)
                self._terms_at[serial] = terms
                for term in terms:
                    self._post(self._text_postings, term, serial)
                built += len(terms)
            attributes = node.attributes
            if attributes:
                owned: set[int] = set()
                for attribute in attributes:
                    terms = distinct_tokens(attribute.value)
                    owned.add(attribute.pre)
                    self._attr_terms_at[attribute.pre] = terms
                    for term in terms:
                        self._post(self._attr_postings, term, attribute.pre)
                    built += len(terms)
                self._attrs_of[serial] = owned
        if not self.degenerate:
            self.text_serials = array("q", text_serials)
            for position in range(len(text_serials) - 1):
                self._pair(text_serials[position], text_serials[position + 1])
        SEARCH_STATS.bump("term_index_builds")
        if built:
            SEARCH_STATS.bump("postings_built", built)

    # -- posting primitives ------------------------------------------------

    @staticmethod
    def _post(postings: dict, term: str, serial: int) -> None:
        serials = postings.get(term)
        if serials is None:
            postings[term] = array("q", (serial,))
        else:
            insort(serials, serial)

    @staticmethod
    def _unpost(postings: dict, term: str, serial: int) -> None:
        serials = postings.get(term)
        if serials is None:
            return
        index = bisect_left(serials, serial)
        if index < len(serials) and serials[index] == serial:
            serials.pop(index)
            if not serials:
                del postings[term]

    def _node_at(self, serial: int) -> Optional[Node]:
        """The ranked row stamped with *serial* (exact match)."""
        node = self._node_cache.get(serial)
        if node is not None:
            return node
        nodes = self.sidx.nodes
        low, high = 0, len(nodes)
        while low < high:
            mid = (low + high) // 2
            if nodes[mid].pre < serial:
                low = mid + 1
            else:
                high = mid
        if low < len(nodes) and nodes[low].pre == serial:
            self._node_cache[serial] = nodes[low]
            return nodes[low]
        return None

    def _covering_node(self, serial: int) -> Optional[Node]:
        """The ranked row owning *serial* (itself, or — for attribute
        serials, which are not ranked — the owner element)."""
        nodes = self.sidx.nodes
        low, high = 0, len(nodes)
        while low < high:
            mid = (low + high) // 2
            if nodes[mid].pre <= serial:
                low = mid + 1
            else:
                high = mid
        return nodes[low - 1] if low else None

    # -- seam maintenance --------------------------------------------------

    def _pair(self, first: int, second: int) -> None:
        """Record the (first, second) adjacent text pair if it joins."""
        left_node = self._node_at(first)
        right_node = self._node_at(second)
        if left_node is None or right_node is None:
            return
        left = _trail_run(left_node.content)
        right = _lead_run(right_node.content)
        if left and right:
            self._seam_pairs[first] = (second, left, right)

    def _repair_seams(self, lo: int, hi: int) -> None:
        """Recompute the seam pairs around the affected serial span
        ``[lo, hi]`` (texts inserted, removed, or rewritten there).
        Pairs are strictly local — one adjacent text pair each — so the
        repair only touches the span plus one neighbour on each side."""
        serials = self.text_serials
        left = bisect_left(serials, lo) - 1
        right = bisect_right(serials, hi)
        low_serial = serials[left] if left >= 0 else lo
        for serial in [s for s in self._seam_pairs
                       if low_serial <= s <= hi]:
            del self._seam_pairs[serial]
        last = len(serials) - 1
        for position in range(max(left, 0), min(right, last)):
            self._pair(serials[position], serials[position + 1])

    # -- incremental maintenance (called by the structural patch hooks) ----

    def on_insert(self, new_nodes: list) -> None:
        """Rows of freshly spliced subtrees (all of them, in document
        order) — post their text/attribute terms and repair seams."""
        if self.degenerate:
            return
        self._plan_cache.clear()
        self._node_cache.clear()
        patched = 0
        text_lo: Optional[int] = None
        text_hi: Optional[int] = None
        for node in new_nodes:
            serial = node.pre
            if isinstance(node, TextNode):
                terms = distinct_tokens(node.content)
                insort(self.text_serials, serial)
                self._terms_at[serial] = terms
                for term in terms:
                    self._post(self._text_postings, term, serial)
                patched += len(terms)
                if text_lo is None:
                    text_lo = serial
                text_hi = serial
            attributes = node.attributes
            if attributes:
                owned = self._attrs_of.setdefault(serial, set())
                for attribute in attributes:
                    terms = distinct_tokens(attribute.value)
                    owned.add(attribute.pre)
                    self._attr_terms_at[attribute.pre] = terms
                    for term in terms:
                        self._post(self._attr_postings, term, attribute.pre)
                    patched += len(terms)
        if text_lo is not None and text_hi is not None:
            self._repair_seams(text_lo, text_hi)
        if patched:
            SEARCH_STATS.bump("postings_patched", patched)

    def on_delete(self, removed_nodes: list) -> None:
        """Rows just evicted from the structural columns — un-post
        every term they held so a stale posting can never resolve."""
        if self.degenerate:
            return
        self._plan_cache.clear()
        self._node_cache.clear()
        patched = 0
        text_lo: Optional[int] = None
        text_hi: Optional[int] = None
        for node in removed_nodes:
            serial = node.pre
            terms = self._terms_at.pop(serial, None)
            if terms is not None:
                for term in terms:
                    self._unpost(self._text_postings, term, serial)
                patched += len(terms)
                index = bisect_left(self.text_serials, serial)
                if index < len(self.text_serials) \
                        and self.text_serials[index] == serial:
                    self.text_serials.pop(index)
                if text_lo is None:
                    text_lo = serial
                text_hi = serial
            owned = self._attrs_of.pop(serial, None)
            if owned:
                for attr_serial in owned:
                    attr_terms = self._attr_terms_at.pop(attr_serial, ())
                    for term in attr_terms:
                        self._unpost(self._attr_postings, term, attr_serial)
                    patched += len(attr_terms)
        if text_lo is not None and text_hi is not None:
            self._repair_seams(text_lo, text_hi)
        if patched:
            SEARCH_STATS.bump("postings_patched", patched)

    def on_content(self, node: Node) -> None:
        """A value-only mutation, already applied: re-post the node."""
        if self.degenerate:
            return
        self._plan_cache.clear()
        self._node_cache.clear()
        serial = node.pre
        if isinstance(node, TextNode):
            old = self._terms_at.get(serial, ())
            for term in old:
                self._unpost(self._text_postings, term, serial)
            new = distinct_tokens(node.content)
            self._terms_at[serial] = new
            for term in new:
                self._post(self._text_postings, term, serial)
            index = bisect_left(self.text_serials, serial)
            if index >= len(self.text_serials) \
                    or self.text_serials[index] != serial:
                self.text_serials.insert(index, serial)
            self._repair_seams(serial, serial)
            SEARCH_STATS.bump("postings_patched", len(old) + len(new))
        elif isinstance(node, AttributeNode):
            old = self._attr_terms_at.get(serial, ())
            for term in old:
                self._unpost(self._attr_postings, term, serial)
            new = distinct_tokens(node.value)
            self._attr_terms_at[serial] = new
            for term in new:
                self._post(self._attr_postings, term, serial)
            SEARCH_STATS.bump("postings_patched", len(old) + len(new))

    def on_attributes(self, owner: Node) -> None:
        """The attribute table of *owner* changed (insert / replace /
        delete) — diff against the recorded serials and re-post."""
        if self.degenerate:
            return
        self._plan_cache.clear()
        self._node_cache.clear()
        known = self._attrs_of.get(owner.pre, set())
        current = {attribute.pre: attribute
                   for attribute in owner.attributes}
        patched = 0
        for serial in known - current.keys():
            for term in self._attr_terms_at.pop(serial, ()):
                self._unpost(self._attr_postings, term, serial)
                patched += 1
        for serial, attribute in current.items():
            if serial in known:
                continue
            terms = distinct_tokens(attribute.value)
            self._attr_terms_at[serial] = terms
            for term in terms:
                self._post(self._attr_postings, term, serial)
            patched += len(terms)
        if current:
            self._attrs_of[owner.pre] = set(current)
        else:
            self._attrs_of.pop(owner.pre, None)
        if patched:
            SEARCH_STATS.bump("postings_patched", patched)

    def on_respread(self, rows: list,
                    restamp: Callable[[], None]) -> None:
        """A gap respread is about to re-key *rows* — a region's root
        (whose own serial stays) followed by every ranked row below it —
        by calling *restamp*.  Everything here is keyed by serial, so
        the region's serial window is un-posted under the old keys and
        re-posted under the new ones; the re-key is monotone and no
        other node has a key inside the region's envelope, so each
        posting list changes in one contiguous slice — O(region), not a
        delete and an insert per row.  Text terms and seam runs ride
        along unchanged; attribute values are re-read, which also takes
        in attributes the running primitive added but has not patched.
        """
        if self.degenerate:
            restamp()
            return
        self._plan_cache.clear()
        self._node_cache.clear()
        low = rows[0].pre
        high = low + rows[0].size
        texts = [node for node in rows if isinstance(node, TextNode)]
        old_serials = [node.pre for node in texts]
        text_terms = [self._terms_at.pop(serial, ())
                      for serial in old_serials]
        seams = [self._seam_pairs.pop(serial, None) for serial in old_serials]
        _cut_window(self._text_postings, set().union(*text_terms), low, high)
        attr_terms: set[str] = set()
        for node in rows:
            for serial in self._attrs_of.pop(node.pre, ()):
                attr_terms.update(self._attr_terms_at.pop(serial, ()))
        _cut_window(self._attr_postings, attr_terms, low, high)
        at = bisect_right(self.text_serials, low)
        del self.text_serials[at:bisect_right(self.text_serials, high, at)]

        restamp()

        new_serials = [node.pre for node in texts]
        self.text_serials[at:at] = array("q", new_serials)
        runs: dict[str, list[int]] = {}
        for serial, terms in zip(new_serials, text_terms):
            self._terms_at[serial] = terms
            for term in terms:
                runs.setdefault(term, []).append(serial)
        _paste_runs(self._text_postings, runs)
        runs = {}
        for node in rows:
            if not node.attributes:
                continue
            owned = self._attrs_of[node.pre] = set()
            for attribute in node.attributes:
                serial = attribute.pre
                terms = distinct_tokens(attribute.value)
                owned.add(serial)
                self._attr_terms_at[serial] = terms
                for term in terms:
                    runs.setdefault(term, []).append(serial)
        _paste_runs(self._attr_postings, runs)
        # Seams: both ends of a pair inside the region move together;
        # the pair reaching in from the text before the region and the
        # one reaching out of its last text are the two boundary seams.
        moved = dict(zip(old_serials, new_serials))
        repoint = list(zip(new_serials, seams))
        if at > 0:
            before = self.text_serials[at - 1]
            repoint.append((before, self._seam_pairs.get(before)))
        for serial, seam in repoint:
            if seam is not None:
                self._seam_pairs[serial] = \
                    (moved.get(seam[0], seam[0]),) + seam[1:]
        SEARCH_STATS.bump("postings_patched",
                          sum(map(len, text_terms)) + len(attr_terms))

    # -- query kernels -----------------------------------------------------

    def contains_plan(self, needle: str) -> ContainsPlan:
        """The (cached) prefilter plan for one ``contains`` needle."""
        plan = self._plan_cache.get(needle)
        if plan is None:
            if len(self._plan_cache) >= 64:
                self._plan_cache.clear()
            plan = ContainsPlan(self, needle)
            self._plan_cache[needle] = plan
        return plan

    def keyword_search(self, terms) -> list[SearchHit]:
        """EMBANKS-style SLCA keyword search over this tree.

        Returns the *smallest containing elements* — elements whose
        window holds at least one posting of **every** term and none of
        whose descendant elements does — in document order, scored by
        term frequency (total postings of the query terms inside the
        hit's window, text and attribute postings alike).
        """
        SEARCH_STATS.bump("search_queries")
        tokens: list[str] = []
        for term in terms:
            tokens.extend(tokenize(term))
        tokens = list(dict.fromkeys(tokens))
        if not tokens:
            return []
        if self.degenerate:
            from repro.search.naive import naive_search
            return naive_search(self.sidx.root, tokens)
        posting_lists = []
        for token in tokens:
            text = self._text_postings.get(token)
            attrs = self._attr_postings.get(token)
            if not text and not attrs:
                return []
            merged: list[int] = []
            if text:
                merged.extend(text)
            if attrs:
                merged = sorted(merged + list(attrs)) if merged \
                    else list(attrs)
            posting_lists.append(array("q", merged))
        rarest = min(posting_lists, key=len)
        seen: set[int] = set()
        candidates: list[Node] = []
        for serial in rarest:
            node = self._covering_node(serial)
            while node is not None and not isinstance(node, ElementNode):
                node = node.parent
            while node is not None and isinstance(node, ElementNode):
                lo = node.pre
                hi = lo + node.size
                if all(_serial_in(serials, lo, hi)
                       for serials in posting_lists):
                    if lo not in seen:
                        seen.add(lo)
                        candidates.append(node)
                    break
                node = node.parent
        candidates.sort(key=lambda element: element.pre)
        hits: list[SearchHit] = []
        for position, element in enumerate(candidates):
            lo = element.pre
            hi = lo + element.size
            if position + 1 < len(candidates) \
                    and candidates[position + 1].pre <= hi:
                continue  # contains a smaller containing element
            score = sum(_count_in(serials, lo, hi)
                        for serials in posting_lists)
            hits.append(SearchHit(node=element, score=score))
        if hits:
            SEARCH_STATS.bump("postings_hits", len(hits))
        return hits


def term_index_for(root: Node) -> TermIndex:
    """The (cached) term index of the tree rooted at *root* — built
    lazily on the tree's structural index, patched incrementally by the
    same hooks, and dropped with it on full re-encodes."""
    sidx = structural_index(root)
    term_index = sidx.term_index
    if term_index is None:
        term_index = TermIndex(sidx)
        sidx.term_index = term_index
    return term_index


def keyword_search(root: Node, terms) -> list[SearchHit]:
    """Keyword-search the tree rooted at *root* (see
    :meth:`TermIndex.keyword_search`)."""
    return term_index_for(root.root()).keyword_search(terms)
