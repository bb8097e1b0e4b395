"""Gapped pre-plane + incremental StructuralIndex maintenance.

The update path must be O(change): a small XQUF splice mints order keys
inside the serial gap between its document-order neighbours (no restamp
of untouched nodes), deletes free their serials without touching any
other key, value-only updates skip restamping entirely, and the tree's
StructuralIndex is patched in place — same index object across the PUL
— instead of stale-marked and rebuilt.  When a gap is exhausted the
encoder re-spreads the nearest enclosing region, and only in the worst
case restamps the whole tree.  Every path must leave the index
byte-identical to a from-scratch rebuild.
"""

import pytest

from repro.obs import Scope
from repro.search.index import term_index_for
from repro.session import Database, to_sequence
from repro.workloads.xmark import XMarkConfig, generate_auctions
from repro.xdm import KEY_STRIDE, NodeFactory
from repro.xdm.structural import ENCODING_STATS, structural_index
from repro.xml import parse_document
from repro.xml.serializer import serialize_sequence
from repro.xquery.evaluator import evaluate_query
from tests.helpers import (
    assert_index_matches_rebuild,
    assert_matches_reference,
    densify,
    reparsed,
)

SITE = """
<site>
  <people>
    <person id="p0"><name>Ada</name><city>London</city></person>
    <person id="p1"><name>Grace</name><city>Arlington</city></person>
    <person id="p2"><name>Edsger</name><city>Rotterdam</city></person>
  </people>
  <auctions>
    <auction><buyer ref="p0"/><price>12</price></auction>
    <auction><buyer ref="p1"/><price>99</price></auction>
  </auctions>
</site>
"""


def _store(dense=False):
    doc = parse_document(SITE, uri="s.xml")
    if dense:
        densify(doc)
    return doc, {"s.xml": doc}.get


def _update(resolver, query, **kwargs):
    return evaluate_query(query, doc_resolver=resolver, **kwargs)


def assert_keys_monotone(root):
    keys = [root.order_key]
    for node in root.descendants():
        keys.append(node.order_key)
        previous = node.order_key
        for attribute in node.attributes:
            assert attribute.order_key > previous
            previous = attribute.order_key
    assert keys == sorted(keys)
    assert len(set(keys)) == len(keys)


def assert_windows_cover_subtrees(root):
    """Serial-unit invariant: pre < x <= pre + size exactly selects the
    (attribute-inclusive) subtree — gaps and freed serials included."""
    everything = [root] + list(root.descendants())
    with_attrs = []
    for node in everything:
        with_attrs.append(node)
        with_attrs.extend(node.attributes)
    for node in everything:
        low = node.order_key[1]
        high = low + node.size
        inside = {id(n) for n in with_attrs
                  if low < n.order_key[1] <= high}
        expected = {id(n) for n in node.descendants()}
        for descendant in [node] + list(node.descendants()):
            expected.update(id(a) for a in descendant.attributes)
        expected.discard(id(node))
        assert inside == expected, node


def assert_windows_end_with_subtrees(root):
    """The linear form of :func:`assert_windows_cover_subtrees`, for
    trees of thousands of nodes: keys are monotone, so it is enough
    that each window reaches its subtree's last key and stops before
    the next node's."""
    keyed = []
    for node in root.descendants(include_self=True):
        keyed.append(node)
        keyed.extend(node.attributes)
    position = {id(node): at for at, node in enumerate(keyed)}
    for node in root.descendants(include_self=True):
        last = node
        while last.children:
            last = last.children[-1]
        if last.attributes:
            last = last.attributes[-1]
        end = position[id(last)]
        high = node.order_key[1] + node.size
        assert keyed[end].order_key[1] <= high, node
        if end + 1 < len(keyed):
            assert keyed[end + 1].order_key[1] > high, node


class TestGapMinting:
    def test_single_insert_restamps_nothing_else(self):
        doc, resolver = _store()
        untouched = {id(n): n.order_key
                     for n in doc.descendants(include_self=True)}
        _update(resolver,
                "insert node <person id='p3'><name>Alan</name></person> "
                "after doc('s.xml')//person[1]")
        for node in doc.descendants(include_self=True):
            if id(node) in untouched:
                assert node.order_key == untouched[id(node)]
        assert_keys_monotone(doc)
        assert_windows_cover_subtrees(doc)

    def test_inserted_keys_fall_between_neighbours(self):
        doc, resolver = _store()
        _update(resolver,
                "insert node <person id='pX'/> "
                "before doc('s.xml')//person[2]")
        people = doc.root_element.find("people").child_elements()
        assert [p.get_attribute("id").value for p in people] == \
            ["p0", "pX", "p1", "p2"]
        keys = [p.order_key for p in people]
        assert keys == sorted(keys)
        assert keys[1][0] == doc.order_key[0]  # same doc id: gap minted

    def test_insert_at_document_end_extends_ancestor_sizes(self):
        doc, resolver = _store()
        _update(resolver,
                "insert node <auction><price>1</price></auction> "
                "as last into doc('s.xml')/site/auctions")
        assert_keys_monotone(doc)
        assert_windows_cover_subtrees(doc)

    def test_multi_node_insert_spreads_inside_gap(self):
        doc, resolver = _store()
        _update(resolver,
                "insert nodes (<a/>, <b/>, <c/>) "
                "into doc('s.xml')//person[1]")
        assert_keys_monotone(doc)
        assert_windows_cover_subtrees(doc)

    def test_attribute_insert_keeps_attribute_order_rule(self):
        doc, resolver = _store()
        _update(resolver,
                "insert node attribute age { '36' } "
                "into doc('s.xml')//person[1]")
        # Attributes sort after their element, before its children —
        # //@* pools attributes across elements through document order.
        result = evaluate_query("doc('s.xml')//@*", doc_resolver=resolver)
        assert [a.value for a in result] == \
            ["p0", "36", "p1", "p2", "p0", "p1"]
        assert_keys_monotone(doc)

    def test_delete_needs_no_key_work(self):
        doc, resolver = _store()
        keys_before = {id(n): n.order_key
                       for n in doc.descendants(include_self=True)}
        _update(resolver, "delete node doc('s.xml')//person[2]")
        for node in doc.descendants(include_self=True):
            assert node.order_key == keys_before[id(node)]
        assert_keys_monotone(doc)
        assert_windows_cover_subtrees(doc)

    def test_counters_stay_on_fast_path(self):
        doc, resolver = _store()
        before = ENCODING_STATS.snapshot()
        _update(resolver,
                "insert node <x/> into doc('s.xml')//person[1]")
        _update(resolver, "delete node doc('s.xml')//auction[1]")
        after = ENCODING_STATS.snapshot()
        assert after["reencodes_full"] == before["reencodes_full"]
        assert after["reencodes_subtree"] > before["reencodes_subtree"]


class TestValueOnlyUpdates:
    def test_replace_attribute_value_skips_restamp(self):
        doc, resolver = _store()
        structural_index(doc)  # live index
        keys_before = [n.order_key
                       for n in doc.descendants(include_self=True)]
        before = ENCODING_STATS.snapshot()
        _update(resolver,
                "replace value of node doc('s.xml')//person[1]/@id "
                "with 'p0b'")
        after = ENCODING_STATS.snapshot()
        assert [n.order_key for n in doc.descendants(include_self=True)] \
            == keys_before
        assert after["reencodes_full"] == before["reencodes_full"]
        assert after["reencodes_subtree"] == before["reencodes_subtree"]
        assert after["index_patches"] > before["index_patches"]
        # and the index survived in place
        assert doc._sidx is not None and not doc._sidx.stale

    def test_rename_skips_restamp_and_patches_partition(self):
        doc, resolver = _store()
        index = structural_index(doc)
        index.name_pres("person")  # force the partition build
        _update(resolver,
                "rename node doc('s.xml')//person[2] as 'retired'")
        assert doc._sidx is index and not index.stale
        assert len(index.name_pres("person")) == 2
        assert len(index.name_pres("retired")) == 1
        assert_index_matches_rebuild(doc)

    def test_value_index_eviction_reflects_new_values(self):
        doc, resolver = _store()
        probe = "doc('s.xml')//person[@id = 'p1']/name"
        assert serialize_sequence(
            evaluate_query(probe, doc_resolver=resolver)) == \
            "<name>Grace</name>"
        _update(resolver,
                "replace value of node doc('s.xml')//person[2]/@id "
                "with 'p1b'")
        assert evaluate_query(probe, doc_resolver=resolver) == []
        assert serialize_sequence(evaluate_query(
            "doc('s.xml')//person[@id = 'p1b']/name",
            doc_resolver=resolver)) == "<name>Grace</name>"

    def test_unrelated_value_indexes_survive_patches(self):
        doc, resolver = _store()
        # Build two value indexes under disjoint anchors.
        people = "doc('s.xml')/site/people/person[@id = '%s']/name"
        auctions = "doc('s.xml')/site/auctions/auction[price = '12']/buyer"
        evaluate_query(people % "p0", doc_resolver=resolver)
        evaluate_query(auctions, doc_resolver=resolver)
        index = doc._sidx
        assert index is not None and len(index.value_indexes) == 2
        built = dict(index.value_indexes)
        before = ENCODING_STATS.snapshot()
        # A value change inside people re-keys the people probe in
        # place; the auctions probe is not even looked at.
        _update(resolver,
                "replace value of node doc('s.xml')//person[1]/@id "
                "with 'p0b'")
        assert doc._sidx is index
        assert index.value_indexes == built  # same keys, same objects
        assert all(index.value_indexes[key] is built[key] for key in built)
        after = ENCODING_STATS.snapshot()
        assert after["value_index_evictions"] == \
            before["value_index_evictions"]
        assert after["index_builds"] == before["index_builds"]
        assert evaluate_query(people % "p0", doc_resolver=resolver) == []
        assert serialize_sequence(evaluate_query(
            people % "p0b", doc_resolver=resolver)) == "<name>Ada</name>"
        assert serialize_sequence(evaluate_query(
            auctions, doc_resolver=resolver)) == '<buyer ref="p0"/>'


class TestIndexPatching:
    @pytest.mark.parametrize("update", [
        "insert node <person id='pN'><name>New</name></person> "
        "as first into doc('s.xml')/site/people",
        "insert node <x><y/></x> before doc('s.xml')//auction[2]",
        "insert nodes (<a/>, <b/>) after doc('s.xml')//person[3]",
        "delete node doc('s.xml')//person[1]",
        "delete nodes doc('s.xml')//auction",
        "replace node doc('s.xml')//person[2] with <gone/>",
        "replace value of node doc('s.xml')//person[1]/name with 'Augusta'",
        "replace node doc('s.xml')//auction[1]/buyer/@ref "
        "with attribute ref { 'p9' }",
        "rename node doc('s.xml')//person[1]/city as 'town'",
        "insert node attribute vip { 'yes' } into doc('s.xml')//person[3]",
        "delete node doc('s.xml')//buyer[2]/@ref",
    ])
    def test_patched_index_equals_rebuild(self, update):
        doc, resolver = _store()
        index = structural_index(doc)
        index.name_pres("person")  # force partitions so they get patched
        _update(resolver, update)
        assert doc._sidx is index, "index must be patched, not replaced"
        assert not index.stale
        assert_index_matches_rebuild(doc)
        assert_keys_monotone(doc)
        assert_windows_cover_subtrees(doc)

    def test_index_survives_a_whole_pul(self):
        doc, resolver = _store()
        index = structural_index(doc)
        _update(resolver,
                "for $p in doc('s.xml')//person "
                "return (insert node <seen/> into $p, "
                "rename node $p/name as 'fullname')")
        assert doc._sidx is index and not index.stale
        assert_index_matches_rebuild(doc)

    def test_results_identical_after_patch_vs_rebuild(self):
        queries = [
            "doc('s.xml')//person/name",
            "doc('s.xml')//auction/descendant-or-self::node()",
            "count(doc('s.xml')//*)",
            "doc('s.xml')//name/following::price",
            "doc('s.xml')//price/preceding::name",
            "doc('s.xml')//buyer/ancestor::*",
            "doc('s.xml')//@*",
        ]
        update = ("insert node <person id='p9'><name>Barbara</name>"
                  "</person> before doc('s.xml')//person[2]")
        outputs = []
        for prime in (True, False):
            doc, resolver = _store()
            if prime:  # live index gets patched
                structural_index(doc)
            _update(resolver, update)
            outputs.append([serialize_sequence(
                evaluate_query(q, doc_resolver=resolver)) for q in queries])
        assert outputs[0] == outputs[1]


class TestGapExhaustion:
    def test_dense_document_respreads_or_reencodes(self):
        doc, resolver = _store(dense=True)  # no gaps anywhere
        before = ENCODING_STATS.snapshot()
        _update(resolver,
                "insert node <person id='pX'/> "
                "before doc('s.xml')//person[2]")
        after = ENCODING_STATS.snapshot()
        assert (after["gap_respreads"] > before["gap_respreads"]
                or after["reencodes_full"] > before["reencodes_full"])
        assert_keys_monotone(doc)
        assert_windows_cover_subtrees(doc)

    def test_exhausted_gap_recovers_and_stays_queryable(self):
        doc, resolver = _store()
        # Hammer one gap far beyond its stride capacity.
        for index in range(2 * KEY_STRIDE):
            _update(resolver,
                    f"insert node <extra n='{index}'/> "
                    "after doc('s.xml')//person[1]")
        assert_keys_monotone(doc)
        assert_windows_cover_subtrees(doc)
        result = evaluate_query("count(doc('s.xml')//extra)",
                                doc_resolver=resolver)
        assert result[0].value == 2 * KEY_STRIDE
        if doc._sidx is not None and not doc._sidx.stale:
            assert_index_matches_rebuild(doc)

    #: The ``update-mix`` append.
    APPEND = """
        declare variable $id external;
        insert node <closed_auction><seller person="{concat('ns', $id)}"/>
          <buyer person="{concat('nb', $id)}"/>
          <itemref item="{concat('ni', $id)}"/>
          <price>{$id}.00</price><date>01/01/2007</date>
          <annotation><description><text>rare vintage lot</text>
          </description></annotation>
        </closed_auction>
        as last into doc('auctions.xml')/site/closed_auctions"""

    @staticmethod
    def _auctions():
        db = Database()
        db.register("auctions.xml", generate_auctions(XMarkConfig(
            persons=100, closed_auctions=600, open_auctions=60)))
        return db, db.store.get("auctions.xml")

    def test_appends_live_on_the_tail_gap(self):
        """The ``update-mix`` append, 64 times over: a run takes at most
        KEY_STRIDE per key out of the gap it lands in, so the wide tail
        gap a respread leaves behind serves dozens of appends — not the
        four it lasted when every run spread itself over the whole gap
        (16 respreads for these 64 appends)."""
        db, doc = self._auctions()
        index = structural_index(doc)
        append = db.prepare(self.APPEND)
        before = ENCODING_STATS.snapshot()
        for run in range(64):
            append.execute(id=str(run))
        after = ENCODING_STATS.snapshot()
        assert after["gap_respreads"] - before["gap_respreads"] <= 4
        assert after["reencodes_full"] == before["reencodes_full"]
        assert doc._sidx is index and not index.stale
        assert len(db.execute("doc('auctions.xml')//closed_auction")) == 664
        assert_keys_monotone(doc)
        assert_windows_end_with_subtrees(doc)

    def test_dense_document_at_scale_matches_reference(self):
        """A gap-exhausted 244 KB tree under the respread ladder, all
        three indexes live: every probe still equals the oracle."""
        db, doc = self._auctions()
        densify(doc)
        probes = [
            ("declare variable $buyer external; doc('auctions.xml')"
             "//closed_auction[buyer/@person = $buyer]/price",
             {"buyer": to_sequence("nb3")}),
            ("doc('auctions.xml')//closed_auction/price", None),
            ("doc('auctions.xml')//closed_auction"
             "[contains(., 'vintage')]/price", None),
        ]
        for query, variables in probes:
            assert_matches_reference(query, db._resolve_document, variables)
        term_index_for(doc)
        append = db.prepare(self.APPEND)
        before = ENCODING_STATS.snapshot()
        for run in range(8):
            append.execute(id=str(run))
        after = ENCODING_STATS.snapshot()
        assert after["reencodes_full"] - before["reencodes_full"] <= 1
        assert_keys_monotone(doc)
        assert_windows_end_with_subtrees(doc)
        for query, variables in probes:
            assert assert_matches_reference(
                query, db._resolve_document, variables)

    def test_full_fallback_restores_gaps(self):
        doc, resolver = _store(dense=True)
        _update(resolver,
                "insert node <person id='pX'/> "
                "before doc('s.xml')//person[2]")
        # After recovery, the next small insert is O(change) again.
        before = ENCODING_STATS.snapshot()
        _update(resolver,
                "insert node <person id='pY'/> "
                "before doc('s.xml')//person[2]")
        after = ENCODING_STATS.snapshot()
        assert after["reencodes_full"] == before["reencodes_full"]
        assert after["reencodes_subtree"] > before["reencodes_subtree"]


class TestDetachedRekey:
    def test_deleted_node_cannot_collide_with_later_mints(self):
        # A delete frees its serials into the gap plane; a later insert
        # may mint them again.  The detached node must have been rekeyed
        # under a fresh doc id, or a held reference would compare as the
        # same document position as a distinct live node.
        doc, resolver = _store()
        [detached] = evaluate_query("doc('s.xml')//person[2]",
                                    doc_resolver=resolver)
        _update(resolver, "delete node doc('s.xml')//person[2]")
        for index in range(2 * KEY_STRIDE):
            _update(resolver,
                    f"insert node <filler n='{index}'/> "
                    "after doc('s.xml')//person[1]")
        live_keys = {n.order_key for n in doc.descendants(include_self=True)}
        detached_keys = {n.order_key
                         for n in detached.descendants(include_self=True)}
        assert not live_keys & detached_keys
        assert detached.order_key[0] != doc.order_key[0]

    def test_replaced_and_replace_value_children_are_rekeyed(self):
        doc, resolver = _store()
        [old_person] = evaluate_query("doc('s.xml')//person[1]",
                                      doc_resolver=resolver)
        [old_name_text] = evaluate_query(
            "doc('s.xml')//person[2]/name/text()", doc_resolver=resolver)
        _update(resolver,
                "replace value of node doc('s.xml')//person[2]/name "
                "with 'Grace M. Hopper'")
        _update(resolver,
                "replace node doc('s.xml')//person[1] with <member/>")
        live_doc_ids = {n.order_key[0]
                        for n in doc.descendants(include_self=True)}
        assert old_person.order_key[0] not in live_doc_ids
        assert old_name_text.order_key[0] not in live_doc_ids


class TestHandAssembledFallback:
    def test_cross_factory_boundary_falls_back_to_full_reencode(self):
        # Hand-assembled tree out of two factories: the splice point's
        # neighbour keys carry different doc ids, so no gap can be
        # minted between them — the encoder must take the full-reencode
        # path (which also unifies the tree under one doc id).
        root = NodeFactory().element("root")
        a = NodeFactory().element("a")
        b = NodeFactory().element("b")
        root.append(a)
        root.append(b)
        before = ENCODING_STATS.snapshot()
        evaluate_query("insert node <x/> before $b",
                       variables={"b": [b]})
        after = ENCODING_STATS.snapshot()
        assert after["reencodes_full"] > before["reencodes_full"]
        assert_keys_monotone(root)
        assert len({n.order_key[0]
                    for n in root.descendants(include_self=True)}) == 1


class TestEquivalenceGappedVsDense:
    NODE_COUNT = "count(doc('s.xml')//node())"
    QUERIES = [
        "doc('s.xml')//person/name",
        "doc('s.xml')//@*",
        NODE_COUNT,
        "doc('s.xml')//name/..",
        "doc('s.xml')//price/preceding::name",
    ]
    UPDATES = [
        "insert node <person id='pA'><name>Niklaus</name></person> "
        "as first into doc('s.xml')/site/people",
        "delete node doc('s.xml')//auction[1]",
        "rename node doc('s.xml')//person[1] as 'member'",
        "replace value of node doc('s.xml')//person[2]/name "
        "with 'G. Hopper'",
        "insert node attribute checked { 'y' } into doc('s.xml')//buyer",
    ]

    def test_byte_identical_across_encodings_and_modes(self):
        outputs = []
        for dense in (False, True):
            doc, resolver = _store(dense=dense)
            run = []
            for update in self.UPDATES:
                evaluate_query(update, doc_resolver=resolver)
                fresh = {"s.xml": reparsed(doc)}.get
                for query in self.QUERIES:
                    run.append(serialize_sequence(assert_matches_reference(
                        query, resolver,
                        reparse=None if query == self.NODE_COUNT else fresh)))
                # What NODE_COUNT sees that a re-parse merges away (the
                # two whitespace runs a delete leaves adjacent) is held
                # against a fresh index over the same tree instead.
                assert_index_matches_rebuild(doc)
            outputs.append(run)
        assert outputs[0] == outputs[1]


class TestTelemetry:
    def test_explain_carries_update_counters(self):
        db = Database()
        db.register("s.xml", SITE)
        explain = db.explain(
            "insert node <x/> into doc('s.xml')/site/people")
        assert explain.counters["updates.reencodes_subtree"] >= 1
        assert "updates.reencodes_full" not in explain.counters
        assert "updates:" in explain.render()

    def test_read_only_explain_has_no_update_counters(self):
        db = Database()
        db.register("s.xml", SITE)
        explain = db.explain("doc('s.xml')//person/name")
        # The first read builds the structural index; nothing else in
        # the group moves.
        assert explain.counters == {"updates.index_builds": 1}
        assert "updates: index_builds=1" in explain.render()

    def test_explain_deltas_are_thread_attributed(self):
        # Counter bumps on another thread must not leak into this
        # thread's per-execution scope (concurrent executions are
        # supported), but do land in the process totals.
        import threading

        before = ENCODING_STATS.snapshot()["reencodes_full"]
        with Scope() as scope:
            worker = threading.Thread(
                target=ENCODING_STATS.bump, args=("reencodes_full", 5))
            worker.start()
            worker.join(timeout=10)
        assert not worker.is_alive()
        assert scope.counters == {}
        assert ENCODING_STATS.snapshot()["reencodes_full"] == before + 5

    def test_peer_query_result_carries_update_counters(self):
        from repro.net import SimulatedNetwork
        from repro.rpc import XRPCPeer

        peer = XRPCPeer("p0", SimulatedNetwork())
        peer.store.register("s.xml", SITE)
        peer.execute_query("doc('s.xml')//person")  # build the index
        result = peer.execute_query(
            "insert node <x/> into doc('s.xml')/site/people")
        explain = result.explain()
        assert result.counters["updates.reencodes_subtree"] >= 1
        assert explain.counters is result.counters
        assert "updates.reencodes_full" not in explain.counters
        assert "updates:" in explain.render()

    def test_database_stats_totals(self):
        db = Database()
        db.register("s.xml", SITE)
        db.execute("doc('s.xml')//person")  # build the index
        before = db.stats().counters
        db.execute("insert node <x/> into doc('s.xml')/site/people")
        after = db.stats().counters
        assert after["updates.reencodes_subtree"] \
            > before["updates.reencodes_subtree"]
        assert after["updates.index_patches"] > before["updates.index_patches"]
        assert after["updates.reencodes_full"] == before["updates.reencodes_full"]
