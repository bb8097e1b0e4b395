"""Keyword-search subsystem: postings, lifted contains, SLCA, fan-out.

The acceptance gates for :mod:`repro.search`:

* the whole :data:`~repro.workloads.xmark.KEYWORD_SUITE` executes with
  ``plan == "lifted"`` and returns exactly what the product interpreter
  (``accel``) and the :mod:`repro.reference` oracle (``naive``) return,
  on gapped and dense encodings;
* every posting-list kernel is byte-identical to its tree-walking
  oracle (:mod:`repro.search.naive`), including across interleaved
  updates — where the postings must survive *un-rebuilt* (the
  incremental patch counters are asserted);
* stale postings can never surface deleted / renamed / rewritten
  nodes;
* dynamic ``contains`` needles fall back with the stable
  ``search-dynamic-needle`` code, predicted by the static analyzer;
* the distributed fan-out ships one bulk message per site and merges
  to the same result set as searching every peer locally.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.algebra.paths import contains_filter
from repro.algebra.table import Table
from repro.net import SimulatedNetwork
from repro.rpc import XRPCPeer
from repro.search.index import TermIndex, keyword_search, term_index_for
from repro.search.naive import naive_contains_scan, naive_search
from repro.search.stats import SEARCH_STATS
from repro.search.tokenizer import needle_token_spec, tokenize
from repro.session import Database
from repro.workloads.xmark import (
    KEYWORD_SUITE,
    XMarkConfig,
    generate_auctions,
    generate_persons,
)
from repro.xdm.nodes import ElementNode, Node
from repro.xdm.structural import ENCODING_STATS
from repro.xml import parse_document
from repro.xml.serializer import escape_text, serialize_sequence
from repro.xquery.evaluator import evaluate_query
from tests.helpers import assert_runs_lifted, densify, xmark_resolver

CONFIG = XMarkConfig(persons=10, closed_auctions=20, open_auctions=5,
                     matches=3)


def contains_matches(root: Node, needle: str) -> list[Node]:
    """Elements surviving the posting prefilter + exact verify."""
    plan = term_index_for(root).contains_plan(needle)
    return [node for node in root.root().descendants(include_self=True)
            if isinstance(node, ElementNode)
            and plan.candidate(node) and needle in node.string_value()]


def assert_search_equal(root: Node, terms) -> None:
    expected = [(hit.node, hit.score) for hit in naive_search(root, terms)]
    actual = [(hit.node, hit.score) for hit in keyword_search(root, terms)]
    assert actual == expected


# ---------------------------------------------------------------------------
# KEYWORD_SUITE: 100% lifted, interpreter-identical


@pytest.fixture(scope="module", params=[False, True], ids=["gapped", "dense"])
def resolver(request):
    return xmark_resolver(CONFIG, dense=request.param)


@pytest.mark.parametrize("oracle", ["accel", "naive"])
@pytest.mark.parametrize("name", sorted(KEYWORD_SUITE))
def test_keyword_suite_runs_lifted(resolver, name, oracle):
    result, explain = assert_runs_lifted(KEYWORD_SUITE[name], resolver,
                                         oracle)
    assert explain.counters["search.search_queries"] > 0
    assert result, f"keyword-suite query unexpectedly empty: {name}"


# ---------------------------------------------------------------------------
# TermIndex kernels vs the tree-walking oracles


SEAM_DOC = ("<doc>"
            "<d>worl<b/>dwide</d>"
            "<d>world<b/>wide</d>"
            "<e>wor<b/>ldw<b/>ide</e>"
            "<f>worldwide</f>"
            "<g>untouched</g>"
            "</doc>")

NEEDLES = ["worldwide", "widesh", "world", "wide", "orldwid",
           "rare vintage", "mailto:", "/2006", "--", "", "Wang",
           "no such needle at all"]


class TestContainsKernel:
    @pytest.mark.parametrize("needle", NEEDLES)
    def test_oracle_equal_on_xmark(self, needle):
        root = parse_document(generate_persons(CONFIG))
        assert contains_matches(root, needle) \
            == naive_contains_scan(root, needle)

    @pytest.mark.parametrize("needle",
                             ["worldwide", "ldwide", "worldw", "rldwi"])
    def test_seam_spanning_needles(self, needle):
        root = parse_document(SEAM_DOC)
        matches = contains_matches(root, needle)
        assert matches == naive_contains_scan(root, needle)
        # The seam cases genuinely exercise the pair machinery: the
        # needle must be found inside <d>/<e> joins, not only in <f>.
        assert len(matches) >= 2

    def test_multi_boundary_token(self):
        # "worldwide" spans TWO boundaries inside <e>: the first-crossed
        # boundary's tail continues into a further text.
        root = parse_document(SEAM_DOC)
        [element] = [node for node in root.descendants()
                     if isinstance(node, ElementNode) and node.name == "e"]
        plan = term_index_for(root).contains_plan("worldwide")
        assert plan.candidate(element)

    def test_window_bounded_no_false_positive_leak(self):
        # A token assembled across sibling elements' texts must not make
        # the *siblings* candidates — only ancestors containing the
        # whole seam.
        root = parse_document("<doc><a>worl</a><b>dwide</b></doc>")
        assert contains_matches(root, "worldwide") \
            == naive_contains_scan(root, "worldwide")

    def test_attribute_candidates(self):
        db = Database()
        db.register("d.xml", "<r><p id='alpha beta'/><p id='gamma'/></r>")
        lifted = db.execute("doc('d.xml')//p/@id[contains(., 'beta')]")
        oracle = Database(try_lifted=False)
        oracle.register("d.xml", "<r><p id='alpha beta'/><p id='gamma'/></r>")
        expected = oracle.execute("doc('d.xml')//p/@id[contains(., 'beta')]")
        assert serialize_sequence(lifted) == serialize_sequence(expected)
        assert len(lifted) == 1


class TestContainsScanKernel:
    """Every element of a document holding the needle, found the way
    lifted ``contains`` finds it (``contains_plan().candidate`` +
    verify) — the contract of the former whole-document scan kernel,
    held against the same oracle."""

    @pytest.mark.parametrize("needle", NEEDLES)
    def test_oracle_equal_on_xmark(self, needle):
        root = densify(parse_document(generate_persons(CONFIG)))
        assert contains_matches(root, needle) \
            == naive_contains_scan(root, needle)

    @pytest.mark.parametrize("needle",
                             ["worldwide", "ldwide", "worldw", "rldwi",
                              "world", "wide", "untouched"])
    def test_seam_spanning_needles(self, needle):
        root = parse_document(SEAM_DOC)
        assert contains_matches(root, needle) \
            == naive_contains_scan(root, needle)

    def test_window_bounded_no_false_positive_leak(self):
        root = parse_document("<doc><a>worl</a><b>dwide</b></doc>")
        scanned = contains_matches(root, "worldwide")
        assert scanned == naive_contains_scan(root, "worldwide")
        # The occurrence spans both texts: only <doc> holds it, never
        # the sibling <a>/<b> leaves.
        assert [node.name for node in scanned] == ["doc"]

    def test_caches_invalidated_across_updates(self):
        db = Database()
        db.register("d.xml", "<doc><d>worl<b/>dwide</d><e>keep</e></doc>")
        root = db.store.get("d.xml")
        index = term_index_for(root)
        plan = index.contains_plan("worldwide")
        assert [node.name for node in contains_matches(root, "worldwide")] \
            == ["doc", "d"]
        db.execute("delete node doc('d.xml')//d/text()[1]")
        root = db.store.get("d.xml")
        assert term_index_for(root) is index  # survived the PUL
        assert index.contains_plan("worldwide") is not plan  # dropped
        assert contains_matches(root, "worldwide") \
            == naive_contains_scan(root, "worldwide") == []
        db.execute("replace value of node doc('d.xml')//e "
                   "with 'worldwide shipping'")
        root = db.store.get("d.xml")
        assert [node.name for node in contains_matches(root, "worldwide")] \
            == ["doc", "e"]
        assert contains_matches(root, "worldwide") \
            == naive_contains_scan(root, "worldwide")


class TestSLCAKernel:
    @pytest.mark.parametrize("terms", [
        ["auction"], ["rare", "vintage"], ["Main", "St"],
        ["person1"], ["auction", "person0"], ["nosuchterm"],
        ["rare", "nosuchterm"],
    ])
    def test_oracle_equal(self, terms):
        root = parse_document(generate_persons(CONFIG))
        assert_search_equal(root, terms)

    def test_attribute_terms_join_text_terms(self):
        root = parse_document(
            "<r><p id='k9'><t>alpha</t></p><p><t>alpha</t></p></r>")
        hits = keyword_search(root, ["alpha", "k9"])
        assert [hit.node.name for hit in hits] == ["p"]
        assert_search_equal(root, ["alpha", "k9"])

    def test_scores_count_term_frequency(self):
        root = parse_document("<r><a>lot lot lot</a><b>lot</b></r>")
        hits = keyword_search(root, ["lot"])
        assert [(h.node.name, h.score) for h in hits] == [("a", 1), ("b", 1)]
        # distinct-term granularity: one posting per (term, node)
        assert_search_equal(root, ["lot"])


# ---------------------------------------------------------------------------
# Incremental maintenance: postings survive PULs un-rebuilt, never stale


PERSONS_XML = generate_persons(CONFIG)


class TestIncrementalPostings:
    def updating_db(self):
        db = Database()
        db.register("p.xml", PERSONS_XML)
        return db

    def oracle(self, db, query):
        """The interpreter's answer over an identical separate copy."""
        other = Database(try_lifted=False)
        other.register("p.xml", db.store.get("p.xml"))
        return other.execute(query)

    def test_postings_survive_puls_unrebuilt(self):
        db = self.updating_db()
        db.search("auction")  # forces the index build
        before = SEARCH_STATS.snapshot()
        updates = [
            "insert node <person id='pZ'><name>Zanzibar Qwerty</name>"
            "</person> as last into doc('p.xml')/site/people",
            "delete node doc('p.xml')//person[2]",
            "replace value of node doc('p.xml')//person[1]/name "
            "with 'Vintage Collector'",
            "insert node attribute tag { 'zulu' } "
            "into doc('p.xml')//person[3]",
            "replace value of node doc('p.xml')//person[1]/@id "
            "with 'personX'",
        ]
        for update in updates:
            db.execute(update)
            root = db.store.get("p.xml")
            assert_search_equal(root, ["auction"])
            assert_search_equal(root, ["zanzibar", "qwerty"])
        after = SEARCH_STATS.snapshot()
        assert after["term_index_builds"] == before["term_index_builds"], \
            "a PUL caused a full TermIndex rebuild"
        assert after["postings_patched"] > before["postings_patched"]

    def test_deleted_nodes_never_surface(self):
        db = self.updating_db()
        index = term_index_for(db.store.get("p.xml"))
        target = db.execute("doc('p.xml')//person[4]/name/text()")[0]
        needle_term = tokenize(target.content)[0]
        assert needle_term in index._text_postings \
            or any(needle_term in tokenize(t.content) for t in [target])
        db.execute("delete node doc('p.xml')//person[4]")
        # the deleted text's serial is gone from every posting list
        for serials in index._text_postings.values():
            assert target.pre not in set(serials)
        assert target.pre not in set(index.text_serials)
        assert target.pre not in index._terms_at
        query = f"doc('p.xml')//person[contains(., '{needle_term}')]"
        assert serialize_sequence(db.execute(query)) \
            == serialize_sequence(self.oracle(db, query))

    def test_renamed_attribute_not_stale(self):
        db = Database()
        db.register("d.xml", "<r><p id='oldvalue'><t>word</t></p></r>")
        root = db.store.get("d.xml")
        index = term_index_for(root)
        assert "oldvalue" in index._attr_postings
        db.execute("rename node doc('d.xml')//p/@id as 'key'")
        # rename keeps the value; the posting must still resolve
        assert_search_equal(db.store.get("d.xml"), ["oldvalue"])
        db.execute("replace value of node doc('d.xml')//p/@key "
                   "with 'newvalue'")
        index = term_index_for(db.store.get("d.xml"))
        assert "oldvalue" not in index._attr_postings
        assert not db.search("oldvalue", uri="d.xml")
        assert [h.node.name for h in db.search("newvalue", uri="d.xml")] \
            == ["p"]

    def test_attribute_delete_evicts_postings(self):
        db = Database()
        db.register("d.xml", "<r><p id='zebra crossing'/><q/></r>")
        assert db.search("zebra", uri="d.xml")
        db.execute("delete node doc('d.xml')//p/@id")
        index = term_index_for(db.store.get("d.xml"))
        assert "zebra" not in index._attr_postings
        assert not db.search("zebra", uri="d.xml")

    def test_replace_element_value_reposts(self):
        db = Database()
        db.register("d.xml", "<r><p>ancient words</p><q>other</q></r>")
        db.search("ancient")
        db.execute("replace value of node doc('d.xml')//p "
                   "with 'modern phrase'")
        root = db.store.get("d.xml")
        assert not db.search("ancient", uri="d.xml")
        assert [h.node.name for h in db.search("modern", uri="d.xml")] \
            == ["p"]
        assert_search_equal(root, ["modern", "phrase"])

    def test_seams_repaired_across_updates(self):
        db = Database()
        db.register("d.xml", "<doc><d>worl<b/>dwide</d><e>keep</e></doc>")
        root = db.store.get("d.xml")
        assert len(contains_matches(root, "worldwide")) == 2  # doc + d
        db.execute("delete node doc('d.xml')//d/text()[1]")
        root = db.store.get("d.xml")
        assert contains_matches(root, "worldwide") \
            == naive_contains_scan(root, "worldwide") == []
        db.execute("insert node text { 'worl' } as first "
                   "into doc('d.xml')//d")
        root = db.store.get("d.xml")
        assert contains_matches(root, "worldwide") \
            == naive_contains_scan(root, "worldwide")
        assert len(contains_matches(root, "worldwide")) == 2


class TestRespreadRekeysPostings:
    """The ``update-mix`` keyword probe of ``benchmarks/e2e``: a warm
    lifted ``contains`` read after every append, across gap respreads.
    Postings, seams and the reverse maps are keyed by order-key serial
    and a respread re-stamps a whole region's serials — the term index
    must be re-keyed with it, or stale serials resolve to the wrong
    node (wrong answers, and ``AttributeError: 'ElementNode' object has
    no attribute 'content'`` out of the seam repair)."""

    WORDS = "auction lot rare vintage mint shipping signed original".split()
    APPEND = """
    declare variable $id external; declare variable $text external;
    insert node <closed_auction><seller person="{concat('ns', $id)}"/>
      <buyer person="{concat('nb', $id)}"/><price>{$id}.00</price>
      <annotation><description><text>{$text}</text></description></annotation>
    </closed_auction> as last into doc('auctions.xml')/site/closed_auctions
    """
    STAMP = """
    declare variable $id external; declare variable $text external;
    insert node attribute {concat('note', $id)} {$text}
      into doc('auctions.xml')/site/closed_auctions/closed_auction[3]
    """
    SEAM = """
    declare variable $id external; declare variable $text external;
    insert node <text>{$text} vin<b n="{$id}"/>tage</text> as last into
      doc('auctions.xml')/site/closed_auctions/closed_auction[3]
        /annotation/description
    """
    PROBES = (
        "doc('auctions.xml')//closed_auction[contains(., 'vintage')]/price",
        "doc('auctions.xml')//closed_auction/@*[contains(., 'vintage')]",
        "doc('auctions.xml')//text()[contains(., 'rare')]",
    )

    @staticmethod
    def assert_matches_rebuild(sidx):
        """Every serial-keyed structure equals a from-scratch build."""
        live, fresh = sidx.term_index, TermIndex(sidx)
        assert not live.degenerate
        for field in ("_text_postings", "_attr_postings", "text_serials",
                      "_terms_at", "_attr_terms_at", "_attrs_of",
                      "_seam_pairs"):
            assert getattr(live, field) == getattr(fresh, field), field

    def run(self, write, cycles):
        db = Database()
        db.register("auctions.xml", generate_auctions(CONFIG))
        probes = [db.prepare(query) for query in self.PROBES]
        for probe in probes:
            probe.execute()
            assert probe.last_explain.plan == "lifted"
        doc = db.store.get("auctions.xml")
        assert doc._sidx.term_index is not None
        index = doc._sidx
        search_before = SEARCH_STATS.snapshot()
        encoding_before = ENCODING_STATS.snapshot()
        rng = random.Random(11)
        writer = db.prepare(write)
        for cycle in range(cycles):
            text = " ".join(rng.choice(self.WORDS) for _ in range(12))
            writer.execute(id=str(cycle), text=text)  # must not raise
            for probe in probes:
                lifted = serialize_sequence(probe.execute())
                interpreted = serialize_sequence(evaluate_query(
                    probe.source, doc_resolver=db._resolve_document))
                assert lifted == interpreted, (cycle, probe.source)
            assert_search_equal(doc, ["vintage", "rare"])
            self.assert_matches_rebuild(index)
        assert doc._sidx is index and not index.stale
        search = SEARCH_STATS.snapshot()
        encoding = ENCODING_STATS.snapshot()
        assert encoding["gap_respreads"] > encoding_before["gap_respreads"], \
            "the run was meant to exhaust a key gap"
        assert encoding["reencodes_full"] == encoding_before["reencodes_full"]
        assert search["term_index_builds"] \
            == search_before["term_index_builds"] + cycles, \
            "a respread dropped the term index instead of re-keying it"

    def test_keyword_probe_survives_append_respreads(self):
        self.run(self.APPEND, cycles=12)

    def test_keyword_probe_survives_attribute_respreads(self):
        # One element's attribute gap (owner .. first child) is a single
        # stride: hammering it takes the respread path of
        # reencode_spliced_attributes.
        self.run(self.STAMP, cycles=40)

    def test_seams_survive_respreads(self):
        self.run(self.SEAM, cycles=12)


# ---------------------------------------------------------------------------
# Dynamic needles: stable fallback code, analyzer agreement


class TestDynamicNeedleFallback:
    DYNAMIC = ("declare variable $w external; "
               "doc('p.xml')//person[contains(., $w)]/name")

    def test_falls_back_with_stable_code(self):
        db = Database()
        db.register("p.xml", PERSONS_XML)
        explain = db.explain(self.DYNAMIC, w="worldwide")
        assert explain.plan == "interpreter"
        assert explain.fallback_code == "search-dynamic-needle"
        assert db.engine.fallback_stats() == {"search-dynamic-needle": 1}
        # the interpreter still answers it, identically to a literal
        result = db.execute(self.DYNAMIC, w="worldwide")
        literal = db.execute(
            "doc('p.xml')//person[contains(., 'worldwide')]/name")
        assert serialize_sequence(result) == serialize_sequence(literal)

    def test_analyzer_predicts_it(self):
        db = Database()
        db.register("p.xml", PERSONS_XML)
        compiled = db.engine.compile(self.DYNAMIC)
        from repro.analysis import analyze_compiled
        analysis = analyze_compiled(compiled, has_doc_resolver=True,
                                    variables={"w"})
        assert not analysis.liftable
        assert analysis.fallback_code == "search-dynamic-needle"


# ---------------------------------------------------------------------------
# Database.search surface + telemetry


class TestDatabaseSearch:
    def test_multi_document_merge_and_uri(self):
        db = Database()
        db.register("a.xml", "<r><x>alpha beta</x></r>")
        db.register("b.xml", "<r><y>alpha</y><z>beta gamma</z></r>")
        hits = db.search(["alpha"])
        assert [(h.uri, h.node.name) for h in hits] \
            == [("a.xml", "x"), ("b.xml", "y")]
        only_b = db.search(["beta"], uri="b.xml")
        assert [h.uri for h in only_b] == ["b.xml"]
        with pytest.raises(KeyError):
            db.search(["alpha"], uri="missing.xml")

    def test_ranked_and_limit(self):
        db = Database()
        db.register("a.xml", "<r><x>lot</x><y>lot lot</y></r>")
        hits = db.search("lot", ranked=True)
        assert [h.score for h in hits] == sorted(
            (h.score for h in hits), reverse=True)
        assert len(db.search("lot", limit=1)) == 1

    def test_stats_and_explain_carry_search_telemetry(self):
        db = Database()
        db.register("p.xml", PERSONS_XML)
        explain = db.explain(
            "doc('p.xml')//person[contains(., 'worldwide')]")
        assert explain.plan == "lifted"
        assert explain.counters["search.search_queries"] == 1
        # this execution built postings
        assert explain.counters["search.postings_built"] > 0
        assert explain.counters["search.postings_hits"] > 0
        assert "search:" in explain.render()
        totals = db.stats().counters
        assert totals["search.term_index_builds"] > 0
        assert totals["search.postings_built"] > 0
        assert totals["search.search_queries"] > 0
        assert totals["search.postings_hits"] > 0


# ---------------------------------------------------------------------------
# Distributed fan-out: one bulk message per site, merged doc order


class TestDistributedSearch:
    def network(self):
        net = SimulatedNetwork()
        p0 = XRPCPeer("p0.example.org", net)
        y = XRPCPeer("y.example.org", net)
        z = XRPCPeer("z.example.org", net)
        y.store.register("a.xml", generate_persons(CONFIG))
        y.store.register(
            "b.xml", "<r><m>rare vintage</m><n>plain text</n></r>")
        z.store.register("c.xml", generate_auctions(CONFIG))
        return p0, y, z

    def test_merges_to_local_search_result(self):
        p0, y, z = self.network()
        result = p0.keyword_search(
            ["rare", "vintage"],
            peers=["y.example.org", "z.example.org"])
        expected = []
        for peer, uris in ((y, ["a.xml", "b.xml"]), (z, ["c.xml"])):
            for uri in uris:
                for hit in naive_search(peer.store.get(uri),
                                        ["rare", "vintage"]):
                    expected.append(
                        (uri, hit.node.name, hit.score,
                         hit.node.string_value()))
        got = [(h.uri, h.node.name, h.score, h.node.string_value())
               for h in result.hits]
        assert got == expected
        assert expected, "distributed fixture unexpectedly empty"

    def test_one_bulk_message_per_site(self):
        p0, y, z = self.network()
        result = p0.keyword_search(
            ["rare", "vintage", "auction", "mint"],
            peers=["y.example.org", "z.example.org"])
        # all terms travel together: exactly one message per remote site
        assert result.messages_sent == 2

    def test_local_peer_served_without_messages(self):
        p0, y, z = self.network()
        p0.store.register("local.xml", "<l><m>rare vintage</m></l>")
        result = p0.keyword_search(
            "rare vintage", peers=["p0.example.org", "y.example.org"])
        assert result.messages_sent == 1
        assert result.hits[0].uri == "local.xml"

    def test_ranked_merge(self):
        p0, y, z = self.network()
        result = p0.keyword_search(
            ["auction"], peers=["y.example.org", "z.example.org"],
            ranked=True)
        scores = [h.score for h in result.hits]
        assert scores == sorted(scores, reverse=True)
        assert scores


# ---------------------------------------------------------------------------
# Property-based equivalence (hypothesis)


_TEXTS = st.text(alphabet="ab -", max_size=5)


@st.composite
def mixed_content_docs(draw):
    """Small documents with adjacent texts split by empty elements —
    the shapes that exercise seams and every needle-token mode."""
    parts = []
    for text in draw(st.lists(_TEXTS, min_size=1, max_size=6)):
        if draw(st.booleans()):
            parts.append(f"<w>{escape_text(text)}</w>")
        else:
            parts.append(escape_text(text))
            if draw(st.booleans()):
                parts.append("<s/>")
    return "<root><l>" + "".join(parts) + "</l><r>ab</r></root>"


class TestPropertyEquivalence:
    @given(doc=mixed_content_docs(),
           needle=st.text(alphabet="ab -", max_size=4))
    @settings(max_examples=80, deadline=None)
    def test_contains_prefilter_equals_oracle(self, doc, needle):
        for root in (parse_document(doc), densify(parse_document(doc))):
            assert contains_matches(root, needle) \
                == naive_contains_scan(root, needle)

    @given(doc=mixed_content_docs(),
           needle=st.text(alphabet="ab -", max_size=4))
    @settings(max_examples=80, deadline=None)
    def test_contains_scan_equals_oracle(self, doc, needle):
        # The product's kernel itself: every element of the document as
        # one candidate table through the lifted `contains` filter.
        for root in (parse_document(doc), densify(parse_document(doc))):
            elements = [node for node in root.descendants(include_self=True)
                        if isinstance(node, ElementNode)]
            table = Table(
                ("iter", "pos", "item"),
                [(1, pos, node) for pos, node in enumerate(elements, 1)])
            assert contains_filter(table, needle).column_values("item") \
                == naive_contains_scan(root, needle)

    @given(doc=mixed_content_docs(),
           terms=st.lists(st.text(alphabet="ab", min_size=1, max_size=3),
                          min_size=1, max_size=3))
    @settings(max_examples=50, deadline=None)
    def test_keyword_search_equals_oracle(self, doc, terms):
        root = parse_document(doc)
        assert_search_equal(root, terms)

    @given(texts=st.lists(st.text(alphabet="ab -", min_size=1, max_size=4),
                          min_size=1, max_size=4),
           needle=st.text(alphabet="ab -", min_size=1, max_size=3),
           drop=st.integers(min_value=0, max_value=3))
    @settings(max_examples=40, deadline=None)
    def test_equivalence_survives_interleaved_updates(self, texts, needle,
                                                      drop):
        db = Database()
        body = "".join(f"<w>{escape_text(t)}</w>" for t in texts)
        db.register("d.xml", f"<root>{body}</root>")
        db.search(needle)  # build postings before the updates
        db.execute("insert node <w>ab ba</w> as first into "
                   "doc('d.xml')/root")
        db.execute(f"delete node doc('d.xml')//w[{drop + 1}]")
        db.execute("replace value of node doc('d.xml')//w[1] with 'b a'")
        root = db.store.get("d.xml")
        assert contains_matches(root, needle) \
            == naive_contains_scan(root, needle)
        tokens = tokenize(needle)
        if tokens:
            assert_search_equal(root, tokens)


# ---------------------------------------------------------------------------
# Tokenizer spec sanity (the soundness of every prefilter mode)


class TestNeedleSpec:
    def test_modes(self):
        assert needle_token_spec("lot") == [("lot", "substring")]
        assert needle_token_spec(" lot ") == [("lot", "exact")]
        assert needle_token_spec("big lot") \
            == [("big", "suffix"), ("lot", "prefix")]
        assert needle_token_spec("--") == []
        assert needle_token_spec("") == []
