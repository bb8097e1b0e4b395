"""Structural accelerator layer: pre/size/level encoding, StructuralIndex,
set-at-a-time axis evaluation, and its invalidation on tree mutation."""

import pytest

from repro import reference
from repro.obs import Scope
from repro.session import Database
from repro.xdm import (
    KEY_STRIDE,
    NodeFactory,
    reencode_tree,
    structural_index,
)
from repro.xdm.nodes import ElementNode
from repro.xml import parse_document
from repro.xquery import evaluator
from repro.xquery.evaluator import evaluate_query
from tests.helpers import (
    assert_matches_reference,
    densify,
    run,
    shipped,
    strings,
)

SITE = """
<site>
  <people>
    <person id="p0"><name>Ada</name><city>London</city></person>
    <person id="p1"><name>Grace</name><city>Arlington</city></person>
  </people>
  <auctions>
    <auction><buyer ref="p0"/><price>12</price></auction>
    <auction><buyer ref="p1"/><price>99</price></auction>
  </auctions>
</site>
"""

AXIS_QUERIES = [
    "doc('s.xml')/site/people/person/name",
    "doc('s.xml')//person",
    "doc('s.xml')//person[2]/name",
    "doc('s.xml')//person[last()]",
    "doc('s.xml')//person[@id = 'p1']/city",
    "doc('s.xml')//name/..",
    "doc('s.xml')//buyer/ancestor::*",
    "doc('s.xml')//price/ancestor-or-self::node()",
    "doc('s.xml')//name/following::price",
    "doc('s.xml')//price/preceding::name",
    "doc('s.xml')//person[1]/following-sibling::person",
    "doc('s.xml')//auction[2]/preceding-sibling::auction",
    "doc('s.xml')//buyer/@ref",
    "doc('s.xml')//@ref/..",
    "doc('s.xml')//@id/following::auction",
    "doc('s.xml')//@ref/preceding::person",
    "doc('s.xml')//*/self::person",
    "(doc('s.xml')//person, doc('s.xml')//auction)/descendant-or-self::node()",
    "doc('s.xml')//person/descendant::text()",
    "doc('s.xml')//city/parent::person/child::name",
    "doc('s.xml')//people/child::*",
    # A static rank on a reverse axis.
    "doc('s.xml')//city/ancestor::*[2]",
    # A predicate numeric only at run time, in a query `check` refuses.
    "for $n in (2, 1) order by $n return doc('s.xml')//auction[$n]/price",
    # Value predicates reading position() and last() on reverse axes.
    "doc('s.xml')//city/ancestor-or-self::*[position() = last() - 1]",
    "doc('s.xml')//auction/preceding-sibling::node()[position() * 2 > last()]",
    # Attribute context nodes, ranked and filtered per window.
    "doc('s.xml')//@id/ancestor-or-self::node()[2]",
    "doc('s.xml')//@ref/ancestor::*[position() + 1 = last()]",
    # Context nodes from two trees.
    "(doc('u.xml'), doc('s.xml'))//city",
    "(doc('s.xml'), doc('u.xml'))//person/name[. != 'Ada']",
    # An indexed shape whose probe is not a string scans instead.
    "doc('s.xml')//auction[price = 12]",
]

OTHER = ("<site><people><person id='p9'><name>Alan</name>"
         "<city>Wilmslow</city></person></people></site>")

#: The kernels some queries' steps call, between them.
KERNELS_OF = {
    "doc('s.xml')//person[@id = 'p1']/city": {"equality_probe_step",
                                               "axis_step"},
    "doc('s.xml')//auction[price = 12]": {"axis_step"},
    "doc('s.xml')//city/ancestor::*[2]": {"axis_step", "positional_step"},
}


def _site():
    return {"s.xml": parse_document(SITE, uri="s.xml"),
            "u.xml": parse_document(OTHER, uri="u.xml")}


class TestEncoding:
    def test_parser_stamps_pre_size_level_in_one_pass(self):
        doc = parse_document("<a x='1'><b/><c>t</c></a>")
        a = doc.root_element
        assert doc.pre == 0 and doc.level == 0
        # Serials are gapped (stride KEY_STRIDE); sizes are serial-unit
        # extents: a's subtree holds attribute x, b, c, text = 4 keys.
        stride = KEY_STRIDE
        assert a.pre == stride and a.size == 4 * stride and a.level == 1
        b, c = a.child_elements()
        assert (b.level, c.level) == (2, 2)
        assert b.size == 0 and c.size == stride  # c holds one text node
        assert a.attributes[0].level == 2
        # document extent covers every serial issued after it
        assert doc.size == 5 * stride

    def test_dense_stride_recovers_historical_encoding(self):
        doc = densify(parse_document("<a x='1'><b/><c>t</c></a>"))
        a = doc.root_element
        assert a.pre == 1 and a.size == 4
        assert doc.size == 5

    def test_descendant_window_contains_exactly_the_subtree(self):
        doc = parse_document(SITE)
        people = doc.root_element.find("people")
        lo, hi = people.pre, people.pre + people.size
        inside = [n for n in doc.descendants()
                  if lo < n.pre <= hi]
        assert set(id(n) for n in inside) == \
            set(id(n) for n in people.descendants())

    def test_structural_index_columns(self):
        doc = parse_document("<a><b><c/></b><d/></a>")
        index = structural_index(doc)
        assert [n.kind for n in index.nodes] == \
            ["document", "element", "element", "element", "element"]
        assert list(index.sizes) == [4, 3, 1, 0, 0]
        assert list(index.levels) == [0, 1, 2, 3, 2]
        assert index.name_pres("c") == [3]
        assert index.name_pres("nope") == []

    def test_index_cached_until_mutation(self):
        doc = parse_document("<a><b/></a>")
        first = structural_index(doc)
        assert structural_index(doc) is first
        doc.root_element.append(NodeFactory().element("c"))
        second = structural_index(doc)
        assert second is not first
        assert second.generation > first.generation
        assert second.name_pres("c") == [3]

    def test_set_attribute_invalidates(self):
        doc = parse_document("<a/>")
        first = structural_index(doc)
        doc.root_element.set_attribute(NodeFactory().attribute("x", "1"))
        assert structural_index(doc) is not first

    def test_reencode_restores_document_order(self):
        doc = parse_document("<a><b/><d/></a>")
        foreign = NodeFactory().element("c")  # later doc_id, early position
        a = doc.root_element
        a.children.insert(1, foreign)
        foreign.parent = a
        reencode_tree(doc)
        keys = [n.order_key for n in doc.descendants(include_self=True)]
        assert keys == sorted(keys)
        assert len(set(keys)) == len(keys)
        # Restamped with gaps so the next update stays O(change).
        stride = KEY_STRIDE
        assert [n.pre for n in doc.descendants(include_self=True)] == \
            [0, stride, 2 * stride, 3 * stride, 4 * stride]
        assert a.size == 3 * stride and foreign.level == 2


class TestAxisEquivalence:
    @pytest.mark.parametrize("query", AXIS_QUERIES)
    def test_accelerated_equals_naive(self, query):
        assert_matches_reference(query, _site().get)

    @pytest.mark.parametrize("query", AXIS_QUERIES)
    def test_each_interpreted_step_is_one_kernel_call(self, query,
                                                      monkeypatch):
        """The product interpreter runs every step as one call of the
        lifted plan's kernels (``repro.algebra.paths``, wrapped where
        the evaluator binds them)."""
        in_flight: list[list[str]] = []  # per step: the kernels it called
        steps: list[list[str]] = []
        eval_step = evaluator.Evaluator._eval_axis_step

        def counted_step(self, *args):
            in_flight.append([])
            try:
                return eval_step(self, *args)
            finally:
                steps.append(in_flight.pop())
        monkeypatch.setattr(evaluator.Evaluator, "_eval_axis_step",
                            counted_step)
        for name in ("axis_step", "positional_step", "equality_probe_step"):
            def counted(*args, _kernel=getattr(evaluator, name), _name=name,
                        **kwargs):
                in_flight[-1].append(_name)
                return _kernel(*args, **kwargs)
            monkeypatch.setattr(evaluator, name, counted)
        db = Database(try_lifted=False)
        db.register("s.xml", SITE)
        db.register("u.xml", OTHER)
        assert db.explain(query).plan == "interpreter"
        assert steps and all(len(kernels) == 1 for kernels in steps), steps
        if query in KERNELS_OF:
            assert {kernels[0] for kernels in steps} == KERNELS_OF[query]
        monkeypatch.undo()
        assert_matches_reference(query, db._resolve_document)

    def test_reference_builds_no_index(self):
        # The oracle must share neither the StructuralIndex nor a
        # ValueIndex with what it checks: it never builds one.
        docs = _site()
        with Scope() as scope:
            for query in AXIS_QUERIES:
                reference.evaluate(query, doc_resolver=docs.get)
        assert "updates.index_builds" not in scope.counters
        assert docs["s.xml"]._sidx is None

    def test_attributes_merge_in_document_order(self):
        # Attribute nodes of distinct elements interleave with the global
        # order of their owners when pooled through one step.
        result = run("doc('s.xml')//@*", docs={"s.xml": SITE})
        assert [a.value for a in result] == ["p0", "p1", "p0", "p1"]
        assert_matches_reference("doc('s.xml')//@*", _site().get)

    def test_duplicate_context_nodes_deduplicate(self):
        query = ("let $p := doc('s.xml')//person "
                 "return ($p, $p)/descendant::text()")
        assert_matches_reference(query, _site().get)

    def test_covered_contexts_are_staircase_pruned(self):
        # site and its person descendants: windows overlap entirely.
        query = ("(doc('s.xml')/site, doc('s.xml')//person)"
                 "/descendant::name")
        assert_matches_reference(query, _site().get)
        result = run(query, docs={"s.xml": SITE})
        assert strings(result) == ["Ada", "Grace"]


class TestAdoptedFragments:
    """Call-by-value fragments out of the message decoder are standalone
    trees: the upward and sideways axes must stay empty at the remote
    side, and the downward/order axes must work over the fragment's own
    index."""

    def _adopted_person(self):
        source = parse_document(SITE)
        [person] = [e for e in source.root_element.find("people").child_elements()
                    if e.get_attribute("id").value == "p0"]
        return shipped([person])[0]

    @pytest.mark.parametrize("axis,expected", [
        ("parent::*", 0),
        ("ancestor::*", 0),
        ("ancestor-or-self::*", 1),     # only the fragment root itself
        ("following-sibling::*", 0),
        ("preceding-sibling::*", 0),
        ("following::*", 0),
        ("preceding::*", 0),
        ("self::person", 1),
        ("child::*", 2),
        ("descendant::node()", 4),      # name, 'Ada', city, 'London'
    ])
    def test_axes_on_adopted_fragment(self, axis, expected):
        fragment = self._adopted_person()
        for evaluate in (evaluate_query, reference.evaluate):
            result = evaluate(f"$f/{axis}", variables={"f": [fragment]},
                              context_item=fragment)
            assert len(result) == expected, (axis, evaluate)

    def test_adopted_fragment_attribute_axis(self):
        fragment = self._adopted_person()
        result = evaluate_query("$f/@id", variables={"f": [fragment]})
        assert [a.value for a in result] == ["p0"]


class TestUpdateInvalidation:
    def test_axes_after_pul_apply(self):
        docs = _site()
        # Prime the structural index, then mutate through a PUL.
        before = evaluate_query("doc('s.xml')//person",
                                doc_resolver=docs.get)
        assert len(before) == 2
        evaluate_query(
            "insert node <person id='p2'><name>Edsger</name></person> "
            "as last into doc('s.xml')/site/people",
            doc_resolver=docs.get)
        after = evaluate_query("doc('s.xml')//person/name",
                               doc_resolver=docs.get)
        assert strings(after) == ["Ada", "Grace", "Edsger"]
        assert_matches_reference("doc('s.xml')//person/name", docs.get)

    def test_inserted_content_sorts_in_tree_position(self):
        # Spliced-in nodes are re-encoded into their new tree position:
        # a document-order merge must not push them to the end.
        docs = _site()
        evaluate_query(
            "insert node <person id='pX'><name>Alonzo</name></person> "
            "as first into doc('s.xml')/site/people",
            doc_resolver=docs.get)
        names = evaluate_query("doc('s.xml')//name", doc_resolver=docs.get)
        assert strings(names) == ["Alonzo", "Ada", "Grace"]
        assert_matches_reference("doc('s.xml')//name", docs.get)

    def test_replace_value_on_element_reencodes(self):
        # ReplaceValue splices a fresh-factory text node into the target
        # element; without re-encoding, the new node's foreign doc_id
        # would sort it after the whole tree on the reference path.
        docs = _site()
        evaluate_query(
            "replace value of node doc('s.xml')//person[1]/name "
            "with 'Augusta'",
            doc_resolver=docs.get)
        assert_matches_reference("doc('s.xml')//node()", docs.get)
        assert "Augusta" in strings(
            evaluate_query("doc('s.xml')//name", doc_resolver=docs.get))

    def test_value_index_invalidated_by_update(self):
        # The equality-predicate index must be rebuilt after a PUL
        # changed the keyed values (it is cached on the structural index,
        # which mutation replaces).
        docs = _site()
        probe = "doc('s.xml')//person[@id = 'p1']/name"
        assert strings(evaluate_query(probe, doc_resolver=docs.get)) == \
            ["Grace"]
        evaluate_query(
            "for $p in doc('s.xml')//person "
            "where $p/@id = 'p1' "
            "return rename node $p as 'retired'",
            doc_resolver=docs.get)
        assert strings(evaluate_query(probe, doc_resolver=docs.get)) == []

    def test_value_index_cache_key_not_id_based(self):
        # Two distinct anchors must never share one cached value index
        # (the old cache keyed by id(anchor) could collide after GC).
        docs = _site()
        query = ("for $scope in (doc('s.xml')/site/people, doc('s.xml')/site) "
                 "return count($scope/descendant::person[@id = 'p0'])")
        counts = [v.value for v in evaluate_query(query, doc_resolver=docs.get)]
        assert counts == [1, 1]


#: Names that share a local name and differ in namespace, as the step's
#: name and as its predicate's key.
NAMESPACED = ("<r xmlns:x='urn:x' xmlns:y='urn:y'>"
              "<x:p k='1'>X</x:p><y:p k='1'>Y</y:p>"
              "<p x:k='1'>px</p><p y:k='1'>py</p><p k='1'>p</p>"
              "<q><x:c>1</x:c>qx</q><q><c>1</c>q</q></r>")

#: Equality-probe queries over NAMESPACED, with what they return.
NAMESPACED_PROBES = {
    "declare namespace a = 'urn:x'; doc('n.xml')/*/a:p[@k = '1']": ["X"],
    "declare namespace a = 'urn:y'; doc('n.xml')/*/a:p[@k = '1']": ["Y"],
    "declare namespace a = 'urn:x'; doc('n.xml')/*/p[@a:k = '1']": ["px"],
    "declare namespace a = 'urn:y'; doc('n.xml')//p[@a:k = '1']": ["py"],
    "doc('n.xml')/*/p[@k = '1']": ["p"],
    "doc('n.xml')//p[@*:k = '1']": ["px", "py", "p"],
    "doc('n.xml')//*:p[@k = '1']": ["X", "Y", "p"],
    "doc('n.xml')/*/q[c = '1']": ["1q"],
    "declare namespace b = 'urn:x'; doc('n.xml')//q[b:c = '1']": ["1qx"],
    "declare default element namespace 'urn:x'; "
    "doc('n.xml')/*:r/p[@k = '1']": ["X"],
}


class TestValueIndexNamespaces:
    """A value index is keyed by the namespaces its names resolve to: one
    prefix bound to two URIs asks for two indexes, and a key step's
    name matches by namespace as the scan's does."""

    def test_one_tree_serves_every_binding(self):
        # One tree for all: an index built for one binding of a prefix
        # must not answer for another.
        docs = {"n.xml": parse_document(NAMESPACED, uri="n.xml")}
        for query, expected in [*NAMESPACED_PROBES.items(),
                                *reversed(NAMESPACED_PROBES.items())]:
            result = assert_matches_reference(query, docs.get)
            assert strings(result) == expected, query

    @pytest.mark.parametrize("query", NAMESPACED_PROBES)
    def test_the_probe_answers_as_the_scan(self, query):
        docs = {"n.xml": parse_document(NAMESPACED, uri="n.xml")}
        assert strings(assert_matches_reference(query, docs.get)) \
            == NAMESPACED_PROBES[query]


class TestNodeLevelWalkers:
    def test_descendants_iterative_on_deep_tree(self):
        factory = NodeFactory()
        root = factory.element("root")
        node = root
        for _ in range(5000):
            child = factory.element("n")
            node.append(child)
            node = child
        assert sum(1 for _ in root.descendants()) == 5000
        assert sum(1 for _ in node.ancestors()) == 5000

    def test_preceding_is_lazy_and_never_walks_forward(self, monkeypatch):
        # 400 sections of 3 leaves; take a node near the *front* and the
        # last node.  The first yields of preceding must not traverse the
        # document: count children-property reads.
        doc = parse_document(
            "<r>" + "".join(
                f"<s><a/><b/><c/></s>" for _ in range(400)) + "</r>")
        sections = doc.root_element.child_elements()
        reads = []
        original = ElementNode.children
        monkeypatch.setattr(
            ElementNode, "children",
            property(lambda self: (reads.append(1), original.fget(self))[1]))

        early = sections[1]
        assert [n.name for n in early.preceding()
                if isinstance(n, ElementNode)] == ["c", "b", "a", "s"]
        early_reads = len(reads)
        assert early_reads < 40, "preceding walked forward nodes"

        reads.clear()
        last_leaf = sections[-1].child_elements()[-1]
        first_two = []
        gen = last_leaf.preceding()
        first_two.append(next(gen))
        first_two.append(next(gen))
        assert [n.name for n in first_two] == ["b", "a"]
        assert len(reads) < 40, "preceding materialized the whole document"

    def test_preceding_of_attribute_equals_owner(self):
        doc = parse_document(SITE)
        buyer = doc.root_element.find("auctions").child_elements()[0] \
            .child_elements()[0]
        ref = buyer.attributes[0]
        assert [id(n) for n in ref.preceding()] == \
            [id(n) for n in buyer.preceding()]
