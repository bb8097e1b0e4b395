"""Relational path pushdown: pathfinder-vs-interpreter equivalence.

Every lifted axis/name-test combination must compile through
:class:`LoopLiftingCompiler` (no ``UnsupportedExpression``) and return
results identical to the tree interpreter — same nodes, document order,
no duplicates — over the XMark documents of the paper's experiment.
Axes outside the lifted core must fall back with a message naming the
offending AST node type, which the engine records as telemetry.
"""

import pytest

from repro.engine.base import Engine
from repro.pathfinder import LoopLiftedQuery, UnsupportedExpression
from repro.workloads.xmark import XMarkConfig, generate_auctions, generate_persons
from repro.xdm.nodes import Node
from repro.xml import parse_document
from repro.xml.serializer import serialize_sequence
from repro.xquery.context import ExecutionContext
from repro.xquery.evaluator import CompiledQuery, evaluate_query

CONFIG = XMarkConfig(persons=12, closed_auctions=30, open_auctions=6,
                     matches=3)


@pytest.fixture(scope="module")
def resolver():
    documents = {
        "persons.xml": parse_document(generate_persons(CONFIG),
                                      uri="persons.xml"),
        "auctions.xml": parse_document(generate_auctions(CONFIG),
                                       uri="auctions.xml"),
    }
    return documents.get


def assert_equivalent(query, resolver, context_item=None, nonempty=True):
    """Lifted and interpreted results must be the *same* sequence."""
    lifted = LoopLiftedQuery(CompiledQuery(query), ExecutionContext(
        doc_resolver=resolver, context_item=context_item)).run()
    interpreted = evaluate_query(query, doc_resolver=resolver,
                                 context_item=context_item)
    assert len(lifted) == len(interpreted)
    for left, right in zip(lifted, interpreted):
        if isinstance(left, Node) or isinstance(right, Node):
            assert left is right  # same node identity, not just equal text
    assert serialize_sequence(lifted) == serialize_sequence(interpreted)
    if nonempty:
        assert lifted, f"query unexpectedly empty: {query}"
    return lifted


class TestLiftedAxes:
    """child / descendant / descendant-or-self / attribute / self, with
    name tests, wildcards and kind tests."""

    def test_child_chain(self, resolver):
        assert_equivalent(
            "doc('persons.xml')/site/people/person/name", resolver)

    def test_descendant_name(self, resolver):
        assert_equivalent("doc('auctions.xml')//closed_auction", resolver)

    def test_descendant_then_child(self, resolver):
        assert_equivalent("doc('auctions.xml')//closed_auction/price",
                          resolver)

    def test_descendant_or_self(self, resolver):
        assert_equivalent(
            "doc('auctions.xml')//annotation/descendant-or-self::text()",
            resolver)

    def test_attribute_axis(self, resolver):
        assert_equivalent("doc('auctions.xml')//buyer/@person", resolver)

    def test_attribute_wildcard(self, resolver):
        assert_equivalent("doc('auctions.xml')//seller/@*", resolver)

    def test_self_axis(self, resolver):
        assert_equivalent(
            "doc('persons.xml')//person/self::person/name", resolver)

    def test_parent_axis(self, resolver):
        assert_equivalent(
            "doc('persons.xml')//person/parent::people", resolver)

    def test_parent_axis_abbreviated(self, resolver):
        assert_equivalent("doc('persons.xml')//name/../address", resolver)

    def test_parent_axis_dedup_across_iterations(self, resolver):
        # Children of one parent share it: per-iteration contexts keep
        # one row each, a whole-sequence step deduplicates.
        assert_equivalent(
            "let $n := doc('persons.xml')//name "
            "return $n/parent::person", resolver)

    def test_parent_of_attribute_is_owner(self, resolver):
        assert_equivalent(
            "doc('auctions.xml')//buyer/@person/parent::buyer", resolver)

    def test_parent_wildcard(self, resolver):
        assert_equivalent("doc('persons.xml')//city/parent::*", resolver)

    def test_wildcard_name(self, resolver):
        assert_equivalent("doc('persons.xml')/site/people/person/*",
                          resolver)

    def test_text_kind_test(self, resolver):
        assert_equivalent("doc('persons.xml')//name/text()", resolver)

    def test_document_order_and_dedup_over_nested_contexts(self, resolver):
        # $n holds nested nodes (site contains every annotation), so a
        # naive union of per-node scans would duplicate: the staircase
        # prune must emit each descendant exactly once, in order.
        result = assert_equivalent(
            "let $n := (doc('auctions.xml')/site, "
            "doc('auctions.xml')//annotation) "
            "return $n/descendant::text()", resolver)
        keys = [node.order_key for node in result]
        assert keys == sorted(keys)
        assert len(keys) == len(set(keys))


class TestEmptyAndIteration:
    def test_empty_result_absent_rows(self, resolver):
        assert_equivalent("doc('persons.xml')//nonexistent", resolver,
                          nonempty=False)

    def test_empty_per_iteration(self, resolver):
        # Rows absent for every iteration; the loop relation keeps the
        # iterations alive (empty sequences are representable).
        assert_equivalent(
            "for $p in doc('persons.xml')//person return $p/nonexistent",
            resolver, nonempty=False)

    def test_multi_iteration_flwor(self, resolver):
        assert_equivalent(
            "for $p in doc('persons.xml')//person return $p/name",
            resolver)

    def test_nested_flwor_with_paths(self, resolver):
        assert_equivalent(
            "for $ca in doc('auctions.xml')//closed_auction "
            "for $b in $ca/buyer return $b/@person", resolver)

    def test_where_clause_with_path_condition(self, resolver):
        assert_equivalent(
            "for $ca in doc('auctions.xml')//closed_auction "
            "where $ca/buyer/@person = 'person0' "
            "return $ca/itemref/@item", resolver)

    def test_relative_path_over_variable_sequence(self, resolver):
        assert_equivalent(
            "let $people := doc('persons.xml')//person "
            "return $people/address/city", resolver)


class TestPredicates:
    def test_attribute_equality_predicate(self, resolver):
        assert_equivalent(
            "doc('auctions.xml')//closed_auction"
            "[buyer/@person = 'person0']/price", resolver)

    def test_existence_predicate(self, resolver):
        assert_equivalent(
            "doc('auctions.xml')//open_auction[bidder]/initial", resolver)

    def test_predicate_inside_flwor(self, resolver):
        assert_equivalent(
            "for $id in ('person0', 'person1', 'person999') "
            "return doc('persons.xml')//person[@id = $id]/name",
            resolver)

    def test_positional_predicate_lifts(self, resolver):
        assert_equivalent("doc('persons.xml')//person[1]/name", resolver)

    def test_positional_last_lifts(self, resolver):
        assert_equivalent("doc('persons.xml')//person[last()]/name", resolver)

    def test_position_comparison_lifts(self, resolver):
        assert_equivalent(
            "doc('persons.xml')//person/*[position() >= 2]", resolver)

    def test_positional_on_reverse_axis(self, resolver):
        assert_equivalent(
            "doc('persons.xml')//city/ancestor::*[2]", resolver)
        assert_equivalent(
            "doc('persons.xml')//city/preceding::name[1]", resolver)

    def test_positional_mixed_with_boolean_predicate(self, resolver):
        assert_equivalent(
            "doc('auctions.xml')//closed_auction[seller]/*[2]", resolver)

    def test_out_of_range_positions_are_empty(self, resolver):
        assert_equivalent("doc('persons.xml')//person[0]", resolver,
                          nonempty=False)
        assert_equivalent("doc('persons.xml')//person[1.5]", resolver,
                          nonempty=False)


class TestContextItemRoots:
    def test_absolute_path(self, resolver):
        document = resolver("persons.xml")
        assert_equivalent("/site/people/person/name", resolver,
                          context_item=document)

    def test_root_descendant_path(self, resolver):
        document = resolver("auctions.xml")
        assert_equivalent("//closed_auction/buyer", resolver,
                          context_item=document)

    def test_relative_path_from_context(self, resolver):
        element = resolver("persons.xml").root_element
        assert_equivalent("people/person/emailaddress", resolver,
                          context_item=element)

    def test_context_item_expression(self, resolver):
        element = resolver("persons.xml").root_element
        assert_equivalent("./people/person/name", resolver,
                          context_item=element)


class TestClosedAxes:
    """The axes that used to bail to the interpreter now lift as window
    kernels and match it node for node."""

    @pytest.mark.parametrize("query", [
        "doc('persons.xml')//person/ancestor::site",
        "doc('persons.xml')//city/ancestor::person/name",
        "doc('persons.xml')//city/ancestor-or-self::*",
        "doc('persons.xml')//name/following::person",
        "doc('persons.xml')//address/preceding::name",
        "doc('persons.xml')//person/following-sibling::person",
        "doc('auctions.xml')//seller/following-sibling::itemref",
        "doc('auctions.xml')//itemref/preceding-sibling::seller",
        "doc('auctions.xml')//seller/following::price",
        "doc('auctions.xml')//price/preceding::seller",
    ])
    def test_closed_axis_equivalence(self, resolver, query):
        assert_equivalent(query, resolver)


class TestFallbackTelemetry:
    """Unsupported constructs name their AST node type uniformly and
    carry a stable code, and the engine records plan choice + reason."""

    @pytest.mark.parametrize("query,node_type,code", [
        ("<wrapper/>", "DirectElement", "expr-not-lifted"),
        ("for $x in (2, 1) order by $x return $x", "OrderByClause",
         "clause-not-lifted"),
        ("count(doc('persons.xml')//person)", "FunctionCall",
         "function-not-lifted"),
        ("doc('persons.xml')//person[name is name]", "Comparison",
         "comparison-not-lifted"),
    ])
    def test_fallback_names_node_type(self, resolver, query, node_type, code):
        with pytest.raises(UnsupportedExpression) as excinfo:
            LoopLiftedQuery(CompiledQuery(query), ExecutionContext(
                doc_resolver=resolver)).run()
        assert str(excinfo.value).startswith(node_type + ":")
        assert excinfo.value.code == code

    def test_engine_records_lifted_plan(self, resolver):
        engine = Engine()
        result, explain = engine.execute(
            "doc('persons.xml')//person/name",
            ExecutionContext(doc_resolver=resolver))
        assert engine.last_plan == explain.plan == "lifted"
        assert explain.fallback_reason is None
        assert len(result) == CONFIG.persons

    def test_engine_falls_back_with_reason(self, resolver):
        engine = Engine()
        result, explain = engine.execute(
            "count(doc('persons.xml')//person)",
            ExecutionContext(doc_resolver=resolver))
        assert engine.last_plan == explain.plan == "interpreter"
        assert explain.fallback_reason.startswith("FunctionCall:")
        assert explain.fallback_code == "function-not-lifted"
        assert engine.fallback_stats() == {"function-not-lifted": 1}
        assert len(result) == 1

    def test_formerly_falling_axes_now_run_lifted(self, resolver):
        engine = Engine()
        result, explain = engine.execute(
            "doc('persons.xml')//name/ancestor::person",
            ExecutionContext(doc_resolver=resolver))
        assert explain.plan == "lifted"
        assert explain.fallback_reason is None
        assert engine.fallback_stats() == {}
        assert len(result) == CONFIG.persons

    def test_engine_fallback_matches_interpreter(self, resolver):
        engine = Engine()
        query = "count(doc('auctions.xml')//closed_auction)"
        result, _ = engine.execute(
            query, ExecutionContext(doc_resolver=resolver))
        expected = evaluate_query(query, doc_resolver=resolver)
        assert serialize_sequence(result) == serialize_sequence(expected)

    def test_fn_doc_without_resolver_falls_back(self):
        with pytest.raises(UnsupportedExpression, match="FunctionCall"):
            LoopLiftedQuery(
                CompiledQuery("doc('persons.xml')//person")).run()
