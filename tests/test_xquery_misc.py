"""Additional XQuery evaluator coverage: edge cases across features."""

import pytest

from repro import reference
from repro.errors import DynamicError, TypeError_
from tests.helpers import run, values, xml


class TestOrderByEdgeCases:
    def test_empty_least_default(self):
        query = """
        for $x in (<a>2</a>, <a/>, <a>1</a>)
        order by $x/text() return string($x)
        """
        assert values(run(query)) == ["", "1", "2"]

    def test_empty_greatest(self):
        query = """
        for $x in (<a>2</a>, <a/>, <a>1</a>)
        order by $x/text() empty greatest return string($x)
        """
        assert values(run(query)) == ["1", "2", ""]

    def test_multiple_keys(self):
        query = """
        for $p in (<p><a>1</a><b>2</b></p>, <p><a>1</a><b>1</b></p>,
                   <p><a>0</a><b>9</b></p>)
        order by number($p/a), number($p/b)
        return concat($p/a, '-', $p/b)
        """
        assert values(run(query)) == ["0-9", "1-1", "1-2"]

    def test_descending_numeric(self):
        query = "for $x in (1.5, 3, 2) order by $x descending return $x"
        assert [float(v) for v in values(run(query))] == [3.0, 2.0, 1.5]

    def test_order_by_untyped_sorts_as_string(self):
        query = """
        for $x in (<v>10</v>, <v>9</v>) order by data($x) return string($x)
        """
        assert values(run(query)) == ["10", "9"]


class TestFLWOREdgeCases:
    def test_empty_for_source_yields_nothing(self):
        assert run("for $x in () return 'never'") == []

    def test_where_before_bind_use(self):
        query = ("for $x in (1, 2, 3) let $y := $x * $x "
                 "where $y > 2 return $y")
        assert values(run(query)) == [4, 9]

    def test_shadowing_in_nested_loops(self):
        query = "for $x in (1, 2) return (for $x in (10) return $x)"
        assert values(run(query)) == [10, 10]

    def test_let_rebinding(self):
        query = "let $x := 1 let $x := $x + 1 return $x"
        assert values(run(query)) == [2]

    def test_hash_join_path_with_positional_var(self):
        # join optimization must preserve 'at' positions of the source.
        query = """
        let $db := <db><i k="b"/><i k="a"/><i k="b"/></db>
        for $probe in ('b')
        for $i at $n in $db/i
        where $i/@k = $probe
        return $n
        """
        assert values(run(query)) == [1, 3]
        # ... and equal the nested loop (the oracle never hash-joins).
        assert values(reference.evaluate(query)) == [1, 3]

    def test_join_with_numeric_keys_falls_back_correctly(self):
        # Numeric keys make string-hashing unsound; results must still be
        # right via the nested-loop fallback.
        query = """
        for $x in (1, 2, 3)
        for $y in (<v>2</v>, <v>3.0</v>)
        where $y = $x
        return concat($x, ':', $y)
        """
        assert values(run(query)) == ["2:2", "3:3.0"]
        assert values(reference.evaluate(query)) == ["2:2", "3:3.0"]


class TestArithmeticEdgeCases:
    def test_idiv_truncates_toward_zero(self):
        assert values(run("(-7) idiv 2")) == [-3]

    def test_mod_sign_follows_dividend(self):
        assert values(run("(-7) mod 2")) == [-1]
        assert values(run("7 mod -2")) == [1]

    def test_decimal_precision(self):
        from decimal import Decimal
        assert values(run("0.1 + 0.2")) == [Decimal("0.3")]

    def test_unary_minus_stacking(self):
        assert values(run("- - 5")) == [5]

    def test_mixed_decimal_integer(self):
        from decimal import Decimal
        [result] = run("1.5 * 2")
        assert result.value == Decimal("3.0")


class TestStringEdgeCases:
    def test_substring_fractional_positions(self):
        # round() semantics of fn:substring.
        assert values(run("substring('12345', 1.5, 2.6)")) == ["234"]

    def test_substring_negative_start(self):
        assert values(run("substring('12345', 0)")) == ["12345"]

    def test_concat_atomizes_nodes(self):
        assert values(run("concat(<a>x</a>, <b>y</b>)")) == ["xy"]

    def test_string_join_empty_sequence(self):
        assert values(run("string-join((), '-')")) == [""]

    def test_normalize_space_tabs_newlines(self):
        assert values(run("normalize-space('a\t\n b')")) == ["a b"]


class TestContextItem:
    def test_dot_in_predicate(self):
        assert values(run("('a', 'bb', 'ccc')[string-length(.) = 2]")) == ["bb"]

    def test_dot_in_path(self):
        query = "<a><b>x</b></a>/b/string(.)"
        assert values(run(query)) == ["x"]

    def test_missing_context_raises(self):
        with pytest.raises(DynamicError) as info:
            run("position()")
        assert info.value.code == "XPDY0002"


class TestConstructorEdgeCases:
    def test_nested_enclosed_constructors(self):
        query = "<o>{ <i>{ 1 + 1 }</i> }</o>"
        assert xml(run(query)) == "<o><i>2</i></o>"

    def test_attribute_from_variable(self):
        query = 'let $y := 1996 return <film year="{$y}"/>'
        assert xml(run(query)) == '<film year="1996"/>'

    def test_multiple_attribute_parts(self):
        query = '<a v="{1}-{2}"/>'
        assert xml(run(query)) == '<a v="1-2"/>'

    def test_empty_enclosed_content(self):
        assert xml(run("<a>{()}</a>")) == "<a/>"

    def test_text_node_between_enclosed(self):
        assert xml(run("<a>{1} and {2}</a>")) == "<a>1 and 2</a>"

    def test_constructed_tree_fully_navigable(self):
        query = """
        let $tree := <r><x i="1"/><x i="2"/></r>
        return $tree/x[@i = '2']/@i/string(.)
        """
        assert values(run(query)) == ["2"]

    def test_constructor_copies_do_not_alias(self):
        query = """
        let $leaf := <leaf/>
        let $one := <a>{$leaf}</a>
        let $two := <b>{$leaf}</b>
        return $one/leaf is $two/leaf
        """
        assert values(run(query)) == [False]


class TestExecuteAtErrors:
    def test_no_handler_installed(self):
        query = """
        declare function local:f() { 1 };
        execute at {"xrpc://x"} { local:f() }
        """
        with pytest.raises(DynamicError) as info:
            run(query)
        assert info.value.code == "XRPC0001"

    def test_multi_item_destination_rejected(self):
        query = """
        declare function local:f() { 1 };
        execute at {("a", "b")} { local:f() }
        """
        with pytest.raises((TypeError_, DynamicError)):
            run(query, xrpc_handler=lambda call: [])


class TestIsolationOptionParsing:
    def test_options_surface_on_compiled_query(self):
        from repro.xquery.evaluator import CompiledQuery
        compiled = CompiledQuery("""
        declare option xrpc:isolation "repeatable";
        declare option xrpc:timeout "30";
        1
        """)
        assert compiled.options["xrpc:isolation"] == "repeatable"
        assert compiled.options["xrpc:timeout"] == "30"


class TestDataShippingQueries:
    def test_doc_function_in_path_inside_flwor(self):
        docs = {"db.xml": "<db><v>1</v><v>2</v></db>"}
        query = "for $v in doc('db.xml')//v return number($v) * 10"
        assert values(run(query, docs=docs)) == [10.0, 20.0]

    def test_two_docs_joined(self):
        docs = {
            "l.xml": '<l><e k="a">left-a</e><e k="b">left-b</e></l>',
            "r.xml": '<r><e k="b">right-b</e></r>',
        }
        query = """
        for $l in doc('l.xml')//e, $r in doc('r.xml')//e
        where $l/@k = $r/@k
        return concat($l, '+', $r)
        """
        assert values(run(query, docs=docs)) == ["left-b+right-b"]
