"""XQuery Update Facility tests: update primitives, PULs, updating queries."""

import pytest

from repro.errors import UpdateError
from repro.xml import parse_document, serialize
from repro.xquery.context import ExecutionContext
from repro.xquery.evaluator import CompiledQuery, evaluate_query
from repro.xquery.modules import ModuleRegistry
from repro.xquf import PendingUpdateList, apply_updates
from tests.helpers import values


def run_update(query: str, doc_xml: str) -> str:
    """Run an updating query against a single document 'db.xml';
    returns the serialized post-state."""
    document = parse_document(doc_xml, uri="db.xml")
    evaluate_query(query, doc_resolver=lambda uri: document,
                   apply_pending_updates=True)
    return serialize(document)


class TestInsert:
    def test_insert_into(self):
        result = run_update(
            "insert node <c/> into doc('db.xml')/a", "<a><b/></a>")
        assert result == "<a><b/><c/></a>"

    def test_insert_as_first(self):
        result = run_update(
            "insert node <c/> as first into doc('db.xml')/a", "<a><b/></a>")
        assert result == "<a><c/><b/></a>"

    def test_insert_as_last(self):
        result = run_update(
            "insert node <c/> as last into doc('db.xml')/a", "<a><b/></a>")
        assert result == "<a><b/><c/></a>"

    def test_insert_before(self):
        result = run_update(
            "insert node <c/> before doc('db.xml')/a/b", "<a><b/></a>")
        assert result == "<a><c/><b/></a>"

    def test_insert_after(self):
        result = run_update(
            "insert node <c/> after doc('db.xml')/a/b[1]", "<a><b/><b/></a>")
        assert result == "<a><b/><c/><b/></a>"

    def test_insert_multiple_nodes(self):
        result = run_update(
            "insert nodes (<c/>, <d/>) into doc('db.xml')/a", "<a/>")
        assert result == "<a><c/><d/></a>"

    def test_insert_attribute(self):
        result = run_update(
            "insert node attribute y { '2' } into doc('db.xml')/a", "<a/>")
        assert result == '<a y="2"/>'

    def test_inserted_content_is_copied(self):
        document = parse_document("<a/>", uri="db.xml")
        query = "let $n := <b/> return (insert node $n into doc('db.xml')/a)"
        evaluate_query(query, doc_resolver=lambda uri: document)
        inserted = document.root_element.children[0]
        assert inserted.name == "b"
        # Fresh identity: a different doc_id than any constructed node.
        assert inserted.parent is document.root_element


class TestDelete:
    def test_delete_single(self):
        result = run_update("delete node doc('db.xml')/a/b", "<a><b/><c/></a>")
        assert result == "<a><c/></a>"

    def test_delete_multiple(self):
        result = run_update("delete nodes doc('db.xml')/a/b", "<a><b/><b/><c/></a>")
        assert result == "<a><c/></a>"

    def test_delete_attribute(self):
        result = run_update("delete node doc('db.xml')/a/@x", '<a x="1"/>')
        assert result == "<a/>"

    def test_delete_with_predicate(self):
        result = run_update(
            "delete nodes doc('db.xml')//item[@price > 10]",
            '<list><item price="5"/><item price="20"/></list>')
        assert result == '<list><item price="5"/></list>'


class TestReplace:
    def test_replace_node(self):
        result = run_update(
            "replace node doc('db.xml')/a/b with <z/>", "<a><b/></a>")
        assert result == "<a><z/></a>"

    def test_replace_value_of_element(self):
        result = run_update(
            "replace value of node doc('db.xml')/a/b with 'new'",
            "<a><b>old</b></a>")
        assert result == "<a><b>new</b></a>"

    def test_replace_value_of_attribute(self):
        result = run_update(
            "replace value of node doc('db.xml')/a/@x with '9'", '<a x="1"/>')
        assert result == '<a x="9"/>'

    def test_replace_attribute_node(self):
        result = run_update(
            "replace node doc('db.xml')/a/@x with attribute y { '2' }",
            '<a x="1"/>')
        assert result == '<a y="2"/>'


class TestRename:
    def test_rename_element(self):
        result = run_update(
            "rename node doc('db.xml')/a/b as 'c'", "<a><b/></a>")
        assert result == "<a><c/></a>"

    def test_rename_attribute(self):
        result = run_update(
            "rename node doc('db.xml')/a/@x as 'y'", '<a x="1"/>')
        assert result == '<a y="1"/>'


class TestPULSemantics:
    def test_updates_invisible_until_applied(self):
        document = parse_document("<a><b/></a>", uri="db.xml")
        compiled = CompiledQuery(
            "(insert node <c/> into doc('db.xml')/a, count(doc('db.xml')/a/*))")
        result, pul = compiled.run(
            ExecutionContext(doc_resolver=lambda uri: document))
        # The query still sees the pre-update state.
        assert values(result) == [1]
        assert len(pul) == 1
        apply_updates(pul)
        assert len(document.root_element.children) == 2

    def test_pul_merge_union(self):
        document = parse_document("<a/>", uri="db.xml")
        resolver = lambda uri: document
        pul_total = PendingUpdateList()
        for label in ("x", "y"):
            compiled = CompiledQuery(
                f"insert node <{label}/> into doc('db.xml')/a")
            _, pul = compiled.run(ExecutionContext(doc_resolver=resolver))
            pul_total.merge(pul)
        apply_updates(pul_total)
        names = [c.name for c in document.root_element.children]
        assert sorted(names) == ["x", "y"]

    def test_updating_function_in_module(self):
        module = """
        module namespace m = "urn:m";
        declare updating function m:add($target as node(), $name as xs:string)
        { insert node element { $name } {} into $target };
        """
        registry = ModuleRegistry()
        registry.register_source(module)
        document = parse_document("<a/>", uri="db.xml")
        query = """
        import module namespace m = "urn:m";
        m:add(doc('db.xml')/a, 'kid')
        """
        evaluate_query(query, registry=registry,
                       doc_resolver=lambda uri: document)
        assert document.root_element.children[0].name == "kid"

    def test_deletes_applied_last(self):
        # Insert relative to a node that is also deleted: insert must win
        # placement before the delete removes its anchor.
        document = parse_document("<a><b/></a>", uri="db.xml")
        query = """
        (insert node <c/> after doc('db.xml')/a/b,
         delete node doc('db.xml')/a/b)
        """
        evaluate_query(query, doc_resolver=lambda uri: document)
        assert serialize(document) == "<a><c/></a>"

    def test_fn_put_records_primitive(self):
        stored = {}
        document = parse_document("<a/>", uri="src.xml")
        evaluate_query(
            "put(doc('src.xml'), 'dest.xml')",
            doc_resolver=lambda uri: document,
            put_store=lambda uri, node: stored.__setitem__(uri, node))
        assert "dest.xml" in stored

    def test_replace_target_must_be_single(self):
        with pytest.raises(UpdateError):
            run_update(
                "replace node doc('db.xml')/a/b with <z/>", "<a><b/><b/></a>")


class TestUpdateErrors:
    def test_insert_into_text_node_rejected(self):
        with pytest.raises(UpdateError):
            run_update(
                "insert node <c/> into doc('db.xml')/a/text()", "<a>t</a>")

    def test_rename_text_node_rejected(self):
        with pytest.raises(UpdateError):
            run_update(
                "rename node doc('db.xml')/a/text() as 'x'", "<a>t</a>")

    def test_insert_before_root_rejected(self):
        # Document root's parent handling: before a parentless element.
        from repro.xml import parse_fragment
        from repro.xquf.pul import InsertBefore
        fragment = parse_fragment("<lone/>")
        with pytest.raises(UpdateError):
            InsertBefore(fragment, []).apply()
