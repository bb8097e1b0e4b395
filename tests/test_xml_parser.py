"""Unit tests for the from-scratch XML parser."""

import pytest

from repro.xdm.nodes import CommentNode, ElementNode
from repro.xml import XMLSyntaxError, parse_document, parse_fragment, serialize


class TestBasicParsing:
    def test_single_element(self):
        doc = parse_document("<a/>")
        assert doc.root_element.name == "a"
        assert doc.root_element.children == []

    def test_nested_elements(self):
        doc = parse_document("<a><b><c/></b></a>")
        root = doc.root_element
        assert root.children[0].name == "b"
        assert root.children[0].children[0].name == "c"

    def test_text_content(self):
        doc = parse_document("<a>hello</a>")
        assert doc.root_element.string_value() == "hello"

    def test_mixed_content(self):
        doc = parse_document("<a>x<b>y</b>z</a>")
        root = doc.root_element
        kinds = [child.kind for child in root.children]
        assert kinds == ["text", "element", "text"]
        assert root.string_value() == "xyz"

    def test_attributes(self):
        doc = parse_document('<a x="1" y="two"/>')
        root = doc.root_element
        assert root.get_attribute("x").value == "1"
        assert root.get_attribute("y").value == "two"

    def test_attribute_single_quotes(self):
        doc = parse_document("<a x='v'/>")
        assert doc.root_element.get_attribute("x").value == "v"

    def test_xml_declaration_skipped(self):
        doc = parse_document('<?xml version="1.0" encoding="utf-8"?><a/>')
        assert doc.root_element.name == "a"

    def test_comment(self):
        doc = parse_document("<a><!-- note --></a>")
        comment = doc.root_element.children[0]
        assert isinstance(comment, CommentNode)
        assert comment.content == " note "

    def test_processing_instruction(self):
        doc = parse_document("<a><?target data?></a>")
        pi = doc.root_element.children[0]
        assert pi.kind == "processing-instruction"
        assert pi.target == "target"
        assert pi.content == "data"

    def test_cdata(self):
        doc = parse_document("<a><![CDATA[<not-markup>]]></a>")
        assert doc.root_element.string_value() == "<not-markup>"

    def test_entities(self):
        doc = parse_document("<a>&lt;&amp;&gt;&quot;&apos;</a>")
        assert doc.root_element.string_value() == "<&>\"'"

    def test_numeric_character_references(self):
        doc = parse_document("<a>&#65;&#x42;</a>")
        assert doc.root_element.string_value() == "AB"

    def test_doctype_skipped(self):
        doc = parse_document("<!DOCTYPE films><films/>")
        assert doc.root_element.name == "films"

    def test_document_uri(self):
        doc = parse_document("<a/>", uri="file:///x.xml")
        assert doc.uri == "file:///x.xml"

    def test_fragment(self):
        element = parse_fragment("<film><name>The Rock</name></film>")
        assert isinstance(element, ElementNode)
        assert element.parent is None
        assert element.string_value() == "The Rock"


class TestNamespaces:
    def test_default_namespace(self):
        doc = parse_document('<a xmlns="urn:x"><b/></a>')
        assert doc.root_element.ns_uri == "urn:x"
        assert doc.root_element.children[0].ns_uri == "urn:x"

    def test_prefixed_namespace(self):
        doc = parse_document('<p:a xmlns:p="urn:p"><p:b/></p:a>')
        root = doc.root_element
        assert root.ns_uri == "urn:p"
        assert root.local_name == "a"
        assert root.children[0].ns_uri == "urn:p"

    def test_attribute_namespace_no_default(self):
        doc = parse_document('<a xmlns="urn:x" y="1"/>')
        # Unprefixed attributes never take the default namespace.
        assert doc.root_element.get_attribute("y").ns_uri is None

    def test_prefixed_attribute(self):
        doc = parse_document('<a xmlns:p="urn:p" p:y="1"/>')
        attr = doc.root_element.get_attribute("p:y")
        assert attr.ns_uri == "urn:p"
        assert attr.local_name == "y"

    def test_undeclared_prefix_rejected(self):
        with pytest.raises(XMLSyntaxError):
            parse_document("<p:a/>")

    def test_nested_scope_override(self):
        doc = parse_document('<a xmlns="urn:1"><b xmlns="urn:2"/></a>')
        assert doc.root_element.children[0].ns_uri == "urn:2"


class TestDefaultNamespaceSerialization:
    """An unprefixed element carries its default namespace out of the
    ancestor that declared it — on both emitters and over the wire."""

    def inner(self, xml: str):
        return parse_document(xml).root_element.children[0]

    @pytest.mark.parametrize("indent,text", [
        (False, '<p xmlns="urn:d"><q/></p>'),
        (True, '<p xmlns="urn:d">\n  <q/>\n</p>'),
    ])
    def test_subtree_declares_the_inherited_default(self, indent, text):
        p = self.inner("<r xmlns='urn:d'><p><q/></p></r>")
        assert serialize(p, indent=indent) == text
        reparsed = parse_document(serialize(p, indent=indent)).root_element
        assert reparsed.ns_uri == "urn:d"
        assert reparsed.find("q").ns_uri == "urn:d"

    def test_no_namespace_under_a_default_is_undeclared(self):
        doc = parse_document("<r xmlns='urn:d'><p xmlns=''><q/></p><s/></r>")
        assert serialize(doc) == \
            '<r xmlns="urn:d"><p xmlns=""><q/></p><s/></r>'
        r = parse_document("<r xmlns='urn:d'><s/></r>").root_element
        r.children[0].ns_uri = None
        text = serialize(r)
        assert text == '<r xmlns="urn:d"><s xmlns=""/></r>'
        assert parse_document(text).root_element.children[0].ns_uri is None

    def test_declared_once_per_scope(self):
        doc = parse_document("<r xmlns='urn:d'><p><q/><q/></p></r>")
        assert serialize(doc) == '<r xmlns="urn:d"><p><q/><q/></p></r>'
        assert serialize(self.inner("<r><p><q/></p></r>")) == "<p><q/></p>"

    def test_shipped_element_keeps_its_namespace(self):
        from tests.helpers import shipped
        p = self.inner("<r xmlns='urn:d'><p><q/></p></r>")
        [arrived] = shipped([p])
        assert arrived.ns_uri == "urn:d"
        assert arrived.children[0].ns_uri == "urn:d"

    def test_constructed_default_element_namespace(self):
        from repro.session import Database
        from tests.helpers import shipped
        [a] = Database().execute(
            'declare default element namespace "urn:x"; <a><b/></a>')
        assert serialize(a) == '<a xmlns="urn:x"><b/></a>'
        [arrived] = shipped([a])
        assert (arrived.ns_uri, arrived.children[0].ns_uri) == \
            ("urn:x", "urn:x")


class TestWellFormednessErrors:
    @pytest.mark.parametrize("bad", [
        "<a>",
        "<a></b>",
        "<a",
        "<a x=1/>",
        '<a x="1" x="2"/>',
        "<a>&unknown;</a>",
        "<a/><b/>",
        "text only",
        "<a><!-- -- --></a>",
        # Not characters of XML 1.0, raw or as a reference; "]]>" in
        # character data; a DTD that declares something.
        "<r>\x01</r>",
        "<r>&#1;</r>",
        "<r>]]></r>",
        "<r>\ufffe</r>",
        "<r>\ud800</r>",
        '<!DOCTYPE r [<!ENTITY e "x">]><r/>',
        '<!DOCTYPE r [<!ATTLIST r a CDATA "1">]><r a="2"/>',
    ])
    def test_rejects(self, bad):
        with pytest.raises(XMLSyntaxError):
            parse_document(bad)

    def test_error_has_location(self):
        with pytest.raises(XMLSyntaxError) as info:
            parse_document("<a>\n<b></c>\n</a>")
        assert info.value.line == 2


class TestDocumentOrder:
    def test_order_keys_ascend(self):
        doc = parse_document("<a><b/><c><d/></c></a>")
        nodes = list(doc.descendants(include_self=True))
        keys = [node.order_key for node in nodes]
        assert keys == sorted(keys)

    def test_cross_document_order_stable(self):
        first = parse_document("<a/>")
        second = parse_document("<b/>")
        assert first.order_key[0] != second.order_key[0]


class TestRoundTrip:
    @pytest.mark.parametrize("xml", [
        "<a/>",
        "<a>text</a>",
        '<a x="1"><b>y</b></a>',
        "<a>&lt;escaped&gt;</a>",
        '<films><film><name>The Rock</name><actor>Sean Connery</actor></film></films>',
    ])
    def test_parse_serialize_parse(self, xml):
        doc1 = parse_document(xml)
        text = serialize(doc1)
        doc2 = parse_document(text)
        from repro.xdm.sequence import deep_equal
        assert deep_equal([doc1], [doc2])

    def test_carriage_returns_survive(self):
        # A parser normalises a raw \r (to \n; to a space in an
        # attribute), so the serializer must write the reference.
        doc = parse_document("<r a='x&#13;y&#13;&#10;z'>p&#13;q&#13;&#10;s</r>")
        root = doc.root_element
        assert root.string_value() == "p\rq\r\ns"
        assert root.get_attribute("a").value == "x\ry\r\nz"
        text = serialize(doc)
        assert "\r" not in text and text.count("&#13;") == 4
        again = parse_document(text).root_element
        assert again.string_value() == "p\rq\r\ns"
        assert again.get_attribute("a").value == "x\ry\r\nz"
        assert serialize(parse_document(text)) == text

    def test_namespace_round_trip(self):
        xml = '<p:a xmlns:p="urn:p"><p:b/></p:a>'
        text = serialize(parse_document(xml))
        reparsed = parse_document(text)
        assert reparsed.root_element.ns_uri == "urn:p"
