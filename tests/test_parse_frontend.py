"""Differential suite: the parse frontend against the parsing oracle.

``parse_document`` builds its trees inside expat's events, minting keys
and stamping pre/size/level by hand; the oracle
(``repro.reference.parse_document``) is a hand-written parser that goes
through ``NodeFactory``.  The contract is identical trees — same node
kinds in the same order, same names/values, same namespace resolution,
and identical pre/size/level planes and gapped order keys.  Every test
of the first class parses the same input both ways and compares full
tree encodings, plus property-based round-trips (parse -> serialize ->
parse).  The oracle is laxer about what a document is; the last class
pins what the product refuses, and how.
"""

import string as stringmod

import pytest
from hypothesis import given, settings, strategies as st

from repro import reference
from repro.session import Database
from repro.soap.messages import XRPCRequest, build_request, parse_request
from repro.workloads.xmark import (
    XMarkConfig,
    generate_auctions,
    generate_persons,
)
from repro.xdm.atomic import integer, string
from repro.xdm.nodes import (
    CommentNode,
    DocumentNode,
    ElementNode,
    KEY_STRIDE,
    ProcessingInstructionNode,
    TextNode,
)
from repro.xml.parser import XMLSyntaxError, decode_xml_bytes, parse_document
from repro.xml.serializer import escape_attribute, escape_text, serialize
from repro.xml.stats import PARSE_STATS
from tests.helpers import item_shape, reference_sequences, sender_fault


def rows(document):
    """Flatten a tree into comparable row dicts (iterative: deep docs)."""
    out = []
    stack = [(document, None)]
    while stack:
        node, parent = stack.pop()
        row = {
            "kind": type(node).__name__,
            "serial": node.order_key[1],
            "size": node.size,
            "level": node.level,
            "parent": None if parent is None else parent.order_key[1],
        }
        if isinstance(node, ElementNode):
            row.update(name=node.name, ns=node.ns_uri,
                       local=node.local_name,
                       decls=dict(node.namespace_declarations))
            for attribute in node.attributes:
                row.setdefault("attrs", []).append(
                    (attribute.order_key[1], attribute.name,
                     attribute.value, attribute.ns_uri, attribute.level,
                     attribute.local_name))
            stack.extend((c, node) for c in reversed(node.children))
        elif isinstance(node, (TextNode, CommentNode)):
            row["content"] = node.content
        elif isinstance(node, ProcessingInstructionNode):
            row["target"] = node.target
            row["content"] = node.content
        elif isinstance(node, DocumentNode):
            row["uri"] = node.uri
            stack.extend((c, node) for c in reversed(node.children))
        out.append(row)
    return out


def assert_identical(text):
    """The oracle's tree and the product's, equal row for row; *text*
    may be ``bytes``, which the oracle reads decoded."""
    decoded = text if isinstance(text, str) else decode_xml_bytes(text)
    oracle = reference.parse_document(decoded, uri="u")
    product = parse_document(text, uri="u")
    assert rows(oracle) == rows(product)
    return oracle, product


XMARK = XMarkConfig(persons=25, closed_auctions=50, open_auctions=10)


class TestIdenticalTrees:
    def test_xmark_auctions(self):
        assert_identical(generate_auctions(XMARK))

    def test_xmark_persons(self):
        assert_identical(generate_persons(XMARK))

    def test_gapped_order_keys(self):
        _, doc = assert_identical("<r><a x='1'/><b>t</b></r>")
        serials = [n.order_key[1] for n in doc.descendants()]
        assert all(s % KEY_STRIDE == 0 for s in serials)
        assert serials == sorted(serials)

    def test_namespaces(self):
        assert_identical(
            '<r xmlns="urn:d" xmlns:a="urn:a" id="r1">'
            '<a:item a:k="v" plain="p"/>'
            '<e2 xmlns=""><inner/></e2>'
            '<deep xmlns:b="urn:b"><b:x b:y="z"/></deep></r>')

    def test_namespace_rescoping(self):
        assert_identical(
            '<r xmlns:p="urn:1"><p:a><b xmlns:p="urn:2"><p:c/></b>'
            '<p:d/></p:a><e/></r>')

    def test_xml_prefix_predeclared(self):
        assert_identical('<r xml:lang="en"><xml:a/></r>')

    def test_cdata_pi_comments(self):
        assert_identical(
            "<?xml version='1.0'?><!-- head --><?style sheet ?>"
            "<r>a<![CDATA[<raw> & stuff]]>b<!-- in -->"
            "<?pi data?></r><!-- tail -->")

    @pytest.mark.parametrize("text, kinds", [
        ("<!DOCTYPE r [<!-- c -->]><r/>", ["element"]),
        ("<!DOCTYPE r [<?p x?>]><r/>", ["element"]),
        ("<!DOCTYPE r [<!-- c --><?p x?>]><!-- d --><?q y?><r><!--e--></r>",
         ["comment", "processing-instruction", "element"]),
        ("<!DOCTYPE r><!-- c --><r/>", ["comment", "element"]),
    ])
    def test_internal_subset_markup_is_not_a_child(self, text, kinds):
        _, doc = assert_identical(text)
        assert [child.kind for child in doc.children] == kinds

    def test_empty_cdata_yields_text_node(self):
        py, ex = assert_identical("<r><![CDATA[]]></r>")
        assert isinstance(ex.root_element.children[0], TextNode)
        assert ex.root_element.children[0].content == ""

    def test_entity_references(self):
        assert_identical(
            "<r a='&quot;&apos;'>&amp;&lt;&gt; &#65;&#x42;</r>")

    def test_attribute_whitespace_normalized(self):
        py, ex = assert_identical('<r a="x\ny\tz" b="&#10;&#9;"/>')
        a, b = ex.root_element.attributes
        assert a.value == "x y z"      # literal whitespace -> space
        assert b.value == "\n\t"       # character references exempt

    def test_line_ending_normalization(self):
        assert_identical("<r>a\r\nb\rc</r>")

    def test_deep_document_5000(self):
        deep = ("<root>" + "".join(f"<n{i}>" for i in range(5000)) + "x"
                + "".join(f"</n{i}>" for i in reversed(range(5000)))
                + "</root>")
        assert_identical(deep)

    def test_size_covers_attributes(self):
        _, doc = assert_identical('<r><a x="1" y="2"/></r>')
        a = doc.root_element.children[0]
        # The descendant window pre < x <= pre+size spans the attributes.
        assert a.size == 2 * KEY_STRIDE

    def test_mixed_content_text_runs(self):
        assert_identical("<r>one<y/>two<z/>three</r>")


class TestBytesInput:
    def test_plain_utf8_bytes(self):
        _, doc = assert_identical("<r>é</r>".encode("utf-8"))
        assert doc.root_element.string_value() == "é"

    def test_utf8_bom(self):
        _, doc = assert_identical(b"\xef\xbb\xbf<r>x</r>")
        assert doc.root_element.string_value() == "x"

    def test_utf16_bom(self):
        _, doc = assert_identical(
            '<?xml version="1.0" encoding="utf-16"?><r>é</r>'
            .encode("utf-16"))
        assert doc.root_element.string_value() == "é"

    def test_declared_latin1(self):
        _, doc = assert_identical(
            '<?xml version="1.0" encoding="ISO-8859-1"?><r>é</r>'
            .encode("latin-1"))
        assert doc.root_element.string_value() == "é"

    @pytest.mark.parametrize("encoding", ["shift_jis", "utf-32", "gbk"])
    def test_any_codec_python_knows(self, encoding):
        # Expat alone answers these with a bare ValueError / LookupError.
        _, doc = assert_identical(
            f'<?xml version="1.0" encoding="{encoding}"?><r>日本</r>'
            .encode(encoding))
        assert doc.root_element.string_value() == "日本"

    def test_decode_xml_bytes_unknown_encoding(self):
        data = b'<?xml version="1.0" encoding="no-such-enc"?><r/>'
        with pytest.raises(XMLSyntaxError):
            decode_xml_bytes(data)
        with pytest.raises(XMLSyntaxError, match="no-such-enc"):
            parse_document(data)

    def test_bytes_not_in_their_encoding(self):
        for data in (b"<r>\xff</r>", b"\xef\xbb\xbf<r>\xff</r>",
                     b'<?xml version="1.0" encoding="ascii"?><r>\xe9</r>'):
            with pytest.raises(XMLSyntaxError, match="cannot decode"):
                parse_document(data)

    def test_a_declaration_in_a_str_is_not_believed(self):
        # A str is already decoded: what it declares cannot matter.
        doc = parse_document(
            '<?xml version="1.0" encoding="utf-16"?><r>é</r>')
        assert doc.root_element.string_value() == "é"

    @pytest.mark.parametrize("text", [None, 5, ["<r/>"]])
    def test_neither_str_nor_bytes_is_a_caller_bug(self, text):
        with pytest.raises(TypeError):
            parse_document(text)

    def test_str_and_bytes_same_tree(self):
        text = generate_persons(XMARK)
        assert rows(parse_document(text)) \
            == rows(parse_document(text.encode("utf-8")))


#: Documents with a DTD that declares something, or leans on one.
DECLARATIONS = {
    "entity, referenced": '<!DOCTYPE r [<!ENTITY e "x">]><r>&e;</r>',
    "entity, unused": '<!DOCTYPE r [<!ENTITY e "x">]><r/>',
    "parameter entity": '<!DOCTYPE r [<!ENTITY % p "x">]><r/>',
    "attribute default": '<!DOCTYPE r [<!ATTLIST r a CDATA "1">]><r/>',
    "entity of an unread external DTD": '<!DOCTYPE r SYSTEM "r.dtd"><r>&e;</r>',
    "billion laughs": (
        '<!DOCTYPE r [<!ENTITY a "ha"><!ENTITY b "&a;&a;&a;&a;&a;&a;&a;&a;">'
        '<!ENTITY c "&b;&b;&b;&b;&b;&b;&b;&b;">]><r>&c;</r>'),
}

MALFORMED = ["<r>", "<r></s>", "<r a='1' a='2'/>", "text only",
             "<r>&unknown;</r>", "<a/><b/>"]


class TestDispatchAndFallback:
    """One driver, no retry (the ids are from when there were two)."""

    def test_default_is_expat(self):
        before = PARSE_STATS.snapshot()
        parse_document("<r/>")
        after = PARSE_STATS.snapshot()
        assert after["documents_expat"] == before["documents_expat"] + 1
        assert set(after) == {"documents_expat", "bytes_expat",
                              "fallbacks_to_python"}

    def test_unknown_backend_rejected(self):
        for backend in ("libxml2", "python", "expat", None):
            with pytest.raises(TypeError):
                parse_document("<r/>", backend=backend)
            with pytest.raises(TypeError):
                parse_request("<r/>", backend=backend)

    def test_internal_subset_falls_back(self):
        # ... no longer: a declaration is refused where it stands (the
        # oracle would skip the subset), and nothing is parsed twice.
        for name, text in DECLARATIONS.items():
            before = PARSE_STATS.snapshot()
            with pytest.raises(XMLSyntaxError) as caught:
                parse_document(text)
            assert type(caught.value) is XMLSyntaxError, name
            assert caught.value.line == 1 and caught.value.column > 1, name
            assert PARSE_STATS.snapshot() == before, name
            assert str(caught.value) in sender_fault(text), name

    def test_explicit_expat_never_falls_back(self):
        # A DOCTYPE that declares nothing is not a reason to refuse.
        for text in ("<!DOCTYPE r><r/>", '<!DOCTYPE r SYSTEM "r.dtd"><r/>',
                     "<!DOCTYPE r [<!ELEMENT r EMPTY>]><r/>"):
            assert_identical(text)

    def test_malformed_error_parity(self):
        for text in MALFORMED:
            with pytest.raises(XMLSyntaxError):
                reference.parse_document(text)
            with pytest.raises(XMLSyntaxError) as caught:
                parse_document(text)
            assert caught.value.line == 1 and caught.value.column >= 1
            assert f"(line 1, column {caught.value.column})" \
                in str(caught.value)

    def test_error_locations_match(self):
        text = "<root>\n  <unclosed>\n</root>"
        with pytest.raises(XMLSyntaxError) as oracle_err:
            reference.parse_document(text)
        with pytest.raises(XMLSyntaxError) as product_err:
            parse_document(text)
        assert product_err.value.line == oracle_err.value.line == 3
        assert str(product_err.value) \
            == "mismatched tag (line 3, column 3)"

    def test_a_lone_surrogate_is_a_syntax_error_with_a_location(self):
        # It never reaches expat (the str does not encode), and must
        # not surface as a UnicodeEncodeError.
        with pytest.raises(XMLSyntaxError) as caught:
            parse_document("<r>\n<a/>  \ud800</r>")
        assert (caught.value.line, caught.value.column) == (2, 7)

    def test_a_consumer_s_bug_is_not_swallowed(self):
        def broken(source):
            raise RuntimeError("a bug, not a syntax error")
        before = PARSE_STATS.snapshot()
        with pytest.raises(RuntimeError):
            parse_document("<r/>", consumer=broken)
        assert PARSE_STATS.snapshot() == before

    def test_message_path_backend_threading(self):
        request = XRPCRequest(module="m", method="f", arity=1,
                              location="http://x/m.xq")
        request.add_call([[integer(1), string("a&b")]])
        payload = build_request(request)
        parsed = parse_request(payload.encode("utf-8"))
        assert parsed.method == "f"
        assert parsed.calls[0][0][1].value == "a&b"
        [oracle] = reference_sequences(payload)
        assert [item_shape(item) for item in parsed.calls[0][0]] \
            == [item_shape(item) for item in oracle]


class TestTelemetry:
    def test_database_stats_counters(self):
        db = Database()
        before = db.stats().counters
        db.register("d.xml", "<r><a/></r>")
        after = db.stats()
        assert after.counters["parse.documents_expat"] \
            == before["parse.documents_expat"] + 1
        assert after.counters["parse.bytes_expat"] > before["parse.bytes_expat"]

    def test_explain_reports_no_parse_work_for_warm_doc(self):
        db = Database()
        db.register("d.xml", "<r><a>1</a></r>")
        explain = db.explain("doc('d.xml')//a")
        assert not [key for key in explain.counters
                    if key.startswith("parse.")]


# ---------------------------------------------------------------------------
# Property-based round-trips, product and oracle

_NAME_START = stringmod.ascii_letters + "_"
_NAME_CHARS = stringmod.ascii_letters + stringmod.digits + "_-."

xml_names = st.builds(
    lambda first, rest: first + rest,
    st.sampled_from(_NAME_START),
    st.text(alphabet=_NAME_CHARS, max_size=8),
)

# The Char production of XML 1.0: no control character but tab, line
# feed and carriage return, no surrogate, no U+FFFE / U+FFFF.
xml_text = st.text(
    alphabet=st.characters(blacklist_categories=("Cc", "Cs"),
                           blacklist_characters="\ufffe\uffff",
                           whitelist_characters="\t\n\r"),
    max_size=40,
)


@st.composite
def xml_trees(draw, depth=2):
    name = draw(xml_names)
    attributes = draw(st.dictionaries(xml_names, xml_text, max_size=3))
    attr_text = "".join(
        f' {key}="{escape_attribute(value)}"'
        for key, value in attributes.items())
    if depth == 0:
        content = escape_text(draw(xml_text))
    else:
        parts = draw(st.lists(
            st.one_of(xml_text.map(escape_text),
                      xml_trees(depth=depth - 1)),
            max_size=3))
        content = "".join(parts)
    return f"<{name}{attr_text}>{content}</{name}>"


@settings(max_examples=60, deadline=None)
@given(xml_trees())
def test_backends_agree_on_random_trees(text):
    assert rows(reference.parse_document(text)) \
        == rows(parse_document(text))


@settings(max_examples=60, deadline=None)
@given(xml_trees())
def test_round_trip_across_backends(text):
    # parse -> serialize -> parse is a fixed point, of the product's
    # tree and of the oracle's, and both serialize alike.
    doc = parse_document(text)
    serialized = serialize(doc)
    assert serialized == serialize(reference.parse_document(text))
    reparsed = parse_document(serialized)
    assert rows(reparsed) == rows(reference.parse_document(serialized))
    assert serialize(reparsed) == serialized
    assert [node.string_value() for node in reparsed.descendants()] \
        == [node.string_value() for node in doc.descendants()]
