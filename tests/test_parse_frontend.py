"""Differential suite: expat vs pure-python parse backends.

The expat frontend's contract is byte-identical trees — same node kinds
in the same order, same names/values, same namespace resolution, and
identical pre/size/level planes and gapped order keys.  Every test here
parses the same input through both backends and compares full tree
encodings, plus property-based round-trips (parse -> serialize ->
parse) across both.
"""

import string as stringmod

import pytest
from hypothesis import given, settings, strategies as st

from repro.session import Database
from repro.soap.messages import XRPCRequest, build_request, parse_request
from repro.workloads.xmark import (
    XMarkConfig,
    generate_auctions,
    generate_persons,
)
from repro.xdm.atomic import integer, string
from repro.xdm.nodes import (
    AttributeNode,
    CommentNode,
    DocumentNode,
    ElementNode,
    KEY_STRIDE,
    ProcessingInstructionNode,
    TextNode,
)
from repro.xml.expat_parser import ExpatUnsupported, parse_document_expat
from repro.xml.parser import (
    BACKENDS,
    XMLSyntaxError,
    decode_xml_bytes,
    parse_document,
    parse_document_python,
)
from repro.xml.serializer import escape_attribute, escape_text, serialize
from repro.xml.stats import PARSE_STATS


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
    py = parse_document(text, uri="u", backend="python")
    ex = parse_document(text, uri="u", backend="expat")
    assert rows(py) == rows(ex)
    return py, ex


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
        py = parse_document("<r>é</r>".encode("utf-8"), backend="python")
        ex = parse_document("<r>é</r>".encode("utf-8"), backend="expat")
        assert rows(py) == rows(ex)
        assert ex.root_element.string_value() == "é"

    def test_utf8_bom(self):
        data = b"\xef\xbb\xbf<r>x</r>"
        for backend in BACKENDS:
            doc = parse_document(data, backend=backend)
            assert doc.root_element.string_value() == "x"

    def test_utf16_bom(self):
        data = '<?xml version="1.0" encoding="utf-16"?><r>é</r>' \
            .encode("utf-16")
        for backend in BACKENDS:
            doc = parse_document(data, backend=backend)
            assert doc.root_element.string_value() == "é"

    def test_declared_latin1(self):
        data = ('<?xml version="1.0" encoding="ISO-8859-1"?><r>é</r>'
                .encode("latin-1"))
        for backend in BACKENDS:
            doc = parse_document(data, backend=backend)
            assert doc.root_element.string_value() == "é"

    def test_decode_xml_bytes_unknown_encoding(self):
        with pytest.raises(XMLSyntaxError):
            decode_xml_bytes(
                b'<?xml version="1.0" encoding="no-such-enc"?><r/>')

    def test_str_and_bytes_same_tree(self):
        text = generate_persons(XMARK)
        assert rows(parse_document(text)) \
            == rows(parse_document(text.encode("utf-8")))


class TestDispatchAndFallback:
    def test_default_is_expat(self):
        before = PARSE_STATS.snapshot()
        parse_document("<r/>")
        after = PARSE_STATS.snapshot()
        assert after["documents_expat"] == before["documents_expat"] + 1
        assert after["documents_python"] == before["documents_python"]

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            parse_document("<r/>", backend="libxml2")

    def test_internal_subset_falls_back(self):
        # Declared entities are outside the expat backend's subset; the
        # python parser skips the subset but rejects the *reference*, so
        # the dispatcher's fallback re-diagnoses uniformly.
        text = '<!DOCTYPE r [<!ENTITY e "x">]><r>&e;</r>'
        with pytest.raises(ExpatUnsupported):
            parse_document_expat(text)
        before = PARSE_STATS.snapshot()["fallbacks_to_python"]
        with pytest.raises(XMLSyntaxError):
            parse_document(text)
        assert PARSE_STATS.snapshot()["fallbacks_to_python"] == before + 1

    def test_explicit_expat_never_falls_back(self):
        with pytest.raises(ExpatUnsupported):
            parse_document('<!DOCTYPE r [<!ENTITY e "x">]><r/>',
                           backend="expat")

    def test_malformed_error_parity(self):
        cases = ["<r>", "<r></s>", "<r a='1' a='2'/>", "text only",
                 "<r>&unknown;</r>", "<a/><b/>"]
        for text in cases:
            for backend in (None, "python", "expat"):
                with pytest.raises(XMLSyntaxError):
                    parse_document(text, backend=backend)

    def test_error_locations_match(self):
        text = "<root>\n  <unclosed>\n</root>"
        with pytest.raises(XMLSyntaxError) as py_err:
            parse_document(text, backend="python")
        with pytest.raises(XMLSyntaxError) as default_err:
            parse_document(text)  # expat fails, python re-diagnoses
        assert str(default_err.value) == str(py_err.value)

    def test_message_path_backend_threading(self):
        request = XRPCRequest(module="m", method="f", arity=1,
                              location="http://x/m.xq")
        request.add_call([[integer(1), string("a&b")]])
        payload = build_request(request)
        for backend in BACKENDS:
            parsed = parse_request(payload.encode("utf-8"), backend=backend)
            assert parsed.method == "f"
            assert parsed.calls[0][0][1].value == "a&b"


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
# Property-based round-trips across both backends

_NAME_START = stringmod.ascii_letters + "_"
_NAME_CHARS = stringmod.ascii_letters + stringmod.digits + "_-."

xml_names = st.builds(
    lambda first, rest: first + rest,
    st.sampled_from(_NAME_START),
    st.text(alphabet=_NAME_CHARS, max_size=8),
)

xml_text = st.text(
    alphabet=st.characters(blacklist_categories=("Cc", "Cs"),
                           blacklist_characters="\r"),
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
    assert rows(parse_document(text, backend="python")) \
        == rows(parse_document(text, backend="expat"))


@settings(max_examples=60, deadline=None)
@given(xml_trees())
def test_round_trip_across_backends(text):
    # parse -> serialize -> parse is a fixed point, on either backend,
    # and the serialized form is backend-independent.
    serialized = {}
    for backend in BACKENDS:
        doc = parse_document(text, backend=backend)
        serialized[backend] = serialize(doc)
        reparsed = parse_document(serialized[backend], backend=backend)
        assert rows(reparsed) == rows(
            parse_document(serialized[backend],
                           backend="python" if backend == "expat"
                           else "expat"))
        assert serialize(reparsed) == serialized[backend]
    assert serialized["expat"] == serialized["python"]
