"""The one-pass SOAP decode: what it allocates, and that it agrees with
the tree it replaced.

``parse_message`` consumes the envelope as parse events and has only the
content of ``xrpc:element`` / ``xrpc:document`` holders built as nodes.
The first class pins that (no order key, no node spent on a holder); the
corpus below feeds every message shape through the one-pass decode and
holds what comes out against the oracle — ``repro.reference.n2s`` over
the same message parsed as a whole tree by the oracle's own parser
(``tests.helpers.reference_sequences``; the ``[python]`` ids).
"""

import dataclasses

import pytest

from repro.errors import XRPCFault
from repro.soap.messages import (
    ENV_NS,
    XRPC_NS,
    XSI_NS,
    QueryID,
    TxnCommand,
    TxnResult,
    XRPCRequest,
    XRPCResponse,
    build_fault,
    build_request,
    build_response,
    build_txn_command,
    build_txn_result,
    parse_message,
    parse_request,
)
from repro.xdm.atomic import AtomicValue, integer, string
from repro.xdm.nodes import (
    KEY_STRIDE,
    AttributeNode,
    DocumentNode,
    Node,
    NodeFactory,
)
from repro.xdm.sequence import document_order_sort
from repro.xdm.types import xs
from repro.xml.parser import XMLSyntaxError, parse_document, parse_fragment
from repro.xml.stats import PARSE_STATS

from tests.helpers import item_shape, reference_sequences, sender_fault

ENVELOPE_OPEN = (
    '<?xml version="1.0" encoding="utf-8"?>'
    f'<env:Envelope xmlns:env="{ENV_NS}" xmlns:xrpc="{XRPC_NS}" '
    'xmlns:xs="http://www.w3.org/2001/XMLSchema" '
    f'xmlns:xsi="{XSI_NS}"{{extra}}>')


def envelope(body: str, header: str = "", extra: str = "") -> str:
    return (ENVELOPE_OPEN.format(extra=extra) + header
            + f"<env:Body>{body}</env:Body></env:Envelope>")


def request(calls: str, attributes: str =
            'module="m" method="f" arity="1"') -> str:
    return envelope(f"<xrpc:request {attributes}>{calls}</xrpc:request>")


def one_call(*holders: str) -> str:
    return ("<xrpc:call><xrpc:sequence>" + "".join(holders)
            + "</xrpc:sequence></xrpc:call>")


def rows_request(count: int) -> str:
    return request(one_call(*(
        f"<xrpc:element><row>text {index}</row></xrpc:element>"
        for index in range(count))))


# ---------------------------------------------------------------------------
# (a) nothing is spent on a holder


def lone_parameter(text: str, reader: str) -> list:
    """The one parameter of the one call in *text*, as the one-pass
    decode reads it (``"expat"``) or as the oracle does (``"python"``)."""
    if reader == "python":
        [items] = reference_sequences(text)
    else:
        [[items]] = parse_request(text).calls
    return items


class TestOnlyWhatIsShipped:
    #: Keys from one shipped ``<row>text</row>`` to the next: its own
    #: two — and, in the oracle's whole tree, one for the holder.
    @pytest.mark.parametrize("reader, keys_per_item",
                             [("expat", 2), ("python", 3)],
                             ids=["expat", "python"])
    def test_keys_are_minted_for_the_fragments_alone(self, reader,
                                                     keys_per_item):
        count = 50
        items = lone_parameter(rows_request(count), reader)
        assert len(items) == count
        assert items[-1].order_key[1] - items[0].order_key[1] \
            == (count - 1) * keys_per_item * KEY_STRIDE
        assert len({item.order_key[0] for item in items}) == 1
        assert document_order_sort(items) == items

    @pytest.mark.parametrize("reader", ["expat", "python"])
    def test_items_are_standalone_fragments(self, reader):
        items = lone_parameter(rows_request(5), reader)
        for item in items:
            assert item.parent is None
            assert list(item.ancestors()) == []
            assert list(item.following_siblings()) == []
            assert list(item.preceding_siblings()) == []
            assert list(item.following()) == []
            assert item.root() is item
            [text] = item.children
            assert text.parent is item
            assert item.size == KEY_STRIDE

    def test_every_kind_of_node_item_is_parentless_and_in_order(self):
        factory = NodeFactory()
        document = parse_document("<d><e/>tail</d>")
        sequence = [
            parse_fragment("<a><b/></a>"), factory.text("t"),
            factory.comment("c"), factory.processing_instruction("p", "d"),
            factory.attribute("k", "v"), document,
            parse_fragment("<z/>"),
        ]
        message = XRPCRequest(module="m", method="f", arity=1)
        message.add_call([sequence])
        [[items]] = parse_request(build_request(message)).calls
        assert [item.kind for item in items] == [
            "element", "text", "comment", "processing-instruction",
            "attribute", "document", "element"]
        assert all(item.parent is None for item in items)
        assert document_order_sort(items) == items
        assert [child.parent for child in items[5].children] == [items[5]]

    def test_streamed_messages_count_as_one_expat_document(self):
        text = rows_request(3)
        before = PARSE_STATS.snapshot()
        parse_message(text)
        after = PARSE_STATS.snapshot()
        assert after["documents_expat"] == before["documents_expat"] + 1
        assert after["bytes_expat"] == before["bytes_expat"] + len(text)
        assert after["fallbacks_to_python"] == before["fallbacks_to_python"]


# ---------------------------------------------------------------------------
# (b) the corpus: the one-pass decode, and the tree as reference


def message_shape(message):
    fields = {field.name: getattr(message, field.name)
              for field in dataclasses.fields(message)}
    if isinstance(message, XRPCRequest):
        fields["calls"] = [[[item_shape(item) for item in sequence]
                            for sequence in call] for call in message.calls]
    if isinstance(message, XRPCResponse):
        fields["results"] = [[item_shape(item) for item in sequence]
                             for sequence in message.results]
    return type(message).__name__, fields


def sequences_of(message) -> list[list]:
    if isinstance(message, XRPCRequest):
        return [sequence for call in message.calls for sequence in call]
    if isinstance(message, XRPCResponse):
        return list(message.results)
    return []


def _bulk_request() -> str:
    message = XRPCRequest(
        module="films", method="byActor", arity=2, location="f.xq",
        updating=True, query_id=QueryID("p0", 12.5, 30),
        exchange_id="x-7", deadline_remaining=1.25)
    for index in range(3):
        message.add_call([[string(f"actor {index}"), integer(index)],
                          [parse_fragment(f"<f n='{index}'><g/>t</f>")]])
    return build_request(message)


def _response() -> str:
    return build_response(XRPCResponse(
        module="films", method="byActor",
        results=[[integer(1), parse_fragment("<r>one</r>")], [],
                 [string("")]],
        participating_peers=["xrpc://a", "xrpc://b"], exchange_id="x-8"))


def _every_holder() -> str:
    factory = NodeFactory()
    message = XRPCRequest(module="m", method="f", arity=1)
    message.add_call([[
        string("s"), integer(-4), AtomicValue(True, xs.boolean),
        AtomicValue("2007-09-23", xs.date), parse_fragment("<e a='1'>x</e>"),
        parse_document("<!--lead--><d><k/></d><?tail pi?>"),
        factory.attribute("k", "v"),
        factory.attribute("p:k", "v", "urn:p"),
        factory.text("some text"), factory.text(""),
        factory.comment("a comment"),
        factory.processing_instruction("target", "data"),
    ]])
    return build_request(message)


CORPUS = {
    "bulk request, updCall, queryID, header": _bulk_request(),
    "response with participants": _response(),
    "fault": build_fault("env:Sender", "could not load module!", "x-9"),
    "fault without code or reason": envelope("<env:Fault/>"),
    "fault with nested markup in its strings": envelope(
        "<env:Fault><env:Code><env:Value>env:<b>Sen</b>der</env:Value>"
        "<env:Value>ignored</env:Value></env:Code>"
        "<env:Code><env:Value>ignored</env:Value></env:Code>"
        "<env:Reason><env:Text>a<![CDATA[<b>]]>c</env:Text></env:Reason>"
        "</env:Fault>"),
    "prepare": build_txn_command(TxnCommand(
        "prepare", QueryID("h", 3.5, 60), "x-1", 0.5)),
    "commit": build_txn_command(TxnCommand("commit", QueryID("h", 3.5, 60))),
    "rollback": build_txn_command(
        TxnCommand("rollback", QueryID("h", 3.5, 60))),
    "txn-result": build_txn_result(TxnResult("prepare", False, "why", "x-2")),
    "txn-result without detail": build_txn_result(TxnResult("commit", True)),
    "every value holder": _every_holder(),
    "unknown xsi:type": request(one_call(
        '<xrpc:atomic-value xsi:type="my:money">12.50</xrpc:atomic-value>',
        '<xrpc:atomic-value>untyped means string</xrpc:atomic-value>',
        '<xrpc:atomic-value type="xs:integer">7</xrpc:atomic-value>')),
    "CDATA and markup in an atomic value": request(one_call(
        '<xrpc:atomic-value xsi:type="xs:string">a<![CDATA[<&>]]>b'
        '<i>c</i><!--not text--><?nor this?>d</xrpc:atomic-value>',
        '<xrpc:atomic-value xsi:type="xs:string"><![CDATA[]]>'
        '</xrpc:atomic-value>')),
    "whitespace, comments and PIs between envelope elements": (
        ENVELOPE_OPEN.format(extra="")
        + "\n <!--c--> <env:Header> <?p d?>"
        '<xrpc:exchange id="e1"/>\n<xrpc:exchange id="second"/>'
        '<other:thing xmlns:other="urn:o"><xrpc:deadline remaining="9"/>'
        "</other:thing></env:Header>\n"
        "<env:Header><xrpc:deadline remaining='8'/></env:Header>"
        ' <env:Body> <!--c--> <xrpc:request module="m" method="f" '
        'arity="1"> <?p?> <xrpc:call> text <xrpc:sequence> <!--c-->'
        '<xrpc:atomic-value xsi:type="xs:integer"> 5 </xrpc:atomic-value>'
        " </xrpc:sequence> <xrpc:ignored><xrpc:sequence/></xrpc:ignored>"
        "</xrpc:call> <xrpc:queryID host='h' timestamp='1' timeout='2'/>"
        "<xrpc:queryID host='second' timestamp='1' timeout='2'/>"
        "</xrpc:request> <xrpc:request/> </env:Body>"
        "<env:Body><junk/></env:Body> </env:Envelope><!--after-->"),
    "text siblings and a second element in a holder": request(one_call(
        "<xrpc:element> lead <first>1</first> mid <second>2</second>"
        "<!--c--> tail </xrpc:element>",
        "<xrpc:element><![CDATA[x]]><only/></xrpc:element>")),
    "document with mixed children": request(one_call(
        "<xrpc:document>lead<!--c--><a><b/></a><?p d?>tail<c/>"
        "</xrpc:document>",
        "<xrpc:document/>")),
    "payload using a prefix declared on the envelope": envelope(
        '<xrpc:request module="m" method="f" arity="1">' + one_call(
            '<xrpc:element><p:row p:k="v" xsi:nil="true"><p:cell/>'
            "</p:row></xrpc:element>",
            '<xrpc:attribute p:k="v"/>') + "</xrpc:request>",
        extra=' xmlns:p="urn:outer" xmlns="urn:default"'),
    "payload redeclaring a prefix": envelope(
        '<xrpc:request module="m" method="f" arity="1">' + one_call(
            '<xrpc:element xmlns:p="urn:holder"><p:row xmlns:p="urn:inner">'
            '<p:cell/><q xmlns="urn:q"><r/></q></p:row></xrpc:element>',
            "<xrpc:element><p:after/><unprefixed/></xrpc:element>",
            '<xrpc:attribute xmlns:p="urn:holder" p:k="v"/>')
        + "</xrpc:request>",
        extra=' xmlns:p="urn:outer"'),
    "another prefix for the xrpc namespace": (
        f'<e:Envelope xmlns:e="{ENV_NS}" xmlns="{XRPC_NS}"><e:Body>'
        '<response module="m" method="f"><sequence><atomic-value '
        f'xmlns:i="{XSI_NS}" i:type="xs:integer">3</atomic-value>'
        "<element><row xmlns=''/></element><text>t</text></sequence>"
        "<participants><peer uri='u'/><peer uri='v'/></participants>"
        "<participants><peer uri='ignored'/></participants>"
        "</response></e:Body></e:Envelope>"),
    "pi holder without target, odd attribute holders": request(one_call(
        "<xrpc:pi>data</xrpc:pi>", '<xrpc:pi target="">d</xrpc:pi>',
        '<xrpc:attribute xmlns:z="urn:z" xsi:type="xs:int" z:a="1" b="2"/>',
        '<xrpc:attribute xsi:type="only"/>',
        "<xrpc:comment>a<b>c</b></xrpc:comment>")),
}

MALFORMED = {
    "not an envelope": "<env:Envelope xmlns:env='urn:other'/>",
    "envelope local name": f"<env:Body xmlns:env='{ENV_NS}'/>",
    "xrpc root": f"<xrpc:request xmlns:xrpc='{XRPC_NS}'/>",
    "no body": ENVELOPE_OPEN.format(extra="") + "<env:Header/>"
               "</env:Envelope>",
    "body in the wrong namespace": ENVELOPE_OPEN.format(extra="")
               + "<xrpc:Body/></env:Envelope>",
    "empty body": envelope(" <!--nothing--> "),
    "unrecognised body element": envelope("<xrpc:reply/>"),
    "unrecognised body element, other namespace": envelope(
        "<o:request xmlns:o='urn:o'/>"),
    "unrecognised even when a request follows": envelope(
        "<junk/>" + '<xrpc:request module="m" method="f" arity="0"/>'),
    "request without module": request(
        one_call(), 'method="f" arity="1"'),
    "request without method": request(
        one_call(), 'module="m" arity="1"'),
    "request without arity": request(one_call(), 'module="m" method="f"'),
    "response without method": envelope('<xrpc:response module="m"/>'),
    "exchange without id": envelope(
        "<xrpc:commit host='h' timestamp='1' timeout='1'/>",
        header="<env:Header><xrpc:exchange/></env:Header>"),
    "deadline without remaining": envelope(
        "<xrpc:commit host='h' timestamp='1' timeout='1'/>",
        header="<env:Header><xrpc:deadline/></env:Header>"),
    "queryID without host": request(
        "<xrpc:queryID timestamp='1' timeout='1'/>" + one_call()),
    "prepare without timeout": envelope(
        "<xrpc:prepare host='h' timestamp='1'/>"),
    "txn-result without ok": envelope("<xrpc:txn-result kind='commit'/>"),
    "peer without uri": envelope(
        '<xrpc:response module="m" method="f"><xrpc:participants>'
        "<xrpc:peer/></xrpc:participants></xrpc:response>"),
    "too few parameters": request(
        one_call(), 'module="m" method="f" arity="2"'),
    "too many parameters": request(
        "<xrpc:call><xrpc:sequence/><xrpc:sequence/></xrpc:call>"),
    "no calls": request("<xrpc:sequence/>"),
    "element holder without element": request(one_call(
        "<xrpc:element>just text<!--c--></xrpc:element>")),
    "empty element holder": request(one_call("<xrpc:element/>")),
    "unknown value element": request(one_call("<xrpc:map/>")),
    "attribute holder with declarations only": request(one_call(
        '<xrpc:attribute xmlns:p="urn:p" xmlns="urn:d"/>')),
    "the first fault in document order wins": request(
        one_call("<xrpc:map/>") + "<xrpc:call/>"),
    "arity not a number": request(
        one_call(), 'module="m" method="f" arity="x"'),
    "queryID timestamp not a number": request(
        "<xrpc:queryID host='h' timestamp='soon' timeout='1'/>"
        + one_call()),
    "queryID timeout not an integer": request(
        "<xrpc:queryID host='h' timestamp='1' timeout='1.5'/>" + one_call()),
    "prepare timestamp not a number": envelope(
        "<xrpc:prepare host='h' timestamp='nan' timeout='1'/>"),
    "deadline remaining not a number": envelope(
        "<xrpc:commit host='h' timestamp='1' timeout='1'/>",
        header="<env:Header><xrpc:deadline remaining='later'/>"
               "</env:Header>"),
    "negative deadline remaining": envelope(
        "<xrpc:commit host='h' timestamp='1' timeout='1'/>",
        header="<env:Header><xrpc:deadline remaining='-1'/></env:Header>"),
}


@pytest.mark.parametrize("name", CORPUS)
def test_stream_and_tree_walk_decode_alike(name):
    # No second driver is left to agree with: what must not matter is
    # how the text arrived.
    text = CORPUS[name]
    decoded = message_shape(parse_message(text))
    assert message_shape(parse_message(text.encode("utf-8"))) == decoded
    utf16 = text.replace('encoding="utf-8"', 'encoding="utf-16"')
    assert message_shape(parse_message(utf16.encode("utf-16"))) == decoded


@pytest.mark.parametrize("name", CORPUS)
def test_items_equal_n2s_over_the_parsed_tree(name):
    text = CORPUS[name]
    expected = [[item_shape(item) for item in sequence]
                for sequence in reference_sequences(text)]
    decoded = sequences_of(parse_message(text))
    assert [[item_shape(item) for item in sequence]
            for sequence in decoded] == expected
    for sequence in decoded:
        nodes = [item for item in sequence if isinstance(item, Node)]
        assert document_order_sort(nodes) == nodes


@pytest.mark.parametrize("name", CORPUS)
def test_stream_and_tree_walk_mint_the_same_keys(name):
    # The stream spends no key on the envelope or a holder, so serials
    # are compared from each item's own; size and level are those of
    # the whole-tree parse outright.  (Not for an attribute item: the
    # oracle hands over the holder's own, stamped as that.)
    def keys(sequences):
        return [(type(node).__name__, node.order_key[1] - item.order_key[1],
                 node.size, node.level)
                for sequence in sequences for item in sequence
                if isinstance(item, Node)
                and not isinstance(item, AttributeNode)
                for node in [item, *item.attributes, *item.descendants()]]
    text = CORPUS[name]
    assert keys(sequences_of(parse_message(text))) \
        == keys(reference_sequences(text))


@pytest.mark.parametrize("name", MALFORMED)
def test_malformed_messages_fault_alike(name):
    text = MALFORMED[name]
    faults = []
    for payload in (text, text.encode("utf-8")):
        with pytest.raises(XRPCFault) as caught:
            parse_message(payload)
        faults.append((caught.value.fault_code, caught.value.reason))
    assert faults[0] == faults[1]
    assert faults[0][0] == "env:Sender"
    assert sender_fault(text).endswith(faults[0][1])


def test_fault_texts_are_the_tree_path_s():
    expected = {
        "not an envelope": "not a SOAP envelope",
        "no body": "SOAP envelope without Body",
        "empty body": "empty SOAP Body",
        "unrecognised body element":
            "unrecognised SOAP body element <xrpc:reply>",
        "request without arity":
            "<xrpc:request> missing required attribute 'arity'",
        "exchange without id":
            "<xrpc:exchange> missing required attribute 'id'",
        "too few parameters":
            "call has 1 parameter sequences, arity is 2",
        "no calls": "request contains no calls",
        "empty element holder": "xrpc:element holder without child element",
        "unknown value element": "unknown XRPC value element <map>",
        "attribute holder with declarations only":
            "xrpc:attribute holder without attribute",
        "the first fault in document order wins":
            "unknown XRPC value element <map>",
        "arity not a number":
            "<xrpc:request> attribute 'arity' must be a non-negative "
            "integer, found 'x'",
        "queryID timeout not an integer":
            "<xrpc:queryID> attribute 'timeout' must be a non-negative "
            "integer, found '1.5'",
        "deadline remaining not a number":
            "<xrpc:deadline> attribute 'remaining' must be a non-negative "
            "number, found 'later'",
    }
    for name, reason in expected.items():
        with pytest.raises(XRPCFault) as caught:
            parse_message(MALFORMED[name])
        assert caught.value.reason == reason, name


class TestWellFormednessComesFirst:
    """A consumer's fault waits until the document has proved
    well-formed: text that is not XML is refused as that, whatever else
    is wrong with it."""

    CASES = [
        "<notsoap><unclosed></notsoap>",
        request(one_call("<xrpc:map/>")).replace(
            "</env:Envelope>", "</env:Envelope><trailing/>"),
        request(one_call("<xrpc:map/>", "<xrpc:element><u:x/>"
                         "</xrpc:element>")),
        request(one_call("<xrpc:map/>")).replace(
            "<env:Body>", '<env:Body u:a="undeclared prefix">'),
    ]

    #: Not XML either — but the oracle's parser, like the retry this
    #: frontend used to make on it, reads on: after an ``xrpc:map`` that
    #: is a fault, in an atomic value that would otherwise have shipped.
    NOT_CHARACTERS = [
        request(one_call("<xrpc:map/>", '<xrpc:atomic-value xsi:type='
                         f'"xs:string">a{bad}b</xrpc:atomic-value>'))
        for bad in ("\x01", "&#1;", "]]>", "\ufffe", "\ud800")]

    @pytest.mark.parametrize("text", CASES + NOT_CHARACTERS)
    def test_syntax_error_beats_fault(self, text):
        with pytest.raises(XMLSyntaxError) as caught:
            parse_message(text)
        assert type(caught.value) is XMLSyntaxError     # expat's own
        assert caught.value.line == 1 and caught.value.column >= 1
        if text in self.CASES:
            with pytest.raises(XMLSyntaxError):
                reference_sequences(text)
        else:
            with pytest.raises(XRPCFault, match="<map>"):
                reference_sequences(text)
        assert str(caught.value) in sender_fault(text)

    def test_a_fault_is_not_an_expat_failure(self):
        before = PARSE_STATS.snapshot()
        for name in ("unknown value element", "arity not a number"):
            with pytest.raises(XRPCFault):
                parse_message(MALFORMED[name])
        after = PARSE_STATS.snapshot()
        # Well-formed documents both, and parsed once each.
        assert after["documents_expat"] == before["documents_expat"] + 2
        assert after["fallbacks_to_python"] == before["fallbacks_to_python"]

    def test_outside_the_expat_subset_falls_back_to_the_walk(self):
        # ... no longer: SOAP 1.2 forbids a DTD in a message, and a
        # declaration in one is refused where it stands.
        text = rows_request(4).replace(
            "<env:Envelope", "<!DOCTYPE e [<!ENTITY x 'y'>]><env:Envelope")
        before = PARSE_STATS.snapshot()
        with pytest.raises(XMLSyntaxError, match="entity declaration"):
            parse_request(text)
        assert PARSE_STATS.snapshot() == before
        assert "entity declaration" in sender_fault(text)
        # The oracle skips the subset and reads the rows.
        [items] = reference_sequences(text)
        assert [item.string_value() for item in items] \
            == [f"text {index}" for index in range(4)]


# ---------------------------------------------------------------------------
# Attribute items named like the holder's own markup


class TestAttributeNamedLikeMarkup:
    @pytest.mark.parametrize("name, ns_uri", [
        ("type", None), ("xsi:type", XSI_NS), ("xmlnsfoo", None)])
    def test_round_trip(self, name, ns_uri):
        message = XRPCRequest(module="m", method="f", arity=1)
        message.add_call([[NodeFactory().attribute(name, "v", ns_uri)]])
        text = build_request(message)
        [[[item]]] = parse_request(text).calls
        assert isinstance(item, AttributeNode)
        assert (item.name, item.value, item.ns_uri, item.parent) \
            == (name, "v", ns_uri, None)
        [sequence] = reference_sequences(text)
        assert item_shape(sequence[0]) == ("attribute", name, ns_uri, "v")

    def test_xsi_type_yields_to_a_real_attribute(self):
        text = request(one_call(
            '<xrpc:attribute xsi:type="xs:string" shipped="yes"/>'))
        [[[item]]] = parse_request(text).calls
        assert (item.name, item.value) == ("shipped", "yes")


def test_document_items_keep_call_by_value():
    text = CORPUS["document with mixed children"]
    [[[document, empty]]] = parse_request(text).calls
    assert isinstance(document, DocumentNode) and document.parent is None
    assert [child.kind for child in document.children] == [
        "text", "comment", "element", "processing-instruction", "text",
        "element"]
    assert all(child.parent is document for child in document.children)
    assert document.order_key < document.children[0].order_key
    assert empty.children == []
