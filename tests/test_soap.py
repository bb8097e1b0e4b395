"""SOAP XRPC protocol tests: marshaling, messages, bulk RPC, faults."""

import pytest

from repro.errors import DynamicError, XRPCFault
from repro.net import SimulatedNetwork
from repro.reference import n2s
from repro.rpc import XRPCPeer
from repro.soap import (
    QueryID,
    XRPCFaultMessage,
    XRPCRequest,
    XRPCResponse,
    build_fault,
    build_request,
    build_response,
    parse_message,
    parse_request,
    parse_response,
)
from repro.xdm import deep_equal, double, integer, string, untyped, xs
from repro.xdm.atomic import AtomicValue
from repro.xdm.nodes import AttributeNode, NodeFactory
from repro.xml import parse_document, parse_fragment
from repro.xml.serializer import serialize

from tests.helpers import shipped

ECHO_MODULE = """
module namespace m = "urn:echo";
declare function m:echo($x as xs:string) as xs:string { $x };
"""


class TestMarshaling:
    def test_atomic_round_trip(self):
        original = [string("abc"), integer(42)]
        assert shipped(original) == original

    def test_heterogeneous_sequence(self):
        # The paper's example: integer 2 and double 3.1.
        original = [integer(2), double(3.1)]
        result = shipped(original)
        assert result[0].type is xs.integer
        assert result[1].type is xs.double
        assert result == original

    def test_carriage_returns_arrive_as_they_left(self):
        # A raw \r on the wire would arrive as \n (XML 1.0 §2.11), a
        # space in an attribute: the marshaller writes &#13;.
        factory = NodeFactory()
        original = [string("a\rb"), string("c\r\nd")]
        assert shipped(original) == original
        element, attribute, text = shipped([
            parse_fragment("<e k='v&#13;w'>x&#13;&#10;y</e>"),
            factory.attribute("k", "a\rb"), factory.text("c\r\nd")])
        assert element.string_value() == "x\r\ny"
        assert element.get_attribute("k").value == "v\rw"
        assert attribute.value == "a\rb"
        assert text.content == "c\r\nd"

    def test_empty_sequence(self):
        assert shipped([]) == []

    def test_a_character_xml_cannot_carry_never_leaves(self):
        # XML 1.0 has no way to write \x01 or U+FFFE, not even as a
        # character reference: the sender refuses, not the receiver.
        network = SimulatedNetwork()
        peers = [XRPCPeer(name, network) for name in ("served", "origin")]
        for peer in peers:
            peer.registry.register_source(ECHO_MODULE, location="e.xq")
        served, origin = peers
        with pytest.raises(DynamicError) as caught:
            origin.execute_query(
                'import module namespace m = "urn:echo" at "e.xq";\n'
                "declare variable $v external;\n"
                'execute at {"xrpc://served"} { m:echo($v) }',
                variables={"v": [string("a\x01c")]})
        assert caught.value.code == "SERE0006"
        assert "U+0001" in str(caught.value)
        assert served.server.requests_handled == 0
        factory = NodeFactory()
        text, commented = factory.element("e"), factory.element("e")
        text.append(factory.text("\ufffe"))
        commented.append(factory.comment("\x0c"))
        for item in (factory.text("a\ufffeb"), text, commented,
                     factory.attribute("k", "\x0b"),
                     factory.comment("\ud800")):
            with pytest.raises(DynamicError, match=r"\[SERE0006\]"):
                shipped([item])
        with pytest.raises(DynamicError, match=r"\[SERE0006\]"):
            serialize(commented, indent=True)

    def test_a_fault_reason_is_made_writable(self):
        # A served error may quote what the sender refuses to ship; its
        # fault still goes out, the character replaced.
        peer = XRPCPeer("served", SimulatedNetwork())
        peer.registry.register_source(
            'module namespace m = "urn:bad";\n'
            'declare function m:f() { error((), "bad &#1; byte") };',
            location="b.xq")
        request = XRPCRequest(module="urn:bad", method="f", arity=0,
                              location="b.xq")
        request.add_call([])
        with pytest.raises(XRPCFault) as caught:
            parse_response(peer.server.handle(build_request(request)))
        assert caught.value.reason.endswith("bad \ufffd byte")

    def test_untyped_atomic(self):
        [value] = shipped([untyped("x")])
        assert value.type is xs.untypedAtomic

    def test_boolean_and_decimal(self):
        from decimal import Decimal
        original = [AtomicValue(True, xs.boolean),
                    AtomicValue(Decimal("2.50"), xs.decimal)]
        result = shipped(original)
        assert result[0].value is True
        assert result[1].value == Decimal("2.5")

    def test_element_by_value(self):
        element = parse_fragment("<name>The Rock</name>")
        [copy] = shipped([element])
        assert copy is not element
        assert copy.parent is None            # standalone fragment
        assert deep_equal([copy], [element])

    def test_upward_axes_empty_after_round_trip(self):
        doc = parse_document("<films><film><name>X</name></film></films>")
        name = doc.root_element.children[0].children[0]
        [copy] = shipped([name])
        assert list(copy.ancestors()) == []
        assert copy.root() is copy

    def test_descendant_relationship_destroyed(self):
        # Paper section 2.2: two nodes in a descendant-or-self relation
        # lose the relation when marshaled separately.
        doc = parse_document("<a><b/></a>")
        a = doc.root_element
        b = a.children[0]
        copy_a, copy_b = shipped([a, b])
        assert copy_b.parent is None
        assert copy_b not in list(copy_a.descendants())

    def test_attribute_node(self):
        factory = NodeFactory()
        attribute = factory.attribute("x", "y")
        [copy] = shipped([attribute])
        assert isinstance(copy, AttributeNode)
        assert copy.name == "x"
        assert copy.value == "y"

    def test_text_comment_pi(self):
        factory = NodeFactory()
        items = [
            factory.text("hello"),
            factory.comment("note"),
            factory.processing_instruction("t", "d"),
        ]
        result = shipped(items)
        assert [n.kind for n in result] == \
            ["text", "comment", "processing-instruction"]
        assert result[0].string_value() == "hello"
        assert result[2].target == "t"

    def test_document_node(self):
        doc = parse_document("<r><c/></r>")
        [copy] = shipped([doc])
        assert copy.kind == "document"
        assert copy.root_element.name == "r"

    def test_special_characters_escaped(self):
        original = [string("<&>\"'")]
        assert shipped(original) == original

    def test_n2s_adopts_parsed_fragment_without_copy(self):
        """The oracle's unmarshal: the returned element IS the parsed
        fragment, detached from its holder (no second deep copy)."""
        text = ('<xrpc:sequence xmlns:xrpc="http://monetdb.cwi.nl/XQuery">'
                '<xrpc:element><name>X</name></xrpc:element>'
                '</xrpc:sequence>')
        wrapper = parse_fragment(text)
        holder = wrapper.child_elements()[0]
        parsed_child = holder.child_elements()[0]
        [value] = n2s(wrapper)
        assert value is parsed_child          # adopted, not copied
        assert value.parent is None           # standalone fragment
        assert list(value.ancestors()) == []
        assert parsed_child not in holder.children

    def test_streaming_writer_round_trips_like_s2n(self):
        """What MarshalWriter.sequence emits, parsed as a tree and read
        back by the oracle's n2s, is the sequence it was given, typed
        values and all."""
        from repro.soap import MarshalWriter

        factory = NodeFactory()
        items = [
            integer(7),
            string("a & <b>"),
            parse_fragment('<a xmlns:p="urn:p"><p:b x="1">t</p:b></a>'),
            factory.attribute("k", 'v"q'),
            factory.text("plain"),
            factory.comment("note"),
            factory.processing_instruction("t", "d"),
        ]
        writer = MarshalWriter()
        # Prefixes the SOAP envelope normally declares.
        writer.start("wrap", declarations={
            "xrpc": "http://monetdb.cwi.nl/XQuery",
            "xsi": "http://www.w3.org/2001/XMLSchema-instance",
        })
        writer.sequence(items)
        writer.end()
        sequence_el = parse_fragment(writer.getvalue()).child_elements()[0]
        round_tripped = n2s(sequence_el)
        assert deep_equal(round_tripped, items)
        assert round_tripped[0].type is xs.integer
        assert round_tripped[3].name == "k" and round_tripped[3].value == 'v"q'

    def test_unknown_type_degrades_to_untyped(self):
        text = build_request(XRPCRequest(
            module="m", method="f", arity=1,
            calls=[[[string("v")]]])).replace(
                'xsi:type="xs:string"', 'xsi:type="my:custom"')
        [[[value]]] = parse_request(text).calls
        assert value.type is xs.untypedAtomic
        assert value.value == "v"


class TestRequestMessages:
    def _paper_request(self) -> XRPCRequest:
        request = XRPCRequest(
            module="films", method="filmsByActor", arity=1,
            location="http://x.example.org/film.xq")
        request.add_call([[string("Sean Connery")]])
        return request

    def test_paper_example_round_trip(self):
        text = build_request(self._paper_request())
        parsed = parse_request(text)
        assert parsed.module == "films"
        assert parsed.method == "filmsByActor"
        assert parsed.arity == 1
        assert parsed.location == "http://x.example.org/film.xq"
        assert len(parsed.calls) == 1
        [[param]] = parsed.calls
        assert param == [string("Sean Connery")]

    def test_message_shape_matches_paper(self):
        text = build_request(self._paper_request())
        doc = parse_document(text)
        envelope = doc.root_element
        assert envelope.local_name == "Envelope"
        body = envelope.children[0]
        request = body.children[0]
        assert request.get_attribute("module").value == "films"
        call = request.children[0]
        assert call.local_name == "call"
        sequence = call.children[0]
        assert sequence.local_name == "sequence"
        atomic = sequence.children[0]
        assert atomic.get_attribute("xsi:type").value == "xs:string"
        assert atomic.string_value() == "Sean Connery"

    def test_bulk_request(self):
        # Section 3.2: two calls in one message (Julie Andrews, Sean Connery).
        request = XRPCRequest(module="films", method="filmsByActor", arity=1,
                              location="http://x.example.org/film.xq")
        request.add_call([[string("Julie Andrews")]])
        request.add_call([[string("Sean Connery")]])
        parsed = parse_request(build_request(request))
        assert parsed.is_bulk
        assert len(parsed.calls) == 2
        assert parsed.calls[0][0] == [string("Julie Andrews")]
        assert parsed.calls[1][0] == [string("Sean Connery")]

    def test_query_id_round_trip(self):
        request = self._paper_request()
        request.query_id = QueryID(host="p0.example.org", timestamp=123.5,
                                   timeout=30)
        parsed = parse_request(build_request(request))
        assert parsed.query_id is not None
        assert parsed.query_id.host == "p0.example.org"
        assert parsed.query_id.timestamp == 123.5
        assert parsed.query_id.timeout == 30

    def test_updating_flag(self):
        request = self._paper_request()
        request.updating = True
        assert parse_request(build_request(request)).updating

    def test_arity_mismatch_rejected(self):
        request = XRPCRequest(module="m", method="f", arity=2)
        with pytest.raises(XRPCFault):
            request.add_call([[string("only-one")]])

    def test_multi_parameter_call(self):
        request = XRPCRequest(module="m", method="getPerson", arity=2)
        request.add_call([[string("auctions.xml")], [string("person0")]])
        parsed = parse_request(build_request(request))
        assert len(parsed.calls[0]) == 2


class TestResponseMessages:
    def test_response_round_trip(self):
        rock = parse_fragment("<name>The Rock</name>")
        goldfinger = parse_fragment("<name>Goldfinger</name>")
        response = XRPCResponse(module="films", method="filmsByActor",
                                results=[[rock, goldfinger]])
        parsed = parse_response(build_response(response))
        assert parsed.module == "films"
        assert len(parsed.results) == 1
        assert [n.string_value() for n in parsed.results[0]] == \
            ["The Rock", "Goldfinger"]

    def test_bulk_response_one_sequence_per_call(self):
        response = XRPCResponse(module="m", method="f",
                                results=[[integer(1)], [], [integer(3)]])
        parsed = parse_response(build_response(response))
        assert parsed.results == [[integer(1)], [], [integer(3)]]

    def test_participants_piggyback(self):
        response = XRPCResponse(module="m", method="f", results=[[]])
        response.participating_peers = ["xrpc://b", "xrpc://c"]
        parsed = parse_response(build_response(response))
        assert parsed.participating_peers == ["xrpc://b", "xrpc://c"]


class TestFaults:
    def test_fault_round_trip(self):
        text = build_fault("env:Sender", "could not load module!")
        message = parse_message(text)
        assert isinstance(message, XRPCFaultMessage)
        assert message.fault_code == "env:Sender"
        assert message.reason == "could not load module!"

    def test_parse_response_raises_on_fault(self):
        text = build_fault("env:Sender", "boom")
        with pytest.raises(XRPCFault) as info:
            parse_response(text)
        assert "boom" in str(info.value)

    def test_non_soap_rejected(self):
        with pytest.raises(XRPCFault):
            parse_message("<not-soap/>")


class TestGoldenBytes:
    #: sha256 of the semijoin's one request (500 calls, seed 11), as the
    #: per-call marshaller wrote it before the calls became columns.
    SEMIJOIN_REQUEST = (61917, "e64b752674d8052d83c8416ee3be1b7f"
                               "13022c0c82d57069dd64cd791737974a")

    #: sha256 of a response, and of a request, that carry every holder
    #: kind (:meth:`_every_holder`), as the per-item ``value()``
    #: marshaller wrote them.
    NODE_RESPONSE = (1801, "9e0c9ac0d060c8346bb91411df596822"
                           "fc2122fe8bb00828426b6b74d94e3e6e")
    NODE_REQUEST = (2259, "f52f7f424bada5e8cda460f1ae94b654"
                          "b0467e5b218c75ecc87f3dfe1616da15")

    @staticmethod
    def _every_holder() -> list:
        """Element, document, text, comment, PI, attribute and atomic
        items: parsed and constructed nodes, declared and undeclared
        prefixes, markup and characters that need escaping."""
        document = parse_document(
            "<?xml version='1.0'?><!--c0--><r xmlns:x='urn:x'>"
            "<x:p k='1' x:k='2'>a &amp; b<!--c1--><?go on?><q/>tail</x:p>"
            "<p>\r\n</p><d xmlns='urn:d'><e/></d></r>")
        root = document.children[-1]
        p = root.children[0]
        factory = NodeFactory()
        built = factory.element("y:e", ns_uri="urn:y")
        built.append(factory.text("built <text>"))
        # One prefix the envelope binds to the same URI, one to another.
        bound = factory.element("xs:v", ns_uri="http://www.w3.org/2001/"
                                               "XMLSchema")
        rebound = factory.element("xsi:w", ns_uri="urn:not-xsi")
        return [
            p, root.children[1], document, root.children[2], built,
            bound, rebound,
            p.children[0], p.children[1], p.children[2], p.attributes[1],
            AttributeNode(factory.mint_key(), "z:a", 'v"', "urn:z"),
            string("s <&>"), integer(7), double(1.5), untyped(""),
        ]

    @staticmethod
    def _digest(text: str) -> tuple[int, str]:
        import hashlib
        return len(text), hashlib.sha256(text.encode()).hexdigest()

    def test_a_response_of_every_holder_kind_keeps_its_bytes(self):
        items = self._every_holder()
        response = XRPCResponse(module="m", method="f",
                                results=[items, [], items[:3]],
                                exchange_id="x1")
        assert self._digest(build_response(response)) == self.NODE_RESPONSE

    def test_a_request_of_every_holder_kind_keeps_its_bytes(self):
        items = self._every_holder()
        request = XRPCRequest(module="m", method="f", arity=2,
                              calls=[[items, items[:2]], [[], items[5:]]],
                              exchange_id="x2")
        assert self._digest(build_request(request)) == self.NODE_REQUEST

    def test_the_500_call_semijoin_request_keeps_its_bytes(self,
                                                           monkeypatch):
        import hashlib
        import itertools

        from repro.rpc import client
        from repro.strategies.q7 import query_semijoin
        from repro.workloads import FUNCTIONS_B_LOCATION, FUNCTIONS_B_MODULE
        from repro.workloads.xmark import (XMarkConfig, generate_auctions,
                                           generate_persons)

        network = SimulatedNetwork()
        a, b = XRPCPeer("A", network), XRPCPeer("B", network)
        for peer in (a, b):
            peer.registry.register_source(FUNCTIONS_B_MODULE,
                                          location=FUNCTIONS_B_LOCATION)
        config = XMarkConfig(persons=500, closed_auctions=30,
                             open_auctions=3, seed=11)
        a.store.register("persons.xml", generate_persons(config))
        b.store.register("auctions.xml", generate_auctions(config))
        payloads = []

        def handle(payload):
            payloads.append(payload)
            return b.server.handle(payload)
        network.register_peer("B", handle)
        monkeypatch.setattr(client, "_EXCHANGE_IDS", itertools.count(1))
        result = a.execute_query(query_semijoin("B"))
        assert (result.messages_sent, result.calls_shipped) == (1, 500)
        [payload] = payloads
        assert (len(payload), hashlib.sha256(payload.encode()).hexdigest()) \
            == self.SEMIJOIN_REQUEST
