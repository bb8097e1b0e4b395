"""Unit tests for ClientSession, XRPCServer and the coordinator messages."""

import pytest

from repro.errors import XRPCFault
from repro.net import SimulatedNetwork
from repro.rpc import XRPCPeer
from repro.rpc.client import ClientSession
from repro.soap import parse_message
from repro.soap.messages import (
    QueryID,
    TxnCommand,
    TxnResult,
    build_txn_command,
    build_txn_result,
)
from repro.xdm.atomic import integer, string

MODULE = """
module namespace m = "urn:m";
declare function m:add($x as xs:integer, $y as xs:integer) as xs:integer
{ $x + $y };
declare function m:first($s as item()*) as item()? { $s[1] };
"""


@pytest.fixture
def site():
    network = SimulatedNetwork()
    origin = XRPCPeer("origin", network)
    server = XRPCPeer("served", network)
    for peer in (origin, server):
        peer.registry.register_source(MODULE, location="m.xq")
    return network, origin, server


class TestClientSession:
    def test_single_call(self, site):
        network, origin, server = site
        session = ClientSession(network, origin="origin")
        [result] = session.call("served", "urn:m", "m.xq", "add", 2,
                                [[[integer(1)], [integer(2)]]])
        assert result == [integer(3)]

    def test_bulk_call_result_alignment(self, site):
        network, origin, server = site
        session = ClientSession(network, origin="origin")
        calls = [[[integer(i)], [integer(10)]] for i in range(5)]
        results = session.call("served", "urn:m", "m.xq", "add", 2, calls)
        assert results == [[integer(i + 10)] for i in range(5)]

    def test_sequence_parameter(self, site):
        network, origin, server = site
        session = ClientSession(network, origin="origin")
        [result] = session.call(
            "served", "urn:m", "m.xq", "first", 1,
            [[[string("a"), string("b"), string("c")]]])
        assert result == [string("a")]

    def test_empty_sequence_parameter(self, site):
        network, origin, server = site
        session = ClientSession(network, origin="origin")
        [result] = session.call("served", "urn:m", "m.xq", "first", 1, [[[]]])
        assert result == []

    def test_message_counters(self, site):
        network, origin, server = site
        session = ClientSession(network, origin="origin")
        session.call("served", "urn:m", "m.xq", "add", 2,
                     [[[integer(1)], [integer(1)]],
                      [[integer(2)], [integer(2)]]])
        assert session.messages_sent == 1
        assert session.calls_shipped == 2

    def test_participants_exclude_origin(self, site):
        network, origin, server = site
        session = ClientSession(network, origin="origin")
        session.call("served", "urn:m", "m.xq", "add", 2,
                     [[[integer(1)], [integer(1)]]])
        assert session.participants == ["served"]

    def test_fault_raises(self, site):
        network, origin, server = site
        session = ClientSession(network, origin="origin")
        with pytest.raises(XRPCFault):
            session.call("served", "urn:nope", None, "f", 0, [[]])

    def test_wrong_arity_faults(self, site):
        network, origin, server = site
        session = ClientSession(network, origin="origin")
        with pytest.raises(XRPCFault):
            session.call("served", "urn:m", "m.xq", "add", 1, [[[integer(1)]]])

    def test_updating_bulk_result_count_mismatch_faults(self):
        """An updating bulk response with a *wrong* non-zero result count
        must fault, symmetric with the read-only path."""
        from repro.soap.messages import XRPCResponse, build_response

        network = SimulatedNetwork()
        network.register_peer("srv", lambda payload: build_response(
            XRPCResponse(module="urn:m", method="f", results=[[]])))
        session = ClientSession(network, origin="origin")
        with pytest.raises(XRPCFault, match="1 results"):
            session.call("srv", "urn:m", None, "f", 0, [[], []],
                         updating=True)

    def test_updating_bulk_empty_results_accepted(self):
        """An updating response may omit result sequences altogether."""
        from repro.soap.messages import XRPCResponse, build_response

        network = SimulatedNetwork()
        network.register_peer("srv", lambda payload: build_response(
            XRPCResponse(module="urn:m", method="f", results=[])))
        session = ClientSession(network, origin="origin")
        results = session.call("srv", "urn:m", None, "f", 0, [[], []],
                               updating=True)
        assert results == [[], []]


class TestServerBehaviour:
    def test_malformed_message_returns_fault(self, site):
        network, origin, server = site
        raw = server.server.handle("this is not xml")
        message = parse_message(raw)
        from repro.soap.messages import XRPCFaultMessage
        assert isinstance(message, XRPCFaultMessage)

    @pytest.mark.parametrize("good, bad", [
        ('arity="2"', 'arity="x"'),
        ('timeout="30"', 'timeout="1.5"'),
        ('timestamp="1.0"', 'timestamp="soon"'),
        ('remaining="5.0"', 'remaining="later"'),
    ])
    def test_non_numeric_field_is_a_sender_fault(self, site, good, bad):
        """``handle`` always answers: a number that does not read as one
        is the sender's fault, not an exception on the caller's thread."""
        from repro.soap import QueryID, XRPCRequest, build_request
        from repro.soap.messages import XRPCFaultMessage
        network, origin, server = site
        request = XRPCRequest(
            module="urn:m", method="add", arity=2, location="m.xq",
            query_id=QueryID("origin", 1.0, 30), deadline_remaining=5.0)
        request.add_call([[integer(20)], [integer(22)]])
        text = build_request(request)
        assert good in text
        message = parse_message(server.server.handle(text.replace(good, bad)))
        assert isinstance(message, XRPCFaultMessage)
        assert message.fault_code == "env:Sender"
        assert bad.partition("=")[0] in message.reason

    @pytest.mark.parametrize("good, bad", [
        (">abc<", ">a\x01c<"),             # not a character of XML 1.0,
        (">abc<", ">a&#1;c<"),             # ... nor by reference
        (">abc<", ">a]]>c<"),
        (">abc<", ">a\ufffec<"),
        ("<env:Envelope", "<!DOCTYPE e [<!ENTITY x 'y'>]><env:Envelope"),
        ("<env:Envelope",
         "<!DOCTYPE e [<!ATTLIST e a CDATA 'y'>]><env:Envelope"),
    ])
    def test_body_that_is_not_xml_is_a_sender_fault(self, site, good, bad):
        """An otherwise servable request: what no other SOAP stack would
        read is not read here either — and ``handle`` still answers."""
        from repro.soap import XRPCRequest, build_request
        from repro.soap.messages import XRPCFaultMessage
        network, origin, server = site
        request = XRPCRequest(module="urn:m", method="first", arity=1,
                              location="m.xq")
        request.add_call([[string("abc")]])
        text = build_request(request)
        assert good in text
        message = parse_message(server.server.handle(text.replace(good, bad)))
        assert isinstance(message, XRPCFaultMessage)
        assert message.fault_code == "env:Sender"
        assert "line 1, column" in message.reason
        assert server.server.requests_handled == 0

    def test_response_is_valid_soap(self, site):
        network, origin, server = site
        from repro.soap import XRPCRequest, build_request, parse_response
        request = XRPCRequest(module="urn:m", method="add", arity=2,
                              location="m.xq")
        request.add_call([[integer(20)], [integer(22)]])
        response = parse_response(server.server.handle(build_request(request)))
        assert response.module == "urn:m"
        assert response.results == [[integer(42)]]
        assert response.participating_peers[0] == "served"

    def test_request_counters(self, site):
        network, origin, server = site
        session = ClientSession(network, origin="origin")
        session.call("served", "urn:m", "m.xq", "add", 2,
                     [[[integer(1)], [integer(1)]]] * 3)
        assert server.server.requests_handled == 1
        assert server.server.calls_handled == 3


class TestTxnMessages:
    def test_txn_command_round_trip(self):
        command = TxnCommand("prepare", QueryID("h", 12.5, 30))
        parsed = parse_message(build_txn_command(command))
        assert isinstance(parsed, TxnCommand)
        assert parsed.kind == "prepare"
        assert parsed.query_id.key == ("h", 12.5)
        assert parsed.query_id.timeout == 30

    def test_txn_result_round_trip(self):
        result = TxnResult(kind="commit", ok=False, detail="conflict on x")
        parsed = parse_message(build_txn_result(result))
        assert isinstance(parsed, TxnResult)
        assert parsed.kind == "commit"
        assert parsed.ok is False
        assert parsed.detail == "conflict on x"

    def test_server_answers_txn_commands(self, site):
        network, origin, server = site
        query_id = QueryID("origin", 1.0, 60)
        # Prepare with no active state -> polite negative vote.
        raw = network.send("served",
                           build_txn_command(TxnCommand("prepare", query_id)))
        reply = parse_message(raw)
        assert isinstance(reply, TxnResult)
        assert reply.ok is False

    def test_rollback_unknown_txn_is_noop_success(self, site):
        network, origin, server = site
        query_id = QueryID("origin", 1.0, 60)
        raw = network.send("served",
                           build_txn_command(TxnCommand("rollback", query_id)))
        reply = parse_message(raw)
        assert isinstance(reply, TxnResult)
        assert reply.ok is True
