"""Tests for the paper's optional/extension features:

* the function-cache pre-parser (section 3.3),
* SOAP XRPC message validation (XRPC.xsd, section 2.1) — done by the
  message decoder's typed faults,
* what stands in for the xrpc:nodeid call-by-fragment extension
  (footnote 4, not implemented): strict call-by-value.
"""

import pytest

from repro.engine.preparser import PreparedFunctionCache, preparse
from repro.errors import XRPCFault
from repro.soap import (
    XRPCFaultMessage,
    XRPCRequest,
    XRPCResponse,
    build_fault,
    build_request,
    build_response,
    parse_message,
)
from repro.xdm import deep_equal, integer, string, xs
from repro.xml.parser import XMLSyntaxError, parse_fragment

from repro.xquery.evaluator import evaluate_query

from tests.helpers import shipped, shipped_call, values


class TestPreparser:
    def test_detects_constant_call(self):
        call = preparse("""
        import module namespace f = "films" at "http://x/film.xq";
        f:filmsByActor("Sean Connery")
        """)
        assert call is not None
        assert call.module_uri == "films"
        assert call.location == "http://x/film.xq"
        assert call.local_name == "filmsByActor"
        assert call.arguments == [string("Sean Connery")]

    def test_detects_multiple_literal_types(self):
        call = preparse("""
        import module namespace m = "urn:m";
        m:f("s", 42, 3.5)
        """)
        assert call is not None
        assert [a.type.name for a in call.arguments] == \
            ["xs:string", "xs:integer", "xs:decimal"]

    def test_zero_argument_call(self):
        call = preparse('import module namespace m = "u"; m:go()')
        assert call is not None
        assert call.arity == 0

    @pytest.mark.parametrize("query", [
        "1 + 1",                                           # no import
        'import module namespace m = "u"; m:f($x)',        # variable arg
        'import module namespace m = "u"; m:f(1 + 1)',     # expression arg
        'import module namespace m = "u"; other:f(1)',     # prefix mismatch
        'import module namespace m = "u"; m:f(1), 2',      # trailing expr
        'import module namespace m = "u"; for $x in m:f(1) return $x',
    ])
    def test_rejects_general_queries(self, query):
        assert preparse(query) is None

    def test_cache_fast_path(self):
        from repro.xquery.context import DynamicContext, StaticContext
        from repro.xquery.modules import ModuleRegistry

        registry = ModuleRegistry()
        registry.register_source("""
        module namespace m = "urn:m";
        declare function m:double($x as xs:integer) as xs:integer { $x * 2 };
        """)
        cache = PreparedFunctionCache(registry)
        fallback_calls = []

        result = cache.execute(
            'import module namespace m = "urn:m"; m:double(21)',
            make_context=lambda: DynamicContext(StaticContext()),
            fallback=lambda src: fallback_calls.append(src) or [])
        assert result == [integer(42)]
        assert cache.hits == 1
        assert not fallback_calls

        cache.execute("1 + 1",
                      make_context=lambda: DynamicContext(StaticContext()),
                      fallback=lambda src: fallback_calls.append(src) or [])
        assert cache.misses == 1
        assert fallback_calls == ["1 + 1"]


class TestMessageValidation:
    """``parse_message`` is the validator: a valid message decodes to
    its dataclass, an invalid one raises — ``XMLSyntaxError`` when it is
    not XML, an ``env:Sender`` fault naming what is wrong otherwise."""

    def _request_text(self) -> str:
        request = XRPCRequest(module="films", method="filmsByActor", arity=1,
                              location="f.xq")
        request.add_call([[string("Sean Connery")]])
        return build_request(request)

    def _sender_fault(self, text: str) -> str:
        with pytest.raises(XRPCFault) as caught:
            parse_message(text)
        assert caught.value.fault_code == "env:Sender"
        return caught.value.reason

    def test_valid_request(self):
        message = parse_message(self._request_text())
        assert isinstance(message, XRPCRequest)
        assert (message.module, message.method, message.arity) \
            == ("films", "filmsByActor", 1)
        assert message.calls == [[[string("Sean Connery")]]]

    def test_valid_response(self):
        response = XRPCResponse(module="m", method="f",
                                results=[[integer(1)], []])
        assert parse_message(build_response(response)) == response

    def test_valid_fault(self):
        assert parse_message(build_fault("env:Sender", "nope")) \
            == XRPCFaultMessage("env:Sender", "nope")

    def test_not_xml(self):
        with pytest.raises(XMLSyntaxError):
            parse_message("garbage <")

    def test_wrong_root(self):
        assert self._sender_fault("<not-an-envelope/>") \
            == "not a SOAP envelope"

    def test_missing_arity(self):
        text = self._request_text().replace(' arity="1"', "")
        assert "missing required attribute 'arity'" \
            in self._sender_fault(text)

    def test_arity_mismatch_detected(self):
        text = self._request_text().replace('arity="1"', 'arity="2"')
        assert self._sender_fault(text) \
            == "call has 1 parameter sequences, arity is 2"

    def test_unknown_value_element(self):
        text = self._request_text().replace(
            "<xrpc:atomic-value", "<xrpc:mystery-value").replace(
            "</xrpc:atomic-value>", "</xrpc:mystery-value>")
        assert self._sender_fault(text) \
            == "unknown XRPC value element <mystery-value>"

    def test_unknown_xsd_type(self):
        # Not an error: the paper lets a type the receiver does not
        # know degrade to xs:untypedAtomic.
        text = self._request_text().replace("xs:string", "xs:nonsense")
        [[[value]]] = parse_message(text).calls
        assert value.type is xs.untypedAtomic
        assert value.value == "Sean Connery"

    def test_txn_command_validates(self):
        from repro.soap.messages import QueryID, TxnCommand, build_txn_command
        command = TxnCommand("prepare", QueryID("h", 1.0, 9))
        assert parse_message(build_txn_command(command)) == command


class TestNodeIdExtension:
    """Footnote 4's ``xrpc:nodeid`` call-by-fragment extension is not
    implemented.  What a call gets in the situations it was sketched
    for is strict call-by-value: every node parameter arrives as a
    fragment of its own, whatever it was related to at the caller."""

    def test_descendant_arrives_unrelated(self):
        tree = parse_fragment("<a><b><c>leaf</c></b><d/></a>")
        c = tree.children[0].children[0]
        [[tree_copy], [c_copy]] = shipped_call([[tree], [c]])
        assert deep_equal([tree_copy], [tree]) and deep_equal([c_copy], [c])
        assert c_copy.root() is c_copy
        assert c_copy.root() is not tree_copy.root()
        assert all(c_copy is not node for node in tree_copy.descendants())

    def test_relationship_destroyed_after_round_trip(self):
        tree = parse_fragment("<a><b><c>leaf</c></b></a>")
        c = tree.children[0].children[0]
        [[tree_copy], [c_copy]] = shipped_call([[tree], [c]])
        assert c_copy.parent is None
        assert list(c_copy.following()) == list(c_copy.preceding()) == []
        assert list(c_copy.following_siblings()) == []
        # What the called function sees of it, in its own language.
        assert values(evaluate_query(
            "($tree//c is $c, count($c/ancestor::*), count($c/..),"
            " string($c))", variables={"tree": [tree_copy], "c": [c_copy]})) \
            == [False, 0, 0, "leaf"]

    def test_self_reference(self):
        tree = parse_fragment("<a><b/></a>")
        [[copy1], [copy2]] = shipped_call([[tree], [tree]])
        assert copy1 is not copy2
        assert copy1.root() is not copy2.root()
        assert deep_equal([copy1], [copy2])
        assert values(evaluate_query(
            "($a is $b, $a is $a)",
            variables={"a": [copy1], "b": [copy2]})) == [False, True]

    def test_same_node_twice_in_one_sequence(self):
        tree = parse_fragment("<a><b/></a>")
        copy1, copy2 = shipped([tree, tree])
        assert copy1 is not copy2
        assert copy1.parent is None and copy2.parent is None
        assert copy1.order_key < copy2.order_key

    def test_unrelated_nodes_serialize_fully(self):
        left = parse_fragment("<x>1</x>")
        right = parse_fragment("<y>2</y>")
        [[left_copy], [right_copy]] = shipped_call([[left], [right]])
        assert (left_copy.serialize(), right_copy.serialize()) \
            == ("<x>1</x>", "<y>2</y>")
        assert left_copy.root() is not right_copy.root()

    def test_atomics_pass_through(self):
        [[value]] = shipped_call([[integer(5)]])
        assert value == integer(5)
        assert value.type is xs.integer

    def test_plain_interop(self):
        # Atomics and nodes mix freely inside and across parameters.
        tree = parse_fragment("<a><b/></a>")
        params = [[string("x"), integer(2)], [tree, integer(3)], []]
        decoded = shipped_call(params)
        assert [len(sequence) for sequence in decoded] == [2, 2, 0]
        assert decoded[0] == params[0] and decoded[1][1] == integer(3)
        assert deep_equal(decoded[1][:1], [tree])

    def test_a_nodeid_reference_is_refused(self):
        # A peer that does speak the extension sends an empty holder
        # carrying the reference; that is a fault, not a silent miss.
        request = XRPCRequest(module="m", method="f", arity=1)
        request.add_call([[parse_fragment("<a/>")]])
        text = build_request(request).replace(
            "<xrpc:element><a/></xrpc:element>",
            '<xrpc:element xrpc:nodeid="0.0/0"/>')
        with pytest.raises(XRPCFault) as caught:
            parse_message(text)
        assert caught.value.fault_code == "env:Sender"
        assert caught.value.reason \
            == "xrpc:element holder without child element"
