"""Differential test of set-at-a-time Bulk RPC serving.

``XRPCServer`` serves a message of N calls to a liftable, non-updating
function as ONE loop-lifted plan; everything else runs one
``XRPCPeer.run_function`` per call.  The contract is byte-identical
replies.  Nothing in ``src/`` forces either path, so the reference here
is a per-call ``run_function`` loop this test drives itself, on a second
peer holding the same documents; ``XRPCServer.calls_lifted`` says which
path the serving peer really took.
"""

from pathlib import Path

import pytest

from repro.errors import XQueryError, XRPCFault
from repro.net import SimulatedNetwork
from repro.rpc import XRPCPeer
from repro.rpc.client import ClientSession
from repro.soap.messages import (QueryID, XRPCRequest, XRPCResponse,
                                 build_fault, build_request, build_response,
                                 parse_message)
from repro.workloads import (FUNCTIONS_B_LOCATION, FUNCTIONS_B_MODULE,
                             TEST_MODULE, TEST_MODULE_LOCATION)
from repro.workloads.xmark import (XMarkConfig, generate_auctions,
                                   generate_persons)
from repro.xdm.atomic import integer, string
from repro.xml import parse_document
from repro.xquf.pul import PendingUpdateList, apply_updates

BENCH_MODULE = (Path(__file__).resolve().parent.parent
                / "benchmarks" / "e2e" / "bench.xq").read_text()
BENCH_LOCATION = "bench.xq"

#: Scenario functions the three shipped modules have no shape for.
EXTRA_MODULE = """
module namespace t = "urn:bulk-serving";
declare function t:next($x as xs:integer) as xs:integer { $x + 1 };
declare function t:narrow($x as item()*) as xs:integer { $x };
declare function t:balance() as xs:string
{ string(doc("account.xml")/account/balance) };
declare function t:nowhere() as node()* { doc("missing.xml")//x };
declare function t:flwor($n as xs:integer) as xs:integer*
{ for $i in (1 to $n) where $i > 1 return $i * $n };
declare function t:cmp($a as xs:integer*, $b as xs:integer*) as xs:boolean
{ $a = $b };
declare function t:cat($a as xs:string?, $b as xs:string?) as xs:string
{ concat($a, "-", $b) };
declare function t:first($pid as xs:string*) as node()*
{ doc("auctions.xml")//closed_auction[buyer/@person = $pid][1]/price };
declare function t:nth($n as xs:integer) as node()*
{ doc("auctions.xml")//closed_auction[$n]/price };
"""
EXTRA_LOCATION = "t.xq"

CONFIG = XMarkConfig(persons=6, closed_auctions=10, open_auctions=2,
                     matches=3, seed=3)
NS = {"b": "functions_b", "tst": "test", "bn": "urn:xrpc-e2e-bench",
      "t": "urn:bulk-serving"}
LOCATIONS = {"b": FUNCTIONS_B_LOCATION, "tst": TEST_MODULE_LOCATION,
             "bn": BENCH_LOCATION, "t": EXTRA_LOCATION}
SIZES = [0, 1, 2, 500]


def make_site() -> XRPCPeer:
    """Peer B (auctions, account, rows) on a network of its own with a
    peer A (persons) that ``b:Q_B2`` pulls a document from."""
    network = SimulatedNetwork()
    a = XRPCPeer("A", network)
    b = XRPCPeer("B", network)
    for peer in (a, b):
        for source, location in ((FUNCTIONS_B_MODULE, FUNCTIONS_B_LOCATION),
                                 (TEST_MODULE, TEST_MODULE_LOCATION),
                                 (BENCH_MODULE, BENCH_LOCATION),
                                 (EXTRA_MODULE, EXTRA_LOCATION)):
            peer.registry.register_source(source, location=location)
    a.store.register("persons.xml", generate_persons(CONFIG))
    b.store.register("auctions.xml", generate_auctions(CONFIG))
    b.store.register("account.xml", "<account><balance>0</balance></account>")
    b.store.register("rows.xml", "<rows>" + "".join(
        f"<row>{index}</row>" for index in range(5)) + "</rows>")
    return b


@pytest.fixture
def sites():
    """``(serving, reference)``: two identical, independent peers B."""
    return make_site(), make_site()


def nodes(*texts: str) -> list:
    return [parse_document(text).children[0] for text in texts]


def request_for(name: str, calls: list, arity=None, **fields) -> XRPCRequest:
    prefix, method = name.split(":")
    request = XRPCRequest(
        module=NS[prefix], method=method, location=LOCATIONS[prefix],
        arity=len(calls[0]) if arity is None else arity,
        exchange_id="x-1", **fields)
    request.calls = calls
    return request


def per_call_reply(peer: XRPCPeer, request: XRPCRequest) -> str:
    """The reference: one ``run_function`` per call, each in a fresh
    context, answered the way ``XRPCServer.handle`` answers."""
    decl = peer.registry.by_namespace(request.module).get_function(
        request.method, request.arity)
    doc_view = peer.store if request.query_id is None \
        else peer.isolation.acquire(request.query_id)
    session = ClientSession(peer.transport, origin=peer.host,
                            query_id=request.query_id, channel=peer.channel)
    results = []
    collected = PendingUpdateList()
    try:
        for params in request.calls:
            value, pul = peer.run_function(decl, params, doc_view, session)
            collected.merge(pul)
            results.append([] if decl.updating else value)
    except XRPCFault as fault:
        return build_fault(fault.fault_code, fault.reason,
                           request.exchange_id)
    except XQueryError as exc:
        return build_fault("env:Sender", str(exc), request.exchange_id)
    if collected:
        apply_updates(collected)
    response = XRPCResponse(module=request.module, method=request.method,
                            results=results, exchange_id=request.exchange_id)
    response.participating_peers = [peer.host] + session.participants
    return build_response(response)


def assert_same_reply(sites, request: XRPCRequest, lifted: bool) -> str:
    """Serve *request* both ways; returns the (identical) reply."""
    serving, reference = sites
    before = (serving.server.calls_handled, serving.server.calls_lifted)
    fallbacks = serving.engine.fallback_stats()
    if request.calls:
        payload = build_request(request)
        reply = serving.server.handle(payload)
        expected = per_call_reply(reference, parse_message(payload))
    else:
        # The wire format has no empty request; the handler still must
        # agree with an empty loop.
        reply = serving.server._handle_request(request)
        expected = per_call_reply(reference, request)
    assert reply == expected
    faulted = "env:Fault" in reply
    count = 0 if faulted else len(request.calls)
    assert serving.server.calls_handled - before[0] == count
    assert serving.server.calls_lifted - before[1] == \
        (count if lifted else 0)
    # Serving never touches the peer's originating-side telemetry.
    assert serving.engine.fallback_stats() == fallbacks
    return reply


# -- the matrix: every function of the three modules x N ----------------------

PIDS = ["person0", "nobody", "person6", "person0", "person2", "", "person1"]
PAYLOADS = [[], ["<a>1</a>"], ["<a>1</a>", "<b><c/>text</b>"], ["<a>1</a>"]]

#: name -> (call k's parameters, served set-at-a-time?)
FUNCTIONS = {
    "b:Q_B1": (lambda k: [], True),
    "b:Q_B2": (lambda k: [], False),           # element constructor
    "b:Q_B3": (lambda k: [[string(PIDS[k % len(PIDS)])]], True),
    "tst:echoVoid": (lambda k: [], True),
    "tst:echo": (lambda k: [nodes(*PAYLOADS[k % len(PAYLOADS)])], True),
    "tst:produce": (lambda k: [[integer(k % 3)]], False),   # constructor
    "bn:void": (lambda k: [], True),
    "bn:sink": (lambda k: [nodes(*PAYLOADS[k % len(PAYLOADS)])], False),
    "bn:rows": (lambda k: [[integer(k % 7)]], False),   # fn:subsequence
    "bn:set-balance": (lambda k: [[string(str(k))]], False),   # updating
}


#: Shapes of the lifted core the shipped modules do not use, under a
#: loop of many iterations with per-iteration parameters.
SHAPES = {
    "t:flwor": (lambda k: [[integer(k % 5)]], True),
    "t:cmp": (lambda k: [[integer(i) for i in range(k % 3)],
                         [integer(i) for i in range(1, k % 4)]], True),
    "t:cat": (lambda k: [[string("a")] * (k % 2), [string(str(k))]], True),
    "t:first": (lambda k: [[string(pid) for pid in PIDS[:k % 4]]], True),
    # A predicate that turns out numeric at runtime bails dynamically,
    # mid-plan: the whole message is then the per-call path's.
    "t:nth": (lambda k: [[integer(1 + k % 3)]], False),
}


@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("name", sorted(SHAPES))
def test_lifted_core_shapes_under_a_many_iteration_loop(sites, name, size):
    make_params, lifted = SHAPES[name]
    calls = [make_params(k) for k in range(size)]
    reply = assert_same_reply(
        sites, request_for(name, calls, arity=len(make_params(0))),
        lifted)
    assert "env:Fault" not in reply


def test_the_matrix_covers_every_declared_function(sites):
    serving, _ = sites
    declared = {
        f"{prefix}:{local}"
        for prefix, uri in NS.items() if prefix != "t"
        for local, _arity in serving.registry.by_namespace(uri).functions}
    assert declared == set(FUNCTIONS)


@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("name", sorted(FUNCTIONS))
def test_set_path_equals_per_call_loop(sites, name, size):
    make_params, lifted = FUNCTIONS[name]
    if name == "b:Q_B2" and size == 500:
        size = 20   # each reference call re-fetches persons.xml from A
    calls = [make_params(k) for k in range(size)]
    request = request_for(name, calls, arity=len(make_params(0)))
    reply = assert_same_reply(sites, request, lifted)
    assert "env:Fault" not in reply
    if name == "bn:set-balance" and size:
        for peer in sites:
            balance = peer.store.get("account.xml").root_element \
                .find("balance").string_value()
            assert balance == str(size - 1)


def test_q_b3_x_500_really_takes_the_set_path(sites):
    serving, _ = sites
    calls = [[[string(PIDS[k % len(PIDS)])]] for k in range(500)]
    reply = assert_same_reply(sites, request_for("b:Q_B3", calls), True)
    assert serving.server.calls_lifted == 500
    assert serving.server.calls_handled == 500
    results = parse_message(reply).results
    assert len(results) == 500
    assert [len(r) for r in results[:7]] == [1, 0, 1, 1, 1, 0, 1]


def test_a_refused_body_is_checked_once_and_converted_once_per_call(
        sites, monkeypatch):
    """The static verdict comes ahead of any work on the payload: N
    calls to ``bn:sink`` (``count`` is outside the lifted core) cost one
    ``check`` and N argument conversions — the per-call path's — not 2N."""
    from repro.pathfinder import LoopLiftingCompiler
    from repro.xquery import seqtype
    made = {"check": 0, "convert_arguments": 0}

    def counting(owner, name):
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            made[name] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(owner, name, wrapper)

    counting(LoopLiftingCompiler, "check")
    counting(seqtype, "convert_arguments")
    serving, _ = sites
    calls = [[nodes(*PAYLOADS[k % len(PAYLOADS)])] for k in range(7)]
    reply = serving.server.handle(build_request(request_for("bn:sink", calls)))
    assert "env:Fault" not in reply
    assert (serving.server.calls_handled, serving.server.calls_lifted) == (7, 0)
    assert made == {"check": 1, "convert_arguments": 7}


# -- faults: the per-call path's text, by construction ------------------------

@pytest.mark.parametrize("name,bad,text", [
    ("b:Q_B3", [integer(7)], "cannot convert xs:integer to xs:string"),
    ("b:Q_B3", [string("a"), string("b")], "cardinality 2"),
    ("b:Q_B3", [], "cardinality 0"),
    ("tst:echo", [string("atomic")], "expected node()"),
    ("t:next", [string("one")], "cannot convert xs:string to xs:integer"),
])
@pytest.mark.parametrize("k,size", [(0, 1), (3, 5), (499, 500)])
def test_type_violation_at_call_k(sites, name, bad, text, k, size):
    good = {"b:Q_B3": [string("person0")], "tst:echo": nodes("<a/>"),
            "t:next": [integer(1)]}[name]
    calls = [[list(bad if index == k else good)] for index in range(size)]
    reply = assert_same_reply(sites, request_for(name, calls), lifted=False)
    assert "env:Fault" in reply and text in reply


def test_return_type_violation_at_call_k(sites):
    calls = [[[integer(1)]], [[integer(1), integer(2)]], [[integer(3)]]]
    reply = assert_same_reply(sites, request_for("t:narrow", calls), False)
    assert "t:narrow() result" in reply and "cardinality 2" in reply
    # ... and the same function lifts when every call conforms.
    assert_same_reply(sites, request_for("t:narrow", calls[::2]), True)


def test_missing_document_is_the_interpreters_error(sites):
    reply = assert_same_reply(sites, request_for("t:nowhere", [[], []]),
                              lifted=False)
    assert "FODC0002" in reply or "missing.xml" in reply


def test_expired_deadline_header(sites):
    serving, _ = sites
    calls = [[[string("person0")]] for _ in range(3)]
    request = request_for("b:Q_B3", calls, deadline_remaining=0.0)
    reply = serving.server.handle(build_request(request))
    assert reply == build_fault(
        "env:Receiver", "deadline expired at B with 3 of 3 bulk calls left",
        "x-1")
    assert serving.server.calls_lifted == 0
    # With budget left the same message is served set-at-a-time.
    request.deadline_remaining = 30.0
    assert_same_reply(sites, request, lifted=True)


# -- isolation and updates ------------------------------------------------------

def test_snapshot_taken_before_a_write(sites):
    """A queryID pins its snapshot at first use; a later write (rule
    R_Fu: applied at once) must stay invisible to it on both paths."""
    query_id = QueryID(host="A", timestamp=1.0, timeout=60)
    pinned = assert_same_reply(
        sites, request_for("t:balance", [[]], query_id=query_id), True)
    assert ">0<" in pinned
    assert_same_reply(
        sites, request_for("bn:set-balance", [[[string("41")]]]), False)
    for size in (1, 2, 500):
        again = assert_same_reply(
            sites, request_for("t:balance", [[]] * size, query_id=query_id),
            True)
        assert again.count(">0<") == size and "41" not in again
    fresh = assert_same_reply(sites, request_for("t:balance", [[], []]), True)
    assert fresh.count(">41<") == 2


def test_updating_functions_are_never_lifted(sites):
    serving, _ = sites
    calls = [[[string(str(k))]] for k in range(500)]
    assert_same_reply(sites, request_for("bn:set-balance", calls), False)
    assert serving.server.calls_lifted == 0
    assert serving.server.calls_handled == 500
    # The updCall flag of the wire alone keeps a read-only function
    # off the set path too (its results are discarded, as per call).
    request = request_for("b:Q_B3", [[[string("person0")]]], updating=True)
    reply = serving.server.handle(build_request(request))
    assert parse_message(reply).results == [[]]
    assert serving.server.calls_lifted == 0


def test_keyword_search_endpoint_is_never_lifted(sites):
    """``sys:kw-search`` has a liftable stub body (``()``) but is served
    from the term index, by identity."""
    serving, _ = sites
    request = XRPCRequest(module="http://monetdb.cwi.nl/XQuery/sys",
                          method="kw-search", arity=1, exchange_id="x-1")
    request.calls = [[[string("0")]], [[string("zzz-no-such-term")]]]
    reply = serving.server.handle(build_request(request))
    first, second = parse_message(reply).results
    assert first and not second
    assert serving.server.calls_lifted == 0


def test_one_resolver_per_message_on_the_fallback_loop(sites):
    """Per message, not per call: ``b:Q_B2`` (not liftable) pulls
    persons.xml from A once for the whole message."""
    serving, _ = sites
    network = serving.transport
    network.reset_stats()
    assert_same_reply(sites, request_for("b:Q_B2", [[], [], []]), False)
    assert network.messages_sent == 1
