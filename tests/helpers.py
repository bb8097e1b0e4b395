"""Shared test helpers."""

from __future__ import annotations

from typing import Optional

from repro import reference
from repro.engine.base import Engine
from repro.errors import XQueryError, XRPCFault
from repro.net import SimulatedNetwork
from repro.pathfinder import LoopLiftedQuery
from repro.rpc import XRPCPeer
from repro.soap import (
    XRPCRequest,
    build_request,
    parse_request,
    parse_response,
)
from repro.soap.messages import ENV_NS, XRPC_NS
from repro.workloads.xmark import generate_auctions, generate_persons
from repro.xdm.atomic import AtomicValue
from repro.xdm.nodes import (AttributeNode, DocumentNode, ElementNode,
                             Node, _next_doc_id)
from repro.xdm.structural import (
    StructuralIndex,
    _restamp_tree,
    invalidate_structural_index,
)
from repro.xml import parse_document
from repro.xml.serializer import serialize, serialize_sequence
from repro.xquery.context import ExecutionContext
from repro.xquery.evaluator import evaluate_query
from repro.xquery.modules import ModuleRegistry


def run(source: str, docs: Optional[dict[str, str]] = None,
        modules: Optional[dict[str, str]] = None, **kwargs):
    """Evaluate an XQuery; docs maps uri->xml text, modules location->source."""
    registry = ModuleRegistry()
    for location, module_source in (modules or {}).items():
        registry.register_source(module_source, location=location)
    parsed = {uri: parse_document(text, uri=uri) for uri, text in (docs or {}).items()}
    resolver = parsed.get if docs else None
    return evaluate_query(source, registry=registry, doc_resolver=resolver, **kwargs)


def values(sequence) -> list:
    """Python values of an all-atomic result sequence."""
    result = []
    for item in sequence:
        assert isinstance(item, AtomicValue), f"expected atomic, got {item!r}"
        result.append(item.value)
    return result


def strings(sequence) -> list[str]:
    return [item.string_value() for item in sequence]


def xml(sequence) -> str:
    """Serialize a result sequence to a single XML string."""
    return serialize_sequence(sequence)


def single_node(sequence) -> Node:
    assert len(sequence) == 1 and isinstance(sequence[0], Node), sequence
    return sequence[0]


#: One engine for every helper call: its plan cache spares the
#: matrices a re-compile of the same probe after every operation.
_ENGINE = Engine()


def execute(source: str, resolver, variables=None, try_lifted: bool = True):
    """``(result, explain)`` of *source* on the product engine: the
    lifted plan first, or (``try_lifted=False``) the product interpreter."""
    return _ENGINE.execute(source, ExecutionContext(
        doc_resolver=resolver, variables=variables, try_lifted=try_lifted))


def _stored(item) -> bool:
    """Is *item* a node of a document tree (not one a query built)?"""
    return isinstance(item, Node) and isinstance(item.root(), DocumentNode)


def _node_identities(sequence) -> list[int]:
    """Per node item, the index of its first occurrence."""
    first: dict[int, int] = {}
    return [first.setdefault(id(item), index)
            for index, item in enumerate(sequence) if isinstance(item, Node)]


def assert_same_sequence(actual, expected) -> None:
    """Stored nodes equal by identity, constructed nodes (each pipeline
    mints its own) constructed on both sides and repeated where the
    other side repeats its own, then the serialized bytes equal."""
    assert len(actual) == len(expected)
    for left, right in zip(actual, expected):
        if _stored(left) or _stored(right):
            assert left is right
        elif isinstance(left, Node) or isinstance(right, Node):
            assert isinstance(left, Node) and isinstance(right, Node)
    assert _node_identities(actual) == _node_identities(expected)
    assert serialize_sequence(actual) == serialize_sequence(expected)


def assert_matches_reference(source: str, resolver, variables=None,
                             reparse=None) -> list:
    """The lifted plan and the product interpreter both return what the
    oracle (:mod:`repro.reference`) returns — which is handed back.
    With *reparse* (a resolver over :func:`reparsed` documents, the
    update oracle) the oracle must serialize the same from there too."""
    expected = reference.evaluate(source, doc_resolver=resolver,
                                  variables=variables)
    for try_lifted in (True, False):
        result, _ = execute(source, resolver, variables, try_lifted)
        assert_same_sequence(result, expected)
    if reparse is not None:
        assert serialize_sequence(expected) == serialize_sequence(
            reference.evaluate(source, doc_resolver=reparse,
                               variables=variables))
    return expected


def _outcome(run):
    """The items *run()* returns, or the XQuery error code it raises."""
    try:
        return run()
    except XQueryError as error:
        return error.code


def assert_same_outcome(source: str, resolver, variables=None):
    """The lifted plan, the product interpreter and the oracle agree on
    *source*: the same items, or the same XQuery error code (handed
    back).  The lifted plan runs on its own — no fallback can stand in
    for it — and when it returns, the engine's plan is the lifted one:
    a liftable verdict is final."""
    context = ExecutionContext(doc_resolver=resolver, variables=variables)
    compiled = _ENGINE.compile(source)
    lifted = _outcome(lambda: LoopLiftedQuery(compiled, context).run())
    product = _outcome(
        lambda: execute(source, resolver, variables, try_lifted=False)[0])
    oracle = _outcome(lambda: reference.evaluate(
        source, doc_resolver=resolver, variables=variables))
    if isinstance(oracle, str):
        assert (lifted, product) == (oracle, oracle), source
        return oracle
    assert_same_sequence(lifted, oracle)
    assert_same_sequence(product, oracle)
    _, explain = execute(source, resolver, variables)
    assert explain.plan == "lifted", (source, explain.fallback_reason)
    return oracle


def assert_runs_lifted(source: str, resolver, oracle: str):
    """*source* runs on the lifted plan with no fallback and returns
    what an interpreter returns — the product's (*oracle* ``"accel"``:
    staircase scans, value indexes) or the reference's (``"naive"``);
    hands back ``(result, explain)``."""
    result, explain = execute(source, resolver)
    assert explain.plan == "lifted", (source, explain.fallback_reason)
    assert explain.fallback_reason is None
    assert explain.fallback_code is None
    if oracle == "accel":
        expected, _ = execute(source, resolver, try_lifted=False)
    else:
        expected = reference.evaluate(source, doc_resolver=resolver)
    assert_same_sequence(result, expected)
    return result, explain


def shipped_call(params: list[list]) -> list[list]:
    """What the far side of an XRPC hop holds for the parameter
    sequences of one call: ``build_request`` writes them,
    ``parse_request`` decodes the bytes."""
    request = XRPCRequest(module="m", method="f", arity=len(params))
    request.add_call(params)
    [decoded] = parse_request(build_request(request)).calls
    return decoded


def shipped(sequence: list) -> list:
    """One sequence through the codec that ships, as a lone parameter."""
    return shipped_call([sequence])[0]


def sender_fault(payload) -> str:
    """The reason of the ``env:Sender`` fault envelope that a peer's
    ``XRPCServer.handle`` — which never raises — answers *payload* with."""
    reply = XRPCPeer("served", SimulatedNetwork()).server.handle(payload)
    try:
        parse_response(reply)
    except XRPCFault as fault:
        assert fault.fault_code == "env:Sender"
        return fault.reason
    raise AssertionError("the peer served the payload")


def reference_sequences(text: str) -> list[list]:
    """The unmarshalling oracle's reading of a message: ``reference.n2s``
    over every ``xrpc:sequence`` the decoder enters, taken from the
    message parsed as a whole tree by the oracle's parser."""
    document = reference.parse_document(text)
    body = document.root_element.find("Body", ENV_NS)
    message = body.child_elements()[0]
    if message.local_name == "request":
        parents = message.find_all("call", XRPC_NS)
    else:
        parents = [message]
    return [reference.n2s(sequence) for parent in parents
            for sequence in parent.find_all("sequence", XRPC_NS)]


def item_shape(item):
    """What a decoded item is, comparably: an atomic's type and value,
    a node's kind, name, markup and whether it stands alone."""
    if isinstance(item, AtomicValue):
        return ("atomic", item.type.name, item.value)
    assert isinstance(item, Node)
    if isinstance(item, AttributeNode):
        return ("attribute", item.name, item.ns_uri, item.value)
    name = item.node_name
    ns_uri = item.ns_uri if isinstance(item, ElementNode) else None
    return (item.kind, name, ns_uri, item.serialize(),
            item.parent is None)


def densify(root: Node) -> Node:
    """Restamp *root*'s tree with step-1 keys: the locally dense state
    production reaches by gap exhaustion, for the whole tree at once."""
    invalidate_structural_index(root)
    _restamp_tree(root, _next_doc_id(), 1)
    return root


def xmark_resolver(config, dense: bool = False):
    """A ``fn:doc`` resolver over freshly parsed ``persons.xml`` /
    ``auctions.xml`` of *config*, densified on request."""
    documents = {
        "persons.xml": parse_document(generate_persons(config),
                                      uri="persons.xml"),
        "auctions.xml": parse_document(generate_auctions(config),
                                       uri="auctions.xml"),
    }
    if dense:
        for document in documents.values():
            densify(document)
    return documents.get


def reparsed(document):
    """A fresh parse of *document*'s serialization — the update oracle's
    tree: it shares no key, stamp or index with what an applier mutated."""
    return parse_document(serialize(document), uri=document.uri)


def assert_index_matches_rebuild(root):
    """The patched index must equal a from-scratch rebuild, column by
    column (the test then leaves the fresh index installed — it is
    equally consistent)."""
    patched = root._sidx
    assert patched is not None and not patched.stale
    patched_names = {
        name: list(patched.name_pres(name))
        for name in {n.local_name for n in patched.nodes
                     if hasattr(n, "local_name") and n.kind == "element"}}
    # pre_of is a self-healing cache: validate through rank_of, which
    # must agree with a from-scratch build for every row.
    ranks = [patched.rank_of(node) for node in patched.nodes]
    assert ranks == list(range(len(patched.nodes)))
    columns = (list(patched.nodes), list(patched.sizes),
               list(patched.levels))
    fresh = StructuralIndex(root, generation=0)
    assert columns[0] == fresh.nodes
    assert columns[1] == list(fresh.sizes)
    assert columns[2] == list(fresh.levels)
    for name, pres in patched_names.items():
        assert pres == fresh.name_pres(name), name
