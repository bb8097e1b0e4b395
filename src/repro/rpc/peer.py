"""A full XRPC peer: engine + document store + server + client.

A peer can *originate* distributed queries (``execute_query``) and
*serve* incoming XRPC requests (through its :class:`XRPCServer`).

Originating side highlights:

* ``declare option xrpc:isolation "repeatable"`` attaches a queryID to
  every outgoing request so remote peers pin snapshots (rule R'_Fr);
  ``declare option xrpc:timeout "30"`` sets the relative timeout.
* On the default :class:`~repro.engine.Engine` (the MonetDB/XQuery
  profile), a liftable query ships its ``execute at`` calls as **Bulk
  RPC** from the loop-lifted plan: one message per (destination,
  function) group, dispatched in parallel to distinct peers — exactly
  the behaviour of Figures 1/2.  Any other query runs once in the
  interpreter, shipping one call at a time.  The plan is chosen by the
  engine's one router (:meth:`~repro.engine.Engine.run`), and either
  plan ships through the context's one remote hook, ``dispatch``.
* Updating queries under isolation finish with WS-AtomicTransaction-style
  2PC over all participating peers (piggybacked on responses), driven by
  the one :class:`~repro.rpc.coordinator.TransactionCoordinator`.
* Every exchange — calls, nested calls while serving, 2PC commands —
  goes through the peer's one :class:`~repro.net.retry.ResilientChannel`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional

from repro.analysis import QueryProperties
from repro.engine import Engine
from repro.engine.base import Explain
from repro.errors import (DynamicError, StaticError, TransactionError,
                          XRPCFault)
from repro.net.clock import WallClock
from repro.net.cost import PeerCostModel
from repro.net.retry import (BreakerRegistry, Deadline, ResilientChannel,
                             RetryPolicy)
from repro.net.transport import Transport, normalize_peer_uri
from repro.obs import Scope
from repro.pathfinder.compiler import LoopLiftingCompiler
from repro.rpc.client import ClientSession
from repro.rpc.coordinator import TransactionCoordinator
from repro.rpc.isolation import IsolationManager
from repro.rpc.server import XRPCServer
from repro.rpc.store import DocumentStore
from repro.soap.messages import Arguments, QueryID
from repro.xquery import xast as A
from repro.xquery.seqtype import Signature
from repro.xquery.context import ExecutionContext
from repro.xquery.evaluator import CompiledQuery
from repro.xquery.modules import ModuleRegistry
from repro.xquf.pul import PendingUpdateList, apply_updates, updated_uris

_SYS_MODULE = """
module namespace sys = "http://monetdb.cwi.nl/XQuery/sys";
declare function sys:get-doc($uri as xs:string) as document-node()
{ doc($uri) };
declare function sys:kw-search($terms as xs:string*) as node()*
{ () };
"""
_SYS_NS = "http://monetdb.cwi.nl/XQuery/sys"


@dataclass
class QueryResult:
    """Outcome of one originated query, with execution statistics."""

    sequence: list
    elapsed_seconds: float
    messages_sent: int
    calls_shipped: int
    participants: list[str] = field(default_factory=list)
    used_bulk_rpc: bool = False
    committed_2pc: bool = False
    # Unified-pipeline telemetry (the session API's explain surface).
    plan: Optional[str] = None            # "lifted" | "interpreter"
    fallback_reason: Optional[str] = None
    fallback_code: Optional[str] = None
    compile_seconds: float = 0.0
    cache_hit: bool = False
    # Fault-tolerance outcome: peers skipped under the partial-results
    # policy (``on_peer_failure="degrade"``).
    degraded: bool = False
    failed_peers: list[str] = field(default_factory=list)
    #: What this execution did *at this peer* (its :class:`~repro.obs.Scope`:
    #: namespaced counter deltas; work remote peers served is theirs).
    counters: dict[str, int] = field(default_factory=dict)
    #: The prepare-time static analysis the router acted on (``None``
    #: when the lifted pipeline was not a candidate).
    analysis: Optional[QueryProperties] = None

    def explain(self) -> Explain:
        """Plan telemetry in the session API's :class:`Explain` shape."""
        return Explain(
            plan=self.plan or "interpreter",
            fallback_reason=self.fallback_reason,
            fallback_code=self.fallback_code,
            compile_seconds=self.compile_seconds,
            execute_seconds=self.elapsed_seconds,
            cache_hit=self.cache_hit,
            counters=self.counters,
            analysis=self.analysis,
        )


@dataclass
class DistributedSearchResult:
    """Merged outcome of one distributed keyword search."""

    hits: list
    messages_sent: int
    peers: list[str] = field(default_factory=list)
    # Partial-results outcome under ``on_peer_failure="degrade"``.
    degraded: bool = False
    failed_peers: list[str] = field(default_factory=list)
    #: What the search did at this peer (see :class:`QueryResult`).
    counters: dict[str, int] = field(default_factory=dict)


def _degrades(on_peer_failure: str) -> bool:
    """Validate a partial-results policy; ``True`` for ``"degrade"``."""
    if on_peer_failure not in ("fail", "degrade"):
        raise ValueError(
            f"on_peer_failure must be 'fail' or 'degrade', "
            f"not {on_peer_failure!r}")
    return on_peer_failure == "degrade"


def _timeout_seconds(option: str) -> float:
    """The ``xrpc:timeout`` option's budget in seconds: a finite,
    non-negative number — anything else is a static error (the option
    is recognised, its content invalid)."""
    try:
        seconds = float(option)
    except ValueError:
        seconds = math.nan
    if not math.isfinite(seconds) or seconds < 0:
        raise StaticError("XQST0013", f"xrpc:timeout {option!r} is not a "
                          "finite, non-negative number of seconds")
    return seconds


def fetch_remote_document(session: ClientSession, host: str, path: str):
    """Data shipping: pull a whole document from a remote peer (a
    read-only ``sys:get-doc`` call, retried like any other); ``None``
    when the peer is unreachable under ``session.degrade``."""
    from repro.xdm.atomic import string as make_string
    [result] = session.call(
        host, _SYS_NS, None, "get-doc", 1,
        Arguments.of([[[make_string(path)]]]))
    if not result and host in session.failed_peers:
        return None
    if len(result) != 1:
        raise XRPCFault("env:Receiver",
                        f"remote peer returned {len(result)} documents")
    return result[0]


class XRPCPeer:
    """One peer in the distributed XQuery network."""

    def __init__(
        self,
        host: str,
        transport: Transport,
        engine: Optional[Engine] = None,
        cost_model: Optional[PeerCostModel] = None,
        retry_policy: Optional[RetryPolicy] = None,
        breakers: Optional[BreakerRegistry] = None,
    ) -> None:
        self.host = normalize_peer_uri(host)
        self.transport = transport
        self.engine = engine or Engine()
        self.registry: ModuleRegistry = self.engine.registry
        self.store = DocumentStore()
        self.clock = getattr(transport, "clock", None) or WallClock()
        self.cost_model = cost_model
        # Every exchange this peer originates (including nested calls
        # made while serving) runs through one resilience channel, so
        # breaker state about a destination is shared peer-wide.
        self.channel = ResilientChannel(
            transport, policy=retry_policy, breakers=breakers,
            clock=self.clock)
        self.isolation = IsolationManager(self.store, self.clock)
        self.server = XRPCServer(self)
        self.registry.register_source(_SYS_MODULE)
        # The keyword-search service endpoint: the declaration's body is
        # a stub — the serving side intercepts calls to it by identity
        # (see run_call) and answers from the posting-list kernels.
        self.kw_search_decl = self.registry.by_namespace(
            _SYS_NS).get_function("kw-search", 1)
        register = getattr(transport, "register_peer", None)
        if register is not None:
            register(self.host, self.server.handle)

    # ------------------------------------------------------------------
    # Serving side helpers (used by XRPCServer)

    def run_call(self, decl: A.FunctionDecl, params: list[list],
                 doc_view, session: ClientSession,
                 context: Optional[ExecutionContext] = None,
                 ) -> tuple[list, PendingUpdateList]:
        """Apply a module function to one call's unmarshaled parameters.

        The call runs as the function's :meth:`call_plan` — a query like
        any other, so the interpreter has one entry point.  *context* is
        the message's :meth:`serving_context` when the caller serves many
        calls through one; each call still collects into a pending update
        list of its own.
        """
        if decl is self.kw_search_decl:
            # Service endpoint, not a user function: answer from this
            # peer's term indexes instead of evaluating the stub body.
            return self._serve_keyword_search(params, doc_view), \
                PendingUpdateList()
        ctx = context if context is not None \
            else self.serving_context(doc_view, session)
        return self.call_plan(decl).run(replace(ctx, variables={
            f"arg{index}": value for index, value in enumerate(params, 1)}))

    def call_plan(self, decl: A.FunctionDecl) -> CompiledQuery:
        """The main module a served call of *decl* runs: the function
        applied to external ``$arg1..$argN``, compiled through the
        engine's plan cache (the paper's function cache, section 4)."""
        uri = decl.namespace_uri.replace("&", "&amp;").replace('"', '""')
        arguments = [f"$arg{index}"
                     for index in range(1, len(decl.params) + 1)]
        return self.engine.compile(
            f'import module namespace f = "{uri}";\n'
            + "".join(f"declare variable {name} external;\n"
                      for name in arguments)
            + f"f:{decl.local_name}({', '.join(arguments)})")

    def run_function(self, signature: Signature, calls: Arguments,
                     context: ExecutionContext) -> list[list]:
        """Serve all calls of one Bulk RPC message to the non-updating
        function of *signature*, whose served verdict is liftable, as
        ONE loop-lifted plan (paper sections 3.2/4): the message already
        is an ``iter|pos|item`` column per parameter, so each column is
        converted with one call and bound as it is, and the body
        compiles once under the loop relation ``iter = 1..N`` instead of
        running the tree interpreter N times.  The verdict is final: an
        argument or result type violation, or a dynamic error on the
        data, is the message's fault."""
        decl = signature.decl
        count = calls.count
        columns = {param.name: converter.column(rows, count)
                   for param, converter, rows in zip(
                       decl.params, signature.params, calls.columns)}
        compiler = LoopLiftingCompiler(
            decl.module.static, doc_resolver=context.doc_resolver)
        rows = signature.result.column(
            compiler.evaluate(decl.body, count, columns), count)
        results: list[list] = [[] for _ in range(count)]
        for it, _pos, item in rows:
            results[it - 1].append(item)
        return results

    def _serve_keyword_search(self, params: list[list], doc_view) -> list:
        """Serve one ``sys:kw-search`` bulk call: SLCA keyword search
        over every document this peer holds (through *doc_view*, so
        isolation snapshots are honoured), answered as ``<hit>`` wrapper
        elements carrying the origin URI and term-frequency score —
        self-describing on the wire, so the originator can merge ranked
        results without a second round trip."""
        from repro.search.index import keyword_search
        from repro.xdm.atomic import AtomicValue
        from repro.xml.parser import parse_document
        from repro.xml.serializer import escape_attribute, serialize

        [term_items] = params
        terms = [item.value if isinstance(item, AtomicValue)
                 else item.string_value() for item in term_items]
        hits = []
        for uri in self.store.uris():
            document = doc_view.get(uri)
            for hit in keyword_search(document, terms):
                xml = (f'<hit uri="{escape_attribute(uri)}" '
                       f'score="{hit.score}">'
                       f"{serialize(hit.node)}</hit>")
                wrapper = parse_document(xml)
                hits.append(wrapper.children[0])
        return hits

    def serving_context(self, doc_view,
                        session: Optional[ClientSession]) -> ExecutionContext:
        """The execution context incoming calls run in: one document
        resolver (and its cache) over *doc_view*, nested ``execute at``
        dispatched through *session*."""
        return ExecutionContext(
            doc_resolver=self.make_doc_resolver(doc_view, session),
            dispatch=session.call if session is not None else None,
            put_store=self.store.register,
        )

    def make_doc_resolver(self, doc_view, session: Optional[ClientSession]):
        """fn:doc resolution: local store/snapshot, or remote fetch
        (data shipping) for ``xrpc://other-host/path`` URIs."""
        cache: dict[str, object] = {}

        def resolve(uri: str):
            if uri in cache:
                return cache[uri]
            document = None
            if uri.startswith("xrpc://"):
                host = normalize_peer_uri(uri)
                path = uri.split(host, 1)[1].lstrip("/")
                if host == self.host:
                    document = doc_view.get(path)
                else:
                    if session is None:
                        raise DynamicError(
                            "FODC0002",
                            f"cannot fetch remote document {uri!r} "
                            "without a client session")
                    document = fetch_remote_document(session, host, path)
            else:
                document = doc_view.get(uri)
            cache[uri] = document
            return document

        return resolve

    # ------------------------------------------------------------------
    # Originating side

    def execute_query(self, source: str,
                      variables: Optional[dict[str, list]] = None,
                      force_one_at_a_time: bool = False,
                      timeout: Optional[float] = None,
                      on_peer_failure: str = "fail") -> QueryResult:
        """Compile and run a query at this peer (the p0 role).

        This is the peer face of the unified session API: the compiled
        query comes from the engine's shared plan cache and the engine's
        router (:meth:`~repro.engine.Engine.run`) runs it one of two
        ways.  A liftable query runs as the loop-lifted relational
        plan, whatever its number of ``execute at`` sites: each ships as
        Bulk RPC straight from the algebra translation (Figure 2), and
        the sibling sites of one sequence share their (destination,
        function) messages.  Anything else runs once in the tree
        interpreter, one call per message — as does every query under
        ``force_one_at_a_time=True`` (the paper's Table 2 column) or on
        a profile that does no loop lifting
        (:attr:`~repro.engine.Engine.loop_lifting`).  A liftable verdict
        is final — the plan never bails after a ship — so updating
        remote calls ship from it too.  Plan choice and fallback reason
        are recorded on the returned :class:`QueryResult` (see
        :meth:`QueryResult.explain`); the pending updates are applied
        here, after 2PC.

        Fault tolerance: ``declare option xrpc:timeout "N"`` (or an
        explicit ``timeout=`` argument, which wins) sets a whole-query
        deadline budget in seconds; its remaining balance rides every
        exchange as the socket timeout and a SOAP header, so remote
        peers abandon doomed bulk work too.
        ``on_peer_failure="degrade"`` turns terminal transport failures
        of *read-only* requests into partial results — the unreachable
        peer's calls answer empty, ``QueryResult.degraded`` is set and
        ``failed_peers`` names the skipped sites.  Updating requests
        (and 2PC) always fail closed regardless.
        """
        degrade = _degrades(on_peer_failure)
        compiled, compile_seconds, cache_hit = \
            self.engine.compile_with_stats(source)

        isolation = compiled.options.get("xrpc:isolation", "none")
        option = compiled.options.get("xrpc:timeout")
        option_timeout = None if option is None else _timeout_seconds(option)
        # The isolation lease rides the same budget, rounded up to whole
        # seconds (fractional budgets are legal: `xrpc:timeout "1.5"`).
        iso_timeout = (max(1, math.ceil(option_timeout))
                       if option_timeout is not None else 60)
        query_id = None
        if isolation == "repeatable":
            query_id = QueryID(host=self.host, timestamp=self.clock.now(),
                               timeout=iso_timeout)
        # The query's deadline budget: only armed when asked for (the
        # explicit argument wins over the query's own option) — without
        # one, exchanges carry no deadline header and never expire.
        deadline = None
        if timeout is not None:
            deadline = Deadline.after(timeout, self.clock)
        elif option_timeout is not None:
            deadline = Deadline.after(option_timeout, self.clock)

        session = ClientSession(self.transport, origin=self.host,
                                query_id=query_id, channel=self.channel,
                                deadline=deadline, degrade=degrade)
        # Every remote-call hook is bound to the session, and one
        # document resolver (and its cache) runs over this peer's store.
        context = ExecutionContext(
            doc_resolver=self.make_doc_resolver(self.store, session),
            variables=variables,
            dispatch=session.call,
            dispatch_parallel=session.call_parallel,
            put_store=self.store.register,
            try_lifted=not force_one_at_a_time,
        )
        started = self.clock.now()
        with Scope() as scope:
            result, pul, explain = self.engine.run(compiled, context)

            # The originating peer plays the WS-Coordinator role
            # (section 2.3): it knows the full participant list from
            # response piggybacks.  2PC never degrades: anything short
            # of a full commit raises.
            committed = False
            if query_id is not None and session.participants:
                coordinator = TransactionCoordinator(session)
                for participant in session.participants:
                    coordinator.register(participant)
                outcome = coordinator.run()
                if not outcome.committed:
                    raise TransactionError(outcome.detail)
                committed = True
            if pul:
                apply_updates(pul)
                for uri in updated_uris(pul):
                    if self.store.contains(uri):
                        self.store.bump_version(uri)
        return QueryResult(
            sequence=result,
            elapsed_seconds=self.clock.now() - started,
            messages_sent=session.messages_sent,
            calls_shipped=session.calls_shipped,
            participants=list(session.participants),
            used_bulk_rpc=explain.plan == "lifted",
            committed_2pc=committed,
            plan=explain.plan,
            fallback_reason=explain.fallback_reason,
            fallback_code=explain.fallback_code,
            compile_seconds=compile_seconds,
            cache_hit=cache_hit,
            degraded=bool(session.failed_peers),
            failed_peers=list(session.failed_peers),
            counters=scope.counters,
            analysis=explain.analysis,
        )

    def keyword_search(self, terms, peers: Optional[list[str]] = None,
                       ranked: bool = False,
                       on_peer_failure: str = "fail",
                       timeout: Optional[float] = None,
                       ) -> "DistributedSearchResult":
        """Distributed keyword search: one bulk message per site.

        *terms* (a string or iterable of strings) is shipped to every
        peer in *peers* as a single ``sys:kw-search`` request per site —
        all terms travel in one message, dispatched in parallel across
        distinct destinations like any Bulk RPC group — plus a local
        posting-list search when this peer holds documents.  Each remote
        answers with self-describing ``<hit uri score>`` wrappers; the
        originator unwraps them into
        :class:`~repro.search.index.SearchHit` records and merges
        site-by-site in the order given, document order within each
        site (each site's hits arrive doc-ordered by construction).
        ``ranked=True`` re-sorts the merged list by descending
        term-frequency score (stable, so ties keep the site/doc order).

        Keyword search is read-only, so fan-out failures are retried and
        — with ``on_peer_failure="degrade"`` — a peer that stays
        unreachable is skipped: the merge covers the reachable sites and
        the result reports ``degraded=True`` with the ``failed_peers``
        list.  The default (``"fail"``) raises on the first terminal
        transport failure.  ``timeout`` bounds the whole fan-out.
        """
        from repro.search.index import SearchHit, keyword_search
        from repro.xdm.atomic import string as make_string

        degrade = _degrades(on_peer_failure)
        if isinstance(terms, str):
            terms = [terms]
        else:
            terms = list(terms)
        peers = [normalize_peer_uri(peer) for peer in (peers or [])]
        deadline = None if timeout is None else \
            Deadline.after(timeout, self.clock)
        session = ClientSession(self.transport, origin=self.host,
                                channel=self.channel, deadline=deadline,
                                degrade=degrade)
        term_args = Arguments.of([[[make_string(term) for term in terms]]])
        requests = [
            (peer, _SYS_NS, None, "kw-search", 1, term_args, False)
            for peer in peers if peer != self.host]
        hits: list = []
        with Scope() as scope:
            responses = session.call_parallel(requests) if requests else []
            remote = iter(responses)
            for peer in peers:
                if peer == self.host:
                    for uri in self.store.uris():
                        for hit in keyword_search(self.store.get(uri), terms):
                            hits.append(replace(hit, uri=uri))
                    continue
                [result] = next(remote)
                for wrapper in result:
                    attrs = {attr.name: attr.value
                             for attr in wrapper.attributes}
                    payload = [child for child in wrapper.children][0]
                    hits.append(SearchHit(node=payload,
                                          score=int(attrs["score"]),
                                          uri=attrs["uri"]))
        if ranked:
            hits.sort(key=lambda hit: -hit.score)
        return DistributedSearchResult(
            hits=hits,
            messages_sent=session.messages_sent,
            peers=peers,
            degraded=bool(session.failed_peers),
            failed_peers=list(session.failed_peers),
            counters=scope.counters)
