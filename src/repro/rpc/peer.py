"""A full XRPC peer: engine + document store + server + client.

A peer can *originate* distributed queries (``execute_query``) and
*serve* incoming XRPC requests (through its :class:`XRPCServer`).

Originating side highlights:

* ``declare option xrpc:isolation "repeatable"`` attaches a queryID to
  every outgoing request so remote peers pin snapshots (rule R'_Fr);
  ``declare option xrpc:timeout "30"`` sets the relative timeout.
* On the default :class:`~repro.engine.Engine` (the MonetDB/XQuery
  profile), ``execute at`` calls are shipped as **Bulk RPC**: the
  loop-lifted batching executor sends one message per (destination,
  function) group, dispatched in parallel to distinct peers — exactly
  the behaviour of Figures 1/2.
* Updating queries under isolation finish with WS-AtomicTransaction-style
  2PC over all participating peers (piggybacked on responses), driven by
  the one :class:`~repro.rpc.coordinator.TransactionCoordinator`.
* Every exchange — calls, nested calls while serving, 2PC commands —
  goes through the peer's one :class:`~repro.net.retry.ResilientChannel`.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field, replace
from typing import Optional

from repro.analysis import QueryProperties
from repro.engine import Engine
from repro.engine.base import Explain
from repro.errors import (DynamicError, TransactionError, TransportError,
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
from repro.soap.marshal import marshal_fingerprint
from repro.soap.messages import QueryID
from repro.xquery import xast as A
from repro.xquery import seqtype
from repro.xquery.context import (DynamicContext, ExecutionContext, RemoteCall,
                                  StaticContext)
from repro.xquery.evaluator import CompiledQuery, Evaluator
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


def fetch_remote_document(session: ClientSession, host: str, path: str):
    """Data shipping: pull a whole document from a remote peer (a
    read-only ``sys:get-doc`` call, retried like any other)."""
    from repro.xdm.atomic import string as make_string
    [result] = session.call(
        host, _SYS_NS, None, "get-doc", 1, [[[make_string(path)]]])
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
        self.evaluator = Evaluator()
        self.registry.register_source(_SYS_MODULE)
        # The keyword-search service endpoint: the declaration's body is
        # a stub — the serving side intercepts calls to it by identity
        # (see run_function) and answers from the posting-list kernels.
        self._kw_search_decl = self.registry.by_namespace(
            _SYS_NS).get_function("kw-search", 1)
        register = getattr(transport, "register_peer", None)
        if register is not None:
            register(self.host, self.server.handle)

    # ------------------------------------------------------------------
    # Serving side helpers (used by XRPCServer)

    def run_function(self, decl: A.FunctionDecl, params: list[list],
                     doc_view, session: ClientSession,
                     context: Optional[DynamicContext] = None,
                     ) -> tuple[list, PendingUpdateList]:
        """Apply a module function to unmarshaled parameters.

        *context* is the message's :meth:`serving_context` when the
        caller serves many calls through one; each call still collects
        into a pending update list of its own.
        """
        if decl is self._kw_search_decl:
            # Service endpoint, not a user function: answer from this
            # peer's term indexes instead of evaluating the stub body.
            return self._serve_keyword_search(params, doc_view), \
                PendingUpdateList()
        ctx = context if context is not None \
            else self.serving_context(doc_view, session)
        ctx.pul = PendingUpdateList()
        result = self.evaluator.call_user_function(decl, params, ctx)
        return result, ctx.pul

    def run_function_set(self, decl: A.FunctionDecl, calls: list[list[list]],
                         context: DynamicContext) -> Optional[list[list]]:
        """Serve all calls of one Bulk RPC message to the non-updating
        *decl* as ONE loop-lifted plan (paper sections 3.2/4): the
        message already is an ``iter|pos|item`` table per parameter, so
        the body compiles once under the loop relation ``iter = 1..N``
        instead of running the tree interpreter N times.

        Returns ``None`` — the caller then runs :meth:`run_function` per
        call — for the ``sys:kw-search`` endpoint, for bodies the
        compiler's :meth:`~LoopLiftingCompiler.check` refuses (no
        dispatch function, so no nested ``execute at``) and on *any*
        error, so fault text is the per-call path's by construction.
        Re-running is safe: the attempt is read-only and ships nothing.
        """
        if decl is self._kw_search_decl:
            return None
        static = decl.module.static if decl.module is not None \
            else context.static
        compiler = LoopLiftingCompiler(
            static, doc_resolver=context.doc_resolver)
        try:
            # First, so a refused body's payload is converted once.
            compiler.check(decl.body, [p.name for p in decl.params], False)
            bindings = [seqtype.convert_arguments(decl, params)
                        for params in calls]
            return [seqtype.convert_result(decl, result) for result in
                    compiler.evaluate(decl.body, bindings)]
        except Exception:  # whatever it was, the per-call path reports it
            return None

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
                        session: Optional[ClientSession]) -> DynamicContext:
        """The dynamic context incoming calls evaluate in: one document
        resolver (and its cache) over *doc_view*, nested ``execute at``
        through *session*."""
        ctx = DynamicContext(
            StaticContext(),
            doc_resolver=self.make_doc_resolver(doc_view, session),
            xrpc_handler=self._one_at_a_time_handler(session)
            if session is not None else None,
        )
        ctx.put_store = self.store.register
        ctx.optimize_joins = self.engine.optimize_flwor_joins
        return ctx

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

    def _one_at_a_time_handler(self, session: ClientSession):
        def handle(call: RemoteCall) -> list:
            [result] = session.call(
                call.destination, call.module_uri, call.location,
                call.function, call.arity, [call.args],
                updating=call.updating)
            return result

        return handle

    # ------------------------------------------------------------------
    # Originating side

    def execute_query(self, source: str,
                      variables: Optional[dict[str, list]] = None,
                      force_one_at_a_time: bool = False,
                      try_lifted: bool = True,
                      timeout: Optional[float] = None,
                      on_peer_failure: str = "fail") -> QueryResult:
        """Compile and run a query at this peer (the p0 role).

        This is the peer face of the unified session API: the compiled
        query comes from the engine's shared plan cache, the loop-lifted
        relational plan is tried first (its ``execute at`` groups ship
        as Bulk RPC straight from the algebra translation, Figure 2) and
        anything outside the lifted core falls back to the tree
        interpreter behind the operationally-equivalent batching
        executor.  Plan choice and fallback reason are recorded on the
        returned :class:`QueryResult` (see :meth:`QueryResult.explain`).

        Fault tolerance: ``declare option xrpc:timeout "N"`` (or an
        explicit ``timeout=`` argument, which wins) sets a whole-query
        deadline budget in seconds; its remaining balance rides every
        exchange as the socket timeout and a SOAP header, so remote
        peers abandon doomed bulk work too.
        ``on_peer_failure="degrade"`` turns terminal transport failures
        of *read-only* bulk groups into partial results — the answer
        merges what reachable peers returned, ``QueryResult.degraded``
        is set and ``failed_peers`` names the skipped sites.  Updating
        groups (and 2PC) always fail closed regardless.

        The lifted plan ships one message per (call site, destination)
        *during* evaluation; two query shapes therefore route straight
        to the batching executor: several ``execute at`` sites (its
        (destination, function) grouping ships fewer messages) and
        updating remote calls (it records phase 1 without shipping, so
        a dynamic lifted bail can never apply an update twice).
        ``try_lifted=False`` forces the interpreter path outright.
        """
        degrade = _degrades(on_peer_failure)
        compiled, compile_seconds, cache_hit = \
            self.engine.compile_with_stats(source)

        isolation = compiled.options.get("xrpc:isolation", "none")
        option_timeout = compiled.options.get("xrpc:timeout")
        # The isolation lease rides the same budget, rounded up to whole
        # seconds (fractional budgets are legal: `xrpc:timeout "1.5"`).
        iso_timeout = (max(1, math.ceil(float(option_timeout)))
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
            deadline = Deadline.after(float(option_timeout), self.clock)

        session = ClientSession(self.transport, origin=self.host,
                                query_id=query_id, channel=self.channel,
                                deadline=deadline)
        started = self.clock.now()
        with Scope() as scope:
            use_bulk = self.engine.bulk_rpc and not force_one_at_a_time
            context = self._make_execution_context(session, variables,
                                                   try_lifted=use_bulk
                                                   and try_lifted)

            plan = "interpreter"
            fallback_reason = None
            fallback_code = None
            analysis = None
            result: list = []
            pul = PendingUpdateList()
            if context.try_lifted:
                # Route from the prepare-time static analysis: the site
                # profile covers the whole locally-evaluated tree (query
                # body plus locally-called function bodies), not just the
                # body's own execute-at occurrences.
                analysis = self.engine.analyze(compiled, context)
                profile = analysis.sites
                sites, has_updating = profile.count, profile.updating_remote
                if sites > 1:
                    fallback_reason = (
                        f"ExecuteAt: {sites} call sites group better through "
                        "the batching executor")
                    fallback_code = "execute-at-routing"
                elif has_updating:
                    fallback_reason = (
                        "ExecuteAt: updating remote calls route through the "
                        "batching executor (no speculative shipping)")
                    fallback_code = "execute-at-routing"
                elif not analysis.liftable:
                    fallback_reason = analysis.fallback_reason
                    fallback_code = analysis.fallback_code
                else:
                    lifted, fallback_reason, fallback_code = \
                        self.engine.attempt_lifted(compiled, context)
                    if fallback_reason is None:
                        result = lifted
                        plan = "lifted"
            if plan != "lifted":
                if use_bulk:
                    result, pul = self._execute_bulk(
                        compiled, session, context, degrade)
                else:
                    result, pul = self._execute_direct(compiled, session, context)
            self.engine.record_plan(plan, fallback_reason, fallback_code)

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
            used_bulk_rpc=use_bulk,
            committed_2pc=committed,
            plan=plan,
            fallback_reason=fallback_reason,
            fallback_code=fallback_code,
            compile_seconds=compile_seconds,
            cache_hit=cache_hit,
            degraded=bool(session.failed_peers),
            failed_peers=list(session.failed_peers),
            counters=scope.counters,
            analysis=analysis,
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
                                channel=self.channel, deadline=deadline)
        term_args = [[make_string(term) for term in terms]]
        requests = [
            (peer, _SYS_NS, None, "kw-search", 1, [term_args], False)
            for peer in peers if peer != self.host]
        hits: list = []
        with Scope() as scope:
            responses = session.call_parallel(
                requests, capture_transport_errors=degrade) if requests else []
            remote = iter(responses)
            for peer in peers:
                if peer == self.host:
                    for uri in self.store.uris():
                        for hit in keyword_search(self.store.get(uri), terms):
                            hits.append(replace(hit, uri=uri))
                    continue
                response = next(remote)
                if isinstance(response, TransportError):
                    session.peer_degraded(peer)
                    continue
                [result] = response
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

    def _make_execution_context(self, session: ClientSession, variables,
                                try_lifted: bool) -> ExecutionContext:
        """The peer's :class:`ExecutionContext`: every remote-call hook
        bound to *session*.

        ``doc_resolver`` carries a per-resolver document cache; phases
        that must not share it (the bulk executor's replay phase)
        install a fresh one via :meth:`make_doc_resolver`.
        """
        return ExecutionContext(
            doc_resolver=self.make_doc_resolver(self.store, session),
            variables=variables,
            dispatch=session.call,
            dispatch_parallel=session.call_parallel,
            xrpc_handler=self._one_at_a_time_handler(session),
            put_store=self.store.register,
            try_lifted=try_lifted,
            apply_updates=False,  # the peer applies after (optional) 2PC
        )

    def _execute_direct(self, compiled: CompiledQuery, session: ClientSession,
                        context: ExecutionContext,
                        ) -> tuple[list, PendingUpdateList]:
        return compiled.run(replace(
            context,
            doc_resolver=self.make_doc_resolver(self.store, session)))

    # -- Bulk RPC via loop-lifted batching ---------------------------------

    def _execute_bulk(self, compiled: CompiledQuery, session: ClientSession,
                      context: ExecutionContext, degrade: bool = False,
                      ) -> tuple[list, PendingUpdateList]:
        """Two-phase batched execution realising Bulk RPC.

        Phase 1 evaluates the query recording every ``execute at`` call
        (sound because XQUF defers all side effects); phase 2 groups the
        recorded calls by (destination, function) and ships one bulk
        message per group — in parallel across distinct destinations;
        phase 3 re-evaluates, answering each call from the bulk results.
        Calls whose arguments depend on other calls' results fall back
        to direct sending during phase 3.

        This is operationally equivalent to MonetDB's loop-lifting
        (section 3.2): an ``execute at`` in a for-loop becomes a single
        request per destination carrying all iterations' calls.
        """
        recorder = _CallRecorder()
        try:
            compiled.run(replace(
                context,
                doc_resolver=self.make_doc_resolver(self.store, session),
                xrpc_handler=recorder.record))
            phase1_ok = True
        except Exception:
            phase1_ok = False

        if not phase1_ok or not recorder.calls:
            return self._execute_direct(compiled, session, context)

        groups = recorder.groups

        # Safety for updating groups: an updating call recorded AFTER any
        # read-only call may have arguments derived from that call's
        # (placeholder) result — applying it speculatively could commit
        # wrong data under rule R_Fu. Defer such groups to phase 3.
        first_read_only = min(
            (index for index, call in enumerate(recorder.calls)
             if not call.updating), default=None)
        shippable = {}
        for key, group in groups.items():
            if key[4] and first_read_only is not None \
                    and group.first_index > first_read_only:
                continue  # possibly dependent updating group
            shippable[key] = group

        requests = [
            (key[0], key[1], group.location, key[2], key[3],
             [args for args, _ in group.entries], key[4])
            for key, group in shippable.items()
        ]
        responses = session.call_parallel(requests, tolerate_faults=True,
                                          capture_transport_errors=degrade)

        replayer = _Replayer(session)
        for (key, group), results in zip(shippable.items(), responses):
            if isinstance(results, TransportError):
                # Terminal transport failure under the partial-results
                # policy.  Updating groups always fail closed — a
                # skipped update is a wrong answer, not a degraded one.
                if key[4]:
                    raise results
                session.peer_degraded(key[0])
                replayer.mark_failed(key[0])
                continue
            if results is None:
                continue  # faulted speculative group: re-send directly
            replayer.load(key, group, results)

        return compiled.run(replace(
            context,
            doc_resolver=self.make_doc_resolver(self.store, session),
            xrpc_handler=replayer.handle))


# ---------------------------------------------------------------------------
# Bulk RPC bookkeeping

_GroupKey = tuple  # (dest, module_uri, function, arity, updating)


def _group_key(call: RemoteCall) -> _GroupKey:
    return (normalize_peer_uri(call.destination), call.module_uri,
            call.function, call.arity, call.updating)


@dataclass
class _CallGroup:
    """All phase-1 calls to one (destination, function) pair."""

    location: Optional[str]
    first_index: int            # recording index of the group's first call
    entries: list = field(default_factory=list)  # (args, fingerprint)


class _CallRecorder:
    """Phase-1 handler: records calls, answers with empty sequences.

    Grouping and dependency-ordering bookkeeping happen here, at record
    time: each group carries its first recording index, and each call's
    arguments are fingerprinted once (their canonical marshaled form) so
    the phase-3 replayer can match calls by O(1) lookup instead of
    deep-equality scans.
    """

    def __init__(self) -> None:
        self.calls: list[RemoteCall] = []
        self.groups: dict[_GroupKey, _CallGroup] = {}

    def record(self, call: RemoteCall) -> list:
        key = _group_key(call)
        group = self.groups.get(key)
        if group is None:
            group = self.groups[key] = _CallGroup(
                location=call.location, first_index=len(self.calls))
        group.entries.append((call.args, marshal_fingerprint(call.args)))
        self.calls.append(call)
        return []


class _Replayer:
    """Phase-3 handler: answers calls from bulk results.

    Results are indexed by (group key, argument fingerprint); duplicate
    argument lists queue under one fingerprint and are served in
    recorded order.  Each replayed call costs one fingerprint render and
    a dict lookup — the former implementation deep-compared arguments
    against a shifting list queue, going quadratic on large bulks.
    """

    def __init__(self, session: ClientSession) -> None:
        self.session = session
        self._results: dict[_GroupKey, dict[str, deque]] = {}
        # Destinations degraded by the partial-results policy: replayed
        # read-only calls to them answer empty instead of re-dialling a
        # peer already judged unreachable.
        self._failed: set[str] = set()

    def load(self, key: _GroupKey, group: _CallGroup, results: list) -> None:
        by_fingerprint = self._results.setdefault(key, {})
        for (_, fingerprint), result in zip(group.entries, results):
            by_fingerprint.setdefault(fingerprint, deque()).append(result)

    def mark_failed(self, destination: str) -> None:
        self._failed.add(normalize_peer_uri(destination))

    def handle(self, call: RemoteCall) -> list:
        by_fingerprint = self._results.get(_group_key(call))
        if by_fingerprint:
            queue = by_fingerprint.get(marshal_fingerprint(call.args))
            if queue:
                return queue.popleft()
        if not call.updating \
                and normalize_peer_uri(call.destination) in self._failed:
            return []
        # Dependent call: its arguments match nothing phase 1 recorded
        # for this group (they depended on another call's placeholder
        # result). Ship it directly — the authoritative attempt.
        [result] = self.session.call(
            call.destination, call.module_uri, call.location, call.function,
            call.arity, [call.args], updating=call.updating)
        return result
