"""The XRPC request handler (server side of a peer).

Handles incoming SOAP messages:

* ``xrpc:request`` — executes the named module function once per
  ``xrpc:call`` (Bulk RPC) against the right database view (current
  state, or the queryID's snapshot), collecting pending updates per the
  active isolation rule (R_Fu applies immediately; R'_Fu defers);
* ``xrpc:prepare`` / ``xrpc:commit`` / ``xrpc:rollback`` — the 2PC
  participant operations;
* anything malformed — a SOAP Fault, which the paper mandates must stop
  execution at the originating site.

Nested XRPC calls made while serving a request run through the peer's
own client session, and every peer they touch is piggybacked on the
response (``xrpc:participants``) for coordinator registration.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING

from repro.errors import XQueryError, XRPCFault, XRPCReproError
from repro.net.retry import NET_STATS, Deadline
from repro.obs import Scope
from repro.rpc.client import ClientSession
from repro.soap.messages import (
    TxnCommand,
    TxnResult,
    XRPCRequest,
    XRPCResponse,
    build_fault,
    build_response,
    build_txn_result,
    parse_message,
)
from repro.xquf.pul import PendingUpdateList, apply_updates, updated_uris

if TYPE_CHECKING:  # pragma: no cover
    from repro.rpc.peer import XRPCPeer


class XRPCServer:
    """Request handler bound to one peer.

    ``handle`` may be invoked concurrently — the real HTTP daemon is
    threaded and ``exchange_many`` fans out per destination.  The
    bookkeeping counters are guarded by ``_stats_lock``; mutations of
    the peer's database state (isolation snapshots, applying pending
    updates, version bumps) are serialized under ``_state_lock``.
    Read-only function evaluation itself runs unlocked.
    """

    def __init__(self, peer: "XRPCPeer") -> None:
        self.peer = peer
        self.requests_handled = 0
        self.calls_handled = 0
        #: The share of ``calls_handled`` served set-at-a-time.
        self.calls_lifted = 0
        self._stats_lock = threading.Lock()
        self._state_lock = threading.Lock()

    # -- entry point -----------------------------------------------------------

    def handle(self, payload: str) -> str:
        """Process one incoming SOAP message; always returns a SOAP reply.

        Served work is charged to the served request: the scope opened
        here keeps it out of the scope of whichever execution's thread
        carried the message (the simulated network calls this on the
        originator's thread, the HTTP daemon on its own).
        """
        with Scope():
            cost = self.peer.cost_model
            if cost is not None:
                self.peer.clock.advance(
                    len(payload.encode("utf-8")) * cost.shred_seconds_per_byte
                    + cost.request_overhead_seconds)
            try:
                message = parse_message(payload)
            except XRPCReproError as exc:
                return build_fault("env:Sender", str(exc))
            # Echo the attempt's correlation id on every reply — including
            # faults — so a retrying client can tell this answer from a
            # stale duplicated one.
            exchange_id = message.exchange_id
            try:
                if isinstance(message, XRPCRequest):
                    response = self._handle_request(message)
                elif isinstance(message, TxnCommand):
                    response = self._handle_txn_command(message)
                else:
                    return build_fault("env:Sender",
                                       "peer expects requests or txn commands",
                                       exchange_id)
            except XRPCFault as fault:
                return build_fault(fault.fault_code, fault.reason, exchange_id)
            except XQueryError as exc:
                return build_fault("env:Sender", str(exc), exchange_id)
            except XRPCReproError as exc:
                return build_fault("env:Receiver", str(exc), exchange_id)
            if cost is not None:
                self.peer.clock.advance(
                    len(response.encode("utf-8")) * cost.serialize_seconds_per_byte)
            return response

    # -- XRPC requests ------------------------------------------------------------

    def _handle_request(self, request: XRPCRequest) -> str:
        peer = self.peer
        with self._stats_lock:
            self.requests_handled += 1

        module = peer.registry.by_namespace(request.module)
        if module is None:
            raise XRPCFault("env:Sender", "could not load module!")
        decl = module.get_function(request.method, request.arity)
        if decl is None:
            raise XRPCFault(
                "env:Sender",
                f"module {request.module!r} has no function "
                f"{request.method}#{request.arity}")

        # Charge compile cost unless the function cache holds this plan.
        cache_key = (request.module, request.method, request.arity)
        cached = peer.engine.function_cache_lookup(cache_key)
        if peer.cost_model is not None and not cached:
            peer.clock.advance(peer.cost_model.compile_seconds)
        peer.engine.function_cache_store(cache_key)

        # Database view per the isolation rule in force.
        if request.query_id is not None:
            with self._state_lock:
                snapshot = peer.isolation.acquire(request.query_id)
            doc_view = snapshot
        else:
            doc_view = peer.store

        # The originator's remaining deadline budget (SOAP header)
        # rebuilt against this peer's local clock: doomed bulk work is
        # abandoned between calls instead of burning the whole budget.
        deadline = None
        if request.deadline_remaining is not None:
            deadline = Deadline.after(request.deadline_remaining, peer.clock)

        # Nested calls run through a fresh client session that shares the
        # incoming queryID — so isolation propagates transitively — and
        # the (shrunken) deadline plus the peer's resilience channel.
        nested_session = ClientSession(
            peer.transport, origin=peer.host, query_id=request.query_id,
            channel=peer.channel, deadline=deadline)
        # Per message, not per call: one context, one document resolver
        # (and cache) over the view.
        context = peer.serving_context(doc_view, nested_session)
        updating = request.updating or decl.updating

        # Bulk RPC set-at-a-time: all N calls as one loop-lifted plan.
        # Liftability of the body is the only selector.  Updating calls
        # (their pending updates are per call) and unliftable bodies
        # (`lifted` stays None) run per call below — as does a message
        # whose budget is already spent, so the loop's fault answers it.
        lifted = None
        if not updating and (deadline is None or not deadline.expired()):
            lifted = peer.run_function_set(decl, request.calls, context)

        results: list[list] = []
        collected_pul = PendingUpdateList()
        for index, params in enumerate(request.calls):
            if deadline is not None and deadline.expired():
                NET_STATS.bump("deadline_expired")
                raise XRPCFault(
                    "env:Receiver",
                    f"deadline expired at {peer.host} with "
                    f"{len(request.calls) - index} of "
                    f"{len(request.calls)} bulk calls left")
            if peer.cost_model is not None:
                peer.clock.advance(peer.cost_model.per_call_seconds)
            if lifted is not None:
                results.append(lifted[index])
                continue
            value, pul = peer.run_function(
                decl, params, doc_view, nested_session, context)
            if updating:
                collected_pul.merge(pul)
                results.append([])
            else:
                results.append(value)
        with self._stats_lock:
            self.calls_handled += len(results)
            if lifted is not None:
                self.calls_lifted += len(results)

        if updating and collected_pul:
            with self._state_lock:
                if request.query_id is not None:
                    # Rule R'_Fu: defer to 2PC commit.
                    peer.isolation.defer_updates(request.query_id,
                                                 collected_pul)
                else:
                    # Rule R_Fu: apply immediately, new current database
                    # state.
                    apply_updates(collected_pul)
                    for uri in updated_uris(collected_pul):
                        if peer.store.contains(uri):
                            peer.store.bump_version(uri)

        response = XRPCResponse(
            module=request.module, method=request.method, results=results,
            exchange_id=request.exchange_id)
        response.participating_peers = [peer.host] + nested_session.participants
        return build_response(response)

    # -- 2PC participant ------------------------------------------------------------

    def _handle_txn_command(self, command: TxnCommand) -> str:
        peer = self.peer
        try:
            with self._state_lock:
                if command.kind == "prepare":
                    peer.isolation.prepare(command.query_id)
                elif command.kind == "commit":
                    peer.isolation.commit(command.query_id)
                else:
                    peer.isolation.rollback(command.query_id)
            return build_txn_result(TxnResult(
                kind=command.kind, ok=True,
                exchange_id=command.exchange_id))
        except XRPCReproError as exc:
            return build_txn_result(TxnResult(
                kind=command.kind, ok=False, detail=str(exc),
                exchange_id=command.exchange_id))

