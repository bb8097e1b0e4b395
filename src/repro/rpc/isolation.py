"""Per-queryID isolation state: snapshots, deferred PULs, 2PC hooks.

Implements section 2.2/2.3 of the paper on the server side:

* ``repeatable`` isolation — the first request carrying a queryID pins a
  snapshot; all later requests for the same queryID observe it;
* relative **timeouts** — after ``timeout`` local seconds the snapshot is
  discarded, but the queryID is *remembered* so that requests arriving
  too late receive an error rather than silently reading fresh state;
* per-host expiry administration — only the latest expired timestamp per
  originating host needs retaining (as the paper observes);
* deferred pending-update lists (rule R'_Fu) and the Prepare/Commit/
  Rollback participant operations of WS-AtomicTransaction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import IsolationError, TransactionError
from repro.rpc.store import DocumentStore, Snapshot
from repro.soap.messages import QueryID
from repro.xquf.pul import PendingUpdateList, apply_updates, updated_uris


@dataclass
class _QueryState:
    query_id: QueryID
    snapshot: Snapshot
    created_at: float           # local clock time of first request
    pul: PendingUpdateList = field(default_factory=PendingUpdateList)
    state: str = "active"       # active | prepared | committed | aborted


class TransactionLog:
    """Stand-in for stable storage: records prepared transactions.

    The paper's Prepare rule logs the union of pending update lists to
    stable storage so the query can commit after a failure; we journal
    the decision records in-memory but through an explicit interface so
    the 2PC state machine is observable in tests.
    """

    def __init__(self) -> None:
        self.records: list[tuple[str, tuple[str, float]]] = []

    def log(self, action: str, query_key: tuple[str, float]) -> None:
        self.records.append((action, query_key))


class IsolationManager:
    """All isolation bookkeeping of one peer."""

    def __init__(self, store: DocumentStore, clock) -> None:
        self._store = store
        self._clock = clock
        self._active: dict[tuple[str, float], _QueryState] = {}
        # host -> latest expired timestamp (paper: per-host administration).
        self._expired: dict[str, float] = {}
        # queryID key -> terminal decision ("committed" | "aborted").
        # A coordinator that lost our acknowledgement (crash, dropped
        # response) replays its decision on reconnect; answering from
        # this log keeps commit/rollback idempotent instead of faulting
        # on the second delivery — the 2PC equivalent of the client's
        # retry-safe exchanges.
        self._decisions: dict[tuple[str, float], str] = {}
        self.log = TransactionLog()

    # -- snapshot lifecycle --------------------------------------------------

    def acquire(self, query_id: QueryID) -> Snapshot:
        """Snapshot for this queryID: create on first request, reuse after.

        Raises
        ------
        IsolationError
            If the queryID expired (request arrived too late).
        """
        self._purge_expired()
        key = query_id.key
        if key in self._active:
            return self._active[key].snapshot
        latest_expired = self._expired.get(query_id.host)
        if latest_expired is not None and query_id.timestamp <= latest_expired:
            raise IsolationError(
                f"queryID ({query_id.host}, {query_id.timestamp}) expired")
        state = _QueryState(
            query_id=query_id,
            snapshot=self._store.snapshot(),
            created_at=self._clock.now(),
        )
        self._active[key] = state
        return state.snapshot

    def _purge_expired(self) -> None:
        now = self._clock.now()
        for key, state in list(self._active.items()):
            if state.state == "active" and \
                    now - state.created_at > state.query_id.timeout:
                del self._active[key]
                host = state.query_id.host
                self._expired[host] = max(
                    self._expired.get(host, float("-inf")),
                    state.query_id.timestamp)

    def active_count(self) -> int:
        self._purge_expired()
        return len(self._active)

    # -- deferred updates ------------------------------------------------------

    def defer_updates(self, query_id: QueryID, pul: PendingUpdateList) -> None:
        """Rule R'_Fu: accumulate Δ^px_q(i) into the per-query union."""
        state = self._state(query_id)
        state.pul.merge(pul)

    def _state(self, query_id: QueryID) -> _QueryState:
        key = query_id.key
        if key not in self._active:
            raise IsolationError(
                f"no active isolation state for queryID {key}")
        return self._active[key]

    # -- 2PC participant operations ---------------------------------------------

    def prepare(self, query_id: QueryID) -> None:
        """Enter prepared state: detect conflicts and log the PUL.

        Raises
        ------
        TransactionError
            On a write-write conflict with a transaction that committed
            since this query's snapshot was taken.
        """
        state = self._state(query_id)
        if state.state == "prepared":
            return  # idempotent
        touched = updated_uris(state.pul)
        conflicts = state.snapshot.has_conflicts(touched)
        if conflicts:
            state.state = "aborted"
            self._decisions[query_id.key] = "aborted"
            del self._active[query_id.key]
            raise TransactionError(
                f"prepare failed: conflicting commits on {conflicts}")
        self.log.log("prepare", query_id.key)
        state.state = "prepared"

    def commit(self, query_id: QueryID) -> None:
        """applyUpdates(Δ^px_q) and install the new database state."""
        key = query_id.key
        if key not in self._active:
            decision = self._decisions.get(key)
            if decision == "committed":
                return  # decision replay: already applied, re-acknowledge
            if decision == "aborted":
                raise TransactionError(
                    f"queryID {key} was already rolled back")
            raise IsolationError(
                f"no active isolation state for queryID {key}")
        state = self._active[key]
        if state.state not in ("active", "prepared"):
            raise TransactionError(
                f"cannot commit from state {state.state!r}")
        touched = updated_uris(state.pul)
        apply_updates(state.pul)
        state.snapshot.commit_into_store(touched)
        state.state = "committed"
        self.log.log("commit", key)
        self._decisions[key] = "committed"
        del self._active[key]

    def rollback(self, query_id: QueryID) -> None:
        key = query_id.key
        if key in self._active:
            self._active[key].state = "aborted"
            self.log.log("rollback", key)
            self._decisions[key] = "aborted"
            del self._active[key]
        elif self._decisions.get(key) == "committed":
            raise TransactionError(
                f"queryID {key} was already committed")
        elif key not in self._decisions:
            # Abort of a never-seen (or expired) queryID: record the
            # decision so a later replayed commit is refused.
            self._decisions[key] = "aborted"

