"""WS-Coordination / WS-AtomicTransaction style coordinator.

The paper deliberately keeps 2PC out of the XRPC protocol proper and
relies on the WS-AtomicTransaction industry standard.  This module
provides the coordinator object in that architecture: peers are
*registered* for a transaction (the originating peer knows them all via
the participating-peer piggyback), then the coordinator drives
Prepare/Commit — or Rollback on any 'no' vote.

:meth:`XRPCPeer.execute_query <repro.rpc.peer.XRPCPeer.execute_query>`
registers its session's participants here and raises from the outcome;
tests drive the same object step by step through the failure paths
(participant votes no, crash between the phases, decision replay).
Commands go out through ``ClientSession.send_txn_command``, so the
session's resilient channel, exchange ids and deadline apply to them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import TransactionError, TransportError
from repro.rpc.client import ClientSession


@dataclass
class TransactionOutcome:
    committed: bool
    votes: dict[str, bool] = field(default_factory=dict)
    detail: str = ""


class TransactionCoordinator:
    """Drives 2PC for one distributed transaction (one queryID)."""

    def __init__(self, session: ClientSession) -> None:
        self.session = session
        self.participants: list[str] = []
        self.state = "active"  # active | prepared | committed | aborted

    @classmethod
    def resume(cls, session: ClientSession,
               participants: list[str]) -> "TransactionCoordinator":
        """Rebuild a coordinator from its durable record after a crash.

        A real implementation reads the queryID, the participant list
        and the prepared mark from the coordinator's stable log; tests
        hand them in directly (the queryID on *session*).  The resumed
        coordinator starts ``prepared``, so the only legal moves are
        replaying the decision: ``commit`` or ``rollback`` — both
        answered idempotently by participants' decision logs.
        """
        coordinator = cls(session)
        coordinator.participants = list(participants)
        coordinator.state = "prepared"
        return coordinator

    def register(self, participant: str) -> None:
        """WS-Coordination registration of a participating peer."""
        if self.state != "active":
            raise TransactionError(
                f"cannot register participants in state {self.state!r}")
        if participant not in self.participants:
            self.participants.append(participant)

    def prepare(self) -> TransactionOutcome:
        """Phase 1: collect votes; abort everyone on the first 'no'.

        An unreachable participant counts as a 'no' vote (presumed
        abort).  Everyone already prepared — and a reachable no-voter,
        whose refusal need not have ended its own state — is rolled
        back best-effort; an unreachable one is not dialled again.
        """
        outcome = TransactionOutcome(committed=False)
        reached: list[str] = []
        for participant in self.participants:
            try:
                vote = self.session.send_txn_command(participant, "prepare")
            except TransportError as exc:
                refusal = (f"participant {participant} unreachable at "
                           f"prepare: {exc}")
            else:
                reached.append(participant)
                refusal = None if vote.ok else (
                    f"participant {participant} voted no at prepare: "
                    f"{vote.detail}")
            outcome.votes[participant] = refusal is None
            if refusal is not None:
                outcome.detail = refusal
                for peer in reached:
                    self._try_rollback(peer)
                self.state = "aborted"
                return outcome
        self.state = "prepared"
        return outcome

    def commit(self) -> TransactionOutcome:
        """Phase 2: commit everyone (requires a successful prepare).

        Once prepared, commit is the decision: an unreachable
        participant leaves the coordinator ``prepared`` so the decision
        can be replayed on reconnect (participants answer replays from
        their decision logs).
        """
        if self.state != "prepared":
            raise TransactionError(
                f"commit requires prepared state, not {self.state!r}")
        outcome = TransactionOutcome(committed=True)
        unreachable = False
        for participant in self.participants:
            try:
                ack = self.session.send_txn_command(participant, "commit")
            except TransportError as exc:
                unreachable = True
                outcome.votes[participant] = False
                outcome.committed = False
                outcome.detail = (
                    f"participant {participant} unreachable at commit "
                    f"(decision logged; replay the commit on reconnect): "
                    f"{exc}")
                continue
            outcome.votes[participant] = ack.ok
            if not ack.ok:
                outcome.committed = False
                outcome.detail = (f"participant {participant} failed at "
                                  f"commit: {ack.detail}")
        if outcome.committed:
            self.state = "committed"
        elif unreachable:
            self.state = "prepared"  # decision stands: replay later
        else:
            self.state = "aborted"
        return outcome

    def rollback(self) -> None:
        for participant in self.participants:
            self._try_rollback(participant)
        self.state = "aborted"

    def _try_rollback(self, participant: str) -> None:
        """Best-effort abort; an unreachable peer expires on its own."""
        try:
            self.session.send_txn_command(participant, "rollback")
        except TransportError:
            pass

    def run(self) -> TransactionOutcome:
        """Full 2PC: prepare then commit, rollback on any 'no' vote."""
        outcome = self.prepare()
        if self.state != "prepared":
            return outcome
        return self.commit()
