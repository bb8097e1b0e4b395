"""2PC abort/recovery paths under transport failures (satellite of the
fault-tolerance PR): participant timeout during prepare, coordinator
crash between prepare and commit, and decision replay on reconnect."""

import pytest

from repro.errors import TransactionError
from repro.net import SimulatedNetwork
from repro.net.faults import FaultInjectingTransport, FaultPlan
from repro.rpc import TransactionCoordinator, XRPCPeer
from repro.rpc.client import ClientSession
from repro.rpc.isolation import IsolationManager
from repro.rpc.store import DocumentStore
from repro.soap.messages import QueryID
from repro.xdm.atomic import string as make_string

COUNTER_MODULE = """
module namespace c = "urn:counter";
declare function c:read() as xs:string
{ string(doc("counter.xml")/counter) };
declare updating function c:bump($v as xs:string)
{ replace value of node doc("counter.xml")/counter with $v };
"""


def txn_peer(network, name):
    peer = XRPCPeer(name, network)
    peer.registry.register_source(COUNTER_MODULE, location="c.xq")
    peer.store.register("counter.xml", "<counter>0</counter>")
    return peer


def counter(peer) -> str:
    return peer.store.get("counter.xml").string_value()


def journal(peer) -> list[str]:
    return [action for action, _ in peer.isolation.log.records]


def start_updates(network, participants, value="4"):
    """Drive isolated updating calls so each participant holds a
    deferred PUL awaiting 2PC, exactly like the inline peer flow."""
    query_id = QueryID(host="p0", timestamp=network.clock.now(), timeout=60)
    session = ClientSession(network, origin="p0", query_id=query_id)
    for participant in participants:
        session.call(participant, "urn:counter", "c.xq", "bump", 1,
                     [[[make_string(value)]]], updating=True)
    return query_id, session


def txn_session(transport, query_id):
    """The coordinator's way to the wire: a session for the queryID."""
    return ClientSession(transport, origin="p0", query_id=query_id)


def blackholed(network, *destinations):
    return FaultInjectingTransport(
        network, FaultPlan(blackhole=frozenset(destinations)))


class TestPrepareFailures:
    def test_participant_timeout_during_prepare_aborts_everyone(self):
        network = SimulatedNetwork()
        txn_peer(network, "p0")
        p1 = txn_peer(network, "p1")
        p2 = txn_peer(network, "p2")
        query_id, _ = start_updates(network, ["p1", "p2"])

        # p2 stops answering before phase 1.
        coordinator = TransactionCoordinator(
            txn_session(blackholed(network, "p2"), query_id))
        coordinator.register("p1")
        coordinator.register("p2")
        outcome = coordinator.run()

        assert not outcome.committed
        assert outcome.votes == {"p1": True, "p2": False}
        assert "unreachable" in outcome.detail
        assert coordinator.state == "aborted"
        # No partial application anywhere: p1 was prepared, then rolled
        # back when p2's vote never arrived (presumed abort).
        assert counter(p1) == "0"
        assert counter(p2) == "0"
        assert journal(p1) == ["prepare", "rollback"]

    def test_unreachable_sole_participant_aborts_cleanly(self):
        network = SimulatedNetwork()
        txn_peer(network, "p0")
        p1 = txn_peer(network, "p1")
        query_id, _ = start_updates(network, ["p1"])
        coordinator = TransactionCoordinator(
            txn_session(blackholed(network, "p1"), query_id))
        coordinator.register("p1")
        outcome = coordinator.run()
        assert not outcome.committed
        assert coordinator.state == "aborted"
        assert counter(p1) == "0"


class TestCoordinatorCrashRecovery:
    def test_crash_between_prepare_and_commit_applies_exactly_once(self):
        network = SimulatedNetwork()
        txn_peer(network, "p0")
        p1 = txn_peer(network, "p1")
        query_id, _ = start_updates(network, ["p1"])

        first = TransactionCoordinator(txn_session(network, query_id))
        first.register("p1")
        assert first.prepare().votes == {"p1": True}
        assert first.state == "prepared"
        del first  # coordinator crashes holding the prepared mark

        resumed = TransactionCoordinator.resume(
            txn_session(network, query_id), ["p1"])
        outcome = resumed.commit()
        assert outcome.committed
        assert resumed.state == "committed"
        assert counter(p1) == "4"
        assert journal(p1) == ["prepare", "commit"]

    def test_commit_replay_is_idempotent(self):
        network = SimulatedNetwork()
        txn_peer(network, "p0")
        p1 = txn_peer(network, "p1")
        query_id, _ = start_updates(network, ["p1"])
        coordinator = TransactionCoordinator(txn_session(network, query_id))
        coordinator.register("p1")
        assert coordinator.run().committed

        # The commit decision arrives again (the ack was lost): the
        # participant re-acknowledges from its decision log without
        # applying anything a second time.
        replay = TransactionCoordinator.resume(
            txn_session(network, query_id), ["p1"])
        outcome = replay.commit()
        assert outcome.committed
        assert counter(p1) == "4"
        assert journal(p1) == ["prepare", "commit"]  # no second apply

    def test_unreachable_at_commit_stays_prepared_then_replays(self):
        network = SimulatedNetwork()
        txn_peer(network, "p0")
        p1 = txn_peer(network, "p1")
        p2 = txn_peer(network, "p2")
        query_id, _ = start_updates(network, ["p1", "p2"])
        prepare_side = TransactionCoordinator(txn_session(network, query_id))
        prepare_side.register("p1")
        prepare_side.register("p2")
        assert prepare_side.prepare().votes == {"p1": True, "p2": True}

        # The decision is COMMIT; p2 is unreachable when it lands.
        deciding = TransactionCoordinator.resume(
            txn_session(blackholed(network, "p2"), query_id), ["p1", "p2"])
        outcome = deciding.commit()
        assert not outcome.committed
        assert outcome.votes == {"p1": True, "p2": False}
        assert deciding.state == "prepared"  # decision stands, not aborted
        assert counter(p1) == "4"
        assert counter(p2) == "0"

        # Reconnect: replaying the decision completes the transaction
        # and p1 (already committed) answers from its decision log.
        recovered = TransactionCoordinator.resume(
            txn_session(network, query_id), ["p1", "p2"])
        outcome = recovered.commit()
        assert outcome.committed
        assert recovered.state == "committed"
        assert counter(p1) == "4"
        assert counter(p2) == "4"
        assert journal(p1) == ["prepare", "commit"]
        assert journal(p2) == ["prepare", "commit"]


class TestDecisionLog:
    def test_rollback_after_commit_is_refused(self):
        network = SimulatedNetwork()
        txn_peer(network, "p0")
        txn_peer(network, "p1")
        query_id, session = start_updates(network, ["p1"])
        coordinator = TransactionCoordinator(txn_session(network, query_id))
        coordinator.register("p1")
        assert coordinator.run().committed

        reply = session.send_txn_command("p1", "rollback")
        assert not reply.ok
        assert "already committed" in reply.detail

    def test_commit_after_rollback_is_refused(self):
        network = SimulatedNetwork()
        txn_peer(network, "p0")
        p1 = txn_peer(network, "p1")
        query_id, session = start_updates(network, ["p1"])
        coordinator = TransactionCoordinator(txn_session(network, query_id))
        coordinator.register("p1")
        coordinator.rollback()

        reply = session.send_txn_command("p1", "commit")
        assert not reply.ok
        assert "rolled back" in reply.detail
        assert counter(p1) == "0"

    def test_rollback_of_unknown_query_poisons_later_commit(self):
        # Presumed abort at the manager level: an abort for a queryID
        # this participant never saw must still be recorded, so a
        # delayed commit replayed afterwards is refused.
        clock = SimulatedNetwork().clock
        manager = IsolationManager(DocumentStore(), clock)
        query_id = QueryID(host="p0", timestamp=1.0, timeout=60)
        manager.rollback(query_id)  # never acquired here
        with pytest.raises(TransactionError):
            manager.commit(query_id)


class _DeafToCommit(FaultInjectingTransport):
    """A network on which *destination* stops answering exactly when
    the commit decision is delivered (calls and prepare get through);
    ``heal()`` reconnects it."""

    def __init__(self, inner, destination):
        super().__init__(inner, FaultPlan())
        self.destination = destination

    def exchange(self, spec):
        if self.destination is not None and "<xrpc:commit " in spec.payload \
                and spec.destination.endswith(self.destination):
            self.plan = FaultPlan(blackhole=frozenset({self.destination}))
        return super().exchange(spec)

    def heal(self):
        self.destination = None
        self.plan = FaultPlan()


class TestOriginatorCommit:
    """`XRPCPeer.execute_query` drives 2PC through the coordinator."""

    QUERY = """
    import module namespace c = "urn:counter" at "c.xq";
    declare option xrpc:isolation "repeatable";
    ( execute at {"xrpc://p1"} { c:bump("1") },
      execute at {"xrpc://p2"} { c:bump("2") },
      execute at {"xrpc://p3"} { c:bump("3") } )
    """

    def test_commit_reaches_every_reachable_participant(self):
        network = _DeafToCommit(SimulatedNetwork(), "p2")
        p0 = txn_peer(network, "p0")
        p1, p2, p3 = (txn_peer(network, name) for name in ("p1", "p2", "p3"))

        with pytest.raises(TransactionError, match="p2 unreachable at commit"):
            p0.execute_query(self.QUERY)

        # The decision was COMMIT: the participant listed *after* the
        # unreachable one received it too, and nobody was rolled back.
        assert [counter(peer) for peer in (p1, p2, p3)] == ["1", "0", "3"]
        assert journal(p1) == journal(p3) == ["prepare", "commit"]
        assert journal(p2) == ["prepare"]  # prepared, awaiting the replay

        # Reconnect: replaying the decision from the coordinator's
        # record completes p2 exactly once; p1 and p3 re-acknowledge
        # from their decision logs.
        network.heal()
        [(_, (host, timestamp))] = p2.isolation.log.records
        query_id = QueryID(host=host, timestamp=timestamp, timeout=60)
        replay = TransactionCoordinator.resume(
            txn_session(network, query_id), ["p1", "p2", "p3"])
        assert replay.commit().committed
        assert replay.state == "committed"
        assert [counter(peer) for peer in (p1, p2, p3)] == ["1", "2", "3"]
        for peer in (p1, p2, p3):
            assert journal(peer) == ["prepare", "commit"]
