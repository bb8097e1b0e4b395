"""Isolation levels and distributed update (2PC) tests — section 2.2/2.3."""

import pytest

from repro.errors import IsolationError, TransactionError
from repro.net import SimulatedNetwork
from repro.rpc import TransactionCoordinator, XRPCPeer
from repro.rpc.isolation import IsolationManager
from repro.rpc.store import DocumentStore
from repro.soap.messages import Arguments, QueryID
from tests.helpers import values

COUNTER_MODULE = """
module namespace c = "urn:counter";
declare function c:read() as xs:string
{ string(doc("counter.xml")/counter) };
declare updating function c:bump($v as xs:string)
{ replace value of node doc("counter.xml")/counter with $v };
"""


def make_peers(network, n=2):
    peers = []
    for index in range(n):
        peer = XRPCPeer(f"p{index}", network)
        peer.registry.register_source(COUNTER_MODULE, location="c.xq")
        peer.store.register("counter.xml", "<counter>0</counter>")
        peers.append(peer)
    return peers


class TestRepeatableRead:
    def test_same_snapshot_across_calls(self):
        """Two calls in one repeatable query see the same state even if
        another transaction commits in between."""
        network = SimulatedNetwork()
        p0, p1 = make_peers(network)

        # Interleave: after the first call of the isolated query, p1's
        # document is changed by a direct (non-isolated) update.
        original_handle = p1.server.handle
        seen = {"count": 0}

        def interfering_handle(payload):
            response = original_handle(payload)
            seen["count"] += 1
            if seen["count"] == 1:
                # Simulate another transaction committing at p1.
                p1.store.register("counter.xml", "<counter>99</counter>")
            return response

        network.register_peer("p1", interfering_handle)

        query = """
        import module namespace c = "urn:counter" at "c.xq";
        declare option xrpc:isolation "repeatable";
        ( execute at {"xrpc://p1"} { c:read() },
          execute at {"xrpc://p1"} { c:read() } )
        """
        result = p0.execute_query(query, force_one_at_a_time=True)
        assert values(result.sequence) == ["0", "0"]

    def test_without_isolation_sees_interleaved_state(self):
        network = SimulatedNetwork()
        p0, p1 = make_peers(network)
        original_handle = p1.server.handle
        seen = {"count": 0}

        def interfering_handle(payload):
            response = original_handle(payload)
            seen["count"] += 1
            if seen["count"] == 1:
                p1.store.register("counter.xml", "<counter>99</counter>")
            return response

        network.register_peer("p1", interfering_handle)
        query = """
        import module namespace c = "urn:counter" at "c.xq";
        ( execute at {"xrpc://p1"} { c:read() },
          execute at {"xrpc://p1"} { c:read() } )
        """
        result = p0.execute_query(query, force_one_at_a_time=True)
        assert values(result.sequence) == ["0", "99"]

    def test_snapshot_expiry_rejects_late_requests(self):
        network = SimulatedNetwork()
        store = DocumentStore()
        store.register("d.xml", "<d/>")
        manager = IsolationManager(store, network.clock)
        query_id = QueryID(host="p0", timestamp=1.0, timeout=10)
        manager.acquire(query_id)
        assert manager.active_count() == 1
        network.clock.advance(11)
        with pytest.raises(IsolationError):
            manager.acquire(query_id)
        assert manager.active_count() == 0

    def test_expired_host_administration_keeps_latest_only(self):
        network = SimulatedNetwork()
        store = DocumentStore()
        manager = IsolationManager(store, network.clock)
        for ts in (1.0, 2.0, 3.0):
            manager.acquire(QueryID(host="p0", timestamp=ts, timeout=1))
            network.clock.advance(2)
        # All three expired; a new queryID with an *older* timestamp than
        # the latest expired one must be rejected.
        with pytest.raises(IsolationError):
            manager.acquire(QueryID(host="p0", timestamp=2.5, timeout=1))
        # Fresh timestamps are accepted.
        manager.acquire(QueryID(host="p0", timestamp=100.0, timeout=1))


class TestUpdatesRuleRFu:
    """Rule R_Fu: without isolation, updates apply immediately per call."""

    def test_immediate_apply(self):
        network = SimulatedNetwork()
        p0, p1 = make_peers(network)
        query = """
        import module namespace c = "urn:counter" at "c.xq";
        execute at {"xrpc://p1"} { c:bump("5") }
        """
        result = p0.execute_query(query)
        assert result.sequence == []
        assert p1.store.get("counter.xml").string_value() == "5"

    def test_lost_update_possible_without_isolation(self):
        # Two updating calls in one query, second overwrites first: the
        # paper notes rule R_Fu even allows lost updates.
        network = SimulatedNetwork()
        p0, p1 = make_peers(network)
        query = """
        import module namespace c = "urn:counter" at "c.xq";
        ( execute at {"xrpc://p1"} { c:bump("1") },
          execute at {"xrpc://p1"} { c:bump("2") } )
        """
        p0.execute_query(query, force_one_at_a_time=True)
        assert p1.store.get("counter.xml").string_value() == "2"


class TestUpdatesRulePrimeFu:
    """Rule R'_Fu: with isolation, updates defer to 2PC commit."""

    def test_updates_deferred_then_committed(self):
        network = SimulatedNetwork()
        p0, p1 = make_peers(network)
        query = """
        import module namespace c = "urn:counter" at "c.xq";
        declare option xrpc:isolation "repeatable";
        execute at {"xrpc://p1"} { c:bump("7") }
        """
        result = p0.execute_query(query)
        assert result.committed_2pc
        assert p1.store.get("counter.xml").string_value() == "7"
        # 2PC journal shows prepare before commit.
        actions = [action for action, _ in p1.isolation.log.records]
        assert actions == ["prepare", "commit"]

    def test_multi_peer_atomic_commit(self):
        network = SimulatedNetwork()
        p0, p1, p2 = make_peers(network, n=3)
        query = """
        import module namespace c = "urn:counter" at "c.xq";
        declare option xrpc:isolation "repeatable";
        ( execute at {"xrpc://p1"} { c:bump("1") },
          execute at {"xrpc://p2"} { c:bump("2") } )
        """
        result = p0.execute_query(query)
        assert result.committed_2pc
        # Two calls, then prepare + commit per participant.
        assert result.messages_sent == 2 + 2 * 2
        assert p1.store.get("counter.xml").string_value() == "1"
        assert p2.store.get("counter.xml").string_value() == "2"

    def test_conflict_aborts_whole_transaction(self):
        network = SimulatedNetwork()
        p0, p1, p2 = make_peers(network, n=3)

        # A competing commit lands at p2 between snapshot and prepare.
        original_handle = p2.server.handle

        def interfering_handle(payload):
            response = original_handle(payload)
            if "request" in payload and "bump" in payload:
                p2.store.register("counter.xml", "<counter>x</counter>")
            return response

        network.register_peer("p2", interfering_handle)

        query = """
        import module namespace c = "urn:counter" at "c.xq";
        declare option xrpc:isolation "repeatable";
        ( execute at {"xrpc://p1"} { c:bump("1") },
          execute at {"xrpc://p2"} { c:bump("2") } )
        """
        with pytest.raises(TransactionError):
            p0.execute_query(query)
        # Atomicity: p1 must NOT have applied its update either.
        assert p1.store.get("counter.xml").string_value() == "0"

    def test_updates_invisible_before_commit(self):
        network = SimulatedNetwork()
        p0, p1 = make_peers(network)
        # Server-side check: defer_updates holds the PUL, store unchanged.
        query = """
        import module namespace c = "urn:counter" at "c.xq";
        declare option xrpc:isolation "repeatable";
        ( execute at {"xrpc://p1"} { c:bump("9") },
          execute at {"xrpc://p1"} { c:read() } )
        """
        result = p0.execute_query(query, force_one_at_a_time=True)
        # The read inside the same query sees the snapshot (pre-update).
        assert values(result.sequence) == ["0"]
        # After commit the update is in.
        assert p1.store.get("counter.xml").string_value() == "9"


class TestCoordinator:
    def _txn_peer(self, network, name):
        peer = XRPCPeer(name, network)
        peer.registry.register_source(COUNTER_MODULE, location="c.xq")
        peer.store.register("counter.xml", "<counter>0</counter>")
        return peer

    def test_explicit_coordinator_flow(self):
        network = SimulatedNetwork()
        p0 = self._txn_peer(network, "p0")
        p1 = self._txn_peer(network, "p1")
        query_id = QueryID(host="p0", timestamp=network.clock.now(), timeout=60)

        # Manually drive one updating call with isolation.
        from repro.rpc.client import ClientSession
        from repro.xdm.atomic import string as make_string
        session = ClientSession(network, origin="p0", query_id=query_id)
        session.call("p1", "urn:counter", "c.xq", "bump", 1,
                     Arguments.of([[[make_string("4")]]]), updating=True)

        coordinator = TransactionCoordinator(session)
        for participant in session.participants:
            coordinator.register(participant)
        outcome = coordinator.run()
        assert outcome.committed
        assert coordinator.state == "committed"
        assert p1.store.get("counter.xml").string_value() == "4"

    def test_prepare_is_idempotent(self):
        network = SimulatedNetwork()
        p0 = self._txn_peer(network, "p0")
        p1 = self._txn_peer(network, "p1")
        query_id = QueryID(host="p0", timestamp=0.0, timeout=60)
        from repro.rpc.client import ClientSession
        from repro.xdm.atomic import string as make_string
        session = ClientSession(network, origin="p0", query_id=query_id)
        session.call("p1", "urn:counter", "c.xq", "bump", 1,
                     Arguments.of([[[make_string("4")]]]), updating=True)
        coordinator = TransactionCoordinator(session)
        coordinator.register("p1")
        assert coordinator.prepare().votes == {"p1": True}
        # Second prepare on the participant: still fine (idempotent).
        assert p1.isolation._state(query_id).state == "prepared"

    def test_commit_without_prepare_rejected(self):
        network = SimulatedNetwork()
        query_id = QueryID(host="p0", timestamp=0.0, timeout=60)
        from repro.rpc.client import ClientSession
        coordinator = TransactionCoordinator(
            ClientSession(network, origin="p0", query_id=query_id))
        with pytest.raises(TransactionError):
            coordinator.commit()

    def test_rollback_discards_updates(self):
        network = SimulatedNetwork()
        p0 = self._txn_peer(network, "p0")
        p1 = self._txn_peer(network, "p1")
        query_id = QueryID(host="p0", timestamp=0.0, timeout=60)
        from repro.rpc.client import ClientSession
        from repro.xdm.atomic import string as make_string
        session = ClientSession(network, origin="p0", query_id=query_id)
        session.call("p1", "urn:counter", "c.xq", "bump", 1,
                     Arguments.of([[[make_string("4")]]]), updating=True)
        coordinator = TransactionCoordinator(session)
        coordinator.register("p1")
        coordinator.rollback()
        assert p1.store.get("counter.xml").string_value() == "0"
