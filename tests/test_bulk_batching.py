"""Bulk RPC from the loop-lifted plan: its hard cases, message by message.

A query with ``execute at`` sites runs as one lifted plan whatever its
site count: each site ships one message per (destination, function)
group of its live iterations, and the sibling sites of one sequence
share their groups.  A call whose argument is another call's answer
ships after that answer arrives, so nothing ships with an argument the
query never computes — these are the shapes where batching could break
semantics, each pinned to its exact message and call counts.
"""

import pytest

from repro.net import SimulatedNetwork
from repro.rpc import XRPCPeer
from tests.helpers import values

CHAIN_MODULE = """
module namespace c = "urn:chain";
declare function c:step1() as xs:string { "alpha" };
declare function c:step2($token as xs:string) as xs:string
{ concat($token, "-beta") };
declare function c:whoami() as xs:string
{ string(doc("self.xml")/self) };
declare function c:tag($v as xs:string) as xs:string
{ concat("tag-", $v) };
"""


@pytest.fixture
def site():
    network = SimulatedNetwork()
    origin = XRPCPeer("origin", network)
    served = XRPCPeer("served", network)
    for peer in (origin, served):
        peer.registry.register_source(CHAIN_MODULE, location="c.xq")
    served.store.register("self.xml", "<self>served</self>")
    return network, origin, served


def shipped(result):
    return result.plan, result.messages_sent, result.calls_shipped


class TestDependentCalls:
    def test_second_call_depends_on_first(self, site):
        """step2's argument is step1's answer: it ships once that
        answer is in, so two messages carry the query's two calls."""
        network, origin, served = site
        query = """
        import module namespace c = "urn:chain" at "c.xq";
        let $token := execute at {"xrpc://served"} { c:step1() }
        return execute at {"xrpc://served"} { c:step2($token) }
        """
        result = origin.execute_query(query)
        assert values(result.sequence) == ["alpha-beta"]
        assert shipped(result) == ("lifted", 2, 2)

    def test_dependent_chain_in_loop(self, site):
        network, origin, served = site
        query = """
        import module namespace c = "urn:chain" at "c.xq";
        for $i in (1, 2)
        let $token := execute at {"xrpc://served"} { c:step1() }
        return execute at {"xrpc://served"} { c:step2($token) }
        """
        result = origin.execute_query(query)
        assert values(result.sequence) == ["alpha-beta", "alpha-beta"]
        # One bulk message per site, both iterations in each.
        assert shipped(result) == ("lifted", 2, 4)

    def test_result_used_in_control_flow(self, site):
        network, origin, served = site
        query = """
        import module namespace c = "urn:chain" at "c.xq";
        if (execute at {"xrpc://served"} { c:step1() } = "alpha")
        then execute at {"xrpc://served"} { c:step2("yes") }
        else "never"
        """
        result = origin.execute_query(query)
        assert values(result.sequence) == ["yes-beta"]
        assert shipped(result) == ("lifted", 2, 2)

    def test_cardinality_check_on_a_remote_answer(self, site):
        """exactly-one() sees the real answer: the call ships once."""
        network, origin, served = site
        query = """
        import module namespace c = "urn:chain" at "c.xq";
        exactly-one(execute at {"xrpc://served"} { c:step1() })
        """
        result = origin.execute_query(query)
        assert values(result.sequence) == ["alpha"]
        assert shipped(result) == ("lifted", 1, 1)


class TestBulkWithUpdates:
    UPDATE_MODULE = """
    module namespace u = "urn:u";
    declare updating function u:append($v as xs:string)
    { insert node <e>{$v}</e> into doc("log.xml")/log };
    declare function u:size() as xs:integer
    { count(doc("log.xml")/log/e) };
    """

    @pytest.fixture
    def logged(self):
        network = SimulatedNetwork()
        origin = XRPCPeer("origin", network)
        served = XRPCPeer("served", network)
        for peer in (origin, served):
            peer.registry.register_source(self.UPDATE_MODULE, location="u.xq")
        served.store.register("log.xml", "<log/>")
        return origin, served

    def test_bulk_updating_calls_apply_once(self, logged):
        """One updating bulk message, shipped once: each update lands
        exactly once."""
        origin, served = logged
        query = """
        import module namespace u = "urn:u" at "u.xq";
        for $v in ("a", "b", "c")
        return execute at {"xrpc://served"} { u:append($v) }
        """
        result = origin.execute_query(query)
        assert shipped(result) == ("lifted", 1, 3)
        entries = served.store.get("log.xml").root_element.children
        assert [e.string_value() for e in entries] == ["a", "b", "c"]

    def test_read_after_update_sees_rfu_semantics(self, logged):
        """Without isolation (rule R_Fu) updates apply per-request, so a
        later read in the same query observes them — one call at a time,
        since the lifted plan ships sibling sites together."""
        origin, served = logged
        query = """
        import module namespace u = "urn:u" at "u.xq";
        ( execute at {"xrpc://served"} { u:append("x") },
          execute at {"xrpc://served"} { u:size() } )
        """
        result = origin.execute_query(query, force_one_at_a_time=True)
        assert values(result.sequence) == [1]
        assert shipped(result) == ("interpreter", 2, 2)


class TestGroupingBoundaries:
    def test_different_functions_different_messages(self, site):
        network, origin, served = site
        query = """
        import module namespace c = "urn:chain" at "c.xq";
        ( execute at {"xrpc://served"} { c:step1() },
          execute at {"xrpc://served"} { c:whoami() } )
        """
        result = origin.execute_query(query)
        assert values(result.sequence) == ["alpha", "served"]
        # Bulk groups by (destination, function): two groups here.
        assert shipped(result) == ("lifted", 2, 2)

    def test_same_function_same_args_multiple_iterations(self, site):
        network, origin, served = site
        query = """
        import module namespace c = "urn:chain" at "c.xq";
        for $i in (1 to 4)
        return execute at {"xrpc://served"} { c:step1() }
        """
        result = origin.execute_query(query)
        assert values(result.sequence) == ["alpha"] * 4
        assert shipped(result) == ("lifted", 1, 4)

    def test_duplicate_argument_lists_answer_in_order(self, site):
        """Calls with identical arguments are separate calls of one bulk
        message, answered by position."""
        network, origin, served = site
        query = """
        import module namespace c = "urn:chain" at "c.xq";
        for $v in ("a", "a", "b", "a")
        return execute at {"xrpc://served"} { c:tag($v) }
        """
        result = origin.execute_query(query)
        assert values(result.sequence) == \
            ["tag-a", "tag-a", "tag-b", "tag-a"]
        # All four calls (duplicates included) ride one bulk message.
        assert shipped(result) == ("lifted", 1, 4)

    def test_duplicate_args_mixed_with_dependent_call(self, site):
        """step1 ships first; then the three sibling sites ship together
        as two groups — tag (both calls) and step2."""
        network, origin, served = site
        query = """
        import module namespace c = "urn:chain" at "c.xq";
        let $token := execute at {"xrpc://served"} { c:step1() }
        return (
          execute at {"xrpc://served"} { c:tag("x") },
          execute at {"xrpc://served"} { c:tag("x") },
          execute at {"xrpc://served"} { c:step2($token) }
        )
        """
        result = origin.execute_query(query)
        assert values(result.sequence) == ["tag-x", "tag-x", "alpha-beta"]
        assert shipped(result) == ("lifted", 3, 4)

    def test_nested_loop_beside_a_sibling_site(self, site):
        """Only sibling ``execute at`` items group: a site inside a
        sibling for-loop ships its own message."""
        network, origin, served = site
        query = """
        import module namespace c = "urn:chain" at "c.xq";
        ( for $i in (1, 2)
          return execute at {"xrpc://served"} { c:tag(string($i)) },
          execute at {"xrpc://served"} { c:tag("z") } )
        """
        result = origin.execute_query(query)
        assert values(result.sequence) == ["tag-1", "tag-2", "tag-z"]
        assert shipped(result) == ("lifted", 2, 3)

    def test_empty_loop_sends_nothing(self, site):
        network, origin, served = site
        network.reset_stats()
        query = """
        import module namespace c = "urn:chain" at "c.xq";
        for $i in () return execute at {"xrpc://served"} { c:step1() }
        """
        result = origin.execute_query(query)
        assert result.sequence == []
        assert shipped(result) == ("lifted", 0, 0)
        assert network.messages_sent == 0
