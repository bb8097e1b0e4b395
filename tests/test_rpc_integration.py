"""End-to-end distributed XRPC tests over the simulated network.

Reproduces the paper's worked examples Q1, Q2, Q3 and Q6, plus the
protocol-level behaviours: bulk RPC message counts, call-by-value
semantics across peers, fault propagation, and nested calls.
"""

import pytest

from repro.engine import Engine, TreeEngine
from repro.errors import XRPCFault
from repro.net import SimulatedNetwork
from repro.rpc import XRPCPeer
from tests.helpers import strings, values, xml

FILM_MODULE = """
module namespace film = "films";
declare function film:filmsByActor($actor as xs:string) as node()*
{ doc("filmDB.xml")//name[../actor = $actor] };
"""

FILM_MODULE_LOCATION = "http://x.example.org/film.xq"

FILMS_Y = """<films>
<film><name>The Rock</name><actor>Sean Connery</actor></film>
<film><name>Goldfinger</name><actor>Sean Connery</actor></film>
<film><name>Green Card</name><actor>Gerard Depardieu</actor></film>
</films>"""

FILMS_Z = """<films>
<film><name>Sound Of Music</name><actor>Julie Andrews</actor></film>
<film><name>The Untouchables</name><actor>Sean Connery</actor></film>
</films>"""


@pytest.fixture
def network():
    return SimulatedNetwork()


@pytest.fixture
def peers(network):
    """Three peers: p0 (origin), y and z (film servers)."""
    p0 = XRPCPeer("p0.example.org", network)
    y = XRPCPeer("y.example.org", network)
    z = XRPCPeer("z.example.org", network)
    for peer in (p0, y, z):
        peer.registry.register_source(FILM_MODULE,
                                      location=FILM_MODULE_LOCATION)
    y.store.register("filmDB.xml", FILMS_Y)
    z.store.register("filmDB.xml", FILMS_Z)
    return p0, y, z


QUERY_Q1 = f"""
import module namespace f="films" at "{FILM_MODULE_LOCATION}";
<films> {{
  execute at {{"xrpc://y.example.org"}}
  {{ f:filmsByActor("Sean Connery") }}
}} </films>
"""

QUERY_Q2 = f"""
import module namespace f="films" at "{FILM_MODULE_LOCATION}";
<films> {{
  for $actor in ("Julie Andrews", "Sean Connery")
  let $dst := "xrpc://y.example.org"
  return execute at {{$dst}} {{ f:filmsByActor($actor) }}
}} </films>
"""

QUERY_Q3 = f"""
import module namespace f="films" at "{FILM_MODULE_LOCATION}";
<films> {{
  for $actor in ("Julie Andrews", "Sean Connery")
  for $dst in ("xrpc://y.example.org", "xrpc://z.example.org")
  return execute at {{$dst}} {{ f:filmsByActor($actor) }}
}} </films>
"""


class TestPaperExamples:
    def test_q1_single_call(self, peers):
        p0, y, z = peers
        result = p0.execute_query(QUERY_Q1)
        assert xml(result.sequence) == \
            "<films><name>The Rock</name><name>Goldfinger</name></films>"

    def test_q2_loop_same_destination(self, peers):
        p0, y, z = peers
        result = p0.execute_query(QUERY_Q2)
        # Julie Andrews has no films on y; Sean Connery has two.
        assert xml(result.sequence) == \
            "<films><name>The Rock</name><name>Goldfinger</name></films>"

    def test_q2_bulk_uses_single_message(self, peers, network):
        p0, y, z = peers
        network.reset_stats()
        result = p0.execute_query(QUERY_Q2)
        assert result.used_bulk_rpc
        # Both loop iterations travel in ONE bulk request.
        assert result.messages_sent == 1
        assert result.calls_shipped == 2

    def test_q3_multiple_destinations(self, peers):
        p0, y, z = peers
        result = p0.execute_query(QUERY_Q3)
        # Order must follow the iteration order (y,z alternating actors),
        # regardless of out-of-order bulk processing.
        assert strings(result.sequence[0].children) == [
            "Sound Of Music",       # Julie Andrews @ z
            "The Rock", "Goldfinger",   # Sean Connery @ y
            "The Untouchables",     # Sean Connery @ z
        ]

    def test_q3_one_bulk_message_per_peer(self, peers):
        p0, y, z = peers
        result = p0.execute_query(QUERY_Q3)
        # Four iterations, two destinations -> exactly two messages.
        assert result.messages_sent == 2
        assert result.calls_shipped == 4

    def test_one_at_a_time_message_count(self, peers):
        p0, y, z = peers
        result = p0.execute_query(QUERY_Q3, force_one_at_a_time=True)
        assert result.messages_sent == 4
        assert not result.used_bulk_rpc
        assert strings(result.sequence[0].children) == [
            "Sound Of Music", "The Rock", "Goldfinger", "The Untouchables"]

    def test_q6_sequence_construction_order(self, peers):
        p0, y, z = peers
        query = f"""
        import module namespace f="films" at "{FILM_MODULE_LOCATION}";
        for $name in ("Julie", "Sean")
        let $connery := concat($name, " ", "Connery")
        let $andrews := concat($name, " ", "Andrews")
        return (
          execute at {{"xrpc://y.example.org"}} {{ f:filmsByActor($connery) }},
          execute at {{"xrpc://y.example.org"}} {{ f:filmsByActor($andrews) }} )
        """
        result = p0.execute_query(query)
        assert strings(result.sequence) == ["The Rock", "Goldfinger"]
        # Bulk groups by (destination, function): a single message.
        assert result.messages_sent == 1
        assert result.calls_shipped == 4


class TestCallByValue:
    def test_remote_results_are_fresh_fragments(self, peers):
        p0, y, z = peers
        query = f"""
        import module namespace f="films" at "{FILM_MODULE_LOCATION}";
        execute at {{"xrpc://y.example.org"}} {{ f:filmsByActor("Sean Connery") }}
        """
        result = p0.execute_query(query)
        for node in result.sequence:
            assert node.parent is None
            assert list(node.ancestors()) == []

    def test_node_parameter_shipped_by_value(self, network):
        module = """
        module namespace m = "urn:m";
        declare function m:parent-of($n as node()) as xs:string
        { if (empty($n/..)) then "no-parent" else "has-parent" };
        """
        p0 = XRPCPeer("a", network)
        p1 = XRPCPeer("b", network)
        for peer in (p0, p1):
            peer.registry.register_source(module, location="m.xq")
        query = """
        import module namespace m = "urn:m" at "m.xq";
        let $tree := <root><leaf/></root>
        return execute at {"xrpc://b"} { m:parent-of($tree/leaf) }
        """
        result = p0.execute_query(query)
        # At the caller $tree/leaf has a parent; by-value shipping
        # destroys the relationship at the remote side.
        assert values(result.sequence) == ["no-parent"]


class TestFaults:
    def test_missing_module_fault_propagates(self, network):
        p0 = XRPCPeer("a", network)
        p1 = XRPCPeer("b", network)
        p0.registry.register_source(FILM_MODULE, location=FILM_MODULE_LOCATION)
        # p1 does NOT have the films module.
        query = f"""
        import module namespace f="films" at "{FILM_MODULE_LOCATION}";
        execute at {{"xrpc://b"}} {{ f:filmsByActor("X") }}
        """
        with pytest.raises(XRPCFault) as info:
            p0.execute_query(query)
        assert "could not load module" in str(info.value)

    def test_unknown_peer_raises(self, peers):
        p0, y, z = peers
        query = f"""
        import module namespace f="films" at "{FILM_MODULE_LOCATION}";
        execute at {{"xrpc://nowhere.example.org"}} {{ f:filmsByActor("X") }}
        """
        from repro.errors import TransportError
        with pytest.raises(TransportError):
            p0.execute_query(query)

    def test_remote_runtime_error_becomes_fault(self, network):
        module = """
        module namespace m = "urn:m";
        declare function m:boom() { error('X0', 'kaboom') };
        """
        p0 = XRPCPeer("a", network)
        p1 = XRPCPeer("b", network)
        for peer in (p0, p1):
            peer.registry.register_source(module, location="m.xq")
        query = """
        import module namespace m = "urn:m" at "m.xq";
        execute at {"xrpc://b"} { m:boom() }
        """
        with pytest.raises(XRPCFault) as info:
            p0.execute_query(query)
        assert "kaboom" in str(info.value)


class TestNestedCalls:
    def test_two_hop_call(self, network):
        """p0 -> b -> c: nested XRPC calls (the call tree of section 2.2)."""
        module = """
        module namespace m = "urn:m";
        declare function m:leaf() as xs:string { "from-c" };
        declare function m:middle() as xs:string
        { concat("via-b:", execute at {"xrpc://c"} { m:leaf() }) };
        """
        a = XRPCPeer("a", network)
        b = XRPCPeer("b", network)
        c = XRPCPeer("c", network)
        for peer in (a, b, c):
            peer.registry.register_source(module, location="m.xq")
        query = """
        import module namespace m = "urn:m" at "m.xq";
        execute at {"xrpc://b"} { m:middle() }
        """
        result = a.execute_query(query)
        assert values(result.sequence) == ["via-b:from-c"]

    def test_nested_participants_piggybacked(self, network):
        module = """
        module namespace m = "urn:m";
        declare function m:leaf() as xs:string { "x" };
        declare function m:middle() as xs:string
        { execute at {"xrpc://c"} { m:leaf() } };
        """
        a = XRPCPeer("a", network)
        b = XRPCPeer("b", network)
        c = XRPCPeer("c", network)
        for peer in (a, b, c):
            peer.registry.register_source(module, location="m.xq")
        query = """
        import module namespace m = "urn:m" at "m.xq";
        execute at {"xrpc://b"} { m:middle() }
        """
        result = a.execute_query(query)
        # The origin learns about c even though it only called b.
        assert set(result.participants) == {"b", "c"}


class TestDataShipping:
    def test_remote_doc_fetch(self, network):
        a = XRPCPeer("a", network)
        b = XRPCPeer("b", network)
        b.store.register("data.xml", "<data><v>7</v></data>")
        result = a.execute_query("doc('xrpc://b/data.xml')//v")
        assert strings(result.sequence) == ["7"]

    def test_remote_doc_cached_per_query(self, network):
        a = XRPCPeer("a", network)
        b = XRPCPeer("b", network)
        b.store.register("data.xml", "<data><v>7</v></data>")
        network.reset_stats()
        query = "(count(doc('xrpc://b/data.xml')//v), count(doc('xrpc://b/data.xml')//v))"
        result = a.execute_query(query)
        assert values(result.sequence) == [1, 1]
        # Shipped once despite two doc() calls (per-session cache);
        # bulk phase1+phase3 must not double-ship either.
        assert network.messages_sent <= 2


class TestEngineProfiles:
    def test_tree_engine_never_bulks(self, network):
        p0 = XRPCPeer("a", network, engine=TreeEngine())
        p1 = XRPCPeer("b", network)
        for peer in (p0, p1):
            peer.registry.register_source(FILM_MODULE, location="f.xq")
        p1.store.register("filmDB.xml", FILMS_Y)
        query = """
        import module namespace f="films" at "f.xq";
        for $a in ("Sean Connery", "Gerard Depardieu")
        return execute at {"xrpc://b"} { f:filmsByActor($a) }
        """
        assert not TreeEngine.bulk_rpc and Engine.bulk_rpc
        result = p0.execute_query(query)
        assert not result.used_bulk_rpc
        assert result.messages_sent == 2

    def test_monet_function_cache_hits(self, network):
        # The default engine IS the MonetDB/XQuery profile; a profile is
        # a class and takes no options.
        with pytest.raises(TypeError):
            Engine(function_cache=True)
        p0 = XRPCPeer("a", network)
        p1 = XRPCPeer("b", network)
        assert type(p1.engine) is Engine and Engine.plan_cache_enabled
        for peer in (p0, p1):
            peer.registry.register_source(FILM_MODULE, location="f.xq")
        p1.store.register("filmDB.xml", FILMS_Y)
        key = ("films", "filmsByActor", 1)
        assert not p1.engine.function_cache_lookup(key)
        query = """
        import module namespace f="films" at "f.xq";
        execute at {"xrpc://b"} { f:filmsByActor("Sean Connery") }
        """
        p0.execute_query(query)
        assert p1.engine.function_cache_lookup(key)
        # The Saxon profile never remembers a translated plan.
        tree = TreeEngine()
        tree.function_cache_store(key)
        assert not tree.function_cache_lookup(key)
