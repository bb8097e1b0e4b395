"""The counter registry and the per-execution scope (``repro.obs``).

Attribution is by scope, not by thread: what an execution reports must
not depend on which thread happened to carry the work a remote peer
served for it.
"""

import sys
import threading
from contextlib import contextmanager
from pathlib import Path

import pytest

from repro import obs
from repro.net import (HttpTransport, HttpXRPCServer, SimulatedNetwork)
from repro.net.faults import FaultInjectingTransport, FaultPlan
from repro.net.pool import dispatch_parallel_captured
from repro.net.retry import RetryPolicy
from repro.net.transport import ExchangeSpec
from repro.rpc import XRPCPeer
from repro.session import Database
from repro.xdm.structural import ENCODING_STATS

LOG_MODULE = """
module namespace u = "urn:u";
declare updating function u:append($v as xs:string)
{ insert node <e>{$v}</e> into doc("log.xml")/log };
"""
THREE_UPDATING_CALLS = """
import module namespace u = "urn:u" at "u.xq";
for $v in ("a", "b", "c")
return execute at {"xrpc://b"} { u:append($v) }
"""
FILM_MODULE = """
module namespace film = "films";
declare function film:filmsByActor($actor as xs:string) as node()*
{ doc("filmDB.xml")//name[../actor = $actor] };
"""
FILMS = """<films>
<film><name>The Rock</name><actor>Sean Connery</actor></film>
</films>"""


@contextmanager
def scratch_counters(group):
    """A throw-away group, undeclared again on exit (its totals stay in
    the shards, so every test declares a group name of its own)."""
    counters = obs.Counters(group, {"throwaway": "test-only counter"})
    try:
        yield counters
    finally:
        del obs.GROUPS[group]


def log_peers(transport):
    a, b = XRPCPeer("a", transport), XRPCPeer("b", transport)
    for peer in (a, b):
        peer.registry.register_source(LOG_MODULE, location="u.xq")
    b.store.register("log.xml", "<log><e>seed</e></log>")
    b.execute_query("doc('log.xml')//e")  # build B's structural index
    return a, b


def without_byte_counts(counters):
    # Message sizes move with the process-wide exchange-id sequence.
    return {key: value for key, value in counters.items()
            if not key.startswith("parse.bytes_")}


class TestTransportIndependence:
    def run_at_a(self, transport, serve_over_http):
        a, b = log_peers(transport)
        before = ENCODING_STATS.snapshot()["index_patches"]
        if serve_over_http:
            with HttpXRPCServer(b.server.handle) as server:
                transport.register_endpoint("b", server.address)
                result = a.execute_query(THREE_UPDATING_CALLS)
        else:
            result = a.execute_query(THREE_UPDATING_CALLS)
        assert result.messages_sent == 1  # one bulk updating message
        assert len(b.store.get("log.xml").root_element.children) == 4
        # B patched its index three times, and the process totals say
        # so whichever thread B ran on.
        assert ENCODING_STATS.snapshot()["index_patches"] == before + 3
        return result.counters

    def test_originator_counters_do_not_depend_on_the_transport(self):
        simulated = self.run_at_a(SimulatedNetwork(), serve_over_http=False)
        with HttpTransport() as transport:
            over_http = self.run_at_a(transport, serve_over_http=True)
        assert without_byte_counts(simulated) \
            == without_byte_counts(over_http)
        # What B did while serving is B's, not A's.
        assert not [key for key in simulated if key.startswith("updates.")]
        assert simulated["net.exchanges"] == 1


class TestOriginatorExplain:
    def test_query_result_explain_carries_parse_and_search_deltas(self):
        network = SimulatedNetwork()
        origin = XRPCPeer("p0", network)
        served = XRPCPeer("y", network)
        for peer in (origin, served):
            peer.registry.register_source(FILM_MODULE, location="film.xq")
        served.store.register("filmDB.xml", FILMS)
        origin.store.register("local.xml", FILMS)
        result = origin.execute_query("""
            import module namespace f = "films" at "film.xq";
            ( doc("local.xml")//film[contains(., "Rock")],
              execute at {"xrpc://y"} { f:filmsByActor("Sean Connery") } )
        """)
        assert len(result.sequence) == 2
        counters = result.explain().counters
        assert counters["search.search_queries"] == 1  # the contains filter
        assert counters["parse.documents_expat"] == 1  # the response
        assert "search:" in result.explain().render()

    def test_fan_out_retry_is_charged_to_the_issuing_execution(self):
        # Seed 37 at drop_rate 0.3 drops exactly one of the two first
        # attempts and delivers everything after it.
        transport = FaultInjectingTransport(
            HttpTransport(), FaultPlan(seed=37, drop_rate=0.3))
        origin = XRPCPeer("p0", transport,
                          retry_policy=RetryPolicy(base_delay=0.001))
        origin.registry.register_source(FILM_MODULE, location="film.xq")
        servers = []
        try:
            for host in ("y1", "y2"):
                peer = XRPCPeer(host, HttpTransport())
                peer.registry.register_source(FILM_MODULE,
                                              location="film.xq")
                peer.store.register("filmDB.xml", FILMS)
                servers.append(HttpXRPCServer(peer.server.handle).start())
                transport.register_endpoint(host, servers[-1].address)
            result = origin.execute_query("""
                import module namespace f = "films" at "film.xq";
                for $p in ("xrpc://y1", "xrpc://y2")
                return execute at {$p} { f:filmsByActor("Sean Connery") }
            """)
        finally:
            transport.close()
            for server in servers:
                server.stop()
        assert len(result.sequence) == 2
        assert transport.injected["drop"] == 1
        assert result.counters["net.retries"] == 1
        assert result.counters["net.faults_injected"] == 1
        assert result.counters["net.exchanges"] == 3


class TestScope:
    def test_nested_scope_shields_the_enclosing_one(self):
        with scratch_counters("nested") as counters:
            with obs.Scope() as outer:
                counters.bump("throwaway")
                with obs.Scope() as inner:
                    counters.bump("throwaway", 4)
                counters.bump("throwaway")
            counters.bump("throwaway")  # no scope open: totals only
            assert outer.counters == {"nested.throwaway": 2}
            assert inner.counters == {"nested.throwaway": 4}
            assert counters.snapshot() == {"throwaway": 7}

    def test_fan_out_workers_report_to_the_issuing_scope(self):
        with scratch_counters("fanout") as counters:
            threads = set()

            def exchange(spec):
                threads.add(threading.get_ident())
                counters.bump("throwaway")
                return spec.payload

            specs = [ExchangeSpec(f"peer{n % 3}", str(n)) for n in range(7)]
            with obs.Scope() as scope:
                replies = dispatch_parallel_captured(exchange, specs)
            assert replies == [str(n) for n in range(7)]
            assert threading.get_ident() not in threads
            assert scope.counters == {"fanout.throwaway": 7}


class TestRegistry:
    def test_new_counter_needs_only_its_declaration_and_bump_site(self):
        db = Database()
        db.register("d.xml", "<r><a>1</a></r>")
        with scratch_counters("scratch") as counters:
            resolve = db._resolve_document

            def resolve_and_bump(uri):
                counters.bump("throwaway")
                return resolve(uri)

            db._resolve_document = resolve_and_bump
            explain = db.explain("doc('d.xml')//a")
            assert explain.counters["scratch.throwaway"] >= 1
            assert "scratch: throwaway=" in explain.render()
            assert db.stats().counters["scratch.throwaway"] \
                == explain.counters["scratch.throwaway"]
        assert "scratch.throwaway" not in db.stats().counters

    def test_counter_names_are_unique_across_groups(self):
        names = [name for group in obs.groups() for name in group.docs]
        assert len(names) == len(set(names))
        with pytest.raises(ValueError, match="index_patches"):
            obs.Counters("clash", {"index_patches": "already declared"})
        with pytest.raises(ValueError, match="existing group"):
            obs.Counters("updates", {"brand_new": "group name taken"})
        assert "clash" not in obs.GROUPS

    def test_undeclared_counter_is_rejected(self):
        with pytest.raises(KeyError):
            ENCODING_STATS.bump("no_such_counter")

    def test_totals_are_exact_under_concurrent_bumps(self):
        workers, bumps = 8, 10_000
        scopes = []

        def hammer(counters):
            with obs.Scope() as scope:
                for _ in range(bumps):
                    counters.bump("throwaway")
            scopes.append(scope)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with scratch_counters("hammered") as counters:
                threads = [threading.Thread(target=hammer, args=(counters,))
                           for _ in range(workers)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                assert not any(thread.is_alive() for thread in threads)
                assert counters.snapshot() == {"throwaway": workers * bumps}
                assert obs.totals()["hammered.throwaway"] == workers * bumps
        finally:
            sys.setswitchinterval(interval)
        assert [scope.counters for scope in scopes] \
            == [{"hammered.throwaway": bumps}] * workers

    def test_readme_counter_table_is_the_generated_one(self):
        readme = Path(__file__).resolve().parent.parent / "README.md"
        assert obs.markdown_table() in readme.read_text(encoding="utf-8")
