"""The unified session API: Database/PreparedQuery facade,
ExecutionContext threading, plan-cache bounds, thread safety, and the
peer's lifted-first routing."""

import threading

import pytest

from repro.engine import Engine
from repro.engine.base import PLAN_CACHE_SIZE, Explain
from repro.net import SimulatedNetwork
from repro.rpc import XRPCPeer
from repro.session import Database, ExecutionContext, PreparedQuery
from repro.workloads.xmark import XMarkConfig, generate_auctions, generate_persons
from repro.xdm.structural import structural_index
from repro.xml.serializer import serialize_sequence
from repro.xquery.evaluator import CompiledQuery, evaluate_query

CONFIG = XMarkConfig(persons=12, closed_auctions=30, open_auctions=6,
                     matches=3)

PERSONS = generate_persons(CONFIG)
AUCTIONS = generate_auctions(CONFIG)


@pytest.fixture
def db():
    database = Database()
    database.register("persons.xml", PERSONS)
    database.register("auctions.xml", AUCTIONS)
    return database


class TestDatabaseFacade:
    def test_execute_path_query_lifted(self, db):
        result = db.execute("doc('persons.xml')//person/name")
        assert len(result) == CONFIG.persons
        assert db.stats().lifted_executions == 1

    def test_lifted_vs_interpreter_equivalence(self, db):
        """The same queries through both pipelines of the facade."""
        pinned = Database(try_lifted=False)
        pinned.register("persons.xml", PERSONS)
        pinned.register("auctions.xml", AUCTIONS)
        queries = [
            "doc('persons.xml')/site/people/person/name",
            "doc('auctions.xml')//closed_auction/price",
            "for $p in doc('persons.xml')//person return $p/@id",
            "doc('auctions.xml')//closed_auction"
            "[buyer/@person = 'person0']/price",
            "for $id in ('person0', 'person1') "
            "return doc('persons.xml')//person[@id = $id]/name",
        ]
        for query in queries:
            lifted = db.execute(query)
            interpreted = pinned.execute(query)
            assert serialize_sequence(lifted) == \
                serialize_sequence(interpreted), query
            assert db.prepare(query).explain().plan == "lifted"
        assert pinned.stats().lifted_executions == 0

    def test_variable_binding_coercion(self, db):
        result = db.execute(
            "declare variable $pid external; "
            "doc('persons.xml')//person[@id = $pid]/name",
            pid="person0")
        assert len(result) == 1
        numbers = db.execute("declare variable $n external; $n + 1", n=41)
        assert numbers[0].value == 42

    def test_explain_reports_plan_and_timings(self, db):
        prepared = db.prepare("doc('persons.xml')//person/name")
        explain = prepared.explain()
        assert explain.plan == "lifted"
        assert explain.fallback_reason is None
        assert explain.compile_seconds >= 0.0
        assert explain.execute_seconds > 0.0

    def test_explain_records_fallback_reason(self, db):
        explain = db.explain("count(doc('persons.xml')//person)")
        assert explain.plan == "interpreter"
        assert explain.fallback_reason.startswith("FunctionCall:")

    def test_no_lifted_database_pins_interpreter(self):
        pinned = Database(try_lifted=False)
        pinned.register("persons.xml", PERSONS)
        explain = pinned.explain("doc('persons.xml')//person")
        assert explain.plan == "interpreter"
        assert explain.fallback_reason is None

    def test_updating_query_applies_to_store(self, db):
        db.execute("insert node <person id='extra'/> "
                   "into doc('persons.xml')/site/people")
        assert len(db.execute("doc('persons.xml')//person")) == \
            CONFIG.persons + 1

    def test_prepare_surfaces_syntax_errors_eagerly(self, db):
        from repro.errors import XQueryError
        with pytest.raises(XQueryError):
            db.prepare("1 +")

    def test_stats_counts_cache_and_plans(self, db):
        query = "doc('persons.xml')//person/name"
        prepared = db.prepare(query)
        prepared.execute()
        prepared.execute()
        db.execute("count(doc('persons.xml')//person)")
        stats = db.stats()
        assert stats.executions == 3
        assert stats.lifted_executions == 2
        assert stats.interpreter_executions == 1
        assert stats.plan_cache_misses >= 2
        assert stats.plan_cache_hits >= 2
        assert stats.documents == 2


class TestLazyCursor:
    def test_iter_defers_execution(self, db):
        cursor = db.iter("doc('persons.xml')//person/name")
        assert db.stats().executions == 0  # nothing pulled yet
        first = next(cursor)
        assert first.string_value()
        assert db.stats().executions == 1

    def test_iter_streams_all_items(self, db):
        items = list(db.iter("doc('persons.xml')//person/name"))
        assert len(items) == CONFIG.persons


class TestLowLevelEntryPoints:
    """The layers under the session API, called directly."""

    def test_compiled_query_run_takes_context(self, db):
        compiled = CompiledQuery(
            "declare variable $pid external; "
            "doc('persons.xml')//person[@id = $pid]/name")
        from repro.xdm.atomic import string
        result, _ = compiled.run(ExecutionContext(
            doc_resolver=db._resolve_document,
            variables={"pid": [string("person0")]}))
        assert len(result) == 1

    def test_evaluate_query_convenience_still_works(self, db):
        result = evaluate_query("doc('persons.xml')//person/name",
                                doc_resolver=db._resolve_document)
        assert len(result) == CONFIG.persons


class TestPlanCacheLRU:
    """The bound is one module constant, not a constructor option."""

    def test_cache_bounded_with_lru_eviction(self, monkeypatch):
        monkeypatch.setattr("repro.engine.base.PLAN_CACHE_SIZE", 2)
        engine = Engine()
        engine.compile("1 + 1")
        engine.compile("2 + 2")
        engine.compile("3 + 3")  # evicts "1 + 1"
        assert engine.cache_stats()["plan_cache_entries"] == 2
        misses_before = engine.plan_cache_misses
        engine.compile("1 + 1")  # must recompile
        assert engine.plan_cache_misses == misses_before + 1

    def test_hit_refreshes_recency(self, monkeypatch):
        monkeypatch.setattr("repro.engine.base.PLAN_CACHE_SIZE", 2)
        engine = Engine()
        engine.compile("1 + 1")
        engine.compile("2 + 2")
        engine.compile("1 + 1")  # refresh: now "2 + 2" is oldest
        engine.compile("3 + 3")  # evicts "2 + 2"
        hits_before = engine.plan_cache_hits
        engine.compile("1 + 1")
        assert engine.plan_cache_hits == hits_before + 1

    def test_unbounded_when_size_none(self):
        # The unbounded cache left with the option: the bound always
        # holds, and asking for "none" is a TypeError.
        with pytest.raises(TypeError):
            Engine(plan_cache_size=None)
        engine = Engine()
        for n in range(300):
            engine.compile(f"{n} + {n}")
        stats = engine.cache_stats()
        assert stats["plan_cache_entries"] == stats["plan_cache_size"] \
            == PLAN_CACHE_SIZE == 256

    def test_hit_miss_counters(self):
        engine = Engine()
        engine.compile("1 + 1")
        engine.compile("1 + 1")
        engine.compile("2 + 2")
        assert engine.plan_cache_hits == 1
        assert engine.plan_cache_misses == 2
        assert engine.compile_with_stats("3 + 3")[2] is False
        assert engine.compile_with_stats("3 + 3")[2] is True


class TestThreadSafety:
    def test_concurrent_prepare_and_execute(self, db):
        # Pre-warm the structural indexes so worker threads only read.
        db.execute("doc('persons.xml')//person/name")
        db.execute("doc('auctions.xml')//closed_auction/price")
        expected_names = CONFIG.persons
        expected_auctions = CONFIG.closed_auctions
        errors: list = []

        def worker(seed: int) -> None:
            try:
                for round_ in range(10):
                    n = (seed + round_) % 7
                    names = db.execute("doc('persons.xml')//person/name")
                    assert len(names) == expected_names
                    prices = db.execute(
                        "doc('auctions.xml')//closed_auction/price")
                    assert len(prices) == expected_auctions
                    # Distinct sources churn the bounded plan cache.
                    total = db.execute(f"{n} + {n}")
                    assert total[0].value == 2 * n
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        stats = db.stats()
        assert stats.executions == 2 + 8 * 10 * 3

    def test_concurrent_compile_bounded_cache(self, monkeypatch):
        monkeypatch.setattr("repro.engine.base.PLAN_CACHE_SIZE", 4)
        engine = Engine()
        errors: list = []

        def compiler(seed: int) -> None:
            try:
                for n in range(50):
                    engine.compile(f"{(seed * 31 + n) % 10} + 1")
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=compiler, args=(i,))
                   for i in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        assert engine.cache_stats()["plan_cache_entries"] <= 4


class TestAlgebraEqualityProbe:
    """The lifted predicate path probes the cached value index
    (ROADMAP: '[x = v] hash-join probe instead of re-scan')."""

    def test_probe_matches_interpreter_and_caches(self, db):
        query = ("for $id in ('person0', 'person1', 'person999') "
                 "return doc('persons.xml')//person[@id = $id]/name")
        lifted = db.execute(query)
        assert db.prepare(query).explain().plan == "lifted"
        interpreted = evaluate_query(query,
                                     doc_resolver=db._resolve_document)
        assert serialize_sequence(lifted) == serialize_sequence(interpreted)
        index = structural_index(db.store.get("persons.xml"))
        probe_keys = [key for key in index.value_indexes
                      if key[1] == "descendant" and key[3] == "person"]
        assert probe_keys, "lifted run must populate the value index"
        # A second run reuses the cached index (same key set, no growth).
        before = len(index.value_indexes)
        db.execute(query)
        assert len(index.value_indexes) == before

    def test_literal_probe_equivalence(self, db):
        query = ("doc('auctions.xml')//closed_auction"
                 "[buyer/@person = 'person0']/price")
        lifted = db.execute(query)
        interpreted = evaluate_query(query,
                                     doc_resolver=db._resolve_document)
        assert serialize_sequence(lifted) == serialize_sequence(interpreted)
        assert lifted, "query unexpectedly empty"


class TestPeerUnifiedPipeline:
    """Acceptance: the peer routes through the lifted pipeline by
    default and records fallback telemetry."""

    @pytest.fixture
    def peer(self):
        network = SimulatedNetwork()
        peer = XRPCPeer("p0.example.org", network)
        peer.store.register("persons.xml", PERSONS)
        peer.store.register("auctions.xml", AUCTIONS)
        return peer

    def test_downward_axis_query_runs_lifted(self, peer):
        result = peer.execute_query("doc('persons.xml')//person/name")
        assert result.explain().plan == "lifted"
        assert result.explain().fallback_reason is None
        assert len(result.sequence) == CONFIG.persons

    def test_reverse_axis_query_runs_lifted(self, peer):
        result = peer.execute_query(
            "doc('persons.xml')//name/ancestor::person")
        explain = result.explain()
        assert explain.plan == "lifted"
        assert explain.fallback_reason is None
        assert len(result.sequence) == CONFIG.persons

    def test_unsupported_query_falls_back_with_reason(self, peer):
        result = peer.execute_query(
            "count(doc('persons.xml')//person)")
        explain = result.explain()
        assert explain.plan == "interpreter"
        assert explain.fallback_reason.startswith("FunctionCall:")
        assert explain.fallback_code == "function-not-lifted"
        assert peer.engine.fallback_stats() == {"function-not-lifted": 1}
        assert result.sequence[0].value == CONFIG.persons

    def test_peer_lifted_matches_interpreter(self, peer):
        query = "doc('auctions.xml')//closed_auction/buyer/@person"
        lifted = peer.execute_query(query)
        pinned = peer.execute_query(query, try_lifted=False)
        assert pinned.plan == "interpreter"
        assert serialize_sequence(lifted.sequence) == \
            serialize_sequence(pinned.sequence)

    def test_engine_telemetry_mirrors_query_result(self, peer):
        result = peer.execute_query("doc('persons.xml')//person")
        assert peer.engine.last_plan == result.plan == "lifted"
        result = peer.execute_query("count(doc('persons.xml')//person)")
        assert peer.engine.last_plan == result.plan == "interpreter"
        assert result.fallback_reason is not None

    def test_explain_is_session_api_shape(self, peer):
        explain = peer.execute_query("doc('persons.xml')//person").explain()
        assert isinstance(explain, Explain)


class TestNoSpeculativeUpdateShipping:
    """An updating remote call must never ship twice: a *dynamic* lifted
    bail after dispatch would re-ship it from the interpreter fallback,
    so updating queries route to the record-then-ship batching executor
    up front."""

    COUNTER_MODULE = """
    module namespace c = "urn:counter";
    declare updating function c:bump()
    { insert node <hit/> into doc("log.xml")/log };
    """

    @pytest.fixture
    def site(self):
        network = SimulatedNetwork()
        origin = XRPCPeer("p0", network)
        server = XRPCPeer("y", network)
        for peer in (origin, server):
            peer.registry.register_source(self.COUNTER_MODULE,
                                          location="counter.xq")
        server.store.register("log.xml", "<log/>")
        origin.store.register("d.xml", "<d><a>1</a><a>2</a></d>")
        return origin, server

    def test_dynamic_bail_does_not_double_apply(self, site):
        origin, server = site
        # The positional predicate is only detected at *runtime* (its
        # value is numeric), so it escapes the static check — the
        # shape that used to ship bump() from the lifted attempt and
        # again from the fallback.
        query = """
        import module namespace c = "urn:counter" at "counter.xq";
        declare variable $n external;
        ( execute at {"xrpc://y"} { c:bump() },
          doc("d.xml")//a[$n] )
        """
        from repro.xdm.atomic import integer
        result = origin.execute_query(query, variables={"n": [integer(1)]})
        hits = server.store.get("log.xml").root_element.children
        assert len(hits) == 1, "updating call must apply exactly once"
        assert result.plan == "interpreter"
        assert "updating" in result.fallback_reason

    def test_read_only_single_site_still_lifts(self, site):
        origin, server = site
        server.registry.register_source(
            'module namespace r = "urn:reader"; '
            'declare function r:size() as xs:integer '
            '{ count(doc("log.xml")/log/*) };', location="reader.xq")
        origin.registry.register_source(
            'module namespace r = "urn:reader"; '
            'declare function r:size() as xs:integer '
            '{ count(doc("log.xml")/log/*) };', location="reader.xq")
        result = origin.execute_query("""
        import module namespace r = "urn:reader" at "reader.xq";
        execute at {"xrpc://y"} { r:size() }
        """)
        assert result.plan == "lifted"
        assert result.sequence[0].value == 0
