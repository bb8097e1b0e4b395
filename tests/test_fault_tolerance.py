"""Fault-tolerance layer tests: retry matrix, breakers, deadlines,
partial results, and the pool/transport satellite regressions."""

import pytest

from repro.errors import (
    CircuitOpenError,
    DeadlineExceeded,
    DynamicError,
    FatalTransportError,
    RetryableTransportError,
    StaticError,
    TransportError,
)
from repro.net import SimulatedNetwork
from repro.net.clock import VirtualClock
from repro.net.faults import FaultInjectingTransport, FaultPlan
from repro.net.http import HttpTransport
from repro.net.pool import ConnectionPool
from repro.net.retry import (
    BreakerRegistry,
    CircuitBreaker,
    Deadline,
    ResilientChannel,
    RetryPolicy,
)
from repro.net.transport import Transport
from repro.obs import Scope
from repro.rpc import XRPCPeer
from repro.session import Database
from repro.soap.messages import XRPCRequest, build_request, parse_response
from repro.wrapper import XRPCWrapper
from tests.helpers import strings


class ScriptedTransport(Transport):
    """Replays a scripted outcome (string or exception) per exchange."""

    def __init__(self, outcomes):
        self.outcomes = list(outcomes)
        self.clock = VirtualClock()
        self.exchanges = 0

    def exchange(self, spec):
        self.exchanges += 1
        outcome = self.outcomes.pop(0) if self.outcomes else "ok"
        if isinstance(outcome, Exception):
            raise outcome
        return outcome


def make_channel(transport, **policy_kwargs):
    policy_kwargs.setdefault("jitter", 0.0)
    policy_kwargs.setdefault("base_delay", 0.01)
    return ResilientChannel(transport, policy=RetryPolicy(**policy_kwargs))


def passthrough(attempt, remaining):
    return "payload"


class TestRetryPolicy:
    def test_backoff_grows_and_caps(self):
        policy = RetryPolicy(base_delay=0.1, multiplier=2.0, max_delay=0.5,
                             jitter=0.0)
        assert policy.backoff(1) == pytest.approx(0.1)
        assert policy.backoff(2) == pytest.approx(0.2)
        assert policy.backoff(3) == pytest.approx(0.4)
        assert policy.backoff(4) == pytest.approx(0.5)  # capped
        assert policy.backoff(10) == pytest.approx(0.5)

    def test_seeded_jitter_is_deterministic(self):
        a = [RetryPolicy(seed=7).backoff(n) for n in range(1, 6)]
        b = [RetryPolicy(seed=7).backoff(n) for n in range(1, 6)]
        c = [RetryPolicy(seed=8).backoff(n) for n in range(1, 6)]
        assert a == b
        assert a != c

    def test_jitter_bounded(self):
        policy = RetryPolicy(base_delay=1.0, multiplier=1.0, max_delay=1.0,
                             jitter=0.25, seed=3)
        for attempt in range(1, 50):
            assert 0.75 <= policy.backoff(attempt) <= 1.25


class TestDeadline:
    def test_remaining_and_expiry_on_virtual_clock(self):
        clock = VirtualClock()
        deadline = Deadline.after(5.0, clock)
        assert deadline.remaining() == pytest.approx(5.0)
        assert not deadline.expired()
        clock.advance(4.0)
        assert deadline.remaining() == pytest.approx(1.0)
        clock.advance(2.0)
        assert deadline.expired()
        assert deadline.remaining() == 0.0  # clamped, never negative


class TestCircuitBreaker:
    def test_opens_after_threshold_consecutive_failures(self):
        breaker = CircuitBreaker(failure_threshold=3, cooldown=10.0)
        assert not breaker.record_failure(now=0.0)
        assert not breaker.record_failure(now=1.0)
        assert breaker.record_failure(now=2.0)  # third failure opens
        assert breaker.state == "open"
        assert not breaker.allow(now=3.0)
        assert breaker.retry_after(now=3.0) == pytest.approx(9.0)

    def test_success_resets_the_failure_streak(self):
        breaker = CircuitBreaker(failure_threshold=2, cooldown=10.0)
        breaker.record_failure(now=0.0)
        breaker.record_success()
        breaker.record_failure(now=1.0)
        assert breaker.state == "closed"  # streak broken by the success

    def test_half_open_probe_after_cooldown(self):
        breaker = CircuitBreaker(failure_threshold=1, cooldown=10.0)
        breaker.record_failure(now=0.0)
        assert not breaker.allow(now=5.0)
        assert breaker.allow(now=11.0)      # the half-open probe
        assert not breaker.allow(now=11.0)  # only one probe at a time
        breaker.record_success()
        assert breaker.state == "closed"
        assert breaker.allow(now=12.0)

    def test_failed_probe_reopens(self):
        breaker = CircuitBreaker(failure_threshold=1, cooldown=10.0)
        breaker.record_failure(now=0.0)
        assert breaker.allow(now=11.0)
        assert breaker.record_failure(now=11.0)  # probe failed: re-open
        assert breaker.state == "open"
        assert not breaker.allow(now=12.0)
        assert breaker.allow(now=22.0)

    def test_registry_keys_by_normalized_uri(self):
        registry = BreakerRegistry()
        assert registry.get("xrpc://y.example.org/db") \
            is registry.get("y.example.org")
        assert registry.get("y.example.org") \
            is not registry.get("z.example.org")

    def test_disabled_registry_never_opens(self):
        # There is no "off" switch any more — a registry is its
        # breakers; one that should never open gets a threshold no run
        # of failures reaches.
        with pytest.raises(TypeError):
            BreakerRegistry(failure_threshold=1, enabled=False)
        registry = BreakerRegistry(failure_threshold=10**9)
        breaker = registry.get("y")
        for _ in range(100):
            assert not breaker.record_failure(now=0.0)
        assert breaker.allow(now=0.0)
        assert registry.snapshot() == {"y": "closed"}


class TestRetryMatrix:
    """Error class x request_sent x retry_safe -> retry or fail."""

    def test_drop_before_delivery_retried_even_when_not_retry_safe(self):
        # request_sent=False: the peer never saw it, replay is safe even
        # for updating exchanges.
        transport = ScriptedTransport([
            RetryableTransportError("dropped", request_sent=False), "ok"])
        channel = make_channel(transport)
        result = channel.exchange("y", passthrough, lambda raw: raw,
                                  retry_safe=False)
        assert result == "ok"
        assert transport.exchanges == 2

    def test_reset_after_delivery_not_retried_when_not_retry_safe(self):
        # request_sent=True + updating: the peer may have applied the
        # call — never replay.
        transport = ScriptedTransport([
            RetryableTransportError("reset", request_sent=True), "ok"])
        channel = make_channel(transport)
        with pytest.raises(RetryableTransportError):
            channel.exchange("y", passthrough, lambda raw: raw,
                             retry_safe=False)
        assert transport.exchanges == 1

    def test_reset_retried_when_retry_safe(self):
        transport = ScriptedTransport([
            RetryableTransportError("reset", request_sent=True), "ok"])
        channel = make_channel(transport)
        assert channel.exchange("y", passthrough, lambda raw: raw,
                                retry_safe=True) == "ok"
        assert transport.exchanges == 2

    def test_fatal_never_retried(self):
        transport = ScriptedTransport([FatalTransportError("bad addr"), "ok"])
        channel = make_channel(transport)
        with pytest.raises(FatalTransportError):
            channel.exchange("y", passthrough, lambda raw: raw)
        assert transport.exchanges == 1

    def test_gives_up_after_max_attempts(self):
        errors = [RetryableTransportError("down", request_sent=False)
                  for _ in range(10)]
        transport = ScriptedTransport(errors)
        channel = make_channel(transport, max_attempts=3)
        with Scope() as scope, pytest.raises(RetryableTransportError):
            channel.exchange("y", passthrough, lambda raw: raw)
        assert transport.exchanges == 3
        assert scope.counters["net.retries"] == 2
        assert scope.counters["net.retry_giveups"] == 1

    def test_fresh_payload_built_per_attempt(self):
        transport = ScriptedTransport([
            RetryableTransportError("dropped", request_sent=False), "ok"])
        channel = make_channel(transport)
        attempts = []
        channel.exchange("y", lambda attempt, remaining:
                         attempts.append(attempt) or f"p{attempt}",
                         lambda raw: raw)
        assert attempts == [1, 2]

    def test_unparseable_response_reenters_retry_loop(self):
        transport = ScriptedTransport(["garbage", "fine"])
        channel = make_channel(transport)

        def parse(raw):
            if raw == "garbage":
                raise RetryableTransportError("undecodable",
                                              request_sent=True)
            return raw

        assert channel.exchange("y", passthrough, parse) == "fine"
        assert transport.exchanges == 2


class TestChannelBreakerAndDeadline:
    def test_breaker_opens_and_fast_fails_without_touching_network(self):
        errors = [RetryableTransportError("down", request_sent=False)
                  for _ in range(10)]
        transport = ScriptedTransport(errors)
        breakers = BreakerRegistry(failure_threshold=3, cooldown=60.0)
        channel = ResilientChannel(
            transport, policy=RetryPolicy(max_attempts=3, jitter=0.0,
                                          base_delay=0.01),
            breakers=breakers)
        with Scope() as scope:
            with pytest.raises(RetryableTransportError):
                channel.exchange("y", passthrough, lambda raw: raw)
            assert scope.counters["net.breaker_opens"] == 1
            sent_before = transport.exchanges
            with pytest.raises(CircuitOpenError) as info:
                channel.exchange("y", passthrough, lambda raw: raw)
        assert transport.exchanges == sent_before  # refused at the gate
        assert scope.counters["net.breaker_fast_fails"] == 1
        assert info.value.retry_after > 0

    def test_half_open_probe_recovers_through_channel(self):
        transport = ScriptedTransport([
            RetryableTransportError("down", request_sent=False), "ok"])
        breakers = BreakerRegistry(failure_threshold=1, cooldown=5.0)
        channel = ResilientChannel(
            transport, policy=RetryPolicy(max_attempts=1, jitter=0.0),
            breakers=breakers)
        with pytest.raises(RetryableTransportError):
            channel.exchange("y", passthrough, lambda raw: raw)
        assert breakers.get("y").state == "open"
        transport.clock.advance(6.0)
        assert channel.exchange("y", passthrough, lambda raw: raw) == "ok"
        assert breakers.get("y").state == "closed"

    def test_soap_fault_counts_as_peer_alive(self):
        # A decoded application fault means the peer answered: the
        # breaker must NOT count it as a transport failure.
        transport = ScriptedTransport(["fault"] * 5)
        breakers = BreakerRegistry(failure_threshold=2)
        channel = ResilientChannel(transport, policy=RetryPolicy(jitter=0.0),
                                   breakers=breakers)

        def parse(raw):
            raise ValueError("application-level fault")

        for _ in range(5):
            with pytest.raises(ValueError):
                channel.exchange("y", passthrough, parse)
        assert breakers.get("y").state == "closed"

    def test_expired_deadline_refuses_exchange(self):
        transport = ScriptedTransport(["ok"])
        channel = make_channel(transport)
        deadline = Deadline.after(1.0, transport.clock)
        transport.clock.advance(2.0)
        with Scope() as scope, pytest.raises(DeadlineExceeded):
            channel.exchange("y", passthrough, lambda raw: raw,
                             deadline=deadline)
        assert transport.exchanges == 0
        assert scope.counters["net.deadline_expired"] == 1

    def test_backoff_capped_by_deadline(self):
        transport = ScriptedTransport([
            RetryableTransportError("down", request_sent=False)] * 5)
        channel = make_channel(transport, base_delay=10.0, max_delay=60.0,
                               max_attempts=5)
        deadline = Deadline.after(5.0, transport.clock)
        with pytest.raises(DeadlineExceeded):
            channel.exchange("y", passthrough, lambda raw: raw,
                             deadline=deadline)
        assert transport.exchanges == 1  # no point sleeping 10s of a 5s budget

    def test_remaining_budget_threaded_into_build(self):
        transport = ScriptedTransport(["ok"])
        channel = make_channel(transport)
        deadline = Deadline.after(8.0, transport.clock)
        seen = {}

        def build(attempt, remaining):
            seen["remaining"] = remaining
            return "p"

        channel.exchange("y", build, lambda raw: raw, deadline=deadline)
        assert seen["remaining"] == pytest.approx(8.0)


class _FakeConnection:
    """Stands in for a :class:`repro.net.wire.Connection` in the pool."""

    def __init__(self, fail_with=None):
        self.fail_with = fail_with
        self.closed = False

    def settimeout(self, timeout):
        pass

    def send(self, start_line, fields, body=b""):
        if self.fail_with is not None:
            raise self.fail_with

    def read_response(self, limit):  # pragma: no cover - success only
        raise AssertionError("not used")

    def close(self):
        self.closed = True


class TestPoolErrorPaths:
    """Satellite: every pool error path closes and drops the socket."""

    def _pool_with_idle(self, connection):
        pool = ConnectionPool()
        pool._idle["peer:80"] = [connection]
        return pool

    def test_oserror_path_closes_connection(self):
        # Two stale connections: the first failure takes the one-shot
        # stale retry, the second exhausts it.  Both must end up closed
        # and dropped from the idle list.
        first = _FakeConnection(fail_with=OSError("boom"))
        second = _FakeConnection(fail_with=OSError("boom again"))
        pool = ConnectionPool()
        pool._idle["peer:80"] = [second, first]  # checkout pops the end
        with pytest.raises(TransportError):
            pool.request("peer:80", "/", b"x", {}, retry_safe=False)
        assert first.closed and second.closed
        assert pool._idle.get("peer:80", []) == []

    def test_unexpected_error_path_closes_connection(self):
        # Regression: a non-FramingError/OSError failure (handler bug,
        # KeyboardInterrupt, ...) must also close-and-drop — never
        # return the connection to the idle pool in unknown state.
        connection = _FakeConnection(fail_with=RuntimeError("bug"))
        pool = self._pool_with_idle(connection)
        with pytest.raises(RuntimeError):
            pool.request("peer:80", "/", b"x", {})
        assert connection.closed
        assert pool._idle.get("peer:80", []) == []

    def test_not_retry_safe_skips_stale_retry_after_send(self):
        # request went out (sent=True simulated by failing in
        # read_response) on a reused connection: an updating exchange must
        # not be replayed.
        class _SentThenFail(_FakeConnection):
            def read_response(self, limit):
                raise OSError("reset after send")

        connection = _SentThenFail()
        pool = self._pool_with_idle(connection)
        with pytest.raises(RetryableTransportError) as info:
            pool.request("peer:80", "/", b"x", {}, retry_safe=False)
        assert info.value.request_sent
        assert connection.closed

    def test_pool_breaker_fast_fails(self):
        # One breaker layer: the pool and the transport take no
        # registry; the channel's breaker is what fast-fails the second
        # exchange to a dead address over real HTTP.
        breakers = BreakerRegistry(failure_threshold=1, cooldown=1000.0)
        with pytest.raises(TypeError):
            ConnectionPool(breakers=breakers)
        with pytest.raises(TypeError):
            HttpTransport(breakers=breakers)
        with HttpTransport({"dead": "127.0.0.1:9"}) as transport:
            channel = ResilientChannel(
                transport, policy=RetryPolicy(max_attempts=1),
                breakers=breakers)
            # Nothing listens on this port: first dial fails and opens.
            with pytest.raises(RetryableTransportError):
                channel.exchange("dead", passthrough, lambda raw: raw)
            with Scope() as scope:
                with pytest.raises(CircuitOpenError):
                    channel.exchange("dead", passthrough, lambda raw: raw)
            assert scope.counters["net.breaker_fast_fails"] == 1
            assert "net.exchanges" not in scope.counters  # never dialled


class _FlakyOnce(Transport):
    """Fails the first exchange per destination, then delegates."""

    def __init__(self, inner, error=None):
        self.inner = inner
        self.error = error or RetryableTransportError(
            "first attempt reset", request_sent=True)
        self.failed = set()

    def exchange(self, spec):
        key = spec.destination
        if key not in self.failed:
            self.failed.add(key)
            raise self.error
        return self.inner.exchange(spec)

    def __getattr__(self, name):
        return getattr(self.inner, name)


FILM_MODULE = """
module namespace film = "films";
declare function film:filmsByActor($actor as xs:string) as node()*
{ doc("filmDB.xml")//name[../actor = $actor] };
"""
FILM_LOCATION = "http://x.example.org/film.xq"
FILMS_Y = """<films>
<film><name>The Rock</name><actor>Sean Connery</actor></film>
</films>"""
COUNTER_MODULE = """
module namespace c = "urn:counter";
declare function c:read() as xs:string
{ string(doc("counter.xml")/counter) };
declare updating function c:bump($v as xs:string)
{ replace value of node doc("counter.xml")/counter with $v };
"""


def film_peers(transport, hosts=("y.example.org",)):
    origin = XRPCPeer("p0.example.org", transport)
    origin.registry.register_source(FILM_MODULE, location=FILM_LOCATION)
    served = []
    for host in hosts:
        peer = XRPCPeer(host, transport)
        peer.registry.register_source(FILM_MODULE, location=FILM_LOCATION)
        peer.store.register("filmDB.xml", FILMS_Y)
        served.append(peer)
    return origin, served


class TestNoPayloadSniffRegression:
    """Satellite: retry-safety comes from the analyzer verdict, never
    from sniffing the payload for ``updCall="true"``."""

    def test_read_only_query_containing_sniff_literal_is_retried(self):
        network = SimulatedNetwork()
        flaky = _FlakyOnce(network)
        origin, _ = film_peers(flaky)
        # The argument carries the exact byte pattern the old sniff
        # matched; the call is read-only, so the post-send reset must
        # still be retried and the query succeed.
        query = f"""
        import module namespace f="films" at "{FILM_LOCATION}";
        execute at {{"xrpc://y.example.org"}}
        {{ f:filmsByActor(concat('updCall="true"', "Sean Connery")) }}
        """
        result = origin.execute_query(query)
        assert result.sequence == []  # no actor by that name
        assert result.counters["net.retries"] >= 1

    def test_updating_call_not_retried_after_send(self):
        network = SimulatedNetwork()
        flaky = _FlakyOnce(network)
        origin = XRPCPeer("p0.example.org", flaky)
        origin.registry.register_source(COUNTER_MODULE, location="c.xq")
        server = XRPCPeer("u.example.org", flaky)
        server.registry.register_source(COUNTER_MODULE, location="c.xq")
        server.store.register("counter.xml", "<counter>0</counter>")
        query = """
        import module namespace c = "urn:counter" at "c.xq";
        execute at {"xrpc://u.example.org"} { c:bump("5") }
        """
        with pytest.raises(RetryableTransportError):
            origin.execute_query(query)
        # The reset was injected before the handler could run; crucially
        # the client made exactly one attempt — no replay of an update.
        assert server.store.get("counter.xml").string_value() == "0"


class TestWrapperDataShipping:
    """The wrapper's ``fn:doc("xrpc://...")`` fetch is a product
    exchange like any other: it takes the resilient channel."""

    MODULE = """
    module namespace r = "remote-films";
    declare function r:names() as xs:string*
    { for $n in doc("xrpc://y.example.org/filmDB.xml")//name
      return string($n) };
    """

    def test_fetch_reset_on_first_attempt_is_retried(self):
        flaky = _FlakyOnce(SimulatedNetwork())
        source = XRPCPeer("y.example.org", flaky)
        source.store.register("filmDB.xml", FILMS_Y)
        wrapper = XRPCWrapper(transport=flaky, host="saxon.example.org")
        wrapper.engine.registry.register_source(self.MODULE, location="r.xq")
        request = XRPCRequest(module="remote-films", method="names",
                              arity=0, location="r.xq")
        request.add_call([])
        response = parse_response(wrapper.handle(build_request(request)))
        assert strings(response.results[0]) == ["The Rock"]
        assert flaky.failed == {"y.example.org"}  # reset, then ok
        assert source.server.requests_handled == 1


MULTI_SITE_QUERY = f"""
import module namespace f="films" at "{FILM_LOCATION}";
<films> {{
  execute at {{"xrpc://y.example.org"}} {{ f:filmsByActor("Sean Connery") }},
  execute at {{"xrpc://dead.example.org"}} {{ f:filmsByActor("Sean Connery") }}
}} </films>
"""


class TestPartialResults:
    def test_degrade_returns_reachable_peers_results(self):
        network = SimulatedNetwork()
        origin, _ = film_peers(network)  # dead.example.org not registered
        result = origin.execute_query(MULTI_SITE_QUERY,
                                      on_peer_failure="degrade")
        assert result.degraded
        assert result.failed_peers == ["dead.example.org"]
        assert result.counters["net.degraded_peers"] == 1
        assert strings(result.sequence[0].children) == ["The Rock"]

    def test_degraded_document_fetch_is_not_found(self):
        network = SimulatedNetwork()
        origin, _ = film_peers(network)
        with pytest.raises(DynamicError) as raised:
            origin.execute_query(
                'count(doc("xrpc://dead.example.org/filmDB.xml")//film)',
                on_peer_failure="degrade")
        assert raised.value.code == "FODC0002"

    def test_default_fail_closed(self):
        network = SimulatedNetwork()
        origin, _ = film_peers(network)
        with pytest.raises(TransportError):
            origin.execute_query(MULTI_SITE_QUERY)

    @pytest.mark.parametrize("one_at_a_time, plan",
                             [(False, "lifted"), (True, "interpreter")])
    def test_degrade_in_a_loop(self, one_at_a_time, plan):
        # One site, two destinations: the dead peer's calls answer
        # empty, whether they ship as one bulk message per peer or one
        # call at a time.
        network = SimulatedNetwork()
        origin, _ = film_peers(network)
        result = origin.execute_query(f"""
            import module namespace f="films" at "{FILM_LOCATION}";
            for $d in ("xrpc://y.example.org", "xrpc://dead.example.org")
            return execute at {{$d}} {{ f:filmsByActor("Sean Connery") }}
            """, on_peer_failure="degrade",
            force_one_at_a_time=one_at_a_time)
        assert result.plan == plan
        assert result.degraded
        assert result.failed_peers == ["dead.example.org"]
        assert strings(result.sequence) == ["The Rock"]

    def test_degrade_single_dead_site(self):
        network = SimulatedNetwork()
        origin, _ = film_peers(network)
        result = origin.execute_query(f"""
            import module namespace f="films" at "{FILM_LOCATION}";
            execute at {{"xrpc://dead.example.org"}}
              {{ f:filmsByActor("Sean Connery") }}
            """, on_peer_failure="degrade")
        assert result.plan == "lifted"
        assert result.degraded
        assert result.failed_peers == ["dead.example.org"]
        assert result.sequence == []

    def test_invalid_policy_rejected(self):
        network = SimulatedNetwork()
        origin, _ = film_peers(network)
        with pytest.raises(ValueError):
            origin.execute_query(MULTI_SITE_QUERY, on_peer_failure="maybe")

    def test_updating_call_never_degrades(self):
        network = SimulatedNetwork()
        origin = XRPCPeer("p0.example.org", network)
        origin.registry.register_source(COUNTER_MODULE, location="c.xq")
        query = """
        import module namespace c = "urn:counter" at "c.xq";
        execute at {"xrpc://gone.example.org"} { c:bump("5") }
        """
        with pytest.raises(TransportError):
            origin.execute_query(query, on_peer_failure="degrade")

    def test_keyword_search_degrades(self):
        network = SimulatedNetwork()
        origin = XRPCPeer("p0.example.org", network)
        peer = XRPCPeer("y.example.org", network)
        peer.store.register("d.xml", "<d><item>vintage clock</item></d>")
        result = origin.keyword_search(
            "vintage",
            peers=["xrpc://y.example.org", "xrpc://dead.example.org"],
            on_peer_failure="degrade")
        assert result.degraded
        assert result.failed_peers == ["dead.example.org"]
        assert [hit.uri for hit in result.hits] == ["d.xml"]

    def test_breaker_collapses_the_tail_behind_a_blackholed_peer(self):
        """Degraded searches past a dead peer, on the virtual clock:
        without breakers every query burns the whole retry budget, with
        them only the queries that open the breaker do."""
        def latencies(breakers):
            network = SimulatedNetwork()
            transport = FaultInjectingTransport(
                network, FaultPlan(blackhole=frozenset({"dead.example.org"}),
                                   blackhole_seconds=0.5))
            origin = XRPCPeer(
                "p0.example.org", transport, breakers=breakers,
                retry_policy=RetryPolicy(max_attempts=3, base_delay=0.05,
                                         jitter=0.0))
            live = XRPCPeer("live.example.org", transport)
            live.store.register("d.xml", "<d><item>vintage clock</item></d>")
            seen = []
            for _ in range(6):
                started = network.clock.now()
                result = origin.keyword_search(
                    "vintage", on_peer_failure="degrade",
                    peers=["xrpc://live.example.org",
                           "xrpc://dead.example.org"])
                assert result.degraded and len(result.hits) == 1
                seen.append(network.clock.now() - started)
            return seen

        without = latencies(BreakerRegistry(failure_threshold=10**9))
        guarded = latencies(BreakerRegistry(failure_threshold=3,
                                            cooldown=1000.0))
        assert min(without) >= 3 * 0.5  # three attempts, full burn
        assert guarded[0] >= 3 * 0.5
        assert max(guarded[1:]) < min(without) / 10

    def test_keyword_search_fails_closed_by_default(self):
        network = SimulatedNetwork()
        origin = XRPCPeer("p0.example.org", network)
        with pytest.raises(TransportError):
            origin.keyword_search("x", peers=["xrpc://dead.example.org"])


class TestDeadlineEndToEnd:
    def test_blackholed_peer_exhausts_query_deadline(self):
        network = SimulatedNetwork()
        plan = FaultPlan(blackhole=frozenset({"y.example.org"}),
                         blackhole_seconds=1.0)
        transport = FaultInjectingTransport(network, plan)
        origin, _ = film_peers(transport)
        query = f"""
        import module namespace f="films" at "{FILM_LOCATION}";
        declare option xrpc:timeout "1.5";
        execute at {{"xrpc://y.example.org"}}
        {{ f:filmsByActor("Sean Connery") }}
        """
        with pytest.raises(DeadlineExceeded):
            origin.execute_query(query)

    def test_explicit_timeout_argument_wins(self):
        network = SimulatedNetwork()
        plan = FaultPlan(blackhole=frozenset({"y.example.org"}),
                         blackhole_seconds=1.0)
        transport = FaultInjectingTransport(network, plan)
        origin, _ = film_peers(transport)
        query = f"""
        import module namespace f="films" at "{FILM_LOCATION}";
        execute at {{"xrpc://y.example.org"}}
        {{ f:filmsByActor("Sean Connery") }}
        """
        with pytest.raises(DeadlineExceeded):
            origin.execute_query(query, timeout=0.5)

    @pytest.mark.parametrize("value", ["abc", "nan", "inf", "-5"])
    def test_a_malformed_timeout_option_is_refused_before_anything_ships(
            self, monkeypatch, value):
        network = SimulatedNetwork()
        origin, _ = film_peers(network)
        network.reset_stats()

        def no_session(*args, **kwargs):
            raise AssertionError("a session was built")
        monkeypatch.setattr("repro.rpc.peer.ClientSession", no_session)
        query = f"""
        import module namespace f="films" at "{FILM_LOCATION}";
        declare option xrpc:timeout "{value}";
        execute at {{"xrpc://y.example.org"}}
        {{ f:filmsByActor("Sean Connery") }}
        """
        with pytest.raises(StaticError) as raised:
            origin.execute_query(query)
        assert raised.value.code == "XQST0013"
        assert network.messages_sent == 0

    def test_a_fractional_timeout_option_runs(self):
        network = SimulatedNetwork()
        origin, _ = film_peers(network)
        query = f"""
        import module namespace f="films" at "{FILM_LOCATION}";
        declare option xrpc:timeout "1.5";
        execute at {{"xrpc://y.example.org"}}
        {{ f:filmsByActor("Sean Connery") }}
        """
        result = origin.execute_query(query)
        assert strings(result.sequence) == ["The Rock"]

    def test_no_timeout_means_no_deadline(self):
        network = SimulatedNetwork()
        origin, _ = film_peers(network)
        query = f"""
        import module namespace f="films" at "{FILM_LOCATION}";
        execute at {{"xrpc://y.example.org"}}
        {{ f:filmsByActor("Sean Connery") }}
        """
        result = origin.execute_query(query)
        assert "net.deadline_expired" not in result.counters


class TestTelemetry:
    def test_query_result_counters_and_explain_net_line(self):
        network = SimulatedNetwork()
        flaky = _FlakyOnce(network)
        origin, _ = film_peers(flaky)
        query = f"""
        import module namespace f="films" at "{FILM_LOCATION}";
        execute at {{"xrpc://y.example.org"}}
        {{ f:filmsByActor("Sean Connery") }}
        """
        result = origin.execute_query(query)
        assert result.counters["net.retries"] >= 1
        rendered = result.explain().render()
        assert "net:" in rendered
        assert "retries=" in rendered

    def test_quiet_query_renders_only_its_exchange(self):
        network = SimulatedNetwork()
        origin, _ = film_peers(network)
        query = f"""
        import module namespace f="films" at "{FILM_LOCATION}";
        execute at {{"xrpc://y.example.org"}}
        {{ f:filmsByActor("Sean Connery") }}
        """
        result = origin.execute_query(query)
        assert "net: exchanges=1\n" in result.explain().render()

    def test_database_stats_expose_net_counters(self):
        db = Database()
        db.register("d.xml", "<d/>")
        db.execute("doc('d.xml')")
        counters = db.stats().counters
        for name in ("exchanges", "retries", "retry_giveups",
                     "breaker_opens", "breaker_fast_fails",
                     "deadline_expired", "degraded_peers",
                     "faults_injected"):
            assert isinstance(counters[f"net.{name}"], int)

    def test_database_search_validates_policy(self):
        # A local database has no peer to skip: the option is gone
        # there, and both distributed surfaces validate it the same way.
        db = Database()
        db.register("d.xml", "<d>needle</d>")
        assert db.search("needle")
        with pytest.raises(TypeError):
            db.search("needle", on_peer_failure="degrade")
        origin = XRPCPeer("p0.example.org", SimulatedNetwork())
        for call in (lambda: origin.execute_query("1", on_peer_failure="no"),
                     lambda: origin.keyword_search("x", on_peer_failure="no")):
            with pytest.raises(ValueError, match="'fail' or 'degrade'"):
                call()

    def test_database_timeout_budget_enforced(self):
        db = Database()
        db.register("d.xml", "<d/>")
        assert db.execute("doc('d.xml')", timeout=30.0)
        with pytest.raises(DeadlineExceeded):
            db.execute("doc('d.xml')", timeout=-1.0)
