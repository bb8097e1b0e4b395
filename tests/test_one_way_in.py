"""One way in: every execution takes its plan from ``Engine.run``, every
remote call leaves through ``ExecutionContext.dispatch``, and a served
body's verdict is decided once per bound signature — a Bulk RPC message
is served by that verdict and never re-run."""

from repro.engine import Engine
from repro.net import SimulatedNetwork
from repro.pathfinder import LoopLiftingCompiler
from repro.rpc import XRPCPeer
from repro.session import Database
from repro.soap.messages import build_request
from repro.xdm.atomic import integer, string
from repro.xquery.context import LOCAL_NS, ExecutionContext
from repro.xquery.evaluator import CompiledQuery
from tests.helpers import values
from tests.test_bulk_serving import (PIDS, make_site, per_call_reply,
                                     request_for)


def counting(monkeypatch, owner, name) -> list:
    """Wrap ``owner.name``; the returned list grows by one per call."""
    calls: list = []
    original = getattr(owner, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)
    monkeypatch.setattr(owner, name, wrapper)
    return calls


class TestServedVerdict:
    def test_checked_once_per_bound_signature(self, monkeypatch):
        serving = make_site()
        checks = counting(monkeypatch, LoopLiftingCompiler, "check")
        for size in (1, 7, 3):
            calls = [[[string(PIDS[k % len(PIDS)])]] for k in range(size)]
            reply = serving.server.handle(
                build_request(request_for("b:Q_B3", calls)))
            assert "env:Fault" not in reply
        assert len(checks) == 1
        assert serving.server.calls_lifted == 11

    def test_a_lifted_body_fault_is_the_messages(self, monkeypatch):
        serving, reference = make_site(), make_site()
        served_per_call = counting(monkeypatch, serving, "run_call")
        calls = [[[integer(1)]] for _ in range(5)]
        calls[3] = [[string("one")]]
        request = request_for("t:next", calls)
        reply = serving.server.handle(build_request(request))
        assert served_per_call == []
        assert reply == per_call_reply(reference, request)
        assert "cannot convert xs:string to xs:integer" in reply
        assert serving.server.calls_handled == 0

    def test_a_zero_call_message_evaluates_nothing(self, monkeypatch):
        serving = make_site()
        evaluated = counting(monkeypatch, LoopLiftingCompiler, "evaluate")
        request = request_for("b:Q_B3", [], arity=1)
        reply = serving.server._handle_request(request)
        assert evaluated == []
        assert "env:Fault" not in reply
        assert (serving.server.calls_handled,
                serving.server.calls_lifted) == (0, 0)


class TestOneRouter:
    QUERY = "for $i in (1, 2, 3) where $i > 1 return $i * 2"

    def test_pinned_interpreter_reports_no_verdict(self):
        peer = XRPCPeer("a", SimulatedNetwork())
        result = peer.execute_query(self.QUERY, force_one_at_a_time=True)
        explain = Database(try_lifted=False).explain(self.QUERY)
        for reported in (result.explain(), explain):
            assert reported.plan == "interpreter"
            assert reported.fallback_reason is None
            assert reported.fallback_code is None
            assert reported.analysis is None
        assert values(result.sequence) == [4, 6]

    def test_both_surfaces_take_the_router(self, monkeypatch):
        routed = counting(monkeypatch, Engine, "run")
        peer = XRPCPeer("a", SimulatedNetwork())
        assert peer.execute_query(self.QUERY).plan == "lifted"
        assert Database().explain(self.QUERY).plan == "lifted"
        assert len(routed) == 2


class TestOneRemoteHook:
    def test_the_interpreter_ships_through_dispatch(self):
        compiled = CompiledQuery("""
        declare function local:f($x) { $x };
        for $i in (1, 2) return execute at {"xrpc://x"} { local:f($i) }
        """)
        shipped = []

        def dispatch(destination, module, location, function, arity,
                     calls, updating):
            shipped.append((destination, module, function, arity,
                            calls.count, updating))
            [(_it, _pos, item)] = calls.columns[0]
            return [[integer(10 * item.value)]]

        result, pul = compiled.run(ExecutionContext(dispatch=dispatch))
        assert values(result) == [10, 20] and not pul
        assert shipped == [("xrpc://x", LOCAL_NS, "f", 1, 1, False)] * 2
