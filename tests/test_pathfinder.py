"""Loop-lifting compiler tests, culminating in the Figure 1 reproduction."""

import pytest

from repro.algebra import Table
from repro.pathfinder import (LoopLiftedQuery, LoopLiftingCompiler,
                              UnsupportedExpression)
from repro.xdm.atomic import string
from repro.xquery.context import ExecutionContext
from repro.xquery.evaluator import CompiledQuery
from tests.helpers import strings, values

FILM_MODULE = """
module namespace f = "films";
declare function f:filmsByActor($actor as xs:string) as node()* { () };
"""


def make_registry():
    from repro.xquery.modules import ModuleRegistry
    registry = ModuleRegistry()
    registry.register_source(FILM_MODULE, location="film.xq")
    return registry


def lifted_query(source, dispatch=None, trace=False):
    return LoopLiftedQuery(CompiledQuery(source, make_registry()),
                           ExecutionContext(dispatch=dispatch), trace=trace)


class TestCoreLifting:
    def run(self, query):
        return lifted_query(query).run()

    def test_literal(self):
        assert values(self.run("42")) == [42]

    def test_sequence(self):
        assert values(self.run("(1, 2, 3)")) == [1, 2, 3]

    def test_range(self):
        assert values(self.run("1 to 4")) == [1, 2, 3, 4]

    def test_for_loop(self):
        assert values(self.run("for $x in (10, 20) return $x")) == [10, 20]

    def test_nested_loops_q5(self):
        # The paper's Q5: all four iterations yield ($x, $y).
        query = ("for $x in (10, 20) return for $y in (100, 200) "
                 "let $z := ($x, $y) return $z")
        assert values(self.run(query)) == [10, 100, 10, 200, 20, 100, 20, 200]

    def test_loop_lifting_q5_tables(self):
        """Section 3.1's worked example: ``z := ($x, $y)`` under Q5's
        four-iteration loop, from the paper's $x and $y tables."""
        compiled = CompiledQuery("declare variable $x external; "
                                 "declare variable $y external; ($x, $y)")
        ipi = ("iter", "pos", "item")
        env = {
            "x": Table(ipi, [(1, 1, 10), (2, 1, 10), (3, 1, 20), (4, 1, 20)]),
            "y": Table(ipi, [(1, 1, 100), (2, 1, 200), (3, 1, 100),
                             (4, 1, 200)]),
        }
        loop = Table(("iter",), [(1,), (2,), (3,), (4,)])
        z = LoopLiftingCompiler(compiled.static).compile_expr(
            compiled.ast.body, loop, env)
        assert z.rows == [
            (1, 1, 10), (1, 2, 100),
            (2, 1, 10), (2, 2, 200),
            (3, 1, 20), (3, 2, 100),
            (4, 1, 20), (4, 2, 200),
        ]

    def test_let(self):
        assert values(self.run("let $x := 5 return ($x, $x)")) == [5, 5]

    def test_arithmetic_lifted(self):
        assert values(self.run("for $x in (1, 2) return $x * 10")) == [10, 20]

    def test_where(self):
        query = "for $x in (1, 2, 3, 4) where $x > 2 return $x"
        assert values(self.run(query)) == [3, 4]

    def test_concat_lifted(self):
        query = ("for $n in ('Julie', 'Sean') "
                 "return concat($n, ' ', 'Connery')")
        assert values(self.run(query)) == ["Julie Connery", "Sean Connery"]

    def test_unsupported_falls_out(self):
        with pytest.raises(UnsupportedExpression):
            self.run("for $x in (2, 1) order by $x return $x")


class TestLoopLiftedExecuteAt:
    """The Figure 1 / Figure 2 translation on the Q3-shaped query."""

    Q3 = """
    import module namespace f="films" at "film.xq";
    for $actor in ("Julie Andrews", "Sean Connery")
    for $dst in ("xrpc://y.example.org", "xrpc://z.example.org")
    return execute at {$dst} { f:filmsByActor($actor) }
    """

    FILMS = {
        ("y.example.org", "Julie Andrews"): [],
        ("y.example.org", "Sean Connery"): ["The Rock", "Goldfinger"],
        ("z.example.org", "Julie Andrews"): ["Sound Of Music"],
        ("z.example.org", "Sean Connery"): [],
    }

    def _dispatch(self, log):
        def dispatch(peer, module, location, function, arity, calls, updating):
            from repro.net.transport import normalize_peer_uri
            key = normalize_peer_uri(peer)
            [actors] = calls.columns  # one iter|pos|item column
            log.append((key, [item.string_value() for _, _, item in actors]))
            return [
                [string(name) for name in self.FILMS[(key, item.string_value())]]
                for _, _, item in actors
            ]
        return dispatch

    def test_one_bulk_request_per_peer(self):
        log = []
        query = lifted_query(self.Q3, self._dispatch(log))
        query.run()
        assert len(log) == 2
        # Each peer receives both actors' calls in ONE request, in
        # iteration order — the out-of-order processing of section 3.2.
        assert log[0] == ("y.example.org", ["Julie Andrews", "Sean Connery"])
        assert log[1] == ("z.example.org", ["Julie Andrews", "Sean Connery"])

    @pytest.mark.parametrize("destination", [
        "()", "for $j in (1 to $i) return 'xrpc://y.example.org'"])
    def test_destination_is_one_string_before_anything_ships(
            self, destination):
        # The interpreter's XPTY0004 (no destination, or two in the
        # second iteration), raised before any iteration's call ships.
        from repro.errors import TypeError_
        log = []
        query = lifted_query(
            'import module namespace f="films" at "film.xq"; '
            f'for $i in (1, 2) return execute at {{ {destination} }} '
            '{ f:filmsByActor("Sean Connery") }', self._dispatch(log))
        with pytest.raises(TypeError_, match="XPTY0004"):
            query.run()
        assert log == []

    def test_final_result_order_restored(self):
        query = lifted_query(self.Q3, self._dispatch([]))
        result = query.run()
        # Despite out-of-order bulk execution, the merge-union on iter
        # restores the query's iteration order: Julie@z (iter 2), then
        # Sean@y (iter 3); iters 1 and 4 are empty.
        assert values(result) == ["Sound Of Music", "The Rock", "Goldfinger"]

    def test_figure_1_intermediate_tables(self):
        """Assert the exact map/req/msg/res tables of Figure 1."""
        query = lifted_query(self.Q3, self._dispatch([]), trace=True)
        result = query.run()
        [trace] = query.trace

        y_entry, z_entry = trace["per_peer"]

        # map_p1: iters 1,3 (odd iterations go to y) -> iterp 1,2
        assert y_entry["map"].rows == [(1, 1), (3, 2)]
        # map_p2: iters 2,4 -> iterp 1,2
        assert z_entry["map"].rows == [(2, 1), (4, 2)]

        # req_p1: per-call parameter table (iterp|pos|item)
        [req_y] = y_entry["req"]
        assert [(r[0], r[1], r[2].string_value()) for r in req_y.rows] == [
            (1, 1, "Julie Andrews"), (2, 1, "Sean Connery")]

        # msg_p1: y answers iterp 2 with two films
        msg_y = y_entry["msg"]
        assert [(r[0], r[1], r[2].string_value()) for r in msg_y.rows] == [
            (2, 1, "The Rock"), (2, 2, "Goldfinger")]

        # msg_p2: z answers iterp 1 with one film
        msg_z = z_entry["msg"]
        assert [(r[0], r[1], r[2].string_value()) for r in msg_z.rows] == [
            (1, 1, "Sound Of Music")]

        # res_p1 mapped back to original iters
        res_y = y_entry["res"]
        assert [(r[0], r[1], r[2].string_value()) for r in res_y.rows] == [
            (3, 1, "The Rock"), (3, 2, "Goldfinger")]
        res_z = z_entry["res"]
        assert [(r[0], r[1], r[2].string_value()) for r in res_z.rows] == [
            (2, 1, "Sound Of Music")]

        # Final merge-union, ordered by iter:
        final = trace["result"]
        assert [(r[0], r[1], r[2].string_value()) for r in final.rows] == [
            (2, 1, "Sound Of Music"),
            (3, 1, "The Rock"),
            (3, 2, "Goldfinger"),
        ]
        assert strings(result) == ["Sound Of Music", "The Rock", "Goldfinger"]

    def test_constant_destination_single_request(self):
        log = []
        query_text = """
        import module namespace f="films" at "film.xq";
        for $actor in ("Julie Andrews", "Sean Connery")
        let $dst := "xrpc://y.example.org"
        return execute at {$dst} { f:filmsByActor($actor) }
        """
        query = lifted_query(query_text, self._dispatch(log))
        result = query.run()
        assert len(log) == 1  # the paper's Q2: one bulk message total
        assert values(result) == ["The Rock", "Goldfinger"]

    def test_position_variable(self):
        query = lifted_query("for $x at $i in ('a', 'b', 'c') return $i")
        assert values(query.run()) == [1, 2, 3]
