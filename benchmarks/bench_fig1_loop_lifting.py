"""Benchmark for Figures 1/2: the loop-lifted Bulk RPC translation.

This is a correctness artifact in the paper (worked tables, not
timings); the benchmark times the algebraic compilation + evaluation and
*asserts the exact intermediate tables of Figure 1* so regressions in
the translation rule are caught where the paper specifies them.
"""


from repro.pathfinder import LoopLiftedQuery
from repro.xdm.atomic import string
from repro.xquery.context import ExecutionContext
from repro.xquery.evaluator import CompiledQuery
from repro.xquery.modules import ModuleRegistry

FILM_MODULE = """
module namespace f = "films";
declare function f:filmsByActor($actor as xs:string) as node()* { () };
"""

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


def _dispatch(peer, module, location, function, arity, calls, updating):
    from repro.net.transport import normalize_peer_uri
    key = normalize_peer_uri(peer)
    return [
        [string(name) for name in FILMS[(key, params[0][0].string_value())]]
        for params in calls
    ]


def _run_traced():
    registry = ModuleRegistry()
    registry.register_source(FILM_MODULE, location="film.xq")
    query = LoopLiftedQuery(CompiledQuery(Q3, registry),
                            ExecutionContext(dispatch=_dispatch), trace=True)
    result = query.run()
    return result, query.trace


def test_figure1_translation(benchmark):
    result, trace = benchmark.pedantic(_run_traced, rounds=3, iterations=1)
    [entry] = trace
    y_entry, z_entry = entry["per_peer"]

    # The exact map tables of Figure 1.
    assert y_entry["map"].rows == [(1, 1), (3, 2)]
    assert z_entry["map"].rows == [(2, 1), (4, 2)]

    # msg/res tables and the merge-union result.
    final = entry["result"]
    assert [(r[0], r[1], r[2].string_value()) for r in final.rows] == [
        (2, 1, "Sound Of Music"),
        (3, 1, "The Rock"),
        (3, 2, "Goldfinger"),
    ]
    assert [item.string_value() for item in result] == [
        "Sound Of Music", "The Rock", "Goldfinger"]


def test_loop_lifting_scales(benchmark):
    """Bulk-translation cost for a 1000-iteration echo-style loop."""
    registry = ModuleRegistry()
    registry.register_source(FILM_MODULE, location="film.xq")
    query_text = """
    import module namespace f="films" at "film.xq";
    for $i in (1 to 1000)
    return execute at {"xrpc://y.example.org"} { f:filmsByActor("x") }
    """
    calls_seen = []

    def dispatch(peer, module, location, function, arity, calls, updating):
        calls_seen.append(len(calls))
        return [[] for _ in calls]

    def run():
        calls_seen.clear()
        query = LoopLiftedQuery(CompiledQuery(query_text, registry),
                                ExecutionContext(dispatch=dispatch))
        return query.run()

    result = benchmark.pedantic(run, rounds=3, iterations=1)
    assert result == []
    assert calls_seen == [1000]  # one bulk request carrying all calls
