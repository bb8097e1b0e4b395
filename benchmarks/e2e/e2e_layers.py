"""Metric definitions: the end-to-end set, the wrap points of each
layer, and how the per-layer numbers come out of the trace.

``*_ms`` per-layer values are mean milliseconds **per op** over the
traced region (so runs of different length compare), counts are per op
too, and the few ``setup``-phase values are totals over set-up, where
compile/parse/index-build cost belongs when the caches work.
"""

from __future__ import annotations

import math

from e2e_trace import Site, Tracer

#: name -> (unit, better, bound).  Every workload reports all of them;
#: ``op_*`` is over the workload's headline op kind, ``second_op_*``
#: over its second kind (see the README's table).
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "ops_per_s": ("1/s", "higher", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.10),
    "op_ms_p50": ("ms", "lower", 0.25),
    "op_ms_p90": ("ms", "lower", 0.25),
    "second_op_ms_p50": ("ms", "lower", 0.25),
}


def _text_size(args, result) -> int:
    return len(args[0])


def _result_size(args, result) -> int:
    return len(result) if result is not None else 0


def _exchange_size(args, result) -> int:
    return len(args[1].payload) + _result_size(args, result)


def _pul_size(args, result) -> int:
    return len(args[0].primitives)


SITES = [
    # engine, analysis, xquery
    Site("engine.compile", "repro.engine.base", "Engine",
         "compile_with_stats"),
    Site("engine.analyze", "repro.engine.base", "Engine", "analyze"),
    Site("engine.execute", "repro.engine.base", "Engine", "execute"),
    Site("xquery.interpreter", "repro.xquery.evaluator", "CompiledQuery",
         "run"),
    Site("xquery.parse", "repro.xquery.evaluator", "", "parse_main_module"),
    Site("xquery.parse", "repro.xquery.modules", "", "parse_library_module"),
    # pathfinder, algebra
    Site("pathfinder.lifted", "repro.engine.base", "Engine",
         "attempt_lifted"),
    Site("algebra.axis_step", "repro.pathfinder.compiler", "", "axis_step"),
    Site("algebra.positional_filter", "repro.pathfinder.compiler", "",
         "positional_filter"),
    Site("algebra.tables_built", "repro.algebra.table", "Table", "__init__",
         count_only=True),
    # xdm.structural
    Site("xdm.index_build", "repro.xdm.structural", "StructuralIndex",
         "__init__"),
    Site("xdm.value_index", "repro.algebra.paths", "", "axis_value_index"),
    Site("xdm.value_index", "repro.xquery.evaluator", "",
         "axis_value_index"),
    # search
    Site("search.term_index_build", "repro.search.index", "TermIndex",
         "__init__"),
    Site("search.contains", "repro.pathfinder.compiler", "",
         "contains_filter"),
    # xquf
    Site("xquf.apply", "repro.xquf.pul", "", "apply_updates", _pul_size),
    Site("xquf.apply", "repro.rpc.peer", "", "apply_updates", _pul_size),
    Site("xquf.apply", "repro.rpc.server", "", "apply_updates", _pul_size),
    Site("xquf.apply", "repro.rpc.isolation", "", "apply_updates",
         _pul_size),
    # xml
    Site("xml.parse", "repro.xml.parser", "", "parse_document", _text_size),
    Site("xml.parse", "repro.soap.messages", "", "parse_document",
         _text_size),
    Site("xml.parse", "repro.rpc.store", "", "parse_document", _text_size),
    Site("xml.serialize", "repro.xml.serializer", "", "serialize",
         _result_size),
    Site("xml.serialize", "repro.xml.serializer", "", "serialize_sequence",
         _result_size),
    # soap: one parse_message, named by who uses it
    Site("soap.build_request", "repro.rpc.client", "", "build_request",
         _result_size),
    Site("soap.parse_request", "repro.rpc.server", "", "parse_message",
         _text_size),
    Site("soap.build_response", "repro.rpc.server", "", "build_response",
         _result_size),
    Site("soap.parse_response", "repro.rpc.client", "", "parse_message",
         _text_size),
    # net
    Site("net.exchange", "repro.net.http", "HttpTransport", "exchange",
         _exchange_size, exchange=True),
    # rpc
    Site("rpc.execute_query", "repro.rpc.peer", "XRPCPeer", "execute_query"),
    Site("rpc.run_function", "repro.rpc.peer", "XRPCPeer", "run_function"),
    Site("rpc.client_call", "repro.rpc.client", "ClientSession", "call"),
    Site("rpc.client_call", "repro.rpc.client", "ClientSession",
         "call_parallel"),
    Site("rpc.txn_command", "repro.rpc.client", "ClientSession",
         "send_txn_command"),
    Site("rpc.server_handle", "repro.rpc.server", "XRPCServer", "handle"),
]

#: name -> (unit, better).  Reported by every workload; a layer a
#: workload does not touch reads 0, which is itself a prediction
#: (``net.wire_wait_ms`` on ``local-read``).
PER_LAYER = {
    "engine.compile_ms": ("ms", "lower"),             # set-up total
    "xquery.parse_ms": ("ms", "lower"),               # set-up total
    "engine.analyze_ms": ("ms", "lower"),
    "engine.execute_self_ms": ("ms", "lower"),
    "xquery.interpreter_ms": ("ms", "lower"),
    "engine.plan_cache_hit_ratio": ("ratio", "higher"),
    "engine.lifted_share": ("ratio", "higher"),
    "engine.fallback_count": ("count/op", "lower"),
    "pathfinder.lifted_ms": ("ms", "lower"),
    "algebra.axis_step_ms": ("ms", "lower"),
    "algebra.axis_step_calls": ("count/op", "lower"),
    "algebra.positional_filter_ms": ("ms", "lower"),
    "algebra.tables_built": ("count/op", "lower"),
    "xdm.index_build_ms": ("ms", "lower"),
    "xdm.index_builds": ("count/op", "lower"),
    "xdm.value_index_ms": ("ms", "lower"),
    "xdm.value_index_evictions": ("count/op", "lower"),
    "xdm.index_patches": ("count/op", "lower"),
    "xdm.gap_respreads": ("count/op", "lower"),
    "xdm.reencodes_full": ("count/op", "lower"),
    "search.term_index_build_ms": ("ms", "lower"),    # set-up total
    "search.term_index_builds": ("count", "lower"),   # set-up total
    "search.contains_ms": ("ms", "lower"),
    "search.postings_patched": ("count/op", "lower"),     # keyword probe
    "search.kw_after_write_ms": ("ms", "lower"),          # keyword probe
    "search.kw_wrong_share": ("ratio", "lower"),          # keyword probe
    "search.write_error_share": ("ratio", "lower"),       # keyword probe
    "xquf.apply_ms": ("ms", "lower"),
    "xquf.primitives": ("count/op", "lower"),
    "xml.parse_ms": ("ms", "lower"),
    "xml.parse_mb_per_s": ("MB/s", "higher"),
    "xml.serialize_ms": ("ms", "lower"),
    "xml.serialize_mb_per_s": ("MB/s", "higher"),
    "xml.parse_fallbacks": ("count/op", "lower"),
    "soap.build_request_ms": ("ms", "lower"),
    "soap.parse_request_self_ms": ("ms", "lower"),
    "soap.build_response_ms": ("ms", "lower"),
    "soap.parse_response_self_ms": ("ms", "lower"),
    "soap.marshal_mb_per_s": ("MB/s", "higher"),
    "soap.unmarshal_mb_per_s": ("MB/s", "higher"),
    "net.exchange_ms": ("ms", "lower"),
    "net.wire_wait_ms": ("ms", "lower"),
    "net.bytes_per_op": ("B/op", "lower"),
    "net.exchanges_per_op": ("count/op", "lower"),
    "net.connections_opened": ("count", "lower"),
    "net.connection_reuse_ratio": ("ratio", "higher"),
    "net.retries": ("count", "lower"),
    "rpc.originator_self_ms": ("ms", "lower"),
    "rpc.client_call_self_ms": ("ms", "lower"),
    "rpc.server_handle_ms": ("ms", "lower"),
    "rpc.run_function_ms": ("ms", "lower"),
    "rpc.txn_command_ms": ("ms", "lower"),
    "rpc.messages_per_op": ("count/op", "lower"),
    "rpc.calls_per_message": ("count", "higher"),
    "gc.pause_ms": ("ms", "lower"),
    "gc.gen2_collections": ("count/op", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
    "trace.attributed_share": ("ratio", "higher"),
}

def per_layer_table(queries) -> dict:
    """``PER_LAYER`` plus, per suite query, ``query_ms.<q>`` (median at
    the full scale) and ``slope.<q>`` (log-log fit of the median over the
    scale sweep)."""
    return {**PER_LAYER,
            **{f"query_ms.{name}": ("ms", "lower") for name in queries},
            **{f"slope.{name}": ("exponent", "lower") for name in queries}}


def global_counters() -> dict:
    """The process-wide counts the program keeps itself."""
    from repro.net.retry import NET_STATS
    from repro.search.stats import SEARCH_STATS
    from repro.xdm.structural import ENCODING_STATS
    from repro.xml.stats import PARSE_STATS

    return {**ENCODING_STATS.snapshot(), **SEARCH_STATS.snapshot(),
            **PARSE_STATS.snapshot(),
            "net_retries": NET_STATS.snapshot()["retries"]}


def counters(workload, tracer: Tracer) -> dict:
    """Every count of a set-up workload; per-layer counts are deltas of
    two of these snapshots."""
    snapshot = global_counters()
    snapshot.update(plan_cache_hits=0, plan_cache_misses=0, fallbacks=0,
                    tables_built=tracer.counts.get("algebra.tables_built", 0))
    for engine in workload.engines():
        cache = engine.cache_stats()
        snapshot["plan_cache_hits"] += cache["plan_cache_hits"]
        snapshot["plan_cache_misses"] += cache["plan_cache_misses"]
        snapshot["fallbacks"] += sum(engine.fallback_stats().values())
    stats = workload.peer_stats()
    for field in ("requests", "connections_opened", "connections_reused",
                  "retries", "bytes_sent", "bytes_received"):
        snapshot["peer_" + field] = getattr(stats, field) if stats else 0
    return snapshot


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def slope(points: list[tuple[float, float]]) -> float:
    """Least-squares slope of log(y) over log(x)."""
    xs = [math.log(x) for x, _ in points]
    ys = [math.log(y) for _, y in points]
    mean_x, mean_y = sum(xs) / len(xs), sum(ys) / len(ys)
    return _ratio(sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys)),
                  sum((x - mean_x) ** 2 for x in xs))


def per_layer(timed: dict, setup: dict, gc_totals: tuple[float, int],
              traced: list, before: dict, after: dict,
              setup_delta: dict) -> dict:
    """Per-layer values of one traced region: ``timed`` and ``setup`` are
    the tracer's span totals of the region and of set-up, ``traced`` the
    region's records, the rest counter snapshots."""
    ops = len(traced)
    delta = {key: after[key] - before[key] for key in after}

    def per_op(name: str, field: str = "ms") -> float:
        return timed.get(name, {}).get(field, 0.0) / ops

    def total(table: dict, name: str, field: str = "ms") -> float:
        return table.get(name, {}).get(field, 0.0)

    def mb_per_s(names: tuple[str, ...], field: str) -> float:
        return _ratio(sum(total(timed, name, "bytes") for name in names) / 1e6,
                      sum(total(timed, name, field) for name in names) / 1e3)

    planned = [r for r in traced if r.seen.get("plan")]
    shipped = [r for r in traced if "messages" in r.seen]
    op_spans = [name for name in timed if name.startswith("op.")]
    gc_ms, gen2 = gc_totals
    return {
        "engine.compile_ms": total(setup, "engine.compile"),
        "xquery.parse_ms": total(setup, "xquery.parse"),
        "engine.analyze_ms": per_op("engine.analyze"),
        "engine.execute_self_ms": per_op("engine.execute", "self_ms"),
        "xquery.interpreter_ms": per_op("xquery.interpreter"),
        "engine.plan_cache_hit_ratio": _ratio(
            delta["plan_cache_hits"],
            delta["plan_cache_hits"] + delta["plan_cache_misses"]),
        "engine.lifted_share": _ratio(
            sum(1 for r in planned if r.seen["plan"] == "lifted"),
            len(planned)),
        "engine.fallback_count": delta["fallbacks"] / ops,
        "pathfinder.lifted_ms": per_op("pathfinder.lifted"),
        "algebra.axis_step_ms": per_op("algebra.axis_step"),
        "algebra.axis_step_calls": per_op("algebra.axis_step", "calls"),
        "algebra.positional_filter_ms": per_op("algebra.positional_filter"),
        "algebra.tables_built": delta["tables_built"] / ops,
        "xdm.index_build_ms": per_op("xdm.index_build"),
        "xdm.index_builds": delta["index_builds"] / ops,
        "xdm.value_index_ms": per_op("xdm.value_index"),
        "xdm.value_index_evictions": delta["value_index_evictions"] / ops,
        "xdm.index_patches": delta["index_patches"] / ops,
        "xdm.gap_respreads": delta["gap_respreads"] / ops,
        "xdm.reencodes_full": delta["reencodes_full"] / ops,
        "search.term_index_build_ms": total(setup, "search.term_index_build"),
        "search.term_index_builds": setup_delta["term_index_builds"],
        "search.contains_ms": per_op("search.contains"),
        "xquf.apply_ms": per_op("xquf.apply"),
        "xquf.primitives": per_op("xquf.apply", "bytes"),
        "xml.parse_ms": per_op("xml.parse"),
        "xml.parse_mb_per_s": mb_per_s(("xml.parse",), "ms"),
        "xml.serialize_ms": per_op("xml.serialize"),
        "xml.serialize_mb_per_s": mb_per_s(("xml.serialize",), "ms"),
        "xml.parse_fallbacks": delta["fallbacks_to_python"] / ops,
        "soap.build_request_ms": per_op("soap.build_request"),
        "soap.parse_request_self_ms": per_op("soap.parse_request", "self_ms"),
        "soap.build_response_ms": per_op("soap.build_response"),
        "soap.parse_response_self_ms":
            per_op("soap.parse_response", "self_ms"),
        "soap.marshal_mb_per_s": mb_per_s(
            ("soap.build_request", "soap.build_response"), "ms"),
        "soap.unmarshal_mb_per_s": mb_per_s(
            ("soap.parse_request", "soap.parse_response"), "self_ms"),
        "net.exchange_ms": per_op("net.exchange"),
        # The server's handle span is the exchange span's only child, so
        # the exchange's self time is what the wire and the HTTP stacks
        # on both sides cost.
        "net.wire_wait_ms": per_op("net.exchange", "self_ms"),
        "net.bytes_per_op":
            (delta["peer_bytes_sent"] + delta["peer_bytes_received"]) / ops,
        "net.exchanges_per_op": per_op("net.exchange", "calls"),
        "net.connections_opened": delta["peer_connections_opened"],
        "net.connection_reuse_ratio": _ratio(
            delta["peer_connections_reused"],
            delta["peer_connections_reused"]
            + delta["peer_connections_opened"]),
        "net.retries": delta["net_retries"] + delta["peer_retries"],
        "rpc.originator_self_ms": per_op("rpc.execute_query", "self_ms"),
        "rpc.client_call_self_ms": per_op("rpc.client_call", "self_ms"),
        "rpc.server_handle_ms": per_op("rpc.server_handle"),
        "rpc.run_function_ms": per_op("rpc.run_function"),
        "rpc.txn_command_ms": per_op("rpc.txn_command"),
        "rpc.messages_per_op":
            sum(r.seen["messages"] for r in shipped) / ops,
        "rpc.calls_per_message": _ratio(
            sum(r.seen["calls"] for r in shipped),
            sum(r.seen["messages"] for r in shipped)),
        "gc.pause_ms": gc_ms / ops,
        "gc.gen2_collections": gen2 / ops,
        "trace.attributed_share": 1.0 - _ratio(
            sum(total(timed, name, "self_ms") for name in op_spans),
            sum(total(timed, name) for name in op_spans)),
    }
