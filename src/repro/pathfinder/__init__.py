"""Pathfinder-style loop-lifting compilation (sections 3.1–3.2).

Translates a core-XQuery subset into plans over the
:mod:`repro.algebra` iter|pos|item tables, with ``execute at`` compiled
per the Figure 2 rule: establish the distinct destination peers, build a
per-peer request table via the map-table construction, ship **one Bulk
RPC per peer** (dispatched in parallel), and merge-union the mapped-back
results to restore iteration order.

Path expressions over the downward axes compile to relational axis-step
operators (:mod:`repro.algebra.paths`) — window predicates over the
structural index's pre/size/level columns — so queries mixing ``execute
at`` with path steps no longer fall back wholesale to the interpreter.
:meth:`repro.engine.base.Engine.execute` provides the
fallback-with-telemetry entry point.

This module is the faithful, table-level realization of the paper's
technique; the production query path of :class:`~repro.rpc.XRPCPeer`
uses an operationally-equivalent batching executor that supports the
full language (see DESIGN.md).
"""

from repro.pathfinder.compiler import (
    LoopLiftingCompiler,
    LoopLiftedQuery,
    UnsupportedExpression,
)

__all__ = [
    "LoopLiftingCompiler",
    "LoopLiftedQuery",
    "UnsupportedExpression",
]
