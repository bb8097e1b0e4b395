"""Pathfinder-style loop-lifting compilation (sections 3.1–3.2).

Translates a core-XQuery subset into plans over the
:mod:`repro.algebra` iter|pos|item tables, with ``execute at`` compiled
per the Figure 2 rule: establish the distinct destination peers, build a
per-peer request table via the map-table construction, ship **one Bulk
RPC per peer** (dispatched in parallel), and merge-union the mapped-back
results to restore iteration order.

Path expressions over all twelve XPath axes compile to relational
axis-step operators (:mod:`repro.algebra.paths`) — window predicates
over the structural index's pre/size/level columns — so queries mixing
``execute at`` with path steps do not fall back wholesale to the
interpreter.  What is liftable only the compiler says:
:meth:`LoopLiftingCompiler.check` is the plan run over zero iterations.
:meth:`repro.engine.base.Engine.execute` provides the
fallback-with-telemetry entry point.

This module is the faithful, table-level realization of the paper's
technique; :class:`~repro.rpc.XRPCPeer` runs every query it takes this
way, and what it does not take once in the tree interpreter, one
``execute at`` call per message (README, "The pathfinder lifted core").
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
