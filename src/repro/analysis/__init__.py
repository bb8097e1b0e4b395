"""Prepare-time static query analysis.

One pass over a compiled query's AST answers, *before* execution, the
questions XRPC's front door needs for admission and routing (Zhang &
Boncz, VLDB'07): can the plan loop-lift, is the query updating, which
``execute at`` sites does it touch, and is it semantically well-formed
(known functions, bound variables) — each finding carried with a
``line:column`` source span.

Entry point: :func:`analyze_compiled` (memoized per compiled query, so
plan-cache hits pay nothing).  The liftability verdict is the
loop-lifting compiler's own :meth:`check
<repro.pathfinder.compiler.LoopLiftingCompiler.check>` — the plan run
over zero iterations — so "liftable" is a question only the compiler
answers, once per prepared query; executions consult the answer.
"""

from repro.analysis.analyzer import analyze_compiled
from repro.analysis.properties import Diagnostic, QueryProperties, SiteProfile

__all__ = [
    "Diagnostic",
    "QueryProperties",
    "SiteProfile",
    "analyze_compiled",
]
