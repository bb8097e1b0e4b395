"""The static-analysis report types.

:class:`QueryProperties` is the per-query report
:func:`~repro.analysis.analyzer.analyze_compiled` produces; it is
immutable and cheap to hold on an :class:`~repro.engine.base.Explain`
or a plan-cache entry.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional


@dataclass(frozen=True)
class Diagnostic:
    """One semantic finding with its source span.

    ``severity`` is ``"error"`` (the query cannot evaluate correctly:
    unknown function, unbound variable) or ``"warning"`` (suspicious
    but evaluable: a remote call the local module registry cannot
    resolve, a nested ``execute at`` that dispatches from the remote
    peer).  ``code`` is a W3C error code (``XPST0017``, ``XPST0008``,
    ``XPST0081``) or an analyzer-specific slug
    (``unreachable-remote-body``).  ``line``/``column`` are 1-based
    positions in the main query source, ``None`` for synthesized nodes.
    """

    severity: str
    code: str
    message: str
    line: Optional[int] = None
    column: Optional[int] = None

    def render(self, uri: str = "<query>") -> str:
        """``uri:line:col: severity [code]: message`` — the compiler-
        style line the CLI ``check`` subcommand prints."""
        location = f"{self.line}:{self.column}" \
            if self.line is not None else "-"
        return f"{uri}:{location}: {self.severity} [{self.code}]: " \
               f"{self.message}"


@dataclass(frozen=True)
class SiteProfile:
    """``execute at`` profile of the locally-evaluated expression tree.

    ``count`` covers the query body plus the bodies of locally-called
    functions (transitively) — but *not* the bodies of ``execute at``
    target functions, which run at the remote peer.  ``destinations``
    holds the statically-known (string-literal) destination URIs;
    ``dynamic_destinations`` counts sites whose destination is computed
    at runtime.  ``updating_remote`` reports that some site calls an
    updating function, or a function the local registry cannot resolve
    (conservatively treated as updating); it is a fact about the query,
    not a route — an updating call ships from the lifted plan like any
    other.
    """

    count: int = 0
    destinations: tuple = ()
    dynamic_destinations: int = 0
    updating_remote: bool = False


@dataclass(frozen=True)
class QueryProperties:
    """Everything the static pass learned about one compiled query.

    ``liftable`` is the verdict: the lifted compiler's dry run (the plan
    over zero iterations) raises no fallback under the analyzed
    capabilities and bindings.  It is final — a liftable query runs
    lifted, and what fails on the data raises the interpreter's XQuery
    error, not a fallback.

    ``updating`` covers the full locally-evaluated expression tree:
    XQUF update expressions, ``fn:put``, locally-called updating
    functions, and updating (or unresolvable) remote calls.
    """

    liftable: bool
    fallback_reason: Optional[str] = None
    fallback_code: Optional[str] = None
    updating: bool = False
    updating_local: bool = False
    sites: SiteProfile = field(default_factory=SiteProfile)
    diagnostics: tuple = ()

    @property
    def errors(self) -> tuple:
        return tuple(d for d in self.diagnostics if d.severity == "error")

    @property
    def warnings(self) -> tuple:
        return tuple(d for d in self.diagnostics if d.severity == "warning")

    @property
    def ok(self) -> bool:
        """No error-severity diagnostics (the ``repro check`` gate)."""
        return not self.errors

    def render(self) -> str:
        """One-line summary for :meth:`Explain.render`."""
        parts = [f"liftable={'yes' if self.liftable else 'no'}"]
        if not self.liftable and self.fallback_code:
            parts[-1] += f" [{self.fallback_code}]"
        parts.append(f"updating={'yes' if self.updating else 'no'}")
        if self.sites.count:
            where = ", ".join(self.sites.destinations)
            if self.sites.dynamic_destinations:
                dyn = f"{self.sites.dynamic_destinations} dynamic"
                where = f"{where}, {dyn}" if where else dyn
            parts.append(f"sites={self.sites.count} ({where})"
                         if where else f"sites={self.sites.count}")
        if self.diagnostics:
            parts.append(f"{len(self.errors)} error(s), "
                         f"{len(self.warnings)} warning(s)")
        return "analysis: " + ", ".join(parts)
