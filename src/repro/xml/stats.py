"""Parse-frontend telemetry.

:data:`PARSE_STATS` counts what the parse frontend did, surfaced through
``Explain.counters`` and ``Database.stats().counters`` as ``parse.*``
(see :mod:`repro.obs`).
"""

from __future__ import annotations

from repro.obs import Counters

#: Process-wide counters of the parse frontend (messages parse on any
#: thread).
PARSE_STATS = Counters("parse", {
    "documents_expat": "documents parsed",
    "bytes_expat": "bytes/characters parsed",
    "fallbacks_to_python":
        "never bumped: no parser is left to fall back to.  Declared only "
        "because the benchmark reads it as xml.parse_fallbacks; both go "
        "in a benchmark PR",
})


def count_parse(size: int) -> None:
    """Record one parsed document of *size* bytes/characters."""
    PARSE_STATS.bump("documents_expat")
    PARSE_STATS.bump("bytes_expat", size)
