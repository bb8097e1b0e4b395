"""Parse-frontend telemetry.

:data:`PARSE_STATS` counts what the message-path parse frontend actually
did, surfaced through ``Explain.counters`` and
``Database.stats().counters`` as ``parse.*`` (see :mod:`repro.obs`).
"""

from __future__ import annotations

from repro.obs import Counters

#: Process-wide counters of the parse frontend (messages parse on any
#: thread).
PARSE_STATS = Counters("parse", {
    "documents_expat": "documents parsed by the expat backend",
    "documents_python":
        "documents parsed by the pure-python parser",
    "bytes_expat": "bytes/characters the expat backend parsed",
    "bytes_python": "bytes/characters the pure-python parser parsed",
    "fallbacks_to_python":
        "expat parses re-run on the pure-python parser (malformed input "
        "re-diagnosed for uniform errors, or constructs outside the expat "
        "subset such as internal-subset markup declarations)",
})


def count_parse(backend: str, size: int) -> None:
    """Record one parsed document of *size* bytes/characters."""
    PARSE_STATS.bump(f"documents_{backend}")
    PARSE_STATS.bump(f"bytes_{backend}", size)
