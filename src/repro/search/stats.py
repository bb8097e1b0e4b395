"""Keyword-search telemetry.

:data:`SEARCH_STATS` counts what the term index and the posting-list
query plans did, surfaced through ``Explain.counters`` and
``Database.stats().counters`` as ``search.*`` (see :mod:`repro.obs`).
"""

from __future__ import annotations

from repro.obs import Counters

#: Process-wide counters of the keyword-search subsystem (searches may
#: run from any thread).
SEARCH_STATS = Counters("search", {
    "term_index_builds":
        "full `TermIndex` (re)builds (stays flat across updates the PUL "
        "hooks maintain incrementally)",
    "postings_built": "(term, serial) postings materialized by full builds",
    "postings_patched":
        "postings added or removed by the incremental PUL hooks",
    "search_queries":
        "posting-list query plans served (lifted `contains` prefilters, "
        "`Database.search` and `sys:kw-search` calls)",
    "postings_hits": "results those plans surfaced",
})
