"""XMark read-suite coverage: 100% lifted, oracle-identical.

The acceptance gate for the closed lifted core: every query in
:data:`repro.workloads.xmark.READ_SUITE` must execute with ``plan ==
"lifted"`` and no fallback, and return exactly what an interpreter
returns — the product's own (``accel``: staircase scans and value
indexes) and the oracle of :mod:`repro.reference` (``naive``: per-node
walkers, no index) — on gapped and on dense pre-plane encodings.  A
query that starts recording a fallback fails here, so a regression in
any window kernel is visible per axis.
"""

import pytest

from repro.workloads.xmark import READ_SUITE, XMarkConfig
from tests.helpers import assert_runs_lifted, xmark_resolver

CONFIG = XMarkConfig(persons=10, closed_auctions=20, open_auctions=5,
                     matches=3)


@pytest.fixture(scope="module", params=[False, True], ids=["gapped", "dense"])
def resolver(request):
    return xmark_resolver(CONFIG, dense=request.param)


@pytest.mark.parametrize("oracle", ["accel", "naive"])
@pytest.mark.parametrize("name", sorted(READ_SUITE))
def test_read_suite_runs_lifted(resolver, name, oracle):
    result, _ = assert_runs_lifted(READ_SUITE[name], resolver, oracle)
    assert result, f"read-suite query unexpectedly empty: {name}"
