"""Benchmark regenerating Table 4: Q7 under four distribution strategies.

The default (modeled) mode runs the strategies for real at the paper's
cardinalities (250 persons, 4875 closed auctions, 6 matches) and derives
deterministic times from the measured volumes; a reduced-scale measured
(wall-time) variant is benchmarked alongside as a reality check.
"""

import pytest

from repro.experiments.table4 import Table4Experiment
from repro.strategies import STRATEGY_NAMES
from repro.workloads.xmark import XMarkConfig

_PAPER_SCALE = XMarkConfig(persons=250, closed_auctions=4875, matches=6)
_SMALL_SCALE = XMarkConfig(persons=40, closed_auctions=800, matches=6)


@pytest.mark.parametrize("strategy", STRATEGY_NAMES)
def test_table4_strategy_modeled(benchmark, strategy):
    experiment = Table4Experiment(xmark=_PAPER_SCALE, mode="modeled")
    row = benchmark.pedantic(
        experiment.measure, args=(strategy,), rounds=1, iterations=1)
    benchmark.extra_info.update({
        "strategy": strategy,
        "total_ms": round(row.total_ms, 1),
        "monetdb_ms": round(row.local_ms, 1),
        "saxon_ms": round(row.remote_ms, 1),
        "kb_shipped": round(row.bytes_shipped / 1024, 1),
        "messages": row.messages,
    })
    assert row.results == 6


# This auctions.xml is almost all closed auctions, so data shipping
# (one fetch of it) ships fewer bytes than push-down and models faster
# than the semi-join, unlike the paper's 50 MB document.  Whether
# the ordering or the workload changes is an open item on ROADMAP.md;
# strict, so the marker goes when either does.
@pytest.mark.xfail(strict=True, reason=(
    "data shipping fetches the closed-auction-only auctions.xml once; "
    "open ROADMAP item"))
def test_table4_full_modeled(benchmark, report):
    experiment = Table4Experiment(xmark=_PAPER_SCALE, mode="modeled")
    rows = benchmark.pedantic(experiment.run, rounds=1, iterations=1)
    report(Table4Experiment.render(rows))

    table = {row.strategy: row for row in rows}
    # The paper's ordering: semi-join < push-down < data shipping <
    # relocation; relocation relieves the MonetDB peer.
    assert table["distributed semi-join"].total_ms == \
        min(row.total_ms for row in rows)
    assert table["execution relocation"].total_ms == \
        max(row.total_ms for row in rows)
    assert table["predicate push-down"].total_ms < \
        table["data shipping"].total_ms
    assert table["execution relocation"].local_ms < \
        table["data shipping"].local_ms


def test_table4_measured_small_scale(benchmark, report):
    """Wall-clock reality check at reduced scale (host-dependent)."""
    experiment = Table4Experiment(xmark=_SMALL_SCALE, mode="measured")
    rows = benchmark.pedantic(
        experiment.run, kwargs={"repeats": 2}, rounds=1, iterations=1)
    report("Measured (wall) at reduced scale:\n"
           + Table4Experiment.render(rows))
    assert all(row.results == 6 for row in rows)
