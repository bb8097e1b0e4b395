"""Shape tests for the experiment harnesses (reduced scales).

These assert the *qualitative* findings of the paper's evaluation —
who wins, by roughly what factor — not absolute milliseconds.
"""

import pytest

from repro.experiments import (
    Table2Experiment,
    Table3Experiment,
    Table4Experiment,
    ThroughputExperiment,
)
from repro.workloads.xmark import XMarkConfig


class TestTable2Shape:
    @pytest.fixture(scope="class")
    def rows(self):
        return Table2Experiment(iterations=(1, 200)).run()

    def _cell(self, rows, mechanism, cache, x):
        for row in rows:
            if (row.mechanism, row.function_cache, row.iterations) == \
                    (mechanism, cache, x):
                return row.milliseconds
        raise KeyError

    def test_single_call_bulk_overhead_is_small(self, rows):
        one = self._cell(rows, "one-at-a-time", False, 1)
        bulk = self._cell(rows, "bulk", False, 1)
        # Paper: 133 vs 130 — near-identical at $x=1.
        assert abs(one - bulk) / one < 0.10

    def test_one_at_a_time_scales_linearly(self, rows):
        single = self._cell(rows, "one-at-a-time", True, 1)
        many = self._cell(rows, "one-at-a-time", True, 200)
        assert many > 100 * single

    def test_bulk_amortizes_latency(self, rows):
        single = self._cell(rows, "bulk", True, 1)
        many = self._cell(rows, "bulk", True, 200)
        # Paper: 2.7 -> 4 msec for 1000x the calls.
        assert many < 20 * single

    def test_function_cache_removes_compile_cost(self, rows):
        cold = self._cell(rows, "bulk", False, 1)
        warm = self._cell(rows, "bulk", True, 1)
        # Paper: 130 -> 2.7 (the 130ms module translation disappears).
        assert cold - warm > 100

    def test_bulk_beats_one_at_a_time_at_scale(self, rows):
        bulk = self._cell(rows, "bulk", True, 200)
        one = self._cell(rows, "one-at-a-time", True, 200)
        assert one / bulk > 20

    def test_render_contains_grid(self, rows):
        text = Table2Experiment.render(rows)
        assert "one-at-a-time" in text
        assert "bulk" in text


class TestTable3Shape:
    @pytest.fixture(scope="class")
    def experiment(self):
        return Table3Experiment(calls=(1, 200),
                                xmark=XMarkConfig(persons=400))

    @pytest.fixture(scope="class")
    def rows(self, experiment):
        return experiment.run()

    def _row(self, rows, function, calls):
        for row in rows:
            if (row.function, row.calls) == (function, calls):
                return row
        raise KeyError

    def test_compile_constant_in_calls(self, rows):
        single = self._row(rows, "echoVoid", 1)
        many = self._row(rows, "echoVoid", 200)
        # Compile is per-request, independent of the number of calls.
        assert many.compile_ms < single.compile_ms * 5 + 5.0

    def test_echo_void_total_far_sublinear(self, rows):
        single = self._row(rows, "echoVoid", 1)
        many = self._row(rows, "echoVoid", 200)
        assert many.total_ms < 100 * single.total_ms

    def test_getperson_exec_becomes_join(self, rows):
        single = self._row(rows, "getPerson", 1)
        many = self._row(rows, "getPerson", 200)
        # Paper: exec grows ~3x for 1000 calls, far below linear; allow
        # generous slack for interpreter overhead but require strongly
        # sublinear growth (the hash-index join effect).
        assert many.exec_ms < 60 * max(single.exec_ms, 0.1)

    def test_treebuild_grows_with_request_size(self, rows):
        single = self._row(rows, "echoVoid", 1)
        many = self._row(rows, "echoVoid", 200)
        assert many.treebuild_ms > single.treebuild_ms

    def test_results_counted(self, experiment):
        row = experiment.measure("getPerson", 3)
        assert row.calls == 3


class TestTable4Shape:
    @pytest.fixture(scope="class")
    def rows(self):
        # Modeled mode: strategies really execute (results and volumes
        # verified) and times derive deterministically from the measured
        # volumes + the paper-calibrated cost constants, so the ordering
        # assertions below cannot flake on a noisy host.
        config = XMarkConfig(persons=40, closed_auctions=1500, matches=6,
                             annotation_words=15)
        return Table4Experiment(xmark=config, mode="modeled").run()

    def _by_name(self, rows):
        return {row.strategy: row for row in rows}

    def test_all_strategies_agree_on_results(self, rows):
        assert all(row.results == 6 for row in rows)

    # This auctions.xml is almost all closed auctions, so data shipping
    # (one fetch of it) ships fewer bytes than push-down and models
    # faster than the semi-join, unlike the paper's 50 MB document.
    # Whether these assertions or the workload change is an open item
    # on ROADMAP.md; strict, so the marker goes when either does.
    _FETCHED_ONCE = pytest.mark.xfail(strict=True, reason=(
        "data shipping fetches the closed-auction-only auctions.xml "
        "once; open ROADMAP item"))

    @_FETCHED_ONCE
    def test_semijoin_is_fastest(self, rows):
        table = self._by_name(rows)
        semijoin = table["distributed semi-join"].total_ms
        assert all(semijoin <= row.total_ms for row in rows), \
            [(row.strategy, round(row.total_ms, 1)) for row in rows]

    def test_relocation_is_slowest(self, rows):
        table = self._by_name(rows)
        relocation = table["execution relocation"].total_ms
        assert all(relocation >= row.total_ms for row in rows)

    def test_relocation_relieves_local_peer(self, rows):
        table = self._by_name(rows)
        relocation = table["execution relocation"]
        data_shipping = table["data shipping"]
        # Paper: MonetDB time 69ms under relocation vs 16.5s data shipping.
        assert relocation.local_ms < data_shipping.local_ms / 3

    @_FETCHED_ONCE
    def test_pushdown_ships_less_than_data_shipping(self, rows):
        table = self._by_name(rows)
        assert table["predicate push-down"].bytes_shipped < \
            table["data shipping"].bytes_shipped

    def test_semijoin_ships_least(self, rows):
        table = self._by_name(rows)
        semijoin = table["distributed semi-join"].bytes_shipped
        assert all(semijoin <= row.bytes_shipped for row in rows)

    def test_semijoin_uses_single_bulk_message(self, rows):
        table = self._by_name(rows)
        # 60 probes but bulk RPC ships them in one message (plus none
        # extra for results).
        assert table["distributed semi-join"].messages == 1


class TestThroughputShape:
    def test_response_path_faster_than_request_path(self):
        rows = ThroughputExperiment(rows_per_payload=800).run()
        request = next(r for r in rows if r.direction == "request")
        response = next(r for r in rows if r.direction == "response")
        # Paper: 8 MB/s requests vs 14 MB/s responses (shredding is the
        # bottleneck on the request path).
        assert response.mb_per_second > request.mb_per_second
