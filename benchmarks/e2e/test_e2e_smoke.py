"""Tier-1 smoke of the end-to-end benchmark: every workload at ``--smoke``
size (×1 documents, two cycles), traced, twice on one seed.

Timing is not asserted here — only that the benchmark still runs against
the program, reports every metric ``BENCHMARK.json`` names, counts the
same things twice, verifies its outputs, and leaves the collector alone.
The runs are launched together (each is its own interpreter, as in a real
run) so the whole module stays within a few seconds.
"""

import json
import math
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
RESULT_MARK = "E2E-RESULT "
WORKLOADS = ("local-read", "rpc-calls", "message-path", "update-mix")
EXACT = ("rpc.messages_per_op", "rpc.calls_per_message",
         "net.exchanges_per_op")


def _launch(workload: str, trace: int) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--smoke", "--seed", "7", "--trace", str(trace)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)


def _collect(process: subprocess.Popen) -> tuple[dict, dict]:
    """``(full result, the driver's last line)`` of one finished run."""
    out, err = process.communicate(timeout=120)
    assert process.returncode == 0, err
    lines = out.splitlines()
    [full] = [json.loads(line[len(RESULT_MARK):]) for line in lines
              if line.startswith(RESULT_MARK)]
    return full, json.loads(lines[-1])


@pytest.fixture(scope="module")
def runs():
    traced = {name: [_launch(name, 1), _launch(name, 1)]
              for name in WORKLOADS}
    untraced = _launch("update-mix", 0)
    return ({name: [_collect(process) for process in pair]
             for name, pair in traced.items()}, _collect(untraced))


@pytest.fixture(scope="module")
def manifest():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as source:
        return json.load(source)


def test_manifest_names_what_the_harness_reports(manifest):
    generated = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--manifest"],
        capture_output=True, text=True, check=True).stdout
    assert json.loads(generated) == manifest


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_present_finite_and_with_its_unit(
        runs, manifest, workload):
    for full, last in runs[0][workload]:
        assert set(last) == {"correct", "attempted", "failed", "metrics"}
        assert last["correct"] and last["failed"] == 0, full["failures"]
        assert last["attempted"] == full["attempted"] >= 1
        for spec in manifest["per_layer"]:
            metric = last["metrics"][spec["name"]]
            assert math.isfinite(metric["value"]), spec["name"]
            assert metric["unit"] == spec["unit"]
        assert len(last["metrics"]) == len(manifest["per_layer"])
        for spec in manifest["end_to_end"]:
            value = full["end_to_end"][spec["name"]]
            assert math.isfinite(value) and value > 0, spec["name"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counts_repeat_exactly_on_one_seed(runs, workload):
    (first, _), (second, _) = runs[0][workload]
    assert first["attempted"] == second["attempted"]
    for name in EXACT:
        assert first["per_layer"][name] == second["per_layer"][name], name
    assert sorted(first["spans"]) == sorted(second["spans"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_the_harness_leaves_the_collector_alone(runs, workload):
    for full, _ in runs[0][workload]:
        assert full["gc"]["before"] == full["gc"]["after"]
        assert full["gc"]["after"][0] is True


def test_untraced_run_reports_the_end_to_end_metrics(runs, manifest):
    full, last = runs[1]
    assert last["correct"] and last["failed"] == 0, full["failures"]
    assert set(last["metrics"]) == {
        spec["name"] for spec in manifest["end_to_end"]}
    for spec in manifest["end_to_end"]:
        metric = last["metrics"][spec["name"]]
        assert metric["unit"] == spec["unit"]
        assert math.isfinite(metric["value"]) and metric["value"] > 0
