#!/usr/bin/env python3
"""End-to-end benchmark of the XRPC reproduction: four workloads, one
command.

    python3 benchmarks/e2e/run.py                      # all four, end to end
    python3 benchmarks/e2e/run.py --workload rpc-calls --trace 1
    python3 benchmarks/e2e/run.py --smoke --trace 1    # seconds, tiny sizes
    python3 benchmarks/e2e/run.py --repeat 5 --out A.json
    python3 benchmarks/e2e/compare.py A.json B.json

With ``--workload`` the workload runs in this process, which is how the
benchmark driver calls it; without, each workload runs in a fresh
interpreter of its own.  ``--trace 0`` measures the end-to-end metrics
with nothing installed; ``--trace 1`` measures a short untraced
reference region, then installs the tracer and measures the per-layer
metrics.  The last line of output is the result as one JSON object.

Op and set-up times are restated at a reference host from a probe the
harness runs between ops (``e2e_host``: the machine this runs on moves
between speed states a quarter apart); the wall-clock values are printed
and kept beside them as ``as_measured``.

The harness never touches the collector beyond one ``gc.collect()``
after set-up: GC cost is part of what is measured.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
RESULT_MARK = "E2E-RESULT "

#: Timed seconds per run (``run_seconds`` of BENCHMARK.json).
RUN_SECONDS = 20
#: Set-up is repeated (and the median reported) while the repeats fit
#: in this many seconds; the largest set-up runs once.
SETUP_REPEAT_BUDGET_S = 4.0
SETUP_REPEATS = 3
#: Share of ``--seconds`` a traced run spends on its untraced reference.
REFERENCE_SHARE = 0.3


def percentile(values: list[float], share: float) -> float:
    ordered = sorted(values)
    rank = share * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def environment() -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "commit": commit, "loadavg": list(os.getloadavg())}


# ---------------------------------------------------------------------------
# One workload, in this process


class Region:
    """Runs cycles of a workload, timing each op; ops are numbered
    across regions so the tracer can tell regions apart.  The host probe
    is sampled between ops, and when a region ends every op's time is
    restated at the reference host (``e2e_host``)."""

    def __init__(self, host, tracer=None, counters=None) -> None:
        self.host = host
        self.tracer = tracer
        self.counters = counters
        self.next_op = 0
        #: What the program's own counters moved during checkpoints of a
        #: traced region: not the ops' doing.
        self.untimed: dict = {}

    def run(self, workload, *, seconds=None, cycles=None, traced=False,
            first_cycle=1) -> list:
        from e2e_workloads import Record

        tracer = self.tracer if traced else None
        records: list = []
        timings: list = []
        spent = 0.0
        index = first_cycle
        while (index - first_cycle < cycles) if cycles is not None \
                else (spent < seconds):
            for op in workload.cycle(index):
                self.host.sample_if_due()
                number = self.next_op
                self.next_op += 1
                record = Record(index, op.kind, op.label)
                if tracer is not None:
                    tracer.op = number
                    span = tracer.begin("op." + op.kind)
                cpu_started = time.process_time()
                started = time.perf_counter()
                try:
                    output = op.run()
                except Exception as exc:    # a failed op never ends the run
                    output = None
                    record.error = f"{type(exc).__name__}: {exc}"
                elapsed = time.perf_counter() - started
                cpu = time.process_time() - cpu_started
                if tracer is not None:
                    tracer.end(span)
                    tracer.op = -2          # untimed work between ops
                timings.append((started, elapsed, cpu))
                spent += elapsed
                if record.error is None:
                    try:
                        record.seen = op.seen(output)
                    except Exception as exc:    # output of the wrong shape
                        record.error = f"unreadable output: {exc!r}"
                records.append(record)
            if tracer is not None:
                before = self.counters()
            workload.checkpoint(index, records)
            if tracer is not None:
                for key, value in self.counters().items():
                    self.untimed[key] = \
                        self.untimed.get(key, 0) + value - before[key]
            index += 1
        if tracer is not None:
            tracer.op = -1
        self.host.sample()      # the last ops need a sample after them too
        for record, (started, elapsed, cpu) in zip(records, timings):
            record.wall_ms = elapsed * 1e3
            record.ms = self.host.at_reference(started, elapsed, cpu) * 1e3
        return records


def run_workload(args) -> dict:
    import e2e_layers as layers
    from e2e_host import HostProbe
    from e2e_trace import Tracer
    from e2e_workloads import WORKLOADS, LocalRead

    workload = WORKLOADS[args.workload]()
    size = workload.sizes["smoke" if args.smoke else "full"]
    fixed = {"cycles": args.cycles or 2} if (args.smoke or args.cycles) \
        else None
    gc_before = (gc.isenabled(), gc.get_threshold())
    load_before = os.getloadavg()[0]
    host = HostProbe()
    tracer = Tracer(layers.SITES) if args.trace else None
    region = Region(host, tracer, lambda: layers.counters(workload, tracer))

    if tracer:
        tracer.install()        # set-up is traced: compile, parse, builds
    start_counts = layers.global_counters()
    setup_seconds: list[float] = []
    setup_wall: list[float] = []
    repeats = 1 if (tracer or args.smoke) else SETUP_REPEATS
    while True:
        host.sample()
        cpu_started, started = time.process_time(), time.perf_counter()
        workload.setup(args.seed, size)
        elapsed = time.perf_counter() - started
        cpu = time.process_time() - cpu_started
        host.sample()
        setup_seconds.append(host.at_reference(started, elapsed, cpu))
        setup_wall.append(elapsed)
        if len(setup_seconds) >= repeats \
                or sum(setup_seconds) > SETUP_REPEAT_BUDGET_S:
            break
        workload.teardown()
    setup_counts = layers.global_counters()
    if tracer:
        tracer.uninstall()
    gc.collect()

    # -- untraced region: the end-to-end numbers --------------------------
    budget = fixed or {"seconds": args.seconds * (
        REFERENCE_SHARE if tracer else 1.0)}
    records = region.run(workload, **budget)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # -- traced region and side runs: the per-layer numbers ---------------
    traced: list = []
    side: dict = {}
    if tracer:
        tracer.install()
        before = layers.counters(workload, tracer)
        first_op = region.next_op
        budget = fixed or {"seconds": args.seconds * (1 - REFERENCE_SHARE)}
        traced = region.run(workload, traced=True,
                            first_cycle=records[-1].cycle + 1, **budget)
        after = {key: value - region.untimed.get(key, 0)
                 for key, value in layers.counters(workload, tracer).items()}
        end_op = region.next_op
        tracer.op = -3      # side runs are measured by their own records
        side = workload.side_runs(
            args.seed, size,
            lambda other, cycles: region.run(other, cycles=cycles))
        tracer.uninstall()

    workload.verify(records + traced)
    workload.teardown()
    low, _, high = statistics.quantiles(host.slowness, n=4)

    result = {
        "workload": workload.name, "seed": args.seed, "trace": args.trace,
        "smoke": args.smoke, "size": size,
        "attempted": len(records) + len(traced),
        "failed": sum(1 for r in records + traced if r.error is not None),
        "failures": first_failures(records + traced),
        "setup_samples": len(setup_seconds),
        "host": {"samples": len(host.slowness),
                 "slowness_p50": statistics.median(host.slowness),
                 "slowness_quartiles": [low, high]},
        "noisy": (high - low) / statistics.median(host.slowness) > 0.10,
        "loadavg": [load_before, os.getloadavg()[0]],
        "gc": {"before": gc_before,
               "after": (gc.isenabled(), gc.get_threshold())},
    }
    result["end_to_end"], result["kinds"] = end_to_end(
        workload, records, statistics.median(setup_seconds), peak_rss_mb)
    result["as_measured"], _ = end_to_end(
        workload, records, statistics.median(setup_wall), peak_rss_mb,
        clock="wall_ms")
    if tracer:
        spans = result["spans"] = tracer.totals(first_op, end_op)
        values = layers.per_layer(
            spans, tracer.totals(-1, 0), tracer.gc_totals(first_op, end_op),
            traced, before, after,
            {key: setup_counts[key] - start_counts[key]
             for key in setup_counts})
        values["trace.overhead_ratio"] = (
            statistics.fmean(r.ms for r in traced if r.error is None)
            / statistics.fmean(r.ms for r in records if r.error is None))
        values.update(side_metrics(side, traced, size))
        result["per_layer"] = {
            name: values.get(name, 0.0)
            for name in layers.per_layer_table(LocalRead.SUITE)}
        result["side_runs"] = side
        missing = [name for name in workload.spans
                   if name not in spans]
        if missing:
            raise SystemExit(
                f"{workload.name}: declared spans never fired: {missing}")
        if args.trace_out:
            tracer.dump(args.trace_out)
    return result


def first_failures(records: list) -> dict:
    """Per op kind: how many failed, and where and why the first did."""
    failures: dict = {}
    for record in records:
        if record.error is None:
            continue
        entry = failures.setdefault(record.kind, {
            "count": 0, "first_cycle": record.cycle, "label": record.label,
            "error": record.error})
        entry["count"] += 1
    return failures


def end_to_end(workload, records: list, setup_s: float,
               peak_rss_mb: float, clock: str = "ms") -> tuple[dict, dict]:
    """The end-to-end metrics of an untraced region, and per op kind the
    count, median and (where the wire is involved) MB/s behind them.
    ``clock`` is the ``Record`` field the timings are read from."""
    good = [r for r in records if r.error is None]
    headline = [getattr(r, clock) for r in workload.headline_ops(good)]
    metrics = {
        "setup_s": setup_s,
        "ops_per_s": len(good) / (
            sum(getattr(r, clock) for r in records) / 1e3),
        "peak_rss_mb": peak_rss_mb,
        "op_ms_p50": statistics.median(headline),
        "op_ms_p90": percentile(headline, 0.90),
        "second_op_ms_p50": statistics.median(
            getattr(r, clock) for r in workload.second_ops(good)),
    }
    kinds: dict = {}
    for record in good:
        kinds.setdefault(record.kind, []).append(record)
    summary = {}
    for kind, members in kinds.items():
        summary[kind] = {
            "samples": len(members),
            "ms_p50": statistics.median(r.ms for r in members),
            "wall_ms_p50": statistics.median(r.wall_ms for r in members)}
        if "wire_bytes" in members[0].seen:
            summary[kind]["wire_mb_per_s_p50"] = statistics.median(
                r.seen["wire_bytes"] / 1e6 / (r.ms / 1e3) for r in members)
    return metrics, summary


def side_metrics(side: dict, traced: list, size: dict) -> dict:
    """Per-layer values from the side runs: per-query medians and
    log-log slopes (local-read), the keyword probe (update-mix)."""
    import e2e_layers as layers
    from e2e_workloads import query_medians

    values: dict = {}
    if "sweep" in side:
        full = query_medians(traced)
        by_scale = {**side["sweep"], size["scale"]: full}
        for name in full:
            values[f"query_ms.{name}"] = full[name]
            values[f"slope.{name}"] = layers.slope(
                [(scale, medians[name])
                 for scale, medians in sorted(by_scale.items())])
    if "kw_probe" in side:
        probe = side["kw_probe"]
        values["search.kw_after_write_ms"] = probe["kw_after_write_ms"]
        values["search.kw_wrong_share"] = probe["kw_wrong_share"]
        values["search.write_error_share"] = probe["write_error_share"]
        values["search.postings_patched"] = \
            probe["postings_patched_per_write"]
    return values


def report(result: dict) -> None:
    """Every metric by name, with unit and direction; then the driver's
    result line."""
    import e2e_layers as layers
    from e2e_workloads import LocalRead

    per_layer = layers.per_layer_table(LocalRead.SUITE)
    print(f"== {result['workload']}  seed={result['seed']} "
          f"trace={result['trace']}  ops attempted={result['attempted']} "
          f"failed={result['failed']}"
          f"  host slowness={result['host']['slowness_p50']:.3f}"
          + ("  NOISY (the host probe's quartiles lie >10 % apart)"
             if result["noisy"] else ""))
    for kind, failure in result["failures"].items():
        print(f"   failed {kind}: {failure['count']} ops, first at cycle "
              f"{failure['first_cycle']} ({failure['label']}): "
              f"{failure['error']}")
    note = " (reference region of a traced run)" if result["trace"] else ""
    for name, (unit, better, bound) in layers.END_TO_END.items():
        print(f"   {name:<28}{result['end_to_end'][name]:>14.4f} {unit:<6}"
              f"{better} is better, bound {bound:.0%}{note}; as the wall "
              f"clock measured it {result['as_measured'][name]:.4f}")
    for kind, summary in result["kinds"].items():
        print(f"   kind {kind:<12}" + "  ".join(
            f"{key}={value:.4f}" if isinstance(value, float)
            else f"{key}={value}" for key, value in summary.items()))
    if result["trace"]:
        for name, (unit, better) in per_layer.items():
            print(f"   {name:<36}{result['per_layer'][name]:>14.4f} "
                  f"{unit:<9}{better} is better")
    print(RESULT_MARK + json.dumps(result))
    chosen = result["per_layer"] if result["trace"] else result["end_to_end"]
    units = {name: spec[0]
             for name, spec in {**layers.END_TO_END, **per_layer}.items()}
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in chosen.items()},
    }))


def manifest(seconds: int) -> dict:
    """``BENCHMARK.json``, from the tables the harness reports by."""
    import e2e_layers as layers
    from e2e_workloads import WORKLOADS, LocalRead

    return {
        "command": ["python3", "benchmarks/e2e/run.py"],
        "paths": ["benchmarks/e2e"],
        "run_seconds": seconds,
        "workloads": [{"name": name, "why": workload.why}
                      for name, workload in WORKLOADS.items()],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, (unit, better, bound) in layers.END_TO_END.items()],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, (unit, better)
            in layers.per_layer_table(LocalRead.SUITE).items()],
    }


# ---------------------------------------------------------------------------
# Several workloads or repeats: one fresh interpreter each


def run_children(args, names: list[str]) -> list[dict]:
    results = []
    for _ in range(args.repeat):
        for name in names:
            command = [sys.executable, os.path.abspath(__file__),
                       "--workload", name, "--seed", str(args.seed),
                       "--seconds", str(args.seconds),
                       "--trace", str(args.trace)]
            if args.smoke:
                command.append("--smoke")
            if args.cycles:
                command += ["--cycles", str(args.cycles)]
            child = subprocess.run(command, stdout=subprocess.PIPE, text=True)
            if child.returncode != 0:
                raise SystemExit(f"{name}: exited with {child.returncode}")
            # The last line is the driver's result line; what it says is
            # in the marked line already.
            for line in child.stdout.splitlines()[:-1]:
                if line.startswith(RESULT_MARK):
                    results.append(json.loads(line[len(RESULT_MARK):]))
                else:
                    print(line)
    return results


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        help="one of local-read, rpc-calls, message-path, "
                             "update-mix, or all (default)")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS,
                        help="timed seconds per workload (whole cycles)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--cycles", type=int,
                        help="run this many cycles instead of --seconds")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, two cycles: a functional check")
    parser.add_argument("--repeat", type=int, default=1)
    parser.add_argument("--out", help="write every run's full result here")
    parser.add_argument("--summary-line",
                        help="append one compact JSON line per invocation")
    parser.add_argument("--trace-out", help="dump raw spans (one workload)")
    parser.add_argument("--manifest", action="store_true",
                        help="print BENCHMARK.json as the harness defines it")
    args = parser.parse_args()

    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"no program to measure: {ROOT}/src/repro is missing",
              file=sys.stderr)
        return 2
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    from e2e_workloads import WORKLOADS

    if args.manifest:
        print(json.dumps(manifest(RUN_SECONDS), indent=2))
        return 0
    if args.workload != "all" and args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")
    single = args.workload != "all" and args.repeat == 1
    if single:
        results = [run_workload(args)]
        report(results[0])
    else:
        names = list(WORKLOADS) if args.workload == "all" \
            else [args.workload]
        results = run_children(args, names)
    if args.out or args.summary_line:
        env = environment()
        if args.out:
            with open(args.out, "w") as out:
                json.dump({"env": env, "runs": results}, out, indent=1)
        if args.summary_line:
            runs: dict = {}
            for result in results:
                runs.setdefault(result["workload"], []).append(
                    result["end_to_end"])
            with open(args.summary_line, "a") as out:
                out.write(json.dumps({
                    "commit": env["commit"], "seed": args.seed,
                    "runs": args.repeat,
                    "workloads": {
                        name: {metric: statistics.median(
                            run[metric] for run in repeats)
                            for metric in repeats[0]}
                        for name, repeats in runs.items()}}) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
