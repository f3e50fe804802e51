"""The pipeline benchmark: producer socket to ratio answer.

Usage::

    python3 perfbench/run.py --workload fleet-mixed --seed 1 --seconds 30 --trace 0

Generates the workload's records from ``--seed``, encodes them and
computes the serial reference answers (all before any clock starts),
then runs measured rounds until ``--seconds`` have passed.  Each round
sets up a fresh system under test in a host process, feeds it every
record, waits for the final flush barrier, and checks every per-trace
answer against the reference.  A run stops at the round boundary
nearest to ``--seconds``.  Every timing is scaled to a nominal machine
speed by the machine-speed probe (``probe.py``) running beside the
rounds.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced rounds and prints the per-layer metrics: the traced
rounds give the layers, the untraced ones the tracing overhead.  The
last line of standard output is one JSON object: ``correct``,
``attempted`` (records offered), ``failed`` (front errors + frames
replayed after a reconnect + records lost) and ``metrics``.
"""

from __future__ import annotations

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# The system under test runs on its defaults: no kernel or telemetry
# override reaches it (hosts inherit this environment).
for _var in ("REPRO_KERNEL", "REPRO_OBS"):
    os.environ.pop(_var, None)
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

import argparse  # noqa: E402
import concurrent.futures  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from typing import Any  # noqa: E402

WORK_DIR = os.path.join(ROOT, ".perfbench_work")
WORKLOAD_NAMES = ("fleet-mixed", "fleet-short", "long-bounded")

END_TO_END = {
    "setup_s": "s",
    "records_per_s": "1/s",
    "batch_latency_p50_ms": "ms",
    "batch_latency_tail_ms": "ms",
    "worker_peak_rss_mb": "MB",
}

PER_LAYER = {
    "client.encode_s": "s",
    "client.send_s": "s",
    "client.records_per_frame": "count",
    "server.front_ingest_s": "s",
    "server.front_busy_share": "share",
    "deltas.stage_s": "s",
    "parallel.route_s": "s",
    "parallel.inbox_block_s": "s",
    "parallel.records_per_batch": "count",
    "parallel.answer_lag_s": "s",
    "backends.spawn_s": "s",
    "worker.busy_s": "s",
    "worker.idle_s": "s",
    "worker.imbalance": "x",
    "codec.decode_s": "s",
    "shard.ingest_s": "s",
    "shard.flushes": "count",
    "shard.enforce_budget_s": "s",
    "shard.evictions": "count",
    "online.observe_s": "s",
    "online.oracle_calls": "count",
    "online.ratio_changes_per_oracle_call": "share",
    "synchrony.absorb_s": "s",
    "synchrony.ratio_search_s": "s",
    "synchrony.search_cost_growth": "x",
    "synchrony.compact_s": "s",
    "synchrony.summary_compactions": "count",
    "synchrony.tombstoned_per_compaction": "count",
    "kernel.sweep_s": "s",
    "kernel.sweeps": "count",
    "durable.append_s": "s",
    "durable.flush_s": "s",
    "durable.checkpoint_s": "s",
    "durable.checkpoints": "count",
    "durable.bytes_written": "bytes",
    "pipeline.unattributed_s": "s",
    "pipeline.trace_overhead": "x",
    "pipeline.error_rate": "share",
}

# Per-layer values that repeat exactly for a given seed, run to run.
# On the socket workloads the two producers interleave at the fronts as
# timing allows, which moves per-trace flush boundaries (never the
# answers); only the framing and the per-shard batching hold still.
EXACT = {
    "fleet-mixed": ("client.records_per_frame", "parallel.records_per_batch"),
    "fleet-short": ("client.records_per_frame", "parallel.records_per_batch"),
    "long-bounded": (
        "parallel.records_per_batch",
        "shard.flushes",
        "shard.evictions",
        "online.oracle_calls",
        "online.ratio_changes_per_oracle_call",
        "synchrony.summary_compactions",
        "synchrony.tombstoned_per_compaction",
        "kernel.sweeps",
        "durable.checkpoints",
        "durable.bytes_written",
    ),
}


def throughput(runs: list[tuple[int, Any, float]]) -> float:
    """Records per second over every population: each population's
    median round time, summed, against its records, summed."""
    times: dict[int, list[float]] = {}
    records: dict[int, int] = {}
    for index, rnd, scale in runs:
        times.setdefault(index, []).append(rnd.elapsed_s * scale)
        records[index] = rnd.records
    return sum(records.values()) / sum(statistics.median(t) for t in times.values())


def latency_ms(runs: list[tuple[int, Any, float]]) -> dict[str, float]:
    """Batch latency p50, p99 and the mean of the slowest 1% of
    batches.  Each population's scaled samples, pooled over its rounds,
    give its figures; the median over the populations is the result.  A
    population that got one round more than another does not weigh
    more."""
    samples: dict[int, list[float]] = {}
    for index, rnd, scale in runs:
        samples.setdefault(index, []).extend(ns * scale for ns in rnd.latencies_ns)
    figures = []
    for s in samples.values():
        s.sort()
        cuts = statistics.quantiles(s, n=100, method="inclusive")
        figures.append((cuts[49], cuts[98], statistics.fmean(s[len(s) * 99 // 100 :])))
    return {
        name: statistics.median(f[k] for f in figures) / 1e6
        for k, name in enumerate(("p50", "p99", "tail"))
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(rnd: Any, workload: Any, inputs: Any) -> dict[str, float]:
    """The per-layer numbers of one traced round (0 where a layer does
    not run on this workload, e.g. the client on ``long-bounded``)."""
    a = rnd.layers
    d = rnd.durable_layers
    total, own, counts = a["total"], a["self"], a["counts"]
    report = rnd.answers["report"]
    socket = workload.kind == "socket"
    window = a["window_s"]
    fronts = {ctx for ctx in a["by_context"] if ctx[1].startswith("ingest-front")}
    busy = list(a["busy"].values())
    # Over sockets every ingest_wire_many call runs on a front thread.
    front_ingest = total.get("parallel.ingest", 0.0) if socket else 0.0
    return {
        "client.encode_s": inputs.encode_s if socket else 0.0,
        "client.send_s": total.get("client.send", 0.0),
        "client.records_per_frame": _ratio(rnd.records, rnd.acked_frames)
        if socket
        else 0.0,
        "server.front_ingest_s": front_ingest,
        "server.front_busy_share": _ratio(front_ingest, window * len(fronts)),
        "deltas.stage_s": total.get("deltas.stage", 0.0),
        "parallel.route_s": own.get("parallel.ingest", 0.0),
        "parallel.inbox_block_s": total.get("backends.put", 0.0),
        "parallel.records_per_batch": _ratio(
            counts.get("parallel.batch_records", 0), counts.get("parallel.batches", 0)
        ),
        "parallel.answer_lag_s": rnd.answer_lag_s,
        "backends.spawn_s": a["lifetime"].get("backends.spawn", 0.0),
        "worker.busy_s": sum(busy),
        "worker.idle_s": sum(a["idle"].values()),
        "worker.imbalance": _ratio(max(busy), statistics.mean(busy)) if busy else 0.0,
        "codec.decode_s": own.get("codec.decode", 0.0),
        "shard.ingest_s": own.get("shard.ingest", 0.0),
        "shard.flushes": report["flushes"],
        "shard.enforce_budget_s": own.get("shard.enforce_budget", 0.0),
        "shard.evictions": report["evictions"],
        "online.observe_s": own.get("online.observe", 0.0),
        "online.oracle_calls": report["oracle_calls"],
        "online.ratio_changes_per_oracle_call": _ratio(
            counts.get("synchrony.ratio_changes", 0), report["oracle_calls"]
        ),
        "synchrony.absorb_s": own.get("synchrony.absorb", 0.0),
        "synchrony.ratio_search_s": own.get("synchrony.ratio_search", 0.0),
        "synchrony.search_cost_growth": a["search_growth"],
        "synchrony.compact_s": own.get("synchrony.compact", 0.0),
        "synchrony.summary_compactions": report["summary_compactions"],
        "synchrony.tombstoned_per_compaction": _ratio(
            report["tombstoned_events"], report["evictions"]
        ),
        "kernel.sweep_s": own.get("kernel.sweep", 0.0),
        "kernel.sweeps": a["calls"].get("kernel.sweep", 0),
        "durable.append_s": d["total"].get("durable.append", 0.0),
        "durable.flush_s": d["total"].get("durable.flush", 0.0),
        "durable.checkpoint_s": d["total"].get("durable.checkpoint", 0.0),
        "durable.checkpoints": d["calls"].get("durable.checkpoint", 0),
        "durable.bytes_written": rnd.durable_bytes,
        # The blocking path is the busiest execution context: the stage
        # the others wait on.  Whatever of the wall clock its own spans
        # do not cover is unattributed.
        "pipeline.unattributed_s": window - max(a["by_context"].values(), default=0.0),
        "pipeline.error_rate": _ratio(rnd.failed, rnd.records),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    from perfbench import drive, workloads
    from perfbench.probe import Probe

    workload = workloads.WORKLOADS[args.workload]
    # Two populations at a time, each in a process of its own: the
    # untimed preparation takes half as long.
    n = workload.populations
    with concurrent.futures.ProcessPoolExecutor(max_workers=2) as pool:
        populations = list(
            pool.map(workloads.prepare, [workload.name] * n, [args.seed] * n, range(n))
        )
    # The inputs and the references live for the whole run: keep the
    # load generator's collector from re-scanning them during rounds.
    gc.collect()
    gc.freeze()

    os.makedirs(WORK_DIR, exist_ok=True)
    work = tempfile.mkdtemp(prefix="run-", dir=WORK_DIR)
    per_pass = 1 + args.trace  # a traced pass is one untraced + one traced round
    measured = []  # (population index, round, round start in ns)
    walls = []  # seconds each round took, set-up and checks included
    try:
        with Probe() as probe, drive.Host(workload) as host:
            deadline = time.monotonic() + args.seconds
            while True:
                index = len(measured) // per_pass % len(populations)
                began = time.monotonic()
                began_ns = time.perf_counter_ns()
                rnd = host.round(
                    populations[index][0],
                    trace=bool(args.trace) and len(measured) % 2 == 1,
                    dump_dir=tempfile.mkdtemp(prefix="round-", dir=work),
                )
                walls.append(time.monotonic() - began)
                measured.append((index, rnd, began_ns))
                # Another round only if it is due to end closer to the
                # deadline than stopping now would: a run lasts about
                # --seconds whatever a round costs.
                left = deadline - time.monotonic()
                if (
                    len(measured) >= per_pass * len(populations)
                    and left < statistics.median(walls) / 2
                ):
                    break
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(WORK_DIR)  # only if no other run is using it
    # Each round's timings, set-up included, are scaled to the nominal
    # machine speed by the probe's samples from its set-up to its end.
    runs = [
        (index, rnd, probe.scale(began_ns, rnd.end_ns))
        for index, rnd, began_ns in measured
    ]

    wrong = {
        i: bad
        for i, (index, rnd, _scale) in enumerate(runs)
        if (bad := workloads.mismatches(rnd.answers, populations[index][1]))
    }
    rounds = [rnd for _index, rnd, _scale in runs]
    attempted = sum(rnd.records for rnd in rounds)
    failed = sum(rnd.failed for rnd in rounds)
    correct = not wrong and failed == 0

    plain = [run for run in runs if run[1].layers is None]
    traced = [run for run in runs if run[1].layers is not None]
    latency = latency_ms(plain)
    if args.trace:
        # Median over each population's traced rounds, then over the
        # populations: how many traced rounds a population gets depends
        # on timing, and must not move a count that is exact per
        # population.
        per_population: dict[int, list[dict[str, float]]] = {}
        for i, rnd, _scale in traced:
            per_population.setdefault(i, []).append(
                layer_metrics(rnd, workload, populations[i][0])
            )
        values = {
            name: statistics.median(
                statistics.median(m[name] for m in ms)
                for ms in per_population.values()
            )
            for name in PER_LAYER
            if name != "pipeline.trace_overhead"
        }
        values["pipeline.trace_overhead"] = throughput(plain) / throughput(traced)
        units = PER_LAYER
    else:
        values = {
            "setup_s": statistics.median(rnd.setup_s * s for _i, rnd, s in plain),
            "records_per_s": throughput(plain),
            "batch_latency_p50_ms": latency["p50"],
            "batch_latency_tail_ms": latency["tail"],
            "worker_peak_rss_mb": statistics.median(rnd.rss_mb for _i, rnd, _s in plain),
        }
        units = END_TO_END

    print(
        f"workload {workload.name}: seed {args.seed}, {len(populations)} "
        f"population(s) of {workload.n_traces} traces, "
        f"{sum(len(inputs.rows) for inputs, _ref in populations)} records, "
        f"{len(rounds)} rounds ({len(traced)} traced)"
    )
    print(
        f"kernel {rounds[0].kernel}, nproc {os.cpu_count()}, "
        f"python {platform.python_version()}, "
        f"latency samples {sum(len(rnd.latencies_ns) for _i, rnd, _s in plain)}"
    )
    # The p99 is printed, not gated: see batch_latency_tail_ms in the
    # README.  Then the figures as measured, before scaling.
    unscaled = [(i, rnd, 1.0) for i, rnd, _s in plain]
    raw = latency_ms(unscaled)
    print(f"batch latency p99 (scaled) {latency['p99']:.4g} ms")
    print(
        f"machine-speed scale: median {statistics.median(s for *_r, s in runs):.3f} "
        f"(range {min(s for *_r, s in runs):.3f}-{max(s for *_r, s in runs):.3f}); "
        f"unscaled: {throughput(unscaled):.6g} records/s, batch latency "
        f"p50 {raw['p50']:.4g} ms, p99 {raw['p99']:.4g} ms, "
        f"tail {raw['tail']:.4g} ms"
    )
    if workload.kind == "socket":
        # Which producer acked last.  The throughput window should
        # measure the pipeline, not the interactive producer's
        # frame-by-frame round trips.
        leads = [
            (rnd.bulk_done_ns - rnd.interactive_done_ns) / 1e9 for rnd in rounds
        ]
        print(
            f"bulk producer acked last in {sum(lead > 0 for lead in leads)}"
            f"/{len(leads)} rounds; median lead over the interactive "
            f"producer {statistics.median(leads):.3f} s"
        )
        if traced:
            # If the workers stay busy while the last producer waits,
            # that tail is pipeline work, not round trips.
            shares = [
                _ratio(sum(t["busy"].values()), len(t["busy"]) * t["window_s"])
                for t in (rnd.tail_layers for _i, rnd, _s in traced)
            ]
            print(
                "workers busy between the two producers' last acks: median "
                f"{statistics.median(shares):.3f} of the time"
            )
    for name, value in values.items():
        print(f"  {name:40s} {value:14.6g} {units[name]}")
    if args.trace:
        print(f"exact counts for this workload: {', '.join(EXACT[workload.name])}")
    if wrong:
        print(f"MISMATCH against the serial reference: {wrong}")
    if failed:
        print(f"FAILED operations: {failed}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": units[name]}
                    for name, value in values.items()
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
