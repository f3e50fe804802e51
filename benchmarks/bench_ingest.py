"""Network ingest: sharded fronts vs. a single dispatcher, bit for bit.

The acceptance benchmark of the network ingestion plane: a >=400-trace
concurrent workload streamed by multiple producer clients over real
sockets into an :class:`~repro.runtime.net.IngestServer`, once with a
**single front** (one dispatcher thread routing into all workers -- the
plain ``ParallelFleet`` shape behind a socket) and once with **N
fronts** (independent dispatchers, each owning a disjoint slice of the
shard space and of the global tick space).  Three claims are gated:

* **bit-identity** -- per-trace worst ratios, degradation flags and
  the violating-trace set from the multi-front server agree exactly
  with the serial :class:`~repro.analysis.fleet.MonitorFleet` over the
  same records (and the single-front server agrees too: fronts change
  *throughput*, never answers);
* **delta reconstruction** -- a subscriber that watched the run
  rebuilds the final worst-ratio histogram, top-k watchlist and
  violation feed from the incremental delta stream alone, matching the
  pull-side answers exactly;
* **throughput** -- N fronts ingest the multi-producer stream at least
  ``--min-speedup`` times faster than the single front with the same
  total worker count.  The gate was built on independent fronts, each
  on its own thread, stalling independently: when one worker's bounded
  inbox fills, a lone dispatcher stalls and every other worker starves
  behind it.  That premise is gone.  The server's event-loop thread
  drives every front, so a full inbox blocks all of them alike, and a
  second front adds routing and a second fleet's dispatch but no
  overlap.  On a 2-vCPU box one front is now the faster shape (about
  0.75x for two fronts), under the CI gate's ``--min-speedup 1.1``;
  the gate goes with the second front (ROADMAP item 3).  The pytest
  entry asserts bit-identity and delta reconstruction always but skips
  the throughput floor on single-core machines.

Also runnable as a script (CI smoke / the gate)::

    python benchmarks/bench_ingest.py --traces 40 --max-records 60 --min-speedup 0
    python benchmarks/bench_ingest.py --min-speedup 1.1 --json BENCH_ingest.json
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import threading
import time
from fractions import Fraction

from repro.analysis.fleet import MonitorFleet
from repro.runtime.net import DeltaSubscriber, IngestServer, ProducerClient
from repro.scenarios.generators import concurrent_workload

DEFAULT_TRACES = 420
DEFAULT_RECORDS = (160, 280)
DEFAULT_BATCH = 32
DEFAULT_SHARDS = 8
DEFAULT_FRONTS = 2
DEFAULT_TOTAL_WORKERS = 2
DEFAULT_PRODUCERS = 3
DEFAULT_CLIENT_BATCH = 64
DEFAULT_WIRE_BATCH = 128
# Small on purpose: the throughput story is head-of-line blocking on a
# full worker inbox, and a deep inbox would hide it at bench scale.
DEFAULT_INBOX = 4
DEFAULT_SEED = 11
DEFAULT_XI = Fraction(3)
# The CI floor at 2 fronts / 2 total workers.  Its premise, stall
# overlap between front threads, is gone (see the module docstring);
# the floor stays as it is until the gate is retired.
HARD_SPEEDUP_FLOOR = 1.1


def build_workload(seed, n_traces, records_per_trace):
    rng = random.Random(seed)
    return list(
        concurrent_workload(
            rng,
            n_traces=n_traces,
            records_per_trace=records_per_trace,
            # Storm-heavy, like bench_parallel: dense digraphs keep the
            # workers busy enough that their inboxes actually fill,
            # which is the regime the front count matters in.
            profile_weights={"storm": 0.5, "burst": 0.35, "idler": 0.15},
        )
    )


def run_serial(stream, xi, batch_size, n_shards):
    fleet = MonitorFleet(xi=xi, n_shards=n_shards, batch_size=batch_size)
    fleet.ingest_many(stream)
    fleet.flush()
    ids = sorted({tid for tid, _ in stream}, key=str)
    return (
        {tid: fleet.worst_ratio(tid) for tid in ids},
        {tid: fleet.is_degraded(tid) for tid in ids},
        set(fleet.violating_traces()),
    )


def run_ingest(
    stream,
    *,
    xi,
    n_fronts,
    workers_per_front,
    n_shards,
    batch_size,
    backend,
    wire_batch,
    inbox_capacity,
    n_producers,
    client_batch,
    subscribe=False,
):
    """One full multi-producer run against one server configuration.

    Returns ``(answers, violating, ingest_seconds, aggregates, view)``
    where ``ingest_seconds`` covers first byte to fully-absorbed (every
    producer acked, every front flushed) and ``view`` is the
    subscriber's reconstructed :class:`DeltaView` (or ``None``).
    """
    ids = sorted({tid for tid, _ in stream}, key=str)
    owner = {tid: i % n_producers for i, tid in enumerate(ids)}
    with IngestServer(
        xi,
        n_fronts=n_fronts,
        workers_per_front=workers_per_front,
        n_shards=n_shards,
        batch_size=batch_size,
        backend=backend,
        wire_batch=wire_batch,
        inbox_capacity=inbox_capacity,
    ) as server:
        sub = (
            DeltaSubscriber(server.address, name="bench")
            if subscribe
            else None
        )

        def produce(index):
            with ProducerClient(
                server.address,
                producer_id=f"producer-{index}",
                batch=client_batch,
            ) as client:
                for tid, rec in stream:
                    if owner[tid] == index:
                        client.send(tid, rec)

        threads = [
            threading.Thread(target=produce, args=(i,), daemon=True)
            for i in range(n_producers)
        ]
        start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        server.flush()
        elapsed = time.perf_counter() - start
        assert server.front_errors() == (), server.front_errors()
        assert server.ingested_records == len(stream)
        answers = {
            tid: (server.worst_ratio(tid), server.is_degraded(tid))
            for tid in ids
        }
        violating = set(server.violating_traces())
        aggregates = {
            "ratios": dict(server.all_ratios()),
            "histogram": server.worst_ratio_histogram(),
            "top_k": server.top_k_riskiest(10),
            "feed": server.violation_feed(),
        }
    view = None
    if sub is not None:
        # The server has fully stopped; the view is rebuilt from the
        # snapshot + delta frames alone.
        view = sub.run_to_end()
        sub.close()
    return answers, violating, elapsed, aggregates, view


def compare(
    seed=DEFAULT_SEED,
    n_traces=DEFAULT_TRACES,
    records_per_trace=DEFAULT_RECORDS,
    batch_size=DEFAULT_BATCH,
    n_shards=DEFAULT_SHARDS,
    n_fronts=DEFAULT_FRONTS,
    total_workers=DEFAULT_TOTAL_WORKERS,
    n_producers=DEFAULT_PRODUCERS,
    client_batch=DEFAULT_CLIENT_BATCH,
    wire_batch=DEFAULT_WIRE_BATCH,
    inbox_capacity=DEFAULT_INBOX,
    backend="process",
    xi=DEFAULT_XI,
):
    """Serial reference, single-front server, multi-front server.

    Raises ``AssertionError`` unless both servers are bit-identical to
    serial and the delta subscriber reconstructs the multi-front
    aggregates exactly.
    """
    if total_workers % n_fronts:
        raise ValueError(
            f"total_workers={total_workers} must divide across "
            f"{n_fronts} fronts"
        )
    stream = build_workload(seed, n_traces, records_per_trace)
    trace_ids = sorted({tid for tid, _ in stream}, key=str)
    assert len(trace_ids) >= 400 or n_traces < 400, "workload shrank"

    serial_start = time.perf_counter()
    ratios, degraded, violating = run_serial(
        stream, xi, batch_size, n_shards
    )
    serial_s = time.perf_counter() - serial_start
    expected = {tid: (ratios[tid], degraded[tid]) for tid in trace_ids}

    common = dict(
        xi=xi,
        n_shards=n_shards,
        batch_size=batch_size,
        backend=backend,
        wire_batch=wire_batch,
        inbox_capacity=inbox_capacity,
        n_producers=n_producers,
        client_batch=client_batch,
    )
    single_answers, single_violating, single_s, _agg, _ = run_ingest(
        stream, n_fronts=1, workers_per_front=total_workers, **common
    )
    multi_answers, multi_violating, multi_s, aggregates, view = run_ingest(
        stream,
        n_fronts=n_fronts,
        workers_per_front=total_workers // n_fronts,
        subscribe=True,
        **common,
    )

    mismatches = [t for t in trace_ids if multi_answers[t] != expected[t]]
    assert not mismatches, f"multi-front divergence: {mismatches[:5]}"
    assert multi_violating == violating, "violation sets diverged"
    mismatches = [t for t in trace_ids if single_answers[t] != expected[t]]
    assert not mismatches, f"single-front divergence: {mismatches[:5]}"
    assert single_violating == violating

    assert view is not None
    assert view.ratios == aggregates["ratios"], "delta ratios diverged"
    assert view.worst_ratio_histogram() == aggregates["histogram"]
    assert view.top_k_riskiest(10) == aggregates["top_k"]
    assert view.violation_feed() == aggregates["feed"]

    return {
        "traces": len(trace_ids),
        "records": len(stream),
        "batch_size": batch_size,
        "n_shards": n_shards,
        "n_fronts": n_fronts,
        "total_workers": total_workers,
        "n_producers": n_producers,
        "client_batch": client_batch,
        "wire_batch": wire_batch,
        "inbox_capacity": inbox_capacity,
        "backend": backend,
        "xi": str(xi),
        "serial_s": serial_s,
        "single_front_s": single_s,
        "multi_front_s": multi_s,
        "speedup": single_s / multi_s,
        "single_front_records_per_s": len(stream) / single_s,
        "multi_front_records_per_s": len(stream) / multi_s,
        "violating_traces": len(violating),
        "delta_frames_seq": view.seq,
        "cpu_count": os.cpu_count(),
    }


# ----------------------------------------------------------------------
# pytest entries
# ----------------------------------------------------------------------


def test_ingest_bit_identity_and_delta_reconstruction():
    """Multi-producer network ingest bit-identical to serial, delta
    stream reconstructing the aggregates; the throughput floor applies
    only where overlap has cores to run on (>= 2)."""
    r = compare(
        n_traces=60,
        records_per_trace=(30, 60),
        n_producers=2,
        client_batch=32,
        backend="thread",
    )
    sys.stderr.write(
        f"\n[bench_ingest] traces={r['traces']} records={r['records']} "
        f"single_front={r['single_front_s']:.2f}s "
        f"multi_front={r['multi_front_s']:.2f}s "
        f"({r['speedup']:.2f}x on {r['n_fronts']} fronts, "
        f"{r['cpu_count']} cpus)\n"
    )
    if (os.cpu_count() or 1) >= 2:
        assert r["speedup"] >= 0.8, (
            f"multi-front collapsed to {r['speedup']:.2f}x of single-front"
        )


# ----------------------------------------------------------------------
# script mode (CI smoke, the gate, JSON artifact)
# ----------------------------------------------------------------------


def main(argv=None):
    parser = argparse.ArgumentParser(
        description=(
            "Gate the network ingestion plane: multi-producer ingest "
            "bit-identical to the serial MonitorFleet, delta streams "
            "reconstructing the aggregates, and N sharded fronts "
            "beating a single dispatcher on throughput."
        )
    )
    parser.add_argument("--traces", type=int, default=DEFAULT_TRACES)
    parser.add_argument(
        "--min-records", type=int, default=DEFAULT_RECORDS[0],
        help="minimum records per trace",
    )
    parser.add_argument(
        "--max-records", type=int, default=DEFAULT_RECORDS[1],
        help="maximum records per trace",
    )
    parser.add_argument("--batch", type=int, default=DEFAULT_BATCH)
    parser.add_argument("--shards", type=int, default=DEFAULT_SHARDS)
    parser.add_argument("--fronts", type=int, default=DEFAULT_FRONTS)
    parser.add_argument(
        "--workers", type=int, default=DEFAULT_TOTAL_WORKERS,
        help="total workers (split across fronts)",
    )
    parser.add_argument("--producers", type=int, default=DEFAULT_PRODUCERS)
    parser.add_argument(
        "--client-batch", type=int, default=DEFAULT_CLIENT_BATCH,
        help="rows per producer frame",
    )
    parser.add_argument(
        "--wire-batch", type=int, default=DEFAULT_WIRE_BATCH,
        help="records per shard batch on the worker wire",
    )
    parser.add_argument(
        "--inbox", type=int, default=DEFAULT_INBOX,
        help="worker inbox capacity (small = head-of-line pressure)",
    )
    parser.add_argument(
        "--backend", choices=("process", "thread"), default="process",
    )
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument(
        "--min-speedup", type=float, default=None,
        help="exit non-zero unless multi-front reaches this speedup",
    )
    parser.add_argument(
        "--json", type=str, default=None,
        help="write the metrics to this JSON file",
    )
    args = parser.parse_args(argv)

    records = (min(args.min_records, args.max_records), args.max_records)
    r = compare(
        seed=args.seed,
        n_traces=args.traces,
        records_per_trace=records,
        batch_size=args.batch,
        n_shards=args.shards,
        n_fronts=args.fronts,
        total_workers=args.workers,
        n_producers=args.producers,
        client_batch=args.client_batch,
        wire_batch=args.wire_batch,
        inbox_capacity=args.inbox,
        backend=args.backend,
    )
    print(
        f"workload: {r['traces']} traces, {r['records']} records "
        f"({r['n_producers']} producers, client_batch="
        f"{r['client_batch']}, shards={r['n_shards']}, "
        f"backend={r['backend']}, Xi={r['xi']})"
    )
    print(
        f"single front ({r['total_workers']} workers): "
        f"{r['single_front_s'] * 1e3:8.1f} ms  "
        f"{r['single_front_records_per_s']:8.0f} rec/s"
    )
    print(
        f"{r['n_fronts']} fronts      ({r['total_workers']} workers): "
        f"{r['multi_front_s'] * 1e3:8.1f} ms  "
        f"{r['multi_front_records_per_s']:8.0f} rec/s  "
        f"({r['speedup']:.2f}x)"
    )
    print(
        f"bit-identical: per-trace ratios, degradation flags, and the "
        f"violating set ({r['violating_traces']} traces); delta "
        f"subscriber reconstructed the aggregates exactly "
        f"({r['delta_frames_seq']} frames)"
    )
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(r, fh, indent=2)
        print(f"wrote {args.json}")
    if args.min_speedup is not None and r["speedup"] < args.min_speedup:
        print(f"FAIL: speedup {r['speedup']:.2f}x < {args.min_speedup}x")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
