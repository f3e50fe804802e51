"""Profile the monitor hot path with cProfile/pstats.

Where does an observed record's time actually go?  This harness runs
the same workloads the acceptance benchmarks gate -- the 200-event
``bench_table_incremental`` monitor replay, and the ``bench_e2e``
firehose gate fleet -- under ``cProfile`` and prints the top
functions, so a perf regression shows up as a *named function* rather
than a bare ratio.  Three targets:

* ``monitor`` (default) -- the ``bench_table_incremental`` gate
  workload replayed record by record through
  ``OnlineAbcMonitor.observe``.  Expect the repair pass
  (``updated_worst_ratio``, with ``repair_potential`` and its Dijkstra
  ``_repair`` under it) and the per-record ingest to share the time;
  the e2e benchmark times the ingest span separately.
* ``ingest`` -- the one ingest path: the ``bench_e2e`` gate fleet's
  wire rows cut into shard batches and fed to a ``ShardGroup`` through
  ``ingest_batch`` -- buffering, ``observe_batch`` (the message filter
  and the in-flight ledger), ``absorb_batch`` and the refreshes, as a
  worker runs them.
* ``enforce`` -- budget enforcement: a serial ``MonitorFleet`` with an
  event budget over the mix of perfbench's ``long-bounded`` workload
  (112 relay, storm and burst traces, ``--events`` records each, budget
  18 events per record of trace length: 9000 at 500).  The whole cut
  path -- the two prefix searches (``removable_prefix``,
  ``summarizable_prefix``), the compaction they feed (``compact_prefix``)
  and its summary search (``_summarize_region``) -- is printed by name
  after the top functions, wherever it ranks.

Usage::

    python tools/profile_hotpath.py                      # monitor, top 25
    python tools/profile_hotpath.py --target ingest --sort tottime
    python tools/profile_hotpath.py --target enforce --events 500
    python tools/profile_hotpath.py --events 100
"""

from __future__ import annotations

import argparse
import cProfile
import pstats
import random
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
for entry in (str(REPO / "src"), str(REPO / "benchmarks")):
    if entry not in sys.path:
        sys.path.insert(0, entry)

TARGETS = ("monitor", "ingest", "enforce")
# perfbench's long-bounded mix, and its budget per record of trace length.
ENFORCE_TRACES = 112
ENFORCE_MIX = {"relay": 0.4, "storm": 0.4, "burst": 0.2}
ENFORCE_BUDGET_PER_EVENT = 18


def monitor_workload(events: int):
    from bench_table_incremental import make_workload

    from repro.analysis.online import OnlineAbcMonitor

    trace, _prefixes = make_workload(events)

    def body():
        monitor = OnlineAbcMonitor()
        for record in trace.records:
            monitor.observe(record)
        return monitor.worst_ratio

    return body, f"monitor replay, {len(trace.records)} records"


def ingest_workload(events: int):
    import bench_e2e

    from repro.runtime.shard import ShardGroup

    wires = bench_e2e.gate_workload(bench_e2e.DEFAULT_GATE_TRACES, events)
    batch = bench_e2e.DEFAULT_BATCH
    # One trace per shard, each cut into wire batches of ``batch`` rows.
    shard_batches = [
        (shard, [(tick, shard, row) for tick, _tid, row in wire[i : i + batch]])
        for shard, wire in enumerate(wires)
        for i in range(0, len(wire), batch)
    ]
    n = sum(len(w) for w in wires)

    def body():
        group = ShardGroup(range(len(wires)), batch_size=batch)
        for shard, rows in shard_batches:
            group.ingest_batch(shard, rows)
        group.flush_all()
        return group

    return body, f"row ingest, {n} wire records"


def enforce_workload(events: int):
    from repro.analysis.fleet import MonitorFleet
    from repro.scenarios.generators import concurrent_workload

    stream = list(
        concurrent_workload(
            random.Random(1), ENFORCE_TRACES, (events, events), ENFORCE_MIX
        )
    )
    budget = ENFORCE_BUDGET_PER_EVENT * events

    def body():
        fleet = MonitorFleet(event_budget=budget)
        fleet.ingest_many(stream)
        fleet.flush()
        return fleet

    label = f"budget enforcement, {len(stream)} records, event_budget {budget}"
    return body, label


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="cProfile the monitor/ingest hot paths on the "
        "acceptance-benchmark workloads"
    )
    parser.add_argument(
        "--target", choices=TARGETS, default="monitor",
        help="which hot path to profile (default: the "
        "bench_table_incremental monitor replay)",
    )
    parser.add_argument(
        "--events", type=int, default=200,
        help="workload size: records for monitor, events per gate "
        "trace for ingest targets, records per trace for enforce",
    )
    parser.add_argument(
        "--top", type=int, default=25,
        help="functions to print (default 25)",
    )
    parser.add_argument(
        "--sort", choices=("cumulative", "tottime", "ncalls"),
        default="cumulative",
        help="pstats sort key (default cumulative)",
    )
    parser.add_argument(
        "--out", type=str, default=None,
        help="also dump raw pstats data to this path (for snakeviz "
        "or pstats.Stats post-processing)",
    )
    args = parser.parse_args(argv)

    random.seed(0)  # workload builders draw from seeded rngs anyway
    if args.target == "monitor":
        body, label = monitor_workload(args.events)
    elif args.target == "enforce":
        body, label = enforce_workload(args.events)
    else:
        body, label = ingest_workload(args.events)

    body()  # warm: imports, first-touch allocations
    profiler = cProfile.Profile()
    profiler.enable()
    body()
    profiler.disable()

    print(f"[profile_hotpath] {label}, sorted by {args.sort}")
    stats = pstats.Stats(profiler, stream=sys.stdout)
    stats.sort_stats(args.sort).print_stats(args.top)
    if args.target == "enforce":
        stats.print_stats(
            r"summarizable_prefix|removable_prefix|compact_prefix"
            r"|_summarize_region"
        )
    if args.out:
        stats.dump_stats(args.out)
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
