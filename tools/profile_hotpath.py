"""Profile the monitor hot path with cProfile/pstats.

Where does an observed record's time actually go?  This harness runs
the same workloads the acceptance benchmarks gate -- the 200-event
``bench_table_incremental`` monitor replay, and the ``bench_e2e``
wire-to-digraph ingest span -- under ``cProfile`` and prints the top
functions, so a perf regression shows up as a *named function* rather
than a bare ratio.  Three targets:

* ``monitor`` (default) -- the ``bench_table_incremental`` gate
  workload replayed record by record through
  ``OnlineAbcMonitor.observe``.  Expect the repair pass
  (``updated_worst_ratio``, with ``repair_potential`` and its Dijkstra
  ``_repair`` under it) and the per-record ingest to share the time;
  the e2e benchmark times the ingest span separately.
* ``ingest-object`` -- the per-record object path of ``bench_e2e``
  (decode records, absorb through ``add_event``/``add_message``).
* ``ingest-columnar`` -- the columnar path (``decode_records_columnar``
  + ``absorb_batch``); compare against ``ingest-object`` to see the
  object-construction and dict-bookkeeping time the columnar path
  removed.

Usage::

    python tools/profile_hotpath.py                      # monitor, top 25
    python tools/profile_hotpath.py --target ingest-object --top 15
    python tools/profile_hotpath.py --target ingest-columnar --sort tottime
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

TARGETS = ("monitor", "ingest-object", "ingest-columnar")


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


def ingest_workload(events: int, columnar: bool):
    import bench_e2e

    wires = bench_e2e.gate_workload(bench_e2e.DEFAULT_GATE_TRACES, events)
    run = (
        bench_e2e.ingest_columnar if columnar else bench_e2e.ingest_object
    )
    n = sum(len(w) for w in wires)

    def body():
        return run(wires, bench_e2e.DEFAULT_BATCH, frozenset())

    path = "columnar" if columnar else "object"
    return body, f"{path} ingest, {n} wire records"


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
        "trace for ingest targets",
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
    else:
        body, label = ingest_workload(
            args.events, args.target == "ingest-columnar"
        )

    body()  # warm: imports, first-touch allocations
    profiler = cProfile.Profile()
    profiler.enable()
    body()
    profiler.disable()

    print(f"[profile_hotpath] {label}, sorted by {args.sort}")
    stats = pstats.Stats(profiler, stream=sys.stdout)
    stats.sort_stats(args.sort).print_stats(args.top)
    if args.out:
        stats.dump_stats(args.out)
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
