"""Summary compaction vs. unbounded growth on relay-chain workloads.

The adversarial memory shape for the monitoring stack: a relay chain
threads every event of a trace into one causal chain, so the exact
no-crossing eviction criterion can never remove anything -- at the
seed, a budget-bounded :class:`~repro.analysis.fleet.MonitorFleet`
could only count ``budget_overruns`` while its digraphs grew without
bound.  Summary compaction (PR 4) replaces the settled past of such a
chain by boundary-to-boundary summary edges, so the fleet's
``event_budget`` becomes a real bound with every per-trace worst ratio
still bit-identical to an unbudgeted standalone monitor.

Measured and gated:

* the budget-bounded fleet's ``peak_live_events`` stays within its
  configured budget, with zero overruns and zero degraded traces, and
  summary compaction genuinely engaged (exact eviction alone cannot
  bound this shape);
* every per-trace worst ratio is bit-identical to the unbudgeted
  standalone monitors (whose peak live events -- the whole history --
  are reported as the growth contrast);
* a single periodically-compacted monitor's live events stay
  O(boundary + compaction interval), independent of trace length.

Reported, not gated: the ``floor=None`` relay chain of
``docs/architecture.md``'s "Known limits" -- one short chain whose
checker is summary-compacted without a floor (exact at every ratio
``>= 1``), with its seconds spent compacting, its live summary edges
and its worst ratio (checked against an uncompacted monitor).

Also runnable as a script (CI smoke / the acceptance gate)::

    python benchmarks/bench_compaction.py --traces 8 --records 120
    python benchmarks/bench_compaction.py --json BENCH_compaction.json
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time

from repro.analysis.fleet import MonitorFleet
from repro.analysis.online import OnlineAbcMonitor
from repro.scenarios.generators import relay_chain_workload

DEFAULT_TRACES = 16
DEFAULT_RECORDS = 400
DEFAULT_BATCH = 16
DEFAULT_SHARDS = 4
DEFAULT_BUDGET = 400
DEFAULT_SEED = 13
# A compacted monitor's live events are bounded by its pinned core (the
# per-process frontiers plus in-flight sends) plus one compaction
# interval of growth -- independent of how long the chain runs.
MONITOR_COMPACT_EVERY = 32
MONITOR_PEAK_BOUND = MONITOR_COMPACT_EVERY + 16
# The floor=None chain: relay seed, records and compaction cadence.
UNFLOORED_SEED = 0
UNFLOORED_RECORDS = 60
UNFLOORED_EVERY = 20


def build_workload(seed, n_traces, n_records):
    """Per-trace relay-chain record lists, plus the interleaved stream."""
    rng = random.Random(seed)
    traces = {
        f"relay-{k}": relay_chain_workload(rng, n_records)
        for k in range(n_traces)
    }
    offsets = {tid: rng.uniform(0.0, 50.0) for tid in traces}
    stream = sorted(
        (
            (offsets[tid] + record.time, tid, record)
            for tid, records in traces.items()
            for record in records
        ),
        key=lambda item: (item[0], item[1]),
    )
    return traces, [(tid, record) for _at, tid, record in stream]


def run_standalone(traces):
    """Unbudgeted monitors (the seed behavior): ratios + peak live."""
    ratios = {}
    peak = 0
    calls = 0
    for tid, records in traces.items():
        monitor = OnlineAbcMonitor()
        for record in records:
            monitor.observe(record)
        ratios[tid] = monitor.worst_ratio
        peak += monitor.n_events  # every digraph lives forever
        calls += monitor.oracle_calls
    return ratios, peak, calls


def run_fleet(stream, batch_size, n_shards, event_budget):
    fleet = MonitorFleet(
        n_shards=n_shards, batch_size=batch_size, event_budget=event_budget
    )
    fleet.ingest_many(stream)
    fleet.flush()
    return fleet


def run_compacting_monitor(records, compact_every=MONITOR_COMPACT_EVERY):
    """One monitor, summary-compacted on a fixed cadence; returns
    (worst ratio, peak live events)."""
    monitor = OnlineAbcMonitor()
    in_flight: dict = {}
    peak = 0
    for i, record in enumerate(records):
        monitor.observe(record)
        src = record.send_event
        if src is not None and in_flight.get(src, 0) > 0:
            in_flight[src] -= 1
            if not in_flight[src]:
                del in_flight[src]
        if record.sends:
            in_flight[record.event] = in_flight.get(record.event, 0) + len(
                record.sends
            )
        peak = max(peak, monitor.n_events)
        if (i + 1) % compact_every == 0:
            monitor.forget_prefix(
                monitor.compactable_prefix(in_flight), summarize=True
            )
    assert monitor.forgotten_message_edges == 0
    return monitor.worst_ratio, peak


def run_unfloored_chain():
    """One monitor over a relay chain whose checker is summary-compacted
    with ``floor=None`` every ``UNFLOORED_EVERY`` records, the monitor's
    pins (frontiers and in-flight sends) kept live; returns (seconds
    spent compacting, live summary edges, worst ratio)."""
    records = relay_chain_workload(
        random.Random(UNFLOORED_SEED), UNFLOORED_RECORDS
    )
    monitor = OnlineAbcMonitor()
    checker = monitor._checker
    compact_s = 0.0
    for i, record in enumerate(records):
        monitor.observe(record)
        if (i + 1) % UNFLOORED_EVERY == 0:
            start = time.perf_counter()
            checker.compact_prefix(
                checker.summarizable_prefix(monitor.pinned_events()),
                floor=None,
            )
            compact_s += time.perf_counter() - start
    plain = OnlineAbcMonitor()
    for record in records:
        plain.observe(record)
    assert monitor.worst_ratio == plain.worst_ratio, (
        f"floor=None chain: {monitor.worst_ratio} != {plain.worst_ratio}"
    )
    return compact_s, checker.n_summary_edges, monitor.worst_ratio


def _timed(fn, *args):
    start = time.perf_counter()
    result = fn(*args)
    return result, time.perf_counter() - start


def compare(
    seed=DEFAULT_SEED,
    n_traces=DEFAULT_TRACES,
    n_records=DEFAULT_RECORDS,
    batch_size=DEFAULT_BATCH,
    n_shards=DEFAULT_SHARDS,
    event_budget=DEFAULT_BUDGET,
):
    """Run both contenders; returns the metrics dict.

    Raises ``AssertionError`` unless the budget genuinely bounds peak
    live events on the chain shape (no overruns, compaction engaged,
    seed growth well beyond the budget) with every per-trace worst
    ratio bit-identical and nontrivial, and the single compacted
    monitor's peak stays under the trace-length-independent bound.
    """
    traces, stream = build_workload(seed, n_traces, n_records)
    (naive_ratios, naive_peak, naive_calls), naive_s = _timed(
        run_standalone, traces
    )
    fleet, fleet_s = _timed(
        run_fleet, stream, batch_size, n_shards, event_budget
    )
    report = fleet.report()
    for trace_id, ratio in naive_ratios.items():
        assert ratio is not None and ratio > 1, (
            f"{trace_id}: relay workload must close relevant cycles"
        )
        fleet_ratio = fleet.worst_ratio(trace_id)
        assert fleet_ratio == ratio, (
            f"{trace_id}: fleet {fleet_ratio} != standalone {ratio}"
        )
    assert report.degraded_traces == 0, "exact workload must not degrade"
    assert report.summary_compactions > 0, (
        "relay chains are never exactly settleable; the summary "
        "fallback must engage"
    )
    assert report.budget_overruns == 0, (
        f"{report.budget_overruns} budget overruns"
    )
    assert report.peak_live_events <= event_budget, (
        f"peak {report.peak_live_events} exceeds budget {event_budget}"
    )
    assert naive_peak >= 2 * event_budget, (
        f"seed-growth contrast too small: standalone peak {naive_peak} "
        f"vs budget {event_budget}"
    )
    mono_ratio, mono_peak = run_compacting_monitor(
        next(iter(traces.values()))
    )
    assert mono_ratio == naive_ratios["relay-0"]
    assert mono_peak <= MONITOR_PEAK_BOUND, (
        f"compacted monitor peak {mono_peak} exceeds the O(boundary) "
        f"bound {MONITOR_PEAK_BOUND}"
    )
    unfloored_s, unfloored_edges, unfloored_worst = run_unfloored_chain()
    return {
        "traces": n_traces,
        "records": len(stream),
        "batch_size": batch_size,
        "n_shards": n_shards,
        "event_budget": event_budget,
        "naive_s": naive_s,
        "fleet_s": fleet_s,
        "naive_peak_live_events": naive_peak,
        "fleet_peak_live_events": report.peak_live_events,
        "memory_shrink": naive_peak / report.peak_live_events,
        "naive_oracle_calls": naive_calls,
        "fleet_oracle_calls": report.oracle_calls,
        "summary_compactions": report.summary_compactions,
        "summary_edges": report.summary_edges,
        "tombstoned_events": report.tombstoned_events,
        "evictions": report.evictions,
        "monitor_peak_live_events": mono_peak,
        "monitor_peak_bound": MONITOR_PEAK_BOUND,
        "unfloored_records": UNFLOORED_RECORDS,
        "unfloored_compact_s": unfloored_s,
        "unfloored_summary_edges": unfloored_edges,
        "unfloored_worst_ratio": str(unfloored_worst),
    }


# ----------------------------------------------------------------------
# pytest entry
# ----------------------------------------------------------------------


def test_compaction_bounds_memory_bit_identically():
    """Budget-bounded fleet on relay chains: peak within budget, summary
    compaction engaged, ratios bit-identical to unbudgeted monitors."""
    r = compare(n_traces=8, n_records=200, event_budget=200)
    sys.stderr.write(
        f"\n[bench_compaction] traces={r['traces']} records={r['records']} "
        f"peak {r['naive_peak_live_events']} -> "
        f"{r['fleet_peak_live_events']} ({r['memory_shrink']:.1f}x shrink), "
        f"{r['summary_compactions']} summary compactions\n"
    )


# ----------------------------------------------------------------------
# script mode (CI smoke, the gate, JSON artifact)
# ----------------------------------------------------------------------


def main(argv=None):
    parser = argparse.ArgumentParser(
        description=(
            "Gate the summary-compaction memory bound on a relay-chain "
            "workload: budgeted MonitorFleet vs unbudgeted monitors."
        )
    )
    parser.add_argument("--traces", type=int, default=DEFAULT_TRACES)
    parser.add_argument(
        "--records", type=int, default=DEFAULT_RECORDS,
        help="records per relay trace",
    )
    parser.add_argument("--batch", type=int, default=DEFAULT_BATCH)
    parser.add_argument("--shards", type=int, default=DEFAULT_SHARDS)
    parser.add_argument(
        "--budget", type=int, default=None,
        help="global live-event budget (default: 25 events per trace)",
    )
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument(
        "--json", type=str, default=None,
        help="write the metrics to this JSON file",
    )
    args = parser.parse_args(argv)

    budget = args.budget
    if budget is None:
        # Scale with the population, not the trace length: that IS the
        # memory guarantee under test.
        budget = max(50, 25 * args.traces)
    r = compare(
        seed=args.seed,
        n_traces=args.traces,
        n_records=args.records,
        batch_size=args.batch,
        n_shards=args.shards,
        event_budget=budget,
    )
    print(
        f"workload: {r['traces']} relay traces x {args.records} records "
        f"(batch={r['batch_size']}, shards={r['n_shards']}, "
        f"budget={r['event_budget']})"
    )
    print(
        f"standalone: peak {r['naive_peak_live_events']:6d} live events "
        f"(unbounded growth), {r['naive_oracle_calls']} oracle calls, "
        f"{r['naive_s'] * 1e3:.1f} ms"
    )
    print(
        f"fleet     : peak {r['fleet_peak_live_events']:6d} live events "
        f"(<= budget), {r['fleet_oracle_calls']} oracle calls, "
        f"{r['fleet_s'] * 1e3:.1f} ms"
    )
    print(
        f"memory shrink {r['memory_shrink']:.1f}x via "
        f"{r['summary_compactions']} summary compactions "
        f"({r['summary_edges']} live summary edges, "
        f"{r['tombstoned_events']} events compacted away)"
    )
    print(
        f"single compacted monitor: peak {r['monitor_peak_live_events']} "
        f"live events (bound {r['monitor_peak_bound']}, "
        f"independent of trace length)"
    )
    print("per-trace worst ratios bit-identical to standalone monitors")
    print(
        f"floor=None relay chain ({r['unfloored_records']} records, "
        f"compacted every {UNFLOORED_EVERY}): "
        f"{r['unfloored_compact_s'] * 1e3:.1f} ms compacting, "
        f"{r['unfloored_summary_edges']} summary edges, worst ratio "
        f"{r['unfloored_worst_ratio']}"
    )
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(r, fh, indent=2)
        print(f"wrote {args.json}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
