"""Telemetry-plane acceptance benchmark: cost, determinism, transparency.

The observability PR's contract has three legs, each gated here:

* **Disabled cost (the gated number).**  Telemetry off must be near
  free.  Components bind an instrument bundle (or ``None``) at
  construction, so the disabled residue is one attribute load plus an
  ``is None`` test per instrumented call site.  That residue is
  micro-measured directly (hooked loop minus empty loop, min over
  reps), scaled by a conservative hooks-per-record estimate, and
  divided by the measured per-record time of ``bench_e2e``'s
  wire-to-digraph ingest span -- the hottest span the hooks ride.  CI
  ceilings the ratio (``--max-overhead``, default 0.02 = the <2%%
  promise; nominal is well under 0.5%%).
* **Deterministic merge.**  A 2-worker :class:`ParallelFleet`'s
  deterministic metrics dump (``deterministic_only=True`` -- counters
  and histograms declared stream-shaped, never wall-clock) must be
  **bit-identical** between the process and thread backends, and stay
  so when one worker is crashed mid-run (the dead worker contributes
  its last-synced rows, exactly like ``report()``).
* **Transparency.**  Telemetry must not perturb results: per-trace
  worst ratios and the violating-trace set are asserted bit-identical
  with telemetry on vs off, and a disabled fleet must export zero
  rows.

Also runnable as a script (CI smoke / the gate)::

    python benchmarks/bench_obs.py --gate-events 40 --traces 6 --reps 2
    python benchmarks/bench_obs.py --json BENCH_obs.json
"""

from __future__ import annotations

import argparse
import gc
import json
import random
import sys
import time
from fractions import Fraction

from repro.core.events import Event
from repro.obs import metrics as obs_metrics
from repro.runtime.parallel import ParallelFleet
from repro.scenarios.generators import concurrent_workload
from repro.sim.trace import ReceiveRecord

import bench_e2e

DEFAULT_GATE_TRACES = 10
DEFAULT_GATE_EVENTS = 150
DEFAULT_TRACES = 10
DEFAULT_REPS = 3
DEFAULT_BATCH = 64
DEFAULT_MAX_OVERHEAD = 0.02
HOOK_ITERS = 200_000
# Disabled hooks actually riding the per-record ingest path, counted
# generously: the worker's per-batch span amortizes to well under one
# per record, the monitor refresh hook fires once per observe, the
# group flush hooks once per watermark flush, the dispatcher hooks
# once per wire batch.  Four per record over-counts every
# configuration shipped.
HOOKS_PER_RECORD = 4
WORKLOAD_SEED = 11
XI = Fraction("1.2")


class _Hooked:
    __slots__ = ("_obs",)

    def __init__(self) -> None:
        self._obs = None


def hook_cost_ns(iters: int = HOOK_ITERS, reps: int = 5) -> float:
    """The disabled-hook residue: (attribute load + ``is None`` test)
    per call site, isolated as hooked-loop minus empty-loop time."""
    holder = _Hooked()
    span = range(iters)
    best_hooked = best_empty = float("inf")
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        for _rep in range(reps):
            start = time.perf_counter_ns()
            for _ in span:
                if holder._obs is not None:  # the disabled hook
                    raise AssertionError
            best_hooked = min(best_hooked, time.perf_counter_ns() - start)
            start = time.perf_counter_ns()
            for _ in span:
                pass
            best_empty = min(best_empty, time.perf_counter_ns() - start)
    finally:
        if enabled:
            gc.enable()
    return max(0.0, (best_hooked - best_empty) / iters)


def ingest_span_ns(
    gate_traces: int, gate_events: int, reps: int, batch: int
) -> tuple[float, int]:
    """Per-record time of bench_e2e's row wire-to-digraph ingest
    span (min over reps), the denominator of the overhead ratio."""
    wires = bench_e2e.gate_workload(gate_traces, gate_events)
    n_records = sum(len(w) for w in wires)
    best = float("inf")
    for _rep in range(reps):
        elapsed, _stats = bench_e2e.ingest_rows(
            wires, batch, frozenset()
        )
        best = min(best, elapsed)
    return best * 1e9 / n_records, n_records


def disabled_overhead(
    gate_traces: int, gate_events: int, reps: int, batch: int
) -> dict:
    hook_ns = hook_cost_ns()
    span_ns, n_records = ingest_span_ns(gate_traces, gate_events, reps, batch)
    ratio = (hook_ns * HOOKS_PER_RECORD) / span_ns if span_ns else 0.0
    return {
        "hook_ns": round(hook_ns, 3),
        "hooks_per_record": HOOKS_PER_RECORD,
        "ingest_span_ns_per_record": round(span_ns, 1),
        "ingest_records": n_records,
        "disabled_overhead_ratio": round(ratio, 6),
    }


# ----------------------------------------------------------------------
# determinism + transparency fleets
# ----------------------------------------------------------------------


def workload(n_traces: int) -> list[tuple]:
    return list(
        concurrent_workload(
            random.Random(WORKLOAD_SEED),
            n_traces=n_traces,
            records_per_trace=(30, 60),
        )
    )


def poison_record() -> ReceiveRecord:
    """An event at index 7 with no predecessors: ValueError in the
    shard engine, the deterministic worker-crash injection the
    parallel tests use."""
    return ReceiveRecord(
        event=Event(0, 7),
        time=1.0,
        sender=None,
        send_event=None,
        send_time=None,
        payload=None,
        processed=True,
        sends=(),
    )


def doomed_trace(fleet: ParallelFleet) -> str:
    """A fresh trace id the fleet's placement routes to worker 0 (the
    one the poison kills)."""
    return next(
        f"d{i}"
        for i in range(1000)
        if fleet.worker_of(fleet.shard_of(f"d{i}")) == 0
    )


def run_fleet(
    stream: list[tuple],
    backend: str,
    *,
    enabled: bool,
    crash: bool,
) -> dict:
    """One instrumented (or not) fleet pass; returns the canonical
    deterministic dump plus the result surface for identity checks."""
    previous = obs_metrics.set_enabled(enabled)
    obs_metrics.reset_global_registry()
    try:
        with ParallelFleet(
            XI,
            n_shards=4,
            n_workers=2,
            batch_size=8,
            backend=backend,
            wire_batch=16,
        ) as fleet:
            for trace_id, record in stream:
                fleet.ingest(trace_id, record)
            fleet.flush()
            # Fill the per-worker caches at a barrier point -- the rows
            # a crashed worker will contribute afterwards.
            fleet.metrics_rows()
            crashed = ()
            if crash:
                fleet.ingest(doomed_trace(fleet), poison_record())
                fleet.flush()  # the barrier that discovers the crash
                crashed = fleet.report().crashed_shards
                if not crashed:
                    raise AssertionError("poison failed to crash a worker")
            dump = json.dumps(
                fleet.metrics_snapshot(deterministic_only=True),
                sort_keys=True,
                separators=(",", ":"),
            )
            rows = len(fleet.metrics_rows())
            ratios = tuple(
                sorted(
                    (str(tid), str(ratio))
                    for tid, ratio in fleet.all_ratios()
                )
            )
            violating = tuple(sorted(map(str, fleet.violating_traces())))
            return {
                "dump": dump,
                "rows": rows,
                "ratios": ratios,
                "violating": violating,
                "crashed_shards": crashed,
            }
    finally:
        obs_metrics.set_enabled(previous)
        obs_metrics.reset_global_registry()


def run(
    gate_traces: int,
    gate_events: int,
    reps: int,
    batch: int,
    n_traces: int,
) -> dict:
    stream = workload(n_traces)

    overhead = disabled_overhead(gate_traces, gate_events, reps, batch)

    # Deterministic merge: process vs thread, clean and crashed.
    clean = {
        backend: run_fleet(stream, backend, enabled=True, crash=False)
        for backend in ("thread", "process")
    }
    crashed = {
        backend: run_fleet(stream, backend, enabled=True, crash=True)
        for backend in ("thread", "process")
    }
    cross_identical = clean["thread"]["dump"] == clean["process"]["dump"]
    crash_identical = crashed["thread"]["dump"] == crashed["process"]["dump"]

    # Transparency: telemetry on vs off must not perturb results, and
    # a disabled fleet must export nothing.
    off = run_fleet(stream, "thread", enabled=False, crash=False)
    on = clean["thread"]
    on_off_identical = (
        on["ratios"] == off["ratios"] and on["violating"] == off["violating"]
    )

    return {
        "overhead": overhead,
        "determinism": {
            "dump_bytes": len(on["dump"]),
            "instrument_rows": on["rows"],
            "cross_backend_identical": cross_identical,
            "crash_tolerant_identical": crash_identical,
            "crashed_shards": list(crashed["thread"]["crashed_shards"]),
        },
        "transparency": {
            "on_off_identical": on_off_identical,
            "disabled_rows": off["rows"],
            "violations": len(on["violating"]),
        },
        "gate": {
            "disabled_overhead_ratio": overhead["disabled_overhead_ratio"],
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=(
            "telemetry-plane acceptance: disabled-cost ceiling, "
            "cross-backend deterministic-dump bit-identity (crash "
            "tolerance included), and on-vs-off result transparency"
        )
    )
    parser.add_argument(
        "--gate-traces", type=int, default=DEFAULT_GATE_TRACES,
        help="traces in the ingest-span denominator workload",
    )
    parser.add_argument(
        "--gate-events", type=int, default=DEFAULT_GATE_EVENTS,
        help="events per gate trace",
    )
    parser.add_argument(
        "--reps", type=int, default=DEFAULT_REPS,
        help="ingest-span repetitions; min over reps",
    )
    parser.add_argument(
        "--batch", type=int, default=DEFAULT_BATCH,
        help="records per wire batch in the ingest span",
    )
    parser.add_argument(
        "--traces", type=int, default=DEFAULT_TRACES,
        help="traces in the determinism/transparency fleet workload",
    )
    parser.add_argument(
        "--max-overhead", type=float, default=DEFAULT_MAX_OVERHEAD,
        help=(
            "hard ceiling on the disabled-overhead ratio "
            "(0 disables; CI uses 0.02, the <2%% promise)"
        ),
    )
    parser.add_argument(
        "--json", type=str, default=None,
        help="write the metrics dict to this path",
    )
    args = parser.parse_args(argv)

    result = run(
        args.gate_traces,
        args.gate_events,
        args.reps,
        args.batch,
        args.traces,
    )
    over = result["overhead"]
    det = result["determinism"]
    trans = result["transparency"]
    print(
        f"[bench_obs] disabled hooks: {over['hook_ns']:.2f}ns x "
        f"{over['hooks_per_record']}/record over "
        f"{over['ingest_span_ns_per_record']:.0f}ns/record ingest span "
        f"= {over['disabled_overhead_ratio']:.4%} overhead"
    )
    print(
        f"[bench_obs] deterministic dump ({det['dump_bytes']} bytes, "
        f"{det['instrument_rows']} rows): process vs thread "
        f"{'bit-identical' if det['cross_backend_identical'] else 'DIFFER'}"
        f"; with worker crash (shards {det['crashed_shards']}): "
        f"{'bit-identical' if det['crash_tolerant_identical'] else 'DIFFER'}"
    )
    print(
        f"[bench_obs] transparency: ratios + {trans['violations']} "
        f"violations on-vs-off "
        f"{'identical' if trans['on_off_identical'] else 'DIFFER'}, "
        f"{trans['disabled_rows']} rows exported while disabled"
    )
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(result, fh, indent=2)
        print(f"wrote {args.json}")

    failed = False
    if args.max_overhead and (
        over["disabled_overhead_ratio"] >= args.max_overhead
    ):
        print(
            f"[bench_obs] FAIL: disabled overhead "
            f"{over['disabled_overhead_ratio']:.4%} at or above the "
            f"{args.max_overhead:.0%} ceiling"
        )
        failed = True
    if not det["cross_backend_identical"]:
        print("[bench_obs] FAIL: cross-backend dump differs")
        failed = True
    if not det["crash_tolerant_identical"]:
        print("[bench_obs] FAIL: crash-tolerant dump differs")
        failed = True
    if not trans["on_off_identical"]:
        print("[bench_obs] FAIL: telemetry perturbed results")
        failed = True
    if trans["disabled_rows"]:
        print("[bench_obs] FAIL: disabled fleet exported metric rows")
        failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
