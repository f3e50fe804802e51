"""Row ingest against a frozen per-record baseline, bit for bit.

The acceptance benchmark of the one ingest path: wire rows (the
:data:`~repro.sim.trace.RECORD_ROW` layout producers encode) go unchanged
to :meth:`~repro.runtime.shard.ShardGroup.ingest_batch`, to
:meth:`~repro.analysis.online.OnlineAbcMonitor.observe_batch` and on to
:meth:`~repro.core.synchrony.AdmissibilityChecker.absorb_batch`.  Three
levels are measured, all starting from pre-encoded wire rows -- the
shape batches actually have when they reach a worker:

* **ingest (the gated number)** -- a per-record baseline frozen in this
  file (decode each row into ``ReceiveRecord`` / ``Event`` objects with
  the decode below, absorb them one at a time through
  ``add_event``/``add_message``, message filtering included) against
  the row path's span (the pass ``observe_batch`` makes over the rows
  before its refresh: filter the messages into an origin column, then
  one ``absorb_batch``) on the firehose gate workload.  This span --
  wire to digraph arrays -- is the number CI floors
  (``--min-speedup``, default 1.5x).  The ratio-search oracle and the
  monitor's in-flight ledger are deliberately *outside* the timed
  span: the oracle is the same code on both sides and on
  monitor-dominated workloads swamps the ingest delta; both are in the
  monitor number below, so their share stays visible.
* **monitor e2e (reported, not gated)** -- the same wire batches
  replayed through full monitors (``observe_batch``, every worst-ratio
  refresh and the ledger included) against a per-record reference
  monitor (the frozen baseline plus one ``updated_worst_ratio`` per
  batch).  Doubles as the differential harness: every rep asserts the
  per-batch worst-ratio sequences, oracle-call counts, ratio-change
  logs and forgotten-edge counters **bit-identical**.
* **ingest plane (reported, not gated)** -- a >=400-trace concurrent
  workload (storm/burst/idler mix, :func:`build_workload`) pushed
  through a full :class:`~repro.runtime.shard.ShardGroup` on the
  one path, watermark flushes and violation bookkeeping included.
  Per-trace worst ratios and the violating set are checked against
  ``worst_relevant_ratio(build_execution_graph(...))`` per trace;
  records/s is reported.

A per-profile monitor-e2e sweep (storm / burst / idler / relay /
firehose) is reported alongside: the blend is workload-shaped --
oracle-heavy storm traces dilute the ingest win, message-dense
firehose batches show its best case -- and the sweep keeps that spread
visible.

Also runnable as a script (CI smoke / the gate)::

    python benchmarks/bench_e2e.py --gate-events 40 --reps 2 --min-speedup 0
    python benchmarks/bench_e2e.py --min-speedup 1.5 --json BENCH_e2e.json
"""

from __future__ import annotations

import argparse
import gc
import json
import random
import sys
import time
from fractions import Fraction

from repro.analysis.online import OnlineAbcMonitor
from repro.core.events import Event
from repro.core.synchrony import AdmissibilityChecker, worst_relevant_ratio
from repro.runtime.shard import ShardGroup, shard_index_of
from repro.scenarios.generators import (
    concurrent_workload,
    profiled_trace_records,
)
from repro.sim.trace import (
    ReceiveRecord,
    SendRecord,
    Trace,
    build_execution_graph,
    encode_record,
)

DEFAULT_GATE_EVENTS = 200
DEFAULT_GATE_TRACES = 15
DEFAULT_REPS = 5
DEFAULT_BATCH = 64
DEFAULT_MIN_SPEEDUP = 1.5
GATE_SEED = 7
PROFILES = ("storm", "burst", "idler", "relay", "firehose")
PROFILE_EVENTS = 150
PROFILE_SEED = 3
PLANE_TRACES = 420
PLANE_RECORDS = (40, 80)
PLANE_SHARDS = 8
PLANE_SEED = 11
PLANE_XI = Fraction(3)


def build_workload(seed, n_traces, records_per_trace):
    """The ingest plane's concurrent workload: storm-heavy, so dense
    digraphs keep the shard engine's flushes and oracle busy."""
    return list(
        concurrent_workload(
            random.Random(seed),
            n_traces=n_traces,
            records_per_trace=records_per_trace,
            profile_weights={"storm": 0.5, "burst": 0.35, "idler": 0.15},
        )
    )


def encode_stream(records) -> list[tuple]:
    """Pre-encode one trace's records as dispatcher wire rows."""
    return [
        (tick, "t", encode_record(record))
        for tick, record in enumerate(records, 1)
    ]


# ----------------------------------------------------------------------
# the frozen per-record baseline
# ----------------------------------------------------------------------


def frozen_decode(row: tuple) -> ReceiveRecord:
    """Row -> record objects, frozen here as the codec decoded them
    before rows became the batch format (trusted construction:
    ``__new__`` plus direct field stores)."""
    (
        process,
        index,
        time_,
        sender,
        send_process,
        send_index,
        send_time,
        payload,
        processed,
        sends,
    ) = row
    event = Event.__new__(Event)
    event_fields = event.__dict__
    event_fields["process"] = process
    event_fields["index"] = index
    if send_process is None:
        send_event = None
    else:
        send_event = Event.__new__(Event)
        send_fields = send_event.__dict__
        send_fields["process"] = send_process
        send_fields["index"] = send_index
    if sends:
        decoded_sends = []
        for d, p, dl, dt in sends:
            send = SendRecord.__new__(SendRecord)
            fields = send.__dict__
            fields["dest"] = d
            fields["payload"] = p
            fields["delay"] = dl
            fields["deliver_time"] = dt
            decoded_sends.append(send)
        sends = tuple(decoded_sends)
    else:
        sends = ()
    record = ReceiveRecord.__new__(ReceiveRecord)
    fields = record.__dict__
    fields["event"] = event
    fields["time"] = time_
    fields["sender"] = sender
    fields["send_event"] = send_event
    fields["send_time"] = send_time
    fields["payload"] = payload
    fields["processed"] = processed
    fields["sends"] = sends
    return record


def absorb_per_record(checker, rows, faulty) -> tuple[bool, int]:
    """The baseline body: decode each wire row to records, absorb one
    at a time through ``add_event``/``add_message`` (faulty senders
    dropped, edges into a forgotten prefix skipped and counted).
    Returns whether a message edge was added, and the skipped count."""
    first_live = checker.first_live_index
    added = False
    forgotten = 0
    for _tick, _tid, row in rows:
        record = frozen_decode(row)
        checker.add_event(record.event)
        sender = record.sender
        send_event = record.send_event
        if sender is None or send_event is None:
            continue
        if sender in faulty:
            continue
        if send_event.index < first_live(send_event.process):
            forgotten += 1
            continue
        if checker.add_message(send_event, record.event):
            added = True
    return added, forgotten


def absorb_rows(checker, rows, faulty) -> tuple[int, int]:
    """The row path's span: the pass ``observe_batch`` makes before
    its refresh -- filter each row's message into an origin column,
    then one ``absorb_batch``.  Returns the edges added and the
    skipped count."""
    first_live = checker.first_live_index
    processes = []
    indexes = []
    messages = []
    forgotten = 0
    for _tick, _tid, row in rows:
        process, index, _t, sender, sp, si, _st, _p, _ok, _sends = row
        processes.append(process)
        indexes.append(index)
        if sender is None or sp is None or sender in faulty:
            messages.append(None)
        elif si < first_live(sp):
            forgotten += 1
            messages.append(None)
        else:
            messages.append((sp, si))
    return checker.absorb_batch((processes, indexes), messages), forgotten


# ----------------------------------------------------------------------
# ingest: wire rows -> digraph arrays, no oracle in the timed span
# ----------------------------------------------------------------------


def _timed_span():
    """GC discipline for the ingest spans, ``timeit``-style: collect
    once so no path inherits the other's garbage debt, then disable
    collection for the span.  Without this, gen-2 collections land
    stochastically in either span and scan every retained graph --
    benchmark-harness noise worth 2x, not a property of either path.
    Returns whether the caller must re-enable."""
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    return was_enabled


def _ingest(absorb, wires, batch, faulty):
    reenable = _timed_span()
    start = time.perf_counter()
    checkers = []
    for wire in wires:
        checker = AdmissibilityChecker()
        for i in range(0, len(wire), batch):
            absorb(checker, wire[i : i + batch], faulty)
        checkers.append(checker)
    elapsed = time.perf_counter() - start
    if reenable:
        gc.enable()
    return elapsed, [(c.n_events, c.n_messages) for c in checkers]


def ingest_object(wires, batch, faulty):
    """The frozen per-record baseline over every gate trace."""
    return _ingest(absorb_per_record, wires, batch, faulty)


def ingest_rows(wires, batch, faulty):
    """The row path's span over every gate trace."""
    return _ingest(absorb_rows, wires, batch, faulty)


# ----------------------------------------------------------------------
# monitor e2e: full observe path, oracle included
# ----------------------------------------------------------------------


def replay_reference(wire, batch, faulty):
    """The per-record reference monitor: the frozen baseline plus one
    ``updated_worst_ratio`` per batch that added a message edge."""
    start = time.perf_counter()
    checker = AdmissibilityChecker()
    worst = None
    ratios = []
    changes = []
    forgotten = 0
    for i in range(0, len(wire), batch):
        added, skipped = absorb_per_record(checker, wire[i : i + batch], faulty)
        forgotten += skipped
        if added:
            previous = worst
            worst = checker.updated_worst_ratio(previous)
            if worst is not None and worst != previous:
                changes.append(worst)
        ratios.append(worst)
    elapsed = time.perf_counter() - start
    return elapsed, ratios, (checker.oracle_calls, changes, forgotten)


def replay_rows(wire, batch, faulty):
    """The row path: the same wire batches through ``observe_batch``."""
    start = time.perf_counter()
    monitor = OnlineAbcMonitor(faulty=faulty)
    ratios = []
    for i in range(0, len(wire), batch):
        ratios.append(
            monitor.observe_batch([row for _t, _i, row in wire[i : i + batch]])
        )
    elapsed = time.perf_counter() - start
    observed = (
        monitor.oracle_calls,
        [change.worst for change in monitor.changes],
        monitor.forgotten_message_edges,
    )
    return elapsed, ratios, observed


def assert_monitor_identity(wire, batch, faulty):
    """One full-monitor differential rep: the row path against the
    per-record reference, every observable asserted bit-identical.
    Returns both elapsed times so callers can aggregate the
    (untimed-by-the-gate) monitor e2e blend."""
    ref_s, ref_ratios, ref_obs = replay_reference(wire, batch, faulty)
    rows_s, rows_ratios, rows_obs = replay_rows(wire, batch, faulty)
    assert rows_ratios == ref_ratios, (
        "row path diverged on the per-batch worst-ratio sequence"
    )
    assert rows_obs == ref_obs, (
        "row path diverged on oracle calls, change log or forgotten edges"
    )
    return ref_s, rows_s


def gate_shootout(wires, faulty, batch, reps) -> dict:
    """Interleaved min-of-``reps`` ingest shootout on a fleet of
    traces, identity-checked every rep.

    The timed span is wire rows -> digraph arrays (decode or row pass,
    filter, absorb).  Each rep also runs the full-monitor differential
    replay on every trace -- oracle included, outside the timed span
    -- so the bit-identity contract (ratios, oracle calls, change
    logs, forgotten edges) is proven on the gate workload itself; the
    monitor blend is reported alongside the gated ingest number.
    """
    n_records = sum(len(w) for w in wires)
    best = {
        "object_s": float("inf"),
        "rows_s": float("inf"),
        "monitor_reference_s": float("inf"),
        "monitor_rows_s": float("inf"),
    }
    for _rep in range(reps):
        obj_s, obj_stats = ingest_object(wires, batch, faulty)
        rows_s, rows_stats = ingest_rows(wires, batch, faulty)
        assert obj_stats == rows_stats, (
            "row ingest diverged on per-trace event/message counts"
        )
        mon_ref = mon_rows = 0.0
        for wire in wires:
            r, o = assert_monitor_identity(wire, batch, faulty)
            mon_ref += r
            mon_rows += o
        best["object_s"] = min(best["object_s"], obj_s)
        best["rows_s"] = min(best["rows_s"], rows_s)
        best["monitor_reference_s"] = min(best["monitor_reference_s"], mon_ref)
        best["monitor_rows_s"] = min(best["monitor_rows_s"], mon_rows)
    return {
        "traces": len(wires),
        "records": n_records,
        "batch": batch,
        "object_s": round(best["object_s"], 6),
        "rows_s": round(best["rows_s"], 6),
        "object_records_per_s": round(n_records / best["object_s"]),
        "rows_records_per_s": round(n_records / best["rows_s"]),
        "e2e_speedup": round(best["object_s"] / best["rows_s"], 3),
        "monitor_reference_s": round(best["monitor_reference_s"], 6),
        "monitor_rows_s": round(best["monitor_rows_s"], 6),
        "monitor_e2e_speedup": round(
            best["monitor_reference_s"] / best["monitor_rows_s"], 3
        ),
        "bit_identical": True,
    }


def monitor_shootout(records, faulty, batch, reps) -> dict:
    """Interleaved min-of-``reps`` full-monitor replay of one trace,
    identity-checked every rep (per-batch ratios, oracle calls, change
    log, forgotten edges).  Oracle included: this is the blended e2e
    number of the per-profile sweep."""
    wire = encode_stream(records)
    best = {"reference_s": float("inf"), "rows_s": float("inf")}
    for _rep in range(reps):
        ref_s, rows_s = assert_monitor_identity(wire, batch, faulty)
        best["reference_s"] = min(best["reference_s"], ref_s)
        best["rows_s"] = min(best["rows_s"], rows_s)
    return {
        "records": len(records),
        "batch": batch,
        "reference_s": round(best["reference_s"], 6),
        "rows_s": round(best["rows_s"], 6),
        "e2e_speedup": round(best["reference_s"] / best["rows_s"], 3),
        "bit_identical": True,
    }


def gate_workload(n_traces: int, n_events: int):
    """The gate fleet: message-dense firehose traces (the row path's
    best case -- every record past the wake-ups carries a triggering
    message and sends metadata), pre-encoded as wire rows."""
    rng = random.Random(GATE_SEED)
    return [
        encode_stream(profiled_trace_records(rng, "firehose", n_events))
        for _ in range(n_traces)
    ]


def profile_trace(profile: str, n_events: int):
    records = profiled_trace_records(
        random.Random(PROFILE_SEED), profile, n_events
    )
    return records, frozenset()


# ----------------------------------------------------------------------
# ingest plane: the full shard engine on the one path
# ----------------------------------------------------------------------


def run_group(stream, *, n_shards, batch_size, wire_batch):
    """Push an interleaved wire stream through one ShardGroup, shard
    batches cut exactly as the parallel dispatcher cuts them."""
    group = ShardGroup(range(n_shards), xi=PLANE_XI, batch_size=batch_size)
    start = time.perf_counter()
    buffers: dict[int, list[tuple]] = {}
    tick = 0
    for trace_id, wire_record in stream:
        tick += 1
        shard = shard_index_of(trace_id, n_shards)
        rows = buffers.setdefault(shard, [])
        rows.append((tick, trace_id, wire_record))
        if len(rows) >= wire_batch:
            group.ingest_batch(shard, rows)
            buffers[shard] = []
    for shard, rows in sorted(buffers.items()):
        if rows:
            group.ingest_batch(shard, rows)
    group.flush_all()
    elapsed = time.perf_counter() - start
    answers = {
        trace_id: (state.monitor.worst_ratio, state.degraded)
        for shard in group.shards.values()
        for trace_id, state in shard.traces.items()
    }
    return {
        "elapsed_s": elapsed,
        "answers": answers,
        "violations": group.violating_ids(),
    }


def plane_references(records_stream) -> dict:
    """Per trace, the batch oracle over the whole trace's graph."""
    by_trace: dict = {}
    for trace_id, record in records_stream:
        by_trace.setdefault(trace_id, []).append(record)
    out = {}
    for trace_id, records in by_trace.items():
        n = max(r.event.process for r in records) + 1
        graph = build_execution_graph(Trace(n, frozenset(), records))
        out[trace_id] = worst_relevant_ratio(graph)
    return out


def plane_run(
    seed, n_traces, records_per_trace, n_shards, batch_size, wire_batch
) -> dict:
    """The one path on the ingest plane's workload: answers checked
    against per-trace batch references, throughput reported."""
    records_stream = build_workload(seed, n_traces, records_per_trace)
    stream = [
        (trace_id, encode_record(record)) for trace_id, record in records_stream
    ]
    run = run_group(
        stream,
        n_shards=n_shards,
        batch_size=batch_size,
        wire_batch=wire_batch,
    )
    expected = plane_references(records_stream)
    assert run["answers"] == {
        trace_id: (ratio, False) for trace_id, ratio in expected.items()
    }, "row ingest diverged from the per-trace references"
    assert set(run["violations"]) == {
        trace_id
        for trace_id, ratio in expected.items()
        if ratio is not None and ratio >= PLANE_XI
    }, "row ingest diverged on the violating set"
    return {
        "traces": len(expected),
        "records": len(stream),
        "n_shards": n_shards,
        "batch_size": batch_size,
        "wire_batch": wire_batch,
        "elapsed_s": round(run["elapsed_s"], 6),
        "records_per_s": round(len(stream) / run["elapsed_s"]),
        "violations": len(run["violations"]),
        "matches_references": True,
    }


def run(
    gate_traces: int,
    gate_events: int,
    reps: int,
    batch: int,
    profile_events: int,
    sweep: bool,
    plane: bool,
    plane_traces: int,
    plane_records: tuple[int, int],
) -> dict:
    wires = gate_workload(gate_traces, gate_events)
    gate = {
        "workload": f"firehose-{gate_traces}x{gate_events}",
        **gate_shootout(wires, frozenset(), batch, reps),
    }
    out = {"gate": gate, "profiles": {}, "plane": None}
    if sweep:
        for profile in PROFILES:
            records, faulty = profile_trace(profile, profile_events)
            out["profiles"][profile] = monitor_shootout(
                records, faulty, batch, max(2, reps // 2)
            )
    if plane:
        out["plane"] = plane_run(
            PLANE_SEED,
            plane_traces,
            plane_records,
            PLANE_SHARDS,
            32,
            128,
        )
    return out


# ----------------------------------------------------------------------
# pytest entries
# ----------------------------------------------------------------------


def test_e2e_bit_identity():
    """Pytest entry: smoke-size shootout on the gate workload, every
    profile, and the ingest plane.  Bit-identity with the per-record
    reference (per-batch ratios, oracle calls, change logs) and the
    plane's per-trace answers are asserted inside; no speed floor is
    applied -- wall-clock gating is the CLI's job, on quiet hardware
    or in the dedicated CI step.
    """
    result = run(
        gate_traces=4,
        gate_events=60,
        reps=2,
        batch=16,
        profile_events=40,
        sweep=True,
        plane=True,
        plane_traces=40,
        plane_records=(15, 30),
    )
    assert result["gate"]["bit_identical"]
    for profile, row in result["profiles"].items():
        assert row["bit_identical"], profile
    assert result["plane"]["matches_references"]


# ----------------------------------------------------------------------
# script mode (CI smoke, the gate, JSON artifact)
# ----------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=(
            "row ingest vs a frozen per-record baseline: wire-to-digraph "
            "ingest on the firehose gate workload (bit-identity asserted "
            "every rep, full-monitor differential included) plus the "
            "oracle-inclusive monitor blend and the shard-engine "
            "ingest plane"
        )
    )
    parser.add_argument(
        "--gate-traces", type=int, default=DEFAULT_GATE_TRACES,
        help="traces in the gate fleet",
    )
    parser.add_argument(
        "--gate-events", type=int, default=DEFAULT_GATE_EVENTS,
        help="events per gate trace",
    )
    parser.add_argument(
        "--reps", type=int, default=DEFAULT_REPS,
        help="interleaved repetitions; min over reps is reported",
    )
    parser.add_argument(
        "--batch", type=int, default=DEFAULT_BATCH,
        help="records per wire batch (the flush watermark)",
    )
    parser.add_argument(
        "--profile-events", type=int, default=PROFILE_EVENTS,
        help="events per profile in the per-profile sweep",
    )
    parser.add_argument(
        "--no-sweep", action="store_true",
        help="skip the per-profile sweep (smoke runs)",
    )
    parser.add_argument(
        "--no-plane", action="store_true",
        help="skip the shard-engine ingest plane",
    )
    parser.add_argument(
        "--plane-traces", type=int, default=PLANE_TRACES,
        help="traces in the ingest-plane workload",
    )
    parser.add_argument(
        "--min-plane-records", type=int, default=PLANE_RECORDS[0],
    )
    parser.add_argument(
        "--max-plane-records", type=int, default=PLANE_RECORDS[1],
    )
    parser.add_argument(
        "--min-speedup", type=float, default=DEFAULT_MIN_SPEEDUP,
        help=(
            "hard floor on the wire-to-digraph ingest speedup of the "
            "gate workload (0 disables; CI uses 1.5, nominal is "
            "~3x on a 2-vCPU box)"
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
        args.profile_events,
        not args.no_sweep,
        not args.no_plane,
        args.plane_traces,
        (
            min(args.min_plane_records, args.max_plane_records),
            args.max_plane_records,
        ),
    )
    gate = result["gate"]
    print(
        f"[bench_e2e] ingest {gate['workload']} "
        f"(batch={gate['batch']}): "
        f"per-record {gate['object_s'] * 1e3:.1f}ms -> "
        f"rows {gate['rows_s'] * 1e3:.1f}ms "
        f"({gate['e2e_speedup']:.2f}x, "
        f"{gate['rows_records_per_s']} rec/s), bit-identical"
    )
    print(
        f"[bench_e2e] monitor e2e (oracle included, not gated): "
        f"{gate['monitor_reference_s'] * 1e3:.1f}ms -> "
        f"{gate['monitor_rows_s'] * 1e3:.1f}ms "
        f"({gate['monitor_e2e_speedup']:.2f}x)"
    )
    for profile, row in result["profiles"].items():
        print(
            f"[bench_e2e]   {profile:>8}: {row['e2e_speedup']:.2f}x "
            f"monitor e2e ({row['records']} records)"
        )
    plane = result["plane"]
    if plane is not None:
        print(
            f"[bench_e2e] ingest plane ({plane['traces']} traces, "
            f"{plane['records']} records): "
            f"{plane['records_per_s']} rec/s, "
            f"{plane['violations']} violations, every trace's ratio "
            "equal to its batch reference"
        )
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(result, fh, indent=2)
        print(f"wrote {args.json}")
    if args.min_speedup and gate["e2e_speedup"] < args.min_speedup:
        print(
            f"[bench_e2e] FAIL: ingest speedup {gate['e2e_speedup']:.2f}x "
            f"below the {args.min_speedup:.1f}x floor"
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
