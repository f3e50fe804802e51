"""The wire layer: compact, deterministic encodings for fleet traffic.

Everything that crosses a worker boundary -- record batches inbound,
ratios, summaries, statistics and violation notices outbound -- passes
through this module.  The encodings are *plain nested tuples of
primitives* (ints, floats, strings, ``None``, and opaque payloads),
for three reasons:

* **Transport independence.**  Plain tuples pickle at C speed over a
  ``multiprocessing`` pipe, cross a thread-backend queue by reference,
  and could be framed onto any byte transport -- the runtime's
  backends share one codec.
* **No rich types on the wire.**  Library classes evolve; the wire
  format is this module's tuples alone, so a worker never unpickles an
  arbitrary class graph, and pickling quirks of deep structures (e.g.
  the structurally shared walks inside
  :class:`~repro.core.synchrony.SummaryEdge`) stay out of the
  protocol entirely -- witnesses are encoded as flat step lists.
* **Determinism.**  Encoding is a pure function of the value: equal
  inputs produce equal (and comparably ordered) encodings, which the
  dispatcher's deterministic violation merge relies on.

Exact rationals survive the trip: a :class:`~fractions.Fraction` is
encoded as its ``(numerator, denominator)`` pair, so the bit-identity
contract of the parallel fleet is decided by graph content, never by
serialization.  ``payload`` fields are passed through opaquely (they
must then be transportable by the chosen backend; the bundled
workload generators use ``None``).

Round-tripping is total on the types it names: ``decode_x(encode_x(v))``
reconstructs an equal value, property-tested over randomized workload
streams (metadata-free ones included) in ``tests/runtime/test_codec.py``.

**Snapshot and WAL frames.**  The durability plane
(:mod:`repro.runtime.durable`) persists group snapshots built from
nested frames: a *trace-state frame* captures one open
trace (its live monitor as a pickle blob -- the one deliberately opaque
payload, justified by the PR 5 bit-identical-monitor-pickling property
-- plus the shard-side bookkeeping as plain tuples), a *shard image*
captures one :class:`~repro.runtime.shard.FleetShard` (trace frames,
retired summaries, lifetime counters), and a *group snapshot* captures
a whole :class:`~repro.runtime.shard.ShardGroup` (shard images plus the
group clock, violation log, and watermark).  Monitor callbacks never
enter a frame: they are stripped before pickling and re-wired by the
restoring group, so frames stay transportable across processes and
restarts.  Frames carry a magic tag and a version so a store written by
one build fails loudly, not subtly, under another.
"""

from __future__ import annotations

import pickle
from fractions import Fraction
from typing import TYPE_CHECKING

from repro.core.cycles import Cycle, CycleClassification, Step
from repro.core.events import Event
from repro.core.execution_graph import LocalEdge, MessageEdge
from repro.runtime.shard import (
    FleetShard,
    MonitorSpec,
    ShardStats,
    TraceId,
    TraceState,
    TraceSummary,
)
# Records cross the wire as rows; the row layout and its two functions
# live next to ReceiveRecord and are re-exported here.
from repro.sim.trace import decode_record, encode_record

if TYPE_CHECKING:
    from repro.analysis.online import OnlineAbcMonitor
    from repro.runtime.shard import ShardGroup

__all__ = [
    "GROUP_SNAPSHOT_MAGIC",
    "SNAPSHOT_VERSION",
    "decode_fraction",
    "decode_group_snapshot",
    "decode_monitor",
    "decode_notice",
    "decode_ratio_rows",
    "decode_record",
    "decode_shard_image",
    "decode_spec",
    "decode_specs",
    "decode_stats",
    "decode_summary",
    "decode_trace_state",
    "decode_witness",
    "encode_fraction",
    "encode_group_snapshot",
    "encode_monitor",
    "encode_notice",
    "encode_ratio_rows",
    "encode_record",
    "encode_shard_image",
    "encode_spec",
    "encode_specs",
    "encode_stats",
    "encode_summary",
    "encode_trace_state",
    "encode_witness",
    "group_snapshot_shards",
]


# ----------------------------------------------------------------------
# fractions
# ----------------------------------------------------------------------


def encode_fraction(value: Fraction | None) -> tuple[int, int] | None:
    """``Fraction`` -> ``(numerator, denominator)`` (``None`` passes)."""
    if value is None:
        return None
    return (value.numerator, value.denominator)


def decode_fraction(wire: tuple[int, int] | None) -> Fraction | None:
    if wire is None:
        return None
    return Fraction(wire[0], wire[1])


# ----------------------------------------------------------------------
# violation witnesses
# ----------------------------------------------------------------------


def encode_witness(witness: CycleClassification | None) -> tuple | None:
    """A witness cycle as ``(relevant, fwd, bwd, steps)``.

    Each step row is ``(is_message, src_process, src_index, dst_process,
    dst_index, direction)``.  Witness walks contain only genuine
    execution-graph steps (summary edges are expanded before a witness
    is ever produced -- see
    :meth:`~repro.core.synchrony.AdmissibilityChecker.violating_cycle`),
    so two edge kinds cover the wire format.
    """
    if witness is None:
        return None
    return (
        witness.relevant,
        witness.forward_messages,
        witness.backward_messages,
        tuple(
            (
                step.edge.is_message,
                step.edge.src.process,
                step.edge.src.index,
                step.edge.dst.process,
                step.edge.dst.index,
                step.direction,
            )
            for step in witness.cycle.steps
        ),
    )


def decode_witness(wire: tuple | None) -> CycleClassification | None:
    if wire is None:
        return None
    relevant, forward, backward, steps = wire
    decoded = []
    for is_message, sp, si, dp, di, direction in steps:
        edge_type = MessageEdge if is_message else LocalEdge
        decoded.append(
            Step(edge_type(Event(sp, si), Event(dp, di)), direction)
        )
    return CycleClassification(
        cycle=Cycle(tuple(decoded)),
        relevant=relevant,
        forward_messages=forward,
        backward_messages=backward,
    )


# ----------------------------------------------------------------------
# summaries, statistics, notices
# ----------------------------------------------------------------------


def encode_summary(summary: TraceSummary) -> tuple:
    return (
        summary.trace_id,
        encode_fraction(summary.worst_ratio),
        summary.n_records,
        summary.oracle_calls,
        encode_witness(summary.violation),
        summary.degraded,
    )


def decode_summary(wire: tuple) -> TraceSummary:
    trace_id, ratio, n_records, oracle_calls, violation, degraded = wire
    return TraceSummary(
        trace_id=trace_id,
        worst_ratio=decode_fraction(ratio),
        n_records=n_records,
        oracle_calls=oracle_calls,
        violation=decode_witness(violation),
        degraded=degraded,
    )


def encode_stats(stats: ShardStats) -> tuple:
    return (
        stats.shard,
        stats.open_traces,
        stats.retired_traces,
        stats.records,
        stats.flushes,
        stats.oracle_calls,
        stats.live_events,
        stats.tombstoned_events,
        stats.evictions,
        stats.summary_compactions,
        stats.summary_edges,
    )


def decode_stats(wire: tuple) -> ShardStats:
    return ShardStats(*wire)


def encode_notice(
    tick: int, trace_id: TraceId, witness: CycleClassification
) -> tuple:
    """A violation notice: the trigger tick (the violating trace's last
    absorbed global ingest position -- the dispatcher's deterministic
    merge key), the trace id, and the encoded witness."""
    return (tick, trace_id, encode_witness(witness))


def decode_notice(wire: tuple) -> tuple[int, TraceId, CycleClassification]:
    tick, trace_id, witness = wire
    return (tick, trace_id, decode_witness(witness))


def encode_ratio_rows(
    updates: dict[TraceId, Fraction | None],
) -> tuple[tuple[TraceId, tuple[int, int] | None], ...]:
    """Worst-ratio update rows, coalesced last-wins per trace: the
    piggyback payload every worker message carries to feed push-based
    delta consumers (see :mod:`repro.runtime.net.deltas`)."""
    return tuple(
        (trace_id, encode_fraction(ratio))
        for trace_id, ratio in updates.items()
    )


def decode_ratio_rows(
    rows: tuple[tuple[TraceId, tuple[int, int] | None], ...],
) -> dict[TraceId, Fraction | None]:
    return {
        trace_id: decode_fraction(wire) for trace_id, wire in rows
    }


def encode_metrics_rows(rows: tuple[tuple, ...]) -> tuple[tuple, ...]:
    """Serialized telemetry rows (see
    :meth:`~repro.obs.metrics.MetricsRegistry.to_rows`) as a wire
    payload.  Rows are already plain tuples of ints/strings; encoding
    normalizes nested sequences to tuples so the frame is hashable and
    pickles canonically."""
    out = []
    for row in rows:
        kind, name, labels, deterministic, payload = row
        if kind == "histogram":
            bounds, counts, count, total = payload
            payload = (tuple(bounds), tuple(counts), count, total)
        out.append(
            (kind, name, tuple(tuple(pair) for pair in labels),
             deterministic, payload)
        )
    return tuple(out)


def decode_metrics_rows(wire: tuple[tuple, ...]) -> tuple[tuple, ...]:
    """Validate and return telemetry rows: each must be exactly
    ``(kind, name, labels, deterministic, payload)``."""
    rows = []
    for row in wire:
        kind, name, labels, deterministic, payload = row
        rows.append((kind, name, labels, deterministic, payload))
    return tuple(rows)


# ----------------------------------------------------------------------
# monitor specs
# ----------------------------------------------------------------------


def encode_spec(spec: MonitorSpec) -> tuple:
    """One :class:`~repro.runtime.shard.MonitorSpec` as a plain tuple
    (``None`` fields mean "inherit the fleet default", as in the spec)."""
    return (
        encode_fraction(None if spec.xi is None else Fraction(spec.xi)),
        None if spec.faulty is None else tuple(spec.faulty),
        spec.drop_faulty,
    )


def decode_spec(wire: tuple) -> MonitorSpec:
    xi, faulty, drop_faulty = wire
    return MonitorSpec(
        xi=decode_fraction(xi),
        faulty=None if faulty is None else frozenset(faulty),
        drop_faulty=drop_faulty,
    )


def encode_specs(
    specs: MonitorSpec | dict[TraceId, MonitorSpec] | None,
) -> tuple | None:
    """A spec registry: either one fleet-wide default spec or a
    per-trace-id mapping (the wire shape of ``monitor_specs``)."""
    if specs is None:
        return None
    if isinstance(specs, MonitorSpec):
        return ("one", encode_spec(specs))
    return (
        "map",
        tuple(
            (trace_id, encode_spec(spec))
            for trace_id, spec in specs.items()
        ),
    )


def decode_specs(
    wire: tuple | None,
) -> MonitorSpec | dict[TraceId, MonitorSpec] | None:
    if wire is None:
        return None
    kind, payload = wire
    if kind == "one":
        return decode_spec(payload)
    return {trace_id: decode_spec(row) for trace_id, row in payload}


# ----------------------------------------------------------------------
# snapshot frames: monitors, trace states, shard images, group images
# ----------------------------------------------------------------------

GROUP_SNAPSHOT_MAGIC = "abc-group-snapshot"
# 2: checkers store their digraph as int columns; version-1 monitor
# pickles do not restore.
# 3: checkers, monitors, specs and fleet configs carry no kernel field;
# version-2 images do not restore.
# 4: checkers carry their persistent potential; version-3 images do not
# restore.
# 5: trace frames carry no in-flight or frontier rows (the monitor keeps
# the one in-flight ledger, keyed by ints); version-4 images do not
# restore.
# 6: shard images, stats rows and spec rows carry no auto-retirement or
# adaptive-compaction fields; version-5 images do not restore.
SNAPSHOT_VERSION = 6


def encode_monitor(monitor: OnlineAbcMonitor) -> bytes:
    """A live monitor as a pickle blob, callbacks stripped.

    The monitor's ``on_violation`` is the owning group's bookkeeping
    closure (unpicklable by construction) and ``on_ratio_increase`` is
    caller-owned; both are transport concerns of the *receiving* side,
    which re-wires its own, so they are nulled around the dump and
    restored on the live object.  Everything else -- checker digraph,
    summary edges, tombstone state, ratio history -- pickles
    bit-identically (the PR 5 property this frame spends).
    """
    saved_violation = monitor.on_violation
    saved_increase = monitor.on_ratio_increase
    monitor.on_violation = None
    monitor.on_ratio_increase = None
    try:
        return pickle.dumps(monitor, protocol=pickle.HIGHEST_PROTOCOL)
    finally:
        monitor.on_violation = saved_violation
        monitor.on_ratio_increase = saved_increase


def decode_monitor(blob: bytes) -> OnlineAbcMonitor:
    return pickle.loads(blob)


def encode_trace_state(trace_id: TraceId, state: TraceState) -> tuple:
    """One open trace as a snapshot row: monitor blob + bookkeeping.

    The pending record rows are carried verbatim (snapshots never
    force a flush: flush boundaries are scheduling-shaped state the
    restoring side should reproduce, not observe).  The in-flight
    ledger travels inside the monitor.  ``evict_marker`` is deliberately
    dropped -- a futility memo is only valid against the group that
    computed it.
    """
    return (
        trace_id,
        encode_monitor(state.monitor),
        tuple(state.pending),
        state.n_records,
        state.last_touch,
        state.live_cached,
        state.reopened,
    )


def decode_trace_state(wire: tuple) -> tuple[TraceId, TraceState]:
    """Rebuild a trace state; the caller (a restoring group) must
    re-wire the monitor's violation bookkeeping."""
    (
        trace_id,
        blob,
        pending,
        n_records,
        last_touch,
        live_cached,
        reopened,
    ) = wire
    state = TraceState(decode_monitor(blob), reopened=reopened)
    state.pending = list(pending)
    state.n_records = n_records
    state.last_touch = last_touch
    state.live_cached = live_cached
    return trace_id, state


def encode_shard_image(shard: FleetShard) -> tuple:
    """One whole :class:`FleetShard`: open traces (in the order they
    were opened, which the decode preserves), retired summaries,
    lifetime counters: the per-shard row of a group snapshot."""
    return (
        shard.index,
        tuple(
            encode_trace_state(trace_id, state)
            for trace_id, state in shard.traces.items()
        ),
        tuple(encode_summary(s) for s in shard.retired.values()),
        shard.records,
        shard.flushes,
        shard.tombstoned,
        shard.evictions,
        shard.summary_compactions,
        shard.retired_oracle_calls,
    )


def decode_shard_image(wire: tuple) -> FleetShard:
    """Rebuild a :class:`FleetShard`; monitors arrive unwired (the
    restoring group re-attaches its violation bookkeeping)."""
    (
        index,
        trace_frames,
        retired_rows,
        records,
        flushes,
        tombstoned,
        evictions,
        summary_compactions,
        retired_oracle_calls,
    ) = wire
    shard = FleetShard(index)
    for frame in trace_frames:
        trace_id, state = decode_trace_state(frame)
        shard.traces[trace_id] = state
    for row in retired_rows:
        summary = decode_summary(row)
        shard.retired[summary.trace_id] = summary
    shard.records = records
    shard.flushes = flushes
    shard.tombstoned = tombstoned
    shard.evictions = evictions
    shard.summary_compactions = summary_compactions
    shard.retired_oracle_calls = retired_oracle_calls
    return shard


def encode_group_snapshot(group: ShardGroup) -> tuple:
    """A whole group as one codec-framed image: every shard image plus
    the group clock, violation log (detection order -- what
    ``violating_ids`` reports), overrun count and peak watermark.
    Taken without flushing: the image reproduces the group mid-stream,
    pending buffers and all."""
    return (
        GROUP_SNAPSHOT_MAGIC,
        SNAPSHOT_VERSION,
        group.tick,
        tuple(group.violations),
        group.budget_overruns,
        group.peak_live_events,
        tuple(
            encode_shard_image(shard) for shard in group.shards.values()
        ),
    )


def _check_group_snapshot(wire: tuple) -> None:
    """``ValueError`` unless ``wire`` is a group snapshot frame of this
    build's :data:`SNAPSHOT_VERSION`."""
    if not isinstance(wire, tuple) or wire[:1] != (GROUP_SNAPSHOT_MAGIC,):
        raise ValueError("not a shard-group snapshot frame")
    if wire[1] != SNAPSHOT_VERSION:
        raise ValueError(
            f"snapshot version {wire[1]} not supported "
            f"(this build reads version {SNAPSHOT_VERSION})"
        )


def group_snapshot_shards(wire: tuple) -> tuple[int, ...]:
    """The shard indices a group snapshot holds, ascending, read
    without unpickling a monitor (``ValueError`` on another version)."""
    _check_group_snapshot(wire)
    return tuple(sorted(image[0] for image in wire[-1]))


def decode_group_snapshot(
    wire: tuple,
) -> tuple[int, list[TraceId], int, int, list[FleetShard]]:
    """-> (tick, violations, budget_overruns, peak, shards)."""
    _check_group_snapshot(wire)
    _magic, _version, tick, violations, overruns, peak, images = wire
    return (
        tick,
        list(violations),
        overruns,
        peak,
        [decode_shard_image(image) for image in images],
    )
