"""The share-nothing shard engine behind every fleet front end.

PR 3's :class:`~repro.analysis.fleet.MonitorFleet` already kept its
shards structurally independent -- hash routing outside, no shared
mutable state between shards -- but the shard logic itself lived inside
the fleet facade, welded to one interpreter thread.  This module is
that logic *extracted*: everything one shard (and one group of shards)
does -- buffering, batched absorption through
:meth:`~repro.analysis.online.OnlineAbcMonitor.observe_batch`,
gap-filled reopening, budget-driven eviction with the summary-compaction
fallback, violation bookkeeping, statistics -- with no reference to
trace routing, worker placement, or transport.

Two front ends drive it:

* the **serial** :class:`~repro.analysis.fleet.MonitorFleet` keeps one
  in-process :class:`ShardGroup` holding every shard (the pre-extraction
  behavior, bit for bit);
* the **parallel** :class:`~repro.runtime.parallel.ParallelFleet` gives
  each worker (process or thread) its own :class:`ShardGroup` over a
  subset of the shard space, driving it through the message protocol of
  :mod:`repro.runtime.worker`.

A group is deliberately *positional* about shard indices (it holds
shards ``{index: shard}`` for an arbitrary subset of the global shard
space, and every query names the shard it targets) so that shard
placement is a front-end concern and per-shard counters merge across
workers without renumbering.

Determinism contract.  A group's behavior is a function of the sequence
of protocol calls it receives: monitors hold no clocks and no RNG, ticks
arrive explicitly from the front end, and iteration orders are insertion
orders.  Two groups fed the same call sequence produce bit-identical
ratios, summaries, violations, and counters -- the property the
differential tests of ``tests/runtime/test_parallel.py`` pin across the
serial fleet and both parallel backends.
"""

from __future__ import annotations

import zlib
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

from repro.core.cycles import CycleClassification
from repro.core.events import Event, ProcessId
from repro.obs import metrics as _obs_metrics
from repro.obs.metrics import COUNT_BUCKETS, MetricsRegistry
from repro.sim.trace import RECORD_ROW, ReceiveRecord, encode_record

if TYPE_CHECKING:  # runtime import is lazy: repro.analysis imports the
    # fleet facade, which imports this module -- a module-level import
    # back into repro.analysis would break whichever package loads
    # second (the monitor is only needed when the first trace opens).
    from repro.analysis.online import OnlineAbcMonitor

__all__ = [
    "FleetReport",
    "FleetShard",
    "MonitorSpec",
    "ShardGroup",
    "ShardStats",
    "TraceId",
    "TraceState",
    "TraceSummary",
    "ratio_histogram",
    "shard_index_of",
    "top_k_riskiest",
]

TraceId = str | int
"""Trace identifiers: any value with a stable ``str()`` form."""


def ratio_histogram(
    ratios: Iterable[tuple[TraceId, Fraction | None]],
) -> dict[Fraction | None, int]:
    """Population histogram over (trace id, worst ratio) pairs: how
    many traces sit at each exact ratio (``None`` = no relevant
    cycle).  Shared by both fleet front ends so their aggregate
    semantics cannot drift apart."""
    return dict(Counter(ratio for _trace_id, ratio in ratios))


def top_k_riskiest(
    ratios: Iterable[tuple[TraceId, Fraction | None]], k: int
) -> list[tuple[TraceId, Fraction | None]]:
    """The ``k`` pairs with the highest worst ratio, descending (ties
    broken by trace id; traces with no relevant cycle last).  The one
    ordering both fleet front ends report."""
    if k < 0:
        raise ValueError("k must be non-negative")
    items = sorted(ratios, key=lambda it: str(it[0]))
    items.sort(
        key=lambda it: it[1] if it[1] is not None else Fraction(0),
        reverse=True,
    )
    return items[:k]


def shard_index_of(trace_id: TraceId, n_shards: int) -> int:
    """Stable hash routing (CRC32 of the id's string form): independent
    of interpreter hash randomization, so trace placement -- and with it
    every per-shard counter -- is reproducible across runs.  The single
    routing function of both fleet front ends: the parallel fleet's
    bit-identity contract rests on serial and parallel placement being
    the same computation, so there is exactly one copy of it.
    """
    return zlib.crc32(str(trace_id).encode()) % n_shards


@dataclass(frozen=True)
class MonitorSpec:
    """Picklable per-trace monitor configuration.

    The one way to configure a trace's monitor: a spec is plain data
    that the codec frames onto the wire, so it works on every backend.
    Every field defaults to ``None``, meaning "inherit the group
    default" -- a spec only names the knobs it pins.

    Attributes:
        xi: synchrony parameter to monitor this trace against.
        faulty: processes whose messages the monitor treats as faulty.
        drop_faulty: whether faulty messages are dropped or kept.
    """

    xi: Fraction | float | int | str | None = None
    faulty: frozenset[ProcessId] | None = None
    drop_faulty: bool | None = None

    def __post_init__(self) -> None:
        if self.faulty is not None and not isinstance(self.faulty, frozenset):
            object.__setattr__(self, "faulty", frozenset(self.faulty))


_NO_SPEC = MonitorSpec()
"""The all-inherit spec: what an unlisted trace resolves to."""


@dataclass(frozen=True)
class TraceSummary:
    """Immutable record of a retired (closed) trace.

    Attributes:
        trace_id: the trace's fleet-wide identifier.
        worst_ratio: the exact running worst relevant ratio at close
            (``None`` = no relevant cycle ever observed).
        n_records: receive records ingested over the trace's lifetime.
        oracle_calls: repair passes the trace's monitor issued.
        violation: the first violating witness cycle, when ``xi`` was
            monitored and reached.
        degraded: ``True`` when exactness was lost -- a forgotten prefix
            turned out to have an in-flight message crossing it, or the
            trace was re-opened after retirement; the ratio is then a
            lower bound (historical maximum kept) rather than exact.
    """

    trace_id: TraceId
    worst_ratio: Fraction | None
    n_records: int
    oracle_calls: int
    violation: CycleClassification | None
    degraded: bool


@dataclass(frozen=True)
class ShardStats:
    """Counters of one hash shard (see :class:`FleetReport`)."""

    shard: int
    open_traces: int
    retired_traces: int
    records: int
    flushes: int
    oracle_calls: int
    live_events: int
    tombstoned_events: int
    evictions: int
    summary_compactions: int
    summary_edges: int


@dataclass(frozen=True)
class FleetReport:
    """Point-in-time snapshot of a whole fleet (all pending flushed).

    Attributes:
        open_traces / retired_traces: population counts.
        records / flushes / oracle_calls: lifetime work counters; the
            batching win is visible as ``oracle_calls`` growing with
            flushes rather than with message records.
        live_events / peak_live_events: current and high-water total of
            live digraph events across all open monitors (the watermark
            is sampled after each flush's budget enforcement; absorption
            may transiently exceed it by one batch).  With an
            ``event_budget`` configured and no overruns,
            ``peak_live_events <= event_budget`` is the memory
            guarantee of the eviction policy.  A parallel fleet reports
            the *epoch watermark*: the maximum, over budget-apportioning
            epochs, of the summed per-worker watermarks -- a sound upper
            bound on the true global peak (see
            :mod:`repro.runtime.parallel`).
        tombstoned_events / evictions: events dropped by budget-driven
            prefix forgetting, and how many times a trace was evicted.
        summary_compactions / summary_edges: eviction passes that fell
            back to summary compaction because exact no-crossing
            removal was blocked (chain-shaped traces), and the live
            summary edges currently standing in for compacted history.
        budget_overruns: enforcement passes that could not get back
            under budget even with summary compaction (every remaining
            trace was already compacted to its pinned core).
        degraded_traces: traces whose ratio is a lower bound rather than
            exact (see :class:`TraceSummary`).
        violating_traces: ids of traces whose worst ratio reached the
            monitored ``xi``; detection order for the serial fleet, the
            deterministic ``(tick, trace id)`` merge order for a
            parallel one.
        shards: per-shard breakdowns of the counters above.
        crashed_shards: shard indices owned by a crashed worker (always
            empty for the serial fleet); their traces are degraded --
            last-synced statistics are retained but no longer advance.
    """

    xi: Fraction | None
    n_shards: int
    batch_size: int
    event_budget: int | None
    open_traces: int
    retired_traces: int
    records: int
    flushes: int
    oracle_calls: int
    live_events: int
    peak_live_events: int
    tombstoned_events: int
    evictions: int
    summary_compactions: int
    summary_edges: int
    budget_overruns: int
    degraded_traces: int
    violating_traces: tuple[TraceId, ...]
    shards: tuple[ShardStats, ...]
    crashed_shards: tuple[int, ...] = ()


class TraceState:
    """One open trace: its monitor plus the shard-side bookkeeping."""

    __slots__ = (
        "monitor",
        "pending",
        "n_records",
        "last_touch",
        "live_cached",
        "reopened",
        "evict_marker",
    )

    def __init__(self, monitor: OnlineAbcMonitor, reopened: bool) -> None:
        self.monitor = monitor
        # Record rows (the RECORD_ROW layout) not yet absorbed.
        self.pending: list[tuple] = []
        self.n_records = 0
        self.last_touch = 0
        self.live_cached = 0
        self.reopened = reopened
        # Event count at the last eviction attempt that removed nothing.
        # Pins and settledness only change when events are absorbed, so
        # retrying at the same count is provably futile -- this memo
        # keeps permanently-over-budget fleets from re-sweeping every
        # unsettleable trace on every flush.
        self.evict_marker: int | None = None

    @property
    def degraded(self) -> bool:
        return self.reopened or self.monitor.forgotten_message_edges > 0


class FleetShard:
    """One hash shard: an independent group of trace monitors.

    Shards never touch each other's state -- a shard is the unit of
    placement, and any subset of the shard space can be handed to a
    worker as a :class:`ShardGroup` without coordination.
    """

    __slots__ = (
        "index",
        "traces",
        "retired",
        "records",
        "flushes",
        "tombstoned",
        "evictions",
        "summary_compactions",
        "retired_oracle_calls",
    )

    def __init__(self, index: int) -> None:
        self.index = index
        # Open traces, in the order they were opened.
        self.traces: dict[TraceId, TraceState] = {}
        self.retired: dict[TraceId, TraceSummary] = {}
        self.records = 0
        self.flushes = 0
        self.tombstoned = 0
        self.evictions = 0
        self.summary_compactions = 0
        self.retired_oracle_calls = 0

    def oracle_calls(self) -> int:
        return self.retired_oracle_calls + sum(
            state.monitor.oracle_calls for state in self.traces.values()
        )

    def live_events(self) -> int:
        return sum(state.monitor.n_events for state in self.traces.values())

    def n_retired(self) -> int:
        """Retired traces, not counting ids that have been re-opened
        (those are listed as open, with their summaries merged in)."""
        return sum(1 for trace_id in self.retired if trace_id not in self.traces)

    def summary_edges(self) -> int:
        return sum(
            state.monitor.summary_edges for state in self.traces.values()
        )

    def stats(self) -> ShardStats:
        return ShardStats(
            shard=self.index,
            open_traces=len(self.traces),
            retired_traces=self.n_retired(),
            records=self.records,
            flushes=self.flushes,
            oracle_calls=self.oracle_calls(),
            live_events=self.live_events(),
            tombstoned_events=self.tombstoned,
            evictions=self.evictions,
            summary_compactions=self.summary_compactions,
            summary_edges=self.summary_edges(),
        )


_RECORD_CELL = itemgetter(2)


def _check_rows(batch: Sequence[tuple]) -> None:
    """Reject a malformed wire batch before any of it is buffered:
    every row must be a ``(tick, trace_id, record)`` triple whose
    record has the :data:`~repro.sim.trace.RECORD_ROW` width.  Two
    C-level passes over the lengths; the row scan only runs to name
    the bad row."""
    width = len(RECORD_ROW)
    try:
        if set(map(len, batch)) <= {3} and set(
            map(len, map(_RECORD_CELL, batch))
        ) <= {width}:
            return
    except TypeError:
        pass
    for k, row in enumerate(batch):
        try:
            well_formed = len(row) == 3 and len(row[2]) == width
        except TypeError:
            well_formed = False
        if not well_formed:
            raise ValueError(
                f"malformed record batch: row {k} is not a (tick, "
                f"trace_id, record) triple with a {width}-field record"
            )


class _GroupObs:
    """The shard engine's instrument bundle on the group's registry.

    Everything here is a function of the protocol-call sequence the
    group receives (the module's determinism contract), so all of it is
    declared deterministic: two workers fed the same stream report
    bit-identical rows on the process and thread backends alike.
    """

    __slots__ = (
        "flushes",
        "batch_records",
        "evictions",
        "summary_compactions",
        "tombstoned",
        "budget_overruns",
        "live_events",
    )

    def __init__(self, registry: MetricsRegistry) -> None:
        self.flushes = registry.counter(
            "repro_shard_flushes_total",
            help="per-trace pending-buffer flushes absorbed by monitors",
        )
        self.batch_records = registry.histogram(
            "repro_shard_batch_records",
            deterministic=True,
            bounds=COUNT_BUCKETS,
            help="records per flushed batch",
        )
        self.evictions = registry.counter(
            "repro_shard_evictions_total",
            help="budget-driven eviction passes that removed events",
        )
        self.summary_compactions = registry.counter(
            "repro_shard_summary_compactions_total",
            help="eviction passes that fell back to summary compaction",
        )
        self.tombstoned = registry.counter(
            "repro_shard_tombstoned_events_total",
            help="live digraph events reclaimed by eviction/compaction",
        )
        self.budget_overruns = registry.counter(
            "repro_shard_budget_overruns_total",
            help="enforcement passes that could not reach the budget",
        )
        self.live_events = registry.gauge(
            "repro_shard_live_events",
            deterministic=True,
            help="live digraph events after the last enforcement pass",
        )


class ShardGroup:
    """A set of shards driven as one unit: the engine of every fleet.

    One group is the unit of *execution*: the serial fleet runs a single
    group holding all shards, a parallel worker runs one group over its
    assigned subset.  Within a group the budget, futility memos, peak
    watermark and violation ordering are exactly the pre-extraction
    fleet semantics; across groups nothing is shared, which is what
    makes the worker placement free.

    Args:
        shard_indices: the global shard indices this group owns.
        xi: optional synchrony parameter every trace is monitored
            against.
        batch_size: per-trace pending-record watermark that triggers an
            automatic flush.
        event_budget: optional cap on total live digraph events across
            *this group's* shards (the front end apportions a global
            budget across groups), enforced by LRU eviction with the
            summary-compaction fallback.
        faulty / drop_faulty: per-monitor message filtering.
        monitor_specs: declarative per-trace monitor configuration --
            either one :class:`MonitorSpec` applied to every trace or a
            ``{trace_id: MonitorSpec}`` mapping (unlisted traces get the
            group defaults).  Plain data, so it crosses the process
            boundary.
        emit_violation: called as ``emit_violation(trace_id, witness)``
            after the triggering flush finishes its bookkeeping (so the
            callback may re-enter the group, e.g. close the trace).
    """

    def __init__(
        self,
        shard_indices: Iterable[int],
        *,
        xi: Fraction | float | int | str | None = None,
        batch_size: int = 32,
        event_budget: int | None = None,
        faulty: frozenset[ProcessId] | set[ProcessId] = frozenset(),
        drop_faulty: bool = True,
        monitor_specs: MonitorSpec | dict[TraceId, MonitorSpec] | None = None,
        emit_violation: Callable[[TraceId, CycleClassification], None]
        | None = None,
    ) -> None:
        self.xi = xi
        self.batch_size = batch_size
        self.event_budget = event_budget
        self.faulty = frozenset(faulty)
        self.drop_faulty = drop_faulty
        self.monitor_specs = monitor_specs
        self.emit_violation = emit_violation
        # Optional delta hook: ``emit_ratio(trace_id, worst)`` fires on
        # every worst-ratio growth (merged with the trace's pre-reopen
        # retired maximum, so the value matches ``all_ratios``) and once
        # at trace open with the starting value.  Installed
        # post-construction by push-based consumers (the parallel
        # worker feeding the network delta plane); ``None`` costs one
        # attribute read per ratio increase.
        self.emit_ratio: Callable[[TraceId, Fraction | None], None] | None = (
            None
        )
        # Telemetry: each group owns its *own* registry (None when
        # disabled), so thread-backend workers never share instruments
        # and per-worker rows merge at the dispatcher like any other
        # counter.  Monitors built for this group re-bind to it in
        # ``_wire_monitor``.
        self.metrics: MetricsRegistry | None = (
            _obs_metrics.MetricsRegistry() if _obs_metrics.enabled() else None
        )
        self._obs: _GroupObs | None = (
            _GroupObs(self.metrics) if self.metrics is not None else None
        )
        self._monitor_obs = None
        self.shards: dict[int, FleetShard] = {
            index: FleetShard(index) for index in shard_indices
        }
        if not self.shards:
            raise ValueError("a shard group needs at least one shard")
        self.tick = 0
        self._live_events = 0
        self.peak_live_events = 0
        self.budget_overruns = 0
        # Trace ids whose worst ratio reached xi, detection order.
        self.violations: list[TraceId] = []
        self._enforcing = False
        # Live-event count at the last enforcement pass that ended over
        # budget; skip re-sweeping until something new is absorbed.
        self._futile_at: int | None = None
        # (trace_id, witness, chained monitor callback): violations are
        # recorded immediately but callbacks fire only after the
        # triggering flush finishes its bookkeeping, so a callback may
        # safely re-enter the group (e.g. close() the violating trace).
        self._deferred_violations: list[
            tuple[TraceId, CycleClassification, Callable | None]
        ] = []

    # ------------------------------------------------------------------
    # trace lifecycle
    # ------------------------------------------------------------------

    def state_of(self, shard: FleetShard, trace_id: TraceId) -> TraceState:
        state = shard.traces.get(trace_id)
        if state is None:
            # Re-opening a retired trace loses its digraph history: the
            # fresh monitor is exact on the new suffix only, so the trace
            # is permanently flagged degraded (ratios stay lower bounds
            # via the max-merge in close()).
            reopened = trace_id in shard.retired
            monitor = self._make_monitor(trace_id)
            self._wire_monitor(shard, trace_id, monitor)
            state = TraceState(monitor, reopened=reopened)
            shard.traces[trace_id] = state
            if self.emit_ratio is not None:
                # The trace's starting value: None for a fresh trace,
                # the retired maximum on a reopen (the floor the merge
                # in `_wire_monitor` keeps).
                summary = shard.retired.get(trace_id)
                self.emit_ratio(
                    trace_id,
                    None if summary is None else summary.worst_ratio,
                )
        return state

    def _spec_for(self, trace_id: TraceId) -> MonitorSpec | None:
        specs = self.monitor_specs
        if specs is None or isinstance(specs, MonitorSpec):
            return specs
        return specs.get(trace_id)

    def _make_monitor(self, trace_id: TraceId) -> OnlineAbcMonitor:
        from repro.analysis.online import OnlineAbcMonitor

        spec = self._spec_for(trace_id)
        if spec is None:
            spec = _NO_SPEC
        return OnlineAbcMonitor(
            xi=self.xi if spec.xi is None else spec.xi,
            faulty=self.faulty if spec.faulty is None else spec.faulty,
            drop_faulty=(
                self.drop_faulty
                if spec.drop_faulty is None
                else spec.drop_faulty
            ),
        )

    def _wire_monitor(
        self, shard: FleetShard, trace_id: TraceId, monitor: OnlineAbcMonitor
    ) -> None:
        """Attach this group's bookkeeping to a monitor: violation
        recording plus -- for delta consumers -- push-based worst-ratio
        updates.  Called for newly created monitors and for restored
        ones, which arrive with callbacks stripped (they close over the
        snapshotted group and its shard objects) and must be re-wired
        to their new owner."""
        if self.metrics is not None:
            # Re-bind the monitor's instruments (global registry by
            # default, stripped entirely on restore) to this
            # group's registry; one shared bundle serves every monitor
            # the group owns.
            if self._monitor_obs is None:
                from repro.analysis.online import MonitorObs

                self._monitor_obs = MonitorObs(self.metrics)
            monitor._obs = self._monitor_obs
        self._wire_violation(trace_id, monitor)
        chained = monitor.on_ratio_increase

        def on_increase(change) -> None:
            emit = self.emit_ratio
            if emit is not None:
                # Emit the *merged* value (open-monitor worst vs the
                # pre-reopen retired maximum): exactly what
                # `all_ratios` reports, so a delta consumer's last-wins
                # map converges to the pull-side answer.
                summary = shard.retired.get(trace_id)
                worst = change.worst
                if (
                    summary is not None
                    and summary.worst_ratio is not None
                    and summary.worst_ratio > worst
                ):
                    worst = summary.worst_ratio
                emit(trace_id, worst)
            if chained is not None:
                chained(change)

        monitor.on_ratio_increase = on_increase

    def _wire_violation(
        self, trace_id: TraceId, monitor: OnlineAbcMonitor
    ) -> None:
        """Attach this group's violation bookkeeping to a monitor,
        chaining any caller-installed callback (the violation half of
        :meth:`_wire_monitor`)."""
        chained = monitor.on_violation

        def note(witness: CycleClassification) -> None:
            # Fires mid-flush (inside observe_batch): record now, defer
            # the user-facing callbacks until the flush is reentrancy-safe.
            self.violations.append(trace_id)
            self._deferred_violations.append((trace_id, witness, chained))

        monitor.on_violation = note

    def _fire_deferred_violations(self) -> None:
        while self._deferred_violations:
            trace_id, witness, chained = self._deferred_violations.pop(0)
            if self.emit_violation is not None:
                self.emit_violation(trace_id, witness)
            if chained is not None:
                chained(witness)

    def buffer(
        self,
        shard_index: int,
        trace_id: TraceId,
        row: tuple,
        tick: int | None = None,
    ) -> TraceState:
        """Route one record row to its trace's pending buffer (no flush).

        The O(1) half of :meth:`ingest` and :meth:`ingest_batch`, which
        flush watermark-crossers once per call.
        """
        shard = self.shards[shard_index]
        state = self.state_of(shard, trace_id)
        if tick is None:
            self.tick = tick = self.tick + 1
        elif tick > self.tick:
            self.tick = tick
        # The touch time is the record's own stream tick, not the group
        # clock: bulk front ends process shard batches sequentially, so
        # the clock has already advanced past later shards' early
        # records -- stamping the clock would misorder them for LRU
        # eviction.
        state.last_touch = tick
        state.pending.append(row)
        shard.records += 1
        return state

    def ingest(
        self,
        shard_index: int,
        trace_id: TraceId,
        record: ReceiveRecord,
        tick: int | None = None,
    ) -> None:
        """Buffer one record (as its row); flush its trace at the batch
        watermark.

        ``tick`` is the front end's global ingest counter (the LRU
        eviction order); ``None`` lets the group count its own ingests,
        which is the serial single-group behavior.
        """
        shard = self.shards[shard_index]
        state = self.buffer(shard_index, trace_id, encode_record(record), tick)
        if len(state.pending) >= self.batch_size:
            self.flush_state(shard, state)
            self.enforce_budget()

    def ingest_batch(
        self,
        shard_index: int,
        batch: Sequence[tuple[int | None, TraceId, tuple]],
    ) -> None:
        """Absorb a shard batch of ``(tick, trace_id, row)`` wire rows:
        buffer every row, then flush each watermark-crossing trace
        exactly once.

        This is the bulk-ingest path (``ingest_many``, and the wire
        dispatcher, whose batches arrive here unchanged): per-trace
        flush boundaries coarsen to the batch -- which never changes a
        reported ratio, the worst ratio being a function of the
        observed graph -- while the per-record overhead (the budget
        probe) is paid once per batch.

        Rows come from outside the process, so the whole batch is
        checked first: a row that is not a 3-tuple, or whose record is
        not :data:`~repro.sim.trace.RECORD_ROW`-shaped, raises
        ``ValueError`` before anything is buffered.
        """
        _check_rows(batch)
        shard = self.shards[shard_index]
        buffer = self.buffer
        batch_size = self.batch_size
        pending_over: dict[TraceId, TraceState] = {}
        for tick, trace_id, row in batch:
            state = buffer(shard_index, trace_id, row, tick)
            if len(state.pending) >= batch_size:
                pending_over[trace_id] = state
        for trace_id, state in pending_over.items():
            if shard.traces.get(trace_id) is state:
                self.flush_state(shard, state)
        self.enforce_budget()

    def flush_all(self) -> None:
        for shard in self.shards.values():
            # Snapshot: a violation callback may close() traces
            # (their detached states flush as no-ops afterwards).
            for state in list(shard.traces.values()):
                self.flush_state(shard, state)
        self.enforce_budget()

    def flush_trace(self, shard_index: int, trace_id: TraceId) -> None:
        shard = self.shards[shard_index]
        state = shard.traces.get(trace_id)
        if state is not None:
            self.flush_state(shard, state)
        self.enforce_budget()

    def close(self, shard_index: int, trace_id: TraceId) -> TraceSummary:
        """Retire a finished trace: flush it, record an immutable
        summary, and free its digraph entirely.  See
        :meth:`repro.analysis.fleet.MonitorFleet.close` for semantics.
        """
        shard = self.shards[shard_index]
        state = shard.traces.get(trace_id)
        if state is None:
            summary = shard.retired.get(trace_id)
            if summary is None:
                raise KeyError(f"unknown trace {trace_id!r}")
            return summary
        self.flush_state(shard, state)
        if shard.traces.get(trace_id) is not state:
            # A violation callback fired by that flush already closed
            # the trace reentrantly; its summary is authoritative.
            return shard.retired[trace_id]
        monitor = state.monitor
        summary = TraceSummary(
            trace_id=trace_id,
            worst_ratio=monitor.worst_ratio,
            n_records=state.n_records,
            oracle_calls=monitor.oracle_calls,
            violation=monitor.violation,
            degraded=state.degraded,
        )
        previous = shard.retired.get(trace_id)
        if previous is not None:
            ratios = [
                r
                for r in (previous.worst_ratio, summary.worst_ratio)
                if r is not None
            ]
            summary = TraceSummary(
                trace_id=trace_id,
                worst_ratio=max(ratios) if ratios else None,
                n_records=previous.n_records + summary.n_records,
                oracle_calls=previous.oracle_calls + summary.oracle_calls,
                violation=previous.violation or summary.violation,
                degraded=True,
            )
        shard.retired[trace_id] = summary
        shard.retired_oracle_calls += monitor.oracle_calls
        self._live_events -= monitor.n_events
        del shard.traces[trace_id]
        # The group's composition changed: a sweep that was futile
        # before may now succeed at the same live count.
        self._futile_at = None
        return summary

    # ------------------------------------------------------------------
    # flushing and the memory budget
    # ------------------------------------------------------------------

    def flush_state(self, shard: FleetShard, state: TraceState) -> None:
        batch = state.pending
        if not batch:
            return
        state.pending = []
        monitor = state.monitor
        if state.reopened:
            self._fill_gaps(monitor, batch)
        monitor.observe_batch(batch)
        state.n_records += len(batch)
        shard.flushes += 1
        if self._obs is not None:
            self._obs.flushes.inc()
            self._obs.batch_records.observe(len(batch))
        self._live_events += monitor.n_events - state.live_cached
        state.live_cached = monitor.n_events
        # Absorbing records invalidates every "retrying is futile" memo:
        # pins and settledness moved, and comparing raw live-event
        # *counts* alone can collide (absorb N, evict N elsewhere lands
        # back on the memoized count and would skip a viable attempt).
        state.evict_marker = None
        self._futile_at = None
        # Bookkeeping is consistent from here on: violation callbacks
        # recorded by the batch may now re-enter the group.
        self._fire_deferred_violations()

    @staticmethod
    def _fill_gaps(monitor: OnlineAbcMonitor, batch: list[tuple]) -> None:
        """Reconstruct the local-timeline skeleton a re-opened trace's
        fresh monitor is missing.

        A record arriving after retirement carries its original event
        index, which the fresh monitor's per-process timelines don't
        reach yet.  The gap events are exactly the (process, index)
        identities of the retired prefix, so adding them as bare events
        restores local order -- and lets late messages from pre-close
        send events re-attach -- while the prefix's own message edges
        stay lost, which is what the trace's ``degraded`` flag reports.
        """
        filled: dict[ProcessId, int] = {}

        def fill_below(process: ProcessId, stop: int) -> None:
            expected = filled.get(process, monitor.n_events_of(process))
            for gap in range(expected, stop):
                monitor.observe_event(Event(process, gap))
            filled[process] = max(expected, stop)

        for row in batch:
            process, index, send_process = row[0], row[1], row[4]
            if send_process is not None:
                # The triggering send may reference the retired prefix
                # of a process with no receive in this batch.
                fill_below(send_process, row[5] + 1)
            fill_below(process, index)
            filled[process] = index + 1

    def set_budget(self, event_budget: int | None) -> None:
        """Re-apportion this group's share of the global event budget.

        Called by the parallel dispatcher when rebalancing; a changed
        budget invalidates the futility memo (a pass that could not
        reach the old budget may well reach a larger one, and a smaller
        one must be re-attempted).
        """
        if event_budget == self.event_budget:
            return
        self.event_budget = event_budget
        self._futile_at = None
        self.enforce_budget()

    def reset_peak(self) -> int:
        """Close the current budget epoch: return the post-enforcement
        watermark accumulated since the last reset and restart it from
        the current live count (see the epoch-watermark merge in
        :mod:`repro.runtime.parallel`)."""
        peak = self.peak_live_events
        self.peak_live_events = self._live_events
        return peak

    def enforce_budget(self) -> None:
        """Evict prefixes, least-recently-ingested traces first, until
        the group is back under its event budget.

        Per trace, eviction first tries the prefix the no-crossing
        criterion proves exactly safe (frontiers and in-flight sends
        pinned).  When that removes nothing -- a causal chain links
        history to the frontier -- it falls back to *summary compaction*
        of everything below the pins: the monitor replaces the prefix by
        boundary summary edges that keep every reported ratio
        bit-identical (see
        :meth:`~repro.analysis.online.OnlineAbcMonitor.forget_prefix`),
        so the budget is a real bound on chain-shaped traces too.
        Neither path trades exactness for memory; a pass that cannot
        reach the budget -- every survivor is already compacted to its
        pinned core -- is counted in ``budget_overruns`` rather than
        forced.

        ``peak_live_events`` is the post-enforcement watermark: between
        absorbing a batch and enforcing the budget, the live count may
        transiently exceed it by at most that one batch.
        """
        budget = self.event_budget
        if budget is None or self._live_events <= budget or self._enforcing:
            self._note_peak()
            return
        if self._live_events == self._futile_at:
            # Nothing absorbed since a pass that could not reach the
            # budget: re-sweeping is provably futile, skip it.
            self._note_peak()
            return
        self._enforcing = True
        try:
            candidates = sorted(
                (
                    (state.last_touch, shard, trace_id, state)
                    for shard in self.shards.values()
                    for trace_id, state in shard.traces.items()
                ),
                key=lambda item: item[0],
            )
            for _touch, shard, trace_id, state in candidates:
                if self._live_events <= budget:
                    self._futile_at = None
                    return
                if shard.traces.get(trace_id) is not state:
                    continue  # closed reentrantly earlier in this pass
                # Pending buffers are NOT force-flushed here: eviction
                # works on the absorbed digraph, whose pins (frontier,
                # announced in-flight sends) already cover everything a
                # pending record can reference, and forcing flushes
                # would collapse the batching win fleet-wide whenever
                # the fleet sits over budget.
                if state.monitor.n_events == state.evict_marker:
                    continue  # unchanged since a known-futile attempt
                pinned = state.monitor.pinned_events()
                settled = state.monitor.settled_prefix(pinned)
                removed = (
                    state.monitor.forget_prefix(settled) if settled else 0
                )
                if self._live_events - removed > budget:
                    # Exact removal missed the budget -- blocked
                    # entirely on chain shapes, or insufficient on
                    # traces mixing settleable activity with a
                    # chain-shaped core: compact the remaining past
                    # into summary edges too, so the budget stays a
                    # real bound on every shape.
                    cut = state.monitor.compactable_prefix(pinned)
                    if cut:
                        summarized = state.monitor.forget_prefix(
                            cut, summarize=True
                        )
                        if summarized:
                            shard.summary_compactions += 1
                            if self._obs is not None:
                                self._obs.summary_compactions.inc()
                            removed += summarized
                if removed:
                    state.evict_marker = None
                    shard.evictions += 1
                    shard.tombstoned += removed
                    self._live_events -= removed
                    state.live_cached = state.monitor.n_events
                    if self._obs is not None:
                        self._obs.evictions.inc()
                        self._obs.tombstoned.inc(removed)
                else:
                    state.evict_marker = state.monitor.n_events
            if self._live_events > budget:
                self.budget_overruns += 1
                if self._obs is not None:
                    self._obs.budget_overruns.inc()
                self._futile_at = self._live_events
            else:
                self._futile_at = None
        finally:
            self._enforcing = False
            self._note_peak()

    def _note_peak(self) -> None:
        if self._live_events > self.peak_live_events:
            self.peak_live_events = self._live_events
        if self._obs is not None:
            self._obs.live_events.set(self._live_events)

    def metrics_rows(self) -> tuple[tuple, ...]:
        """This group's serialized telemetry rows (``()`` when
        disabled): the worker ships these over the reply protocol and
        the dispatcher sum-merges them across workers."""
        return self.metrics.to_rows() if self.metrics is not None else ()

    # ------------------------------------------------------------------
    # snapshot: the group as one durable unit
    # ------------------------------------------------------------------

    def snapshot(self) -> tuple:
        """The whole group as one codec frame: every shard image plus
        the group clock, violation log, overrun count and watermark.

        Taken *without* flushing -- pending buffers travel verbatim, so
        a restored group reproduces this one mid-stream, flush
        boundaries and all (the bit-identity the durability layer
        rests on).  The live group is not perturbed.
        """
        from repro.runtime import codec

        return codec.encode_group_snapshot(self)

    def load_snapshot(self, frame: tuple) -> None:
        """Replace this group's state with a :meth:`snapshot` image.

        Configuration (xi, batch size, budget, specs...) is *not* in the
        frame -- the caller rebuilds the group with its own configuration
        and then installs the image, which is what worker recovery and
        ``restore()`` do.  Every monitor is re-wired to this group.
        """
        from repro.runtime import codec

        tick, violations, overruns, peak, shards = (
            codec.decode_group_snapshot(frame)
        )
        self.shards = {shard.index: shard for shard in shards}
        if not self.shards:
            raise ValueError("snapshot holds no shards")
        live = 0
        for shard in self.shards.values():
            for trace_id, state in shard.traces.items():
                self._wire_monitor(shard, trace_id, state.monitor)
                if self.emit_ratio is not None:
                    self.emit_ratio(
                        trace_id,
                        self.merged_ratio(state, shard.retired.get(trace_id)),
                    )
                live += state.live_cached
        self.tick = tick
        self.violations = violations
        self.budget_overruns = overruns
        self._live_events = live
        self.peak_live_events = peak
        self._futile_at = None
        self._enforcing = False
        self._deferred_violations = []

    # ------------------------------------------------------------------
    # queries and aggregates
    # ------------------------------------------------------------------

    @staticmethod
    def merged_ratio(
        state: TraceState, summary: TraceSummary | None
    ) -> Fraction | None:
        """An open trace's ratio, merged with its pre-reopen summary:
        the historical maximum is kept across retirement, matching the
        lower-bound semantics of the ``degraded`` flag."""
        ratio = state.monitor.worst_ratio
        if summary is None or summary.worst_ratio is None:
            return ratio
        if ratio is None or summary.worst_ratio > ratio:
            return summary.worst_ratio
        return ratio

    def worst_ratio(
        self, shard_index: int, trace_id: TraceId
    ) -> Fraction | None:
        shard = self.shards[shard_index]
        state = shard.traces.get(trace_id)
        if state is not None:
            self.flush_state(shard, state)
            self.enforce_budget()
            return self.merged_ratio(state, shard.retired.get(trace_id))
        summary = shard.retired.get(trace_id)
        if summary is None:
            raise KeyError(f"unknown trace {trace_id!r}")
        return summary.worst_ratio

    def monitor_of(
        self, shard_index: int, trace_id: TraceId
    ) -> OnlineAbcMonitor:
        shard = self.shards[shard_index]
        state = shard.traces.get(trace_id)
        if state is None:
            raise KeyError(f"unknown or retired trace {trace_id!r}")
        self.flush_state(shard, state)
        self.enforce_budget()
        return state.monitor

    def is_degraded(self, shard_index: int, trace_id: TraceId) -> bool:
        shard = self.shards[shard_index]
        state = shard.traces.get(trace_id)
        if state is not None:
            return state.degraded
        summary = shard.retired.get(trace_id)
        if summary is None:
            raise KeyError(f"unknown trace {trace_id!r}")
        return summary.degraded

    def all_ratios(self) -> list[tuple[TraceId, Fraction | None]]:
        """(trace_id, worst ratio) over open and retired traces, with
        everything pending flushed so the ratios are current.  Each
        trace appears exactly once: a trace re-opened after retirement
        is listed as open, with its retired maximum merged in."""
        self.flush_all()
        out: list[tuple[TraceId, Fraction | None]] = []
        for shard in self.shards.values():
            for trace_id, state in shard.traces.items():
                out.append(
                    (trace_id, self.merged_ratio(state, shard.retired.get(trace_id)))
                )
            for trace_id, summary in shard.retired.items():
                if trace_id not in shard.traces:
                    out.append((trace_id, summary.worst_ratio))
        return out

    @property
    def live_events(self) -> int:
        """Total live digraph events across this group's open monitors."""
        return self._live_events

    @property
    def open_traces(self) -> int:
        return sum(len(shard.traces) for shard in self.shards.values())

    @property
    def retired_traces(self) -> int:
        return sum(shard.n_retired() for shard in self.shards.values())

    def degraded_traces(self) -> int:
        """Distinct traces whose ratio is a lower bound (an open trace
        re-opened after retirement counts once, via its flag)."""
        return sum(
            1
            for shard in self.shards.values()
            for state in shard.traces.values()
            if state.degraded
        ) + sum(
            1
            for shard in self.shards.values()
            for trace_id, summary in shard.retired.items()
            if summary.degraded and trace_id not in shard.traces
        )

    def violating_ids(self) -> tuple[TraceId, ...]:
        """Deduplicated violation ids, first-detection order (no flush)."""
        return tuple(dict.fromkeys(self.violations))

    def shard_stats(self) -> list[ShardStats]:
        return [shard.stats() for shard in self.shards.values()]
