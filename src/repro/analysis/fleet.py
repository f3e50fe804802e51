"""Fleet monitoring: many concurrent executions behind one ingestion API.

The Section-6 variants (?ABC / <>ABC) are stated per execution, but a
production deployment monitors a *population* of executions at once --
one growing trace per session, service, or shard pair -- the regime the
asynchronous-fleet literature reasons about in aggregate.  Running one
:class:`~repro.analysis.online.OnlineAbcMonitor` per trace in a plain
loop is exact but pays one repair pass per message record and holds
every trace's full digraph live forever.

:class:`MonitorFleet` keeps the per-trace exactness while amortizing
both costs across the population:

* **Sharding.**  Traces are hash-routed to ``n_shards`` independent
  shard structures (stable CRC32 of the trace id, so placement is
  reproducible across runs and machines).  Shards share no mutable
  state; since this PR the shard machinery itself lives in
  :mod:`repro.runtime.shard` (the :class:`~repro.runtime.shard.ShardGroup`
  engine), and :class:`MonitorFleet` is the *serial* front end driving
  one in-process group holding every shard -- the parallel front end,
  :class:`repro.runtime.ParallelFleet`, drives the same engine on
  worker processes.
* **Batching.**  :meth:`MonitorFleet.ingest` only buffers; when a
  trace's pending buffer reaches the ``batch_size`` watermark (or on an
  explicit :meth:`MonitorFleet.flush`), the burst is absorbed through
  :meth:`~repro.analysis.online.OnlineAbcMonitor.observe_batch` with a
  single deferred worst-ratio refresh -- one repair pass per flush
  instead of one per record, which is where the fleet's throughput over
  the naive loop comes from (``benchmarks/bench_fleet.py``).  Bulk
  ingestion (:meth:`MonitorFleet.ingest_many`) groups the stream per
  shard and flushes each watermark-crossing trace once per shard
  batch, so the per-record routing overhead is paid per batch too.
* **Memory policy.**  An optional global ``event_budget`` bounds the
  total number of live digraph events across the fleet.  When a flush
  pushes the fleet over budget, prefixes are evicted from the
  least-recently-ingested traces first
  (:meth:`~repro.analysis.online.OnlineAbcMonitor.forget_prefix`, with
  each trace's per-process frontier and the send events of its
  in-flight messages pinned): exact no-crossing removal where it
  applies, with a fallback to *summary compaction* -- the prefix is
  replaced by boundary-to-boundary summary edges -- on chain-shaped
  traces where no prefix is exactly removable, so the budget holds on
  every workload shape.  :meth:`MonitorFleet.close` retires a finished
  trace to an immutable :class:`TraceSummary`, freeing its digraph
  entirely.  The budget and explicit closing are the whole memory
  policy, so what a trace reports depends on its records and the
  caller's calls, never on how long it sat idle.
* **Aggregates.**  :meth:`MonitorFleet.worst_ratio_histogram`,
  :meth:`MonitorFleet.violating_traces`,
  :meth:`MonitorFleet.top_k_riskiest` and the :class:`FleetReport`
  snapshot expose the fleet-level view (per-shard oracle and memory
  counters included) without touching individual monitors.

Exactness contract.  Batching never changes a reported ratio: the worst
relevant ratio is a function of the observed graph, so at every flush
boundary each trace's :meth:`MonitorFleet.worst_ratio` is bit-identical
to a standalone monitor fed the same records one at a time (the property
test in ``tests/analysis/test_fleet.py``).  Budget-driven eviction is
exact *when the stream carries send metadata* (``record.sends``, as
simulator traces and :func:`repro.scenarios.generators.concurrent_workload`
streams do): the fleet then knows which send events still have a message
in flight and pins them, so no future edge ever crosses a forgotten
prefix -- and summary compaction preserves every query above the
trace's running worst ratio, the only range its monitor ever refreshes
in, so the fallback is just as exact.  Streams without send metadata can be evicted past an in-flight
send; the late edge is then skipped, counted, and the trace flagged
``degraded`` -- its ratio remains a sound lower bound with the
historical maximum kept, and the flag is surfaced per trace and in the
fleet report instead of silently losing exactness.
"""

from __future__ import annotations

import os
from fractions import Fraction
from typing import Callable, Iterable

from repro.analysis.online import OnlineAbcMonitor
from repro.core.cycles import CycleClassification
from repro.core.events import ProcessId
from repro.runtime.shard import (
    FleetReport,
    MonitorSpec,
    ShardGroup,
    ShardStats,
    TraceId,
    TraceSummary,
    ratio_histogram,
    shard_index_of as _shard_index,
    top_k_riskiest,
)
from repro.sim.trace import ReceiveRecord, encode_record

__all__ = [
    "FleetReport",
    "MonitorFleet",
    "ShardStats",
    "TraceId",
    "TraceSummary",
]

# Serial fleet snapshot frame: ("abc-fleet-snapshot", version,
# config_row, group_frame).  Unlike the parallel durability plane
# (journals + periodic checkpoints), this is a one-shot image: the
# whole fleet -- configuration *and* state -- as one picklable frame.
_SNAPSHOT_MAGIC = "abc-fleet-snapshot"
_SNAPSHOT_VERSION = 6  # see codec.SNAPSHOT_VERSION


class MonitorFleet:
    """N concurrent online ABC monitors behind one ingestion API.

    This is the *serial* front end over the share-nothing shard engine
    of :mod:`repro.runtime.shard`: one in-process
    :class:`~repro.runtime.shard.ShardGroup` holds every shard, and the
    fleet contributes trace routing, the user-facing callbacks, and the
    report.  :class:`repro.runtime.ParallelFleet` offers the same
    surface with the groups spread across worker processes.

    Args:
        xi: optional synchrony parameter every trace is monitored
            against; per-trace violations surface through
            ``on_violation`` and :meth:`violating_traces`.
        n_shards: number of independent hash shards.
        batch_size: per-trace pending-record watermark that triggers an
            automatic flush; larger batches mean fewer oracle calls and
            staler intermediate ratios.
        event_budget: optional cap on total live digraph events across
            the fleet, enforced by LRU eviction after any flush that
            exceeds it (``None`` disables eviction).  Eviction first
            tries exact settled-prefix removal; when pinning blocks it
            (a causal chain links history to the frontier), it falls
            back to summary compaction, so the budget is a real bound
            on chain-shaped traces too.
        faulty: processes whose sent messages are dropped, applied to
            every trace (as in :class:`~repro.analysis.online.OnlineAbcMonitor`).
        drop_faulty: disable the faulty-sender filter when ``False``.
        monitor_specs: declarative per-trace monitor configuration --
            one :class:`~repro.runtime.shard.MonitorSpec` applied to
            every trace, or a ``{trace_id: MonitorSpec}`` mapping
            (unlisted traces get the fleet defaults).  Plain data, so
            the same registry drives :class:`repro.runtime.ParallelFleet`
            process workers unchanged.
        on_violation: called as ``on_violation(trace_id, witness)`` the
            first time a trace's worst ratio reaches ``xi``.

    The fleet is a context manager: ``with MonitorFleet(...) as fleet:``
    closes it on exit.  A closed fleet rejects further ingestion with
    ``RuntimeError`` but still answers queries; :meth:`snapshot` /
    :meth:`restore` round-trip the whole fleet (configuration included)
    through one picklable frame or a file.
    """

    def __init__(
        self,
        xi: Fraction | float | int | str | None = None,
        *,
        n_shards: int = 8,
        batch_size: int = 32,
        event_budget: int | None = None,
        faulty: frozenset[ProcessId] | set[ProcessId] = frozenset(),
        drop_faulty: bool = True,
        monitor_specs: MonitorSpec | dict[TraceId, MonitorSpec] | None = None,
        on_violation: Callable[[TraceId, CycleClassification], None] | None = None,
    ) -> None:
        if n_shards < 1:
            raise ValueError("need at least one shard")
        if batch_size < 1:
            raise ValueError("batch_size must be positive")
        if event_budget is not None and event_budget < 1:
            raise ValueError("event_budget must be positive (or None)")
        if monitor_specs is not None and not isinstance(
            monitor_specs, (MonitorSpec, dict)
        ):
            raise TypeError(
                "monitor_specs must be a MonitorSpec or a "
                "{trace_id: MonitorSpec} mapping"
            )
        self.on_violation = on_violation
        self._closed = False
        self._group = ShardGroup(
            range(n_shards),
            xi=xi,
            batch_size=batch_size,
            event_budget=event_budget,
            faulty=faulty,
            drop_faulty=drop_faulty,
            monitor_specs=monitor_specs,
            emit_violation=self._emit_violation,
        )

    def _emit_violation(
        self, trace_id: TraceId, witness: CycleClassification
    ) -> None:
        # Read the attribute at fire time: callers may swap the callback
        # after construction (and callbacks may re-enter the fleet).
        if self.on_violation is not None:
            self.on_violation(trace_id, witness)

    # ------------------------------------------------------------------
    # configuration: fixed at construction, as in ParallelFleet (a new
    # xi or faulty set would reach only traces opened after the change,
    # leaving one fleet monitoring against two values).  The budget
    # alone stays settable: a new budget is enforced at once.
    # ------------------------------------------------------------------

    @property
    def xi(self) -> Fraction | float | int | str | None:
        return self._group.xi

    @property
    def batch_size(self) -> int:
        return self._group.batch_size

    @property
    def event_budget(self) -> int | None:
        return self._group.event_budget

    @event_budget.setter
    def event_budget(self, value: int | None) -> None:
        if value is not None and value < 1:
            raise ValueError("event_budget must be positive (or None)")
        # set_budget invalidates the futility memo and enforces
        # immediately, so a tightened budget takes effect now rather
        # than at the next flush.
        self._group.set_budget(value)

    @property
    def faulty(self) -> frozenset[ProcessId]:
        return self._group.faulty

    @property
    def drop_faulty(self) -> bool:
        return self._group.drop_faulty

    @property
    def peak_live_events(self) -> int:
        return self._group.peak_live_events

    @property
    def budget_overruns(self) -> int:
        return self._group.budget_overruns

    # ------------------------------------------------------------------
    # routing and trace lifecycle
    # ------------------------------------------------------------------

    @property
    def n_shards(self) -> int:
        return len(self._group.shards)

    def shard_of(self, trace_id: TraceId) -> int:
        """The shard index ``trace_id`` routes to (stable across runs)."""
        return _shard_index(trace_id, self.n_shards)

    def ingest(self, trace_id: TraceId, record: ReceiveRecord) -> None:
        """Route one receive record to its trace's pending buffer.

        Ingestion is O(1) buffering; oracle work happens when the
        trace's buffer reaches ``batch_size`` (or on :meth:`flush`),
        so a burst of records on one trace pays a single refresh.
        """
        if self._closed:
            raise RuntimeError("the fleet has been closed")
        self._group.ingest(self.shard_of(trace_id), trace_id, record)

    def ingest_many(
        self,
        stream: Iterable[tuple[TraceId, ReceiveRecord]],
        chunk_size: int = 1024,
    ) -> None:
        """Consume an interleaved ``(trace_id, record)`` stream (the
        shape :func:`repro.scenarios.generators.concurrent_workload`
        yields), grouped per shard.

        Unlike a loop of :meth:`ingest` calls -- which pays routing and
        a budget probe per record, and flushes a trace the instant its
        buffer crosses the watermark -- bulk ingestion groups each
        ``chunk_size``-record chunk of the stream by shard, buffers
        whole shard batches at once, and flushes each
        watermark-crossing trace exactly once per shard batch, keeping
        the one-oracle-call-per-flush guarantee while the per-record
        overhead collapses into per-batch overhead.  Flush boundaries
        coarsen to the chunk, which never changes a reported ratio on
        streams carrying sends metadata (the worst ratio is a function
        of the observed graph, and eviction pins keep every cut safe).
        On metadata-free streams under an ``event_budget``, moving the
        flush points moves the budget-eviction points too, so *which*
        traces end up degraded -- with which lower-bound ratios -- can
        differ from the per-record loop, exactly as in the degraded
        regime the module docstring describes.
        """
        if chunk_size < 1:
            raise ValueError("chunk_size must be positive")
        if self._closed:
            raise RuntimeError("the fleet has been closed")
        group = self._group
        n_shards = self.n_shards
        route = _shard_index
        encode = encode_record
        pending: dict[int, list[tuple[int, TraceId, tuple]]] = {}
        count = 0
        tick = group.tick
        for trace_id, record in stream:
            tick += 1
            pending.setdefault(route(trace_id, n_shards), []).append(
                (tick, trace_id, encode(record))
            )
            count += 1
            if count >= chunk_size:
                for shard_index in sorted(pending):
                    group.ingest_batch(shard_index, pending[shard_index])
                pending.clear()
                count = 0
                tick = group.tick
        for shard_index in sorted(pending):
            group.ingest_batch(shard_index, pending[shard_index])

    def flush(self, trace_id: TraceId | None = None) -> None:
        """Absorb pending records (of one trace, or of every trace)."""
        if trace_id is not None:
            self._group.flush_trace(self.shard_of(trace_id), trace_id)
        else:
            self._group.flush_all()

    def close(self, trace_id: TraceId | None = None) -> TraceSummary | None:
        """Retire a finished trace -- or, with no argument, the fleet.

        With a ``trace_id``: flush it, record an immutable summary, and
        free its digraph entirely.  Closing is the deterministic memory
        lever -- a closed trace costs a summary, not a digraph -- and
        keeps aggregate queries exact: the summary's ratio *is* the
        trace's final running worst ratio.  Closing an unknown trace
        raises ``KeyError``; closing a previously retired trace returns
        its summary unchanged.  If the trace was re-opened after
        retirement, the summaries are merged (maximum ratio, summed
        counters) and flagged degraded.

        With no argument (the context-manager exit path, matching
        :meth:`ParallelFleet.close`): flush everything and mark the
        fleet closed.  Idempotent; a closed fleet raises
        ``RuntimeError`` on further ingestion while every query --
        ratios, reports, per-trace close -- keeps answering from the
        final state.
        """
        if trace_id is None:
            if not self._closed:
                self._group.flush_all()
                self._closed = True
            return None
        return self._group.close(self.shard_of(trace_id), trace_id)

    def __enter__(self) -> "MonitorFleet":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # snapshot / restore
    # ------------------------------------------------------------------

    def snapshot(self, path: str | os.PathLike | None = None) -> tuple:
        """The whole fleet as one picklable frame (optionally written
        to ``path`` in the durability plane's WAL frame format).

        The frame carries both the configuration row (xi, sharding,
        batching, budget, faulty set, monitor specs) and the shard
        group image -- pending buffers included, taken without
        flushing -- so :meth:`restore` rebuilds the fleet mid-stream,
        flush boundaries and all.  The ``on_violation`` callback is not
        picklable state and must be re-supplied to :meth:`restore`.
        """
        from repro.runtime import codec

        group = self._group
        config = (
            codec.encode_fraction(
                None if group.xi is None else Fraction(group.xi)
            ),
            self.n_shards,
            group.batch_size,
            group.event_budget,
            tuple(group.faulty),
            group.drop_faulty,
            codec.encode_specs(group.monitor_specs),
        )
        frame = (
            _SNAPSHOT_MAGIC,
            _SNAPSHOT_VERSION,
            config,
            group.snapshot(),
        )
        if path is not None:
            from repro.runtime.durable import write_frames

            write_frames(path, [frame])
        return frame

    @classmethod
    def restore(
        cls,
        source: tuple | str | os.PathLike,
        *,
        on_violation: Callable[[TraceId, CycleClassification], None] | None = None,
    ) -> "MonitorFleet":
        """Rebuild a fleet from a :meth:`snapshot` frame or file.

        Per-trace worst ratios, degraded flags, violating sets, pending
        buffers and all counters are bit-identical to the snapshotted
        fleet's; ``on_violation`` is re-attached from the keyword
        argument (callbacks do not survive pickling).
        """
        if isinstance(source, (str, os.PathLike)):
            from repro.runtime.durable import read_frames

            frames = list(read_frames(source))
            if not frames:
                raise ValueError(f"no snapshot frame in {source!r}")
            source = frames[0]
        if not (
            isinstance(source, tuple)
            and len(source) == 4
            and source[0] == _SNAPSHOT_MAGIC
        ):
            raise ValueError("not a MonitorFleet snapshot frame")
        _magic, version, config, group_frame = source
        if version != _SNAPSHOT_VERSION:
            raise ValueError(
                f"unsupported fleet snapshot version {version!r}"
            )
        from repro.runtime import codec

        (
            xi_wire,
            n_shards,
            batch_size,
            event_budget,
            faulty,
            drop_faulty,
            specs_wire,
        ) = config
        fleet = cls(
            codec.decode_fraction(xi_wire),
            n_shards=n_shards,
            batch_size=batch_size,
            event_budget=event_budget,
            faulty=frozenset(faulty),
            drop_faulty=drop_faulty,
            monitor_specs=codec.decode_specs(specs_wire),
            on_violation=on_violation,
        )
        fleet._group.load_snapshot(group_frame)
        return fleet

    # ------------------------------------------------------------------
    # per-trace queries
    # ------------------------------------------------------------------

    def worst_ratio(self, trace_id: TraceId) -> Fraction | None:
        """The trace's exact running worst relevant ratio (pending
        records flushed first); falls back to the retired summary.  A
        trace re-opened after retirement reports the maximum of its
        retired summary and its post-reopen suffix."""
        return self._group.worst_ratio(self.shard_of(trace_id), trace_id)

    def monitor_of(self, trace_id: TraceId) -> OnlineAbcMonitor:
        """Direct access to an open trace's monitor (flushed first), for
        speculative queries (``would_violate``) or inspection."""
        return self._group.monitor_of(self.shard_of(trace_id), trace_id)

    def is_degraded(self, trace_id: TraceId) -> bool:
        """Whether the trace's ratio is a lower bound rather than exact
        (unsafe eviction detected, or the trace was re-opened)."""
        return self._group.is_degraded(self.shard_of(trace_id), trace_id)

    # ------------------------------------------------------------------
    # fleet-level aggregates
    # ------------------------------------------------------------------

    @property
    def live_events(self) -> int:
        """Total live digraph events across all open monitors."""
        return self._group.live_events

    @property
    def open_traces(self) -> int:
        return self._group.open_traces

    @property
    def retired_traces(self) -> int:
        """Retired traces not currently re-opened (each trace counts
        exactly once between here and :attr:`open_traces`)."""
        return self._group.retired_traces

    def __len__(self) -> int:
        """Number of distinct traces ever seen (open + retired)."""
        return self.open_traces + self.retired_traces

    def worst_ratio_histogram(self) -> dict[Fraction | None, int]:
        """Exact population histogram: how many traces sit at each worst
        relevant ratio (``None`` = no relevant cycle).  Ratios are exact
        rationals, so the histogram needs no binning; bucket the keys
        with ``float()`` for plotting."""
        return ratio_histogram(self._group.all_ratios())

    def violating_traces(self) -> tuple[TraceId, ...]:
        """Ids of traces whose worst ratio reached the monitored ``xi``,
        in first-detection order."""
        self.flush()
        return self._group.violating_ids()

    def top_k_riskiest(
        self, k: int
    ) -> list[tuple[TraceId, Fraction | None]]:
        """The ``k`` traces with the highest worst ratio, descending
        (ties broken by trace id; traces with no relevant cycle last).

        The closer a trace's ratio is to the deployment's ``Xi``, the
        less asynchrony headroom it has left -- this is the fleet-level
        watchlist."""
        return top_k_riskiest(self._group.all_ratios(), k)

    def report(self) -> FleetReport:
        """A :class:`FleetReport` snapshot (pending records flushed)."""
        self.flush()
        group = self._group
        stats = group.shard_stats()
        return FleetReport(
            xi=None if self.xi is None else Fraction(self.xi),
            n_shards=self.n_shards,
            batch_size=group.batch_size,
            event_budget=group.event_budget,
            open_traces=group.open_traces,
            retired_traces=group.retired_traces,
            records=sum(s.records for s in stats),
            flushes=sum(s.flushes for s in stats),
            oracle_calls=sum(s.oracle_calls for s in stats),
            live_events=group.live_events,
            peak_live_events=group.peak_live_events,
            tombstoned_events=sum(s.tombstoned_events for s in stats),
            evictions=sum(s.evictions for s in stats),
            summary_compactions=sum(s.summary_compactions for s in stats),
            summary_edges=sum(s.summary_edges for s in stats),
            budget_overruns=group.budget_overruns,
            degraded_traces=group.degraded_traces(),
            violating_traces=group.violating_ids(),
            shards=tuple(stats),
        )
