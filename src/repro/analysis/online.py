"""Online ABC admissibility monitoring (the ?ABC / <>ABC primitives).

The Section-6 variants of the ABC model reason about *growing*
executions: ?ABC asks whether the (unknown) synchrony parameter ``Xi``
stays above the worst relevant-cycle ratio of every prefix, <>ABC whether
violations eventually stop.  Monitoring either online with the batch
checker means re-running a full worst-ratio search per prefix -- the
quadratic-and-worse behavior this module eliminates.

:class:`OnlineAbcMonitor` consumes an execution incrementally, either as
recorded :class:`~repro.sim.trace.ReceiveRecord` objects (:meth:`observe`)
or as raw graph events (:meth:`observe_event` / :meth:`observe_message`),
and maintains the exact running worst relevant ratio.  Three observations
make this cheap:

* the traversal digraph ``H`` is extended in place inside one shared
  :class:`~repro.core.synchrony.AdmissibilityChecker` -- never rebuilt;
* the worst ratio is non-decreasing under extension (old cycles persist),
  so a new receive event without a message edge cannot change it and is
  absorbed with zero oracle work;
* after a message edge arrives, a *single* oracle call at the Farey
  successor of the current worst ratio (the smallest fraction above it
  with denominator within the message-count bound) decides whether the
  ratio moved at all.  Only when it did -- rarely -- does the climb go
  on: that call returned a cycle, the ratio jumps to the cycle's, and
  the next probe is that ratio's Farey successor.

The monitor also exposes violation callbacks for a known ``Xi``: the
first prefix whose worst ratio reaches ``Xi`` triggers ``on_violation``
with a concrete witness cycle, which is the online form of the <>ABC
"violations before stabilization" view.

Two scheduler-facing facilities ride on the same shared checker.
*Speculative queries* (:meth:`OnlineAbcMonitor.would_violate`,
:meth:`OnlineAbcMonitor.speculative_worst_ratio`) answer "what if these
events and messages arrived next?" by pushing the hypothetical extension
onto the live digraph inside a
:meth:`~repro.core.synchrony.AdmissibilityChecker.speculate` block and
rolling it back -- the primitive the ABC-enforcing scheduler of
:mod:`repro.sim.abc_scheduler` runs once per pending message per step.
*Prefix forgetting* (:meth:`OnlineAbcMonitor.forget_prefix`,
:meth:`OnlineAbcMonitor.settled_prefix`,
:meth:`OnlineAbcMonitor.compactable_prefix`) bounds the monitor's
memory through the checker's two-mode compaction engine.  Exact mode
tombstones a settled prefix no message crosses; summary mode
(``forget_prefix(events, summarize=True)``) compacts *any* prefix --
chain-shaped executions included, where the no-crossing criterion
removes nothing -- replacing it by boundary-to-boundary summary edges.
Either way the running worst ratio keeps its historical maximum, and
because the monitor only ever refreshes at ratios strictly above that
maximum (the Farey-successor step), every ratio it reports after
summary compaction is still bit-identical to an uncompacted monitor's.

Compaction *cadence* can be left to the monitor itself: constructed
with ``compact_threshold=t``, the monitor tracks its own in-flight
sends from record metadata and summary-compacts whenever the live
digraph outgrows ``t`` times its boundary (the frontier plus pinned
send events) -- an adaptive trigger that compacts exactly when there is
something worth reclaiming, instead of every k records regardless of
how little a fixed cadence would remove (see
:meth:`OnlineAbcMonitor.maybe_compact`).

A third facility serves the *multi-trace* deployment of
:mod:`repro.analysis.fleet`: :meth:`OnlineAbcMonitor.observe_batch`
absorbs a burst of records with the refresh deferred to the end of the
batch, so a storm of messages on one trace costs one Farey-successor
oracle call per flush instead of one per record, while the worst ratio
at every batch boundary stays bit-identical to record-at-a-time
observation (the ratio is a function of the observed graph alone).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable

from repro.core.cycles import CycleClassification
from repro.core.events import Event, ProcessId
from repro.core.execution_graph import ExecutionGraph, MessageEdge
from repro.core.synchrony import AdmissibilityChecker, AdmissibilityResult, as_xi
from repro.obs import metrics as _obs_metrics
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import STAGE_METRIC


class MonitorObs:
    """The monitor's instrument bundle on some registry.

    Oracle-call and compaction counters are *deterministic*: both are
    functions of the observed record stream (the kernel conformance
    gate already asserts oracle-call counts bit-identical), so they
    merge identically across process and thread backends.  Refresh
    latency is wall clock and is not.  The refresh histogram doubles as
    the ``kernel_sweep`` lifecycle stage.
    """

    __slots__ = ("oracle_calls", "compactions", "refresh_ns", "sweep_ns")

    def __init__(self, registry: MetricsRegistry) -> None:
        self.oracle_calls = registry.counter(
            "repro_monitor_oracle_calls_total",
            help="negative-cycle oracle runs issued by monitor refreshes",
        )
        self.compactions = registry.counter(
            "repro_monitor_compaction_passes_total",
            help="threshold-triggered summary compactions (maybe_compact)",
        )
        self.refresh_ns = registry.histogram(
            "repro_monitor_refresh_ns",
            help="incremental worst-ratio refresh latency",
        )
        self.sweep_ns = registry.histogram(
            STAGE_METRIC,
            (("stage", "kernel_sweep"),),
            help="per-stage record-lifecycle latency",
        )
from repro.sim.trace import (
    ReceiveRecord,
    RecordColumns,
    Trace,
    message_kept,
)

__all__ = [
    "OnlineAbcMonitor",
    "RatioChange",
    "running_worst_ratio_of_trace",
]


@dataclass(frozen=True)
class RatioChange:
    """One increase of the running worst relevant ratio.

    Attributes:
        n_events: number of events observed when the increase happened.
        n_messages: number of message edges observed at that point.
        previous: the worst ratio before (``None`` = no relevant cycle).
        worst: the worst ratio after.
    """

    n_events: int
    n_messages: int
    previous: Fraction | None
    worst: Fraction


class OnlineAbcMonitor:
    """Maintains the exact running worst relevant ratio of a growing
    execution, with optional violation callbacks for a known ``Xi``.

    Args:
        xi: optional synchrony parameter to monitor against (``> 1``).
            When the running worst ratio first reaches it, the execution
            stops being ABC-admissible for ``xi`` and ``on_violation``
            fires once with a witness cycle.
        faulty: processes whose sent messages are dropped from the graph
            (the paper's Section-2 treatment; mirrors
            :func:`~repro.sim.trace.build_execution_graph`).
        drop_faulty: disable the faulty-sender filter when ``False``.
        keep_message: optional extra filter on triggering messages, as in
            :func:`~repro.sim.trace.build_execution_graph`.
        on_violation: called once, at the first observation whose worst
            ratio reaches ``xi``, with a violating
            :class:`~repro.core.cycles.CycleClassification` witness.
        on_ratio_increase: called with a :class:`RatioChange` every time
            the running worst ratio grows (including its first
            appearance).
        compact_threshold: optional adaptive compaction cadence
            (``> 1``).  The monitor then tracks in-flight sends from
            record metadata (``record.sends``) and summary-compacts its
            digraph whenever the live event count exceeds the threshold
            times the boundary it would keep -- bounding memory by
            ``threshold * O(frontier + in-flight sends)`` with every
            reported ratio still bit-identical.  Only streams carrying
            complete sends metadata keep the monitor exact under this
            mode (as with fleet eviction, an unannounced in-flight send
            degrades the ratio to a counted lower bound).
        kernel: optional detection-kernel name for the underlying
            :class:`~repro.core.synchrony.AdmissibilityChecker`
            (``None`` follows the ambient ``REPRO_KERNEL`` environment);
            every kernel is exact, so this is purely a speed knob.
    """

    def __init__(
        self,
        xi: Fraction | float | int | str | None = None,
        faulty: frozenset[ProcessId] | set[ProcessId] = frozenset(),
        drop_faulty: bool = True,
        keep_message: Callable[[ReceiveRecord], bool] | None = None,
        on_violation: Callable[[CycleClassification], None] | None = None,
        on_ratio_increase: Callable[[RatioChange], None] | None = None,
        compact_threshold: float | None = None,
        kernel: str | None = None,
    ) -> None:
        if compact_threshold is not None and compact_threshold <= 1:
            raise ValueError(
                "compact_threshold must exceed 1 (the live/boundary ratio "
                f"is at least 1), got {compact_threshold}"
            )
        self.xi: Fraction | None = None if xi is None else as_xi(xi)
        self.faulty = frozenset(faulty)
        self.drop_faulty = drop_faulty
        self.keep_message = keep_message
        self.on_violation = on_violation
        self.on_ratio_increase = on_ratio_increase
        self.compact_threshold = compact_threshold
        self.changes: list[RatioChange] = []
        self.violation: CycleClassification | None = None
        self.forgotten_message_edges = 0
        self.auto_compactions = 0
        # (send event, destination) -> announced-but-unarrived messages;
        # maintained only under compact_threshold (the fleet tracks its
        # own copy per trace for eviction pinning).
        self._in_flight: dict[tuple[Event, ProcessId], int] = {}
        self.kernel = kernel
        self._checker = AdmissibilityChecker(kernel=kernel)
        self._worst: Fraction | None = None
        # Telemetry handle: ``None`` when disabled (one attribute read
        # per refresh, the emit_ratio contract).  Standalone monitors
        # bind the process-global registry; a ShardGroup re-binds its
        # monitors to the group's own registry (see ``_wire_monitor``),
        # which is what keeps thread-backend workers from sharing
        # instruments.
        self._obs: MonitorObs | None = (
            MonitorObs(_obs_metrics.global_registry())
            if _obs_metrics.enabled()
            else None
        )

    def __getstate__(self) -> dict:
        # Instruments are process-local live objects (locks, shared
        # registries): never serialized, so snapshot blobs stay
        # bit-identical with telemetry on or off.  The restoring side
        # re-binds (``ShardGroup._wire_monitor``).
        state = self.__dict__.copy()
        state["_obs"] = None
        return state

    # ------------------------------------------------------------------
    # state
    # ------------------------------------------------------------------

    @property
    def worst_ratio(self) -> Fraction | None:
        """The exact worst relevant ratio of everything observed so far
        (``None`` = no relevant cycle yet); equals
        :func:`~repro.core.synchrony.worst_relevant_ratio` on the
        observed prefix."""
        return self._worst

    @property
    def n_events(self) -> int:
        return self._checker.n_events

    @property
    def n_messages(self) -> int:
        return self._checker.n_messages

    @property
    def oracle_calls(self) -> int:
        """Total negative-cycle runs issued (incrementality metric)."""
        return self._checker.oracle_calls

    @property
    def kernel_name(self) -> str:
        """The detection kernel the monitor's checker resolves to."""
        return self._checker.kernel_name

    def set_kernel(self, kernel: str | None) -> None:
        """Re-pin the detection kernel (see
        :meth:`~repro.core.synchrony.AdmissibilityChecker.set_kernel`)."""
        self.kernel = kernel
        self._checker.set_kernel(kernel)

    @property
    def summary_edges(self) -> int:
        """Live summary edges created by ``forget_prefix(summarize=True)``."""
        return self._checker.n_summary_edges

    def n_events_of(self, process: ProcessId) -> int:
        """Total events observed at ``process`` (forgotten ones
        included): the local index the next event there must carry."""
        return self._checker.n_events_of(process)

    def is_admissible(self) -> bool:
        """Whether the observed prefix is ABC-admissible for ``xi``."""
        if self.xi is None:
            raise ValueError("monitor was constructed without a Xi")
        return self._worst is None or self._worst < self.xi

    def check(self, xi: Fraction | float | int | str) -> AdmissibilityResult:
        """Batch-equivalent admissibility check of the observed prefix.

        After ``forget_prefix(summarize=True)``, exact only for ``xi``
        strictly above the worst ratio at compaction time (cycles
        confined to a summarized prefix are not re-derived); use
        :attr:`worst_ratio` -- which keeps the historical maximum --
        for the monitoring verdict.
        """
        return self._checker.check(xi)

    # ------------------------------------------------------------------
    # feeding the monitor
    # ------------------------------------------------------------------

    def observe(self, record: ReceiveRecord) -> Fraction | None:
        """Consume one receive record; returns the updated worst ratio.

        The record's event is appended to its process timeline and the
        triggering message edge added unless the sender is faulty (or the
        record is an external wake-up, or ``keep_message`` rejects it) --
        exactly the graph :func:`~repro.sim.trace.build_execution_graph`
        would produce from the records observed so far.

        A record whose triggering send event lies in a prefix dropped by
        :meth:`forget_prefix` does not raise: like :meth:`observe_batch`,
        the edge is skipped and counted in
        :attr:`forgotten_message_edges` (the monitor's ratio is then a
        lower bound; pin in-flight sends when forgetting to keep the
        count at zero).
        """
        self.observe_event(record.event)
        if message_kept(
            record, self.faulty, self.drop_faulty, self.keep_message
        ):
            src = record.send_event
            assert src is not None
            if src.index < self._checker.first_live_index(src.process):
                self.forgotten_message_edges += 1
            else:
                self.observe_message(src, record.event)
        if self.compact_threshold is not None:
            self._track_record(record)
            self.maybe_compact()
        return self._worst

    def observe_trace(self, trace: Iterable[ReceiveRecord]) -> Fraction | None:
        """Consume many records (a whole trace or a new suffix of one)."""
        for record in trace:
            self.observe(record)
        return self._worst

    def observe_batch(self, records: Iterable[ReceiveRecord]) -> Fraction | None:
        """Absorb a burst of records with one deferred refresh.

        Semantically equivalent to calling :meth:`observe` on each record
        in order, except that the worst-ratio refresh runs once at the end
        of the batch instead of once per message edge -- the oracle-saving
        hook behind :class:`repro.analysis.fleet.MonitorFleet`.  Because
        the worst ratio is a function of the observed graph alone, the
        ratio returned at the batch boundary is bit-identical to
        record-at-a-time observation; only the *intermediate* ratios (and
        with them per-record granularity of :attr:`changes` /
        ``on_ratio_increase``) are coalesced into at most one
        :class:`RatioChange` per batch, and a violation is reported at the
        batch boundary rather than mid-burst.

        Like :meth:`observe`, a record whose triggering send event lies
        in a prefix already dropped by :meth:`forget_prefix` does not
        raise: the edge is skipped and counted in
        :attr:`forgotten_message_edges`.  A nonzero count means prefixes
        were forgotten unsafely (a message crossed the boundary after
        all) and the ratio is now only a lower bound; choosing prefixes
        with :meth:`settled_prefix` and pinning the send events of
        in-flight messages keeps the count at zero and the monitor exact.
        """
        added = False
        track = self.compact_threshold is not None
        for record in records:
            self.observe_event(record.event)
            if track:
                self._track_record(record)
            if message_kept(
                record, self.faulty, self.drop_faulty, self.keep_message
            ):
                src = record.send_event
                assert src is not None
                if src.index < self._checker.first_live_index(src.process):
                    self.forgotten_message_edges += 1
                    continue
                if self._checker.add_message(src, record.event):
                    added = True
        if added:
            self._refresh()
        if track:
            # After the refresh: the compaction floor is the *current*
            # running worst, which keeps the compacted digraph exact for
            # every ratio the Farey-successor step will ever probe.
            self.maybe_compact()
        return self._worst

    def observe_batch_columnar(
        self, cols: RecordColumns
    ) -> Fraction | None:
        """Columnar twin of :meth:`observe_batch`: absorb a batch of
        parallel columns without materializing a single record object.

        One pass over the columns replicates the
        :func:`~repro.sim.trace.message_kept` / forgotten-prefix
        filtering into an aligned origin column, which
        :meth:`~repro.core.synchrony.AdmissibilityChecker.absorb_batch`
        bulk-appends (H-edge order per record preserved); one more pass
        (:meth:`_track_columns`) replicates the in-flight bookkeeping
        behind adaptive compaction.  Everything observable -- ratios,
        :attr:`changes`, :attr:`violation`, oracle-call counts,
        :attr:`forgotten_message_edges`, compaction cadence -- is
        bit-identical to :meth:`observe_batch` on the same records.

        A ``keep_message`` filter is a predicate over *record objects*,
        so monitors carrying one fall back to the object path.
        """
        if self.keep_message is not None:
            return self.observe_batch(cols.to_records())
        checker = self._checker
        senders = cols.senders
        send_processes = cols.send_processes
        send_indexes = cols.send_indexes
        faulty = self.faulty
        drop = self.drop_faulty
        first_live = checker.first_live_index
        n = len(cols)
        messages: list[tuple[ProcessId, int] | None] = [None] * n
        forgotten = 0
        for k in range(n):
            sender = senders[k]
            sp = send_processes[k]
            if sender is None or sp is None:
                continue
            if drop and sender in faulty:
                continue
            si = send_indexes[k]
            if si < first_live(sp):
                forgotten += 1
                continue
            messages[k] = (sp, si)
        added = checker.absorb_batch(
            (cols.processes, cols.indexes), messages
        )
        self.forgotten_message_edges += forgotten
        track = self.compact_threshold is not None
        if track:
            self._track_columns(cols)
        if added:
            self._refresh()
        if track:
            self.maybe_compact()
        return self._worst

    def observe_event(self, event: Event) -> None:
        """Append a receive event (and its implied local edge).

        A fresh event has no incoming traversal edge besides its trigger
        message, so no new cycle can close through it yet; the worst
        ratio is unchanged by construction and no oracle runs.
        """
        self._checker.add_event(event)

    def observe_message(self, src: Event, dst: Event) -> Fraction | None:
        """Add a message edge and refresh the worst ratio."""
        if self._checker.add_message(src, dst):
            self._refresh()
        return self._worst

    def extend_to(self, graph: ExecutionGraph) -> Fraction | None:
        """Advance the monitor to ``graph``; returns its worst ratio.

        ``graph`` should extend the observed prefix (more events per
        process, a superset of messages): the diff is then absorbed
        incrementally with a single refresh.  A non-extension resets the
        monitor -- including its violation and ratio-change history,
        which referred to the abandoned execution -- and pays one batch
        search; correct on any sequence of graphs, fast on growing ones.
        """
        if not self._checker.extends(graph):
            self._checker = AdmissibilityChecker(graph, kernel=self.kernel)
            self._worst = None
            self.violation = None
            self.changes = []
            added = self._checker.n_messages > 0
        else:
            added = self._checker.absorb(graph)
        if added:
            self._refresh()
        return self._worst

    # ------------------------------------------------------------------
    # speculative queries and prefix forgetting
    # ------------------------------------------------------------------

    def _push_extension(
        self,
        events: Iterable[Event],
        messages: Iterable[tuple[Event, Event] | MessageEdge],
    ) -> None:
        """Grow the (speculating) checker by a hypothetical extension."""
        for event in events:
            self._checker.add_event(event)
        for message in messages:
            if isinstance(message, MessageEdge):
                src, dst = message.src, message.dst
            else:
                src, dst = message
            self._checker.add_message(src, dst)

    def would_violate(
        self,
        events: Iterable[Event] = (),
        messages: Iterable[tuple[Event, Event] | MessageEdge] = (),
    ) -> bool:
        """Whether observing the given extension next would make the
        execution inadmissible for ``xi``.

        The extension is pushed onto the live digraph speculatively and
        popped off again: the monitor's state (worst ratio, memoized
        refresh bracket, callbacks) is untouched.  Events must follow
        the usual local-order discipline, message endpoints must exist
        after the events are added.  This is the oracle primitive of the
        ABC-enforcing scheduler, exposed for schedulers built on the
        monitor directly.
        """
        if self.xi is None:
            raise ValueError("monitor was constructed without a Xi")
        if self._worst is not None and self._worst >= self.xi:
            # Already violating: answer from the running maximum -- the
            # realizing cycle may live in a forgotten prefix, where the
            # compacted digraph is not obliged to re-derive it.
            return True
        with self._checker.speculate() as checker:
            self._push_extension(events, messages)
            return checker.has_ratio_at_least(self.xi)

    def speculative_worst_ratio(
        self,
        events: Iterable[Event] = (),
        messages: Iterable[tuple[Event, Event] | MessageEdge] = (),
    ) -> Fraction | None:
        """The exact worst ratio the extension would produce, without
        observing it: one Farey-successor oracle call in the common case
        (see :meth:`~repro.core.synchrony.AdmissibilityChecker.updated_worst_ratio`),
        with every speculative addition rolled back on return."""
        with self._checker.speculate() as checker:
            self._push_extension(events, messages)
            return checker.updated_worst_ratio(self._worst)

    def settled_prefix(self, pinned: Iterable[Event] = ()) -> tuple[Event, ...]:
        """The largest forgettable prefix no message edge crosses (see
        :meth:`~repro.core.synchrony.AdmissibilityChecker.removable_prefix`);
        pass it to :meth:`forget_prefix` to bound the monitor's memory
        without touching the digraph's full-graph exactness."""
        return self._checker.removable_prefix(pinned)

    def compactable_prefix(
        self, pinned: Iterable[Event] = ()
    ) -> tuple[Event, ...]:
        """The largest prefix summary compaction may absorb: everything
        strictly below the pinned events, with each process's frontier
        implicitly pinned (see
        :meth:`~repro.core.synchrony.AdmissibilityChecker.summarizable_prefix`).
        Unlike :meth:`settled_prefix` this is nonempty even on
        chain-shaped executions; pass it to
        ``forget_prefix(..., summarize=True)``, pinning the send events
        of in-flight messages to keep the monitor exact."""
        return self._checker.summarizable_prefix(pinned)

    def forget_prefix(
        self, events: Iterable[Event], summarize: bool = False
    ) -> int:
        """Compact a left-closed prefix out of the digraph.

        With ``summarize=False`` the prefix is tombstoned exactly and
        must be chosen with :meth:`settled_prefix` (no crossing
        messages) for the monitor to stay exact.  With
        ``summarize=True`` the no-crossing restriction disappears: any
        prefix from :meth:`compactable_prefix` is replaced by
        boundary-to-boundary summary edges that preserve every query
        strictly above the current worst ratio -- which is the only
        range the monitor's Farey-successor refresh ever asks about, so
        reported ratios stay bit-identical to an uncompacted monitor's.

        Either way the running worst ratio keeps its historical
        maximum -- cycles confined to the forgotten prefix can no
        longer be re-derived, but their contribution to
        :attr:`worst_ratio` (and any recorded violation) persists,
        which is the correct monitoring semantics.  In both modes the
        send events of in-flight messages must be pinned so future
        message edges can attach; a late edge into a forgotten prefix
        is skipped and counted by :attr:`forgotten_message_edges`.
        Returns the number of events forgotten.
        """
        if summarize:
            return self._checker.compact_prefix(
                events, mode="summary", floor=self._worst
            )
        return self._checker.remove_prefix(events)

    # ------------------------------------------------------------------
    # adaptive compaction cadence
    # ------------------------------------------------------------------

    def _track_record(self, record: ReceiveRecord) -> None:
        """Maintain the in-flight send counter behind adaptive
        compaction (mirrors the fleet's per-trace pinning bookkeeping)."""
        in_flight = self._in_flight
        if record.sender is not None and record.send_event is not None:
            key = (record.send_event, record.event.process)
            if in_flight.get(key, 0) > 0:
                in_flight[key] -= 1
                if not in_flight[key]:
                    del in_flight[key]
        for send in record.sends:
            dst_key = (record.event, send.dest)
            in_flight[dst_key] = in_flight.get(dst_key, 0) + 1

    def _track_columns(self, cols: RecordColumns) -> None:
        """Columnar twin of a :meth:`_track_record` loop.

        Keys still use :class:`Event` (they must compare equal to the
        object path's keys across compaction decisions), but the events
        are fast-constructed from the columns -- two dict stores instead
        of a validated dataclass ``__init__``.
        """
        in_flight = self._in_flight
        processes = cols.processes
        indexes = cols.indexes
        senders = cols.senders
        send_processes = cols.send_processes
        send_indexes = cols.send_indexes
        sends = cols.sends
        new_event = Event.__new__
        for k in range(len(processes)):
            sp = send_processes[k]
            if senders[k] is not None and sp is not None:
                src = new_event(Event)
                src.__dict__["process"] = sp
                src.__dict__["index"] = send_indexes[k]
                key = (src, processes[k])
                if in_flight.get(key, 0) > 0:
                    in_flight[key] -= 1
                    if not in_flight[key]:
                        del in_flight[key]
            rows = sends[k]
            if rows:
                event = new_event(Event)
                event.__dict__["process"] = processes[k]
                event.__dict__["index"] = indexes[k]
                for row in rows:
                    dst_key = (event, row[0])
                    in_flight[dst_key] = in_flight.get(dst_key, 0) + 1

    def _pinned_in_flight(self) -> list[Event]:
        return [key[0] for key, n in self._in_flight.items() if n > 0]

    def _compactable_size(self) -> int:
        """How many live events summary compaction could reclaim right
        now, without materializing the cut.

        Mirrors :meth:`~repro.core.synchrony.AdmissibilityChecker.summarizable_prefix`
        arithmetically: per process, everything strictly below the
        frontier and below the lowest pinned in-flight send is
        removable.  O(processes + in-flight sends) -- cheap enough to
        evaluate per record, which is what makes the adaptive trigger
        affordable where materializing the prefix each time would not
        be.
        """
        checker = self._checker
        stops = {
            process: checker.n_events_of(process) - 1
            for process in checker.processes
        }
        for (event, _dest), n in self._in_flight.items():
            if n > 0:
                stop = stops.get(event.process)
                if stop is not None and event.index < stop:
                    stops[event.process] = event.index
        return sum(
            max(0, stop - checker.first_live_index(process))
            for process, stop in stops.items()
        )

    def maybe_compact(self) -> int:
        """Summary-compact iff the live digraph outgrew its boundary.

        The trigger is the live/boundary ratio: with ``b`` events that
        must stay (frontiers plus in-flight send pins) and ``n`` live
        events, compaction runs when ``n > threshold * b`` -- i.e. when
        at least ``(threshold - 1) * b`` events are actually
        reclaimable.  Unlike a fixed every-k cadence this never pays a
        compaction that would reclaim little (deep pins, fresh
        digraph), and never lets the digraph grow past ``threshold``
        times its irreducible boundary; reported ratios stay
        bit-identical either way (the summary-mode contract).  Returns
        the number of events compacted away (0 = not triggered).
        """
        threshold = self.compact_threshold
        if threshold is None:
            return 0
        live = self._checker.n_events
        removable = self._compactable_size()
        boundary = live - removable
        if removable <= 0 or live <= threshold * max(boundary, 1):
            return 0
        cut = self._checker.summarizable_prefix(self._pinned_in_flight())
        if not cut:
            return 0
        removed = self.forget_prefix(cut, summarize=True)
        if removed:
            self.auto_compactions += 1
            if self._obs is not None:
                self._obs.compactions.inc()
        return removed

    @classmethod
    def from_trace(
        cls,
        trace: Trace,
        xi: Fraction | float | int | str | None = None,
        **kwargs: object,
    ) -> "OnlineAbcMonitor":
        """A monitor that has consumed ``trace`` (faulty set included)."""
        monitor = cls(xi=xi, faulty=trace.faulty, **kwargs)  # type: ignore[arg-type]
        monitor.observe_trace(trace.records)
        return monitor

    # ------------------------------------------------------------------
    # the incremental refresh
    # ------------------------------------------------------------------

    def _refresh(self) -> None:
        """Re-establish the exact worst ratio after new message edges.

        Delegates to
        :meth:`~repro.core.synchrony.AdmissibilityChecker.updated_worst_ratio`
        (one Farey-successor oracle call in the steady state, a
        warm-started search on the rare increase) and fires the
        callbacks when the ratio moved.
        """
        checker = self._checker
        obs = self._obs
        previous = self._worst
        if obs is not None:
            start = time.perf_counter_ns()
            calls_before = checker.oracle_calls
            self._worst = checker.updated_worst_ratio(previous)
            duration = time.perf_counter_ns() - start
            obs.refresh_ns.observe(duration)
            obs.sweep_ns.observe(duration)
            issued = checker.oracle_calls - calls_before
            if issued:
                obs.oracle_calls.inc(issued)
        else:
            self._worst = checker.updated_worst_ratio(previous)
        if self._worst is None or self._worst == previous:
            return
        change = RatioChange(
            n_events=checker.n_events,
            n_messages=checker.n_messages,
            previous=previous,
            worst=self._worst,
        )
        self.changes.append(change)
        if self.on_ratio_increase is not None:
            self.on_ratio_increase(change)
        if (
            self.xi is not None
            and self.violation is None
            and self._worst >= self.xi
        ):
            witness = checker.violating_cycle(self.xi)
            assert witness is not None
            self.violation = witness
            if self.on_violation is not None:
                self.on_violation(witness)


def running_worst_ratio_of_trace(trace: Trace) -> list[Fraction | None]:
    """The worst relevant ratio after each receive record of ``trace``.

    Record ``k`` of the result equals
    ``worst_relevant_ratio(build_execution_graph(trace[:k+1]))`` but the
    whole sequence is computed in one incremental pass.
    """
    monitor = OnlineAbcMonitor(faulty=trace.faulty)
    return [monitor.observe(record) for record in trace.records]
