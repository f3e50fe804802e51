"""Online ABC admissibility monitoring (the ?ABC / <>ABC primitives).

The Section-6 variants of the ABC model reason about *growing*
executions: ?ABC asks whether the (unknown) synchrony parameter ``Xi``
stays above the worst relevant-cycle ratio of every prefix, <>ABC whether
violations eventually stop.  Monitoring either online with the batch
checker means re-running a full worst-ratio search per prefix -- the
quadratic-and-worse behavior this module eliminates.

:class:`OnlineAbcMonitor` consumes an execution incrementally, either as
batches of record rows (:meth:`observe_batch`, the one batch body; see
:data:`~repro.sim.trace.RECORD_ROW`), as recorded
:class:`~repro.sim.trace.ReceiveRecord` objects (:meth:`observe`, a
one-row batch) or as raw graph events (:meth:`observe_event` /
:meth:`observe_message`), and maintains the exact running worst
relevant ratio.  Three observations make this cheap:

* the traversal digraph ``H`` is extended in place inside one shared
  :class:`~repro.core.synchrony.AdmissibilityChecker` -- never rebuilt;
* the worst ratio is non-decreasing under extension (old cycles persist),
  so a new receive event without a message edge cannot change it and is
  absorbed with zero oracle work;
* the checker keeps one potential -- a time per event, every message
  delay within ``[d, a]`` for the worst ratio ``a/d`` -- so after a
  message edge arrives, a *single* repair pass checks each new H-edge
  against it and repairs it locally where one is violated.  Only when a
  repair closes a cycle -- rarely -- did the ratio move: it jumps to
  that cycle's ratio, and the pass goes on from there.

The monitor also exposes violation callbacks for a known ``Xi``: the
first prefix whose worst ratio reaches ``Xi`` triggers ``on_violation``
with a concrete witness cycle, which is the online form of the <>ABC
"violations before stabilization" view.

Two scheduler-facing facilities ride on the same shared checker.
*Speculative queries* (:meth:`OnlineAbcMonitor.would_violate`,
:meth:`OnlineAbcMonitor.speculative_worst_ratio`) answer "what if these
events and messages arrived next?" by pushing the hypothetical extension
onto the live digraph inside a
:meth:`~repro.core.synchrony.AdmissibilityChecker.speculate` block,
running one repair pass from the running worst ratio, and rolling both
back -- the probe the ABC-enforcing scheduler of
:mod:`repro.sim.abc_scheduler` runs once per pending message per step.
*Prefix forgetting* (:meth:`OnlineAbcMonitor.forget_prefix`,
:meth:`OnlineAbcMonitor.settled_prefix`,
:meth:`OnlineAbcMonitor.compactable_prefix`) bounds the monitor's
memory through the checker's two-mode compaction engine.  A prefix is a
stop map ``{process: first index kept live}``, the form both searches
return and compaction takes.  Exact mode tombstones a settled prefix no
message crosses; summary mode (``forget_prefix(stops, summarize=True)``)
compacts *any* prefix -- chain-shaped executions included, where the
no-crossing criterion removes nothing -- replacing it by
boundary-to-boundary summary edges.
Either way the running worst ratio keeps its historical maximum, and
because the monitor only ever asks for cycles strictly above that
maximum (the potential sits at it), every ratio it reports after
summary compaction is still bit-identical to an uncompacted monitor's.

The monitor keeps one in-flight ledger from record metadata (each
record's ``sends``, less the messages seen arriving), keyed by plain
ints.  :meth:`OnlineAbcMonitor.pinned_events` turns it, with each
process's frontier, into the events any compaction must keep -- the
pins of fleet eviction.  Compaction *cadence* can be left to the
monitor itself: constructed with ``compact_threshold=t``, the monitor
summary-compacts whenever the live digraph outgrows ``t`` times that
boundary -- an adaptive trigger that compacts exactly when there is
something worth reclaiming, instead of every k records regardless of
how little a fixed cadence would remove (see
:meth:`OnlineAbcMonitor.maybe_compact`).

A third facility serves the *multi-trace* deployment of
:mod:`repro.analysis.fleet`: :meth:`OnlineAbcMonitor.observe_batch`
absorbs a burst of record rows with the refresh deferred to the end of
the batch, so a storm of messages on one trace costs one repair pass
per flush instead of one per record, while the worst ratio at every
batch boundary stays bit-identical to record-at-a-time observation (the
ratio is a function of the observed graph alone).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Mapping

from repro.core.cycles import CycleClassification
from repro.core.events import Event, ProcessId
from repro.core.execution_graph import ExecutionGraph, MessageEdge
from repro.core.synchrony import AdmissibilityChecker, AdmissibilityResult, as_xi
from repro.obs import metrics as _obs_metrics
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import STAGE_METRIC
from repro.sim.trace import ReceiveRecord, Trace, encode_record

__all__ = [
    "OnlineAbcMonitor",
    "RatioChange",
    "running_worst_ratio_of_trace",
]


class MonitorObs:
    """The monitor's instrument bundle on some registry.

    Oracle-call, detector and compaction counters are *deterministic*:
    all are functions of the observed record stream, so they merge
    identically across process and thread backends.  Refresh latency is
    wall clock and is not.  The refresh histogram doubles as the
    ``kernel_sweep`` lifecycle stage.
    """

    __slots__ = (
        "oracle_calls",
        "repairs",
        "repaired_nodes",
        "ratio_jumps",
        "compactions",
        "refresh_ns",
        "sweep_ns",
    )

    def __init__(self, registry: MetricsRegistry) -> None:
        self.oracle_calls = registry.counter(
            "repro_monitor_oracle_calls_total",
            help="detection passes issued by monitor refreshes",
        )
        self.repairs = registry.counter(
            "repro_monitor_repairs_total",
            help="potential repairs run by monitor refreshes",
        )
        self.repaired_nodes = registry.counter(
            "repro_monitor_repaired_nodes_total",
            help="nodes labeled by potential repairs",
        )
        self.ratio_jumps = registry.counter(
            "repro_monitor_ratio_jumps_total",
            help="worst-ratio rises, one per cycle a repair closed",
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


@dataclass(frozen=True)
class RatioChange:
    """One increase of the running worst relevant ratio.

    Attributes:
        n_events: number of events observed when the increase happened
            (compacted ones included).
        n_messages: number of message edges observed at that point
            (compacted ones included).
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
        on_violation: called once, at the first observation whose worst
            ratio reaches ``xi``, with a violating
            :class:`~repro.core.cycles.CycleClassification` witness.
        on_ratio_increase: called with a :class:`RatioChange` every time
            the running worst ratio grows (including its first
            appearance).
        compact_threshold: optional adaptive compaction cadence
            (``> 1``).  The monitor then summary-compacts its digraph
            whenever the live event count exceeds the threshold times
            the boundary it would keep (:meth:`pinned_events`) --
            bounding memory by
            ``threshold * O(frontier + in-flight sends)`` with every
            reported ratio still bit-identical.  Only streams carrying
            complete sends metadata keep the monitor exact under this
            mode (as with fleet eviction, an unannounced in-flight send
            degrades the ratio to a counted lower bound).
    """

    def __init__(
        self,
        xi: Fraction | float | int | str | None = None,
        faulty: frozenset[ProcessId] | set[ProcessId] = frozenset(),
        drop_faulty: bool = True,
        on_violation: Callable[[CycleClassification], None] | None = None,
        on_ratio_increase: Callable[[RatioChange], None] | None = None,
        compact_threshold: float | None = None,
    ) -> None:
        if compact_threshold is not None and compact_threshold <= 1:
            raise ValueError(
                "compact_threshold must exceed 1 (the live/boundary ratio "
                f"is at least 1), got {compact_threshold}"
            )
        self.xi: Fraction | None = None if xi is None else as_xi(xi)
        self.faulty = frozenset(faulty)
        self.drop_faulty = drop_faulty
        self.on_violation = on_violation
        self.on_ratio_increase = on_ratio_increase
        self.compact_threshold = compact_threshold
        self.changes: list[RatioChange] = []
        self.violation: CycleClassification | None = None
        self.forgotten_message_edges = 0
        self.auto_compactions = 0
        # (send process, send index, destination) -> messages announced
        # by a record's sends but not yet seen arriving.  Every entry
        # pins its send event (see pinned_events).
        self._in_flight: dict[tuple[ProcessId, int, ProcessId], int] = {}
        self._checker = AdmissibilityChecker()
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
        """Total repair passes issued (incrementality metric)."""
        return self._checker.oracle_calls

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

        A one-row :meth:`observe_batch`: the record's event is appended
        to its process timeline and the triggering message edge added
        unless the sender is faulty (or the record is an external
        wake-up) -- exactly the graph
        :func:`~repro.sim.trace.build_execution_graph` would produce
        from the records observed so far.
        """
        return self.observe_batch((encode_record(record),))

    def observe_trace(self, trace: Iterable[ReceiveRecord]) -> Fraction | None:
        """Consume many records (a whole trace or a new suffix of one)."""
        for record in trace:
            self.observe(record)
        return self._worst

    def observe_batch(self, rows: Iterable[tuple]) -> Fraction | None:
        """Absorb a burst of record rows with one deferred refresh.

        ``rows`` are records in the :data:`~repro.sim.trace.RECORD_ROW`
        layout (what :func:`~repro.sim.trace.encode_record` returns and
        the wire carries).  Semantically equivalent to calling
        :meth:`observe` on each record in order, except that the
        worst-ratio refresh runs once at the end of the batch instead
        of once per message edge -- the oracle-saving hook behind
        :class:`repro.analysis.fleet.MonitorFleet`.  Because the worst
        ratio is a function of the observed graph alone, the ratio
        returned at the batch boundary is bit-identical to
        record-at-a-time observation; only the *intermediate* ratios
        (and with them per-record granularity of :attr:`changes` /
        ``on_ratio_increase``) are coalesced into at most one
        :class:`RatioChange` per batch, and a violation is reported at
        the batch boundary rather than mid-burst.

        One pass over the rows filters the messages (wake-ups and
        faulty senders carry none) into the origin column
        :meth:`~repro.core.synchrony.AdmissibilityChecker.absorb_batch`
        appends from, which checks the local order of every event
        before it changes anything: a batch with an out-of-order event
        anywhere raises ``ValueError`` and leaves the monitor -- digraph
        and in-flight ledger -- as it was.

        A row whose triggering send event lies in a prefix already
        dropped by :meth:`forget_prefix` does not raise: the edge is
        skipped and counted in :attr:`forgotten_message_edges`.  A
        nonzero count means prefixes were forgotten unsafely (a message
        crossed the boundary after all) and the ratio is now only a
        lower bound; pinning :meth:`pinned_events` when forgetting keeps
        the count at zero and the monitor exact.
        """
        checker = self._checker
        faulty = self.faulty
        drop = self.drop_faulty
        first_live = checker.first_live_index
        processes: list[ProcessId] = []
        indexes: list[int] = []
        messages: list[tuple[ProcessId, int] | None] = []
        arrived: list[tuple[ProcessId, int, ProcessId]] = []
        sent: list[tuple[ProcessId, int, ProcessId]] = []
        forgotten = 0
        for process, index, _t, sender, sp, si, _st, _p, _ok, sends in rows:
            processes.append(process)
            indexes.append(index)
            if sender is None or sp is None:
                messages.append(None)
            else:
                arrived.append((sp, si, process))
                if drop and sender in faulty:
                    messages.append(None)
                elif si < first_live(sp):
                    forgotten += 1
                    messages.append(None)
                else:
                    messages.append((sp, si))
            for send in sends:
                sent.append((process, index, send[0]))
        added = checker.absorb_batch((processes, indexes), messages)
        self.forgotten_message_edges += forgotten
        # The ledger moves only once the batch is in.  Sends first: a
        # message sent and received within one batch then nets out, and
        # an arrival never precedes its own send's row.
        in_flight = self._in_flight
        for key in sent:
            in_flight[key] = in_flight.get(key, 0) + 1
        for key in arrived:
            n = in_flight.get(key)
            if n is not None:
                if n > 1:
                    in_flight[key] = n - 1
                else:
                    del in_flight[key]
        if added:
            self._refresh()
        if self.compact_threshold is not None:
            # After the refresh: the compaction floor is the *current*
            # running worst, which keeps the compacted digraph exact for
            # every ratio a later refresh can reach.
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
        monitor -- including its violation, ratio-change history and
        degradation state (forgotten edges, compaction count, in-flight
        sends), which referred to the abandoned execution -- and pays
        one batch search; correct on any sequence of graphs, fast on
        growing ones.
        """
        if not self._checker.extends(graph):
            self._checker = AdmissibilityChecker(graph)
            self._worst = None
            self.violation = None
            self.changes = []
            self.forgotten_message_edges = 0
            self.auto_compactions = 0
            self._in_flight = {}
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
        monitor directly.  A monitor whose running worst ratio already
        reaches ``xi`` answers ``True`` from it and does not push the
        extension: the running worst only rises, and it keeps the cycles
        of forgotten prefixes.  Otherwise it compares
        :meth:`speculative_worst_ratio` with ``xi``, one repair pass from
        the running worst ratio.
        """
        if self.xi is None:
            raise ValueError("monitor was constructed without a Xi")
        if self._worst is not None and self._worst >= self.xi:
            return True
        worst = self.speculative_worst_ratio(events, messages)
        return worst is not None and worst >= self.xi

    def speculative_worst_ratio(
        self,
        events: Iterable[Event] = (),
        messages: Iterable[tuple[Event, Event] | MessageEdge] = (),
    ) -> Fraction | None:
        """The exact worst ratio the extension would produce, without
        observing it: one repair pass in the common case (see
        :meth:`~repro.core.synchrony.AdmissibilityChecker.updated_worst_ratio`),
        with every speculative addition -- and the potential's repairs
        -- rolled back on return."""
        with self._checker.speculate() as checker:
            self._push_extension(events, messages)
            return checker.updated_worst_ratio(self._worst)

    def settled_prefix(
        self, pinned: Iterable[Event] = ()
    ) -> dict[ProcessId, int]:
        """The largest forgettable prefix no message edge crosses, as a
        stop map (see
        :meth:`~repro.core.synchrony.AdmissibilityChecker.removable_prefix`);
        pass it to :meth:`forget_prefix` to bound the monitor's memory
        without touching the digraph's full-graph exactness."""
        return self._checker.removable_prefix(pinned)

    def compactable_prefix(
        self, pinned: Iterable[Event] = ()
    ) -> dict[ProcessId, int]:
        """The largest prefix summary compaction may absorb, as a stop
        map: everything strictly below the pinned events, with each
        process's frontier implicitly pinned (see
        :meth:`~repro.core.synchrony.AdmissibilityChecker.summarizable_prefix`).
        Unlike :meth:`settled_prefix` this is nonempty even on
        chain-shaped executions; pass it to
        ``forget_prefix(..., summarize=True)``, pinning the send events
        of in-flight messages to keep the monitor exact."""
        return self._checker.summarizable_prefix(pinned)

    def forget_prefix(
        self, stops: Mapping[ProcessId, int], summarize: bool = False
    ) -> int:
        """Compact a left-closed prefix out of the digraph.

        ``stops`` is the stop map :meth:`settled_prefix` or
        :meth:`compactable_prefix` returns: per process, the first index
        that stays live (see
        :meth:`~repro.core.synchrony.AdmissibilityChecker.compact_prefix`).
        With ``summarize=False`` the prefix is tombstoned exactly and
        must be chosen with :meth:`settled_prefix` (no crossing
        messages) for the monitor to stay exact.  With
        ``summarize=True`` the no-crossing restriction disappears: any
        prefix from :meth:`compactable_prefix` is replaced by
        boundary-to-boundary summary edges that preserve every query
        strictly above the current worst ratio -- which is the only
        range the monitor's refresh ever asks about, so reported ratios
        stay bit-identical to an uncompacted monitor's.

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
                stops, mode="summary", floor=self._worst
            )
        return self._checker.compact_prefix(stops, mode="exact")

    # ------------------------------------------------------------------
    # adaptive compaction cadence
    # ------------------------------------------------------------------

    def pinned_events(self) -> list[Event]:
        """Events any compaction must keep live: each process's
        frontier (its next local edge attaches there) and every send
        event with a message still in flight (its message edge is still
        to come).  The pins of fleet eviction; the events are built
        from the int ledger on each call."""
        checker = self._checker
        pinned = [
            Event(process, checker.n_events_of(process) - 1)
            for process in checker.processes
        ]
        pinned.extend(Event(sp, si) for sp, si, _dest in self._in_flight)
        return pinned

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
        bit-identical either way (the summary-mode contract).  The
        reclaimable count is the size of the stop map
        :meth:`compactable_prefix` returns for :meth:`pinned_events`,
        and that map is the cut compacted.  Returns the number of events
        compacted away (0 = not triggered).
        """
        threshold = self.compact_threshold
        if threshold is None:
            return 0
        checker = self._checker
        stops = self.compactable_prefix(self.pinned_events())
        removable = sum(
            stop - checker.first_live_index(process)
            for process, stop in stops.items()
        )
        live = checker.n_events
        if not stops or live <= threshold * max(live - removable, 1):
            return 0
        removed = self.forget_prefix(stops, summarize=True)
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
        (one repair pass in the steady state, a jump per cycle a repair
        closes on the rare increase) and fires the callbacks when the
        ratio moved.  The first violation's witness is the cycle that
        realizes the new worst, so it costs no further detection run.
        """
        checker = self._checker
        obs = self._obs
        previous = self._worst
        if obs is not None:
            start = time.perf_counter_ns()
            before = _detector_counts(checker)
            self._worst = checker.updated_worst_ratio(previous)
            duration = time.perf_counter_ns() - start
            obs.refresh_ns.observe(duration)
            obs.sweep_ns.observe(duration)
            counters = (
                obs.oracle_calls,
                obs.repairs,
                obs.repaired_nodes,
                obs.ratio_jumps,
            )
            for counter, now, then in zip(
                counters, _detector_counts(checker), before
            ):
                if now > then:
                    counter.inc(now - then)
        else:
            self._worst = checker.updated_worst_ratio(previous)
        if self._worst is None or self._worst == previous:
            return
        change = RatioChange(
            n_events=checker.n_events + checker.n_tombstoned,
            n_messages=checker.n_messages + checker.n_compacted_messages,
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
            witness = checker.worst_cycle()
            assert witness is not None and witness.ratio == self._worst
            self.violation = witness
            if self.on_violation is not None:
                self.on_violation(witness)


def _detector_counts(checker: AdmissibilityChecker) -> tuple[int, ...]:
    """The checker's work counters, in the order of the refresh's
    telemetry counters."""
    return (
        checker.oracle_calls,
        checker.repairs,
        checker.repaired_nodes,
        checker.ratio_jumps,
    )


def running_worst_ratio_of_trace(trace: Trace) -> list[Fraction | None]:
    """The worst relevant ratio after each receive record of ``trace``.

    Record ``k`` of the result equals
    ``worst_relevant_ratio(build_execution_graph(trace[:k+1]))`` but the
    whole sequence is computed in one incremental pass.
    """
    monitor = OnlineAbcMonitor(faulty=trace.faulty)
    return [monitor.observe(record) for record in trace.records]
