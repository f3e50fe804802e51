"""The monitor's row path against a per-record reference, batch by batch.

``OnlineAbcMonitor.observe_batch`` takes record rows (the
``RECORD_ROW`` layout the wire carries), filters their messages in one
pass and bulk-appends them with ``AdmissibilityChecker.absorb_batch``.
These tests hold it to a reference that shares none of that code: a
test-local monitor that decodes nothing, walks ``ReceiveRecord``
objects one at a time through ``add_event`` / ``add_message`` (messages
chosen by ``message_kept``, the predicate behind
``build_execution_graph``), keeps its own ``Event``-keyed in-flight
ledger, restates the adaptive compaction trigger, and refreshes once
per batch.  After *every* batch the two must agree on the worst ratio,
event and message counts, oracle calls, the ratio-change log,
forgotten edges, compactions, the pinned events and the violation
witness, so a divergence names the batch that introduced it.  The regimes: every
generator profile, batch sizes from 1 to 1000, rows that crossed a
pickle boundary, metadata-free streams, the faulty-sender filter, a
violation that fires once, adaptive compaction, a snapshot mid-stream,
and one-record ``observe`` calls mixed with batches.
"""

import pickle
import random
from collections import Counter
from fractions import Fraction

import pytest

from repro.analysis.online import OnlineAbcMonitor
from repro.core.synchrony import AdmissibilityChecker
from repro.runtime import codec
from repro.scenarios.generators import (
    profiled_trace_records,
    strip_sends_metadata,
)
from repro.sim.trace import encode_record, message_kept

PROFILES = ("storm", "burst", "idler", "relay", "firehose")


class ReferenceMonitor:
    """Per-record ``add_event`` / ``add_message`` on a bare checker,
    one refresh per batch -- the observable contract of
    ``observe_batch``, restated without rows."""

    def __init__(self, xi=None, faulty=frozenset(), compact_threshold=None):
        self.checker = AdmissibilityChecker()
        self.xi = None if xi is None else Fraction(xi)
        self.faulty = frozenset(faulty)
        self.threshold = compact_threshold
        self.worst = None
        self.changes = []
        self.violation = None
        self.hits = 0
        self.forgotten = 0
        self.compactions = 0
        self.in_flight = Counter()  # (send Event, dest) -> unarrived
        self.frontier = {}  # process -> index of its last event

    def observe_batch(self, records):
        checker = self.checker
        added = False
        for record in records:
            checker.add_event(record.event)
            self.frontier[record.event.process] = record.event.index
            if message_kept(record, self.faulty):
                src = record.send_event
                if src.index < checker.first_live_index(src.process):
                    self.forgotten += 1
                elif checker.add_message(src, record.event):
                    added = True
            if record.send_event is not None:
                key = (record.send_event, record.event.process)
                if self.in_flight[key] > 0:
                    self.in_flight[key] -= 1
            for send in record.sends:
                self.in_flight[(record.event, send.dest)] += 1
        if added:
            self._refresh()
        if self.threshold is not None:
            self._maybe_compact()
        return self.worst

    def _refresh(self):
        checker = self.checker
        previous = self.worst
        self.worst = checker.updated_worst_ratio(previous)
        if self.worst is None or self.worst == previous:
            return
        self.changes.append(
            (checker.n_events + checker.n_tombstoned, self.worst)
        )
        if (
            self.xi is not None
            and self.violation is None
            and self.worst >= self.xi
        ):
            self.violation = checker.worst_cycle()
            self.hits += 1

    def pins(self):
        """Each process's frontier and every send still in flight."""
        return [(p, i) for p, i in self.frontier.items()] + [
            (event.process, event.index)
            for (event, _d), n in self.in_flight.items()
            if n > 0
        ]

    def _maybe_compact(self):
        checker = self.checker
        cut = checker.summarizable_prefix(
            [event for (event, _d), n in self.in_flight.items() if n > 0]
        )
        live = checker.n_events
        size = sum(
            stop - checker.first_live_index(p) for p, stop in cut.items()
        )
        if not cut or live <= self.threshold * max(live - size, 1):
            return
        if checker.compact_prefix(cut, mode="summary", floor=self.worst):
            self.compactions += 1


def batches_of(records, size):
    for i in range(0, len(records), size):
        yield records[i : i + size]


def rows(records):
    return [encode_record(record) for record in records]


def assert_agree(monitor, reference, at):
    assert monitor.worst_ratio == reference.worst, at
    assert monitor.n_events == reference.checker.n_events, at
    assert monitor.n_messages == reference.checker.n_messages, at
    assert monitor.oracle_calls == reference.checker.oracle_calls, at
    assert monitor.forgotten_message_edges == reference.forgotten, at
    assert monitor.auto_compactions == reference.compactions, at
    assert sorted((e.process, e.index) for e in monitor.pinned_events()) == (
        sorted(reference.pins())
    ), at
    assert [(c.n_events, c.worst) for c in monitor.changes] == (
        reference.changes
    ), at
    assert (monitor.violation is None) == (reference.violation is None), at
    if reference.violation is not None:
        assert monitor.violation.ratio == reference.violation.ratio, at
        assert monitor.violation.cycle.steps == (
            reference.violation.cycle.steps
        ), at


def run_lockstep(monitor, reference, records, batch, *, via_pickle=False):
    """Feed both the same stream, compare after every batch."""
    for n_batch, chunk in enumerate(batches_of(records, batch)):
        batch_rows = rows(chunk)
        if via_pickle:
            batch_rows = pickle.loads(pickle.dumps(batch_rows))
        got = monitor.observe_batch(batch_rows)
        assert got == reference.observe_batch(chunk), f"batch {n_batch}"
        assert_agree(monitor, reference, f"batch {n_batch}")


class TestMonitorLockstep:
    @pytest.mark.parametrize("profile", PROFILES)
    def test_every_profile(self, profile):
        records = profiled_trace_records(random.Random(5), profile, 90)
        run_lockstep(OnlineAbcMonitor(), ReferenceMonitor(), records, 16)

    @pytest.mark.parametrize("batch", (1, 7, 64, 1000))
    def test_batch_size_is_invisible(self, batch):
        """Batch boundaries are a transport artifact: any cut of the
        same stream agrees with the reference cut the same way."""
        records = profiled_trace_records(random.Random(9), "firehose", 80)
        run_lockstep(OnlineAbcMonitor(), ReferenceMonitor(), records, batch)

    @pytest.mark.parametrize("profile", ("storm", "firehose"))
    def test_rows_across_a_pickle_boundary(self, profile):
        """The worker path proper: rows that crossed a process pipe
        (pickled and unpickled), not freshly encoded ones."""
        records = profiled_trace_records(random.Random(2), profile, 90)
        run_lockstep(
            OnlineAbcMonitor(),
            ReferenceMonitor(),
            records,
            16,
            via_pickle=True,
        )

    @pytest.mark.parametrize("profile", ("storm", "burst", "firehose"))
    def test_degraded_metadata_free_streams(self, profile):
        """Stripped sends metadata under adaptive compaction: nothing
        pins the in-flight sends, so late edges into compacted history
        are skipped and counted -- identically on both sides."""
        records = strip_sends_metadata(
            profiled_trace_records(random.Random(4), profile, 70)
        )
        run_lockstep(
            OnlineAbcMonitor(compact_threshold=2.0),
            ReferenceMonitor(compact_threshold=2.0),
            records,
            16,
        )

    def test_faulty_sender_filter(self):
        """The faulty-process filter runs per row; dropped edges must
        match ``message_kept`` exactly."""
        records = profiled_trace_records(random.Random(6), "storm", 80)
        senders = {r.sender for r in records if r.sender is not None}
        assert senders & {0, 1}, "workload must exercise the filter"
        faulty = frozenset({0, 1})
        run_lockstep(
            OnlineAbcMonitor(faulty=faulty),
            ReferenceMonitor(faulty=faulty),
            records,
            16,
        )

    def test_violation_fires_once_at_the_same_batch(self):
        """xi violations: the callback fires once, at the batch where
        the reference first reaches xi, with the reference's witness."""
        records = profiled_trace_records(random.Random(1), "storm", 90)
        hits = []
        monitor = OnlineAbcMonitor(xi=Fraction(2), on_violation=hits.append)
        reference = ReferenceMonitor(xi=Fraction(2))
        for n_batch, chunk in enumerate(batches_of(records, 16)):
            monitor.observe_batch(rows(chunk))
            reference.observe_batch(chunk)
            assert len(hits) == reference.hits, f"batch {n_batch}"
            assert_agree(monitor, reference, f"batch {n_batch}")
        assert len(hits) == 1
        assert hits[0] is monitor.violation

    @pytest.mark.parametrize("profile", ("relay", "firehose"))
    def test_under_adaptive_compaction(self, profile):
        """compact_threshold mode: the int ledger feeds the trigger;
        compaction cadence and ratios agree with the Event-keyed
        reference."""
        records = profiled_trace_records(random.Random(11), profile, 120)
        monitor = OnlineAbcMonitor(compact_threshold=2.0)
        run_lockstep(
            monitor, ReferenceMonitor(compact_threshold=2.0), records, 16
        )
        assert monitor.auto_compactions > 0, (
            "workload too small to exercise compaction"
        )

    def test_snapshot_mid_stream(self):
        """A monitor snapshotted mid-stream (codec blob) resumes exactly
        where the unsnapshotted reference is."""
        records = profiled_trace_records(random.Random(8), "firehose", 80)
        cut = len(records) // 2
        monitor = OnlineAbcMonitor(compact_threshold=2.0)
        reference = ReferenceMonitor(compact_threshold=2.0)
        run_lockstep(monitor, reference, records[:cut], 16)
        restored = codec.decode_monitor(codec.encode_monitor(monitor))
        assert restored.pinned_events() == monitor.pinned_events()
        run_lockstep(restored, reference, records[cut:], 16)

    def test_one_record_observe_mixed_with_batches(self):
        """``observe(record)`` is a one-row batch: alternating it with
        ``observe_batch`` on one monitor agrees with a reference that
        refreshes per record in the same stretches."""
        records = profiled_trace_records(random.Random(3), "firehose", 96)
        monitor = OnlineAbcMonitor()
        reference = ReferenceMonitor()
        for n_batch, chunk in enumerate(batches_of(records, 12)):
            if n_batch % 2:
                monitor.observe_batch(rows(chunk))
                reference.observe_batch(chunk)
            else:
                for record in chunk:
                    assert monitor.observe(record) == (
                        reference.observe_batch([record])
                    )
            assert_agree(monitor, reference, f"batch {n_batch}")
