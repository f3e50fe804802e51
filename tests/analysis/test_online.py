"""Tests for the incremental ?ABC/<>ABC monitor.

The central property: after every observation, the monitor's worst ratio
equals the batch ``worst_relevant_ratio`` of the execution graph built
from the records observed so far -- cross-validated on synthetic streams,
simulator traces, and hand-crafted graphs, including the checker's rare
path (ratio increases) and its callbacks.
"""

import random
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.online import (
    OnlineAbcMonitor,
    RatioChange,
    running_worst_ratio_of_trace,
)
from repro.core.events import Event
from repro.core.execution_graph import GraphBuilder
from repro.core.synchrony import (
    check_abc,
    check_abc_exhaustive,
    worst_relevant_ratio,
)
from repro.core.variants import running_worst_ratio
from repro.scenarios.generators import (
    profiled_trace_records,
    random_execution_graph,
    streaming_trace,
    theta_band_trace,
)
from repro.sim.trace import (
    ReceiveRecord,
    Trace,
    build_execution_graph,
    encode_record,
)


def rows(records):
    """Records as the rows ``observe_batch`` takes."""
    return [encode_record(record) for record in records]


def prefix_graphs(trace: Trace) -> list:
    return [
        build_execution_graph(Trace(trace.n, trace.faulty, trace.records[:k]))
        for k in range(1, len(trace.records) + 1)
    ]


class TestCrossValidation:
    def test_matches_batch_on_every_prefix_of_streams(self):
        for seed in range(8):
            rng = random.Random(seed)
            trace = streaming_trace(rng, n_processes=3, n_records=28)
            running = running_worst_ratio_of_trace(trace)
            batch = [worst_relevant_ratio(g) for g in prefix_graphs(trace)]
            assert running == batch, f"seed={seed}"

    def test_matches_batch_on_simulator_trace(self):
        trace = theta_band_trace(n=3, f=0, theta=1.5, max_tick=4, seed=1)
        running = running_worst_ratio_of_trace(trace)
        batch = [worst_relevant_ratio(g) for g in prefix_graphs(trace)]
        assert running == batch

    def test_matches_exhaustive_admissibility_on_final_graph(self):
        for seed in range(6):
            rng = random.Random(seed)
            trace = streaming_trace(rng, n_processes=3, n_records=14)
            monitor = OnlineAbcMonitor.from_trace(trace)
            graph = build_execution_graph(trace)
            for xi in (Fraction(3, 2), Fraction(2), Fraction(3)):
                online = monitor.check(xi).admissible
                assert online == check_abc_exhaustive(graph, xi).admissible
                assert online == check_abc(graph, xi).admissible

    def test_ratio_is_monotone_and_change_log_consistent(self):
        rng = random.Random(3)
        trace = streaming_trace(rng, n_processes=3, n_records=40)
        monitor = OnlineAbcMonitor(faulty=trace.faulty)
        previous = Fraction(0)
        for record in trace.records:
            worst = monitor.observe(record)
            if worst is not None:
                assert worst >= previous
                previous = worst
        assert [c.worst for c in monitor.changes] == sorted(
            {c.worst for c in monitor.changes}
        )
        assert monitor.changes, "workload never produced a relevant cycle"


class TestIncrementality:
    def test_single_oracle_call_per_steady_message(self):
        """Once the worst ratio is stable, each new message costs exactly
        one negative-cycle run (the Farey-successor query)."""
        rng = random.Random(5)
        trace = streaming_trace(rng, n_processes=3, n_records=60)
        monitor = OnlineAbcMonitor(faulty=trace.faulty)
        calls_per_record = []
        for record in trace.records:
            before = monitor.oracle_calls
            changed_at = len(monitor.changes)
            monitor.observe(record)
            if (
                len(monitor.changes) == changed_at
                and monitor.worst_ratio is not None
            ):
                calls_per_record.append(monitor.oracle_calls - before)
        assert calls_per_record, "no steady-state records in workload"
        had_message = [c for c in calls_per_record if c > 0]
        assert all(c == 1 for c in had_message)

    def test_events_without_messages_are_free(self):
        monitor = OnlineAbcMonitor()
        for i in range(10):
            monitor.observe_event(Event(0, i))
        assert monitor.oracle_calls == 0
        assert monitor.worst_ratio is None


class TestViolationCallbacks:
    def fig3_events(self):
        """The Figure-3 pattern as an event/message stream."""
        b = GraphBuilder()
        b.message((0, 0), (1, 0))
        b.message((1, 0), (0, 1))
        b.message((0, 1), (1, 1))
        b.message((1, 1), (0, 2))
        b.message((0, 0), (2, 0))
        b.message((2, 0), (0, 3))
        return b.build()

    def test_violation_fires_once_with_witness(self):
        graph = self.fig3_events()
        witnesses = []
        monitor = OnlineAbcMonitor(xi=2, on_violation=witnesses.append)
        monitor.extend_to(graph)
        assert not monitor.is_admissible()
        assert len(witnesses) == 1
        assert witnesses[0].relevant
        assert witnesses[0].ratio >= 2
        assert monitor.violation is witnesses[0]
        # Feeding more admissible growth does not re-fire.
        monitor.observe_event(Event(3, 0))
        assert len(witnesses) == 1

    def test_violation_at_the_right_prefix(self):
        rng = random.Random(11)
        trace = streaming_trace(rng, n_processes=3, n_records=40)
        batch = [worst_relevant_ratio(g) for g in prefix_graphs(trace)]
        xi = Fraction(2)
        expected = next(
            (i for i, w in enumerate(batch) if w is not None and w >= xi), None
        )
        assert expected is not None, "workload never violates Xi=2"
        monitor = OnlineAbcMonitor(xi=xi, faulty=trace.faulty)
        fired_at = None
        for i, record in enumerate(trace.records):
            monitor.observe(record)
            if monitor.violation is not None:
                fired_at = i
                break
        assert fired_at == expected

    def test_ratio_increase_callback(self):
        changes: list[RatioChange] = []
        graph = self.fig3_events()
        monitor = OnlineAbcMonitor(on_ratio_increase=changes.append)
        monitor.extend_to(graph)
        assert changes
        assert changes[-1].worst == 2
        assert changes[0].previous is None
        assert monitor.changes == changes

    def test_is_admissible_requires_xi(self):
        with pytest.raises(ValueError):
            OnlineAbcMonitor().is_admissible()

    def test_xi_validated_at_construction(self):
        with pytest.raises(ValueError):
            OnlineAbcMonitor(xi=1)


class TestFaultyAndFilters:
    def test_faulty_senders_dropped_like_batch(self):
        trace = theta_band_trace(n=4, f=1, theta=2.0, max_tick=3, seed=2)
        trace = Trace(trace.n, frozenset({3}), trace.records)
        monitor = OnlineAbcMonitor.from_trace(trace)
        graph = build_execution_graph(trace)
        assert monitor.n_messages == len(graph.messages)
        assert monitor.worst_ratio == worst_relevant_ratio(graph)


class TestSpeculativeQueries:
    def _fed_monitor(self, seed=4, n_records=30, xi=None):
        trace = streaming_trace(random.Random(seed), 3, n_records)
        monitor = OnlineAbcMonitor(xi=xi, faulty=trace.faulty)
        monitor.observe_trace(trace.records)
        return monitor

    @pytest.mark.parametrize("seed", range(8))
    def test_speculative_worst_ratio_matches_observing(self, seed):
        """Speculating an extension answers exactly what observing it
        would, and leaves the monitor's state untouched."""
        monitor = self._fed_monitor(seed)
        worst_before = monitor.worst_ratio
        n_events, n_messages = monitor.n_events, monitor.n_messages
        rng = random.Random(seed + 77)
        process = rng.randrange(3)
        src = Event(rng.randrange(3), 0)
        dst = Event(process, monitor._checker.n_events_of(process))
        messages = [(src, dst)] if src != dst else []
        speculated = monitor.speculative_worst_ratio(
            events=[dst], messages=messages
        )
        assert monitor.worst_ratio == worst_before
        assert (monitor.n_events, monitor.n_messages) == (n_events, n_messages)
        monitor.observe_event(dst)
        for s, d in messages:
            monitor.observe_message(s, d)
        assert monitor.worst_ratio == speculated

    def test_would_violate_agrees_with_admissibility(self):
        monitor = OnlineAbcMonitor(xi=2)
        # Build the Figure-3 violation speculatively: monitor untouched.
        events = [
            Event(0, 0), Event(1, 0), Event(0, 1), Event(1, 1),
            Event(0, 2), Event(2, 0), Event(0, 3),
        ]
        messages = [
            (Event(0, 0), Event(1, 0)),
            (Event(1, 0), Event(0, 1)),
            (Event(0, 1), Event(1, 1)),
            (Event(1, 1), Event(0, 2)),
            (Event(0, 0), Event(2, 0)),
            (Event(2, 0), Event(0, 3)),
        ]
        ordered = [events[i] for i in (0, 1, 2, 3, 4, 5, 6)]
        # Events must respect local order: p0 indexes 0..3, p1 0..1, p2 0.
        assert monitor.would_violate(ordered, messages)
        assert monitor.n_events == 0 and monitor.n_messages == 0
        assert monitor.worst_ratio is None
        # Without the closing slow-chain message there is no violation.
        assert not monitor.would_violate(ordered, messages[:-1])

    def test_would_violate_requires_xi(self):
        monitor = OnlineAbcMonitor()
        with pytest.raises(ValueError):
            monitor.would_violate([Event(0, 0)])

    @pytest.mark.parametrize("seed", range(6))
    def test_forget_prefix_keeps_running_maximum(self, seed):
        """Forgetting the settled past preserves the historical worst
        ratio and stays exact as the execution keeps growing."""
        monitor = self._fed_monitor(seed=seed, n_records=40)
        worst_before = monitor.worst_ratio
        checker = monitor._checker
        pinned = [
            Event(p, checker.n_events_of(p) - 1) for p in checker.processes
        ]
        settled = monitor.settled_prefix(pinned)
        size = sum(
            stop - checker.first_live_index(p) for p, stop in settled.items()
        )
        forgotten = monitor.forget_prefix(settled)
        assert forgotten == size
        assert monitor.worst_ratio == worst_before
        # Keep growing: a fresh ping-pong burst between two processes.
        base0 = checker.n_events_of(0)
        base1 = checker.n_events_of(1)
        last = Event(0, base0 - 1)
        for k in range(3):
            hop = Event(1, base1 + k)
            monitor.observe_event(hop)
            monitor.observe_message(last, hop)
            back = Event(0, base0 + k)
            monitor.observe_event(back)
            monitor.observe_message(hop, back)
            last = back
        # The running worst never decreases and stays exact wrt history.
        assert monitor.worst_ratio is not None or worst_before is None
        if worst_before is not None:
            assert monitor.worst_ratio >= worst_before

    def test_extend_to_after_forget_prefix(self):
        """Regression: absorb() must not re-add messages whose endpoints
        were tombstoned away (extend_to crashed with KeyError)."""
        b = GraphBuilder()
        b.message((0, 0), (1, 0))
        b.event(0, 1)
        b.event(1, 1)
        small = b.build()
        monitor = OnlineAbcMonitor()
        monitor.extend_to(small)
        # Pinning only the frontiers leaves the first round -- message
        # included -- entirely removable.
        forgot = monitor.forget_prefix(
            monitor.settled_prefix([Event(0, 1), Event(1, 1)])
        )
        assert forgot == 2
        assert monitor.n_messages == 0
        b.message((0, 1), (1, 1))
        grown = b.build()
        assert monitor._checker.extends(grown)
        monitor.extend_to(grown)  # must not raise
        assert monitor.n_messages == 1


class TestExtendTo:
    def test_running_worst_ratio_matches_per_prefix_batch(self):
        rng = random.Random(9)
        trace = streaming_trace(rng, n_processes=3, n_records=30)
        prefixes = prefix_graphs(trace)
        assert running_worst_ratio(prefixes) == [
            worst_relevant_ratio(g) for g in prefixes
        ]

    def test_non_extension_falls_back_to_batch(self):
        rng = random.Random(1)
        graphs = [
            random_execution_graph(random.Random(s), 3, 8) for s in range(5)
        ]
        # Unrelated graphs: every entry resets the monitor.
        assert running_worst_ratio(graphs) == [
            worst_relevant_ratio(g) for g in graphs
        ]

    def test_reset_clears_violation_and_change_history(self):
        """Regression: a non-extension reset must drop the violation and
        ratio-change log of the abandoned execution, so callbacks fire
        afresh for the new one."""
        b = GraphBuilder()
        b.message((0, 0), (1, 0))
        b.message((1, 0), (0, 1))
        b.message((0, 1), (1, 1))
        b.message((1, 1), (0, 2))
        b.message((0, 0), (2, 0))
        b.message((2, 0), (0, 3))
        violating = b.build()
        witnesses = []
        monitor = OnlineAbcMonitor(xi=2, on_violation=witnesses.append)
        monitor.extend_to(violating)
        assert monitor.violation is not None and len(witnesses) == 1
        # An unrelated admissible graph: not an extension -> reset.
        b2 = GraphBuilder()
        b2.message((0, 0), (1, 0))
        b2.message((1, 0), (0, 1))
        chain = b2.build()
        monitor.extend_to(chain)
        assert monitor.violation is None
        assert monitor.changes == []
        assert monitor.is_admissible()
        # A third graph that violates again must re-fire the callback.
        monitor.extend_to(violating)
        assert monitor.violation is not None
        assert len(witnesses) == 2

    def test_reset_clears_degradation_state(self):
        """Regression: a non-extension reset must also drop the
        abandoned execution's forgotten-edge count, compaction count and
        in-flight sends, or the monitor keeps flagging its ratio as a
        lower bound for an execution it saw whole."""
        records = profiled_trace_records(random.Random(0), "storm", 60)
        monitor = OnlineAbcMonitor(compact_threshold=2)
        for k, record in enumerate(records[:50]):
            # Without sends metadata the monitor cannot pin in-flight
            # sends, so it forgets a prefix unsafely.
            monitor.observe(record if k >= 40 else replace(record, sends=()))
        assert monitor.forgotten_message_edges > 0
        assert monitor.auto_compactions > 0
        assert monitor._in_flight
        other = random_execution_graph(random.Random(99), 3, 9)
        assert monitor.extend_to(other) == worst_relevant_ratio(other)
        assert monitor.forgotten_message_edges == 0
        assert monitor.auto_compactions == 0
        assert monitor._in_flight == {}

    def test_mixed_extension_and_reset(self):
        rng = random.Random(13)
        trace = streaming_trace(rng, n_processes=3, n_records=20)
        grown = prefix_graphs(trace)
        other = random_execution_graph(random.Random(99), 3, 9)
        sequence = grown[:10] + [other] + grown[10:]
        assert running_worst_ratio(sequence) == [
            worst_relevant_ratio(g) for g in sequence
        ]


class TestRatioChangeLog:
    @pytest.mark.parametrize("profile", ["relay", "storm", "burst"])
    def test_compaction_leaves_the_change_log_alone(self, profile):
        """Regression: ``RatioChange`` counts every event and message
        observed, compacted ones included, so a compacting monitor logs
        exactly what an uncompacted one does."""
        records = profiled_trace_records(random.Random(5), profile, 400)
        plain = OnlineAbcMonitor()
        compacting = OnlineAbcMonitor(compact_threshold=2)
        for record in records:
            plain.observe(record)
            compacting.observe(record)
        assert compacting.auto_compactions > 0
        assert compacting.changes == plain.changes


class TestObserveBatch:
    """Deferred-batch absorption: the fleet's monitor hook."""

    @pytest.mark.parametrize("seed,batch", [(0, 1), (1, 4), (2, 9), (3, 50)])
    def test_batch_boundaries_match_per_record_observation(self, seed, batch):
        trace = streaming_trace(random.Random(seed), 3, 48)
        batched = OnlineAbcMonitor()
        reference = OnlineAbcMonitor()
        for start in range(0, len(trace.records), batch):
            chunk = trace.records[start : start + batch]
            got = batched.observe_batch(rows(chunk))
            for record in chunk:
                reference.observe(record)
            assert got == reference.worst_ratio
        assert batched.oracle_calls <= reference.oracle_calls
        assert batched.forgotten_message_edges == 0

    @pytest.mark.parametrize("position", [0, 6, -1])
    def test_out_of_order_event_rejects_the_whole_batch(self, position):
        """An out-of-order event anywhere in a batch raises before any
        row is applied: the digraph, the in-flight ledger and the ratio
        stay as they were, and the monitor goes on from its last good
        batch as if the bad one had never come."""
        trace = streaming_trace(random.Random(3), 3, 40)
        head, batch = trace.records[:20], trace.records[20:32]
        assert any(r.send_event is not None for r in batch[:-1])
        monitor = OnlineAbcMonitor()
        monitor.observe_batch(rows(head))

        def state():
            return (
                monitor.n_events,
                monitor.n_messages,
                monitor.worst_ratio,
                monitor.oracle_calls,
                len(monitor.changes),
                sorted((e.process, e.index) for e in monitor.pinned_events()),
            )

        before = state()
        bad = rows(batch)
        row = list(bad[position])
        row[1] += 1  # the event skips an index of its process
        bad[position] = tuple(row)
        with pytest.raises(ValueError, match="local order"):
            monitor.observe_batch(bad)
        assert state() == before
        reference = OnlineAbcMonitor()
        reference.observe_batch(rows(head))
        assert monitor.observe_batch(rows(batch)) == reference.observe_batch(
            rows(batch)
        )
        assert monitor.n_messages == reference.n_messages

    def test_batched_violation_fires_at_the_boundary(self):
        trace = streaming_trace(random.Random(7), 3, 40)
        reference = OnlineAbcMonitor()
        for record in trace.records:
            reference.observe(record)
        xi = reference.worst_ratio  # reached by this trace, so violated
        witnesses = []
        monitor = OnlineAbcMonitor(xi=xi, on_violation=witnesses.append)
        monitor.observe_batch(rows(trace.records))
        assert len(witnesses) == 1
        assert monitor.violation is not None
        assert monitor.violation.ratio >= xi
        # One coalesced change per batch at most.
        assert len(monitor.changes) == 1
        assert monitor.changes[0].worst == reference.worst_ratio

    def test_forgotten_prefix_edge_is_counted_not_raised(self):
        """After an (unsafely) forgotten prefix, a late message edge
        from a dropped send event must be skipped and counted -- by
        observe_batch and record-at-a-time observe alike (summary
        compaction makes crossing-send eviction routine, so the
        degradation path must be uniform across the record APIs)."""

        def record(event, time, src=None, src_time=None):
            return ReceiveRecord(
                event=event,
                time=time,
                sender=None if src is None else src.process,
                send_event=src,
                send_time=src_time,
                payload=None,
                processed=True,
                sends=(),
            )

        a0, b0, b1 = Event(0, 0), Event(1, 0), Event(1, 1)
        early = [record(a0, 1.0), record(b0, 2.0)]
        late = record(b1, 3.0, src=a0, src_time=1.0)

        monitor = OnlineAbcMonitor()
        monitor.observe_batch(rows(early))
        monitor.forget_prefix({0: 1})  # unsafe: a0's send is in flight
        assert monitor.observe_batch(rows([late])) is None
        assert monitor.forgotten_message_edges == 1

        one_by_one = OnlineAbcMonitor()
        one_by_one.observe_batch(rows(early))
        one_by_one.forget_prefix({0: 1})
        assert one_by_one.observe(late) is None
        assert one_by_one.forgotten_message_edges == 1
