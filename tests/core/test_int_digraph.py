"""The checker's integer-only traversal digraph.

:class:`~repro.core.synchrony.AdmissibilityChecker` stores ``H`` as int
columns and builds :class:`~repro.core.events.Event`, step and edge
objects only where an answer hands them out.  Two properties follow and
are checked here:

* the checker keeps no object per event beyond the adjacency row the
  detection loop reads, so the garbage collector's full passes stay
  cheap however much history open traces hold;
* every view materialized from the columns (``messages``,
  ``has_message``, ``extends``, ``removable_prefix``,
  ``summarizable_prefix``) agrees with the execution graph it was built
  from, after speculation and after compaction in either mode.
"""

from __future__ import annotations

import gc
import random

import pytest

from repro.core.events import Event
from repro.core.synchrony import AdmissibilityChecker
from repro.scenarios.generators import random_execution_graph
from test_ratio_climb import random_stops

N_ROWS = 2000
SLACK = 64  # the checker's own lists and dicts, ...


def seeded_rows(rng: random.Random, n: int, counts: dict[int, int]):
    """``n`` columnar rows over four processes, continuing ``counts``.

    Each message comes from one of the last three events of another
    process, so a compaction that pins those keeps every later source
    live.
    """
    processes: list[int] = []
    indexes: list[int] = []
    messages: list[tuple[int, int] | None] = []
    for _ in range(n):
        p = rng.randrange(4)
        i = counts.get(p, 0)
        counts[p] = i + 1
        senders = sorted(q for q in counts if q != p)
        if senders and rng.random() < 0.8:
            q = rng.choice(senders)
            first = max(0, counts[q] - 3)
            messages.append((q, rng.randrange(first, counts[q])))
        else:
            messages.append(None)
        processes.append(p)
        indexes.append(i)
    return (processes, indexes), messages


def tracked() -> int:
    gc.collect()
    return len(gc.get_objects())


class TestNoObjectPerEvent:
    def test_columnar_path(self):
        events, messages = seeded_rows(random.Random(1), N_ROWS, {})
        before = tracked()
        checker = AdmissibilityChecker()
        checker.absorb_batch(events, messages)
        assert checker.n_events == N_ROWS
        assert tracked() - before <= checker.n_events + SLACK

    def test_per_record_path(self):
        events, messages = seeded_rows(random.Random(2), N_ROWS, {})
        before = tracked()
        checker = AdmissibilityChecker()
        for p, i, origin in zip(*events, messages):
            checker.add_event(Event(p, i))
            if origin is not None:
                checker.add_message(Event(*origin), Event(p, i))
        assert checker.n_events == N_ROWS
        assert tracked() - before <= checker.n_events + SLACK

    def test_after_summary_compaction_and_rollback(self):
        """Compaction and speculation reintroduce no per-event object:
        events absorbed afterwards cost one tracked object each, and a
        rolled-back speculation leaves nothing behind."""
        rng = random.Random(3)
        counts: dict[int, int] = {}
        checker = AdmissibilityChecker()
        checker.absorb_batch(*seeded_rows(rng, N_ROWS // 2, counts))
        pins = [Event(p, max(0, n - 3)) for p, n in counts.items()]
        floor = checker.worst_relevant_ratio()
        removed = checker.compact_prefix(
            checker.summarizable_prefix(pins), mode="summary", floor=floor
        )
        assert removed and checker.n_summary_edges
        events, messages = seeded_rows(rng, N_ROWS // 2, counts)
        before = tracked()
        with checker.speculate():
            checker.absorb_batch(events, messages)
            checker.worst_relevant_ratio()
        assert tracked() - before <= SLACK
        checker.absorb_batch(events, messages)
        assert tracked() - before <= N_ROWS // 2 + SLACK


def live_messages(checker: AdmissibilityChecker, graph) -> frozenset:
    """The graph's messages whose endpoints are both live."""
    return frozenset(
        m
        for m in graph.messages
        if all(
            ev.index >= checker.first_live_index(ev.process)
            for ev in (m.src, m.dst)
        )
    )


def reference_removable(checker, graph, pinned) -> dict[int, int]:
    """``removable_prefix`` recomputed over Event pairs: the graph's
    live messages and the checker's summary edges may not cross."""
    keep = {p: checker.n_events_of(p) for p in checker.processes}
    for event in pinned:
        keep[event.process] = min(keep[event.process], event.index)
    spans = [(m.src, m.dst) for m in live_messages(checker, graph)]
    spans += [(s.tail, s.head) for s in checker._summary_at.values()]
    changed = True
    while changed:
        changed = False
        for src, dst in spans:
            src_live = src.index >= keep[src.process]
            dst_live = dst.index >= keep[dst.process]
            if src_live != dst_live:
                lower = dst if src_live else src
                keep[lower.process] = lower.index
                changed = True
    return live_stops(checker, keep)


def reference_summarizable(checker, pinned) -> dict[int, int]:
    """Every live event below each process's frontier and the pins."""
    keep = {p: checker.n_events_of(p) - 1 for p in checker.processes}
    for event in pinned:
        keep[event.process] = min(keep[event.process], event.index)
    return live_stops(checker, keep)


def live_stops(checker, keep: dict[int, int]) -> dict[int, int]:
    """``keep`` as a stop map: the processes whose stop lies above their
    live start, in process order."""
    return {
        p: stop
        for p, stop in sorted(keep.items())
        if stop > checker.first_live_index(p)
    }


def stale_pins(checker, rng) -> list[Event]:
    """Pins below ``first_live_index``: the shard pins every in-flight
    send, and on a degraded trace that send may already be compacted."""
    return [
        Event(p, rng.randrange(checker.first_live_index(p)))
        for p in checker.processes
        if checker.first_live_index(p) and rng.random() < 0.7
    ]


def check_views(checker, graph, rng) -> None:
    want = live_messages(checker, graph)
    assert checker.messages == want
    assert checker.n_messages == len(want)
    assert all(checker.has_message(m) for m in want)
    assert not any(checker.has_message(m) for m in set(graph.messages) - want)
    assert checker.extends(graph)
    live = {
        p: (checker.first_live_index(p), checker.n_events_of(p))
        for p in checker.processes
    }
    pinned = [
        Event(p, rng.randrange(first, stop))
        for p, (first, stop) in live.items()
        if stop > first and rng.random() < 0.5
    ]
    for pins in ((), pinned, pinned + stale_pins(checker, rng)):
        assert checker.removable_prefix(pins) == reference_removable(
            checker, graph, pins
        )
        assert checker.summarizable_prefix(pins) == reference_summarizable(
            checker, pins
        )


def grow(checker, rng) -> None:
    """A random extension beyond the graph (rolled back by the caller)."""
    added = []
    for _ in range(rng.randint(1, 4)):
        p = rng.randrange(3)
        event = Event(p, checker.n_events_of(p))
        checker.add_event(event)
        added.append(event)
    for event in added:
        q = (event.process + 1) % 3
        if checker.n_events_of(q) > checker.first_live_index(q):
            checker.add_message(Event(q, checker.n_events_of(q) - 1), event)


class TestMaterializedViews:
    @pytest.mark.parametrize("seed", range(25))
    def test_views_match_the_graph(self, seed):
        rng = random.Random(seed)
        graph = random_execution_graph(rng, 3, rng.randint(4, 24))
        checker = AdmissibilityChecker(graph)
        check_views(checker, graph, rng)
        with checker.speculate():
            grow(checker, rng)
        check_views(checker, graph, rng)
        checker.compact_prefix(checker.removable_prefix(), mode="exact")
        check_views(checker, graph, rng)
        cut = checker.summarizable_prefix()
        checker.compact_prefix(random_stops(checker, cut, rng), mode="summary")
        check_views(checker, graph, rng)
        with checker.speculate():
            grow(checker, rng)
        check_views(checker, graph, rng)

    def test_pins_below_the_live_range(self):
        """Stale pins keep nothing, after either compaction mode: the
        cut must come out as if they were absent, whatever mix of live
        and stale pins one process carries."""
        rng = random.Random(71)
        stale_seen = 0

        def check(checker, graph, live_pins) -> None:
            nonlocal stale_seen
            stale = stale_pins(checker, rng)
            stale_seen += len(stale)
            for pins in (stale, stale + live_pins):
                assert checker.removable_prefix(pins) == reference_removable(
                    checker, graph, pins
                )
                assert checker.summarizable_prefix(
                    pins
                ) == reference_summarizable(checker, pins)

        for _ in range(300):
            graph = random_execution_graph(rng, 3, rng.randint(4, 24))
            checker = AdmissibilityChecker(graph)
            live_pins = [
                Event(p, rng.randrange(len(graph.events_of(p))))
                for p in graph.processes
                if rng.random() < 0.5
            ]
            checker.compact_prefix(
                checker.removable_prefix(live_pins), mode="exact"
            )
            check(checker, graph, live_pins)
            cut = checker.summarizable_prefix()
            checker.compact_prefix(
                random_stops(checker, cut, rng), mode="summary"
            )
            check(checker, graph, live_pins)
        assert stale_seen > 300


class TestStopMaps:
    """A cut is one stop index per process, from the search to the
    compaction: no :class:`~repro.core.events.Event` is built for the
    events it removes."""

    @staticmethod
    def random_pins(checker, rng) -> list[Event]:
        live = [
            Event(p, rng.randrange(checker.first_live_index(p), n))
            for p in checker.processes
            if (n := checker.n_events_of(p)) > checker.first_live_index(p)
            and rng.random() < 0.5
        ]
        return live + stale_pins(checker, rng)

    @pytest.mark.parametrize("seed", range(10))
    def test_prefix_searches_build_no_event(self, seed, monkeypatch):
        rng = random.Random(seed)
        graph = random_execution_graph(rng, 3, rng.randint(8, 24))
        checker = AdmissibilityChecker(graph)
        # A first summary compaction, of each process's older half,
        # leaves summary edges and live starts above zero for the
        # searches to read.
        halves = [
            Event(p, checker.n_events_of(p) // 2) for p in checker.processes
        ]
        checker.compact_prefix(checker.summarizable_prefix(halves))
        pin_sets = [(), self.random_pins(checker, rng)]
        built: list[Event] = []
        post_init = Event.__post_init__

        def counted(event: Event) -> None:
            built.append(event)
            post_init(event)

        monkeypatch.setattr(Event, "__post_init__", counted)
        cuts = [
            (checker.removable_prefix(pins), checker.summarizable_prefix(pins))
            for pins in pin_sets
        ]
        monkeypatch.undo()
        removable, summarizable = cuts[0]
        assert removable and summarizable  # there are events to remove
        assert built == []
        for pins, (removable, summarizable) in zip(pin_sets, cuts):
            assert removable == reference_removable(checker, graph, pins)
            assert summarizable == reference_summarizable(checker, pins)

    @pytest.mark.parametrize("mode", ["exact", "summary"])
    def test_compaction_moves_each_live_start_to_its_stop(self, mode):
        rng = random.Random(83)
        compacted = 0
        for _ in range(100):
            graph = random_execution_graph(rng, 3, rng.randint(4, 24))
            checker = AdmissibilityChecker(graph)
            search = (
                checker.removable_prefix
                if mode == "exact"
                else checker.summarizable_prefix
            )
            for _round in range(2):
                cut = search(self.random_pins(checker, rng))
                old = {
                    p: checker.first_live_index(p) for p in checker.processes
                }
                assert all(stop > old[p] for p, stop in cut.items())
                removed = checker.compact_prefix(cut, mode=mode)
                assert removed == sum(stop - old[p] for p, stop in cut.items())
                for p in checker.processes:
                    assert checker.first_live_index(p) == cut.get(p, old[p])
                compacted += removed
        assert compacted > 200
