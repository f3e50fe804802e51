"""Speculative extension and prefix tombstoning of the checker.

The ABC-enforcing scheduler rests on two guarantees of
:class:`~repro.core.synchrony.AdmissibilityChecker`:

* ``checkpoint()`` / ``rollback()`` round trips leave the checker
  *bit-identical* to one freshly built from the same graph -- same
  digraph arrays, adjacency, message set, frontier counts, and the same
  answer to every oracle query;
* ``compact_prefix(stops, mode="exact")`` turns the checker into an
  exact oracle for the suffix graph, and a prefix chosen by
  ``removable_prefix()`` (no crossing messages) splits the worst
  relevant ratio of the full graph into ``max(prefix, suffix)`` -- the
  decomposition that makes tombstoning sound inside the enforcer.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from repro.analysis.online import OnlineAbcMonitor
from repro.core.cuts import Cut
from repro.core.events import Event
from repro.core.execution_graph import ExecutionGraph, MessageEdge
from repro.core.synchrony import AdmissibilityChecker
from repro.core.variants import suffix_graph
from repro.scenarios.generators import random_execution_graph
from test_ratio_climb import cut_stops, potential_state

RATIO_GRID = [Fraction(1), Fraction(4, 3), Fraction(3, 2), Fraction(2), Fraction(3)]


def fingerprint(checker: AdmissibilityChecker):
    """Every piece of digraph state an oracle answer can depend on."""
    return (
        list(checker._procs),
        list(checker._idxs),
        {process: list(ids) for process, ids in checker._ids.items()},
        list(checker._tails),
        list(checker._heads),
        list(checker._kinds),
        dict(checker._summary_at),
        [list(adj) for adj in checker._adj],
        checker._n_messages,
        checker._n_locals,
        dict(checker._first_live),
    )


def grow_speculatively(checker: AdmissibilityChecker, rng: random.Random) -> None:
    """Push a random batch of events and messages inside a speculation."""
    added: list[Event] = []
    for _ in range(rng.randint(1, 4)):
        process = rng.randrange(3)
        event = Event(process, checker.n_events_of(process))
        checker.add_event(event)
        added.append(event)
    live = [Event(p, i) for p, i in zip(checker._procs, checker._idxs)]
    candidates = [ev for ev in live if ev not in added]
    for event in added:
        src = rng.choice(candidates) if candidates else None
        if src is not None and src != event:
            checker.add_message(src, event)


class TestCheckpointRollback:
    @pytest.mark.parametrize("seed", range(20))
    def test_round_trip_is_bit_identical(self, seed):
        rng = random.Random(seed)
        graph = random_execution_graph(rng, 3, rng.randint(3, 12))
        checker = AdmissibilityChecker(graph)
        before = fingerprint(checker)
        answers_before = [checker.has_ratio_at_least(r) for r in RATIO_GRID]
        with checker.speculate():
            grow_speculatively(checker, rng)
            checker.worst_relevant_ratio()
            with checker.speculate():  # nested speculation rolls back too
                grow_speculatively(checker, rng)
        assert fingerprint(checker) == before
        fresh = AdmissibilityChecker(graph)
        assert fingerprint(fresh) == before
        answers_after = [checker.has_ratio_at_least(r) for r in RATIO_GRID]
        answers_fresh = [fresh.has_ratio_at_least(r) for r in RATIO_GRID]
        assert answers_before == answers_after == answers_fresh
        assert checker.worst_relevant_ratio() == fresh.worst_relevant_ratio()

    def test_explicit_checkpoint_tokens_nest(self, fig3_like_graph):
        checker = AdmissibilityChecker(fig3_like_graph)
        outer = checker.checkpoint()
        event = Event(0, checker.n_events_of(0))
        checker.add_event(event)
        inner = checker.checkpoint()
        reply = Event(1, checker.n_events_of(1))
        checker.add_event(reply)
        checker.add_message(event, reply)
        checker.rollback(inner)
        assert checker.n_events_of(1) == reply.index
        checker.rollback(outer)
        assert fingerprint(checker) == fingerprint(
            AdmissibilityChecker(fig3_like_graph)
        )

    def test_rollback_to_future_checkpoint_rejected(self, fig3_like_graph):
        checker = AdmissibilityChecker(fig3_like_graph)
        with checker.speculate():
            checker.add_event(Event(0, checker.n_events_of(0)))
            token = checker.checkpoint()
        with pytest.raises(ValueError):
            checker.rollback(token)

    def test_rollback_across_remove_prefix_rejected(self, fig3_like_graph):
        checker = AdmissibilityChecker(fig3_like_graph)
        token = checker.checkpoint()
        checker.compact_prefix({0: 1}, mode="exact")
        with pytest.raises(ValueError):
            checker.rollback(token)

    def test_remove_prefix_inside_speculation_rejected(self, fig3_like_graph):
        checker = AdmissibilityChecker(fig3_like_graph)
        with checker.speculate():
            with pytest.raises(RuntimeError):
                checker.compact_prefix({0: 1}, mode="exact")


class TestSpeculativeProbes:
    def test_five_process_counterexample_is_caught(self):
        """A probe must see a cycle that climbs through forward edges.

        Five-process counterexample: the base graph is violation-free at
        Xi = 3/2; adding receive event e1 with message a0 -> e1 closes
        the violating cycle

            e1 -> e0 (local) -> b0 (against b0->e0) -> c1 (along b0->c1)
               -> c0 (local) -> d1 (against d1->c0) -> d0 (local)
               -> a0 (against a0->d0) -> e1 (along a0->e1)

        with |Z-| = 3, |Z+| = 2, ratio 3/2.  Walked from e1, the prefix
        weight turns nonnegative at the forward edge b0 -> c1: a search
        that stalls there misses the cycle although it passes through
        the new event.
        """
        xi = Fraction(3, 2)
        a0, b0 = Event(0, 0), Event(1, 0)
        c0, c1 = Event(2, 0), Event(2, 1)
        d0, d1 = Event(3, 0), Event(3, 1)
        e0, e1 = Event(4, 0), Event(4, 1)
        base = ExecutionGraph(
            {0: [a0], 1: [b0], 2: [c0, c1], 3: [d0, d1], 4: [e0]},
            [
                MessageEdge(b0, e0),
                MessageEdge(b0, c1),
                MessageEdge(d1, c0),
                MessageEdge(a0, d0),
            ],
        )
        monitor = OnlineAbcMonitor(xi=xi)
        monitor.extend_to(base)
        assert monitor.is_admissible()
        checker = monitor._checker
        before = potential_state(checker)
        assert not monitor.would_violate()
        assert monitor.would_violate(events=[e1], messages=[(a0, e1)])
        assert monitor.speculative_worst_ratio([e1], [(a0, e1)]) == xi
        assert potential_state(checker) == before
        assert monitor.is_admissible()
        checker.add_event(e1)
        checker.add_message(a0, e1)
        assert checker.has_ratio_at_least(xi)

    @pytest.mark.parametrize("seed", range(15))
    def test_probe_matches_fresh_checker_for_frontier_extensions(self, seed):
        """A violation-free graph extended by one message: the probe --
        one repair pass from the base worst ratio, inside a speculation
        -- answers like a fresh checker of the extended graph (the
        enforcer's situation), and the rollback restores the
        potential."""
        rng = random.Random(seed)
        graph = random_execution_graph(rng, 3, rng.randint(3, 10))
        checker = AdmissibilityChecker(graph)
        worst = checker.worst_relevant_ratio()
        src = rng.choice(list(graph.events()))
        process = rng.randrange(3)
        dst = Event(process, checker.n_events_of(process))
        events = {p: list(graph.events_of(p)) for p in graph.processes}
        events.setdefault(process, []).append(dst)
        fresh = AdmissibilityChecker(
            ExecutionGraph(events, [*graph.messages, MessageEdge(src, dst)])
        )
        before = potential_state(checker)
        with checker.speculate():
            checker.add_event(dst)
            checker.add_message(src, dst)
            probe = checker.updated_worst_ratio(worst)
        assert potential_state(checker) == before
        assert probe == fresh.worst_relevant_ratio(), seed
        for ratio in RATIO_GRID:
            reached = probe is not None and probe >= ratio
            assert reached == fresh.has_ratio_at_least(ratio), (seed, ratio)


class TestTombstoning:
    @pytest.mark.parametrize("seed", range(20))
    def test_remove_prefix_is_the_suffix_graph_oracle(self, seed):
        rng = random.Random(seed)
        graph = random_execution_graph(rng, 3, rng.randint(3, 12))
        cut_seed = rng.choice(list(graph.events()))
        cut = graph.causal_past([cut_seed])
        checker = AdmissibilityChecker(graph)
        removed = checker.compact_prefix(cut_stops(cut), mode="exact")
        assert removed == len(cut)
        assert checker.n_tombstoned == removed
        suffix = suffix_graph(graph, Cut(frozenset(cut)))
        reference = AdmissibilityChecker(suffix)
        assert checker.n_events == reference.n_events
        assert checker.n_messages == reference.n_messages
        assert checker.n_local_edges == reference.n_local_edges
        for ratio in RATIO_GRID:
            assert checker.has_ratio_at_least(ratio) == reference.has_ratio_at_least(
                ratio
            )
        assert checker.worst_relevant_ratio() == reference.worst_relevant_ratio()

    def test_remove_prefix_is_idempotent_and_bounded(self, fig3_like_graph):
        checker = AdmissibilityChecker(fig3_like_graph)
        cut = fig3_like_graph.causal_past([Event(0, 1)])
        stops = cut_stops(cut)
        assert checker.compact_prefix(stops, mode="exact") == len(cut)
        # Passing the cumulative cut again is a no-op.
        assert checker.compact_prefix(stops, mode="exact") == 0
        first_live = {p: checker.first_live_index(p) for p in range(3)}
        with pytest.raises(KeyError):
            # A stop past the events added, beside a valid one: refused
            # before anything is removed.
            checker.compact_prefix({2: 1, 0: 100}, mode="exact")
        assert {p: checker.first_live_index(p) for p in range(3)} == first_live

    @pytest.mark.parametrize("seed", range(20))
    def test_removable_prefix_splits_worst_ratio(self, seed):
        """No message crosses a removable prefix, so the full worst
        ratio is exactly max(worst of prefix, worst of suffix)."""
        rng = random.Random(seed)
        graph = random_execution_graph(rng, 3, rng.randint(4, 14))
        checker = AdmissibilityChecker(graph)
        full_worst = checker.worst_relevant_ratio()
        pinned = rng.sample(list(graph.events()), rng.randint(0, 3))
        removable = checker.removable_prefix(pinned)
        dead = {
            Event(p, i) for p, stop in removable.items() for i in range(stop)
        }
        for event in pinned:
            assert event not in dead
        for message in graph.messages:
            assert (message.src in dead) == (message.dst in dead)
        if not removable:
            return
        # The removed prefix is itself a valid execution graph.
        by_process: dict[int, list[Event]] = {}
        for event in sorted(dead):
            by_process.setdefault(event.process, []).append(event)
        prefix = ExecutionGraph(
            by_process,
            [m for m in graph.messages if m.src in dead and m.dst in dead],
        )
        prefix_worst = AdmissibilityChecker(prefix).worst_relevant_ratio()
        checker.compact_prefix(removable, mode="exact")
        suffix_worst = checker.worst_relevant_ratio()
        candidates = [w for w in (prefix_worst, suffix_worst) if w is not None]
        assert full_worst == (max(candidates) if candidates else None)

    def test_grow_after_tombstoning(self, fig3_like_graph):
        """New events keep arriving at their historical indices; a
        tombstoned predecessor simply leaves no local edge, as in the
        suffix graph."""
        checker = AdmissibilityChecker(fig3_like_graph)
        checker.compact_prefix(
            cut_stops(fig3_like_graph.causal_past([Event(2, 0)])), mode="exact"
        )
        next_event = Event(2, checker.n_events_of(2))
        checker.add_event(next_event)
        assert checker.n_events_of(2) == next_event.index + 1
        peer = Event(0, checker.n_events_of(0))
        checker.add_event(peer)
        assert checker.add_message(next_event, peer)
