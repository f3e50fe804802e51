"""Tests for the ABC synchrony condition decision procedures.

The polynomial Bellman-Ford checker is cross-validated against exhaustive
cycle enumeration on hand-crafted and random graphs (the central
correctness property of the whole library).
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.events import Event
from repro.core.execution_graph import GraphBuilder
from repro.core.synchrony import (
    AdmissibilityChecker,
    as_xi,
    check_abc,
    check_abc_exhaustive,
    farey_successor,
    find_violating_cycle,
    has_relevant_cycle_with_ratio_at_least,
    worst_relevant_ratio,
    worst_relevant_ratio_exhaustive,
)
from repro.scenarios.generators import random_execution_graph

XIS = [Fraction(3, 2), Fraction(2), Fraction(5, 2), Fraction(4)]


class TestKnownGraphs:
    def test_fig3_rejected_at_xi_2(self, fig3_like_graph):
        assert not check_abc(fig3_like_graph, 2).admissible

    def test_fig3_accepted_above_2(self, fig3_like_graph):
        assert check_abc(fig3_like_graph, Fraction(5, 2)).admissible

    def test_broadcast_always_admissible(self, broadcast_graph):
        for xi in XIS:
            assert check_abc(broadcast_graph, xi).admissible

    def test_chain_has_no_relevant_cycle(self, chain_only_graph):
        assert worst_relevant_ratio(chain_only_graph) is None

    def test_worst_ratio_exact(self, fig3_like_graph, broadcast_graph):
        assert worst_relevant_ratio(fig3_like_graph) == 2
        assert worst_relevant_ratio(broadcast_graph) == 1

    def test_witness_is_a_violation(self, fig3_like_graph):
        info = find_violating_cycle(fig3_like_graph, 2)
        assert info is not None
        assert info.relevant
        assert info.ratio >= 2

    def test_no_witness_when_admissible(self, fig3_like_graph):
        assert find_violating_cycle(fig3_like_graph, 3) is None

    def test_xi_must_exceed_one(self, broadcast_graph):
        with pytest.raises(ValueError):
            check_abc(broadcast_graph, 1)
        with pytest.raises(ValueError):
            check_abc(broadcast_graph, Fraction(1, 2))

    def test_result_is_truthy_on_admissible(self, broadcast_graph):
        assert check_abc(broadcast_graph, 2)
        assert not check_abc(broadcast_graph, 2).witness


class TestOracle:
    def test_ratio_one_detects_any_relevant_cycle(
        self, broadcast_graph, chain_only_graph
    ):
        assert has_relevant_cycle_with_ratio_at_least(broadcast_graph, 1)
        assert not has_relevant_cycle_with_ratio_at_least(chain_only_graph, 1)

    def test_oracle_monotone(self, fig3_like_graph):
        results = [
            has_relevant_cycle_with_ratio_at_least(fig3_like_graph, x)
            for x in [1, Fraction(3, 2), 2, Fraction(5, 2), 3]
        ]
        # True prefix then False suffix.
        assert results == sorted(results, reverse=True)

    def test_degenerate_pair_not_a_witness(self):
        # A self-message next to its local edge must never register as a
        # relevant cycle, even at ratio exactly 1.
        from repro.core.execution_graph import GraphBuilder

        b = GraphBuilder()
        b.message((0, 0), (0, 1))
        g = b.build()
        assert not has_relevant_cycle_with_ratio_at_least(g, 1)


class TestAsXi:
    def test_normalizes(self):
        assert as_xi("3/2") == Fraction(3, 2)
        assert as_xi(2) == Fraction(2)
        assert as_xi(2.5) == Fraction(5, 2)

    @pytest.mark.parametrize("bad", [1, Fraction(1), 0.5, "2/3", 0, -3])
    def test_rejects_xi_at_most_one(self, bad):
        with pytest.raises(ValueError, match="requires Xi > 1"):
            as_xi(bad)

    def test_used_by_every_xi_entry_point(self, broadcast_graph):
        from repro.core.variants import (
            check_abc_forward_bounded,
            check_abc_length_restricted,
            check_eventual_abc,
        )
        from repro.core.cuts import Cut

        for call in [
            lambda: check_abc(broadcast_graph, 1),
            lambda: check_abc_exhaustive(broadcast_graph, 1),
            lambda: find_violating_cycle(broadcast_graph, 1),
            lambda: check_abc_forward_bounded(broadcast_graph, 1, 2),
            lambda: check_abc_length_restricted(broadcast_graph, 1, 5),
            lambda: check_eventual_abc(broadcast_graph, 1, Cut(frozenset())),
            lambda: AdmissibilityChecker(broadcast_graph).check(1),
        ]:
            with pytest.raises(ValueError, match="requires Xi > 1"):
                call()


class TestAdmissibilityChecker:
    def test_many_queries_one_construction(self, fig3_like_graph):
        checker = AdmissibilityChecker(fig3_like_graph)
        assert not checker.check(2).admissible
        assert checker.check(Fraction(5, 2)).admissible
        assert checker.worst_relevant_ratio() == 2
        assert checker.has_ratio_at_least(1)
        assert not checker.has_ratio_at_least(3)

    def test_incremental_equals_batch_construction(self, fig3_like_graph):
        incremental = AdmissibilityChecker()
        for p in fig3_like_graph.processes:
            for ev in fig3_like_graph.events_of(p):
                incremental.add_event(ev)
        for m in fig3_like_graph.messages:
            incremental.add_message(m.src, m.dst)
        batch = AdmissibilityChecker(fig3_like_graph)
        assert incremental.worst_relevant_ratio() == batch.worst_relevant_ratio()
        assert incremental.n_messages == batch.n_messages
        assert incremental.n_local_edges == batch.n_local_edges

    def test_out_of_order_events_rejected(self):
        checker = AdmissibilityChecker()
        checker.add_event(Event(0, 0))
        with pytest.raises(ValueError, match="local order"):
            checker.add_event(Event(0, 2))

    def test_message_endpoints_must_exist(self):
        checker = AdmissibilityChecker()
        checker.add_event(Event(0, 0))
        with pytest.raises(KeyError):
            checker.add_message(Event(0, 0), Event(1, 0))

    def test_duplicate_messages_deduplicated(self, broadcast_graph):
        checker = AdmissibilityChecker(broadcast_graph)
        message = broadcast_graph.messages[0]
        assert not checker.add_message(message.src, message.dst)
        assert checker.n_messages == len(broadcast_graph.messages)
        assert checker.worst_relevant_ratio() == worst_relevant_ratio(
            broadcast_graph
        )

    def test_warm_start_hint_gives_same_answer(self, fig3_like_graph):
        checker = AdmissibilityChecker(fig3_like_graph)
        cold = checker.worst_relevant_ratio()
        assert checker.worst_relevant_ratio(at_least=Fraction(3, 2)) == cold
        assert checker.worst_relevant_ratio(at_least=cold) == cold

    def test_oracle_call_counter(self, fig3_like_graph):
        checker = AdmissibilityChecker(fig3_like_graph)
        assert checker.oracle_calls == 0
        checker.has_ratio_at_least(2)
        assert checker.oracle_calls == 1


class TestClimbProbes:
    """The worst-ratio climb probes ``1`` first, then only the Farey
    successor, under ``ratio_bound``, of a ratio already reached: the
    warm start, or the ratio of a cycle an earlier probe returned."""

    @staticmethod
    def record(monkeypatch):
        log: list[tuple[Fraction, Fraction | None]] = []
        original = AdmissibilityChecker._has_negative_cycle

        def recording(self, p, q, sources=None):
            cycle = original(self, p, q, sources)
            found = None if cycle is None else self._cycle_ratio(cycle)
            log.append((Fraction(p, q), found))
            return cycle

        monkeypatch.setattr(
            AdmissibilityChecker, "_has_negative_cycle", recording
        )
        return log

    @staticmethod
    def assert_climb(log, checker, start, result):
        bound = checker.ratio_bound
        reached = [] if start is None else [start]
        for probe, found in log:
            allowed = {farey_successor(r, bound) for r in reached}
            if start is None and not reached:
                allowed.add(Fraction(1))
            assert probe in allowed, (probe, reached)
            assert probe.denominator <= bound
            if found is not None:
                assert found >= probe
                reached.append(found)
        assert log[-1][1] is None, "the climb must end on an empty probe"
        assert result == (reached[-1] if reached else None)
        assert reached == sorted(set(reached)), "ratios must strictly increase"
        probes = [probe for probe, _ in log]
        assert probes == sorted(set(probes)), "probes must strictly increase"

    def test_cold_search_probes_successors_of_reached_ratios(
        self, fig3_like_graph, monkeypatch
    ):
        checker = AdmissibilityChecker(fig3_like_graph)
        log = self.record(monkeypatch)
        worst = checker.worst_relevant_ratio()
        assert worst == 2
        self.assert_climb(log, checker, None, worst)

    @pytest.mark.parametrize("seed", range(6))
    def test_warm_refresh_probes_successors_of_reached_ratios(
        self, seed, monkeypatch
    ):
        rng = random.Random(seed)
        graph = random_execution_graph(rng, 3, 16)
        checker = AdmissibilityChecker()
        log = self.record(monkeypatch)
        worst = None
        for process in graph.processes:
            for event in graph.events_of(process):
                checker.add_event(event)
        for message in graph.messages:
            checker.add_message(message.src, message.dst)
            log.clear()
            previous, worst = worst, checker.updated_worst_ratio(worst)
            self.assert_climb(log, checker, previous, worst)
        assert worst == worst_relevant_ratio(graph)


class TestWitnessOnMultigraphs:
    def multigraph_with_parallel_self_messages(self):
        """Self-messages run in parallel with the local edges of their
        process in the shadow multigraph; the violating cycle must pick
        exactly one of each parallel pair."""
        b = GraphBuilder()
        for i in range(4):
            b.message((0, i), (0, i + 1))  # self-messages, 4 fast hops
        b.message((0, 0), (1, 0))  # a 2-message chain they span
        b.message((1, 0), (0, 5))
        return b.build()

    def test_witness_is_simple_and_relevant(self):
        """Regression: negative-cycle witness extraction must return a
        simple relevant cycle even when parallel H-edges exist."""
        graph = self.multigraph_with_parallel_self_messages()
        info = find_violating_cycle(graph, 2)
        assert info is not None
        assert info.relevant
        assert info.ratio is not None and info.ratio >= 2
        assert info.cycle.is_simple()

    def test_worst_ratio_matches_exhaustive(self):
        graph = self.multigraph_with_parallel_self_messages()
        assert worst_relevant_ratio(graph) == worst_relevant_ratio_exhaustive(
            graph
        )

    def test_degenerate_two_cycle_never_reported(self):
        # A single self-message next to its local edge: the H 2-cycle
        # through both traversal directions must not register.
        b = GraphBuilder()
        b.message((0, 0), (0, 1))
        g = b.build()
        assert worst_relevant_ratio(g) is None


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_checker_matches_exhaustive_on_random_graphs(seed):
    rng = random.Random(seed)
    graph = random_execution_graph(
        rng, n_processes=rng.randint(2, 4), n_messages=rng.randint(2, 9)
    )
    for xi in (Fraction(3, 2), Fraction(2), Fraction(3)):
        fast = check_abc(graph, xi).admissible
        slow = check_abc_exhaustive(graph, xi).admissible
        assert fast == slow, f"seed={seed} xi={xi}"


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_worst_ratio_matches_exhaustive_on_random_graphs(seed):
    rng = random.Random(seed)
    graph = random_execution_graph(
        rng, n_processes=rng.randint(2, 4), n_messages=rng.randint(2, 9)
    )
    assert worst_relevant_ratio(graph) == worst_relevant_ratio_exhaustive(graph)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_admissible_iff_xi_above_worst_ratio(seed):
    rng = random.Random(seed)
    graph = random_execution_graph(rng, 3, rng.randint(3, 10))
    worst = worst_relevant_ratio(graph)
    if worst is None:
        assert check_abc(graph, Fraction(11, 10)).admissible
        return
    above = worst + Fraction(1, 7)
    assert check_abc(graph, above).admissible
    if worst > 1:
        assert not check_abc(graph, worst).admissible


class TestAbsorbBatch:
    """The bulk twin of add_event/add_message: bit-identical behavior,
    batch-atomic event validation, per-record message errors."""

    @staticmethod
    def columns_from(records, faulty=frozenset()):
        """Transpose records into absorb_batch columns, applying the
        monitor's message filter (faulty senders, forgotten prefixes
        are irrelevant here: nothing is tombstoned)."""
        processes = [r.event.process for r in records]
        indexes = [r.event.index for r in records]
        messages = [
            None
            if r.send_event is None or r.sender in faulty
            else (r.send_event.process, r.send_event.index)
            for r in records
        ]
        return processes, indexes, messages

    @staticmethod
    def absorb_per_record(checker, records, faulty=frozenset()):
        added = 0
        for r in records:
            checker.add_event(r.event)
            if r.send_event is None or r.sender in faulty:
                continue
            if checker.add_message(r.send_event, r.event):
                added += 1
        return added

    @pytest.mark.parametrize("profile", ("storm", "burst", "firehose"))
    @pytest.mark.parametrize("batch", (1, 5, 32))
    def test_matches_per_record_loop(self, profile, batch):
        """Every observable -- event/message counts, worst-ratio
        refresh sequence, oracle-call counts -- must match the
        per-record loop at every batch boundary.  In-batch message
        sources (the firehose norm) exercise the batch-local id cache."""
        from repro.scenarios.generators import profiled_trace_records

        records = profiled_trace_records(random.Random(13), profile, 70)
        loop = AdmissibilityChecker()
        bulk = AdmissibilityChecker()
        loop_worst = bulk_worst = None
        for i in range(0, len(records), batch):
            chunk = records[i : i + batch]
            n_loop = self.absorb_per_record(loop, chunk)
            n_bulk = bulk.absorb_batch(*_split_cols(self.columns_from(chunk)))
            assert n_bulk == n_loop
            assert bulk.n_events == loop.n_events
            assert bulk.n_messages == loop.n_messages
            loop_worst = loop.updated_worst_ratio(loop_worst)
            bulk_worst = bulk.updated_worst_ratio(bulk_worst)
            assert bulk_worst == loop_worst
            assert bulk.oracle_calls == loop.oracle_calls

    def test_witness_identical_to_per_record(self):
        """H-edge insertion order is part of the contract: the witness
        cycle the kernels report depends on it, so the violating cycle
        must be step-for-step identical."""
        from repro.scenarios.generators import profiled_trace_records

        records = profiled_trace_records(random.Random(1), "storm", 80)
        loop = AdmissibilityChecker()
        bulk = AdmissibilityChecker()
        self.absorb_per_record(loop, records)
        bulk.absorb_batch(*_split_cols(self.columns_from(records)))
        xi = Fraction(2)
        loop_cycle = loop.violating_cycle(xi)
        bulk_cycle = bulk.violating_cycle(xi)
        assert loop_cycle is not None, "storm workloads must violate Xi=2"
        assert bulk_cycle.cycle.steps == loop_cycle.cycle.steps
        assert bulk_cycle.ratio == loop_cycle.ratio

    def test_returns_message_edge_count(self):
        ch = AdmissibilityChecker()
        added = ch.absorb_batch(
            ([0, 1, 1], [0, 0, 1]), [None, (0, 0), None]
        )
        assert added == 1
        assert (ch.n_events, ch.n_messages) == (3, 1)

    def test_out_of_order_event_leaves_checker_untouched(self):
        """Validation is a pre-pass: a bad event column must reject the
        whole batch before any mutation, unlike message errors."""
        ch = AdmissibilityChecker()
        ch.add_event(Event(0, 0))
        with pytest.raises(ValueError, match="local order"):
            ch.absorb_batch(([0, 0], [1, 3]), None)  # gap after index 1
        assert ch.n_events == 1
        assert ch.n_events_of(0) == 1
        # The checker is still usable and order still enforced.
        ch.absorb_batch(([0], [1]), None)
        assert ch.n_events == 2

    def test_ragged_columns_rejected(self):
        ch = AdmissibilityChecker()
        with pytest.raises(ValueError, match="equal lengths"):
            ch.absorb_batch(([0, 0], [0]), None)
        with pytest.raises(ValueError, match="equal lengths"):
            ch.absorb_batch(([0], [0]), [None, None])

    def test_unknown_message_source_raises(self):
        ch = AdmissibilityChecker()
        with pytest.raises(KeyError, match="not in the checker"):
            ch.absorb_batch(([0], [0]), [(7, 0)])

    def test_self_loop_raises(self):
        ch = AdmissibilityChecker()
        with pytest.raises(ValueError, match="self loop"):
            ch.absorb_batch(([0], [0]), [(0, 0)])

    def test_tombstoned_predecessor_skips_local_edge(self):
        """After an exact compaction, the next event of a process whose
        frontier was removed must attach without a local edge --
        exactly as add_event handles it."""
        loop = AdmissibilityChecker()
        bulk = AdmissibilityChecker()
        prefix = [Event(0, 0), Event(0, 1), Event(1, 0)]
        for ch in (loop, bulk):
            for event in prefix:
                ch.add_event(event)
            ch.compact_prefix([Event(0, 0), Event(0, 1)], mode="exact")
        loop.add_event(Event(0, 2))
        bulk.absorb_batch(([0], [2]), None)
        assert bulk.n_events == loop.n_events
        assert bulk.first_live_index(0) == loop.first_live_index(0) == 2
        assert bulk.updated_worst_ratio(None) == loop.updated_worst_ratio(
            None
        )


def _split_cols(cols):
    processes, indexes, messages = cols
    return (processes, indexes), messages
