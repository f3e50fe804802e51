"""Targeted adversarial conformance cases for the detection routine.

Every oracle query of
:class:`~repro.core.synchrony.AdmissibilityChecker` answers from the
worst ratio its stored potential leaves
(:func:`repro.core.kernel.repair_potential`): ``has_ratio_at_least(r)``
is ``worst >= max(r, 1)`` and ``violating_cycle(xi)`` returns the cycle
that realizes the worst.  Where
:mod:`tests.core.test_kernel_differential` sweeps whole workloads
against from-scratch and exhaustive references, this suite aims at the
specific shapes that can break those answers while leaving random
sweeps green.  Each case is answered twice more, independently:

* by :func:`textbook_negative_cycle`, plain Bellman-Ford over the
  traversal digraph weighted for the inclusive ``ratio >= p/q`` test
  (every edge, every pass, no queue, no potential);
* where a ratio threshold applies, by
  :func:`~repro.core.synchrony.worst_relevant_ratio_exhaustive`, the
  cycle enumerator of Definition 3.

The shapes:

* big-integer probes -- deep mediant ratios whose numerators and
  denominators grow exponentially, and offsets past ``2**63`` on either
  side of the worst ratio (a boundary only exact arithmetic holds);
* the ``p < q`` domain below every relevant-cycle ratio, where a query
  asks for any relevant cycle at all;
* summary re-weighting above and below the compaction floor, down to
  the hop profile of every summary edge;
* speculative probes -- one repair pass inside a speculation -- which
  must answer for the grown digraph and leave the potential as it was;
* answers after checkpoint/rollback.
"""

import random
from fractions import Fraction

import pytest

from repro.core.cycles import ALONG, AGAINST
from repro.core.events import Event
from repro.core.execution_graph import LocalEdge, MessageEdge
from repro.core.kernel import SUMMARY
from repro.core.synchrony import (
    AdmissibilityChecker,
    worst_relevant_ratio_exhaustive,
)
from repro.scenarios.generators import (
    random_execution_graph,
    streaming_trace,
)
from repro.sim.trace import Trace, build_execution_graph
from test_ratio_climb import farey_successor, inclusive_weights, potential_state

RATIO_GRID = tuple(
    Fraction(num, den) for num in range(1, 9) for den in range(1, 5)
)


def textbook_negative_cycle(checker, p, q):
    """Whether ``H`` weighted for the inclusive ``ratio >= p/q`` test
    holds a negative cycle.

    Plain Bellman-Ford: nodes start at 0 (a virtual source) and each
    pass relaxes every edge.  Simple paths have fewer than ``n`` edges,
    so a pass that changes nothing ends the run clean, and a run whose
    ``n`` passes all changed something holds a negative cycle iff one
    more pass still improves a node.
    """
    n = len(checker._adj)
    wtab = inclusive_weights(checker, p, q)
    edges = [
        (u, v, wtab[kind])
        for u, row in enumerate(checker._adj)
        for v, kind, _eidx in row
    ]
    dist = [0] * n

    def relax_all():
        changed = False
        for u, v, w in edges:
            if dist[u] + w < dist[v]:
                dist[v] = dist[u] + w
                changed = True
        return changed

    for _ in range(n):
        if not relax_all():
            return False
    return relax_all()


def textbook_answer(checker, ratio):
    """The textbook's answer to ``has_ratio_at_least(ratio)``: ratios
    below 1 ask for any relevant cycle, the test at 1."""
    r = max(ratio, Fraction(1))
    return textbook_negative_cycle(checker, r.numerator, r.denominator)


def assert_witness(checker, ratio, expected):
    """``violating_cycle(ratio)`` finds a witness iff ``expected``, and
    the witness is relevant with the checker's worst ratio."""
    witness = checker.violating_cycle(ratio)
    assert (witness is not None) == expected, ratio
    if witness is not None:
        assert witness.relevant
        assert witness.ratio == checker.worst_relevant_ratio() >= ratio


def reaches(worst, ratio):
    """The oracle's answer implied by an exact worst ratio: some
    relevant cycle has ratio at least ``max(ratio, 1)``."""
    return worst is not None and worst >= max(ratio, Fraction(1))


def stern_brocot_path(depth):
    """Mediant descent toward sqrt(2): numerators and denominators grow
    exponentially, far past the ratio bound of any execution here."""
    lo, hi = Fraction(1), Fraction(2)
    path = []
    for _ in range(depth):
        mid = Fraction(
            lo.numerator + hi.numerator, lo.denominator + hi.denominator
        )
        path.append(mid)
        if mid * mid < 2:
            lo = mid
        else:
            hi = mid
    return path


def small_graph(seed, n_messages=10):
    return random_execution_graph(random.Random(seed), 3, n_messages)


def half_cut(graph, processes):
    """Each process's older half, as a stop map."""
    return {
        process: len(graph.events_of(process)) // 2 for process in processes
    }


class TestBigIntegerProbes:
    @pytest.mark.parametrize("seed", range(6))
    def test_deep_stern_brocot_probes(self, seed):
        graph = small_graph(seed)
        checker = AdmissibilityChecker(graph)
        worst = worst_relevant_ratio_exhaustive(graph)
        for ratio in stern_brocot_path(120)[::7]:
            p, q = ratio.numerator, ratio.denominator
            found = checker.has_ratio_at_least(ratio)
            at = f"{p}/{q}"
            assert found == textbook_negative_cycle(checker, p, q), at
            assert found == reaches(worst, ratio), at
            assert_witness(checker, ratio, found)

    @pytest.mark.parametrize("seed", range(6))
    def test_offsets_past_int64_around_the_worst_ratio(self, seed):
        # worst - 1/D is reached and worst + 1/D is not, for D far past
        # 2**63: the weights overflow every fixed-width integer, and
        # only exact comparison separates the two probes.
        graph = small_graph(seed, n_messages=12)
        checker = AdmissibilityChecker(graph)
        worst = worst_relevant_ratio_exhaustive(graph)
        assert worst is not None, "workload has no relevant cycle"
        for den in (2**63 + 1, 2**70 - 1, 10**40 + 7):
            below = worst - Fraction(1, den)
            above = worst + Fraction(1, den)
            for ratio, expected in ((below, True), (above, False)):
                assert checker.has_ratio_at_least(ratio) == expected
                assert textbook_answer(checker, ratio) == expected
                if ratio > 1:
                    assert_witness(checker, ratio, expected)

    @pytest.mark.parametrize("seed", range(6))
    def test_huge_ratios_just_above_one(self, seed):
        # (D+1)/(D-1) with D past 2**63 sits strictly between 1 and
        # every other ratio of a small execution: reached exactly when
        # some relevant cycle has ratio above 1.
        graph = small_graph(seed, n_messages=12)
        checker = AdmissibilityChecker(graph)
        worst = worst_relevant_ratio_exhaustive(graph)
        for ratio in (
            Fraction(2**70 + 1, 2**70 - 1),
            Fraction(10**40 + 7, 10**40 - 9),
        ):
            expected = worst is not None and worst > 1
            assert checker.has_ratio_at_least(ratio) == expected
            assert textbook_answer(checker, ratio) == expected
            assert_witness(checker, ratio, expected)


class TestDomainBoundaries:
    @pytest.mark.parametrize("seed", range(5))
    def test_p_below_q_probes(self, seed):
        # Below 1 the inclusive weighting also makes degenerate shapes
        # negative; a query there asks for any relevant cycle, which is
        # the test at 1, and no Xi at or below 1 can be violated.
        graph = random_execution_graph(random.Random(seed), 3, 12)
        checker = AdmissibilityChecker(graph)
        any_relevant = textbook_negative_cycle(checker, 1, 1)
        for p, q in ((1, 2), (2, 3), (1, 5), (3, 4), (99, 100)):
            ratio = Fraction(p, q)
            assert checker.has_ratio_at_least(ratio) == any_relevant, ratio
            with pytest.raises(ValueError, match="Xi > 1"):
                checker.violating_cycle(ratio)

    @pytest.mark.parametrize("seed", range(5))
    def test_ratios_at_and_below_one_ask_for_any_relevant_cycle(self, seed):
        graph = random_execution_graph(random.Random(seed), 3, 12)
        checker = AdmissibilityChecker(graph)
        any_relevant = worst_relevant_ratio_exhaustive(graph) is not None
        assert textbook_negative_cycle(checker, 1, 1) == any_relevant
        for ratio in (1, Fraction(1, 2), Fraction(3, 4), Fraction(1, 10**30)):
            assert checker.has_ratio_at_least(ratio) == any_relevant


class TestSummaryReweighting:
    @staticmethod
    def compacted(seed, n_records=70):
        trace = streaming_trace(
            random.Random(seed), n_processes=4, n_records=n_records
        )
        graph = build_execution_graph(trace)
        checker = AdmissibilityChecker(graph)
        floor = checker.worst_relevant_ratio()
        checker.compact_prefix(
            half_cut(graph, range(trace.n)), mode="summary", floor=floor
        )
        assert checker.n_summary_edges > 0
        return graph, checker, floor

    @pytest.mark.parametrize("seed", (13, 15, 17))
    def test_probes_above_floor_match_full_graph(self, seed):
        graph, compacted, floor = self.compacted(seed)
        full = AdmissibilityChecker(graph)
        probe = floor if floor is not None else Fraction(1)
        for _ in range(6):
            probe = farey_successor(probe, full.ratio_bound)
            answer = compacted.has_ratio_at_least(probe)
            assert answer == full.has_ratio_at_least(probe), probe
            assert answer == textbook_answer(compacted, probe), probe

    @pytest.mark.parametrize("seed", (14, 16, 18))
    def test_every_probe_matches_textbook_on_the_compacted_digraph(
        self, seed
    ):
        # Below the floor the compacted digraph legitimately differs
        # from the full graph, but every answer must still be exact for
        # the digraph it holds, witnesses included.
        _graph, checker, floor = self.compacted(seed)
        for ratio in RATIO_GRID:
            found = checker.has_ratio_at_least(ratio)
            assert found == textbook_answer(checker, ratio), ratio
            if ratio > 1:
                assert_witness(checker, ratio, found)
        assert checker.worst_relevant_ratio() == floor

    @pytest.mark.parametrize("seed", (13, 14, 15))
    def test_summary_weights_are_their_walks_weights(self, seed):
        # A summary edge re-weights from its (forward, backward, local)
        # profile; the profile must count the hops of the walk it
        # stands for, and the walk must join the edge's endpoints.
        _graph, checker, _floor = self.compacted(seed)
        p, q, scale = 7, 3, 5
        wtab = checker._weights(p, q, scale, 1)
        assert checker._summary_at
        for eidx, summary in checker._summary_at.items():
            kind = checker._kinds[eidx]
            assert kind >= SUMMARY
            assert checker._event(checker._tails[eidx]) == summary.tail
            assert checker._event(checker._heads[eidx]) == summary.head
            steps = summary.steps
            assert steps[0].start == summary.tail
            assert steps[-1].end == summary.head
            for a, b in zip(steps, steps[1:]):
                assert a.end == b.start
            forward = backward = local = 0
            for step in steps:
                if isinstance(step.edge, MessageEdge):
                    forward += step.direction == ALONG
                    backward += step.direction == AGAINST
                else:
                    assert isinstance(step.edge, LocalEdge)
                    assert step.direction == AGAINST
                    local += 1
            assert summary.profile == (forward, backward, local)
            assert wtab[kind] == scale * (p * forward - q * backward) - local


class TestSpeculativeProbes:
    @pytest.mark.parametrize("seed", range(8))
    def test_probes_match_textbook_and_roll_back(self, seed):
        # A probe is one repair pass from the base worst ratio inside a
        # speculation: it must answer exactly for the grown digraph, and
        # the rollback must restore the potential it repaired.
        rng = random.Random(seed + 40)
        graph = random_execution_graph(rng, 3, rng.randint(6, 14))
        checker = AdmissibilityChecker(graph)
        base = checker.worst_relevant_ratio()
        hits = misses = 0
        for _ in range(6):
            before = potential_state(checker)
            with checker.speculate():
                for _ in range(rng.randint(1, 3)):
                    process = rng.randrange(3)
                    event = Event(process, checker.n_events_of(process))
                    src = checker._event(rng.randrange(checker.n_events))
                    checker.add_event(event)
                    checker.add_message(src, event)
                worst = checker.updated_worst_ratio(base)
                for ratio in RATIO_GRID[::3]:
                    expected = textbook_answer(checker, ratio)
                    assert reaches(worst, ratio) == expected, ratio
                    hits += expected and not reaches(base, ratio)
                    misses += not expected
            assert potential_state(checker) == before
        assert hits, "no probe found a cycle above the base worst"
        assert misses, "every probe found a cycle"


class TestRollbackAgreement:
    @pytest.mark.parametrize("seed", range(8))
    def test_answers_match_a_fresh_checker_after_rollback(self, seed):
        # Rolling the stream back past the cycles the grown digraph
        # answered with must leave the digraph the routine reads
        # exactly the half graph's.
        trace = streaming_trace(
            random.Random(seed), n_processes=3, n_records=50
        )
        half = build_execution_graph(
            Trace(trace.n, trace.faulty, trace.records[:25])
        )
        full = build_execution_graph(trace)
        checker = AdmissibilityChecker(half)
        fresh = AdmissibilityChecker(half)
        half_worst = fresh.worst_relevant_ratio()
        assert checker.worst_relevant_ratio() == half_worst
        token = checker.checkpoint()
        checker.absorb(full)
        full_worst = checker.worst_relevant_ratio()
        assert full_worst == AdmissibilityChecker(full).worst_relevant_ratio()
        if full_worst is not None:
            assert checker.has_ratio_at_least(full_worst)
        checker.rollback(token)
        assert checker.worst_relevant_ratio() == half_worst
        probe = Fraction(1) if full_worst is None else full_worst
        for _ in range(3):
            p, q = probe.numerator, probe.denominator
            answer = checker.has_ratio_at_least(probe)
            assert answer == fresh.has_ratio_at_least(probe), (seed, probe)
            assert answer == textbook_negative_cycle(checker, p, q)
            if probe > 1:
                assert_witness(checker, probe, answer)
            probe = farey_successor(probe, fresh.ratio_bound)
