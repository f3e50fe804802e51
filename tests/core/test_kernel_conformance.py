"""Targeted adversarial conformance cases for the detection kernel.

:func:`repro.core.kernel.negative_cycle` is the one detection routine:
the round-batched SPFA every oracle query bottoms out in.  Where
:mod:`tests.core.test_kernel_differential` sweeps whole workloads
against from-scratch and exhaustive references, this suite aims at the
specific shapes that can break the routine while leaving random sweeps
green.  Each case is answered twice more, independently:

* by :func:`textbook_negative_cycle`, plain Bellman-Ford over the same
  weighted traversal digraph (every edge, every pass, no queue, no
  early cycle extraction);
* where a ratio threshold applies, by
  :func:`~repro.core.synchrony.worst_relevant_ratio_exhaustive`, the
  cycle enumerator of Definition 3.

The shapes:

* big-integer probes -- deep mediant ratios whose numerators and
  denominators grow exponentially, and offsets past ``2**63`` on either
  side of the worst ratio (a boundary only exact arithmetic holds);
* the ``p < q`` domain below every relevant-cycle ratio;
* summary re-weighting above and below the compaction floor, down to
  the hop profile of every summary edge;
* source-seeded detection, which must find exactly the negative cycles
  reachable from the sources;
* answers after checkpoint/rollback.
"""

import random
from fractions import Fraction

import pytest

from repro.core.cycles import ALONG, AGAINST
from repro.core.execution_graph import LocalEdge, MessageEdge
from repro.core.kernel import SUMMARY, negative_cycle
from repro.core.synchrony import (
    AdmissibilityChecker,
    worst_relevant_ratio_exhaustive,
)
from repro.scenarios.generators import (
    random_execution_graph,
    streaming_trace,
)
from repro.sim.trace import Trace, build_execution_graph
from test_ratio_climb import farey_successor

RATIO_GRID = tuple(
    Fraction(num, den) for num in range(1, 9) for den in range(1, 5)
)


def textbook_negative_cycle(checker, p, q, sources=None):
    """Whether ``H`` weighted for ``p/q`` holds a negative cycle
    (reachable from the node ids ``sources``, if given).

    Plain Bellman-Ford: nodes start at 0 (a virtual source) or, with
    ``sources``, at 0 for the sources and unreached elsewhere; each
    pass relaxes every edge.  Simple paths have fewer than ``n`` edges,
    so a pass that changes nothing ends the run clean, and a run whose
    ``n`` passes all changed something holds a negative cycle iff one
    more pass still improves a node.
    """
    n = len(checker._adj)
    wtab = checker._weight_table(p, q)
    edges = [
        (u, v, wtab[kind])
        for u, row in enumerate(checker._adj)
        for v, kind, _eidx in row
    ]
    if sources is None:
        dist = [0] * n
    else:
        dist = [None] * n
        for u in sources:
            dist[u] = 0

    def relax_all():
        changed = False
        for u, v, w in edges:
            if dist[u] is not None and (
                dist[v] is None or dist[u] + w < dist[v]
            ):
                dist[v] = dist[u] + w
                changed = True
        return changed

    for _ in range(n):
        if not relax_all():
            return False
    return relax_all()


def assert_simple_negative(checker, cycle, p, q):
    tails = [checker._tails[e] for e in cycle]
    heads = [checker._heads[e] for e in cycle]
    assert len(set(tails)) == len(tails), "cycle revisits a node"
    assert heads == tails[1:] + tails[:1], "edges do not close a walk"
    wtab = checker._weight_table(p, q)
    assert sum(wtab[checker._kinds[e]] for e in cycle) < 0


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
    return [
        event
        for process in processes
        for event in graph.events_of(process)[
            : len(graph.events_of(process)) // 2
        ]
    ]


class TestBigIntegerProbes:
    @pytest.mark.parametrize("seed", range(6))
    def test_deep_stern_brocot_probes(self, seed):
        graph = small_graph(seed)
        checker = AdmissibilityChecker(graph)
        worst = worst_relevant_ratio_exhaustive(graph)
        for ratio in stern_brocot_path(120)[::7]:
            p, q = ratio.numerator, ratio.denominator
            found = negative_cycle(checker, p, q) is not None
            at = f"{p}/{q}"
            assert found == textbook_negative_cycle(checker, p, q), at
            assert found == reaches(worst, ratio), at
            assert checker.has_ratio_at_least(ratio) == found, at

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
                p, q = ratio.numerator, ratio.denominator
                found = negative_cycle(checker, p, q) is not None
                assert found == expected, (den, ratio)
                assert textbook_negative_cycle(checker, p, q) == expected

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
            assert (
                textbook_negative_cycle(
                    checker, ratio.numerator, ratio.denominator
                )
                == expected
            )


class TestDomainBoundaries:
    @pytest.mark.parametrize("seed", range(5))
    def test_p_below_q_probes(self, seed):
        # Below 1 the weighted digraph still has a definite answer; the
        # routine must give it, and back a hit with a genuine simple
        # negative cycle.
        graph = random_execution_graph(random.Random(seed), 3, 12)
        checker = AdmissibilityChecker(graph)
        for p, q in ((1, 2), (2, 3), (1, 5), (3, 4), (99, 100)):
            cycle = negative_cycle(checker, p, q)
            assert (cycle is not None) == textbook_negative_cycle(
                checker, p, q
            ), (seed, p, q)
            if cycle is not None:
                assert_simple_negative(checker, cycle, p, q)

    @pytest.mark.parametrize("seed", range(5))
    def test_ratios_at_and_below_one_ask_for_any_relevant_cycle(self, seed):
        graph = random_execution_graph(random.Random(seed), 3, 12)
        checker = AdmissibilityChecker(graph)
        any_relevant = worst_relevant_ratio_exhaustive(graph) is not None
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
            assert compacted.has_ratio_at_least(
                probe
            ) == full.has_ratio_at_least(probe), probe

    @pytest.mark.parametrize("seed", (14, 16, 18))
    def test_every_probe_matches_textbook_on_the_compacted_digraph(
        self, seed
    ):
        # Below the floor the compacted digraph legitimately differs
        # from the full graph, but the routine must still answer
        # exactly for the digraph it holds.
        _graph, checker, floor = self.compacted(seed)
        for ratio in RATIO_GRID:
            p, q = ratio.numerator, ratio.denominator
            cycle = negative_cycle(checker, p, q)
            assert (cycle is not None) == textbook_negative_cycle(
                checker, p, q
            ), ratio
            if cycle is not None:
                assert_simple_negative(checker, cycle, p, q)
        assert checker.worst_relevant_ratio() == floor

    @pytest.mark.parametrize("seed", (13, 14, 15))
    def test_summary_weights_are_their_walks_weights(self, seed):
        # A summary edge re-weights from its (forward, backward, local)
        # profile; the profile must count the hops of the walk it
        # stands for, and the walk must join the edge's endpoints.
        _graph, checker, _floor = self.compacted(seed)
        p, q = 7, 3
        wtab = checker._weight_table(p, q)
        scale = wtab[0] // p
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


class TestSeededDetection:
    @pytest.mark.parametrize("seed", range(8))
    def test_seeded_detection_matches_textbook(self, seed):
        # Seeded runs must find exactly the negative cycles reachable
        # from the sources -- no more (non-sources start unreached),
        # no fewer (no stall at a nonnegative prefix).
        rng = random.Random(seed + 40)
        graph = random_execution_graph(rng, 3, rng.randint(6, 14))
        checker = AdmissibilityChecker(graph)
        n = len(checker._adj)
        hits = misses = 0
        for _ in range(6):
            sources = sorted(rng.sample(range(n), rng.randint(1, 3)))
            for ratio in RATIO_GRID[::3]:
                p, q = ratio.numerator, ratio.denominator
                cycle = negative_cycle(checker, p, q, sources)
                expected = textbook_negative_cycle(checker, p, q, sources)
                assert (cycle is not None) == expected, (sources, ratio)
                if cycle is not None:
                    assert_simple_negative(checker, cycle, p, q)
                hits += expected
                misses += not expected
        if worst_relevant_ratio_exhaustive(graph) is not None:
            assert hits, "no seeded probe found a cycle"
        assert misses, "every seeded probe found a cycle"


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
            probe = farey_successor(probe, fresh.ratio_bound)
