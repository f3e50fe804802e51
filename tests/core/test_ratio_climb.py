"""The worst-ratio climb against the Stern-Brocot search it replaced.

:meth:`~repro.core.synchrony.AdmissibilityChecker.worst_relevant_ratio`
climbs from cycle to cycle: every positive oracle run returns the
negative cycle it found, the search jumps to that cycle's ratio
``B/F``, and it probes the Farey successor until a probe finds nothing.
This suite pins it three ways:

* a seeded differential against :func:`reference_worst_ratio`, the
  bracketing Stern-Brocot search over :meth:`has_ratio_at_least` that
  the climb replaced, at every batch boundary of every generator
  profile -- plain and compacting monitors, graph-built checkers, and
  speculative extensions;
* the properties the climb's exactness rests on, checked on every
  cycle a kernel returns: simple in ``H``, negative at the probe, and
  ``B/F >= p/q`` (``tests/core/test_synchrony.py`` pins the probe
  sequence itself);
* the corner cases: a dead-ended predecessor walk, a causal cycle
  (which must raise, not hang), and the stabilization cuts that depend
  on which witness the oracle returns.
"""

import random
import signal
from contextlib import contextmanager
from fractions import Fraction

import pytest

from repro.analysis.online import OnlineAbcMonitor
from repro.core import kernel as kernel_mod
from repro.core.events import Event
from repro.core.kernel import available_kernels
from repro.core.synchrony import AdmissibilityChecker
from repro.core.variants import (
    check_eventual_abc,
    earliest_stabilization_cut,
    running_worst_ratio,
)
from repro.scenarios.generators import (
    profiled_trace_records,
    random_execution_graph,
)
from repro.sim.trace import Trace, build_execution_graph

PROFILES = ("storm", "burst", "idler", "relay", "firehose")
KERNELS = available_kernels()


def reference_worst_ratio(checker):
    """The Stern-Brocot search the climb replaced, kept as the
    reference: a bracket ``(lo, hi)`` around the maximum, galloped by
    :func:`max_k` and clamped to the denominator bound, driven only by
    the boolean oracle :meth:`has_ratio_at_least`."""
    max_den = checker.ratio_bound
    max_num = checker.ratio_bound
    memo = {}

    def oracle(num, den):
        value = Fraction(num, den)
        cached = memo.get(value)
        if cached is None:
            cached = checker.has_ratio_at_least(value)
            memo[value] = cached
        return cached

    if not oracle(1, 1):
        return None
    lo_num, lo_den = 1, 1
    hi_num, hi_den = 1, 0
    while lo_den + hi_den <= max_den:
        if oracle(lo_num + hi_num, lo_den + hi_den):
            if hi_den:
                cap = (max_den - lo_den) // hi_den
            else:
                cap = max_num * lo_den - lo_num
            k = max_k(
                lambda k: oracle(lo_num + k * hi_num, lo_den + k * hi_den),
                cap,
            )
            lo_num += k * hi_num
            lo_den += k * hi_den
        else:

            def still_false(k):
                return not oracle(k * lo_num + hi_num, k * lo_den + hi_den)

            if not still_false(1):
                hi_num += lo_num
                hi_den += lo_den
                continue
            cap = (max_den - hi_den) // lo_den
            k = max_k(still_false, cap)
            hi_num += k * lo_num
            hi_den += k * lo_den
    return Fraction(lo_num, lo_den)


def max_k(probe, cap):
    """Largest ``k`` in ``[1, cap]`` with ``probe(k)`` true, for a
    monotone ``probe`` known true at 1: probe the cap, then gallop and
    bisect."""
    if cap <= 1 or probe(cap):
        return cap
    k = 1
    while 2 * k < cap and probe(2 * k):
        k *= 2
    lo, hi = k, min(2 * k, cap)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if probe(mid):
            lo = mid
        else:
            hi = mid
    return lo


def batches_of(records, size):
    for i in range(0, len(records), size):
        yield records[i : i + size]


def prefix_checker(records, k):
    """A fresh, never-compacted checker over the first ``k`` records."""
    n = max(r.event.process for r in records) + 1
    graph = build_execution_graph(Trace(n, frozenset(), records[:k]))
    return AdmissibilityChecker(graph)


def assert_valid_cycle(checker, cycle, p, q):
    """The contract of a returned cycle: simple in ``H``, negative at
    ``p/q``, and -- for probes at or above 1 -- ``B/F >= p/q``."""
    tails = [checker._tails[e] for e in cycle]
    heads = [checker._heads[e] for e in cycle]
    assert len(set(tails)) == len(tails), "cycle revisits a node"
    assert heads == tails[1:] + tails[:1], "edges do not close a walk"
    wtab = checker._weight_table(p, q)
    assert sum(wtab[checker._kinds[e]] for e in cycle) < 0
    if p >= q:
        assert checker._cycle_ratio(cycle) >= Fraction(p, q)


@pytest.fixture
def checked_cycles(monkeypatch):
    """Check every cycle the dispatch point returns; the log lists,
    per probe, the realized ratio or ``None``."""
    log = []
    original = AdmissibilityChecker._has_negative_cycle

    def checked(self, p, q, sources=None):
        cycle = original(self, p, q, sources)
        if cycle is None:
            log.append(None)
        else:
            assert_valid_cycle(self, cycle, p, q)
            log.append(self._cycle_ratio(cycle) if p >= q else None)
        return cycle

    monkeypatch.setattr(AdmissibilityChecker, "_has_negative_cycle", checked)
    return log


@contextmanager
def deadline(seconds):
    """Fail instead of hanging when the body overruns ``seconds``."""

    def expire(signum, frame):
        raise TimeoutError(f"no answer within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


class TestReferenceDifferential:
    @pytest.mark.parametrize("profile", PROFILES)
    @pytest.mark.parametrize("compact_threshold", [None, 2.0])
    def test_monitor_matches_reference_at_every_batch(
        self, profile, compact_threshold
    ):
        records = profiled_trace_records(random.Random(11), profile, 110)
        monitor = OnlineAbcMonitor(compact_threshold=compact_threshold)
        seen = 0
        for chunk in batches_of(records, 9):
            worst = monitor.observe_batch(chunk)
            seen += len(chunk)
            expected = reference_worst_ratio(prefix_checker(records, seen))
            assert worst == expected, (profile, seen)
        if compact_threshold is not None and profile in ("storm", "relay"):
            assert monitor.summary_edges > 0, "no summary edge in H"

    @pytest.mark.parametrize("seed", range(12))
    def test_graph_built_checkers_match_reference(self, seed):
        rng = random.Random(seed + 300)
        graph = random_execution_graph(rng, rng.randint(2, 4), 18)
        climbed = AdmissibilityChecker(graph).worst_relevant_ratio()
        assert climbed == reference_worst_ratio(AdmissibilityChecker(graph))
        depth = max(len(graph.events_of(p)) for p in graph.processes)
        prefixes = [
            graph.prefix(
                ev
                for p in graph.processes
                for ev in graph.events_of(p)[: k + 1]
            )
            for k in range(depth)
        ]
        for prefix, worst in zip(prefixes, running_worst_ratio(prefixes)):
            assert worst == reference_worst_ratio(
                AdmissibilityChecker(prefix)
            )

    @pytest.mark.parametrize("seed", range(6))
    def test_speculation_and_rollback_match_reference(self, seed):
        rng = random.Random(seed + 700)
        records = profiled_trace_records(rng, "storm", 90)
        checker = prefix_checker(records, 60)
        base = checker.worst_relevant_ratio()
        assert base == reference_worst_ratio(checker)
        for _ in range(4):
            with checker.speculate():
                for _ in range(rng.randint(1, 3)):
                    process = rng.randrange(3)
                    event = Event(process, checker.n_events_of(process))
                    src = rng.choice(checker._nodes)
                    checker.add_event(event)
                    if src.process != process:
                        checker.add_message(src, event)
                spec = checker.updated_worst_ratio(base)
                assert spec == reference_worst_ratio(checker)
            assert checker.worst_relevant_ratio() == base
            assert reference_worst_ratio(checker) == base


@pytest.mark.parametrize("kernel", KERNELS)
class TestClimbProperties:
    @pytest.mark.parametrize("profile", PROFILES)
    def test_every_returned_cycle_is_valid(
        self, kernel, profile, checked_cycles
    ):
        records = profiled_trace_records(random.Random(5), profile, 100)
        monitor = OnlineAbcMonitor(
            xi=Fraction(3, 2), compact_threshold=2.0, kernel=kernel
        )
        for chunk in batches_of(records, 10):
            monitor.observe_batch(chunk)
        assert any(r is not None for r in checked_cycles) or (
            monitor.worst_ratio is None
        )

    def test_dead_ended_walk_keeps_relaxing(self, kernel, monkeypatch):
        # The first predecessor walk is made to dead-end; the run must
        # keep relaxing and still return a valid cycle.
        walk = kernel_mod._cycle_from_predecessors
        calls = []

        def dead_end_once(pred, tails, start, n):
            calls.append(start)
            if len(calls) == 1:
                return None
            return walk(pred, tails, start, n)

        monkeypatch.setattr(
            kernel_mod, "_cycle_from_predecessors", dead_end_once
        )
        hits = 0
        for seed in range(6):
            calls.clear()
            graph = random_execution_graph(random.Random(seed + 90), 3, 16)
            checker = AdmissibilityChecker(graph, kernel=kernel)
            cycle = checker._has_negative_cycle(1, 1)
            if cycle is None:
                continue
            hits += 1
            assert len(calls) >= 2, "the forced dead end was never hit"
            assert_valid_cycle(checker, cycle, 1, 1)
            witness = checker.violating_cycle(Fraction(3, 2))
            if witness is not None:
                assert witness.relevant and witness.ratio >= Fraction(3, 2)
        assert hits >= 3


class TestCausalCycle:
    @staticmethod
    def causal_checker(with_history):
        checker = AdmissibilityChecker()
        if with_history:
            graph = random_execution_graph(random.Random(3), 3, 12)
            for process in graph.processes:
                for event in graph.events_of(process):
                    checker.add_event(event)
            for message in graph.messages:
                checker.add_message(message.src, message.dst)
        a, b = Event(7, 0), Event(8, 0)
        checker.add_event(a)
        checker.add_event(b)
        checker.add_message(a, b)
        checker.add_message(b, a)
        return checker

    @pytest.mark.parametrize("with_history", [False, True])
    def test_worst_ratio_raises_instead_of_hanging(self, with_history):
        with deadline(20):
            checker = self.causal_checker(with_history)
            with pytest.raises(ValueError, match="causal cycle"):
                checker.worst_relevant_ratio()
            with pytest.raises(ValueError, match="causal cycle"):
                checker.updated_worst_ratio(None)


class TestStabilizationCuts:
    """The greedy stabilization cut depends on which violating cycle
    the oracle returns, so it may differ from the old search's; every
    cut must still be a valid ``C_GST`` witness."""

    def test_every_cut_is_left_closed_and_stabilizes(self):
        nonempty = 0
        for seed in range(200):
            rng = random.Random(seed + 5000)
            graph = random_execution_graph(rng, 3, rng.randint(4, 14))
            for xi in (Fraction(3, 2), Fraction(2), Fraction(3)):
                cut = earliest_stabilization_cut(graph, xi)
                assert cut.is_left_closed(graph), (seed, xi)
                assert check_eventual_abc(graph, xi, cut).admissible, (
                    seed, xi,
                )
                nonempty += bool(cut.events)
        assert nonempty > 200
