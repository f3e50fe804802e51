"""Differential conformance: the incremental detection paths vs
from-scratch and exhaustive references, at every prefix.

Every monitor answer bottoms out in one detection routine,
:func:`repro.core.kernel.repair_potential`, but reaches it through
incremental state: a stored potential, checkpoints, speculation and
summary compaction.  The contract is that none of that state shows:
after each observed record, the running worst ratio equals

* the worst ratio of a fresh, never-compacted checker built from the
  records observed so far, and
* on short prefixes, the maximum over the relevant cycles the
  exhaustive enumerator of Definition 3 lists.

This suite replays every generator profile (storm, burst, idler,
relay, firehose), the simulator scenarios (ping-pong storm, zero-delay
burst, long silence), the metadata-free degraded mode and randomized
hypothesis streams record by record against those references; Xi
witnesses are re-classified from their steps, and the checkpoint /
rollback / speculate surface is checked the same way.

If a path ever diverges, the failing assertion names the first prefix
where it happened -- the bisection is built in.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.online import OnlineAbcMonitor
from repro.core.cycles import classify
from repro.core.synchrony import (
    AdmissibilityChecker,
    worst_relevant_ratio_exhaustive,
)
from repro.scenarios.generators import (
    long_silence,
    ping_pong_storm,
    profiled_trace_records,
    streaming_trace,
    strip_sends_metadata,
    zero_delay_burst,
)
from repro.sim import SimulationLimits, Simulator
from repro.sim.trace import Trace, build_execution_graph

RECORD_PROFILES = ("storm", "burst", "idler", "relay", "firehose")
SEEDS = (9, 10, 11)
SIM_SCENARIOS = {
    "ping_pong": ping_pong_storm,
    "zero_delay": zero_delay_burst,
    "long_silence": long_silence,
}
PROBE_RATIOS = (
    Fraction(1),
    Fraction(3, 2),
    Fraction(2),
    Fraction(5, 2),
    Fraction(4),
)


def profile_records(profile, seed, n=120):
    return list(profiled_trace_records(random.Random(seed), profile, n))


def sim_records(scenario, max_events=300):
    processes, network = SIM_SCENARIOS[scenario]()
    trace = Simulator(processes, network, seed=0).run(
        SimulationLimits(max_events=max_events)
    )
    return list(trace.records)


def prefix_graph(records, k):
    n = max(r.event.process for r in records) + 1
    return build_execution_graph(Trace(n, frozenset(), records[:k]))


def fresh_worst(records, k):
    """The worst ratio of a never-compacted checker built from the
    first ``k`` records alone."""
    return AdmissibilityChecker(
        prefix_graph(records, k)
    ).worst_relevant_ratio()


def at_most(low, high):
    """``low <= high`` with ``None`` (no relevant cycle) lowest."""
    return low is None or (high is not None and low <= high)


def assert_witness(witness, xi):
    """A violation witness is a relevant cycle reaching ``xi``, and
    re-classifying its own steps gives back the same verdict."""
    assert witness.relevant
    assert witness.ratio is not None and witness.ratio >= xi
    again = classify(witness.cycle)
    assert again.relevant
    assert again.ratio == witness.ratio


def replay_against_fresh(records, monitor):
    """Feed ``records`` one at a time, asserting after each that the
    monitor's worst ratio is the fresh prefix checker's; returns the
    per-prefix worst ratios."""
    worsts = []
    for k, record in enumerate(records, start=1):
        worst = monitor.observe(record)
        expected = fresh_worst(records, k)
        assert worst == expected, (
            f"worst ratio diverged at prefix {k}: {worst} vs {expected}"
        )
        worsts.append(worst)
    return worsts


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("profile", RECORD_PROFILES)
class TestGeneratorProfiles:
    def test_every_prefix_matches_fresh_checker(self, profile, seed):
        records = profile_records(profile, seed)
        monitor = OnlineAbcMonitor()
        worsts = replay_against_fresh(records, monitor)
        full = AdmissibilityChecker(prefix_graph(records, len(records)))
        for xi in PROBE_RATIOS[1:]:
            assert monitor.check(xi).admissible == full.check(xi).admissible
        # The change log records exactly the prefixes where the ratio
        # grew.
        grown = [
            w
            for prev, w in zip([None] + worsts, worsts)
            if w is not None and w != prev
        ]
        assert [c.worst for c in monitor.changes] == grown

    def test_violation_fires_at_the_first_reaching_prefix(
        self, profile, seed
    ):
        # A xi low enough that every profile violates: the callback
        # fires once, at the first prefix whose fresh worst ratio
        # reaches xi, with a genuine witness.
        xi = Fraction(3, 2)
        records = profile_records(profile, seed)
        fired = []
        monitor = OnlineAbcMonitor(
            xi=xi, on_violation=lambda w: fired.append(monitor.n_events)
        )
        worsts = replay_against_fresh(records, monitor)
        reaching = [
            k for k, w in enumerate(worsts, start=1) if at_most(xi, w)
        ]
        assert reaching, "workload never reaches xi"
        assert fired == [reaching[0]]
        assert_witness(monitor.violation, xi)

    def test_compacting_monitor_matches_fresh_checker(self, profile, seed):
        # Adaptive summary compaction exercises the summary re-weighting
        # of the detection routine at every compaction point; the
        # reported ratio must not notice.
        records = profile_records(profile, seed)
        monitor = OnlineAbcMonitor(compact_threshold=2.0)
        replay_against_fresh(records, monitor)
        assert monitor.forgotten_message_edges == 0
        assert monitor.auto_compactions > 0


@pytest.mark.parametrize("profile", RECORD_PROFILES)
def test_short_prefixes_match_exhaustive_enumeration(profile):
    # The enumerator is exponential, so only the first records: enough
    # for every profile to close several relevant cycles.
    records = profile_records(profile, seed=9, n=14)
    monitor = OnlineAbcMonitor()
    for k, record in enumerate(records, start=1):
        expected = worst_relevant_ratio_exhaustive(prefix_graph(records, k))
        assert monitor.observe(record) == expected, f"prefix {k}"


@pytest.mark.parametrize("xi", (None, Fraction(2)))
@pytest.mark.parametrize("scenario", sorted(SIM_SCENARIOS))
class TestSimulatorScenarios:
    def test_every_prefix_matches_fresh_checker(self, scenario, xi):
        records = sim_records(scenario)
        assert records, "scenario produced no records"
        monitor = OnlineAbcMonitor(xi=xi)
        worsts = replay_against_fresh(records, monitor)
        if xi is not None:
            assert at_most(xi, worsts[-1]), "scenario never reaches xi"
            assert_witness(monitor.violation, xi)


@pytest.mark.parametrize("profile", RECORD_PROFILES)
class TestDegradedMetadataFree:
    def test_stripped_sends_stay_exact_without_compaction(self, profile):
        # Sends metadata only steers compaction; the graph, and so the
        # plain monitor's answer, does not depend on it.
        records = strip_sends_metadata(profile_records(profile, seed=9))
        replay_against_fresh(records, OnlineAbcMonitor())

    def test_compaction_degrades_to_a_counted_lower_bound(self, profile):
        # Without sends metadata the compacting monitor may cut a
        # prefix an unseen message still crosses: it then skips and
        # counts the edge, and its ratio may fall below the truth --
        # never above it, and never below while nothing was skipped.
        records = strip_sends_metadata(profile_records(profile, seed=9))
        monitor = OnlineAbcMonitor(compact_threshold=2.0)
        for k, record in enumerate(records, start=1):
            worst = monitor.observe(record)
            expected = fresh_worst(records, k)
            if monitor.forgotten_message_edges == 0:
                assert worst == expected, f"prefix {k}"
            else:
                assert at_most(worst, expected), f"prefix {k}"


@pytest.mark.parametrize("seed", (23, 24))
class TestCheckpointRollbackSpeculate:
    @staticmethod
    def trace_of(seed, n_records=80):
        return streaming_trace(
            random.Random(seed), n_processes=4, n_records=n_records
        )

    def test_checkpoint_rollback_restores_the_half_graph(self, seed):
        trace = self.trace_of(seed)
        half = build_execution_graph(
            Trace(trace.n, trace.faulty, trace.records[:40])
        )
        full = build_execution_graph(trace)
        checker = AdmissibilityChecker(half)
        fresh_half = AdmissibilityChecker(half)
        token = checker.checkpoint()
        checker.absorb(full)
        assert (
            checker.worst_relevant_ratio()
            == AdmissibilityChecker(full).worst_relevant_ratio()
        )
        checker.rollback(token)
        for p in PROBE_RATIOS:
            assert checker.has_ratio_at_least(
                p
            ) == fresh_half.has_ratio_at_least(p), (
                f"post-rollback probe at {p} diverged"
            )
        assert (
            checker.worst_relevant_ratio()
            == fresh_half.worst_relevant_ratio()
        )

    def test_speculation_answers_like_the_extended_graph(self, seed):
        # Inside speculate() the checker answers for the grown graph;
        # leaving it must restore the pre-speculation answers.
        trace = self.trace_of(seed)
        half = build_execution_graph(
            Trace(trace.n, trace.faulty, trace.records[:40])
        )
        full = build_execution_graph(trace)
        checker = AdmissibilityChecker(half)
        before = checker.worst_relevant_ratio()
        with checker.speculate() as spec:
            spec.absorb(full)
            assert (
                spec.worst_relevant_ratio()
                == AdmissibilityChecker(full).worst_relevant_ratio()
            )
        assert checker.n_events == half.n_events
        assert checker.worst_relevant_ratio() == before

    def test_interleaved_probe_stream(self, seed):
        # Alternate absorption and probes so the incremental state is
        # exercised mid-growth.
        trace = streaming_trace(
            random.Random(seed + 8), n_processes=4, n_records=60
        )
        checker = AdmissibilityChecker()
        xi = Fraction(3, 2)
        for k in range(10, len(trace.records) + 1, 10):
            prefix = build_execution_graph(
                Trace(trace.n, trace.faulty, trace.records[:k])
            )
            checker.absorb(prefix)
            fresh = AdmissibilityChecker(prefix)
            for p in PROBE_RATIOS:
                assert checker.has_ratio_at_least(
                    p
                ) == fresh.has_ratio_at_least(p), (
                    f"probe at {p} diverged after {k} records"
                )
            witness = checker.violating_cycle(xi)
            assert (witness is None) == (fresh.violating_cycle(xi) is None)
            if witness is not None:
                assert_witness(witness, xi)


class TestRandomizedStreams:
    @settings(max_examples=12, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**20))
    def test_random_stream_matches_fresh_checker(self, seed):
        trace = streaming_trace(
            random.Random(seed), n_processes=3, n_records=40
        )
        replay_against_fresh(
            list(trace.records), OnlineAbcMonitor(xi=Fraction(2))
        )

    @settings(max_examples=12, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**20),
        profile=st.sampled_from(RECORD_PROFILES),
    )
    def test_random_stream_under_compaction(self, seed, profile):
        # Profiled records announce their sends, which keeps the
        # compacting monitor exact.
        monitor = OnlineAbcMonitor(compact_threshold=2.0)
        replay_against_fresh(profile_records(profile, seed, n=40), monitor)
        assert monitor.forgotten_message_edges == 0
