"""Differential conformance: every kernel vs the ``py_object`` reference.

The kernel layer's contract (:mod:`repro.core.kernel`) is *bit
identity*: any kernel, on any workload, must produce exactly the
answers of the reference SPFA -- worst ratios, oracle booleans,
witnesses, violation callbacks, and oracle-call counts, at **every
prefix** of the stream, not just at the end.  This suite drives the
kernels in lockstep through all the generator profiles (storm, burst,
idler, relay), the simulator scenarios (ping-pong storm, zero-delay
burst, long-silence), the metadata-free degraded mode, and randomized
hypothesis streams, asserting identity after each observation; the
checkpoint / rollback / speculate surface is exercised the same way.

If a kernel ever diverges, the failing assertion names the first
prefix where it happened -- the bisection is built in.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.online import OnlineAbcMonitor
from repro.core.kernel import available_kernels
from repro.core.synchrony import AdmissibilityChecker
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

REFERENCE = "py_object"
KERNELS = [name for name in available_kernels() if name != REFERENCE]

RECORD_PROFILES = ("storm", "burst", "idler", "relay")
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


def profile_records(profile: str, n: int = 120, seed: int = 9):
    return list(profiled_trace_records(random.Random(seed), profile, n))


def sim_records(scenario: str, max_events: int = 300):
    processes, network = SIM_SCENARIOS[scenario]()
    trace = Simulator(processes, network, seed=0).run(
        SimulationLimits(max_events=max_events)
    )
    return list(trace.records)


def lockstep_monitors(records, kernel, xi=None, compact_threshold=None):
    """Replay ``records`` through a reference and a ``kernel`` monitor
    in lockstep, asserting identity at every prefix; returns the pair.
    """
    monitors = {
        name: OnlineAbcMonitor(
            xi=xi, compact_threshold=compact_threshold, kernel=name
        )
        for name in (REFERENCE, kernel)
    }
    ref, alt = monitors[REFERENCE], monitors[kernel]
    for i, record in enumerate(records):
        ratios = {n: m.observe(record) for n, m in monitors.items()}
        assert ratios[REFERENCE] == ratios[kernel], (
            f"worst ratio diverged at prefix {i + 1}: "
            f"{ratios[REFERENCE]} vs {ratios[kernel]} ({kernel})"
        )
        assert ref.oracle_calls == alt.oracle_calls, (
            f"oracle-call counts diverged at prefix {i + 1}"
        )
    assert ref.changes == alt.changes
    assert ref.violation == alt.violation
    assert ref.forgotten_message_edges == alt.forgotten_message_edges
    assert ref.auto_compactions == alt.auto_compactions
    return ref, alt


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("profile", RECORD_PROFILES)
class TestGeneratorProfiles:
    def test_every_prefix_identical(self, profile, kernel):
        ref, alt = lockstep_monitors(profile_records(profile), kernel)
        for xi in PROBE_RATIOS[1:]:
            assert ref.check(xi) == alt.check(xi)

    def test_with_xi_and_witness(self, profile, kernel):
        # A xi low enough that storm/burst profiles actually violate:
        # the witness cycle and the callback history must also match.
        ref, alt = lockstep_monitors(
            profile_records(profile), kernel, xi=Fraction(3, 2)
        )
        if ref.violation is not None:
            assert ref.violation.cycle == alt.violation.cycle
            assert ref.violation.ratio == alt.violation.ratio

    def test_compacting_monitor_identical(self, profile, kernel):
        # Adaptive summary compaction exercises the summary re-weighting
        # path of each kernel at every compaction point.
        ref, alt = lockstep_monitors(
            profile_records(profile), kernel, compact_threshold=2.0
        )
        assert ref.summary_edges == alt.summary_edges
        assert ref.auto_compactions > 0 or profile == "idler"


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("scenario", sorted(SIM_SCENARIOS))
class TestSimulatorScenarios:
    def test_every_prefix_identical(self, scenario, kernel):
        records = sim_records(scenario)
        assert records, "scenario produced no records"
        ref, alt = lockstep_monitors(records, kernel, xi=Fraction(2))
        assert ref.violation == alt.violation


@pytest.mark.parametrize("kernel", KERNELS)
class TestDegradedMetadataFree:
    def test_stripped_sends_identical(self, kernel):
        # Without sends metadata the compacting monitor degrades to a
        # counted lower bound -- both kernels must degrade identically.
        records = strip_sends_metadata(profile_records("burst"))
        ref, alt = lockstep_monitors(
            records, kernel, compact_threshold=2.0
        )
        assert ref.worst_ratio == alt.worst_ratio


@pytest.mark.parametrize("kernel", KERNELS)
class TestCheckpointRollbackSpeculate:
    def _checker_pair(self, kernel, n_records=80, seed=23):
        trace = streaming_trace(
            random.Random(seed), n_processes=4, n_records=n_records
        )
        graph = build_execution_graph(trace)
        return (
            AdmissibilityChecker(graph, kernel=REFERENCE),
            AdmissibilityChecker(graph, kernel=kernel),
            trace,
        )

    def test_checkpoint_rollback_identity(self, kernel):
        ref, alt, trace = self._checker_pair(kernel)
        cut = len(trace.records) // 2
        half = build_execution_graph(
            Trace(trace.n, trace.faulty, trace.records[:cut])
        )
        ref_half = AdmissibilityChecker(half, kernel=REFERENCE)
        alt_half = AdmissibilityChecker(half, kernel=kernel)
        tokens = (ref_half.checkpoint(), alt_half.checkpoint())
        full = build_execution_graph(trace)
        ref_half.absorb(full)
        alt_half.absorb(full)
        assert (
            ref_half.worst_relevant_ratio()
            == alt_half.worst_relevant_ratio()
        )
        ref_half.rollback(tokens[0])
        alt_half.rollback(tokens[1])
        for p in PROBE_RATIOS:
            assert ref_half.has_ratio_at_least(
                p
            ) == alt_half.has_ratio_at_least(p), (
                f"post-rollback probe at {p} diverged ({kernel})"
            )
        assert (
            ref_half.worst_relevant_ratio()
            == alt_half.worst_relevant_ratio()
        )

    def test_speculate_identity(self, kernel):
        ref, alt, trace = self._checker_pair(kernel)
        for checker in (ref, alt):
            with checker.speculate() as spec:
                # The speculative view answers through the same kernel;
                # exiting must restore the pre-speculation answers.
                spec_worst = spec.worst_relevant_ratio()
            checker._spec_worst = spec_worst
        assert ref._spec_worst == alt._spec_worst
        assert ref.worst_relevant_ratio() == alt.worst_relevant_ratio()

    def test_interleaved_probe_stream(self, kernel):
        # Alternate absorption and probes so each kernel's incremental
        # state (pin, clocks, slacks) is exercised mid-growth.
        trace = streaming_trace(
            random.Random(31), n_processes=4, n_records=60
        )
        ref = AdmissibilityChecker(kernel=REFERENCE)
        alt = AdmissibilityChecker(kernel=kernel)
        for k in range(10, len(trace.records) + 1, 10):
            prefix = build_execution_graph(
                Trace(trace.n, trace.faulty, trace.records[:k])
            )
            ref.absorb(prefix)
            alt.absorb(prefix)
            for p in PROBE_RATIOS:
                assert ref.has_ratio_at_least(
                    p
                ) == alt.has_ratio_at_least(p), (
                    f"probe at {p} diverged after {k} records ({kernel})"
                )
            ref_cycle = ref.violating_cycle(Fraction(3, 2))
            alt_cycle = alt.violating_cycle(Fraction(3, 2))
            assert (ref_cycle is None) == (alt_cycle is None)
            if ref_cycle is not None:
                assert ref_cycle.cycle == alt_cycle.cycle


@pytest.mark.parametrize("kernel", KERNELS)
class TestRandomizedStreams:
    @settings(max_examples=12, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**20))
    def test_random_stream_identity(self, kernel, seed):
        trace = streaming_trace(
            random.Random(seed), n_processes=3, n_records=40
        )
        lockstep_monitors(list(trace.records), kernel, xi=Fraction(2))
