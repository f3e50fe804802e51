"""Differential test: incremental enforcer vs. frozen seed enforcer.

The speculative rework of :class:`~repro.sim.abc_scheduler.AbcEnforcingSimulator`
(one shared checker, checkpoint/rollback speculation, probes that are one
repair pass of the stored potential from the realized worst ratio,
settled-prefix tombstoning) must make *exactly* the decisions of the
seed implementation, which rebuilt the execution graph and a fresh
checker for every (tentative delivery, pending message) pair.  The
frozen copy of the seed enforcer lives in
``benchmarks/seed_abc_enforcer.py`` (shared with the enforcer benchmark
so the two baselines cannot diverge); both enforcers are run over many
seeded random enforcer-stressing workloads: delivery orders, full
traces, and ``pulled_forward`` counts must be identical.  A second
sweep disables both enforcers' probes for the first deliveries, so the
raw schedule realizes a violation, and pins the fallback that follows.
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

import pytest

from repro.core.synchrony import check_abc
from repro.scenarios.generators import random_enforcer_setup
from repro.sim.abc_scheduler import AbcEnforcingSimulator
from repro.sim.engine import SimulationLimits
from repro.sim.trace import build_execution_graph

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "benchmarks"))
from seed_abc_enforcer import SeedAbcEnforcingSimulator  # noqa: E402


# ----------------------------------------------------------------------
# The differential sweep
# ----------------------------------------------------------------------

N_WORKLOADS = 50
MAX_EVENTS = 50


def _run_pair(seed: int, tombstone_every):
    rng = random.Random(seed)
    processes, network, xi = random_enforcer_setup(rng)
    baseline = SeedAbcEnforcingSimulator(processes, network, seed=seed, xi=xi)
    baseline_trace = baseline.run(SimulationLimits(max_events=MAX_EVENTS))

    processes, network, _ = random_enforcer_setup(random.Random(seed))
    incremental = AbcEnforcingSimulator(
        processes, network, seed=seed, xi=xi, tombstone_every=tombstone_every
    )
    incremental_trace = incremental.run(SimulationLimits(max_events=MAX_EVENTS))
    return baseline, baseline_trace, incremental, incremental_trace


@pytest.mark.parametrize("seed", range(N_WORKLOADS))
def test_identical_to_seed_enforcer(seed):
    """Delivery order, full trace, and pulled_forward identical on
    randomized storms/bursts/silences (aggressive tombstoning on)."""
    baseline, baseline_trace, incremental, incremental_trace = _run_pair(
        seed, tombstone_every=8
    )
    assert [r.event for r in baseline_trace.records] == [
        r.event for r in incremental_trace.records
    ]
    assert baseline_trace.records == incremental_trace.records
    assert repr(baseline_trace.records) == repr(incremental_trace.records)
    assert baseline.pulled_forward == incremental.pulled_forward


@pytest.mark.parametrize("seed", [0, 7, 23])
def test_tombstoning_disabled_matches_too(seed):
    """The digraph-bounding machinery is behavior-neutral either way."""
    baseline, baseline_trace, incremental, incremental_trace = _run_pair(
        seed, tombstone_every=None
    )
    assert baseline_trace.records == incremental_trace.records
    assert baseline.pulled_forward == incremental.pulled_forward
    assert incremental.tombstoned_events == 0


# ----------------------------------------------------------------------
# The violation fallback
# ----------------------------------------------------------------------

UNENFORCED_STEPS = 12
FALLBACK_SEEDS = range(60)


@pytest.fixture
def unenforced_start(monkeypatch):
    """Both enforcers find nothing stranded for their first
    ``UNENFORCED_STEPS`` deliveries, so the raw schedule may realize a
    violation and the enforcers run on in their fallback."""
    for cls in (SeedAbcEnforcingSimulator, AbcEnforcingSimulator):

        def strands(self, *args, _original=cls._strands):
            if len(self.trace.records) < UNENFORCED_STEPS:
                return False
            return _original(self, *args)

        monkeypatch.setattr(cls, "_strands", strands)


@pytest.mark.parametrize("seed", FALLBACK_SEEDS)
def test_violation_fallback_matches_seed_enforcer(seed, unenforced_start):
    """After a realized violation every pending message counts as
    stranded, exactly as in the seed enforcer's full-graph oracle; the
    flag is set iff the realized execution is inadmissible."""
    baseline, baseline_trace, incremental, incremental_trace = _run_pair(
        seed, tombstone_every=8
    )
    assert baseline_trace.records == incremental_trace.records
    assert baseline.pulled_forward == incremental.pulled_forward
    realized = check_abc(build_execution_graph(incremental_trace), baseline.xi)
    assert incremental.violation_detected == (not realized.admissible)


def test_violation_fallback_is_reached(unenforced_start, monkeypatch):
    """The sweep above exercises the fallback on most seeds, and no
    probe runs once a violation is detected (its answer is known)."""
    probed_after_violation = []
    probe = AbcEnforcingSimulator._violates

    def violates(self):
        probed_after_violation.append(self.violation_detected)
        return probe(self)

    monkeypatch.setattr(AbcEnforcingSimulator, "_violates", violates)
    flipped = 0
    for seed in FALLBACK_SEEDS:
        processes, network, xi = random_enforcer_setup(random.Random(seed))
        incremental = AbcEnforcingSimulator(
            processes, network, seed=seed, xi=xi, tombstone_every=8
        )
        incremental.run(SimulationLimits(max_events=MAX_EVENTS))
        flipped += incremental.violation_detected
    assert flipped >= len(FALLBACK_SEEDS) // 3, flipped
    assert probed_after_violation and not any(probed_after_violation)
