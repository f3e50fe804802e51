"""Incremental ABC-enforcing scheduler vs. rebuild-per-delivery seed.

Design choice called out in the speculative-enforcer rework: the
scheduler keeps ONE :class:`~repro.core.synchrony.AdmissibilityChecker`
mirroring the realized trace and evaluates every (tentative delivery,
pending message) pair by speculative extension
(``checkpoint``/``rollback`` on the live digraph, a probe that is one
repair pass of the checker's stored potential from the realized worst
ratio, settled-prefix tombstoning), instead of rebuilding the execution
graph and a fresh checker for every oracle call the way the seed
implementation did.  Measured: wall-clock of the incremental enforcer
against a frozen copy of the seed enforcer on the enforcer-stressing
scenario families (ping-pong storm, zero-delay burst, long silence),
with traces and ``pulled_forward`` counts required to be byte-identical
on every benchmarked scenario.  The frozen seed calls the library's
one-shot :func:`~repro.core.synchrony.has_relevant_cycle_with_ratio_at_least`,
so its time moves with the library's one-shot queries: ``seed_s`` and
``incremental_s`` are worth reading separately, not only their ratio.

Also runnable as a script (CI smoke / the >=5x acceptance gate)::

    python benchmarks/bench_abc_enforcer.py --events 40 --min-speedup 0
    python benchmarks/bench_abc_enforcer.py --events 200 --min-speedup 5 \
        --json BENCH_abc_enforcer.json
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction

from seed_abc_enforcer import SeedAbcEnforcingSimulator

from repro.core.synchrony import has_relevant_cycle_with_ratio_at_least
from repro.scenarios.generators import (
    long_silence,
    ping_pong_storm,
    zero_delay_burst,
)
from repro.sim.abc_scheduler import AbcEnforcingSimulator
from repro.sim.engine import SimulationLimits
from repro.sim.trace import build_execution_graph

DEFAULT_EVENTS = 200
# Hard floor for automated runs.  Measured speedups are 58-86x on a
# 2-vCPU VM, but wall-clock ratios on shared/noisy machines dip well
# below that, so
# hard gates (this pytest entry and the CI step) use 2x and leave the
# measured numbers as the informational record; the acceptance run is
# the CLI with --min-speedup 5 on a quiet machine.
HARD_SPEEDUP_FLOOR = 2.0
XI = Fraction(2)


# ----------------------------------------------------------------------
# Workloads and contenders
# ----------------------------------------------------------------------


SCENARIOS = {
    "ping_pong_storm": lambda: ping_pong_storm(
        n_responders=3, xi=XI, slow=25.0, fast=1.0, max_probes=50
    ),
    "zero_delay_burst": lambda: zero_delay_burst(
        n_responders=2, xi=XI, slow=15.0, max_probes=50
    ),
    "long_silence": lambda: long_silence(
        n_responders=2, xi=XI, silence=400.0, max_probes=60
    ),
}


def _run(simulator_cls, scenario, n_events, seed, **kwargs):
    processes, network = SCENARIOS[scenario]()
    sim = simulator_cls(processes, network, seed=seed, xi=XI, **kwargs)
    trace = sim.run(SimulationLimits(max_events=n_events))
    return sim, trace


def _timed(fn, *args, **kwargs):
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - start


def compare_scenario(scenario, n_events, seed=3):
    """Run seed and incremental enforcers; returns the metrics dict.

    Raises ``AssertionError`` unless traces are byte-identical and the
    ``pulled_forward`` counts agree.
    """
    (seed_sim, seed_trace), seed_s = _timed(
        _run, SeedAbcEnforcingSimulator, scenario, n_events, seed
    )
    (incr_sim, incr_trace), incr_s = _timed(
        _run, AbcEnforcingSimulator, scenario, n_events, seed
    )
    assert repr(seed_trace.records) == repr(incr_trace.records), (
        f"{scenario}: traces differ"
    )
    assert seed_trace.records == incr_trace.records
    assert seed_sim.pulled_forward == incr_sim.pulled_forward, (
        f"{scenario}: pulled_forward {seed_sim.pulled_forward} != "
        f"{incr_sim.pulled_forward}"
    )
    assert not incr_sim.violation_detected
    # The enforcer's whole point: the realized execution is admissible.
    graph = build_execution_graph(incr_trace)
    assert not has_relevant_cycle_with_ratio_at_least(graph, XI)
    return {
        "scenario": scenario,
        "events": len(incr_trace.records),
        "pulled_forward": incr_sim.pulled_forward,
        "tombstoned_events": incr_sim.tombstoned_events,
        "live_digraph_events": incr_sim.live_digraph_events,
        "seed_s": seed_s,
        "incremental_s": incr_s,
        "speedup": seed_s / incr_s,
    }


# ----------------------------------------------------------------------
# pytest entries
# ----------------------------------------------------------------------


def test_enforcer_speedup_and_trace_identity():
    """Byte-identical traces and pulled_forward counts on every
    benchmarked scenario, and speedup over the seed enforcer above the
    noise-tolerant hard floor (see HARD_SPEEDUP_FLOOR)."""
    results = [
        compare_scenario(name, DEFAULT_EVENTS) for name in SCENARIOS
    ]
    for r in results:
        sys.stderr.write(
            f"\n[bench_abc_enforcer] {r['scenario']} events={r['events']} "
            f"pulled={r['pulled_forward']} seed={r['seed_s']:.3f}s "
            f"incremental={r['incremental_s']:.3f}s "
            f"speedup={r['speedup']:.1f}x"
        )
    sys.stderr.write("\n")
    worst = min(r["speedup"] for r in results)
    assert worst >= HARD_SPEEDUP_FLOOR, (
        f"worst scenario speedup {worst:.1f}x below the "
        f"{HARD_SPEEDUP_FLOOR}x hard floor"
    )


def test_enforcer_benchmark(benchmark):
    def run():
        # Fresh processes per round: PingPongMonitor is stateful, so
        # reusing instances would shrink later rounds to near no-ops.
        processes, network = SCENARIOS["ping_pong_storm"]()
        sim = AbcEnforcingSimulator(processes, network, seed=3, xi=XI)
        return sim.run(SimulationLimits(max_events=DEFAULT_EVENTS))

    trace = benchmark(run)
    assert len(trace.records) == DEFAULT_EVENTS
    benchmark.extra_info["events"] = len(trace.records)


# ----------------------------------------------------------------------
# script mode (CI smoke, the gate, JSON artifact)
# ----------------------------------------------------------------------


def main(argv=None):
    parser = argparse.ArgumentParser(
        description=(
            "Compare the incremental ABC-enforcing scheduler against the "
            "frozen rebuild-per-delivery seed enforcer."
        )
    )
    parser.add_argument(
        "--events", type=int, default=DEFAULT_EVENTS, help="events per run"
    )
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=None,
        help="exit non-zero unless every scenario reaches this speedup",
    )
    parser.add_argument(
        "--json",
        type=str,
        default=None,
        help="write the per-scenario metrics to this JSON file",
    )
    args = parser.parse_args(argv)

    results = []
    for name in SCENARIOS:
        r = compare_scenario(name, args.events, args.seed)
        results.append(r)
        print(
            f"{name:18s} events={r['events']:4d} pulled={r['pulled_forward']:3d} "
            f"tombstoned={r['tombstoned_events']:3d} "
            f"seed={r['seed_s'] * 1e3:8.1f} ms "
            f"incremental={r['incremental_s'] * 1e3:7.1f} ms "
            f"({r['speedup']:5.1f}x)"
        )
    print("traces byte-identical, pulled_forward identical on every scenario")
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(
                {"events": args.events, "seed": args.seed, "results": results},
                fh,
                indent=2,
            )
        print(f"wrote {args.json}")
    if args.min_speedup is not None:
        worst = min(r["speedup"] for r in results)
        if worst < args.min_speedup:
            print(f"FAIL: worst speedup {worst:.1f}x < {args.min_speedup}x")
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
