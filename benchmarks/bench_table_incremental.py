"""Incremental ?ABC monitoring vs. per-prefix batch recomputation.

Design choice called out in the incremental-checker rework: the running
worst relevant ratio of a growing execution is maintained by
:class:`~repro.analysis.online.OnlineAbcMonitor` (traversal digraph
extended in place, one Farey-successor oracle call per new message)
instead of re-running a full worst-ratio search per prefix.  Measured:
wall-clock of the monitor against (a) the frozen seed implementation --
edge-list Bellman-Ford with the digraph rebuilt on every oracle call and
an unclamped gallop -- and (b) the current batch checker re-run per
prefix, plus exactness of the monitor against batch on every prefix.

Also runnable as a script (CI smoke / tiny sizes)::

    python benchmarks/bench_table_incremental.py --events 40
"""

from __future__ import annotations

import argparse
import sys
import time
from fractions import Fraction

from repro.analysis.online import OnlineAbcMonitor
from repro.core.execution_graph import ExecutionGraph
from repro.core.synchrony import worst_relevant_ratio
from repro.scenarios.generators import streaming_trace
from repro.sim.trace import Trace, build_execution_graph

DEFAULT_EVENTS = 200
SPEEDUP_FLOOR = 5.0


# ----------------------------------------------------------------------
# Frozen seed implementation (the pre-rework quadratic baseline).
# Kept verbatim so the benchmark keeps measuring the same thing as the
# library evolves; do not "fix" it.
# ----------------------------------------------------------------------


class _SeedTraversalDigraph:
    def __init__(self, graph: ExecutionGraph, p: int, q: int) -> None:
        self.nodes = list(graph.events())
        self.index = {ev: i for i, ev in enumerate(self.nodes)}
        scale = len(graph.local_edges) + 1
        self.edges: list[tuple[int, int, int]] = []
        for m in graph.messages:
            u, v = self.index[m.src], self.index[m.dst]
            self.edges.append((u, v, p * scale))
            self.edges.append((v, u, -q * scale))
        for loc in graph.local_edges:
            u, v = self.index[loc.src], self.index[loc.dst]
            self.edges.append((v, u, -1))

    def has_negative_cycle(self) -> bool:
        n = len(self.nodes)
        if n == 0 or not self.edges:
            return False
        dist = [0] * n
        for _ in range(n):
            updated = False
            for tail, head, weight in self.edges:
                if dist[tail] + weight < dist[head]:
                    dist[head] = dist[tail] + weight
                    updated = True
            if not updated:
                return False
        return True


def _seed_oracle(graph: ExecutionGraph, ratio: Fraction) -> bool:
    r = max(ratio, Fraction(1))
    return _SeedTraversalDigraph(
        graph, r.numerator, r.denominator
    ).has_negative_cycle()


def seed_worst_relevant_ratio(graph: ExecutionGraph) -> Fraction | None:
    if not _seed_oracle(graph, Fraction(1)):
        return None
    max_den = max(len(graph.messages), 1)

    def oracle(num: int, den: int) -> bool:
        return _seed_oracle(graph, Fraction(num, den))

    def max_k(true_for: int, probe) -> int:
        k = max(true_for, 1)
        while probe(2 * k):
            k *= 2
        lo, hi = k, 2 * k
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if probe(mid):
                lo = mid
            else:
                hi = mid
        return lo

    lo_num, lo_den = 1, 1
    hi_num, hi_den = 1, 0
    while lo_den + hi_den <= max_den:
        if oracle(lo_num + hi_num, lo_den + hi_den):
            k = max_k(1, lambda k: oracle(lo_num + k * hi_num, lo_den + k * hi_den))
            lo_num, lo_den = lo_num + k * hi_num, lo_den + k * hi_den
        else:

            def still_false(k: int) -> bool:
                num, den = k * lo_num + hi_num, k * lo_den + hi_den
                return den <= max_den and not oracle(num, den)

            if not still_false(1):
                hi_num, hi_den = lo_num + hi_num, lo_den + hi_den
                continue
            k = max_k(1, still_false)
            hi_num, hi_den = k * lo_num + hi_num, k * lo_den + hi_den
    return Fraction(lo_num, lo_den)


# ----------------------------------------------------------------------
# Workload and contenders
# ----------------------------------------------------------------------


def make_workload(
    n_events: int, n_processes: int = 4, seed: int = 7
) -> tuple[Trace, list[ExecutionGraph]]:
    """A growing random trace plus its per-record prefix graphs."""
    import random

    trace = streaming_trace(
        random.Random(seed), n_processes=n_processes, n_records=n_events
    )
    prefixes = [
        build_execution_graph(Trace(trace.n, trace.faulty, trace.records[:k]))
        for k in range(1, len(trace.records) + 1)
    ]
    return trace, prefixes


def run_monitor(trace: Trace) -> list[Fraction | None]:
    monitor = OnlineAbcMonitor(faulty=trace.faulty)
    return [monitor.observe(record) for record in trace.records]


def run_batch(prefixes: list[ExecutionGraph]) -> list[Fraction | None]:
    return [worst_relevant_ratio(g) for g in prefixes]


def run_seed(prefixes: list[ExecutionGraph]) -> list[Fraction | None]:
    return [seed_worst_relevant_ratio(g) for g in prefixes]


def _timed(fn, *args):
    start = time.perf_counter()
    result = fn(*args)
    return result, time.perf_counter() - start


# ----------------------------------------------------------------------
# pytest-benchmark entries
# ----------------------------------------------------------------------


def test_monitor_vs_seed_speedup_and_exactness():
    """The acceptance gate: >=5x over the seed on 200 growing events,
    with the monitor exact on every prefix."""
    trace, prefixes = make_workload(DEFAULT_EVENTS)
    monitor_result, monitor_s = _timed(run_monitor, trace)
    batch_result, batch_s = _timed(run_batch, prefixes)
    seed_result, seed_s = _timed(run_seed, prefixes)
    assert monitor_result == batch_result == seed_result
    speedup = seed_s / monitor_s
    assert speedup >= SPEEDUP_FLOOR, (
        f"monitor {monitor_s:.3f}s vs seed {seed_s:.3f}s = {speedup:.1f}x, "
        f"need >= {SPEEDUP_FLOOR}x"
    )
    sys.stderr.write(
        f"\n[bench_table_incremental] events={DEFAULT_EVENTS} "
        f"seed={seed_s:.3f}s batch={batch_s:.3f}s monitor={monitor_s:.3f}s "
        f"speedup(seed/monitor)={speedup:.1f}x "
        f"(batch/monitor)={batch_s / monitor_s:.1f}x\n"
    )


def test_monitor_running_ratio(benchmark):
    trace, prefixes = make_workload(DEFAULT_EVENTS)
    expected = run_batch(prefixes)

    result = benchmark(run_monitor, trace)
    assert result == expected
    benchmark.extra_info["events"] = len(trace.records)
    benchmark.extra_info["messages"] = len(prefixes[-1].messages)
    benchmark.extra_info["final_worst"] = str(result[-1])


def test_batch_running_ratio(benchmark):
    trace, prefixes = make_workload(DEFAULT_EVENTS)

    result = benchmark(run_batch, prefixes)
    benchmark.extra_info["events"] = len(trace.records)
    benchmark.extra_info["final_worst"] = str(result[-1])


def test_checker_reuse_single_graph(benchmark):
    """The worst-ratio climb on one large graph: the
    AdmissibilityChecker builds the traversal digraph once for all
    oracle calls."""
    from repro.core.synchrony import AdmissibilityChecker

    _trace, prefixes = make_workload(DEFAULT_EVENTS)
    graph = prefixes[-1]

    def run():
        checker = AdmissibilityChecker(graph)
        worst = checker.worst_relevant_ratio()
        return worst, checker.oracle_calls

    (worst, calls) = benchmark(run)
    assert worst == seed_worst_relevant_ratio(graph)
    benchmark.extra_info["oracle_calls"] = calls
    benchmark.extra_info["worst"] = str(worst)


# ----------------------------------------------------------------------
# script mode (CI smoke, manual sizing)
# ----------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=(
            "Compare incremental ?ABC monitoring against per-prefix "
            "batch recomputation on a growing random trace."
        )
    )
    parser.add_argument(
        "--events", type=int, default=DEFAULT_EVENTS, help="trace length"
    )
    parser.add_argument("--processes", type=int, default=4)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--skip-seed-baseline",
        action="store_true",
        help="only run monitor and current batch (the seed baseline is slow)",
    )
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=None,
        help="exit non-zero unless seed/monitor speedup reaches this",
    )
    args = parser.parse_args(argv)

    trace, prefixes = make_workload(args.events, args.processes, args.seed)
    monitor_result, monitor_s = _timed(run_monitor, trace)
    batch_result, batch_s = _timed(run_batch, prefixes)
    if monitor_result != batch_result:
        print("MISMATCH between monitor and batch results")
        return 1
    print(
        f"events={args.events} messages={len(prefixes[-1].messages)} "
        f"final_worst={monitor_result[-1]}"
    )
    print(f"monitor        {monitor_s * 1e3:10.1f} ms")
    print(
        f"batch          {batch_s * 1e3:10.1f} ms "
        f"({batch_s / monitor_s:6.1f}x slower)"
    )
    if not args.skip_seed_baseline:
        seed_result, seed_s = _timed(run_seed, prefixes)
        if seed_result != monitor_result:
            print("MISMATCH between monitor and seed results")
            return 1
        speedup = seed_s / monitor_s
        print(f"seed baseline  {seed_s * 1e3:10.1f} ms ({speedup:6.1f}x slower)")
        if args.min_speedup is not None and speedup < args.min_speedup:
            print(f"FAIL: speedup {speedup:.1f}x < {args.min_speedup}x")
            return 1
    print("results exact on every prefix")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
