"""F6 -- Figure 6: the linear system A x < b and its solution.

Paper claim: the system (2k bound rows + one row per constrained cycle)
is solvable for every ABC-admissible finite execution graph (Theorem 12).
Measured: construction of the explicit (exponential) system for small
graphs, solved strictly by the normalized assignment's message delays,
and the potential formulation's scaling on simulated executions of
growing size.
"""

from fractions import Fraction

import pytest

from repro.core import build_farkas_system, normalized_assignment
from repro.scenarios import fig3_graph
from repro.scenarios.generators import theta_band_trace
from repro.sim import build_execution_graph

XI = Fraction(2)


def test_explicit_farkas_system(benchmark):
    graph, _ = fig3_graph(2)

    def build_and_solve():
        system = build_farkas_system(graph, Fraction(5, 2))
        assignment = normalized_assignment(graph, Fraction(5, 2))
        return system, [assignment.delay(m) for m in system.messages]

    system, x = benchmark(build_and_solve)
    assert system.strictly_solved_by(x)
    benchmark.extra_info["rows"] = len(system.matrix)
    benchmark.extra_info["cols"] = system.n_messages
    benchmark.extra_info["relevant_rows"] = system.n_relevant
    benchmark.extra_info["nonrelevant_rows"] = system.n_nonrelevant


@pytest.mark.parametrize("max_tick", [3, 6, 9])
def test_potential_formulation_scaling(benchmark, max_tick):
    trace = theta_band_trace(n=4, f=1, theta=1.5, max_tick=max_tick, seed=1)
    graph = build_execution_graph(trace)

    def assign():
        return normalized_assignment(graph, XI)

    assignment = benchmark(assign)
    assert assignment is not None
    benchmark.extra_info["events"] = graph.n_events
    benchmark.extra_info["messages"] = len(graph.messages)
    benchmark.extra_info["epsilon"] = str(assignment.epsilon)
