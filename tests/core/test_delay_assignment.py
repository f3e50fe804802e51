"""Tests for Theorem 7 / Theorem 12: delay assignments and Farkas."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.delay_assignment import (
    assignment_exists,
    build_farkas_system,
    canonical_solution,
    certificate_from_cycle_coefficients,
    farkas_certificate_value,
    normalized_assignment,
    verify_normalized,
)
from repro.core.execution_graph import ExecutionGraph
from repro.core.synchrony import check_abc, worst_relevant_ratio
from repro.scenarios.generators import random_execution_graph


def message_delays(system, assignment):
    """The assignment's message delays in the system's column order."""
    return [assignment.delay(m) for m in system.messages]


def times_matrix(y, rows, k):
    """``y^T rows``, exactly."""
    return [sum(yi * row[j] for yi, row in zip(y, rows)) for j in range(k)]


def one_cycle_certificate_values(system):
    """``y^T b`` for the certificate of each single cycle row."""
    n_cycles = system.n_relevant + system.n_nonrelevant
    values = []
    for i in range(n_cycles):
        coeffs = [0] * n_cycles
        coeffs[i] = 1
        y = certificate_from_cycle_coefficients(system, coeffs)
        values.append(farkas_certificate_value(system, y))
    return values


class TestNormalizedAssignment:
    def test_exists_above_worst_ratio(self, fig3_like_graph):
        a = normalized_assignment(fig3_like_graph, Fraction(5, 2))
        assert a is not None
        assert verify_normalized(fig3_like_graph, a, check_cycle_sums=True)

    def test_absent_at_or_below_worst_ratio(self, fig3_like_graph):
        assert normalized_assignment(fig3_like_graph, 2) is None

    def test_delays_strictly_inside_bounds(self, fig3_like_graph):
        xi = Fraction(5, 2)
        a = normalized_assignment(fig3_like_graph, xi)
        for m in fig3_like_graph.messages:
            assert 1 < a.delay(m) < xi
        for loc in fig3_like_graph.local_edges:
            assert a.delay(loc) > 0

    def test_margin_is_certified(self, fig3_like_graph):
        xi = Fraction(5, 2)
        a = normalized_assignment(fig3_like_graph, xi)
        assert a.epsilon > 0
        for m in fig3_like_graph.messages:
            assert 1 + a.epsilon <= a.delay(m) <= xi - a.epsilon
        for loc in fig3_like_graph.local_edges:
            assert a.delay(loc) >= a.epsilon

    def test_effective_theta_below_xi(self, fig3_like_graph):
        xi = Fraction(5, 2)
        a = normalized_assignment(fig3_like_graph, xi)
        assert a.message_delay_ratio(fig3_like_graph) < xi

    def test_assignment_is_exact_rational(self, broadcast_graph):
        a = normalized_assignment(broadcast_graph, 2)
        assert all(isinstance(t, Fraction) for t in a.times.values())

    def test_invalid_xi_rejected(self, broadcast_graph):
        with pytest.raises(ValueError):
            normalized_assignment(broadcast_graph, 1)

    @pytest.mark.parametrize("events", [{}, {0: []}], ids=["none", "empty"])
    def test_graph_without_events(self, events):
        graph = ExecutionGraph(events, [])
        assert check_abc(graph, 2).admissible
        a = normalized_assignment(graph, 2)
        assert a is not None
        assert verify_normalized(graph, a, check_cycle_sums=True)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_theorem7_equivalence_on_random_graphs(seed):
    """Theorem 7 (and its converse): a normalized assignment exists iff
    the graph is ABC-admissible."""
    rng = random.Random(seed)
    graph = random_execution_graph(rng, 3, rng.randint(2, 8))
    for xi in (Fraction(3, 2), Fraction(2), Fraction(3)):
        admissible = check_abc(graph, xi).admissible
        assert assignment_exists(graph, xi) == admissible, f"xi={xi}"


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_assignment_verifies_when_it_exists(seed):
    rng = random.Random(seed)
    graph = random_execution_graph(rng, 3, rng.randint(2, 7))
    worst = worst_relevant_ratio(graph)
    xi = (worst + Fraction(1, 2)) if worst is not None else Fraction(2)
    a = normalized_assignment(graph, xi)
    assert a is not None
    assert verify_normalized(graph, a, check_cycle_sums=True)


class TestFarkasSystem:
    def test_shape_matches_figure6(self, fig3_like_graph):
        system = build_farkas_system(fig3_like_graph, Fraction(5, 2))
        k = system.n_messages
        n_rows = 2 * k + system.n_relevant + system.n_nonrelevant
        assert len(system.matrix) == len(system.rhs) == n_rows
        assert all(len(row) == k for row in system.matrix)
        # Upper part: -I over I.
        identity = [tuple(int(i == j) for j in range(k)) for i in range(k)]
        assert list(system.matrix[:k]) == [
            tuple(-a for a in row) for row in identity
        ]
        assert list(system.matrix[k : 2 * k]) == identity
        # Right-hand side: -1s, then Xi, then zeros.
        assert system.rhs[:k] == (-1,) * k
        assert system.rhs[k : 2 * k] == (Fraction(5, 2),) * k
        assert system.rhs[2 * k :] == (0,) * (n_rows - 2 * k)

    def test_solvable_iff_admissible(self, fig3_like_graph):
        good = build_farkas_system(fig3_like_graph, Fraction(5, 2))
        a = normalized_assignment(fig3_like_graph, Fraction(5, 2))
        assert good.strictly_solved_by(message_delays(good, a))
        assert not good.strictly_solved_by([Fraction(1)] * good.n_messages)
        # Carver: some y >= 0 with y^T A = 0 and y^T b <= 0 rules out
        # every strict solution.
        bad = build_farkas_system(fig3_like_graph, 2)
        assert min(one_cycle_certificate_values(bad)) <= 0

    def test_cycle_rows_have_unit_coefficients(self, fig3_like_graph):
        system = build_farkas_system(fig3_like_graph, 2)
        rows = system.cycle_rows()
        assert rows
        assert {a for row in rows for a in row} <= {-1, 0, 1}

    def test_certificates_positive_when_admissible(self, fig3_like_graph):
        """Theorem 12's core: every y >= 0 with yTA = 0 built from cycle
        coefficients has yTb > 0 when Xi exceeds the worst ratio."""
        system = build_farkas_system(fig3_like_graph, Fraction(5, 2))
        k = system.n_messages
        rng = random.Random(7)
        n_cycles = system.n_relevant + system.n_nonrelevant
        for _ in range(25):
            coeffs = [rng.randint(0, 3) for _ in range(n_cycles)]
            if not any(coeffs):
                continue
            y = certificate_from_cycle_coefficients(system, coeffs)
            assert times_matrix(y, system.matrix, k) == [0] * k
            assert min(y) >= 0
            value = farkas_certificate_value(system, y)
            if any(times_matrix(coeffs, system.cycle_rows(), k)):
                assert value > 0

    def test_certificate_can_be_nonpositive_when_inadmissible(
        self, fig3_like_graph
    ):
        system = build_farkas_system(fig3_like_graph, Fraction(3, 2))
        # Farkas blocks the infeasible system.
        assert min(one_cycle_certificate_values(system)) <= 0

    def test_canonical_solution_complementary(self, fig3_like_graph):
        system = build_farkas_system(fig3_like_graph, 2)
        k = system.n_messages
        n_cycles = system.n_relevant + system.n_nonrelevant
        y = [Fraction(1, 2)] * (2 * k) + [0] * n_cycles
        ybar = canonical_solution(system, y)
        for j in range(k):
            assert ybar[j] == 0 or ybar[k + j] == 0

    def test_coefficient_validation(self, fig3_like_graph):
        system = build_farkas_system(fig3_like_graph, 2)
        with pytest.raises(ValueError):
            certificate_from_cycle_coefficients(system, [1])
        n_cycles = system.n_relevant + system.n_nonrelevant
        with pytest.raises(ValueError):
            certificate_from_cycle_coefficients(system, [-1] * n_cycles)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_figure6_solved_or_refuted_exactly(seed):
    """Theorem 12 both ways: an admissible graph's assignment solves
    ``A x < b`` strictly, and otherwise one relevant cycle's Carver
    certificate (``y^T b <= 0``) shows that no strict solution exists."""
    rng = random.Random(seed)
    graph = random_execution_graph(rng, 3, rng.randint(2, 6))
    for xi in (Fraction(3, 2), Fraction(2), Fraction(3)):
        system = build_farkas_system(graph, xi)
        a = normalized_assignment(graph, xi)
        if check_abc(graph, xi).admissible:
            assert a is not None
            assert system.strictly_solved_by(message_delays(system, a))
        else:
            assert a is None
            assert min(one_cycle_certificate_values(system)) <= 0
