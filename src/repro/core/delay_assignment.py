"""Delay assignments for ABC execution graphs (Theorems 7 and 12).

Theorem 7 is the technical heart of the paper's model-indistinguishability
result: every finite ABC-admissible execution graph admits a *normalized
assignment* ``tau`` of end-to-end delays with

    1 < tau(e) < Xi        for every message ``e``,            (4)
    0 < tau(ebar) < inf    for every local edge ``ebar``,      (5)

such that the weighted graph ``G^tau`` is causally equivalent to ``G``
(all cycle sums are zero).  Messages of ``G^tau`` then satisfy the
Theta-Model condition (3) for every ``Theta > Xi``.

Two constructions are provided:

* :func:`normalized_assignment` - the *potential* method.  With
  ``Xi = p/q`` and scale ``M = max(#events, 1)``, look for integer event
  times ``T`` with ``qM + 1 <= T(head) - T(tail) <= pM - 1`` per message
  and ``T(head) - T(tail) >= 1`` per local edge.  In the constraint graph
  of these difference constraints a relevant cycle with ``F`` forward
  messages, ``B`` backward messages and ``L`` local edges weighs
  ``M(pF - qB) - (F + B + L)``, and a simple cycle has at most ``M``
  edges, so ``T`` exists iff no relevant cycle has ``B/F >= Xi``.  One
  integer Bellman-Ford decides it, and ``t = T/(qM)`` is a normalized
  assignment with certified margin ``1/(qM)``.  Any potential zeroes
  every cycle sum automatically.

* :func:`build_farkas_system` - the explicit ``A x < b`` system of
  Figure 6 in exact arithmetic, with one row per message bound and per
  cycle, and the certificate machinery of Theorem 12
  (:func:`canonical_solution`, :func:`farkas_certificate_value`).  A
  normalized assignment's message delays solve it strictly: a cycle's
  zero sum leaves its row equal to minus its positive local delays.  An
  inadmissible graph's system is refuted by the Carver certificate of one
  relevant cycle of ratio at least ``Xi``.  This reproduces Section 4.1
  literally and is exponential, hence only for small graphs.

Implementation note on the cycle rows: a cycle constrains the message
weights only when all its local edges lie in one traversal class.  For a
relevant cycle (all local edges backward) the zero-sum condition forces
condition (6); for the mirror-image cycles whose local edges are all
forward under the Definition-3 orientation (non-relevant because (1)
flipped the orientation), it forces the sign-swapped inequality - these
are the paper's non-relevant rows, cp. Figure 4.  Cycles whose local
edges appear in *both* classes impose no sign constraint on the message
weights (their zero-sum can always be balanced by choosing the positive
local weights on either side), so they contribute no row.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from repro.core.cycles import AGAINST, classify, enumerate_cycles
from repro.core.events import Event
from repro.core.execution_graph import Edge, ExecutionGraph, MessageEdge

__all__ = [
    "DelayAssignment",
    "normalized_assignment",
    "assignment_exists",
    "verify_normalized",
    "FarkasSystem",
    "build_farkas_system",
    "canonical_solution",
    "farkas_certificate_value",
    "certificate_from_cycle_coefficients",
]


@dataclass(frozen=True)
class DelayAssignment:
    """A normalized assignment ``tau`` together with its potential.

    Attributes:
        times: exact rational occurrence time per event (the potential).
        xi: the synchrony parameter the assignment was built for.
        epsilon: the certified margin: every message delay lies in
            ``[1 + epsilon, Xi - epsilon]`` and every local delay is at
            least ``epsilon``.
    """

    times: Mapping[Event, Fraction]
    xi: Fraction
    epsilon: Fraction

    def delay(self, edge: Edge) -> Fraction:
        """``tau(e)``: the assigned end-to-end delay of an edge."""
        return self.times[edge.dst] - self.times[edge.src]

    def delays(self, graph: ExecutionGraph) -> dict[Edge, Fraction]:
        return {edge: self.delay(edge) for edge in graph.edges()}

    def message_delay_ratio(self, graph: ExecutionGraph) -> Fraction | None:
        """``max tau / min tau`` over messages: the effective Theta."""
        delays = [self.delay(m) for m in graph.messages]
        if not delays:
            return None
        return max(delays) / min(delays)


def normalized_assignment(
    graph: ExecutionGraph, xi: Fraction | int | float
) -> DelayAssignment | None:
    """An exact normalized assignment for ``graph``, or ``None``.

    By Theorem 7 the result is not ``None`` exactly when the graph is
    ABC-admissible for ``xi``.  The integer times ``T`` of the module
    docstring come from Bellman-Ford over the constraint edges
    ``T[head] <= T[tail] + c`` from a virtual source; ``None`` means a
    negative cycle, which is a relevant cycle of ratio at least ``xi``.
    """
    xi_frac = Fraction(xi)
    if xi_frac <= 1:
        raise ValueError(f"the ABC model requires Xi > 1, got {xi_frac}")
    events = list(graph.events())
    index = {ev: i for i, ev in enumerate(events)}
    size = max(len(events), 1)
    scale = xi_frac.denominator * size
    upper = xi_frac.numerator * size - 1
    constraint_edges: list[tuple[int, int, int]] = []
    for m in graph.messages:
        u, v = index[m.src], index[m.dst]
        constraint_edges.append((u, v, upper))
        constraint_edges.append((v, u, -(scale + 1)))
    for loc in graph.local_edges:
        constraint_edges.append((index[loc.dst], index[loc.src], -1))

    dist = [0] * len(events)
    for _ in range(len(events) + 1):
        changed = False
        for tail, head, weight in constraint_edges:
            candidate = dist[tail] + weight
            if candidate < dist[head]:
                dist[head] = candidate
                changed = True
        if not changed:
            times = {ev: Fraction(dist[i], scale) for ev, i in index.items()}
            return DelayAssignment(times, xi_frac, Fraction(1, scale))
    return None


def assignment_exists(
    graph: ExecutionGraph, xi: Fraction | int | float
) -> bool:
    """Whether a normalized assignment exists (Theorem 7's conclusion)."""
    return normalized_assignment(graph, xi) is not None


def verify_normalized(
    graph: ExecutionGraph,
    assignment: DelayAssignment,
    check_cycle_sums: bool = False,
) -> bool:
    """Check conditions (4) and (5) exactly; optionally re-verify that all
    enumerated cycle sums vanish (they do by construction for potentials;
    the flag exists for cross-validation on small graphs)."""
    xi = assignment.xi
    for m in graph.messages:
        tau = assignment.delay(m)
        if not (1 < tau < xi):
            return False
    for loc in graph.local_edges:
        if assignment.delay(loc) <= 0:
            return False
    if check_cycle_sums:
        for cycle in enumerate_cycles(graph):
            total = Fraction(0)
            for step in cycle.steps:
                total += step.direction * assignment.delay(step.edge)
            if total != 0:
                return False
    return True


# ----------------------------------------------------------------------
# The explicit Farkas system of Figure 6 (Section 4.1)
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class FarkasSystem:
    """The linear system ``A x < b`` of Figure 6, in exact arithmetic.

    Rows: ``k`` lower bounds (``-tau(e) < -1``), ``k`` upper bounds
    (``tau(e) < Xi``), ``l`` relevant-cycle rows (condition (6)) and ``m``
    non-relevant-cycle rows (sign-flipped (6)).  Columns: one per message.

    Attributes:
        matrix: the ``2k + l + m`` rows of ``A``, ``k`` ints each.
        rhs: the right-hand side ``b``.
        messages: column order.
        n_relevant / n_nonrelevant: the counts ``l`` and ``m``.
    """

    matrix: tuple[tuple[int, ...], ...]
    rhs: tuple[Fraction, ...]
    messages: tuple[MessageEdge, ...]
    n_relevant: int
    n_nonrelevant: int
    xi: Fraction

    @property
    def n_messages(self) -> int:
        return len(self.messages)

    def cycle_rows(self) -> tuple[tuple[int, ...], ...]:
        """The cycle part of ``A`` (relevant rows first)."""
        return self.matrix[2 * self.n_messages :]

    def strictly_solved_by(self, x: Sequence[Fraction]) -> bool:
        """Whether ``A x < b`` holds in every row (``x`` in column order)."""
        return all(
            sum(a * xj for a, xj in zip(row, x, strict=True)) < b
            for row, b in zip(self.matrix, self.rhs)
        )


def build_farkas_system(
    graph: ExecutionGraph, xi: Fraction | int | float
) -> FarkasSystem:
    """Construct the explicit system of Figure 6 (small graphs only).

    Cycle rows are generated for every enumerated cycle whose local edges
    all lie in one traversal class (see the module docstring): relevant
    cycles contribute ``+1`` per backward / ``-1`` per forward message
    (condition (6)); all-locals-forward cycles contribute the sign-flipped
    row.  Messages on no such cycle are still bounded by the ``2k`` box
    rows.
    """
    xi_frac = Fraction(xi)
    messages = graph.messages
    col = {m: i for i, m in enumerate(messages)}
    k = len(messages)
    relevant_rows: list[tuple[int, ...]] = []
    nonrelevant_rows: list[tuple[int, ...]] = []
    for cycle in enumerate_cycles(graph):
        info = classify(cycle)
        local_dirs = {s.direction for s in info.cycle.local_steps()}
        if len(local_dirs) != 1:
            continue  # mixed-local cycles impose no sign constraint
        row = [0] * k
        for step in info.cycle.message_steps():
            row[col[step.edge]] += 1 if step.direction == AGAINST else -1
        if info.relevant:
            relevant_rows.append(tuple(row))
        else:
            # Locals all forward under the Definition-3 orientation: the
            # canonical walk has them ALONG, so flip to get the row.
            nonrelevant_rows.append(tuple(-a for a in row))
    lower = [tuple(-int(i == j) for j in range(k)) for i in range(k)]
    upper = [tuple(int(i == j) for j in range(k)) for i in range(k)]
    n_cycles = len(relevant_rows) + len(nonrelevant_rows)
    rhs = (Fraction(-1),) * k + (xi_frac,) * k + (Fraction(0),) * n_cycles
    return FarkasSystem(
        tuple(lower + upper + relevant_rows + nonrelevant_rows),
        rhs,
        messages,
        len(relevant_rows),
        len(nonrelevant_rows),
        xi_frac,
    )


def canonical_solution(
    system: FarkasSystem, y: Sequence[Fraction]
) -> list[Fraction]:
    """The canonical certificate ``ybar`` of Theorem 12.

    Given ``y >= 0`` with ``y^T A = 0``, produce ``ybar`` with the same
    cycle coefficients and complementary upper coefficients (``ybar_j = 0``
    or ``ybar_{k+j} = 0``).  Entries stay exact; clearing rational
    denominators to integers is left to the caller.
    """
    k = system.n_messages
    if len(y) != len(system.matrix):
        raise ValueError("certificate length does not match the system")
    ybar = list(y)
    for j in range(k):
        low, up = y[j], y[k + j]
        ybar[j], ybar[k + j] = max(low - up, 0), max(up - low, 0)
    return ybar


def farkas_certificate_value(
    system: FarkasSystem, y: Sequence[Fraction]
) -> Fraction:
    """``y^T b``; Theorem 10 (Carver) requires this to be positive for all
    ``y > 0`` with ``y^T A = 0`` when ``A x < b`` is solvable."""
    return sum(
        (yi * bi for yi, bi in zip(y, system.rhs, strict=True)), Fraction(0)
    )


def certificate_from_cycle_coefficients(
    system: FarkasSystem, cycle_coefficients: Iterable[Fraction]
) -> list[Fraction]:
    """Build ``y >= 0`` with ``y^T A = 0`` from given cycle multipliers.

    Equation (7) determines the upper coefficients from the combined
    cycle row ``s``: ``y_{k+j} - y_j + s_j = 0`` with the canonical choice
    ``y_j = max(s_j, 0)`` and ``y_{k+j} = max(-s_j, 0)``.  This is how the
    test-suite generates arbitrarily many Farkas certificates to check
    Lemmas 7 and 11 against the matrix; one unit multiplier on a relevant
    cycle of ratio ``B/F >= Xi`` gives ``y^T b = Xi F - B <= 0``.
    """
    coeffs = list(cycle_coefficients)
    rows = system.cycle_rows()
    if len(coeffs) != len(rows):
        raise ValueError(f"expected {len(rows)} cycle coefficients")
    if any(c < 0 for c in coeffs):
        raise ValueError("cycle coefficients must be non-negative")
    s = [sum(c * row[j] for c, row in zip(coeffs, rows))
         for j in range(system.n_messages)]
    return [max(v, 0) for v in s] + [max(-v, 0) for v in s] + coeffs
