"""Negative-cycle detection: the repair pass behind every oracle query.

Every oracle query of :class:`~repro.core.synchrony.AdmissibilityChecker`
bottoms out in negative-cycle detection on the traversal digraph ``H``,
and one routine does it: :func:`repair_potential`, the *repair pass*
over the checker's stored potential.  The potential is one integer per
node, feasible for every covered H-edge at the checker's running worst
ratio; the pass extends it over the H-edges added since the last pass
and repairs it where a new edge is violated (Cotton & Maler, SAT 2006;
Ramalingam et al., Algorithmica 1999).  The worst ratio it leaves
answers every query: ``ratio >= p/q`` holds iff the worst reaches
``p/q``, and the cycle that realizes the worst is the witness.

**Detection returns the cycle.**  The pass answers with the H-edge ids
of the last simple negative cycle it closed, or ``None``.  The checker
jumps to the ratio ``B/F`` of each cycle a repair closes, and the last
such cycle is the monitor's Xi witness.  Every comparison is on
arbitrary-precision Python integers, so large numerators, denominators
or summary hop counts change no answer.

The checker reaches the pass through a :class:`PotentialKernel` it
makes for each run, so a profiler can time every run by wrapping
``has_negative_cycle`` on the :class:`Kernel` subclasses.  Scratch
state lives in the run, never in this module, because thread workers
share one process.  :func:`resolve_kernel_name` names the routine for
reports.

This module deliberately imports nothing from
:mod:`repro.core.synchrony` (which imports *it*): the pass reads the
checker's struct-of-arrays digraph (``_tails`` / ``_adj`` / weight
tables) through the instance it is given.  The edge-kind tags live
here as the canonical definition.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle broken at runtime
    from repro.core.synchrony import AdmissibilityChecker

__all__ = [
    "Kernel",
    "PotentialKernel",
    "repair_potential",
    "resolve_kernel_name",
    "start_nodes",
]

# Edge kinds of the traversal digraph; weights per (p, q) query are
# derived from the kind, so only these tags are stored per edge.  Kinds
# at or above SUMMARY index the checker's deduplicated
# (forward, backward, local) summary-profile table.
FWD_MESSAGE = 0
BWD_MESSAGE = 1
BWD_LOCAL = 2
SUMMARY = 3


def _cycle_from_predecessors(
    pred: dict[int, int], tails: list[int], start: int
) -> list[int]:
    """The cycle a repair closed: follow predecessor links from
    ``start`` until they lead back to it, in walk order."""
    cycle: list[int] = []
    node = start
    while True:
        eidx = pred[node]
        cycle.append(eidx)
        node = tails[eidx]
        if node == start:
            break
    cycle.reverse()
    return cycle


def start_nodes(
    pot: list[int], adj: list[list[tuple[int, int, int]]], wtab: list[int]
) -> None:
    """Give every node past the end of ``pot`` its start value.

    A new node starts at the smallest value its out-edges to older
    nodes allow, ``max(pot[head] - w)``, so none of those edges is
    violated.  A new receive event's only other H-edge is its incoming
    forward message, the one edge a repair may have to fix.  A node
    with no such out-edge (a process's first wake-up) starts at the
    newest node's value: the potential reads as a time, and the newest
    event is the latest guess.
    """
    for x in range(len(pot), len(adj)):
        start = None
        for y, kind, _ in adj[x]:
            if y < x:
                value = pot[y] - wtab[kind]
                if start is None or value > start:
                    start = value
        if start is None:
            start = pot[-1] if pot else 0
        pot.append(start)


def repair_potential(checker: "AdmissibilityChecker") -> list[int] | None:
    """Extend the checker's potential over its uncovered H-edges.

    ``checker._pot`` is feasible for every H-edge with an id below
    ``checker._pot_edges`` under the weights of the checker's running
    worst ratio: each such edge ``u -> v`` of weight ``w`` has a
    nonnegative reduced cost ``pot[u] + w - pot[v]``.  New nodes get
    their start values (:func:`start_nodes`), then the uncovered edges
    are taken in id order.  A violated edge ``u -> v`` starts a
    Dijkstra search on reduced costs from ``v``, over the edges already
    covered, that lowers exactly the nodes whose value must drop.  The
    search is bounded by the size of the violation: a node is reached
    only while the drop it needs stays negative.  If it needs ``u``
    itself to drop, it has closed a cycle through the edge, of weight
    that drop: a negative cycle, so one of ratio ``B/F`` above the
    running worst.  The search is then discarded, the checker jumps to
    that ratio (``checker._jump``, which keeps every covered edge
    feasible), and the edge is retried.  Otherwise the drops are
    applied and the pass goes on.

    Returns the H-edge ids, in walk order, of the last cycle the pass
    closed -- the one that realizes the new worst ratio -- or ``None``
    when the ratio did not move.  The cycle is simple: it is the search
    tree's path from ``v`` to the node that reached ``u``, closed by
    the edge, and ``u`` has no earlier label (its first one ends the
    search).  A causal cycle raises ``ValueError`` from the jump, with
    the covered edges still feasible.
    """
    wtab = checker._potential_weights()
    pot = checker._pot
    adj = checker._adj
    if len(pot) < len(adj):
        start_nodes(pot, adj, wtab)
    tails = checker._tails
    heads = checker._heads
    kinds = checker._kinds
    m = len(tails)
    private = False
    last = None
    e = checker._pot_edges
    while e < m:
        u = tails[e]
        v = heads[e]
        slack = pot[u] + wtab[kinds[e]] - pot[v]
        if slack >= 0:
            e += 1
            continue
        if u == v:  # a summary edge looping one node: its own cycle
            cycle = [e]
        else:
            if not private:
                pot = checker._private_potential()
                private = True
            cycle = _repair(checker, pot, adj, tails, wtab, e, u, v, slack)
            if cycle is None:
                e += 1
                continue
        checker._pot_edges = e
        checker._jump(checker._cycle_ratio(cycle), cycle)
        checker.ratio_jumps += 1
        last = cycle
        wtab = checker._potential_weights()
        pot = checker._pot  # a rescaled jump made a fresh list
        private = not checker._pot_shared
    checker._pot_edges = m
    return last


def _repair(
    checker: "AdmissibilityChecker",
    pot: list[int],
    adj: list[list[tuple[int, int, int]]],
    tails: list[int],
    wtab: list[int],
    e: int,
    u: int,
    v: int,
    slack: int,
) -> list[int] | None:
    """One Dijkstra repair for the violated edge ``e = u -> v``.

    ``shift[x]`` is the change ``x``'s value needs, a negative number;
    along an edge it grows by the edge's reduced cost, so nodes settle
    in increasing order of ``shift``.  A node reached over a zero
    reduced cost settles at the current key and skips the heap.  Edges
    with an id at or above ``e`` are not constraints yet, so the search
    does not follow them.
    """
    shift = {v: slack}
    pred = {v: e}
    heap: list[tuple[int, int]] = []
    same = [v]  # labeled at the current key: settled next
    key = slack
    while True:
        if same:
            x = same.pop()
        else:
            while heap:
                key, x = heappop(heap)
                if shift[x] == key:
                    break
            else:
                break
        base = pot[x] + key
        for y, kind, eid in adj[x]:
            if eid >= e:
                continue
            need = base + wtab[kind] - pot[y]
            if need < shift.get(y, 0):
                pred[y] = eid
                if y == u:
                    checker.repairs += 1
                    checker.repaired_nodes += len(shift)
                    return _cycle_from_predecessors(pred, tails, u)
                shift[y] = need
                if need == key:
                    same.append(y)
                else:
                    heappush(heap, (need, y))
    for x, delta in shift.items():
        pot[x] += delta
    checker.repairs += 1
    checker.repaired_nodes += len(shift)
    return None


class Kernel:
    """A checker's handle on the detection routine.

    Each subclass's ``has_negative_cycle`` is one detection run over
    the checker the kernel was made for -- the method a profiler wraps
    to time detection.
    """

    def __init__(self, checker: "AdmissibilityChecker") -> None:
        self._checker = checker


class PotentialKernel(Kernel):
    """:func:`repair_potential` over the checker's stored potential."""

    name = "potential"

    def has_negative_cycle(self) -> list[int] | None:
        """One repair pass: the H-edge ids of the last negative cycle it
        closed, or ``None`` when it closed none."""
        return repair_potential(self._checker)


def resolve_kernel_name(spec: str | None = None) -> str:
    """The name of the detection routine: ``"potential"``.

    ``None`` and ``"potential"`` resolve to it; any other name raises
    ``ValueError``.
    """
    if spec is not None and spec != PotentialKernel.name:
        raise ValueError(
            f"unknown kernel {spec!r}; the only kernel is "
            f"{PotentialKernel.name!r}"
        )
    return PotentialKernel.name
