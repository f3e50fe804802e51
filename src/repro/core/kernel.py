"""Negative-cycle detection: the two routines behind every oracle query.

Every oracle query of :class:`~repro.core.synchrony.AdmissibilityChecker`
bottoms out in negative-cycle detection on the traversal digraph ``H``
re-weighted for a ratio.  Two routines do it, reading the checker's
adjacency lists directly:

* :func:`negative_cycle` -- the round-batched SPFA from a virtual
  source, for the one-shot *inclusive* queries (``ratio >= p/q``:
  :meth:`~repro.core.synchrony.AdmissibilityChecker.has_ratio_at_least`,
  ``violating_cycle``, ``check``).  It holds no state between runs.
* :func:`repair_potential` -- the *repair pass* over the checker's
  stored potential, for every worst-ratio query.  The potential is one
  integer per node, feasible for every covered H-edge at the checker's
  running worst ratio; the pass extends it over the H-edges added since
  the last pass and repairs it where a new edge is violated (Cotton &
  Maler, SAT 2006; Ramalingam et al., Algorithmica 1999).

**Detection returns the cycle.**  Both routines answer with the H-edge
ids of one simple negative cycle, or ``None``.  The checker's
worst-ratio search jumps to the ratio ``B/F`` of each cycle a repair
closes, and the last such cycle is the monitor's Xi witness.  Every
comparison is on arbitrary-precision Python integers, so large
numerators, denominators or summary hop counts change no answer.

The checker reaches each routine through a :class:`Kernel` subclass it
makes for each run (:class:`PyObjectKernel`, :class:`PotentialKernel`),
so a profiler can time every run by wrapping ``has_negative_cycle``.
Scratch state lives in the run, never in this module, because thread
workers share one process.  :func:`resolve_kernel_name` names the
inclusive routine for reports.

This module deliberately imports nothing from
:mod:`repro.core.synchrony` (which imports *it*): the routines read the
checker's struct-of-arrays digraph (``_tails`` / ``_adj`` / weight
tables) through the instance they are given.  The edge-kind tags live
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
    "PyObjectKernel",
    "negative_cycle",
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


def negative_cycle(
    checker: "AdmissibilityChecker",
    p: int,
    q: int,
    sources: list[int] | None = None,
) -> list[int] | None:
    """One simple negative H-cycle at ``p/q`` as H-edge ids, or ``None``.

    The one detection routine (see
    :meth:`~repro.core.synchrony.AdmissibilityChecker._has_negative_cycle`
    for the full semantics): round-batched SPFA from a virtual source,
    or genuine Bellman-Ford from ``sources`` with non-sources at
    ``+inf``.  Every improvement records the H-edge it came through.
    Once a relaxation chain reaches ``n`` edges, the predecessor walk
    from the improved node is followed to a cycle; every predecessor
    cycle is negative, because each link was a strict improvement when
    recorded, so the run returns it.

    A walk can dead-end on a node that was never improved; the run
    then keeps relaxing.  A cycle still appears: while a negative cycle
    exists the relaxations never stop, so the integer distances drop
    below the weight of every walk of fewer than ``n`` edges.  The
    relaxation that does so has a chain of at least ``n`` edges, and
    its walk cannot dead-end, since a dead-ended walk traces a simple
    path whose weight bounds the distance from below.
    """
    n = len(checker._adj)
    if n == 0 or (not checker._n_messages and not checker._n_summaries):
        return None
    wtab = checker._weight_table(p, q)
    adj = checker._adj
    tails = checker._tails
    chain = [0] * n  # edges in the walk realizing the current dist
    pred = [-1] * n  # H-edge id that last improved each node
    queued = [False] * n
    if sources is None:
        dist: list[int | float] = [0] * n
        active = [u for u in range(n) if adj[u]]
    else:
        dist = [float("inf")] * n
        for u in sources:
            dist[u] = 0
        active = sorted({u for u in sources if adj[u]})
    while active:
        next_active: list[int] = []
        push = next_active.append
        for u in active:
            du = dist[u]
            cu = chain[u] + 1
            for v, kind, eidx in adj[u]:
                nd = du + wtab[kind]
                if nd < dist[v]:
                    dist[v] = nd
                    chain[v] = cu
                    pred[v] = eidx
                    if cu >= n:
                        cycle = _cycle_from_predecessors(pred, tails, v, n)
                        if cycle is not None:
                            return cycle
                    if not queued[v]:
                        queued[v] = True
                        push(v)
        # Process the next frontier newest-first: every negative H-edge
        # (message backward, local backward) points towards older
        # events, and node ids follow arrival order, so a descending
        # sweep cascades whole backward chains within one round instead
        # of one hop per round.
        next_active.sort(reverse=True)
        active = next_active
        for v in active:
            queued[v] = False
    return None


def _cycle_from_predecessors(
    pred: list[int] | dict[int, int], tails: list[int], start: int, n: int
) -> list[int] | None:
    """Walk predecessor links from ``start`` until a node repeats, then
    collect the enclosed cycle; ``None`` if the walk dead-ends on a
    never-improved node first (at most ``n + 1`` links are followed --
    over ``n`` nodes a longer defined walk must repeat)."""
    seen = {start}
    node = start
    for _ in range(n + 1):
        eidx = pred[node]
        if eidx < 0:
            return None
        node = tails[eidx]
        if node in seen:
            break
        seen.add(node)
    else:  # pragma: no cover - pigeonhole makes this unreachable
        return None
    cycle_edges: list[int] = []
    cycle_start = node
    while True:
        eidx = pred[node]
        cycle_edges.append(eidx)
        node = tails[eidx]
        if node == cycle_start:
            break
    cycle_edges.reverse()
    return cycle_edges


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
                    return _cycle_from_predecessors(pred, tails, u, len(adj))
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
    """A checker's handle on one detection routine.

    Each subclass's ``has_negative_cycle`` is one detection run over
    the checker the kernel was made for -- the method a profiler wraps
    to time detection.
    """

    def __init__(self, checker: "AdmissibilityChecker") -> None:
        self._checker = checker


class PyObjectKernel(Kernel):
    """:func:`negative_cycle` over the checker's adjacency lists, with
    no cached state."""

    name = "py_object"

    def has_negative_cycle(
        self, p: int, q: int, sources: list[int] | None = None
    ) -> list[int] | None:
        """The H-edge ids of one simple negative cycle at ``p/q``, or
        ``None`` when there is none."""
        return negative_cycle(self._checker, p, q, sources)


class PotentialKernel(Kernel):
    """:func:`repair_potential` over the checker's stored potential."""

    def has_negative_cycle(self) -> list[int] | None:
        """One repair pass: the H-edge ids of the last negative cycle it
        closed, or ``None`` when it closed none."""
        return repair_potential(self._checker)


def resolve_kernel_name(spec: str | None = None) -> str:
    """The name of the inclusive detection routine: ``"py_object"``.

    ``None`` and ``"py_object"`` resolve to it; any other name raises
    ``ValueError``.
    """
    if spec is not None and spec != PyObjectKernel.name:
        raise ValueError(
            f"unknown kernel {spec!r}; the only kernel is "
            f"{PyObjectKernel.name!r}"
        )
    return PyObjectKernel.name
