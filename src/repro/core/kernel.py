"""Negative-cycle detection: the one primitive behind every oracle query.

Every oracle query of :class:`~repro.core.synchrony.AdmissibilityChecker`
bottoms out in one primitive: negative-cycle detection on the traversal
digraph ``H`` re-weighted for a ratio ``p/q``.  :func:`negative_cycle`
is that routine -- the round-batched SPFA, reading the checker's
adjacency lists directly.

**Detection returns the cycle.**  The routine answers with the H-edge
ids of one simple negative cycle, or ``None``: recording the
predecessor edge of each improvement, it pops the cycle out of the very
run that proves it exists.  The checker's worst-ratio climb jumps to
the ratio ``B/F`` of each returned cycle, and its Xi witnesses are
returned cycles too.  Every comparison is on arbitrary-precision Python
integers, so probes with large numerators, denominators or summary hop
counts change no answer.

The checker reaches the routine through a :class:`PyObjectKernel` it
makes for each run, so neither a checker nor its snapshots hold
detection state.  :func:`resolve_kernel_name` names the routine for
reports.

This module deliberately imports nothing from
:mod:`repro.core.synchrony` (which imports *it*): the routine reads the
checker's struct-of-arrays digraph (``_tails`` / ``_adj`` /
``_weight_table``) through the instance it is given.  The edge-kind tags
live here as the canonical definition.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle broken at runtime
    from repro.core.synchrony import AdmissibilityChecker

__all__ = [
    "Kernel",
    "PyObjectKernel",
    "negative_cycle",
    "resolve_kernel_name",
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
    pred: list[int], tails: list[int], start: int, n: int
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


class Kernel:
    """A checker's handle on negative-cycle detection.

    :class:`PyObjectKernel` is the one implementation; this base names
    the method a profiler can wrap to time every detection run.
    """

    def __init__(self, checker: "AdmissibilityChecker") -> None:
        self._checker = checker

    def has_negative_cycle(
        self, p: int, q: int, sources: list[int] | None = None
    ) -> list[int] | None:
        """The H-edge ids of one simple negative cycle at ``p/q``, or
        ``None`` when there is none."""
        raise NotImplementedError


class PyObjectKernel(Kernel):
    """:func:`negative_cycle` over the checker's adjacency lists, with
    no cached state."""

    name = "py_object"

    def has_negative_cycle(
        self, p: int, q: int, sources: list[int] | None = None
    ) -> list[int] | None:
        return negative_cycle(self._checker, p, q, sources)


def resolve_kernel_name(spec: str | None = None) -> str:
    """The name of the detection routine: ``"py_object"``, the only one.

    ``None`` and ``"py_object"`` resolve to it; any other name raises
    ``ValueError``.
    """
    if spec is not None and spec != PyObjectKernel.name:
        raise ValueError(
            f"unknown kernel {spec!r}; the only kernel is "
            f"{PyObjectKernel.name!r}"
        )
    return PyObjectKernel.name
