"""The ABC synchrony condition (Definition 4) and its decision procedures.

An execution is admissible in the ABC model with parameter ``Xi > 1`` iff
every *relevant* cycle ``Z`` of its execution graph satisfies

    |Z-| / |Z+|  <  Xi.                                            (2)

"For every relevant cycle" quantifies over exponentially many subgraphs,
but the condition can be decided in polynomial time.  Build the *traversal
digraph* ``H`` over the events of ``G``:

* a message ``u -> v`` may be traversed forward (H-edge ``u -> v``) or
  backward (H-edge ``v -> u``);
* a local edge ``u -> v`` may only be traversed backward (H-edge
  ``v -> u``) -- relevant cycles have all local edges backward.

Walking a relevant cycle along its orientation is then exactly a simple
cycle in ``H``, and conversely every simple cycle of ``H`` is a relevant
cycle of ``G`` except for two degenerate shapes:

* the 2-cycle using both traversal directions of one message (not a
  shadow-graph cycle), and
* cycles whose forward messages outnumber the backward ones (Definition 3
  then forces the opposite orientation, making the local edges forward).

Both degeneracies are eliminated by weighting.  To ask whether any
relevant cycle exists at all, give each H-edge the weight

* message forward:  ``+K``
* message backward: ``-K``
* local backward:   ``-1``

with ``K`` above the local-edge count of every cycle.  A simple H-cycle
weighs ``(|Z+| - |Z-|) * K - #locals``; every genuine cycle contains at
least one local edge (a cycle of messages alone is a causal cycle) and
fewer than ``K``, so the weight is negative iff ``|Z-| >= |Z+|``, i.e.
iff the cycle is relevant.  The degenerate 2-cycle weighs ``0`` and
cycles with more forward than backward messages weigh at least
``K - #locals > 0``, so neither can be reported.  Finding a relevant
cycle is therefore exactly negative-cycle detection.

:class:`AdmissibilityChecker` is the workhorse behind every public
function here: it builds the *topology* of ``H`` exactly once per
execution graph (nodes, adjacency, edge kinds) and re-derives only
the edge weights from a ratio, so every query -- and the worst-ratio
queries of the online monitor of :mod:`repro.analysis.online` -- share
all of the construction work.  The checker is also *extendable in
place* (``add_event`` / ``add_message``), which is what makes
incremental monitoring cheap.

Two further mutation modes make the checker the substrate of the
ABC-*enforcing* scheduler and of the <>ABC stabilization search:

* **Speculative extension** -- :meth:`AdmissibilityChecker.checkpoint`
  records the current extent of ``H``; growing the checker past it and
  calling :meth:`AdmissibilityChecker.rollback` pops the added events
  and edges off again (all edge storage is append-only, so a rollback
  is O(delta)).  The :meth:`AdmissibilityChecker.speculate` context
  manager wraps the pair, letting a scheduler push a hypothetical
  delivery onto the live digraph, ask the oracle, and retract it
  without ever rebuilding ``H``; the rollback also undoes the repairs
  the query made to the stored potential.
* **Prefix compaction** -- :meth:`AdmissibilityChecker.compact_prefix`
  is a two-mode compaction engine over left-closed per-process prefixes
  of the observed events.  Such a cut is a *stop map*
  ``{process: stop}``: the first index of each process that stays
  live (the paper's consistent cuts are left-closed, so one index per
  process fixes a cut), listing only processes whose stop lies above
  :meth:`AdmissibilityChecker.first_live_index`.  *Exact* mode deletes
  the prefix together with every incident edge; the remaining checker
  answers queries about the *suffix* graph (the live-induced subgraph,
  exactly :func:`repro.core.variants.suffix_graph` up to event
  renaming).
  :meth:`AdmissibilityChecker.removable_prefix` computes the largest
  prefix whose exact removal also preserves *full-graph* queries: when
  no message (and no summary edge) crosses the prefix boundary, no
  relevant cycle spans both sides, so a prefix already known admissible
  can be dropped without changing any future oracle answer.  *Summary*
  mode removes **any** cut -- including ones messages cross -- by
  replacing the region with per-boundary-pair shortest-path
  :class:`SummaryEdge` objects.  Each summary edge stores the
  ``(forward, backward, local)`` hop profile of a realizing traversal
  walk through the region, so it re-weights exactly for every ratio;
  per boundary pair the whole Pareto frontier of profiles is
  kept (fewer forward hops, more backward hops and more local hops are
  incomparably "better" as the query ratio varies), so the minimum walk
  weight through the region is preserved for *every* future query.
  The resulting contract is **ratio equivalence**: for every ratio
  strictly above the worst relevant ratio at compaction time, every
  oracle answer and worst-ratio refinement on the compacted digraph is
  bit-identical to the full graph's, under any extension that attaches
  only to live events.  (Cycles confined to the removed region are the
  one thing lost; they are bounded by the compaction-time worst ratio,
  which the layers above carry as a running maximum.)

:func:`worst_relevant_ratio` finds the exact maximum ``|Z-|/|Z+|`` over
all relevant cycles -- the maximum cycle ratio ``B/F`` of ``H`` -- with
one *persistent potential* per checker, Theorem 7's delay assignment kept
online.  Once a worst ratio ``a/d`` is known, "some relevant cycle has
ratio above ``a/d``" is plain negative-cycle detection under the integer
weights

* message forward:  ``+a``
* message backward: ``-d``
* local backward:   ``0``
* summary edge:     ``a * forward - d * backward``

A cycle at exactly ``a/d`` weighs 0, and both degenerate shapes above
weigh at least 0, so none of them is reported.  A potential ``pi``
feasible for these weights is a time per event with every message delay
``pi(recv) - pi(send)`` in ``[d, a]`` and local order kept.  Weights
``F * a/d - B`` never fall as ``a/d`` rises, so the checker keeps one
integer potential, feasible at its running worst, and repairs it per new
H-edge (Cotton & Maler; Ramalingam et al.): a violated edge starts a
Dijkstra search on reduced costs from its head, and a search that needs
the edge's tail to move has closed a cycle of ratio ``B/F`` above
``a/d``.  The ratio jumps there, the potential is floored onto the new
denominator's grid (which keeps every integer constraint satisfied), and
the edge is retried.  The last cycle found realizes the worst ratio.
Before the first cycle the weights are the ``(F - B) * K - L`` above,
so "is there any relevant cycle?" is the same repair.

Every other query reads that worst ratio: ``ratio >= r`` holds iff the
worst reaches ``max(r, 1)``, and a violation of ``Xi`` is witnessed by
the cycle that realizes the worst, whose ratio is the worst itself.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from heapq import heappop, heappush
from typing import Iterable, Iterator, Mapping, Sequence

from repro.core.cycles import (
    AGAINST,
    ALONG,
    Cycle,
    CycleClassification,
    Step,
    classify,
    enumerate_cycles,
)
from repro.core.events import Event, ProcessId
from repro.core.execution_graph import (
    ExecutionGraph,
    LocalEdge,
    MessageEdge,
)
from repro.core.kernel import PotentialKernel, start_nodes
from repro.core import kernel as _kernel_mod

__all__ = [
    "AdmissibilityChecker",
    "AdmissibilityResult",
    "CheckerCheckpoint",
    "SummaryEdge",
    "as_xi",
    "check_abc",
    "check_abc_exhaustive",
    "farey_predecessor",
    "has_relevant_cycle_with_ratio_at_least",
    "find_violating_cycle",
    "worst_relevant_ratio",
    "worst_relevant_ratio_exhaustive",
]


@dataclass(frozen=True)
class AdmissibilityResult:
    """Outcome of an ABC admissibility check.

    Attributes:
        admissible: whether every relevant cycle satisfies (2).
        xi: the synchrony parameter the graph was checked against.
        witness: a violating relevant cycle when one exists.
    """

    admissible: bool
    xi: Fraction
    witness: CycleClassification | None = None

    def __bool__(self) -> bool:
        return self.admissible


def as_xi(xi: Fraction | float | int | str) -> Fraction:
    """Validate a synchrony parameter: the ABC model requires ``Xi > 1``.

    The single place where ``Xi`` arguments are normalized; every checker
    that accepts a ``Xi`` goes through it so that the accepted types and
    the error message stay consistent.
    """
    xi_frac = Fraction(xi)
    if xi_frac <= 1:
        raise ValueError(f"the ABC model requires Xi > 1, got {xi_frac}")
    return xi_frac


def farey_predecessor(value: Fraction, max_den: int) -> Fraction:
    """The largest fraction strictly below ``value`` with denominator
    ``<= max_den``.

    ``value`` itself need not lie within the denominator bound (``0/1``
    always qualifies, so the predecessor exists for every positive
    ``value``).  Found by a galloping Stern-Brocot descent; used by the
    ABC-enforcing scheduler to derive a summary-compaction floor
    strictly below its ``Xi`` that still dominates every realizable
    relevant-cycle ratio.
    """
    if max_den < 1:
        raise ValueError(f"max_den must be positive, got {max_den}")
    if value <= 0:
        raise ValueError(f"value must be positive, got {value}")
    a, b = value.numerator, value.denominator
    ln, ld = 0, 1  # lo: strictly below value
    hn, hd = 1, 0  # hi: at or above value (starts at +infinity)
    while ld + hd <= max_den:
        s = a * ld - b * ln  # > 0: how far lo sits below value
        t = b * hn - a * hd  # >= 0: how far hi sits above value
        if t == 0:
            # hi equals value exactly: every further mediant stays
            # below, so only the denominator bound limits the walk.
            k = (max_den - ld) // hd
            ln, ld = ln + k * hn, ld + k * hd
            break
        # Gallop lo towards hi while the mediant stays strictly below
        # value and within the denominator bound.
        k = (s - 1) // t
        if hd:
            k = min(k, (max_den - ld) // hd)
        if k >= 1:
            ln, ld = ln + k * hn, ld + k * hd
            continue
        # Mediant at or above value: gallop hi towards lo.
        k = t // s
        assert k >= 1
        hn, hd = hn + k * ln, hd + k * ld
    return Fraction(ln, ld)


# Edge kinds of the traversal digraph; weights per (p, q) query are
# derived from the kind, so only these tags are stored per edge.  The
# canonical definitions live in :mod:`repro.core.kernel` (the detection
# routine reads them without importing this module); these aliases keep the
# checker's internals spelled the way they always were.
_FWD_MESSAGE = _kernel_mod.FWD_MESSAGE
_BWD_MESSAGE = _kernel_mod.BWD_MESSAGE
_BWD_LOCAL = _kernel_mod.BWD_LOCAL
# Kinds at or above _SUMMARY are summary edges: ``kind - _SUMMARY``
# indexes the checker's deduplicated (forward, backward, local) profile
# table, so resolving any edge's per-query weight stays one table lookup
# in the detection hot loop.
_SUMMARY = _kernel_mod.SUMMARY
# The (forward, backward, local) hop profile of each regular kind, by kind.
_REGULAR_HOPS = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
# The potential's weight scale before the first cycle: above the local
# edge count of every cycle, because no execution reaches 2**63 events.
_PRE_CYCLE = 1 << 63


@dataclass(frozen=True)
class SummaryEdge:
    """A boundary-to-boundary shortest-path summary of a compacted region.

    Produced by :meth:`AdmissibilityChecker.compact_prefix` in summary
    mode: one H-edge from ``tail`` to ``head`` standing in for the
    traversal walks that used to run through the removed region.  The
    profile counts the hops of one realizing walk -- ``forward`` message
    edges traversed along their direction, ``backward`` message edges
    traversed against it, ``local`` local edges -- so the edge
    re-weights exactly for every ratio ``p/q`` as
    ``p * forward - q * backward`` (less ``local`` as the pre-cycle
    tie-break of the module docstring).  ``parts`` is the
    realizing walk with *structural sharing*: a part is either a genuine
    execution-graph :class:`~repro.core.cycles.Step` or an older
    :class:`SummaryEdge` folded in whole by a later compaction.  Sharing
    keeps repeated compaction linear -- eagerly flattening the walk
    would copy O(summarized history) steps per compaction -- while
    :attr:`steps` still expands, on demand (witness extraction only),
    into the full step walk of the original execution graph.

    Pickling flattens: the structurally shared ``parts`` chain can nest
    one :class:`SummaryEdge` per compaction round, so default
    dataclass pickling would recurse once per round and overflow the
    interpreter's recursion limit on long-compacted monitors (the
    parallel runtime ships checkpoint/summary state between processes,
    where that is fatal rather than theoretical).  ``__reduce__``
    therefore serializes the *iteratively* flattened :attr:`steps`
    walk: the unpickled edge is semantically identical (same endpoints,
    profile, and realizing steps) but owns its walk flat, trading the
    structural sharing -- which only ever mattered for in-process
    compaction cost -- for bounded pickle depth.
    """

    tail: Event
    head: Event
    forward: int
    backward: int
    local: int
    parts: tuple["Step | SummaryEdge", ...]

    def __reduce__(self) -> tuple:
        return (
            SummaryEdge,
            (
                self.tail,
                self.head,
                self.forward,
                self.backward,
                self.local,
                self.steps,
            ),
        )

    @property
    def profile(self) -> tuple[int, int, int]:
        return (self.forward, self.backward, self.local)

    @property
    def steps(self) -> tuple[Step, ...]:
        """The realizing walk, flattened to genuine steps (iterative --
        compaction chains can nest summaries arbitrarily deep)."""
        out: list[Step] = []
        stack: list[Step | SummaryEdge] = list(reversed(self.parts))
        while stack:
            part = stack.pop()
            if isinstance(part, SummaryEdge):
                stack.extend(reversed(part.parts))
            else:
                out.append(part)
        return tuple(out)


@dataclass(frozen=True)
class CheckerCheckpoint:
    """An opaque marker of an :class:`AdmissibilityChecker`'s extent.

    Produced by :meth:`AdmissibilityChecker.checkpoint`, consumed by
    :meth:`AdmissibilityChecker.rollback`.  A checkpoint is invalidated
    by :meth:`AdmissibilityChecker.compact_prefix` (which renumbers the
    digraph); ``epoch`` detects that.  ``potential`` holds the stored
    potential's state: its list (shared, copied on the checker's first
    write in place), that list's length, and the scalars beside it.
    """

    n_nodes: int
    n_edges: int
    n_locals: int
    epoch: int
    potential: tuple


class AdmissibilityChecker:
    """Reusable, extendable decision procedure for one execution graph.

    The traversal digraph ``H`` (see the module docstring) is built once,
    as integers only: a node is its ``(process, index)`` in two int
    columns, an edge its tail, head and kind, none of which depends on
    the ratio being tested.  Each query then only materializes the
    weight of every edge from its kind, so a worst-ratio search issuing
    several oracle calls pays the graph construction exactly once.
    :class:`~repro.core.events.Event`, :class:`~repro.core.cycles.Step`
    and edge objects are built only for answers (witnesses, summary
    walks, :attr:`messages`): a checker holds its trace's whole history,
    and every full garbage collection visits every tracked object, so
    the adjacency row the detection loop reads is the one kept per event.

    The checker can also be *grown in place* -- :meth:`add_event` appends
    a receive event (creating the implied local edge), :meth:`add_message`
    a message edge -- which is the substrate of the online ?ABC/<>ABC
    monitor in :mod:`repro.analysis.online`.  Structural validity (one
    incoming message per event, digraph acyclicity) is the caller's
    responsibility when growing incrementally; events fed from a recorded
    trace or an :class:`~repro.core.execution_graph.ExecutionGraph`
    satisfy it by construction.  Summary compaction is the one place
    that depends on acyclicity, and it checks: a causal cycle in the
    region to fold raises ``ValueError``.

    Every query repairs the checker's one stored potential (see the
    module docstring and :meth:`updated_worst_ratio`), through
    :func:`repro.core.kernel.repair_potential`, and answers from the
    worst ratio it leaves.  Each pass goes through a
    :class:`~repro.core.kernel.PotentialKernel` made for it, so no
    snapshot holds a kernel.  The potential pickles with the checker as
    one int list.

    Attributes:
        oracle_calls: number of repair passes issued so far (for
            benchmarks and incrementality tests).
        repairs: Dijkstra repairs the potential needed so far.
        repaired_nodes: nodes those repairs labeled.
        ratio_jumps: cycles the repairs closed, each one a rise of the
            worst ratio.
    """

    def __init__(self, graph: ExecutionGraph | None = None) -> None:
        # Node ``u`` is event ``(_procs[u], _idxs[u])``.  Compaction
        # removes per-process prefixes, so ``_ids[p]`` -- the live nodes
        # of ``p`` in index order -- starts at ``first_live_index(p)``,
        # and its length counts the events observed at ``p`` after that.
        self._procs: list[ProcessId] = []
        self._idxs: list[int] = []
        self._ids: dict[ProcessId, list[int]] = {}
        # H-edges, struct-of-arrays: topology is immutable per edge,
        # weights are derived per query from ``kind``; summary edges
        # keep their SummaryEdge by edge id.
        self._tails: list[int] = []
        self._heads: list[int] = []
        self._kinds: list[int] = []
        self._summary_at: dict[int, SummaryEdge] = {}
        # node index -> [(head, kind, edge id), ...]; the detection hot
        # loop reads only this, with weights resolved through a per-kind
        # table, and records edge ids so a run can return its cycle.
        self._adj: list[list[tuple[int, int, int]]] = []
        self._n_messages = 0
        self._n_locals = 0
        # Tombstoning state: first still-live event index per process and
        # the compaction epoch (checkpoints from older epochs are dead).
        self._first_live: dict[ProcessId, int] = {}
        self._n_tombstoned = 0
        self._epoch = 0
        # Summary-compaction state: the deduplicated (forward, backward,
        # local) profile table indexed by ``kind - _SUMMARY``, plus the
        # running total that keeps the ratio bound valid with summaries
        # in the digraph.
        self._summary_profiles: list[tuple[int, int, int]] = []
        self._profile_ids: dict[tuple[int, int, int], int] = {}
        self._n_summaries = 0
        self._summary_hops = 0  # sum of max(fwd, bwd) over live summaries
        self._speculating = 0
        self._n_compacted_messages = 0
        # The persistent potential: one int per node below len(_pot),
        # feasible for every H-edge with an id below _pot_edges at
        # _pot_ratio (``None``: the pre-cycle weights).  _pot_cycle is
        # the live cycle realizing _pot_ratio, or ``None`` when no live
        # cycle is known to.  A checkpoint shares _pot; _pot_shared
        # makes the first write in place copy it.
        self._pot: list[int] = []
        self._pot_edges = 0
        self._pot_ratio: Fraction | None = None
        self._pot_cycle: list[int] | None = None
        self._pot_shared = False
        self.oracle_calls = 0
        self.repairs = 0
        self.repaired_nodes = 0
        self.ratio_jumps = 0
        if graph is not None:
            for process in graph.processes:
                for event in graph.events_of(process):
                    self.add_event(event)
            for message in graph.messages:
                self.add_message(message.src, message.dst)

    # ------------------------------------------------------------------
    # incremental construction
    # ------------------------------------------------------------------

    @property
    def n_events(self) -> int:
        """Number of *live* (non-tombstoned) events in the digraph."""
        return len(self._procs)

    @property
    def n_messages(self) -> int:
        """Number of live message edges."""
        return self._n_messages

    @property
    def n_local_edges(self) -> int:
        return self._n_locals

    @property
    def n_tombstoned(self) -> int:
        """Number of events removed by :meth:`compact_prefix` (either
        mode) so far."""
        return self._n_tombstoned

    @property
    def n_compacted_messages(self) -> int:
        """Number of message edges removed by :meth:`compact_prefix`
        (either mode) so far."""
        return self._n_compacted_messages

    @property
    def n_summary_edges(self) -> int:
        """Number of live summary edges (see :class:`SummaryEdge`)."""
        return self._n_summaries

    @property
    def ratio_bound(self) -> int:
        """Bound on the numerator and denominator of every realizable
        relevant-cycle ratio.

        A simple cycle traverses each live message edge at most once and
        each summary edge at most once, so its forward and backward hop
        counts are bounded by the live message count plus the hops
        folded into summaries; without summaries this is the classical
        message-count bound.  The enforcing scheduler derives its
        compaction floor from it.
        """
        return max(1, self._n_messages + self._summary_hops)

    @property
    def processes(self) -> tuple[ProcessId, ...]:
        """Processes with at least one observed event (live or not)."""
        return tuple(self._ids)

    def n_events_of(self, process: ProcessId) -> int:
        """Total events ever observed at ``process`` (tombstoned ones
        included -- this is the index the next :meth:`add_event` must
        carry, and the basis of :meth:`extends`)."""
        ids = self._ids.get(process)
        return 0 if ids is None else self.first_live_index(process) + len(ids)

    def first_live_index(self, process: ProcessId) -> int:
        """Index of the earliest non-tombstoned event at ``process``."""
        return self._first_live.get(process, 0)

    def _event(self, node: int) -> Event:
        """The event node ``node`` stands for."""
        return Event(self._procs[node], self._idxs[node])

    def _find(self, event: Event) -> int | None:
        """The node of a live ``event``, or ``None``."""
        ids = self._ids.get(event.process)
        if ids is None:
            return None
        offset = event.index - self._first_live.get(event.process, 0)
        return ids[offset] if 0 <= offset < len(ids) else None

    def _node_of(self, event: Event) -> int:
        node = self._find(event)
        if node is None:
            raise KeyError(
                f"event {event!r} not in the checker (never added, or "
                "tombstoned)"
            )
        return node

    def _has_forward(self, u: int, v: int) -> bool:
        """Whether the message ``u -> v`` is in the digraph."""
        for head, kind, _ in self._adj[u]:
            if head == v and kind == _FWD_MESSAGE:
                return True
        return False

    @property
    def messages(self) -> frozenset[MessageEdge]:
        """The live message edges (a snapshot, built on demand)."""
        event = self._event
        return frozenset(
            MessageEdge(event(tail), event(head))
            for tail, head, kind in zip(self._tails, self._heads, self._kinds)
            if kind == _FWD_MESSAGE
        )

    def has_message(self, message: MessageEdge) -> bool:
        u = self._find(message.src)
        v = self._find(message.dst)
        return u is not None and v is not None and self._has_forward(u, v)

    def add_event(self, event: Event) -> None:
        """Append the next receive event of its process.

        Events of one process must arrive in local order (index 0, 1, ...);
        the local edge from the previous event is created implicitly, as a
        backward-only H-edge.
        """
        process = event.process
        expected = self.n_events_of(process)
        if event.index != expected:
            raise ValueError(
                f"events of process {process} must arrive in local "
                f"order: expected index {expected}, got {event!r}"
            )
        node = len(self._procs)
        self._procs.append(process)
        self._idxs.append(expected)
        self._adj.append([])
        ids = self._ids.setdefault(process, [])
        # The latest live event is the local predecessor; a tombstoned
        # one leaves the new event without a local edge, exactly as in
        # the suffix graph.
        if ids:
            self._add_h_edge(node, ids[-1], _BWD_LOCAL)
            self._n_locals += 1
        ids.append(node)

    def add_message(self, src: Event, dst: Event) -> bool:
        """Add a message edge; returns ``False`` for an exact duplicate.

        Duplicates are dropped to match
        :class:`~repro.core.execution_graph.ExecutionGraph`, which stores
        messages as a set.
        """
        u = self._node_of(src)
        v = self._node_of(dst)
        if u == v:
            raise ValueError(
                f"message {MessageEdge(src, dst)!r} may not be a self loop"
            )
        if self._has_forward(u, v):
            return False
        self._n_messages += 1
        self._add_h_edge(u, v, _FWD_MESSAGE)
        self._add_h_edge(v, u, _BWD_MESSAGE)
        return True

    def absorb_batch(
        self,
        events: tuple[Sequence[ProcessId], Sequence[int]],
        messages: Sequence[tuple[ProcessId, int] | None] | None = None,
    ) -> int:
        """Bulk-append a batch of events (and their triggering messages).

        The bulk form of a per-record :meth:`add_event` /
        :meth:`add_message` loop, behind
        :meth:`~repro.analysis.online.OnlineAbcMonitor.observe_batch`:

        * ``events`` is a pair of parallel columns ``(processes,
          indexes)`` -- row ``k`` is the next receive event of
          ``processes[k]``, in arrival order.
        * ``messages``, when given, is a column *aligned with the
          events*: entry ``k`` is ``None`` (wake-up / filtered message)
          or ``(src_process, src_index)``, the send event whose message
          triggered event ``k``.  The destination is always event ``k``
          itself -- exactly the shape of a receive-record stream.

        Semantics are bit-identical to the per-record loop, including
        H-edge insertion order (event ``k``'s local edge, then event
        ``k``'s message edges) -- the cycle every detection run
        returns, and so the ratio jumps and the witness, depends on
        edge order, so the interleaving is part of the contract.
        Local-order violations are detected in a validation pre-pass
        over the whole batch *before any mutation*, so a bad event
        column leaves the checker untouched; message errors (unknown
        endpoint, self loop) surface mid-apply exactly as they would
        mid-stream, after the failing row's event.

        Appends happen on the flat digraph arrays once per batch.
        Returns the number of message edges added.
        """
        processes, indexes = events
        n = len(processes)
        if len(indexes) != n or (messages is not None and len(messages) != n):
            raise ValueError(
                "absorb_batch columns must have equal lengths: "
                f"{n} processes, {len(indexes)} indexes"
                + (
                    f", {len(messages)} messages"
                    if messages is not None
                    else ""
                )
            )
        # Validation pre-pass: local order per process across the batch,
        # seeded from the observed prefix.  Nothing is mutated before
        # the whole event column is known good.
        expected: dict[ProcessId, int] = {}
        for k in range(n):
            p = processes[k]
            want = expected.get(p)
            if want is None:
                want = self.n_events_of(p)
            if indexes[k] != want:
                raise ValueError(
                    f"events of process {p} must arrive in local "
                    f"order: expected index {want}, got p{p}:{indexes[k]}"
                )
            expected[p] = want + 1
        # Apply pass: only ints are appended, no Event, Step or edge
        # objects.  A row's local predecessor is its process's latest
        # live node, and its message source resolves through ``_ids``.
        # Row ``k``'s destination is row ``k``'s own new event, so no
        # duplicate message check is needed, and a self loop is
        # ``src_id == node_id``.  A process's event count is the length
        # of its live run, so it advances row by row, and a message
        # error mid-apply leaves the checker as the per-record loop would.
        procs = self._procs
        idxs = self._idxs
        ids_of = self._ids
        first_live = self._first_live
        adj = self._adj
        tails = self._tails
        heads = self._heads
        kinds = self._kinds
        added = 0
        for k in range(n):
            p = processes[k]
            i = indexes[k]
            node_id = len(procs)
            procs.append(p)
            idxs.append(i)
            row: list[tuple[int, int, int]] = []
            adj.append(row)
            ids = ids_of.get(p)
            if ids is None:
                ids = ids_of[p] = []
            elif ids:
                prev_id = ids[-1]
                row.append((prev_id, _BWD_LOCAL, len(tails)))
                tails.append(node_id)
                heads.append(prev_id)
                kinds.append(_BWD_LOCAL)
                self._n_locals += 1
            ids.append(node_id)
            if messages is None:
                continue
            origin = messages[k]
            if origin is None:
                continue
            sp, si = origin[0], origin[1]
            src_ids = ids_of.get(sp)
            offset = si - first_live.get(sp, 0)
            if src_ids is None or not 0 <= offset < len(src_ids):
                raise KeyError(
                    f"event p{sp}:{si} not in the checker (never added, "
                    "or tombstoned)"
                )
            src_id = src_ids[offset]
            if src_id == node_id:
                raise ValueError(
                    f"message msg(p{sp}:{si}->p{p}:{i}) may not be a self loop"
                )
            adj[src_id].append((node_id, _FWD_MESSAGE, len(tails)))
            tails.append(src_id)
            heads.append(node_id)
            kinds.append(_FWD_MESSAGE)
            row.append((src_id, _BWD_MESSAGE, len(tails)))
            tails.append(node_id)
            heads.append(src_id)
            kinds.append(_BWD_MESSAGE)
            self._n_messages += 1
            added += 1
        return added

    def extends(self, graph: ExecutionGraph) -> bool:
        """Whether ``graph`` extends the prefix this checker has seen
        (at least as many events per process, a superset of messages)."""
        for process in self.processes:
            if len(graph.events_of(process)) < self.n_events_of(process):
                return False
        if not self._n_messages:
            return True
        # The graph's messages are distinct, so it holds every live
        # message iff it holds as many of them as there are.
        return sum(map(self.has_message, graph.messages)) == self._n_messages

    def absorb(self, graph: ExecutionGraph) -> bool:
        """Add everything ``graph`` has beyond the observed prefix.

        ``graph`` must satisfy :meth:`extends`.  Returns whether any
        message edge was added -- only then can new relevant cycles have
        appeared, so only then is a worst-ratio refresh needed.
        """
        for process in graph.processes:
            known = self.n_events_of(process)
            for event in graph.events_of(process)[known:]:
                self.add_event(event)
        added = False
        for message in graph.messages:
            # Messages whose endpoint lies in a tombstoned prefix were
            # forgotten deliberately -- not new edges to absorb.
            if (
                message.src.index < self.first_live_index(message.src.process)
                or message.dst.index < self.first_live_index(message.dst.process)
            ):
                continue
            if self.add_message(message.src, message.dst):
                added = True
        return added

    def updated_worst_ratio(
        self, previous: Fraction | None
    ) -> Fraction | None:
        """The exact worst relevant ratio, given the exact worst
        ``previous`` of a subgraph of the current graph (``None``: no
        relevant cycle, or nothing known).

        One repair pass over the H-edges added since the last query
        (:func:`repro.core.kernel.repair_potential`): it checks each new
        edge against the stored potential, repairs the potential where
        one is violated, and jumps the ratio to ``B/F`` of every cycle a
        repair closes.  When every edge is covered, no cycle has a ratio
        above the potential's, so the ratio is exact.  The potential is
        first raised to ``previous`` (which may be a running maximum
        from before a compaction); a potential at a ratio above
        ``previous`` that no live cycle is known to realize -- one a
        compaction left behind -- is rebuilt from scratch instead.
        Raises ``ValueError`` when the execution holds a causal cycle.
        """
        ratio = self._pot_ratio
        if (
            ratio is not None
            and self._pot_cycle is None
            and (previous is None or ratio > previous)
        ):
            self._drop_potential()
            ratio = None
        if previous is not None and (ratio is None or previous > ratio):
            self._jump(previous, None)
        self.oracle_calls += 1
        PotentialKernel(self).has_negative_cycle()
        return self._pot_ratio

    def _potential_weights(self) -> list[int]:
        """Per-kind H-edge weights of the potential at its ratio ``a/d``:
        ``a`` per forward hop, ``-d`` per backward hop.  Before the first
        cycle they are ``(F - B) * K - L``, the relevance test with the
        local-edge tie-break of the module docstring."""
        ratio = self._pot_ratio
        if ratio is None:
            return self._weights(1, 1, _PRE_CYCLE, 1)
        return self._weights(ratio.numerator, ratio.denominator, 1, 0)

    def _jump(self, ratio: Fraction, cycle: list[int] | None) -> None:
        """Move the potential up to ``ratio``, realized by ``cycle``.

        Real weights ``F * r - B`` never fall as ``r`` rises, so the
        potential divided by its scale (the denominator, or ``K`` before
        the first cycle, where it is feasible at ratio 1) stays feasible
        for real weights; scaling it to the new denominator and flooring
        keeps every integer constraint satisfied (``floor`` is monotone
        and commutes with integer shifts).  A jump that keeps the
        denominator changes no value.
        """
        old = self._pot_ratio
        d = ratio.denominator
        od = _PRE_CYCLE if old is None else old.denominator
        if d != od:
            self._pot = [x * d // od for x in self._pot]
            self._pot_shared = False
        self._pot_ratio = ratio
        self._pot_cycle = cycle

    def _drop_potential(self) -> None:
        """Forget the potential; the next query rebuilds it."""
        self._pot = []
        self._pot_shared = False
        self._pot_edges = 0
        self._pot_ratio = None
        self._pot_cycle = None

    def _private_potential(self) -> list[int]:
        """The potential list, copied first if a checkpoint shares it."""
        if self._pot_shared:
            self._pot = self._pot.copy()
            self._pot_shared = False
        return self._pot

    def __getstate__(self) -> dict:
        # Whether a checkpoint shares the potential is process-local;
        # snapshots of equal checkers stay bit-identical.
        state = self.__dict__.copy()
        state["_pot_shared"] = False
        return state

    def _add_h_edge(self, tail: int, head: int, kind: int) -> None:
        self._adj[tail].append((head, kind, len(self._tails)))
        self._tails.append(tail)
        self._heads.append(head)
        self._kinds.append(kind)

    # ------------------------------------------------------------------
    # speculative extension (checkpoint / rollback)
    # ------------------------------------------------------------------

    def checkpoint(self) -> CheckerCheckpoint:
        """Record the current extent of ``H`` for a later :meth:`rollback`.

        Checkpoints nest (roll back in reverse order of creation) and are
        O(1): all edge storage is append-only, so the extent is four
        integers, and the potential's list is shared rather than copied
        -- the checker copies it on its first write in place, and only
        appends to it otherwise.  A checkpoint does not survive
        :meth:`compact_prefix`, which renumbers the digraph.
        """
        self._pot_shared = True
        return CheckerCheckpoint(
            len(self._procs),
            len(self._tails),
            self._n_locals,
            self._epoch,
            (
                self._pot,
                len(self._pot),
                self._pot_edges,
                self._pot_ratio,
                self._pot_cycle,
                self.repairs,
                self.repaired_nodes,
                self.ratio_jumps,
            ),
        )

    def rollback(self, token: CheckerCheckpoint) -> None:
        """Pop every event and edge added since ``token`` off the digraph.

        Restores the checker to the checkpointed state exactly (same
        nodes, adjacency, message set, local-edge count, potential and
        its counters -- and therefore the same answer to every query);
        only ``oracle_calls`` keeps counting across rollbacks.
        O(number of popped events + edges + potential entries).
        """
        if token.epoch != self._epoch:
            raise ValueError(
                "checkpoint predates a compact_prefix; the digraph was "
                "renumbered and cannot be rolled back to it"
            )
        if token.n_nodes > self.n_events or token.n_edges > len(self._tails):
            raise ValueError("cannot roll back to a future checkpoint")
        for eidx in range(len(self._tails) - 1, token.n_edges - 1, -1):
            tail = self._tails[eidx]
            kind = self._kinds[eidx]
            popped = self._adj[tail].pop()
            # Structural invariant checked eagerly (not via assert, which
            # ``python -O`` strips): a mismatch means the digraph is
            # corrupt and must not be used further.
            if popped != (self._heads[eidx], kind, eidx):
                raise RuntimeError(
                    f"rollback found adjacency tail {popped} where edge "
                    f"{(self._heads[eidx], kind, eidx)} was expected; "
                    "the digraph is corrupt"
                )
            if kind == _FWD_MESSAGE:
                self._n_messages -= 1
        del self._tails[token.n_edges :]
        del self._heads[token.n_edges :]
        del self._kinds[token.n_edges :]
        self._n_locals = token.n_locals
        for _ in range(len(self._procs) - token.n_nodes):
            process = self._procs.pop()
            index = self._idxs.pop()
            leftover = self._adj.pop()
            if leftover:
                raise RuntimeError(
                    f"rollback popped node p{process}:{index} with "
                    f"{len(leftover)} outgoing edges still attached; the "
                    "digraph is corrupt"
                )
            ids = self._ids[process]
            ids.pop()
            if not ids and process not in self._first_live:
                del self._ids[process]  # as if never observed
        (
            pot,
            length,
            self._pot_edges,
            self._pot_ratio,
            self._pot_cycle,
            self.repairs,
            self.repaired_nodes,
            self.ratio_jumps,
        ) = token.potential
        del pot[length:]  # only appended to since the checkpoint
        self._pot = pot
        self._pot_shared = True

    @contextmanager
    def speculate(self) -> Iterator["AdmissibilityChecker"]:
        """Context manager bracketing a speculative extension.

        Within the block the checker may be grown freely (``add_event``,
        ``add_message``) and queried; on exit everything added is popped
        off again.  This is what lets the ABC-enforcing scheduler push a
        hypothetical delivery onto the live digraph, ask the oracle, and
        retract it without a rebuild.  :meth:`compact_prefix` is
        rejected inside a speculation.
        """
        token = self.checkpoint()
        self._speculating += 1
        try:
            yield self
        finally:
            self._speculating -= 1
            self.rollback(token)

    # ------------------------------------------------------------------
    # prefix compaction (the two-mode engine)
    # ------------------------------------------------------------------

    def compact_prefix(
        self,
        stops: Mapping[ProcessId, int],
        mode: str = "summary",
        floor: Fraction | None = None,
    ) -> int:
        """Compact a left-closed per-process prefix out of the digraph.

        ``stops`` is the cut as a stop map: for each listed process, the
        first index that stays live.  Every live event of the process
        below its stop is removed; a stop at or below
        :meth:`first_live_index` removes nothing, so passing a
        cumulatively grown cut is fine.  A stop past
        :meth:`n_events_of` raises ``KeyError`` before anything is
        touched.  Arrays are compacted eagerly, so memory is bounded by
        the live graph plus the summary edges; returns the number of
        events removed.  Two modes:

        * ``mode="exact"`` removes the events together with *every*
          incident edge -- the remaining digraph is the live-induced
          subgraph, i.e. queries now answer for the suffix graph beyond
          the prefix (the semantics of
          :func:`repro.core.variants.suffix_graph`, without
          re-indexing).  To remove a prefix *without* changing
          full-graph answers, pick one with :meth:`removable_prefix`
          (no message and no summary edge may cross it).
        * ``mode="summary"`` removes any cut -- messages may cross it --
          and replaces the region with boundary-to-boundary
          :class:`SummaryEdge` objects (the Pareto frontier of
          ``(forward, backward, local)`` walk profiles per boundary
          pair), preserving the weight of every traversal walk through
          the region for every future ``(p, q)`` query.  Afterwards
          every query at a ratio strictly above the compaction-time
          worst relevant ratio is bit-identical to the full graph's,
          under any extension attaching only to live events; cycles
          confined to the region are the one loss, and they are bounded
          by that compaction-time worst (carry it as a running
          maximum, as :class:`repro.analysis.online.OnlineAbcMonitor`
          does).  Each process's frontier (last live) event is
          implicitly pinned so future local edges still attach to live
          events; use :meth:`summarizable_prefix` to compute the
          compactable cut, pinning the send events of in-flight
          messages for extension exactness.

        ``floor`` tunes how much summary mode must preserve.  ``None``
        (the default) keeps every query at every ratio ``>= 1`` exact
        for cycles touching live events.  A ``Fraction`` promises the
        caller will never need exactness at ratios ``<= floor`` (it
        answers those from a running maximum, or never asks): the
        Pareto frontiers are then pruned for ratios strictly above
        ``floor`` only, which provably cuts off walks looping region
        cycles of ratio ``<= floor`` -- the difference between
        region-bounded and unbounded compaction cost on workloads whose
        settled past contains relevant cycles.  Callers with a running
        worst ratio should pass it; the enforcing scheduler passes
        ``farey_predecessor(xi, ratio_bound)``.

        Both modes renumber the digraph: checkpoints are invalidated
        (epoch-guarded) and the call is rejected inside
        :meth:`speculate`.  Summary mode raises ``ValueError``, leaving
        the checker unchanged, when the region holds a causal cycle.

        The stored potential survives both modes: exact removal only
        drops nodes, and a summary edge weighs what its realizing walk
        weighs, which telescopes over the walk's feasible edges.  Nodes
        and edges added since the last worst-ratio query are covered
        first when that needs no repair (events alone never do);
        otherwise the potential is dropped and the next query rebuilds
        it.
        """
        if mode not in ("exact", "summary"):
            raise ValueError(f"unknown compaction mode {mode!r}")
        if self._speculating:
            raise RuntimeError("cannot compact a prefix inside speculate()")
        first_live = self._first_live
        fresh: dict[ProcessId, int] = {}
        for process, stop in stops.items():
            first = first_live.get(process, 0)
            if stop <= first:
                continue
            total = self.n_events_of(process)
            if stop > total:
                raise KeyError(
                    f"event p{process}:{stop - 1} was never added to the "
                    "checker"
                )
            if mode == "summary":
                # Keep the frontier event live: the next add_event at
                # this process attaches its local edge there, which the
                # ratio-equivalence contract under extension needs.
                stop = min(stop, total - 1)
            if stop > first:
                fresh[process] = stop
        if not fresh:
            return 0
        dead: set[int] = set()
        for process, stop in fresh.items():
            first = first_live.get(process, 0)
            dead.update(self._ids[process][: stop - first])
        # Summarize before mutating anything: the search rejects a
        # causal cycle with ValueError and must leave the checker whole.
        summaries = (
            self._summarize_region(dead, floor) if mode == "summary" else ()
        )
        self._cover_potential()
        first_live.update(fresh)
        self._compact(dead)
        for edge in summaries:
            self._attach_summary(edge)
        self._n_tombstoned += len(dead)
        return len(dead)

    def _cover_potential(self) -> None:
        """Extend the potential over the uncovered nodes and edges when
        none of the edges is violated; drop it otherwise."""
        pot = self._pot
        if not pot:
            return
        wtab = self._potential_weights()
        start_nodes(pot, self._adj, wtab)
        tails, heads, kinds = self._tails, self._heads, self._kinds
        for e in range(self._pot_edges, len(tails)):
            if pot[tails[e]] + wtab[kinds[e]] < pot[heads[e]]:
                self._drop_potential()
                return
        self._pot_edges = len(tails)

    def _edge_hops(self, kind: int) -> tuple[int, int, int]:
        """The (forward, backward, local) hop profile of one H-edge."""
        if kind < _SUMMARY:
            return _REGULAR_HOPS[kind]
        return self._summary_profiles[kind - _SUMMARY]

    def _edge_part(self, eidx: int) -> "Step | SummaryEdge":
        """One H-edge as a walk part: its step, built from the edge's
        kind and endpoints, or the whole summary (shared, not flattened
        -- see :attr:`SummaryEdge.parts`)."""
        kind = self._kinds[eidx]
        if kind >= _SUMMARY:
            return self._summary_at[eidx]
        tail = self._event(self._tails[eidx])
        head = self._event(self._heads[eidx])
        if kind == _FWD_MESSAGE:
            return Step(MessageEdge(tail, head), ALONG)
        # Backward H-edges run from the later endpoint to the earlier.
        edge = MessageEdge if kind == _BWD_MESSAGE else LocalEdge
        return Step(edge(head, tail), AGAINST)

    def _attach_summary(self, edge: SummaryEdge) -> None:
        key = edge.profile
        pid = self._profile_ids.get(key)
        if pid is None:
            pid = len(self._summary_profiles)
            self._summary_profiles.append(key)
            self._profile_ids[key] = pid
        self._summary_at[len(self._tails)] = edge
        self._add_h_edge(
            self._node_of(edge.tail), self._node_of(edge.head), _SUMMARY + pid
        )
        self._n_summaries += 1
        self._summary_hops += max(edge.forward, edge.backward)

    def _summarize_region(
        self, dead: set[int], floor: Fraction | None
    ) -> list[SummaryEdge]:
        """Pareto shortest-path summaries of the region about to die.

        A summary ``x -> y`` stands for the traversal walks that leave a
        live *entry* ``x`` over an H-edge into the region, run through
        region nodes only, and arrive at a live *exit* ``y`` over an
        H-edge out of it; per ``(x, y)`` pair it keeps the Pareto
        frontier of the walks' ``(forward, backward, local)`` profiles.
        The per-query weight is ``scale * (p * f - q * b) - l`` with
        ``(p, q)`` unknown at compaction time; over the query range the
        caller needs (``p/q >= 1`` for ``floor=None``, ``p/q > floor =
        a/c`` otherwise) a profile ``x`` dominates ``y`` iff

            ``f_x <= f_y``  and  ``a * (f_x - f_y) <= c * (b_x - b_y)``

        with a local-hop tie-break (``l_x >= l_y``) required exactly
        where the weight difference can vanish: at equal ``f`` and
        ``b`` for a strict floor, additionally at
        ``a * df == c * db`` for the inclusive default.  The floored
        order prunes every walk that loops a region cycle of ratio
        ``<= floor`` -- such loops only improve queries at or below the
        floor -- keeping the label space region-bounded even when the
        settled past is full of relevant cycles.

        The sources are the exits: one label-setting search per exit
        ``y`` runs over the region's H-edges reversed, so a label at
        node ``u`` is the profile of a walk ``u -> ... -> y``, and
        crossing a reversed edge ``w -> u`` prepends that edge to the
        walk.  Profiles add, so a dominated walk stays dominated
        whichever end it grows from, and each ``(x, y)`` pair gets the
        frontier a search from ``x`` would find.  Searching from the
        exits is the cheaper direction.  Every H-edge from the region to
        a live node, older summaries aside, is one half of a crossing
        message, whose other half runs from the same live endpoint into
        the region: such an exit is an entry too.  The entries also
        hold each process's first live event, whose local edge into the
        region has no such mirror.  So the exits number at most the
        entries plus the heads of older summaries that leave the region
        without entering it, and a search from an exit labels only the
        nodes that can reach that exit.  A finished label's parent chain
        runs from its entry to the exit, so the realizing walk reads in
        order.

        Labels are settled in increasing forward hops ``f`` (a bucket
        queue) and, within one ``f``, in reversed Kahn order of the
        region's zero-forward edges: backward messages, backward locals
        and older summaries with ``forward == 0``.  These form a DAG,
        because a backward-only walk follows the causal order in
        reverse, and a node's turn comes after that of every node its
        zero-forward edges reach.  ``f`` leads both dominance orders, so
        by a node's turn every label that could dominate its candidates
        is known, and each surviving label is extended exactly once.  A
        causal cycle in the region (the public :meth:`add_message` can
        build one) raises ``ValueError`` instead.  Most region nodes
        never hold more than one label, so a node keeps its label as a
        bare tuple, and a candidate is compared with it inline; a Pareto
        list appears only where a second label survives beside the
        first.  Both dominance orders run through this one search.

        Caps bound the search without touching exactness, since only
        *simple* walks need covering (genuine relevant cycles are
        simple).  A label is cut off when its forward hops exceed the
        sum of the ``|region| + 1`` largest per-edge forward capacities.
        The inclusive mode, whose weight order cannot prune loop
        staircases around region cycles, also cuts a label off when its
        *hop count* (an old summary counting as one) exceeds ``|region|
        + 1``; the hop count then joins its dominance order, so a
        covering label never has more hops than the simple walk it
        covers and is never the one the cap discards.  The floored mode
        leaves hops out: its weight order already prunes every loop of
        ratio ``<= floor``, and the extra coordinate would only fracture
        the frontier into hop-distinct duplicates.  Finished
        entry-to-exit walks are re-pruned by weight alone either way --
        a walk's hop count is invisible to every future query.  Older
        summary edges with an endpoint in the region take part with
        their stored profiles and are folded into the new walks, so
        repeated compaction never loses structure.
        """
        hops_of = [*_REGULAR_HOPS, *self._summary_profiles]
        adj = self._adj
        n_nodes = len(adj)
        region = sorted(dead)
        # One pass over the adjacency rows: into[v] lists the H-edges
        # into v that a region walk can take, reversed, as (tail,
        # forward, backward, local, eidx) -- every edge leaving a region
        # node, plus the entry edges from the live rows.
        into: list[list[tuple]] = [[] for _ in range(n_nodes)]
        forward_caps: list[int] = []
        zero_out = dict.fromkeys(region, 0)  # zero-forward region out-edges
        exits: dict[int, None] = {}
        for tail, row in enumerate(adj):
            if tail in dead:
                for head, kind, eidx in row:
                    f, b, loc = hops_of[kind]
                    into[head].append((tail, f, b, loc, eidx))
                    forward_caps.append(f)
                    if head not in dead:
                        exits[head] = None
                    elif not f:
                        zero_out[tail] += 1
            else:
                for head, kind, eidx in row:
                    if head in dead:
                        f, b, loc = hops_of[kind]
                        into[head].append((tail, f, b, loc, eidx))
                        forward_caps.append(f)
        # Kahn's algorithm over the reversed zero-forward region edges;
        # node ids are no guide (a graph-built checker adds events per
        # process).  rank[u] is u's turn within a bucket, -1 off-region.
        order = [u for u in region if not zero_out[u]]
        for u in order:
            for w, f, _, _, _ in into[u]:
                if not f and w in dead:
                    zero_out[w] -= 1
                    if not zero_out[w]:
                        order.append(w)
        if len(order) < len(region):
            raise ValueError(
                "the region to compact contains a causal cycle; summary "
                "compaction needs an acyclic execution"
            )
        rank = [-1] * n_nodes
        for r, u in enumerate(order):
            rank[u] = r
        # A simple walk through the region uses each edge at most once
        # and at most |region| + 1 edges in total.
        forward_caps.sort(reverse=True)
        f_cap = sum(forward_caps[: len(dead) + 1])
        if floor is None:
            fa, fc, strict = 1, 1, False
        else:
            fa, fc, strict = floor.numerator, floor.denominator, True
        # The hop cap exists for the inclusive mode's termination; the
        # floored order prunes loops by weight and must not fracture
        # its frontier into hop-distinct duplicates (see docstring).
        use_hops = not strict
        h_cap = len(dead) + 1
        out: list[SummaryEdge] = []
        # Built once per call, so Pareto-sibling walks share their parts.
        part = cache(self._edge_part)

        def dominates(x_lab: tuple, y_lab: tuple, hops: bool) -> bool:
            if hops and x_lab[3] > y_lab[3]:
                return False  # more hops: the coverage induction
            df = x_lab[0] - y_lab[0]  # needs extensions of y too
            db = x_lab[1] - y_lab[1]
            if df > 0 or fa * df > fc * db:
                return False
            if strict:
                tie = df == 0 and db == 0
            else:
                tie = fa * df == fc * db
            return not tie or x_lab[2] >= y_lab[2]

        def offer(labels: list[tuple], cand: tuple, hops: bool) -> bool:
            for o in labels:
                if dominates(o, cand, hops):
                    return False  # dominated (or duplicate)
            labels[:] = [o for o in labels if not dominates(cand, o, hops)]
            labels.append(cand)
            return True

        for y in exits:
            # Labels are (f, b, l, h, parent label, eidx), the parent
            # being the label of the edge's head; the exit's seed ends
            # the chain.  A node holds one label as the bare tuple --
            # most never hold more -- and a Pareto list only once a
            # second one survives.
            held_at: list[tuple | list[tuple] | None] = [None] * n_nodes
            reached: list[int] = []  # entries, first arrival first
            buckets: dict[int, list[int]] = {}  # f -> heap of ranks

            def turns() -> Iterator[tuple[Sequence[tuple], list[tuple]]]:
                """The labels to extend and their reversed edges: the
                exit's seed, then each node's labels of forward hops
                ``f`` at its turn in bucket ``f``."""
                yield ((0, 0, 0, 0, None, -1),), into[y]
                while buckets:
                    f = min(buckets)
                    heap = buckets[f]  # zero-forward hops push more here
                    turn = -1
                    while heap:
                        r = heappop(heap)
                        if r == turn:
                            continue  # one turn per node and bucket
                        turn = r
                        node = order[r]
                        held = held_at[node]
                        if type(held) is list:
                            yield [o for o in held if o[0] == f], into[node]
                        elif held[0] == f:
                            yield (held,), into[node]
                    del buckets[f]

            for labels, edges in turns():
                for label in labels:
                    lf, lb, ll, lh, _, _ = label
                    nh = lh + 1
                    if use_hops and nh > h_cap:
                        continue
                    for w, hop_f, hop_b, hop_l, eidx in edges:
                        nf = lf + hop_f
                        if nf > f_cap:
                            continue
                        nb = lb + hop_b
                        nl = ll + hop_l
                        held = held_at[w]
                        r = rank[w]
                        if held is None:
                            held_at[w] = (nf, nb, nl, nh, label, eidx)
                            if r < 0:
                                reached.append(w)
                                continue
                        elif type(held) is tuple:
                            # ``dominates`` both ways, inline: the tie
                            # and the differences are shared.
                            df = held[0] - nf
                            wa = fa * df
                            wc = fc * (held[1] - nb)
                            tie = wa == wc and not (strict and df)
                            if (
                                df <= 0
                                and wa <= wc
                                and (not tie or held[2] >= nl)
                                and not (use_hops and held[3] > nh)
                            ):
                                continue  # dominated (or duplicate)
                            cand = (nf, nb, nl, nh, label, eidx)
                            if (
                                df >= 0
                                and wa >= wc
                                and (not tie or nl >= held[2])
                                and not (use_hops and nh > held[3])
                            ):
                                held_at[w] = cand
                            else:
                                held_at[w] = [held, cand]
                            if not df or r < 0:
                                continue  # an entry, or queued with held
                        elif (
                            not offer(
                                held, (nf, nb, nl, nh, label, eidx), use_hops
                            )
                            or r < 0
                        ):
                            continue
                        heappush(buckets.setdefault(nf, []), r)
            head = self._event(y)
            for x in reached:
                held = held_at[x]
                # Re-prune by weight alone, or hop-distinct but dominated
                # siblings would survive as parallel summary edges.
                pruned: list[tuple] = []
                for label in held if type(held) is list else (held,):
                    offer(pruned, label, False)
                tail = self._event(x)
                for label in pruned:
                    chain: list[int] = []
                    cursor = label
                    while cursor[5] >= 0:
                        chain.append(cursor[5])
                        cursor = cursor[4]
                    out.append(
                        SummaryEdge(
                            tail=tail,
                            head=head,
                            forward=label[0],
                            backward=label[1],
                            local=label[2],
                            parts=tuple(map(part, chain)),
                        )
                    )
        return out

    def summarizable_prefix(
        self, pinned: Iterable[Event] = ()
    ) -> dict[ProcessId, int]:
        """The largest cut summary compaction may absorb.

        Every live event strictly below the pinned ones, with each
        process's frontier (last live) event implicitly pinned --
        future local edges must attach to live events for the
        ratio-equivalence contract to cover extensions.  Callers whose
        stream carries in-flight-send knowledge should pin those send
        events too (their message edges are still to come); unpinned
        crossing sends degrade the contract exactly as exact-mode
        eviction does (the late edge is skipped and counted by the
        layers above).

        Returns the cut as a stop map: per process, the first index
        that stays live, listing only the processes with an event to
        remove (a stop above :meth:`first_live_index`), in process
        order.  It holds ``sum(stop - first_live_index(p))`` events;
        feed it to :meth:`compact_prefix`.
        """
        keep = {p: self.n_events_of(p) - 1 for p in self._ids}
        for event in pinned:
            if event.process in keep and event.index < keep[event.process]:
                keep[event.process] = event.index
        first_live = self._first_live
        return {
            process: stop
            for process, stop in sorted(keep.items())
            if stop > first_live.get(process, 0)
        }

    def _compact(self, dead: set[int]) -> None:
        """Physically drop ``dead`` nodes and incident edges, renumbering
        the survivors (stable order, so the compacted digraph is
        edge-for-edge the one a fresh build of the suffix would make).

        The summary-profile table is rebuilt from the surviving summary
        edges alone (their kinds remapped): profiles only referenced by
        dropped edges would otherwise accumulate forever, and every
        oracle call pays one weight-table entry per profile -- the
        table must stay bounded by the *live* digraph, like everything
        else here.  The potential (covering every node, or empty) keeps
        the survivors' values, and its realizing cycle keeps its edges
        when all of them survive.
        """
        remap = [-1] * len(self._procs)
        procs: list[ProcessId] = []
        idxs: list[int] = []
        for old_id in range(len(remap)):
            if old_id in dead:
                continue
            remap[old_id] = len(procs)
            procs.append(self._procs[old_id])
            idxs.append(self._idxs[old_id])
        tails: list[int] = []
        heads: list[int] = []
        kinds: list[int] = []
        summary_at: dict[int, SummaryEdge] = {}
        n_locals = 0
        profiles: list[tuple[int, int, int]] = []
        profile_ids: dict[tuple[int, int, int], int] = {}
        cycle = dict.fromkeys(self._pot_cycle or ())  # old -> new edge id
        for eidx in range(len(self._tails)):
            tail, head = remap[self._tails[eidx]], remap[self._heads[eidx]]
            kind = self._kinds[eidx]
            if tail < 0 or head < 0:
                if kind == _FWD_MESSAGE:
                    self._n_messages -= 1
                    self._n_compacted_messages += 1
                elif kind >= _SUMMARY:
                    summary = self._summary_at[eidx]
                    self._n_summaries -= 1
                    self._summary_hops -= max(
                        summary.forward, summary.backward
                    )
                continue
            if kind == _BWD_LOCAL:
                n_locals += 1
            elif kind >= _SUMMARY:
                summary = self._summary_at[eidx]
                key = summary.profile
                pid = profile_ids.get(key)
                if pid is None:
                    pid = len(profiles)
                    profiles.append(key)
                    profile_ids[key] = pid
                kind = _SUMMARY + pid
                summary_at[len(tails)] = summary
            if eidx in cycle:
                cycle[eidx] = len(tails)
            tails.append(tail)
            heads.append(head)
            kinds.append(kind)
        if self._pot:
            pot = self._pot
            self._pot = [pot[old] for old, new in enumerate(remap) if new >= 0]
            self._pot_shared = False
            self._pot_edges = len(tails)
        if cycle:
            new_ids = list(cycle.values())
            self._pot_cycle = None if None in new_ids else new_ids
        self._procs, self._idxs = procs, idxs
        self._ids = {
            process: [remap[node] for node in ids if remap[node] >= 0]
            for process, ids in self._ids.items()
        }
        self._tails, self._heads = tails, heads
        self._kinds, self._summary_at = kinds, summary_at
        self._n_locals = n_locals
        self._summary_profiles = profiles
        self._profile_ids = profile_ids
        adj: list[list[tuple[int, int, int]]] = [[] for _ in procs]
        for eidx in range(len(tails)):
            adj[tails[eidx]].append((heads[eidx], kinds[eidx], eidx))
        self._adj = adj
        self._epoch += 1

    def removable_prefix(
        self, pinned: Iterable[Event] = ()
    ) -> dict[ProcessId, int]:
        """The largest tombstonable prefix no message or summary crosses.

        Every relevant cycle that enters the region behind such a prefix
        can never leave it again (the only region-escaping traversals
        would be message or summary edges crossing the boundary), so
        once the prefix itself is known admissible, removing it exactly
        changes no future full-graph oracle answer.  This is the
        settledness criterion exact-mode eviction uses; when it yields
        nothing (a causal chain links history to the frontier), summary
        mode (:meth:`summarizable_prefix` + :meth:`compact_prefix`) is
        the fallback that still bounds memory.

        Args:
            pinned: events that must stay live (e.g. the send events of
                in-flight messages, whose future message edges would
                otherwise cross the boundary, and each process's frontier
                event so upcoming local edges stay intact).

        Returns the cut as a stop map, like :meth:`summarizable_prefix`:
        per process, the first index that stays live, listing only the
        processes with an event to remove, in process order.  Feed it to
        ``compact_prefix(stops, mode="exact")`` (possibly after checking
        the prefix is worth the compaction cost).  The cost is one pass
        over the events the pins keep and their edges, plus one over the
        summary edges; the events it removes are never scanned.
        """
        first_live = self._first_live
        # keep[p] = first index that must stay live; start fully removable.
        keep = {
            process: first_live.get(process, 0) + len(ids)
            for process, ids in self._ids.items()
        }
        scanned = keep.copy()  # scanned[p]: lowest index scanned so far
        for event in pinned:
            if event.process in keep and event.index < keep[event.process]:
                keep[event.process] = event.index
        # No message -- and no summary edge, which stands for a bundle of
        # crossing walks -- may span the boundary, in either direction:
        # every partner of a kept event is kept, and so is everything
        # above it.  One closure from the pins: each newly kept event is
        # scanned once, through its adjacency row (a message sits in both
        # endpoints' rows, a summary edge in its tail's) and the summary
        # edges ending at it.
        procs, idxs, adj, tails = self._procs, self._idxs, self._adj, self._tails
        summaries_into: dict[int, list[tuple[int, int, int]]] = {}
        for eidx in self._summary_at:
            summaries_into.setdefault(self._heads[eidx], []).append(
                (tails[eidx], self._kinds[eidx], eidx)
            )
        work = list(keep)
        while work:
            process = work.pop()
            first = first_live.get(process, 0)
            # A pin may lie below the live range: clamp to its start.
            low = max(keep[process], first)
            if low >= scanned[process]:
                continue
            ids = self._ids[process][low - first : scanned[process] - first]
            scanned[process] = low
            for node in ids:
                for row in (adj[node], summaries_into.get(node, ())):
                    for other, kind, _ in row:
                        if kind == _BWD_LOCAL:
                            continue
                        q = procs[other]
                        if idxs[other] < keep[q]:
                            keep[q] = idxs[other]
                            work.append(q)
        return {
            process: stop
            for process, stop in sorted(keep.items())
            if stop > first_live.get(process, 0)
        }

    # ------------------------------------------------------------------
    # the negative-cycle oracle
    # ------------------------------------------------------------------

    def _weights(self, p: int, q: int, scale: int, tie: int) -> list[int]:
        """Per-kind H-edge weights ``scale * (p * F - q * B) - tie * L``:
        the three regular kinds (``_FWD_MESSAGE`` / ``_BWD_MESSAGE`` /
        ``_BWD_LOCAL``) followed by one entry per summary profile."""
        table = [p * scale, -q * scale, -tie]
        for f, b, loc in self._summary_profiles:
            table.append(scale * (p * f - q * b) - tie * loc)
        return table

    def _cycle_ratio(self, cycle: list[int]) -> Fraction:
        """``B/F`` of a negative cycle a repair closed.

        It weighs ``a*F - d*B < 0`` at the potential's ratio ``a/d``, so
        ``B/F > a/d``; before the first cycle it weighs
        ``(F - B)*K - L < 0`` with ``0 <= L < K``, so ``B >= F``.  A
        backward-only cycle (``F == 0``) follows a causal cycle, which
        the public :meth:`add_message` can build: it has no ratio, so it
        raises ``ValueError``.
        """
        forward = backward = 0
        for eidx in cycle:
            f, b, _ = self._edge_hops(self._kinds[eidx])
            forward += f
            backward += b
        if not forward:
            events = ", ".join(
                repr(self._event(self._tails[eidx])) for eidx in cycle
            )
            raise ValueError(
                f"the execution contains a causal cycle through {events}; "
                "relevant-cycle ratios need an acyclic execution"
            )
        return Fraction(backward, forward)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def has_ratio_at_least(self, ratio: Fraction | float | int | str) -> bool:
        """Polynomial oracle: does some relevant cycle have
        ``|Z-|/|Z+| >= ratio``?

        Only ratios ``>= 1`` are meaningful (every relevant cycle has
        ratio at least 1 by Definition 3); smaller ratios reduce to
        testing whether any relevant cycle exists at all.  Answered from
        the exact worst ratio (:meth:`worst_relevant_ratio`), so it
        raises ``ValueError`` when the execution holds a causal cycle.
        """
        r = Fraction(ratio)
        if r <= 0:
            raise ValueError(f"ratio must be positive, got {r}")
        worst = self.worst_relevant_ratio()
        return worst is not None and worst >= max(r, 1)

    def violating_cycle(
        self, xi: Fraction | float | int | str
    ) -> CycleClassification | None:
        """A relevant cycle violating (2) for ``xi``, or ``None``.

        Violation means ``|Z-|/|Z+| >= xi``.  The witness is the cycle
        that realizes the worst ratio (:meth:`worst_cycle`), so its
        ratio is the worst, at least ``xi``.  Raises ``ValueError`` when
        the execution holds a causal cycle.
        """
        xi_frac = as_xi(xi)
        worst = self.worst_relevant_ratio()
        if worst is None or worst < xi_frac:
            return None
        return self.worst_cycle()

    def worst_cycle(self) -> CycleClassification | None:
        """The cycle that realizes the worst ratio the last
        worst-ratio query returned, as a witness with exactly that
        ratio; ``None`` when no live cycle is known to realize it (no
        cycle yet, or it was compacted away since).

        This is the last cycle a repair closed, so it costs no
        detection run.
        """
        if self._pot_cycle is None:
            return None
        assert self._pot_ratio is not None
        return self._witness(self._pot_cycle, self._pot_ratio)

    def _witness(
        self, cycle: list[int], at_least: Fraction
    ) -> CycleClassification:
        """``cycle``, classified as a relevant cycle of ratio at least
        ``at_least``.

        Summary edges expand into their realizing walks, so the witness
        is always made of genuine execution-graph steps (the expansion
        may revisit events; classification handles walks).
        """
        steps: list[Step] = []
        for eidx in cycle:
            part = self._edge_part(eidx)
            if isinstance(part, SummaryEdge):
                steps.extend(part.steps)
            else:
                steps.append(part)
        info = classify(Cycle(tuple(steps)))
        if not info.relevant or info.ratio is None or info.ratio < at_least:
            raise AssertionError(
                f"internal error: extracted cycle {info} is not a witness "
                f"of ratio at least {at_least}"
            )
        return info

    def check(self, xi: Fraction | float | int | str) -> AdmissibilityResult:
        """Decide ABC admissibility (Definition 4) in polynomial time.

        The witness of a violation is :meth:`violating_cycle`'s.  Raises
        ``ValueError`` when the execution holds a causal cycle.
        """
        xi_frac = as_xi(xi)
        witness = self.violating_cycle(xi_frac)
        return AdmissibilityResult(witness is None, xi_frac, witness)

    def worst_relevant_ratio(self) -> Fraction | None:
        """The exact maximum ``|Z-|/|Z+|`` over all relevant cycles.

        Returns ``None`` when the graph has no relevant cycle.  The result
        is the infimum of admissible ``Xi`` values: the graph is
        ABC-admissible for ``Xi`` iff ``Xi > worst_relevant_ratio()``.
        Raises ``ValueError`` when the execution holds a causal cycle.

        This is ``updated_worst_ratio(None)``: it repairs the stored
        potential, so repeated queries on a growing checker pay only for
        what was added in between.
        """
        return self.updated_worst_ratio(None)


# ----------------------------------------------------------------------
# one-shot convenience functions (build a checker, query once)
# ----------------------------------------------------------------------


def has_relevant_cycle_with_ratio_at_least(
    graph: ExecutionGraph, ratio: Fraction | float | int | str
) -> bool:
    """Polynomial oracle: does some relevant cycle have ``|Z-|/|Z+| >= ratio``?

    One-shot form of :meth:`AdmissibilityChecker.has_ratio_at_least`;
    build the checker once when issuing several queries.
    """
    return AdmissibilityChecker(graph).has_ratio_at_least(ratio)


def find_violating_cycle(
    graph: ExecutionGraph, xi: Fraction | float | int | str
) -> CycleClassification | None:
    """A relevant cycle violating (2) for ``xi``, or ``None``.

    Violation means ``|Z-|/|Z+| >= xi``; the returned classification is
    guaranteed relevant with ``ratio >= xi``.
    """
    return AdmissibilityChecker(graph).violating_cycle(xi)


def check_abc(
    graph: ExecutionGraph, xi: Fraction | float | int | str
) -> AdmissibilityResult:
    """Decide ABC admissibility (Definition 4) in polynomial time."""
    return AdmissibilityChecker(graph).check(xi)


def check_abc_exhaustive(
    graph: ExecutionGraph,
    xi: Fraction | float | int | str,
    max_length: int | None = None,
) -> AdmissibilityResult:
    """Decide admissibility by enumerating all cycles (small graphs only).

    Used to cross-validate :func:`check_abc` in the test suite, and to
    implement the length-restricted ABC variants of Section 6 (via
    ``max_length``).
    """
    xi_frac = as_xi(xi)
    for cycle in enumerate_cycles(graph, max_length=max_length):
        info = classify(cycle)
        if info.violates(xi_frac):
            return AdmissibilityResult(False, xi_frac, info)
    return AdmissibilityResult(True, xi_frac, None)


def worst_relevant_ratio(graph: ExecutionGraph) -> Fraction | None:
    """The exact maximum ``|Z-|/|Z+|`` over all relevant cycles.

    One-shot form of :meth:`AdmissibilityChecker.worst_relevant_ratio`
    (see there for the algorithm); ``None`` means the graph has no
    relevant cycle.
    """
    return AdmissibilityChecker(graph).worst_relevant_ratio()


def worst_relevant_ratio_exhaustive(
    graph: ExecutionGraph, max_length: int | None = None
) -> Fraction | None:
    """Exhaustive counterpart of :func:`worst_relevant_ratio` (tests)."""
    worst: Fraction | None = None
    for cycle in enumerate_cycles(graph, max_length=max_length):
        info = classify(cycle)
        if info.relevant and info.ratio is not None:
            if worst is None or info.ratio > worst:
                worst = info.ratio
    return worst
