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

Both degeneracies are eliminated by weighting.  For a violation test
against ``Xi = p/q`` (``ratio >= p/q``), give each H-edge the weight

* message forward:  ``+p * M``
* message backward: ``-q * M``
* local backward:   ``-1``

with ``M = (number of local edges) + 1``.  A simple H-cycle has weight
``(p*|Z+| - q*|Z-|) * M - #locals``; since every genuine cycle contains at
least one and at most ``M - 1`` local edges, the weight is negative iff
``q*|Z-| - p*|Z+| >= 0``, i.e. iff the cycle witnesses ``ratio >= p/q``.
The degenerate 2-cycle weighs ``(p - q) * M >= 0`` and cycles with more
forward than backward messages weigh at least ``M - #locals > 0``, so
neither can be reported.  Violation detection is therefore exactly
negative-cycle detection.

:class:`AdmissibilityChecker` is the workhorse behind every public
function here: it builds the *topology* of ``H`` exactly once per
execution graph (nodes, adjacency, traversal steps) and re-derives only
the edge weights per ``(p, q)`` query, so the oracle calls issued by a
worst-ratio search -- or by the online monitor of
:mod:`repro.analysis.online` -- share all of the construction work.
Negative cycles are found with an early-terminating queue-based detector
(SPFA): nodes are relaxed from a work queue seeded with every node (the
classical virtual source), the queue draining proves the absence of a
negative cycle, and once a relaxation chain grows to ``n`` edges the
recorded predecessor edges yield the cycle itself.  The checker is also
*extendable in place* (``add_event`` / ``add_message``), which is what
makes incremental monitoring cheap.

Two further mutation modes make the checker the substrate of the
ABC-*enforcing* scheduler and of the <>ABC stabilization search:

* **Speculative extension** -- :meth:`AdmissibilityChecker.checkpoint`
  records the current extent of ``H``; growing the checker past it and
  calling :meth:`AdmissibilityChecker.rollback` pops the added events
  and edges off again (all edge storage is append-only, so a rollback
  is O(delta)).  The :meth:`AdmissibilityChecker.speculate` context
  manager wraps the pair, letting a scheduler push a hypothetical
  delivery onto the live digraph, ask the oracle, and retract it
  without ever rebuilding ``H``.
* **Prefix compaction** -- :meth:`AdmissibilityChecker.compact_prefix`
  is a two-mode compaction engine over left-closed per-process prefixes
  of the observed events.  *Exact* mode (the original
  :meth:`AdmissibilityChecker.remove_prefix`) deletes the prefix
  together with every incident edge; the remaining checker answers
  queries about the *suffix* graph (the live-induced subgraph, exactly
  :func:`repro.core.variants.suffix_graph` up to event renaming).
  :meth:`AdmissibilityChecker.removable_prefix` computes the largest
  prefix whose exact removal also preserves *full-graph* queries: when
  no message (and no summary edge) crosses the prefix boundary, no
  relevant cycle spans both sides, so a prefix already known admissible
  can be dropped without changing any future oracle answer.  *Summary*
  mode removes **any** cut -- including ones messages cross -- by
  replacing the region with per-boundary-pair shortest-path
  :class:`SummaryEdge` objects.  Each summary edge stores the
  ``(forward, backward, local)`` hop profile of a realizing traversal
  walk through the region, so it re-weights exactly per ``(p, q)``
  query; per boundary pair the whole Pareto frontier of profiles is
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

On top of the oracle, :func:`worst_relevant_ratio` finds the exact maximum
``|Z-|/|Z+|`` over all relevant cycles -- the maximum cycle ratio ``B/F``
of ``H`` -- by climbing from cycle to cycle (Dinkelbach's parametric
method).  Every positive oracle run returns the negative cycle it found,
whose ratio ``B/F`` is realized and at least the probed ratio; the search
jumps there and probes the Farey successor under the denominator bound
(the message count).  The first probe that finds no cycle proves the last
realized ratio exact: no fraction with denominator within the bound lies
strictly between the two.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from heapq import heappop, heappush
from typing import Iterable, Iterator, Sequence

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
from repro.core.kernel import (
    Kernel,
    make_kernel,
    resolve_kernel_name,
)
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
    "farey_successor",
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


def _as_ratio(xi: Fraction | float | int | str) -> Fraction:
    # The hot callers (the enforcing scheduler's Xi probes) pass a
    # Fraction already; skip the re-normalizing constructor for those.
    ratio = xi if type(xi) is Fraction else Fraction(xi)
    if ratio <= 0:
        raise ValueError(f"ratio must be positive, got {ratio}")
    return ratio


def farey_successor(value: Fraction, max_den: int) -> Fraction:
    """The smallest fraction above ``value`` with denominator ``<= max_den``.

    This is ``value``'s right neighbor in the Farey sequence of order
    ``max_den``: for ``value = a/b`` it is the ``c/d`` with
    ``b*c - a*d == 1`` and the largest ``d <= max_den``, found from one
    extended-gcd solution shifted by multiples of ``(a, b)``.  Any
    fraction strictly between the two has denominator ``> max_den`` --
    the step of the worst-ratio climb
    (:meth:`AdmissibilityChecker.worst_relevant_ratio`): when no cycle
    reaches the successor of a realized ratio, that ratio is the
    maximum.
    """
    a, b = value.numerator, value.denominator
    if b > max_den:
        raise ValueError(
            f"denominator of {value} already exceeds the bound {max_den}"
        )
    if a == 0:
        return Fraction(1, max_den)
    # Extended gcd: find (c0, d0) with b*c0 - a*d0 == 1.
    old_r, r = b, a
    old_x, x = 1, 0
    while r:
        quotient = old_r // r
        old_r, r = r, old_r - quotient * r
        old_x, x = x, old_x - quotient * x
    assert old_r == 1, f"{value} not in lowest terms"
    c0 = old_x
    d0 = (b * c0 - 1) // a
    assert b * c0 - a * d0 == 1
    shift = (max_den - d0) // b
    return Fraction(c0 + shift * a, d0 + shift * b)


def farey_predecessor(value: Fraction, max_den: int) -> Fraction:
    """The largest fraction strictly below ``value`` with denominator
    ``<= max_den``.

    The mirror of :func:`farey_successor`, without its requirement that
    ``value`` itself lie within the denominator bound (``0/1`` always
    qualifies, so the predecessor exists for every positive ``value``).
    Found by a galloping Stern-Brocot descent; used by the ABC-enforcing
    scheduler to derive a summary-compaction floor strictly below its
    ``Xi`` that still dominates every realizable relevant-cycle ratio.
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
# canonical definitions live in :mod:`repro.core.kernel` (the kernels
# read them without importing this module); these aliases keep the
# checker's internals spelled the way they always were.
_FWD_MESSAGE = _kernel_mod.FWD_MESSAGE
_BWD_MESSAGE = _kernel_mod.BWD_MESSAGE
_BWD_LOCAL = _kernel_mod.BWD_LOCAL
# Kinds at or above _SUMMARY are summary edges: ``kind - _SUMMARY``
# indexes the checker's deduplicated (forward, backward, local) profile
# table, so resolving any edge's per-query weight stays one table lookup
# in the detection hot loop.
_SUMMARY = _kernel_mod.SUMMARY


@dataclass(frozen=True)
class SummaryEdge:
    """A boundary-to-boundary shortest-path summary of a compacted region.

    Produced by :meth:`AdmissibilityChecker.compact_prefix` in summary
    mode: one H-edge from ``tail`` to ``head`` standing in for the
    traversal walks that used to run through the removed region.  The
    profile counts the hops of one realizing walk -- ``forward`` message
    edges traversed along their direction, ``backward`` message edges
    traversed against it, ``local`` local edges -- so the edge
    re-weights exactly for every ``(p, q)`` query as
    ``scale * (p * forward - q * backward) - local``.  ``parts`` is the
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
    by :meth:`AdmissibilityChecker.remove_prefix` (which renumbers the
    digraph); ``epoch`` detects that.
    """

    n_nodes: int
    n_edges: int
    n_locals: int
    epoch: int


class AdmissibilityChecker:
    """Reusable, extendable decision procedure for one execution graph.

    The traversal digraph ``H`` (see the module docstring) is built once:
    nodes, adjacency lists and the :class:`~repro.core.cycles.Step` each
    H-edge corresponds to are all independent of the ratio being tested.
    Each query then only materializes the weight of every edge from its
    kind, so a worst-ratio search issuing several oracle calls pays the
    graph construction exactly once instead of once per call.

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

    Negative-cycle detection itself is delegated to a pluggable *kernel*
    (see :mod:`repro.core.kernel`): ``kernel=None`` follows the ambient
    ``REPRO_KERNEL`` environment variable (default ``py_object``, the
    reference SPFA), an explicit name pins one.  Every kernel is exact
    and bit-identical on every query surface; the choice is purely a
    speed/bookkeeping trade-off.  The kernel object itself is transient
    state -- it is dropped on pickling and lazily re-created, so
    snapshots restore under whatever kernel the restoring process
    selects (kernel-portable checkpoints).

    Attributes:
        oracle_calls: number of negative-cycle runs issued so far (for
            benchmarks and incrementality tests).
    """

    def __init__(
        self,
        graph: ExecutionGraph | None = None,
        *,
        kernel: str | None = None,
    ) -> None:
        if kernel is not None:
            resolve_kernel_name(kernel)  # fail fast on unknown names
        self._kernel_spec = kernel
        self._kernel_obj: Kernel | None = None
        self._nodes: list[Event] = []
        self._index: dict[Event, int] = {}
        self._events_per_process: dict[ProcessId, int] = {}
        # H-edges, struct-of-arrays: topology and steps are immutable per
        # edge, weights are derived per query from ``kind``.
        self._tails: list[int] = []
        self._heads: list[int] = []
        self._kinds: list[int] = []
        self._steps: list[Step] = []
        # node index -> [(head, kind, edge id), ...]; the detection hot
        # loop reads only this, with weights resolved through a per-kind
        # table, and records edge ids so a run can return its cycle.
        self._adj: list[list[tuple[int, int, int]]] = []
        self._messages: set[MessageEdge] = set()
        self._n_locals = 0
        # Tombstoning state: first still-live event index per process and
        # the compaction epoch (checkpoints from older epochs are dead).
        self._first_live: dict[ProcessId, int] = {}
        self._n_tombstoned = 0
        self._epoch = 0
        # Summary-compaction state: the deduplicated (forward, backward,
        # local) profile table indexed by ``kind - _SUMMARY``, plus the
        # running totals that keep the weighting scale and the climb's
        # ratio bound valid with summaries in the digraph.
        self._summary_profiles: list[tuple[int, int, int]] = []
        self._profile_ids: dict[tuple[int, int, int], int] = {}
        self._n_summaries = 0
        self._summary_locals = 0  # sum of `local` over live summary edges
        self._summary_hops = 0  # sum of max(fwd, bwd) over live summaries
        self._speculating = 0
        self.oracle_calls = 0
        if graph is not None:
            for process in graph.processes:
                for event in graph.events_of(process):
                    self.add_event(event)
            for message in graph.messages:
                self.add_message(message.src, message.dst)

    # ------------------------------------------------------------------
    # kernel selection
    # ------------------------------------------------------------------

    @property
    def _kernel(self) -> Kernel:
        """The bound detection kernel, created lazily (and re-created
        lazily after unpickling or :meth:`set_kernel`)."""
        obj = self._kernel_obj
        if obj is None:
            obj = self._kernel_obj = make_kernel(self._kernel_spec, self)
        return obj

    @property
    def kernel_name(self) -> str:
        """The kernel this checker resolves to right now (an unpinned
        checker follows the ``REPRO_KERNEL`` environment variable)."""
        if self._kernel_obj is not None:
            return self._kernel_obj.name
        return resolve_kernel_name(self._kernel_spec)

    def set_kernel(self, kernel: str | None) -> None:
        """Re-pin the detection kernel (``None`` = follow the ambient
        environment); any cached kernel state is discarded.  Purely a
        strategy switch -- every subsequent answer is bit-identical to
        what any other kernel would produce."""
        if kernel is not None:
            resolve_kernel_name(kernel)
        self._kernel_spec = kernel
        self._kernel_obj = None

    def __getstate__(self) -> dict:
        # The kernel object is transient (it may hold module references
        # and derived caches); drop it so snapshots are kernel-portable
        # and the restoring process re-resolves lazily.
        state = self.__dict__.copy()
        state["_kernel_obj"] = None
        return state

    # ------------------------------------------------------------------
    # incremental construction
    # ------------------------------------------------------------------

    @property
    def n_events(self) -> int:
        """Number of *live* (non-tombstoned) events in the digraph."""
        return len(self._nodes)

    @property
    def n_messages(self) -> int:
        """Number of live message edges."""
        return len(self._messages)

    @property
    def n_local_edges(self) -> int:
        return self._n_locals

    @property
    def n_tombstoned(self) -> int:
        """Number of events removed by :meth:`compact_prefix` (either
        mode) so far."""
        return self._n_tombstoned

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
        folded into summaries.  This is the denominator bound of the
        worst-ratio climb's Farey-successor steps; without summaries it
        reduces to the classical message-count bound.
        """
        return max(1, len(self._messages) + self._summary_hops)

    @property
    def processes(self) -> tuple[ProcessId, ...]:
        """Processes with at least one observed event (live or not)."""
        return tuple(self._events_per_process)

    def n_events_of(self, process: ProcessId) -> int:
        """Total events ever observed at ``process`` (tombstoned ones
        included -- this is the index the next :meth:`add_event` must
        carry, and the basis of :meth:`extends`)."""
        return self._events_per_process.get(process, 0)

    def first_live_index(self, process: ProcessId) -> int:
        """Index of the earliest non-tombstoned event at ``process``."""
        return self._first_live.get(process, 0)

    @property
    def messages(self) -> frozenset[MessageEdge]:
        """The message edges added so far (snapshot)."""
        return frozenset(self._messages)

    def has_message(self, message: MessageEdge) -> bool:
        return message in self._messages

    def add_event(self, event: Event) -> None:
        """Append the next receive event of its process.

        Events of one process must arrive in local order (index 0, 1, ...);
        the local edge from the previous event is created implicitly, as a
        backward-only H-edge.
        """
        expected = self._events_per_process.get(event.process, 0)
        if event.index != expected:
            raise ValueError(
                f"events of process {event.process} must arrive in local "
                f"order: expected index {expected}, got {event!r}"
            )
        self._events_per_process[event.process] = expected + 1
        self._index[event] = len(self._nodes)
        self._nodes.append(event)
        self._adj.append([])
        if event.index > 0:
            prev = Event(event.process, event.index - 1)
            prev_id = self._index.get(prev)
            # A tombstoned predecessor leaves the new event without a
            # local edge, exactly as in the suffix graph.
            if prev_id is not None:
                self._add_h_edge(
                    self._index[event],
                    prev_id,
                    _BWD_LOCAL,
                    Step(LocalEdge(prev, event), AGAINST),
                )
                self._n_locals += 1

    def add_message(self, src: Event, dst: Event) -> bool:
        """Add a message edge; returns ``False`` for an exact duplicate.

        Duplicates are dropped to match
        :class:`~repro.core.execution_graph.ExecutionGraph`, which stores
        messages as a set.
        """
        message = MessageEdge(src, dst)
        if message in self._messages:
            return False
        for endpoint in (src, dst):
            if endpoint not in self._index:
                raise KeyError(
                    f"event {endpoint!r} not in the checker (never added, "
                    "or tombstoned)"
                )
        if src == dst:
            raise ValueError(f"message {message!r} may not be a self loop")
        self._messages.add(message)
        u, v = self._index[src], self._index[dst]
        self._add_h_edge(u, v, _FWD_MESSAGE, Step(message, ALONG))
        self._add_h_edge(v, u, _BWD_MESSAGE, Step(message, AGAINST))
        return True

    def absorb_batch(
        self,
        events: tuple[Sequence[ProcessId], Sequence[int]],
        messages: Sequence[tuple[ProcessId, int] | None] | None = None,
    ) -> int:
        """Bulk-append a batch of events (and their triggering messages).

        The columnar twin of a per-record :meth:`add_event` /
        :meth:`add_message` loop, for the zero-object ingest path:

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
        ``k``'s message edges) -- the cycle every oracle run returns,
        and so the climb's probes and the witness, depends on edge
        order, so the interleaving is part of the contract.  Local-order violations are detected in a validation
        pre-pass over the whole batch *before any mutation*, so a bad
        event column leaves the checker untouched; message errors
        (unknown endpoint, self loop) surface mid-apply exactly as they
        would mid-stream.  Exact duplicate messages are dropped, as in
        :meth:`add_message`.

        Appends happen on the flat digraph arrays once per batch; any
        attached kernel discovers them lazily (one ``extend``) at the
        next oracle probe.  Returns the number of message edges added.
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
        epp = self._events_per_process
        expected: dict[ProcessId, int] = {}
        for k in range(n):
            p = processes[k]
            want = expected.get(p)
            if want is None:
                want = epp.get(p, 0)
            if indexes[k] != want:
                bad = Event.__new__(Event)
                bad.__dict__["process"] = p
                bad.__dict__["index"] = indexes[k]
                raise ValueError(
                    f"events of process {p} must arrive in local "
                    f"order: expected index {want}, got {bad!r}"
                )
            expected[p] = want + 1
        # Fused apply pass, locals bound once.  Every object on this
        # path -- events, edges, traversal steps -- is built from
        # values the validation pre-pass (or the digraph itself)
        # already vouched for, so the frozen dataclasses are
        # fast-constructed via ``__new__`` + direct ``__dict__``
        # stores, skipping checked ``__init__``/``__post_init__``
        # exactly as the wire decoder does.  Equality and hash derive
        # from the fields, so the instances are indistinguishable from
        # per-record ones.
        #
        # Two batch-local shortcuts the per-record loop cannot take:
        #
        # * ``batch_ids`` maps the batch's own ``(process, index)``
        #   pairs to node ids with C-speed tuple hashing, so local
        #   predecessors and (in dense streams, nearly all) message
        #   sources resolve without constructing a probe ``Event`` or
        #   paying its Python-level ``__hash__``.
        # * The duplicate-message check of :meth:`add_message` is
        #   skipped outright: row ``k``'s destination is row ``k``'s
        #   *own just-appended event* -- validation guarantees it is
        #   new -- so no message to it can already exist.  Self loops
        #   reduce to ``src_id == node_id`` for the same reason.
        epp.update(expected)
        nodes = self._nodes
        index = self._index
        adj = self._adj
        tails = self._tails
        heads = self._heads
        kinds = self._kinds
        steps = self._steps
        msgs = self._messages
        new_event = Event.__new__
        new_step = Step.__new__
        new_local = LocalEdge.__new__
        new_message = MessageEdge.__new__
        batch_ids: dict[tuple[ProcessId, int], int] = {}
        batch_hit = batch_ids.get
        added = 0
        for k in range(n):
            p = processes[k]
            i = indexes[k]
            event = new_event(Event)
            event.__dict__["process"] = p
            event.__dict__["index"] = i
            node_id = len(nodes)
            index[event] = node_id
            batch_ids[(p, i)] = node_id
            nodes.append(event)
            adj.append([])
            if i > 0:
                prev_id = batch_hit((p, i - 1))
                if prev_id is not None:
                    prev = nodes[prev_id]
                else:
                    prev = new_event(Event)
                    prev.__dict__["process"] = p
                    prev.__dict__["index"] = i - 1
                    prev_id = index.get(prev)
                # A tombstoned predecessor leaves the new event without
                # a local edge, exactly as in add_event.
                if prev_id is not None:
                    edge = new_local(LocalEdge)
                    edge.__dict__["src"] = prev
                    edge.__dict__["dst"] = event
                    step = new_step(Step)
                    step.__dict__["edge"] = edge
                    step.__dict__["direction"] = AGAINST
                    adj[node_id].append((prev_id, _BWD_LOCAL, len(tails)))
                    tails.append(node_id)
                    heads.append(prev_id)
                    kinds.append(_BWD_LOCAL)
                    steps.append(step)
                    self._n_locals += 1
            if messages is None:
                continue
            origin = messages[k]
            if origin is None:
                continue
            src_id = batch_hit(origin)
            if src_id is not None:
                src = nodes[src_id]
            else:
                src = new_event(Event)
                src.__dict__["process"] = origin[0]
                src.__dict__["index"] = origin[1]
                src_id = index.get(src)
                if src_id is None:
                    raise KeyError(
                        f"event {src!r} not in the checker (never "
                        "added, or tombstoned)"
                    )
            message = new_message(MessageEdge)
            message.__dict__["src"] = src
            message.__dict__["dst"] = event
            if src_id == node_id:
                raise ValueError(
                    f"message {message!r} may not be a self loop"
                )
            msgs.add(message)
            fwd = new_step(Step)
            fwd.__dict__["edge"] = message
            fwd.__dict__["direction"] = ALONG
            bwd = new_step(Step)
            bwd.__dict__["edge"] = message
            bwd.__dict__["direction"] = AGAINST
            adj[src_id].append((node_id, _FWD_MESSAGE, len(tails)))
            tails.append(src_id)
            heads.append(node_id)
            kinds.append(_FWD_MESSAGE)
            steps.append(fwd)
            adj[node_id].append((src_id, _BWD_MESSAGE, len(tails)))
            tails.append(node_id)
            heads.append(src_id)
            kinds.append(_BWD_MESSAGE)
            steps.append(bwd)
            added += 1
        return added

    def extends(self, graph: ExecutionGraph) -> bool:
        """Whether ``graph`` extends the prefix this checker has seen
        (at least as many events per process, a superset of messages)."""
        for process in self.processes:
            if len(graph.events_of(process)) < self.n_events_of(process):
                return False
        if self._messages:
            if not self._messages <= set(graph.messages):
                return False
        return True

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
            if message in self._messages:
                continue
            # Messages whose endpoint lies in a tombstoned prefix were
            # forgotten deliberately -- not new edges to absorb.
            if (
                message.src.index < self.first_live_index(message.src.process)
                or message.dst.index < self.first_live_index(message.dst.process)
            ):
                continue
            self.add_message(message.src, message.dst)
            added = True
        return added

    def updated_worst_ratio(
        self, previous: Fraction | None
    ) -> Fraction | None:
        """The exact worst relevant ratio, given the exact worst
        ``previous`` of a subgraph of the current graph.

        Fast path of the incremental monitor: under extension the worst
        ratio either stayed at ``previous`` or reached at least its
        Farey successor under the current denominator bound, so the
        climb's first probe -- one oracle call -- usually settles it;
        only an actual increase climbs further.
        """
        if previous is not None and previous.denominator > self.ratio_bound:
            # Only after tombstoning: the live suffix has fewer messages
            # than the prefix that realized ``previous``.  No Farey step
            # from it exists within the new bound; the suffix search is
            # cheap (few messages) and the running maximum keeps
            # ``previous``.
            current = self._climb(None)
            return current if current is not None and current > previous else previous
        return self._climb(previous)

    def _add_h_edge(self, tail: int, head: int, kind: int, step: Step) -> None:
        self._adj[tail].append((head, kind, len(self._tails)))
        self._tails.append(tail)
        self._heads.append(head)
        self._kinds.append(kind)
        self._steps.append(step)

    # ------------------------------------------------------------------
    # speculative extension (checkpoint / rollback)
    # ------------------------------------------------------------------

    def checkpoint(self) -> CheckerCheckpoint:
        """Record the current extent of ``H`` for a later :meth:`rollback`.

        Checkpoints nest (roll back in reverse order of creation) and are
        O(1): all edge storage is append-only, so the extent is four
        integers.  A checkpoint does not survive :meth:`remove_prefix`,
        which renumbers the digraph.
        """
        return CheckerCheckpoint(
            len(self._nodes), len(self._tails), self._n_locals, self._epoch
        )

    def rollback(self, token: CheckerCheckpoint) -> None:
        """Pop every event and edge added since ``token`` off the digraph.

        Restores the checker to the checkpointed state exactly (same
        nodes, adjacency, message set, local-edge count -- and therefore
        the same answer to every query); only ``oracle_calls`` keeps
        counting across rollbacks.  O(number of popped events + edges).
        """
        if token.epoch != self._epoch:
            raise ValueError(
                "checkpoint predates a remove_prefix; the digraph was "
                "renumbered and cannot be rolled back to it"
            )
        if token.n_nodes > len(self._nodes) or token.n_edges > len(self._tails):
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
                self._messages.remove(self._steps[eidx].edge)
        del self._tails[token.n_edges :]
        del self._heads[token.n_edges :]
        del self._kinds[token.n_edges :]
        del self._steps[token.n_edges :]
        self._n_locals = token.n_locals
        for _ in range(len(self._nodes) - token.n_nodes):
            event = self._nodes.pop()
            del self._index[event]
            leftover = self._adj.pop()
            if leftover:
                raise RuntimeError(
                    f"rollback popped node {event!r} with {len(leftover)} "
                    "outgoing edges still attached; the digraph is corrupt"
                )
            remaining = self._events_per_process[event.process] - 1
            if remaining:
                self._events_per_process[event.process] = remaining
            else:
                del self._events_per_process[event.process]
        if self._kernel_obj is not None:
            self._kernel_obj.notify_rollback(token.n_nodes, token.n_edges)

    @contextmanager
    def speculate(self) -> Iterator["AdmissibilityChecker"]:
        """Context manager bracketing a speculative extension.

        Within the block the checker may be grown freely (``add_event``,
        ``add_message``) and queried; on exit everything added is popped
        off again.  This is what lets the ABC-enforcing scheduler push a
        hypothetical delivery onto the live digraph, ask the oracle, and
        retract it without a rebuild.  :meth:`remove_prefix` is rejected
        inside a speculation.
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

    def remove_prefix(self, events: Iterable[Event]) -> int:
        """Exact-mode prefix removal (the original tombstoning API).

        Equivalent to ``compact_prefix(events, mode="exact")``; see
        there for the shared prefix discipline and for the summary mode
        that makes message-crossing cuts removable.
        """
        return self.compact_prefix(events, mode="exact")

    def compact_prefix(
        self,
        events: Iterable[Event],
        mode: str = "summary",
        floor: Fraction | None = None,
    ) -> int:
        """Compact a left-closed per-process prefix out of the digraph.

        ``events`` must, per process, extend the already-compacted
        prefix contiguously (events already compacted are ignored, so
        passing a cumulatively grown cut is fine).  Arrays are compacted
        eagerly, so memory is bounded by the live graph plus the summary
        edges; returns the number of events removed.  Two modes:

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
          events; use :meth:`summarizable_prefix` to enumerate the
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
        """
        if mode not in ("exact", "summary"):
            raise ValueError(f"unknown compaction mode {mode!r}")
        if self._speculating:
            raise RuntimeError("cannot compact a prefix inside speculate()")
        new_first: dict[ProcessId, list[int]] = {}
        for event in events:
            new_first.setdefault(event.process, []).append(event.index)
        stops: dict[ProcessId, int] = {}
        for process, indices in new_first.items():
            total = self._events_per_process.get(process, 0)
            first = self._first_live.get(process, 0)
            fresh = sorted(i for i in set(indices) if i >= first)
            if not fresh:
                continue
            if fresh[-1] >= total:
                raise KeyError(
                    f"event p{process}:{fresh[-1]} was never added to the "
                    "checker"
                )
            if fresh != list(range(first, first + len(fresh))):
                raise ValueError(
                    f"tombstoned events of process {process} must extend "
                    f"the removed prefix contiguously from index {first}"
                )
            stop = first + len(fresh)
            if mode == "summary":
                # Keep the frontier event live: the next add_event at
                # this process attaches its local edge there, which the
                # ratio-equivalence contract under extension needs.
                stop = min(stop, total - 1)
            if stop > first:
                stops[process] = stop
        if not stops:
            return 0
        dead: set[int] = set()
        for process, stop in stops.items():
            for index in range(self._first_live.get(process, 0), stop):
                dead.add(self._index[Event(process, index)])
        # Summarize before mutating anything: the search rejects a
        # causal cycle with ValueError and must leave the checker whole.
        summaries = (
            self._summarize_region(dead, floor) if mode == "summary" else ()
        )
        self._first_live.update(stops)
        self._compact(dead)
        for edge in summaries:
            self._attach_summary(edge)
        self._n_tombstoned += len(dead)
        return len(dead)

    def _edge_hops(self, kind: int) -> tuple[int, int, int]:
        """The (forward, backward, local) hop profile of one H-edge."""
        if kind == _FWD_MESSAGE:
            return (1, 0, 0)
        if kind == _BWD_MESSAGE:
            return (0, 1, 0)
        if kind == _BWD_LOCAL:
            return (0, 0, 1)
        return self._summary_profiles[kind - _SUMMARY]

    def _edge_part(self, eidx: int) -> "Step | SummaryEdge":
        """One H-edge as a walk part: its step, or the whole summary
        (shared, not flattened -- see :attr:`SummaryEdge.parts`)."""
        return self._steps[eidx]

    def _attach_summary(self, edge: SummaryEdge) -> None:
        key = edge.profile
        pid = self._profile_ids.get(key)
        if pid is None:
            pid = len(self._summary_profiles)
            self._summary_profiles.append(key)
            self._profile_ids[key] = pid
        self._add_h_edge(
            self._index[edge.tail], self._index[edge.head], _SUMMARY + pid, edge
        )
        self._n_summaries += 1
        self._summary_locals += edge.local
        self._summary_hops += max(edge.forward, edge.backward)

    def _live_summaries(self) -> Iterator[SummaryEdge]:
        for eidx, kind in enumerate(self._kinds):
            if kind >= _SUMMARY:
                yield self._steps[eidx]

    def _summarize_region(
        self, dead: set[int], floor: Fraction | None
    ) -> list[SummaryEdge]:
        """Pareto shortest-path summaries of the region about to die.

        For every live *boundary* node ``x`` with an H-edge into the
        region, a label-setting search explores traversal walks through
        region nodes only, recording at every live exit node ``y`` the
        Pareto frontier of reachable ``(forward, backward, local)``
        profiles.  The per-query weight is ``scale * (p * f - q * b) - l``
        with ``(p, q)`` unknown at compaction time; over the query range
        the caller needs (``p/q >= 1`` for ``floor=None``, ``p/q > floor
        = a/c`` otherwise) a profile ``x`` dominates ``y`` iff

            ``f_x <= f_y``  and  ``a * (f_x - f_y) <= c * (b_x - b_y)``

        with a local-hop tie-break (``l_x >= l_y``) required exactly
        where the weight difference can vanish: at equal ``f`` and
        ``b`` for a strict floor, additionally at
        ``a * df == c * db`` for the inclusive default.  The floored
        order prunes every walk that loops a region cycle of ratio
        ``<= floor`` -- such loops only improve queries at or below the
        floor -- keeping the label space region-bounded even when the
        settled past is full of relevant cycles.

        Labels are settled in increasing forward hops ``f`` (a bucket
        queue) and, within one ``f``, in a topological order of the
        region's zero-forward edges: backward messages, backward locals
        and older summaries with ``forward == 0``.  These form a DAG,
        because a backward-only walk follows the causal order in
        reverse.  ``f`` leads both dominance orders, so by a node's turn
        every label that could dominate its candidates is known, and
        each surviving label is extended exactly once.  A causal cycle
        in the region (the public :meth:`add_message` can build one)
        raises ``ValueError`` instead.

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
        # Region edges as (head, forward, backward, local, eidx).
        entries: dict[int, list[tuple]] = {}  # live tail -> edges in
        leaving: dict[int, list[tuple]] = {}  # region tail -> out-edges
        forward_caps: list[int] = []
        indegree = dict.fromkeys(sorted(dead), 0)  # zero-forward in-edges
        for eidx, (tail, head) in enumerate(zip(self._tails, self._heads)):
            if tail not in dead and head not in dead:
                continue
            edge = (head, *self._edge_hops(self._kinds[eidx]), eidx)
            forward_caps.append(edge[1])
            if tail not in dead:
                entries.setdefault(tail, []).append(edge)
            else:
                leaving.setdefault(tail, []).append(edge)
                if head in dead and not edge[1]:
                    indegree[head] += 1
        # Kahn's algorithm over the zero-forward region edges; node ids
        # are no guide (a graph-built checker adds events per process).
        order = [node for node, degree in indegree.items() if not degree]
        for node in order:
            for head, forward, *_ in leaving.get(node, ()):
                if not forward and head in dead:
                    indegree[head] -= 1
                    if not indegree[head]:
                        order.append(head)
        if len(order) < len(dead):
            raise ValueError(
                "the region to compact contains a causal cycle; summary "
                "compaction needs an acyclic execution"
            )
        rank = {node: r for r, node in enumerate(order)}
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
        for x, seed_edges in entries.items():
            # Labels are (f, b, l, h, parent label | None, eidx); the
            # parent chain reconstructs the realizing walk.
            frontier: dict[int, list[tuple]] = {}
            results: dict[int, list[tuple]] = {}
            buckets: dict[int, list[int]] = {}  # f -> heap of node ranks

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

            def offer(
                labels: list[tuple], cand: tuple, hops: bool = use_hops
            ) -> bool:
                for o in labels:
                    if dominates(o, cand, hops):
                        return False  # dominated (or duplicate)
                labels[:] = [o for o in labels if not dominates(cand, o, hops)]
                labels.append(cand)
                return True

            def extend(label: tuple, edges: list[tuple]) -> None:
                nh = label[3] + 1
                if use_hops and nh > h_cap:
                    return
                for head, df, db, dl, eidx in edges:
                    nf = label[0] + df
                    if nf > f_cap:
                        continue
                    nxt = (nf, label[1] + db, label[2] + dl, nh, label, eidx)
                    if head not in dead:
                        offer(results.setdefault(head, []), nxt)
                    elif offer(frontier.setdefault(head, []), nxt):
                        heappush(buckets.setdefault(nf, []), rank[head])

            extend((0, 0, 0, 0, None, -1), seed_edges)
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
                    for label in [o for o in frontier[node] if o[0] == f]:
                        extend(label, leaving.get(node, ()))
                del buckets[f]
            for y, labels in results.items():
                # Re-prune by weight alone, or hop-distinct but dominated
                # siblings would survive as parallel summary edges.
                pruned: list[tuple] = []
                for label in labels:
                    offer(pruned, label, hops=False)
                for label in pruned:
                    chain: list[int] = []
                    cursor: tuple | None = label
                    while cursor is not None and cursor[5] >= 0:
                        chain.append(cursor[5])
                        cursor = cursor[4]
                    chain.reverse()
                    out.append(
                        SummaryEdge(
                            tail=self._nodes[x],
                            head=self._nodes[y],
                            forward=label[0],
                            backward=label[1],
                            local=label[2],
                            parts=tuple(
                                self._edge_part(eidx) for eidx in chain
                            ),
                        )
                    )
        return out

    def summarizable_prefix(
        self, pinned: Iterable[Event] = ()
    ) -> tuple[Event, ...]:
        """The largest cut summary compaction may absorb.

        Every live event strictly below the pinned ones, with each
        process's frontier (last live) event implicitly pinned --
        future local edges must attach to live events for the
        ratio-equivalence contract to cover extensions.  Callers whose
        stream carries in-flight-send knowledge should pin those send
        events too (their message edges are still to come); unpinned
        crossing sends degrade the contract exactly as exact-mode
        eviction does (the late edge is skipped and counted by the
        layers above).  Returns the removable live events, oldest first
        per process; feed them to :meth:`compact_prefix`.
        """
        keep: dict[ProcessId, int] = {
            process: total - 1
            for process, total in self._events_per_process.items()
        }
        for event in pinned:
            if event.process in keep and event.index < keep[event.process]:
                keep[event.process] = event.index
        return tuple(
            Event(process, index)
            for process, stop in sorted(keep.items())
            for index in range(self._first_live.get(process, 0), stop)
        )

    def _compact(self, dead: set[int]) -> None:
        """Physically drop ``dead`` nodes and incident edges, renumbering
        the survivors (stable order, so the compacted digraph is
        edge-for-edge the one a fresh build of the suffix would make).

        The summary-profile table is rebuilt from the surviving summary
        edges alone (their kinds remapped): profiles only referenced by
        dropped edges would otherwise accumulate forever, and every
        oracle call pays one weight-table entry per profile -- the
        table must stay bounded by the *live* digraph, like everything
        else here.
        """
        remap = [-1] * len(self._nodes)
        survivors: list[Event] = []
        for old_id, event in enumerate(self._nodes):
            if old_id in dead:
                del self._index[event]
                continue
            remap[old_id] = len(survivors)
            survivors.append(event)
        tails: list[int] = []
        heads: list[int] = []
        kinds: list[int] = []
        steps: list[Step] = []
        n_locals = 0
        profiles: list[tuple[int, int, int]] = []
        profile_ids: dict[tuple[int, int, int], int] = {}
        for eidx in range(len(self._tails)):
            tail, head = remap[self._tails[eidx]], remap[self._heads[eidx]]
            kind = self._kinds[eidx]
            if tail < 0 or head < 0:
                if kind == _FWD_MESSAGE:
                    self._messages.remove(self._steps[eidx].edge)
                elif kind >= _SUMMARY:
                    summary = self._steps[eidx]
                    self._n_summaries -= 1
                    self._summary_locals -= summary.local
                    self._summary_hops -= max(
                        summary.forward, summary.backward
                    )
                continue
            if kind == _BWD_LOCAL:
                n_locals += 1
            elif kind >= _SUMMARY:
                key = self._steps[eidx].profile
                pid = profile_ids.get(key)
                if pid is None:
                    pid = len(profiles)
                    profiles.append(key)
                    profile_ids[key] = pid
                kind = _SUMMARY + pid
            tails.append(tail)
            heads.append(head)
            kinds.append(kind)
            steps.append(self._steps[eidx])
        self._nodes = survivors
        for new_id, event in enumerate(survivors):
            self._index[event] = new_id
        self._tails, self._heads = tails, heads
        self._kinds, self._steps = kinds, steps
        self._n_locals = n_locals
        self._summary_profiles = profiles
        self._profile_ids = profile_ids
        adj: list[list[tuple[int, int, int]]] = [[] for _ in survivors]
        for eidx in range(len(tails)):
            adj[tails[eidx]].append((heads[eidx], kinds[eidx], eidx))
        self._adj = adj
        self._epoch += 1
        if self._kernel_obj is not None:
            self._kernel_obj.notify_compact()

    def removable_prefix(
        self, pinned: Iterable[Event] = ()
    ) -> tuple[Event, ...]:
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

        Returns the removable live events, oldest first per process;
        feed them to :meth:`remove_prefix` (possibly after checking the
        prefix is worth the compaction cost).
        """
        # keep[p] = first index that must stay live; start fully removable.
        keep = dict(self._events_per_process)
        for event in pinned:
            if event.process in keep and event.index < keep[event.process]:
                keep[event.process] = event.index
        # No message -- and no summary edge, which stands for a bundle of
        # crossing walks -- may span the boundary, in either direction:
        # shrink until closed (each pass only lowers keep[], so this
        # terminates).
        spans = [(m.src, m.dst) for m in self._messages]
        spans.extend((s.tail, s.head) for s in self._live_summaries())
        changed = True
        while changed:
            changed = False
            for src, dst in spans:
                src_live = src.index >= keep[src.process]
                dst_live = dst.index >= keep[dst.process]
                if src_live and not dst_live:
                    keep[dst.process] = dst.index
                    changed = True
                elif dst_live and not src_live:
                    keep[src.process] = src.index
                    changed = True
        return tuple(
            Event(process, index)
            for process, stop in sorted(keep.items())
            for index in range(self._first_live.get(process, 0), stop)
        )

    # ------------------------------------------------------------------
    # the negative-cycle oracle
    # ------------------------------------------------------------------

    def _weight_table(self, p: int, q: int) -> list[int]:
        """Per-kind H-edge weights for a ratio ``p/q`` query: the three
        regular kinds (``_FWD_MESSAGE`` / ``_BWD_MESSAGE`` /
        ``_BWD_LOCAL``) followed by one entry per summary profile.

        The scale counts the local edges folded into summaries alongside
        the live ones, preserving the degeneracy argument of the module
        docstring: every simple cycle of the compacted digraph carries a
        local-edge tie-break of at least 1 and at most ``scale - 1``.
        """
        scale = self._n_locals + self._summary_locals + 1
        table = [p * scale, -q * scale, -1]
        for f, b, loc in self._summary_profiles:
            table.append(scale * (p * f - q * b) - loc)
        return table

    def _has_negative_cycle(
        self, p: int, q: int, sources: list[int] | None = None
    ) -> list[int] | None:
        """Queue-based negative-cycle detection on ``H`` weighted for p/q.

        Returns the H-edge ids of one simple negative cycle, in walk
        order, or ``None`` when there is none.

        SPFA with round batching: every node starts at distance 0 on the
        work queue (the classical virtual source connected to all nodes),
        and each round relaxes the out-edges of exactly the nodes improved
        in the previous round -- coalescing the relaxation waves that make
        plain FIFO SPFA revisit nodes redundantly.  The queue draining
        proves there is no negative cycle.  Each improvement records the
        H-edge it came through; once a relaxation chain grows to ``n``
        edges, the walk back along those edges closes a cycle, and every
        such cycle is negative, because each link was a strict
        improvement when recorded.  Early termination cuts both ways:
        admissible graphs converge once the frontier dies out, without
        ever touching settled regions again, and grossly violating ones
        trip the chain bound long before the ``n * m`` worst case.

        With ``sources``, detection becomes Bellman-Ford from a source
        set: the sources start at distance 0 on the queue, every other
        node at ``+inf``, which detects exactly the negative cycles
        *reachable* from the sources (still with no false positives --
        the predecessor argument is seeding independent).  The ``+inf``
        initialization is essential: zero-initializing non-sources would
        stall the relaxation wave at the first positive-weight
        (forward-message) edge whose running prefix sum is nonnegative,
        missing cycles that genuinely pass through a source.  Callers
        must guarantee every possible negative cycle is reachable from
        the sources, e.g. because the graph without the speculative
        additions is known negative-cycle-free.

        The detection run itself is delegated to the bound kernel (see
        :mod:`repro.core.kernel`): the reference ``py_object`` kernel is
        exactly the loop described above
        (:func:`repro.core.kernel.negative_cycle`); the ``flat_int``
        kernel answers most negative probes from an exact integer
        potential certificate and runs that same loop for the rest, so
        every kernel returns the same cycle.
        """
        return self._kernel.has_negative_cycle(p, q, sources)

    def _cycle_ratio(self, cycle: list[int]) -> Fraction:
        """``B/F`` of a negative cycle the oracle returned.

        Its weight ``s*(p*F - q*B) - L`` is negative with ``0 <= L <
        s``, so ``B/F >= p/q``; and a simple cycle takes each message
        and summary edge at most once, so ``F`` is within
        :attr:`ratio_bound`.  A backward-only cycle (``F == 0``) follows
        a causal cycle, which the public :meth:`add_message` can build:
        it has no ratio, so it raises ``ValueError``.
        """
        forward = backward = 0
        for eidx in cycle:
            f, b, _ = self._edge_hops(self._kinds[eidx])
            forward += f
            backward += b
        if not forward:
            events = ", ".join(
                repr(self._nodes[self._tails[eidx]]) for eidx in cycle
            )
            raise ValueError(
                f"the execution contains a causal cycle through {events}; "
                "relevant-cycle ratios need an acyclic execution"
            )
        return Fraction(backward, forward)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def has_ratio_at_least(
        self,
        ratio: Fraction | float | int | str,
        sources: Iterable[Event] | None = None,
    ) -> bool:
        """Polynomial oracle: does some relevant cycle have
        ``|Z-|/|Z+| >= ratio``?

        Only ratios ``>= 1`` are meaningful (every relevant cycle has
        ratio at least 1 by Definition 3); smaller ratios reduce to
        testing whether any relevant cycle exists at all.

        Args:
            sources: restrict detection to violating cycles *reachable*
                from these events in the traversal digraph (Bellman-Ford
                from a source set).  Only sound when every possible
                violation passes through their reachable region -- the
                speculative scheduler qualifies because its realized
                prefix is violation-free by construction, so any
                violating cycle must involve a speculatively added
                H-edge; every such edge is incident to a new receive
                event, so the cycle passes through -- and is reachable
                from -- that event, and listing the new receive events
                alone suffices.
        """
        r = max(_as_ratio(ratio), Fraction(1))
        self.oracle_calls += 1
        source_ids: list[int] | None = None
        if sources is not None:
            source_ids = [self._index[ev] for ev in sources]
        return (
            self._has_negative_cycle(r.numerator, r.denominator, source_ids)
            is not None
        )

    def violating_cycle(
        self, xi: Fraction | float | int | str
    ) -> CycleClassification | None:
        """A relevant cycle violating (2) for ``xi``, or ``None``.

        Violation means ``|Z-|/|Z+| >= xi``; the returned classification
        is guaranteed relevant with ``ratio >= xi``.  The witness is the
        cycle the oracle run at ``xi`` returns.
        """
        xi_frac = as_xi(xi)
        self.oracle_calls += 1
        cycle = self._has_negative_cycle(
            xi_frac.numerator, xi_frac.denominator
        )
        if cycle is None:
            return None
        # Summary edges expand into their realizing walks, so the
        # witness is always made of genuine execution-graph steps (the
        # expansion may revisit events; classification handles walks).
        steps: list[Step] = []
        for eidx in cycle:
            step = self._steps[eidx]
            if isinstance(step, SummaryEdge):
                steps.extend(step.steps)
            else:
                steps.append(step)
        info = classify(Cycle(tuple(steps)))
        if not info.relevant or info.ratio is None or info.ratio < xi_frac:
            raise AssertionError(
                f"internal error: extracted cycle {info} is not a violation "
                f"witness for Xi={xi_frac}"
            )
        return info

    def check(self, xi: Fraction | float | int | str) -> AdmissibilityResult:
        """Decide ABC admissibility (Definition 4) in polynomial time."""
        xi_frac = as_xi(xi)
        witness = self.violating_cycle(xi_frac)
        return AdmissibilityResult(witness is None, xi_frac, witness)

    def worst_relevant_ratio(
        self, at_least: Fraction | None = None
    ) -> Fraction | None:
        """The exact maximum ``|Z-|/|Z+|`` over all relevant cycles.

        Returns ``None`` when the graph has no relevant cycle.  The result
        is the infimum of admissible ``Xi`` values: the graph is
        ABC-admissible for ``Xi`` iff ``Xi > worst_relevant_ratio()``.
        Raises ``ValueError`` when the execution holds a causal cycle.

        Implemented as a climb over the cycles the oracle returns (see
        :meth:`_climb`): each probe's cycle sets the ratio reached so
        far, and its Farey successor under :attr:`ratio_bound` is the
        next probe, until a probe finds no cycle.

        Args:
            at_least: a ratio already known to be reached by some relevant
                cycle (e.g. the worst ratio of a subgraph).  The climb
                starts from it instead of from ``1``, which is what
                warm-starts the incremental monitor.
        """
        if (
            at_least is None
            or at_least < 1
            or at_least.denominator > self.ratio_bound
        ):
            return self._climb(None)
        return self._climb(at_least)

    def _climb(self, best: Fraction | None) -> Fraction | None:
        """The worst ratio, climbing from ``best``, a ratio known to be
        reached (``None``: nothing known yet, so probe ``1`` first).

        Dinkelbach's parametric method on the oracle.  A probe at
        ``p/q`` that finds a cycle returns it, and its ratio ``B/F`` is
        at least ``p/q`` (see :meth:`_cycle_ratio`).  That cycle is
        negative at every ratio below ``B/F``, so, under the
        summary-mode contract, the full graph has relevant cycles at all
        of them: its worst ratio is at least ``B/F``, and ``best`` jumps
        there.  A probe at the
        Farey successor of ``best`` that finds nothing puts the maximum
        below the successor; no fraction with denominator within
        :attr:`ratio_bound` lies between the two, so the maximum is
        ``best``.  Probes strictly increase, so none repeats.
        """
        bound = self.ratio_bound
        probe = Fraction(1) if best is None else farey_successor(best, bound)
        while True:
            self.oracle_calls += 1
            cycle = self._has_negative_cycle(probe.numerator, probe.denominator)
            if cycle is None:
                return best
            best = self._cycle_ratio(cycle)
            probe = farey_successor(best, bound)


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
