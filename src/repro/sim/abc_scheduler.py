"""An ABC-enforcing simulator: admissibility by construction.

Theta-band delay models give ABC-admissible executions via Theorem 6,
but they cannot produce the executions that make the ABC model strictly
weaker (huge delay spreads, zero delays, long silences).  The
:class:`AbcEnforcingSimulator` takes the model's own view instead:
condition (2) is a property of the *schedule*, so an admissible scheduler
simply never realizes a violating event order.

Before realizing the earliest delivery ``d``, the scheduler asks the
polynomial admissibility oracle whether any pending message ``s`` would
be *stranded* by ``d``:

* delivering ``s`` right after ``d`` would close a relevant cycle of
  ratio ``>= Xi``, or
* delivering ``s`` and then an immediate reply from ``s``'s receiver
  back to its sender would -- the round-trip lookahead that covers
  ping-pong protocols, where the cycle is closed by a reply that does
  not exist yet while the fast chain runs (Figure 3).

Any stranded message is pulled forward and delivered now, which is
exactly the "the sum of the delays along C2 must not become so small
that C1 could span k1 Xi or more messages" reading of Figure 1: the slow
chain arrives before the fast chain outruns it.  Since the check runs
before every delivery, one step of lookahead preserves the invariant
that every pending message (and its immediate reply) remains safely
deliverable.

The oracle plumbing is fully incremental.  The scheduler owns ONE
:class:`~repro.core.synchrony.AdmissibilityChecker` mirroring the
realized trace, and keeps the realized worst relevant ratio as a running
maximum, refreshed once per realized message.  Each (tentative delivery,
pending message) pair is evaluated by *speculatively* pushing the
hypothetical receive events and message edges onto the live traversal
digraph (:meth:`~repro.core.synchrony.AdmissibilityChecker.speculate`),
asking for the worst ratio from the realized one
(:meth:`~repro.core.synchrony.AdmissibilityChecker.updated_worst_ratio`:
one repair pass over the speculative edges), comparing it with ``Xi``,
and popping everything off again -- the rollback undoes the repairs
too, so no graph or checker is ever rebuilt.

**Prefix compaction** keeps each step cheap.  Every ``tombstone_every``
deliveries the scheduler compacts the settled past, keyed on delivery
progress alone: everything below the send events of still-queued
messages and each process's frontier
(:meth:`~repro.core.synchrony.AdmissibilityChecker.summarizable_prefix`)
is replaced by boundary summary edges
(:meth:`~repro.core.synchrony.AdmissibilityChecker.compact_prefix`).
Unlike the old no-crossing criterion -- which removes nothing when a
causal chain links history to the frontier, exactly the ping-pong
shapes this scheduler exists for -- delivery progress always settles,
so the live digraph, and with it the cost of every oracle call, stays
bounded by the active window of the execution instead of growing with
its whole history.  Soundness: passing the Farey predecessor of ``Xi``
as the compaction floor keeps every answer at ``Xi`` bit-identical
while pruning the summaries to the region-bounded minimum; cycles
confined to the compacted region are carried by the running worst
ratio.

Should enforcement ever miss a violation (the one-step lookahead is not
a proof for deep multi-hop relay patterns), the realized worst ratio
reaches ``Xi`` and the scheduler sets
:attr:`AbcEnforcingSimulator.violation_detected`.  Every probe starts
from that running worst, so from then on every pending message counts
as stranded, and the probes are skipped -- exactly the decisions a
from-scratch implementation would make.  Post-hoc validation with :func:`repro.core.check_abc`
remains available for such runs.

The checkpoint/rollback and tombstoning contracts this
scheduler relies on are documented in ``docs/architecture.md``; the
*monitoring* (rather than enforcing) deployment of the same machinery
-- including the multi-trace fleet -- lives in
:mod:`repro.analysis.online` and :mod:`repro.analysis.fleet`.
"""

from __future__ import annotations

import heapq
from fractions import Fraction

from repro.core.events import Event
from repro.core.synchrony import AdmissibilityChecker, farey_predecessor
from repro.sim.engine import Simulator, _Delivery
from repro.sim.trace import message_kept

__all__ = ["AbcEnforcingSimulator"]


def _rescue_key(delivery: _Delivery) -> tuple[bool, float, int]:
    """Earliest-sent-first ordering of stranded messages.

    ``None`` send times (external wake-ups -- not expected among
    strandable messages, but possible for exotic subclasses) sort last
    instead of aliasing a genuine send time of ``0.0``; ties break by
    send sequence.
    """
    return (
        delivery.send_time is None,
        delivery.send_time if delivery.send_time is not None else 0.0,
        delivery.seq,
    )


class AbcEnforcingSimulator(Simulator):
    """A simulator that refuses to realize inadmissible event orders.

    Args:
        xi: the ABC synchrony parameter to enforce (``> 1``).
        tombstone_every: realized deliveries between settled-prefix
            removals (``None`` disables tombstoning; the digraph then
            grows with the full history).

    Attributes:
        pulled_forward: number of deliveries expedited by the enforcer
            (how often raw delays would have broken admissibility).
        tombstoned_events: events dropped from the live digraph so far.
        violation_detected: ``True`` if a realized delivery ever closed
            a violating cycle despite enforcement (deep relay patterns
            outside the one-step lookahead); every pending message
            then counts as stranded, as the realized worst ratio says.
    """

    def __init__(
        self,
        *args,
        xi: Fraction | int | float,
        tombstone_every: int | None = 64,
        **kwargs,
    ) -> None:
        super().__init__(*args, **kwargs)
        self.xi = Fraction(xi)
        if self.xi <= 1:
            raise ValueError(f"the ABC model requires Xi > 1, got {self.xi}")
        if tombstone_every is not None and tombstone_every < 1:
            raise ValueError("tombstone_every must be positive (or None)")
        self.pulled_forward = 0
        self.tombstoned_events = 0
        self.violation_detected = False
        self.tombstone_every = tombstone_every
        self._checker = AdmissibilityChecker()
        self._worst: Fraction | None = None  # realized worst ratio
        self._mirrored = 0  # trace records already absorbed by the checker
        self._since_tombstone = 0
        self._cancelled: set[int] = set()  # seqs lazily deleted from _queue

    # -- the incremental oracle ---------------------------------------------

    @property
    def live_digraph_events(self) -> int:
        """Events currently held live in the shared traversal digraph."""
        return self._checker.n_events

    @property
    def summary_edges(self) -> int:
        """Live summary edges standing in for compacted history."""
        return self._checker.n_summary_edges

    def _sync_checker(self) -> None:
        """Absorb realized trace records into the shared checker.

        Each new record appends its receive event (and implied local
        edge) plus the triggering message edge under the same
        faulty-sender filter as :func:`~repro.sim.trace.build_execution_graph`,
        and each message refreshes the realized worst ratio; once it
        reaches ``Xi``, :attr:`violation_detected` is set.
        """
        checker = self._checker
        records = self.trace.records
        for record in records[self._mirrored :]:
            checker.add_event(record.event)
            if message_kept(record, self.faulty):
                assert record.send_event is not None
                checker.add_message(record.send_event, record.event)
                self._worst = checker.updated_worst_ratio(self._worst)
        self._mirrored = len(records)
        if self._worst is not None and self._worst >= self.xi:
            self.violation_detected = True

    def _violates(self) -> bool:
        """Whether the (speculating) checker's worst ratio reaches
        ``Xi``: one repair pass from the realized worst, which the
        enclosing rollback undoes."""
        worst = self._checker.updated_worst_ratio(self._worst)
        return worst is not None and worst >= self.xi

    def _push_delivery(self, delivery: _Delivery) -> Event:
        """Speculatively realize ``delivery`` on the live digraph."""
        checker = self._checker
        event = Event(delivery.dest, checker.n_events_of(delivery.dest))
        checker.add_event(event)
        if (
            delivery.sender is not None
            and delivery.send_event is not None
            and delivery.sender not in self.faulty
        ):
            checker.add_message(delivery.send_event, event)
        return event

    def _strands(self, pending: _Delivery) -> bool:
        """Would the tentative delivery strand ``pending`` (or its
        immediate reply)?  Called inside the speculation that already
        pushed the tentative delivery; pushes ``pending`` (and the
        round-trip reply), probes, and rolls its own additions back.
        After a missed violation every probe would reach ``Xi`` (it
        starts from the realized worst), so none runs: a repair pass
        from a worst already past ``Xi`` can climb through many cycles
        for an answer known in advance."""
        if self.violation_detected:
            return True
        with self._checker.speculate():
            pending_event = self._push_delivery(pending)
            if self._violates():
                return True
            # Round-trip lookahead: an immediate reply back to the sender.
            if pending.sender is not None and pending.sender != pending.dest:
                reply = _Delivery(
                    self.now,
                    -1,
                    pending.sender,
                    pending.dest,
                    pending_event,
                    self.now,
                    None,
                )
                self._push_delivery(reply)
                if self._violates():
                    return True
        return False

    def _tombstone_settled(self) -> None:
        """Compact the settled past of the live digraph into summaries.

        The cut is keyed on delivery progress alone: everything below
        the pinned events -- the send events of still-queued messages,
        whose edges are yet to come, plus each process's frontier,
        where upcoming local edges attach -- is summary-compacted, so
        compaction makes progress even when messages cross every
        possible boundary (ping-pong chains, where the old no-crossing
        criterion removed nothing).  With the Farey predecessor of
        ``Xi`` as the floor, every future answer at ``Xi`` is
        bit-identical to the uncompacted digraph's: the probes start
        from the realized worst ratio, which keeps the cycles the
        compaction drops.
        """
        pinned: list[Event] = []
        for delivery in self._queue:
            if delivery.seq in self._cancelled:
                continue
            if delivery.send_event is not None:
                pinned.append(delivery.send_event)
        cut = self._checker.summarizable_prefix(pinned)
        if cut:
            floor = farey_predecessor(self.xi, self._checker.ratio_bound)
            self.tombstoned_events += self._checker.compact_prefix(
                cut, floor=floor
            )

    # -- the enforcing step -------------------------------------------------

    def _pop_live(self) -> _Delivery | None:
        """Pop the earliest non-cancelled delivery (lazy deletion)."""
        while self._queue:
            delivery = heapq.heappop(self._queue)
            if delivery.seq in self._cancelled:
                self._cancelled.discard(delivery.seq)
                continue
            return delivery
        return None

    def _purge_cancelled_head(self) -> None:
        """Keep the heap head live so the kernel's ``run`` loop (queue
        emptiness, ``max_time``) sees the same frontier an eager-deletion
        queue would."""
        while self._queue and self._queue[0].seq in self._cancelled:
            self._cancelled.discard(heapq.heappop(self._queue).seq)

    @property
    def pending_messages(self) -> int:
        return len(self._queue) - len(self._cancelled)

    def _step(self) -> None:
        # Sync (a no-op unless a caller grew the trace between run()
        # calls) and tombstone while every in-flight message (including
        # the delivery about to be popped) is still in the queue to pin
        # its send event.
        self._sync_checker()
        if self.tombstone_every is not None:
            self._since_tombstone += 1
            if self._since_tombstone >= self.tombstone_every:
                self._since_tombstone = 0
                self._tombstone_settled()
        delivery = self._pop_live()
        if delivery is None:
            return
        stranded: list[_Delivery] = []
        with self._checker.speculate():
            self._push_delivery(delivery)
            for pending in self._queue:
                if pending.seq in self._cancelled:
                    continue
                if pending.sender is None or pending.sender in self.faulty:
                    continue
                if self._strands(pending):
                    stranded.append(pending)
        if not stranded:
            self._process_delivery(delivery)
        else:
            # Pull the earliest-sent stranded message forward: it is
            # delivered now (its "real" delay shrinks); the tentative
            # delivery goes back into the queue and is retried next step.
            heapq.heappush(self._queue, delivery)
            rescue = min(stranded, key=_rescue_key)
            self._cancelled.add(rescue.seq)
            self.pulled_forward += 1
            expedited = _Delivery(
                self.now,
                rescue.seq,
                rescue.dest,
                rescue.sender,
                rescue.send_event,
                rescue.send_time,
                rescue.payload,
            )
            self._process_delivery(expedited)
        self._purge_cancelled_head()
        # Absorb and verify the record just realized, so a violation
        # closed by the run's final delivery is detected before the run
        # returns and ``violation_detected`` is read.
        self._sync_checker()
