"""Pluggable relaxation kernels for the admissibility oracle hot loop.

Every oracle query of :class:`~repro.core.synchrony.AdmissibilityChecker`
bottoms out in one primitive: negative-cycle detection on the traversal
digraph ``H`` re-weighted for a ratio ``p/q``.  This module makes that
primitive a *kernel* -- a swappable strategy object bound to one checker
-- selected per checker by constructor flag or the ``REPRO_KERNEL``
environment variable:

* ``py_object`` (the default): the reference kernel -- the
  round-batched SPFA of :func:`negative_cycle`, reading the checker's
  adjacency lists directly.
* ``flat_int``: the exact-arithmetic fast kernel, described below.
* ``vector``: ``flat_int`` with its certificate sweep vectorized over an
  optional numpy backend.  Degrades gracefully -- without numpy (or when
  a query's magnitudes could overflow int64) it behaves exactly like
  ``flat_int``, keeping the stdlib-only default intact.

The ``flat_int`` kernel rests on one exact short-circuit, maintained in
flat parallel arrays of plain Python integers:

**The potential certificate** (exact ``None`` answers).  If some node
potential ``pi`` satisfies ``pi[tail] + w(e) >= pi[head]`` for every
H-edge at the query weights, summing around any cycle telescopes the
potentials away, leaving ``weight(cycle) >= 0`` -- no negative cycle.
The kernel maintains per-node integer *clock profiles* ``(F, B, L)``
evaluating to ``pi[v] = s*(p*F - q*B) - L``: a Lamport-style least
solution of the *lower-bound* constraints (the negative-weight H-edges:
message-backward, local-backward, and backward-heavy summaries), grown
forward along causality as events arrive -- O(1) amortized per new
edge, because a new event's clock is fixed by its immediate
predecessors, and only *late* edges between old events cascade, along
the (frontier-bounded) causal future cone.  Per edge, the kernel stores
the integer *slack profile* ``profile[tail] + hops(e) - profile[head]``;
the certificate holds at ``(p, q, s)`` exactly when every slack profile
evaluates ``>= 0``.  Slack profiles that are nonnegative for *every*
admissible query (``df >= max(db, 0)`` and ``dl <= 0`` -- in particular
the all-zero profile of every constraint the clock satisfies tightly)
are dropped from consideration entirely; the remainder live in a
multiset with an O(1) conservatively-wide probe window over their
critical ratios, falling back to an exact sweep over the distinct
profiles.  Certificate evaluation is therefore O(1) on the fast path
and O(distinct unsafe profiles) otherwise, with zero object churn.
Soundness never depends on the clock being *the* least solution (or on
cascade caps, rollback leftovers, or the pinned comparison ratio):
whatever integer vector the profiles hold, a passing sweep *is* a
feasible potential at the probed weights, and any maintenance slop only
makes the certificate fail more often, demoting the probe to a genuine
relaxation run.

**Detection returns the cycle.**  ``has_negative_cycle`` answers with
the H-edge ids of one simple negative cycle, or ``None``.  Every
positive answer of every kernel comes from one routine,
:func:`negative_cycle`: the reference SPFA, recording the predecessor
edge of each improvement, pops the cycle out of the very run that
proves it exists.  The ``flat_int`` kernel answers ``None`` from its
certificate where it can and calls that routine otherwise, so cycles,
witnesses and oracle-call counts are identical across kernels by
construction.  The checker's worst-ratio climb jumps to the ratio
``B/F`` of each returned cycle, and its Xi witnesses are returned
cycles too.

**Overflow safety**: there is nothing to argue away -- every comparison
is performed on arbitrary-precision Python integers (cross-multiplied
wherever ratios are compared), and the optional numpy sweep guards its
input magnitudes and falls back to exact arithmetic before int64 could
saturate.  Probes can carry numerators and denominators up to the full
ratio bound, and summary profiles can carry large hop counts; neither
changes any answer.

This module deliberately imports nothing from
:mod:`repro.core.synchrony` (which imports *it*): kernels read the
checker's struct-of-arrays digraph (``_tails`` / ``_heads`` / ``_kinds``
/ ``_adj`` / ``_weight_table``) through the instance passed at bind
time.  The edge-kind tags live here as the canonical definition.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle broken at runtime
    from repro.core.synchrony import AdmissibilityChecker

__all__ = [
    "DEFAULT_KERNEL",
    "KERNEL_ENV_VAR",
    "FlatIntKernel",
    "Kernel",
    "PyObjectKernel",
    "VectorKernel",
    "available_kernels",
    "make_kernel",
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

KERNEL_ENV_VAR = "REPRO_KERNEL"
DEFAULT_KERNEL = "py_object"


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
    """One checker's negative-cycle detection strategy.

    A kernel is bound to exactly one
    :class:`~repro.core.synchrony.AdmissibilityChecker` and may cache
    derived state between queries; the checker notifies it when the
    digraph shrinks (:meth:`notify_rollback`) or is renumbered
    (:meth:`notify_compact`).  Appends need no notification -- kernels
    discover them lazily from the append-only array lengths.  Kernels
    are never pickled: the checker drops its kernel on serialization and
    re-creates it lazily, which is what makes snapshots kernel-portable.
    """

    name = "abstract"

    def __init__(self, checker: "AdmissibilityChecker") -> None:
        self._checker = checker

    def has_negative_cycle(
        self, p: int, q: int, sources: list[int] | None = None
    ) -> list[int] | None:
        """The H-edge ids of one simple negative cycle at ``p/q``, or
        ``None`` when there is none."""
        raise NotImplementedError

    def notify_rollback(self, n_nodes: int, n_edges: int) -> None:
        """The checker popped state back to ``n_nodes`` / ``n_edges``."""

    def notify_compact(self) -> None:
        """The checker renumbered its digraph (prefix compaction)."""


class PyObjectKernel(Kernel):
    """The reference kernel: :func:`negative_cycle` over the checker's
    adjacency lists, no cached state.  Every other kernel is measured
    -- and proven -- against this one."""

    name = "py_object"

    def has_negative_cycle(
        self, p: int, q: int, sources: list[int] | None = None
    ) -> list[int] | None:
        return negative_cycle(self._checker, p, q, sources)


class FlatIntKernel(Kernel):
    """Exact integer kernel: a clock-profile certificate for negative
    answers, :func:`negative_cycle` for the rest.

    See the module docstring for the design.  All state lives in flat
    parallel lists of plain Python integers, synced lazily from the
    checker's append-only arrays; rollbacks pop it in reverse, prefix
    compaction resets it wholesale (the first probe after a compaction
    pays one rebuild).

    The clock comparisons used while *maintaining* profiles are pinned
    to the ratio of the last rebuild (``_pin``); certificate
    *evaluation* at probe time always uses the probed ``(p, q, s)``
    exactly, so a pin mismatch can only cost speed.  A probe whose
    certificate fails twice in a row at the same un-pinned ratio
    triggers a re-pinned rebuild -- the pattern of the online monitor,
    whose probe ratio moves only when the running worst ratio does.
    """

    name = "flat_int"

    #: hard cap on clock raises per cascade (a divergence guard: with a
    #: negative cycle at the pin the least solution is infinite); an
    #: overrun leaves unsatisfied constraints as negative slacks, which
    #: simply demote affected probes to the reference relaxation run.
    _CASCADE_CAP = 512

    def __init__(self, checker: "AdmissibilityChecker") -> None:
        super().__init__(checker)
        self._reset()

    # -- lifecycle -----------------------------------------------------

    def _reset(self) -> None:
        self._nn = 0  # synced node count
        self._ne = 0  # synced edge count
        self._pf: list[int] = []  # node clock profiles
        self._pb: list[int] = []
        self._pl: list[int] = []
        self._out: list[list[int]] = []  # edge ids by tail
        self._in: list[list[int]] = []  # edge ids by head
        self._et: list[int] = []  # per-edge tail/head copies
        self._eh: list[int] = []
        self._ef: list[int] = []  # per-edge hop profiles
        self._eb: list[int] = []
        self._el: list[int] = []
        self._sf: list[int] = []  # per-edge slack profiles
        self._sb: list[int] = []
        self._sl: list[int] = []
        self._buckets: dict[tuple[int, int, int], int] = {}
        self._crit_lo: tuple[int, int] | None = None  # (db, df), df > 0
        self._crit_hi: tuple[int, int] | None = None  # (db, df), df < 0
        self._max_dl = 0
        self._n_always_bad = 0  # profiles negative at every ratio
        # The ratio the clock's lex comparisons are pinned at (moved by
        # convergent speculative re-pins; see has_negative_cycle).
        self._pin: tuple[int, int] | None = None

    def notify_rollback(self, n_nodes: int, n_edges: int) -> None:
        if self._ne > n_edges:
            sf, sb, sl = self._sf, self._sb, self._sl
            for eidx in range(self._ne - 1, n_edges - 1, -1):
                df, db, dl = sf[eidx], sb[eidx], sl[eidx]
                if not (df >= 0 and df >= db and dl <= 0):
                    self._bucket_remove((df, db, dl))
                # Edges append in index order, so eidx is the last
                # entry of both adjacency rows.
                self._out[self._et[eidx]].pop()
                self._in[self._eh[eidx]].pop()
            for arr in (
                self._et, self._eh,
                self._ef, self._eb, self._el,
                sf, sb, sl,
            ):
                del arr[n_edges:]
            self._ne = n_edges
        if self._nn > n_nodes:
            for arr in (self._pf, self._pb, self._pl, self._out, self._in):
                del arr[n_nodes:]
            self._nn = n_nodes
        # Surviving clock values may sit above the least solution now --
        # still a lower-bound-feasible vector, so merely conservative.

    def notify_compact(self) -> None:
        # The digraph was renumbered wholesale; the first probe after
        # compaction pays one full rebuild.
        self._reset()

    # -- bucket bookkeeping --------------------------------------------

    def _bucket_add(self, triple: tuple[int, int, int]) -> None:
        buckets = self._buckets
        count = buckets.get(triple)
        if count:
            buckets[triple] = count + 1
            return
        buckets[triple] = 1
        df, db, dl = triple
        if dl > self._max_dl:
            self._max_dl = dl
        if df > 0:
            crit = self._crit_lo
            if crit is None or db * crit[1] > crit[0] * df:
                self._crit_lo = (db, df)
        elif df < 0:
            crit = self._crit_hi
            if crit is None or db * crit[1] < crit[0] * df:
                self._crit_hi = (db, df)
        else:
            # df == 0: the ratio term p*df - q*db is -q*db <= 0 for
            # db >= 0, so the profile is negative at *every* ratio when
            # db > 0, and -- because the _max_dl guard only protects
            # profiles whose ratio term is >= 1 -- also when db == 0
            # with dl > 0 (evaluation is exactly -dl there, independent
            # of s).  An unsettled clock (cascade cap, capped re-pin
            # passes) can legitimately leave such slacks behind.
            if db > 0 or (db == 0 and dl > 0):
                self._n_always_bad += 1

    def _bucket_remove(self, triple: tuple[int, int, int]) -> None:
        buckets = self._buckets
        count = buckets[triple]
        if count > 1:
            buckets[triple] = count - 1
            return
        del buckets[triple]
        df, db, dl = triple
        if df == 0 and (db > 0 or (db == 0 and dl > 0)):
            self._n_always_bad -= 1
        # _crit_lo / _crit_hi / _max_dl stay stale-wide; the next exact
        # sweep re-tightens them.

    def _retighten_window(self) -> None:
        self._crit_lo = None
        self._crit_hi = None
        self._max_dl = 0
        for df, db, dl in self._buckets:
            if dl > self._max_dl:
                self._max_dl = dl
            if df > 0:
                crit = self._crit_lo
                if crit is None or db * crit[1] > crit[0] * df:
                    self._crit_lo = (db, df)
            elif df < 0:
                crit = self._crit_hi
                if crit is None or db * crit[1] < crit[0] * df:
                    self._crit_hi = (db, df)

    # -- the certificate -----------------------------------------------

    def _window_passes(self, p: int, q: int, s: int) -> bool:
        """O(1) pre-check: ``True`` only if no tracked slack profile can
        evaluate negative at ``(p, q, s)`` -- conservatively (a
        ``False`` here just demotes to the exact sweep)."""
        if self._n_always_bad or self._max_dl >= s:
            return False
        crit = self._crit_lo
        if crit is not None and p * crit[1] <= q * crit[0]:
            return False
        crit = self._crit_hi
        if crit is not None and p * crit[1] <= q * crit[0]:
            return False
        return True

    def _sweep_clean(self, p: int, q: int, s: int) -> bool:
        """Exact sweep over the distinct tracked slack profiles: whether
        every one evaluates nonnegative at ``(p, q, s)``."""
        for df, db, dl in self._buckets:
            if s * (p * df - q * db) - dl < 0:
                return False
        self._retighten_window()
        return True

    # -- clock maintenance ---------------------------------------------

    def _raise_clock(self, node: int, raised: list[int]) -> None:
        """Cascade constraint raises from ``node`` (whose clock just
        rose): every in-edge ``(t, x)`` demands ``pi[t] >= pi[x] -
        w(e)``, so a raised head may force its tails up in turn --
        forward along causality for the backward/local edges (whose
        tails are newer events) and backward, damped by ``+p*s``, for
        the message-forward edges.  Every raised node lands on
        ``raised``."""
        pf, pb, pl = self._pf, self._pb, self._pl
        et = self._et
        ef, eb, el = self._ef, self._eb, self._el
        p, q = self._pin
        budget = self._CASCADE_CAP
        stack = [node]
        while stack:
            x = stack.pop()
            fx, bx, lx = pf[x], pb[x], pl[x]
            for eidx in self._in[x]:
                t = et[eidx]
                cf = fx - ef[eidx]
                cb = bx - eb[eidx]
                cl = lx - el[eidx]
                ca = p * cf - q * cb
                ta = p * pf[t] - q * pb[t]
                if ca < ta or (ca == ta and cl >= pl[t]):
                    continue  # candidate not lex-above the current clock
                pf[t], pb[t], pl[t] = cf, cb, cl
                raised.append(t)
                budget -= 1
                if budget <= 0:
                    return  # leftover negative slacks demote to SPFA
                stack.append(t)

    def _refresh_slacks(self, touched_nodes: list[int], limit: int) -> None:
        """Recompute the slack profiles of the already-indexed edges
        (index below ``limit``) incident to the touched nodes, moving
        bucket entries accordingly."""
        if not touched_nodes:
            return
        touched: set[int] = set()
        out, into = self._out, self._in
        if limit >= len(self._et):
            # Every indexed edge is below the limit (the case on the
            # one live call site, ``_sync``, which passes the post-
            # append edge count): update straight from the adjacency
            # lists at C speed instead of filtering element-wise.
            for v in set(touched_nodes):
                touched.update(out[v])
                touched.update(into[v])
        else:
            for v in set(touched_nodes):
                touched.update(e for e in out[v] if e < limit)
                touched.update(e for e in into[v] if e < limit)
        pf, pb, pl = self._pf, self._pb, self._pl
        sf, sb, sl = self._sf, self._sb, self._sl
        et, eh = self._et, self._eh
        ef, eb, el = self._ef, self._eb, self._el
        for eidx in touched:
            old_df, old_db, old_dl = sf[eidx], sb[eidx], sl[eidx]
            tail, head = et[eidx], eh[eidx]
            df = pf[tail] + ef[eidx] - pf[head]
            db = pb[tail] + eb[eidx] - pb[head]
            dl = pl[tail] + el[eidx] - pl[head]
            if df == old_df and db == old_db and dl == old_dl:
                continue
            if not (old_df >= 0 and old_df >= old_db and old_dl <= 0):
                self._bucket_remove((old_df, old_db, old_dl))
            sf[eidx], sb[eidx], sl[eidx] = df, db, dl
            if not (df >= 0 and df >= db and dl <= 0):
                self._bucket_add((df, db, dl))

    def _sync(self) -> None:
        """Absorb the checker's appended nodes/edges: assign clocks to
        new events, raise clocks for new lower bounds (cascading along
        the causal future for late edges), and index the new slacks."""
        checker = self._checker
        n_now = len(checker._adj)
        pf, pb, pl = self._pf, self._pb, self._pl
        if n_now > self._nn:
            grow = n_now - self._nn
            pf.extend([0] * grow)
            pb.extend([0] * grow)
            pl.extend([0] * grow)
            self._out.extend([] for _ in range(grow))
            self._in.extend([] for _ in range(grow))
            self._nn = n_now
        m_now = len(checker._tails)
        if m_now <= self._ne:
            return
        if self._pin is None:
            # First contact: any pin works for soundness; the first
            # probe to miss the certificate re-pins at its own ratio.
            self._pin = (2, 1)
        tails, heads, kinds = checker._tails, checker._heads, checker._kinds
        summary_profiles = checker._summary_profiles
        et, eh = self._et, self._eh
        ef, eb, el = self._ef, self._eb, self._el
        et_app, eh_app = et.append, eh.append
        ef_app, eb_app, el_app = ef.append, eb.append, el.append
        out, into = self._out, self._in
        sf_app = self._sf.append
        sb_app = self._sb.append
        sl_app = self._sl.append
        bucket_add = self._bucket_add
        p, q = self._pin
        raised: list[int] = []
        # One fused pass: index each new edge, apply its clock raise,
        # and record its slack against the clocks as of its own append
        # (after a raise the slack is pf[tail] - cf, reusing the
        # candidate -- zero extra arithmetic, and exactly (0, 0, 0)
        # when the raise just fired).  Append order follows causality,
        # so raises flow forward; a raise on an already-wired node
        # cascades and lands on ``raised``, and the refresh at the end
        # re-derives every slack -- earlier in-batch ones included --
        # incident to a raised node.
        for eidx in range(self._ne, m_now):
            tail, head, kind = tails[eidx], heads[eidx], kinds[eidx]
            if kind == BWD_LOCAL:
                hf = hb = 0
                hl = 1
            elif kind == FWD_MESSAGE:
                hf, hb, hl = 1, 0, 0
            elif kind == BWD_MESSAGE:
                hf, hb, hl = 0, 1, 0
            else:
                hf, hb, hl = summary_profiles[kind - SUMMARY]
            et_app(tail)
            eh_app(head)
            ef_app(hf)
            eb_app(hb)
            el_app(hl)
            # The new constraint pi[tail] >= pi[head] - w: raise the
            # tail's clock to the candidate if it is lex-above.
            cf = pf[head] - hf
            cb = pb[head] - hb
            cl = pl[head] - hl
            ca = p * cf - q * cb
            ta = p * pf[tail] - q * pb[tail]
            if (ca > ta or (ca == ta and cl < pl[tail])) and tail != head:
                # (A self-loop never takes the raise -- no clock value
                # satisfies a lex-negative one, and the slack recorded
                # below must stay its hop profile, not the raised 0.)
                pf[tail], pb[tail], pl[tail] = cf, cb, cl
                if out[tail] or into[tail]:
                    # A raise on an already-wired tail: its existing
                    # slacks go stale and the raise may cascade through
                    # the affected cone.  (A fresh tail's raise needs
                    # neither -- this edge's slack is computed next,
                    # against the just-raised clock.)
                    raised.append(tail)
                    self._raise_clock(tail, raised)
            out[tail].append(eidx)
            into[head].append(eidx)
            df = pf[tail] - cf
            db = pb[tail] - cb
            dl = pl[tail] - cl
            sf_app(df)
            sb_app(db)
            sl_app(dl)
            if not (df >= 0 and df >= db and dl <= 0):
                bucket_add((df, db, dl))
        self._ne = m_now
        self._refresh_slacks(raised, m_now)

    def _repin(self, p: int, q: int) -> bool:
        """Speculatively recompute the clock fixpoint pinned at
        ``(p, q)`` from zero, committing -- new pin, slack profiles,
        buckets, window bounds -- only on convergence.

        Flat passes beat warm-starting from the old pin's fixpoint
        (measured): a pin move re-raises whole backward chains, and
        batch recomputation skips all per-raise adjacency scans and
        bucket moves.  Passes alternate direction -- backward/local
        constraints propagate with the append order (forward pass),
        message-forward constraints against it (reverse pass) -- so a
        few alternations reach the least solution when one exists; the
        tight cap is deliberate, because the probe discovering a
        genuine worst-ratio increase re-pins at a *violated* ratio
        where the fixpoint diverges outright.  Keeping the old pin in
        that case costs nothing (the relaxation run that follows
        returns the cycle) and preserves a certificate that still
        answers the monitor's successor stream."""
        n, m = self._nn, self._ne
        pf = [0] * n
        pb = [0] * n
        pl = [0] * n
        et, eh = self._et, self._eh
        ef, eb, el = self._ef, self._eb, self._el
        converged = False
        for sweep in range(4):
            changed = False
            order = range(m) if sweep % 2 == 0 else range(m - 1, -1, -1)
            for eidx in order:
                head = eh[eidx]
                tail = et[eidx]
                cf = pf[head] - ef[eidx]
                cb = pb[head] - eb[eidx]
                cl = pl[head] - el[eidx]
                ca = p * cf - q * cb
                ta = p * pf[tail] - q * pb[tail]
                if ca > ta or (ca == ta and cl < pl[tail]):
                    pf[tail], pb[tail], pl[tail] = cf, cb, cl
                    changed = True
            if not changed:
                converged = True
                break
        if not converged:
            return False
        self._pin = (p, q)
        self._pf, self._pb, self._pl = pf, pb, pl
        self._recompute_slacks()
        return True

    def _recompute_slacks(self) -> None:
        """Re-derive every slack profile, bucket, and window bound from
        the current clocks, flat."""
        m = self._ne
        pf, pb, pl = self._pf, self._pb, self._pl
        et, eh = self._et, self._eh
        ef, eb, el = self._ef, self._eb, self._el
        sf = self._sf = [0] * m
        sb = self._sb = [0] * m
        sl = self._sl = [0] * m
        self._buckets = {}
        self._crit_lo = None
        self._crit_hi = None
        self._max_dl = 0
        self._n_always_bad = 0
        bucket_add = self._bucket_add
        for eidx in range(m):
            tail, head = et[eidx], eh[eidx]
            df = pf[tail] + ef[eidx] - pf[head]
            db = pb[tail] + eb[eidx] - pb[head]
            dl = pl[tail] + el[eidx] - pl[head]
            sf[eidx] = df
            sb[eidx] = db
            sl[eidx] = dl
            if not (df >= 0 and df >= db and dl <= 0):
                bucket_add((df, db, dl))

    # -- detection -----------------------------------------------------

    def has_negative_cycle(
        self, p: int, q: int, sources: list[int] | None = None
    ) -> list[int] | None:
        checker = self._checker
        if len(checker._adj) == 0 or (
            not checker._n_messages and not checker._n_summaries
        ):
            return None
        if p < q:
            # The certificate's safe-slack class (df >= max(db, 0),
            # dl <= 0) is only universally nonnegative for ratios >= 1,
            # the model's domain; answer out-of-domain probes exactly
            # via the reference loop.
            return negative_cycle(checker, p, q, sources)
        if len(checker._tails) != self._ne or len(checker._adj) != self._nn:
            self._sync()
        s = checker._n_locals + checker._summary_locals + 1
        if self._window_passes(p, q, s) or self._sweep_clean(p, q, s):
            return None
        # Certificate failed at an un-pinned ratio: re-pin the clock
        # there (a few flat passes, cheaper than one relaxation run)
        # and re-evaluate.  With the fixpoint reached at the probed
        # pin the certificate is complete, so a clean probe converts
        # here; only genuine violations (where the pinned fixpoint
        # diverges, the pass cap trips, and the speculative re-pin
        # discards its passes) fall through to the relaxation run,
        # which returns the cycle.
        if (p, q) != self._pin and self._repin(p, q):
            if self._window_passes(p, q, s) or self._sweep_clean(p, q, s):
                return None
        return negative_cycle(checker, p, q, sources)


class VectorKernel(FlatIntKernel):
    """``flat_int`` with the exact certificate sweep vectorized over
    numpy when available.

    The sweep evaluates ``s*(p*df - q*db) - dl`` over the distinct
    tracked slack profiles; with numpy present and every magnitude
    provably inside int64 (guarded *before* the cast -- int64 overflow
    would be silent), the evaluation runs as three vector ops.  Without
    numpy, or for small sweeps, or near the overflow guard, it behaves
    exactly like :class:`FlatIntKernel` -- graceful degradation, never a
    different answer.
    """

    name = "vector"

    #: below this many distinct profiles the numpy round trip costs more
    #: than the plain loop.
    _MIN_VECTOR_SWEEP = 64
    _INT64_GUARD = 2**62

    def __init__(self, checker: "AdmissibilityChecker") -> None:
        try:
            import numpy
        except Exception:  # pragma: no cover - numpy genuinely optional
            numpy = None
        self._np = numpy
        self._rev = 0
        super().__init__(checker)

    def _reset(self) -> None:
        super()._reset()
        self._rev += 1
        self._cache_rev = -1
        self._cache_arrays: tuple | None = None
        self._cache_bound = 1

    def _bucket_add(self, triple: tuple[int, int, int]) -> None:
        self._rev += 1
        super()._bucket_add(triple)

    def _bucket_remove(self, triple: tuple[int, int, int]) -> None:
        self._rev += 1
        super()._bucket_remove(triple)

    def _sweep_clean(self, p: int, q: int, s: int) -> bool:
        np = self._np
        buckets = self._buckets
        if np is None or len(buckets) < self._MIN_VECTOR_SWEEP:
            return super()._sweep_clean(p, q, s)
        if self._cache_rev != self._rev:
            triples = list(buckets)
            bound = 1
            for df, db, dl in triples:
                mag = max(df, -df, db, -db, dl, -dl)
                if mag > bound:
                    bound = mag
            self._cache_bound = bound
            try:
                self._cache_arrays = (
                    np.array([t[0] for t in triples], dtype=np.int64),
                    np.array([t[1] for t in triples], dtype=np.int64),
                    np.array([t[2] for t in triples], dtype=np.int64),
                )
            except OverflowError:  # a profile itself beyond int64
                self._cache_arrays = None
            self._cache_rev = self._rev
        arrays = self._cache_arrays
        if (
            arrays is None
            or s * max(p, q) * (2 * self._cache_bound) >= self._INT64_GUARD
        ):
            return super()._sweep_clean(p, q, s)
        adf, adb, adl = arrays
        if bool(((s * (p * adf - q * adb) - adl) < 0).any()):
            return False
        self._retighten_window()
        return True


_KERNELS: dict[str, type[Kernel]] = {
    PyObjectKernel.name: PyObjectKernel,
    FlatIntKernel.name: FlatIntKernel,
    VectorKernel.name: VectorKernel,
}


def available_kernels() -> tuple[str, ...]:
    """The registered kernel names (reference kernel first)."""
    return tuple(_KERNELS)


def resolve_kernel_name(spec: str | None = None) -> str:
    """The kernel an explicit ``spec`` -- or, when ``None``, the ambient
    ``REPRO_KERNEL`` environment variable, or the default -- selects.

    Resolution happens at kernel *creation* (and again after unpickling
    a checker), which is what makes snapshots kernel-portable: a checker
    that never pinned a kernel explicitly follows the environment of
    whatever process restores it.
    """
    name = spec
    if name is None:
        name = os.environ.get(KERNEL_ENV_VAR) or DEFAULT_KERNEL
    if name not in _KERNELS:
        raise ValueError(
            f"unknown kernel {name!r}; choose from {sorted(_KERNELS)}"
        )
    return name


def make_kernel(spec: str | None, checker: "AdmissibilityChecker") -> Kernel:
    """Instantiate the kernel ``spec`` resolves to, bound to ``checker``."""
    return _KERNELS[resolve_kernel_name(spec)](checker)
