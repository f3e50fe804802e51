"""The potential's worst-ratio search against the two searches before it.

:meth:`~repro.core.synchrony.AdmissibilityChecker.updated_worst_ratio`
repairs one stored potential per checker: each new H-edge is checked
against it, a violated one starts a repair, and a repair that closes a
cycle jumps the ratio to that cycle's ``B/F``.  This suite pins it four
ways:

* a seeded differential against two references at every batch boundary
  of every generator profile -- :func:`reference_climb`, the
  Farey-successor climb over the inclusive oracle that the potential
  replaced, and :func:`reference_worst_ratio`, the Stern-Brocot search
  the climb replaced, both run on :func:`reference_negative_cycle`, the
  round-batched SPFA that once answered every inclusive query -- for
  plain and compacting monitors, exact
  removal through ``settled_prefix``, speculation, snapshots restored
  mid-stream, graph-built checkers and a hypothesis stream mixing them;
* the invariant exactness rests on, checked after every refresh
  (:func:`assert_potential_feasible`): the potential covers every node
  and every live H-edge has a nonnegative reduced cost at the running
  worst;
* the properties of every cycle a repair closes: simple in ``H``,
  negative at the pre-jump ratio, and its ``B/F`` the new worst;
* the corner cases: the ratio-1 tie-break, degenerate shapes, a causal
  cycle (which every query must raise, not hang on), compaction with unrefreshed
  messages, speculation that leaves no trace, and the stabilization
  cuts that depend on which witness the oracle returns.
"""

import pickle
import random
import signal
from contextlib import contextmanager
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.online import OnlineAbcMonitor
from repro.core.events import Event
from repro.core.execution_graph import GraphBuilder
from repro.core.synchrony import AdmissibilityChecker
from repro.core.variants import (
    check_eventual_abc,
    earliest_stabilization_cut,
    running_worst_ratio,
    suffix_graph,
)
from repro.core.cuts import Cut
from repro.scenarios.generators import (
    profiled_trace_records,
    random_execution_graph,
)
from repro.sim.trace import (
    Trace,
    build_execution_graph,
    encode_record,
    message_kept,
)

PROFILES = ("storm", "burst", "idler", "relay", "firehose")


def farey_successor(value: Fraction, max_den: int) -> Fraction:
    """The smallest fraction above ``value`` with denominator ``<= max_den``.

    This is ``value``'s right neighbor in the Farey sequence of order
    ``max_den``: for ``value = a/b`` it is the ``c/d`` with
    ``b*c - a*d == 1`` and the largest ``d <= max_den``, found from one
    extended-gcd solution shifted by multiples of ``(a, b)``.  Any
    fraction strictly between the two has denominator ``> max_den`` --
    the step of :func:`reference_climb`: when no cycle reaches the
    successor of a realized ratio, that ratio is the maximum.
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


def inclusive_weights(checker, p, q):
    """Per-kind H-edge weights of the inclusive ``ratio >= p/q`` test:
    ``s * (p * F - q * B) - L``.  The scale ``s`` counts the live local
    edges and those folded into summaries, plus one, so every simple
    cycle's local count stays below it: a cycle is negative iff
    ``B/F > p/q``, or ``B/F == p/q`` with a local edge."""
    scale = checker.n_local_edges + 1
    scale += sum(edge.local for edge in checker._summary_at.values())
    return checker._weights(p, q, scale, 1)


def reference_negative_cycle(checker, p, q):
    """One simple negative H-cycle at ``p/q`` as H-edge ids, or ``None``:
    the round-batched SPFA that answered the inclusive queries before
    the potential did, kept as a reference.

    Every node starts at distance 0 (a virtual source); each round
    relaxes the out-edges of the nodes the previous round improved.
    Every improvement records the H-edge it came through.  Once a
    relaxation chain reaches ``n`` edges, the predecessor walk from the
    improved node is followed to a cycle; every predecessor cycle is
    negative, because each link was a strict improvement when recorded.

    A walk can dead-end on a node that was never improved; the run
    then keeps relaxing.  A cycle still appears: while a negative cycle
    exists the relaxations never stop, so the integer distances drop
    below the weight of every walk of fewer than ``n`` edges.  The
    relaxation that does so has a chain of at least ``n`` edges, and
    its walk cannot dead-end, since a dead-ended walk traces a simple
    path whose weight bounds the distance from below.
    """
    adj = checker._adj
    n = len(adj)
    if not checker.n_messages and not checker.n_summary_edges:
        return None
    wtab = inclusive_weights(checker, p, q)
    tails = checker._tails
    dist = [0] * n
    chain = [0] * n  # edges in the walk realizing the current dist
    pred = [-1] * n  # H-edge id that last improved each node
    queued = [False] * n
    active = [u for u in range(n) if adj[u]]
    while active:
        next_active = []
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
                        cycle = cycle_from_predecessors(pred, tails, v, n)
                        if cycle is not None:
                            return cycle
                    if not queued[v]:
                        queued[v] = True
                        next_active.append(v)
        # Newest first: negative H-edges point towards older events, so
        # a descending sweep cascades whole backward chains in a round.
        next_active.sort(reverse=True)
        active = next_active
        for v in active:
            queued[v] = False
    return None


def cycle_from_predecessors(pred, tails, start, n):
    """Walk predecessor links from ``start`` until a node repeats, then
    collect the enclosed cycle; ``None`` if the walk dead-ends on a
    never-improved node first (over ``n`` nodes, a defined walk of
    ``n + 1`` links must repeat)."""
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
    cycle = []
    cycle_start = node
    while True:
        eidx = pred[node]
        cycle.append(eidx)
        node = tails[eidx]
        if node == cycle_start:
            break
    cycle.reverse()
    return cycle


def reference_climb(checker):
    """The climb the potential replaced, kept as a reference: probe
    ``1``, then the Farey successor under :attr:`ratio_bound` of the
    ratio ``B/F`` of each cycle :func:`reference_negative_cycle`
    returns, until a probe finds nothing."""
    bound = checker.ratio_bound
    best = None
    probe = Fraction(1)
    while True:
        cycle = reference_negative_cycle(
            checker, probe.numerator, probe.denominator
        )
        if cycle is None:
            return best
        best = checker._cycle_ratio(cycle)
        probe = farey_successor(best, bound)


def reference_worst_ratio(checker):
    """The Stern-Brocot search the climb replaced, kept as a
    reference: a bracket ``(lo, hi)`` around the maximum, galloped by
    :func:`max_k` and clamped to the denominator bound, driven only by
    the boolean answers of :func:`reference_negative_cycle` (never by
    the potential it checks)."""
    max_den = checker.ratio_bound
    max_num = checker.ratio_bound
    memo = {}

    def oracle(num, den):
        value = Fraction(num, den)
        cached = memo.get(value)
        if cached is None:
            cached = reference_negative_cycle(checker, num, den) is not None
            memo[value] = cached
        return cached

    if not oracle(1, 1):
        return None
    lo_num, lo_den = 1, 1
    hi_num, hi_den = 1, 0
    while lo_den + hi_den <= max_den:
        if oracle(lo_num + hi_num, lo_den + hi_den):
            if hi_den:
                cap = (max_den - lo_den) // hi_den
            else:
                cap = max_num * lo_den - lo_num
            k = max_k(
                lambda k: oracle(lo_num + k * hi_num, lo_den + k * hi_den),
                cap,
            )
            lo_num += k * hi_num
            lo_den += k * hi_den
        else:

            def still_false(k):
                return not oracle(k * lo_num + hi_num, k * lo_den + hi_den)

            if not still_false(1):
                hi_num += lo_num
                hi_den += lo_den
                continue
            cap = (max_den - hi_den) // lo_den
            k = max_k(still_false, cap)
            hi_num += k * lo_num
            hi_den += k * lo_den
    return Fraction(lo_num, lo_den)


def max_k(probe, cap):
    """Largest ``k`` in ``[1, cap]`` with ``probe(k)`` true, for a
    monotone ``probe`` known true at 1: probe the cap, then gallop and
    bisect."""
    if cap <= 1 or probe(cap):
        return cap
    k = 1
    while 2 * k < cap and probe(2 * k):
        k *= 2
    lo, hi = k, min(2 * k, cap)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if probe(mid):
            lo = mid
        else:
            hi = mid
    return lo


def batches_of(records, size):
    for i in range(0, len(records), size):
        yield records[i : i + size]


def rows(records):
    """Records as the rows ``observe_batch`` takes."""
    return [encode_record(record) for record in records]


def prefix_checker(records, k):
    """A fresh, never-compacted checker over the first ``k`` records."""
    n = max(r.event.process for r in records) + 1
    graph = build_execution_graph(Trace(n, frozenset(), records[:k]))
    return AdmissibilityChecker(graph)


def assert_valid_cycle(checker, cycle, p, q):
    """The contract of a cycle :func:`reference_negative_cycle`
    returns: simple in ``H``, negative at ``p/q``, and -- for probes at
    or above 1 -- ``B/F >= p/q``."""
    tails = [checker._tails[e] for e in cycle]
    heads = [checker._heads[e] for e in cycle]
    assert len(set(tails)) == len(tails), "cycle revisits a node"
    assert heads == tails[1:] + tails[:1], "edges do not close a walk"
    wtab = inclusive_weights(checker, p, q)
    assert sum(wtab[checker._kinds[e]] for e in cycle) < 0
    if p >= q:
        assert checker._cycle_ratio(cycle) >= Fraction(p, q)


_REFERENCES = {}


def reference_at(profile, records, k):
    """Both references on a fresh checker over the first ``k`` records
    (memoized: every monitor variant below asks the same prefixes)."""
    key = (profile, len(records), k)
    if key not in _REFERENCES:
        climbed = reference_climb(prefix_checker(records, k))
        bracketed = reference_worst_ratio(prefix_checker(records, k))
        assert climbed == bracketed, (profile, k)
        _REFERENCES[key] = climbed
    return _REFERENCES[key]


def assert_potential_feasible(checker, covered=True):
    """The potential covers every node, and every live H-edge has a
    nonnegative reduced cost at the running worst.  ``covered=False``
    admits edges past the potential's edge mark (summary edges a
    compaction just attached) but still checks them."""
    pot = checker._pot
    assert len(pot) == checker.n_events
    if covered:
        assert checker._pot_edges == len(checker._tails)
    wtab = checker._potential_weights()
    for tail, head, kind in zip(
        checker._tails, checker._heads, checker._kinds
    ):
        assert pot[tail] + wtab[kind] >= pot[head]


@pytest.fixture
def feasible(monkeypatch):
    """Check :func:`assert_potential_feasible` after every worst-ratio
    query, and after every compaction that removed events and kept the
    potential (summary edges arrive feasible: their walk weights
    telescope); the log counts the queries."""
    log = []
    original = AdmissibilityChecker.updated_worst_ratio
    compact = AdmissibilityChecker.compact_prefix

    def checked(self, previous):
        worst = original(self, previous)
        assert_potential_feasible(self)
        assert worst == self._pot_ratio
        log.append(worst)
        return worst

    def checked_compact(self, *args, **kwargs):
        removed = compact(self, *args, **kwargs)
        if removed and self._pot:
            assert_potential_feasible(self, covered=False)
        return removed

    monkeypatch.setattr(AdmissibilityChecker, "updated_worst_ratio", checked)
    monkeypatch.setattr(AdmissibilityChecker, "compact_prefix", checked_compact)
    return log


def random_stops(checker, stops, rng):
    """A random cut inside the stop map ``stops``: per process, a stop
    between the live start and the given one."""
    return {
        p: rng.randint(checker.first_live_index(p), stop)
        for p, stop in stops.items()
    }


def closed_cut(graph, stops) -> frozenset[Event]:
    """The left closure in ``graph`` of the events below ``stops``."""
    return graph.causal_past(
        Event(p, i) for p, stop in stops.items() for i in range(stop)
    )


def cut_stops(events: frozenset[Event]) -> dict[int, int]:
    """A left-closed set of events as a stop map, from its frontier."""
    return {p: event.index + 1 for p, event in Cut(events).frontier().items()}


def in_flight_sends(records, seen):
    """Send events among the first ``seen`` records whose messages
    arrive later: what a monitor must pin to forget a prefix exactly."""
    observed = {r.event for r in records[:seen]}
    return [
        r.send_event
        for r in records[seen:]
        if r.send_event is not None and r.send_event in observed
    ]


def extension_of(chunk):
    """A chunk of records as the events and messages of a speculative
    extension."""
    events = [r.event for r in chunk]
    messages = [
        (r.send_event, r.event)
        for r in chunk
        if message_kept(r, frozenset(), True, None)
    ]
    return events, messages


def potential_state(checker):
    """Everything of the potential a rollback must restore."""
    return (
        list(checker._pot),
        checker._pot_edges,
        checker._pot_ratio,
        checker._pot_cycle,
        checker.repairs,
        checker.repaired_nodes,
        checker.ratio_jumps,
    )


@contextmanager
def deadline(seconds):
    """Fail instead of hanging when the body overruns ``seconds``."""

    def expire(signum, frame):
        raise TimeoutError(f"no answer within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


class TestFareySuccessor:
    @pytest.mark.parametrize(
        "value,max_den,expected",
        [
            (Fraction(1), 7, Fraction(8, 7)),
            (Fraction(3, 2), 10, Fraction(14, 9)),
            (Fraction(2), 5, Fraction(11, 5)),
            (Fraction(5, 3), 3, Fraction(2, 1)),
            (Fraction(1), 1, Fraction(2, 1)),
        ],
    )
    def test_known_values(self, value, max_den, expected):
        assert farey_successor(value, max_den) == expected

    @given(
        num=st.integers(1, 40), den=st.integers(1, 40), max_den=st.integers(1, 60)
    )
    @settings(max_examples=200, deadline=None)
    def test_is_the_smallest_fraction_above(self, num, den, max_den):
        value = Fraction(num, den)
        if value.denominator > max_den:
            with pytest.raises(ValueError):
                farey_successor(value, max_den)
            return
        successor = farey_successor(value, max_den)
        assert successor > value
        assert successor.denominator <= max_den
        # Exhaustively: nothing with a small denominator lies between.
        for d in range(1, max_den + 1):
            # smallest numerator with n/d > value
            n = value.numerator * d // value.denominator + 1
            assert Fraction(n, d) >= successor


class TestReferenceDifferential:
    @pytest.mark.parametrize("profile", PROFILES)
    @pytest.mark.parametrize("compact_threshold", [None, 2.0, 4.0])
    def test_monitor_matches_references_at_every_batch(
        self, profile, compact_threshold, feasible
    ):
        records = profiled_trace_records(random.Random(11), profile, 110)
        monitor = OnlineAbcMonitor(compact_threshold=compact_threshold)
        seen = 0
        for chunk in batches_of(records, 9):
            worst = monitor.observe_batch(rows(chunk))
            seen += len(chunk)
            assert worst == reference_at(profile, records, seen), seen
        assert feasible, "no refresh ran"
        if compact_threshold == 2.0 and profile in ("storm", "relay"):
            assert monitor.summary_edges > 0, "no summary edge in H"

    @pytest.mark.parametrize("profile", PROFILES)
    def test_exact_removal_matches_references(self, profile, feasible):
        records = profiled_trace_records(random.Random(11), profile, 110)
        monitor = OnlineAbcMonitor()
        seen = forgotten = 0
        for chunk in batches_of(records, 9):
            worst = monitor.observe_batch(rows(chunk))
            seen += len(chunk)
            assert worst == reference_at(profile, records, seen), seen
            frontier = [
                Event(p, monitor.n_events_of(p) - 1)
                for p in monitor._checker.processes
            ]
            pinned = frontier + in_flight_sends(records, seen)
            forgotten += monitor.forget_prefix(monitor.settled_prefix(pinned))
        assert monitor.forgotten_message_edges == 0
        if profile in ("burst", "idler"):
            assert forgotten > 0, "nothing was ever settled"

    @pytest.mark.parametrize("profile", PROFILES)
    @pytest.mark.parametrize("compact_threshold", [None, 2.0])
    def test_speculation_matches_references(
        self, profile, compact_threshold, feasible
    ):
        records = profiled_trace_records(random.Random(11), profile, 110)
        monitor = OnlineAbcMonitor(compact_threshold=compact_threshold)
        chunks = list(batches_of(records, 9))
        seen = 0
        for chunk, upcoming in zip(chunks, chunks[1:]):
            monitor.observe_batch(rows(chunk))
            seen += len(chunk)
            before = potential_state(monitor._checker)
            spec = monitor.speculative_worst_ratio(*extension_of(upcoming))
            expected = reference_at(profile, records, seen + len(upcoming))
            assert spec == expected, seen
            assert potential_state(monitor._checker) == before

    @pytest.mark.parametrize("profile", PROFILES)
    def test_snapshots_restore_mid_stream(self, profile, feasible):
        records = profiled_trace_records(random.Random(11), profile, 110)
        monitor = OnlineAbcMonitor(compact_threshold=2.0)
        seen = 0
        for k, chunk in enumerate(batches_of(records, 9)):
            worst = monitor.observe_batch(rows(chunk))
            seen += len(chunk)
            assert worst == reference_at(profile, records, seen), seen
            if k % 2:
                clone = pickle.loads(pickle.dumps(monitor))
                assert potential_state(clone._checker) == potential_state(
                    monitor._checker
                )
                monitor = clone

    @pytest.mark.parametrize("seed", range(12))
    def test_graph_built_checkers_match_references(self, seed, feasible):
        rng = random.Random(seed + 300)
        graph = random_execution_graph(rng, rng.randint(2, 4), 18)
        repaired = AdmissibilityChecker(graph).worst_relevant_ratio()
        assert repaired == reference_worst_ratio(AdmissibilityChecker(graph))
        assert repaired == reference_climb(AdmissibilityChecker(graph))
        depth = max(len(graph.events_of(p)) for p in graph.processes)
        prefixes = [
            graph.prefix(
                ev
                for p in graph.processes
                for ev in graph.events_of(p)[: k + 1]
            )
            for k in range(depth)
        ]
        for prefix, worst in zip(prefixes, running_worst_ratio(prefixes)):
            assert worst == reference_climb(AdmissibilityChecker(prefix))

    @pytest.mark.parametrize("seed", range(6))
    def test_speculation_and_rollback_match_references(self, seed):
        rng = random.Random(seed + 700)
        records = profiled_trace_records(rng, "storm", 90)
        checker = prefix_checker(records, 60)
        base = checker.worst_relevant_ratio()
        assert base == reference_worst_ratio(checker)
        for _ in range(4):
            before = potential_state(checker)
            with checker.speculate():
                for _ in range(rng.randint(1, 3)):
                    process = rng.randrange(3)
                    event = Event(process, checker.n_events_of(process))
                    src = checker._event(rng.choice(range(checker.n_events)))
                    checker.add_event(event)
                    if src.process != process:
                        checker.add_message(src, event)
                spec = checker.updated_worst_ratio(base)
                assert spec == reference_worst_ratio(checker)
                assert spec == reference_climb(checker)
            assert potential_state(checker) == before
            assert checker.worst_relevant_ratio() == base
            assert reference_worst_ratio(checker) == base

    @given(
        profile=st.sampled_from(PROFILES),
        seed=st.integers(0, 10**6),
        steps=st.lists(
            st.tuples(
                st.integers(1, 12),
                st.sampled_from(("none", "summary", "exact", "speculate")),
            ),
            min_size=1,
            max_size=12,
        ),
    )
    @settings(max_examples=40, deadline=None)
    def test_mixed_stream_matches_reference(self, profile, seed, steps):
        records = profiled_trace_records(random.Random(seed), profile, 70)
        monitor = OnlineAbcMonitor()
        seen = 0
        for size, action in steps:
            chunk = records[seen : seen + size]
            if not chunk:
                break
            worst = monitor.observe_batch(rows(chunk))
            seen += len(chunk)
            assert worst == reference_climb(prefix_checker(records, seen))
            if extension_of(chunk)[1]:  # the batch refreshed
                assert_potential_feasible(monitor._checker)
            pinned = in_flight_sends(records, seen)
            if action == "summary":
                monitor.forget_prefix(
                    monitor.compactable_prefix(pinned), summarize=True
                )
            elif action == "exact":
                frontier = [
                    Event(p, monitor.n_events_of(p) - 1)
                    for p in monitor._checker.processes
                ]
                monitor.forget_prefix(
                    monitor.settled_prefix(frontier + pinned)
                )
            elif action == "speculate" and seen < len(records):
                upcoming = records[seen : seen + size]
                before = potential_state(monitor._checker)
                spec = monitor.speculative_worst_ratio(*extension_of(upcoming))
                assert spec == reference_climb(
                    prefix_checker(records, seen + len(upcoming))
                )
                assert potential_state(monitor._checker) == before
        assert monitor.forgotten_message_edges == 0


class TestRepairProperties:
    @pytest.mark.parametrize("profile", PROFILES)
    def test_every_closed_cycle_is_valid(self, profile, monkeypatch):
        """Every cycle a repair closes is simple in ``H``, negative at
        the pre-jump ratio, and its ``B/F`` is the new worst."""
        jumps = []
        original = AdmissibilityChecker._jump

        def checked(self, ratio, cycle):
            if cycle is not None:
                tails = [self._tails[e] for e in cycle]
                heads = [self._heads[e] for e in cycle]
                assert len(set(tails)) == len(tails), "cycle revisits a node"
                assert heads == tails[1:] + tails[:1], "not a closed walk"
                wtab = self._potential_weights()
                assert sum(wtab[self._kinds[e]] for e in cycle) < 0
                assert ratio == self._cycle_ratio(cycle)
                old = self._pot_ratio
                assert ratio > old if old is not None else ratio >= 1
                jumps.append(ratio)
            original(self, ratio, cycle)

        monkeypatch.setattr(AdmissibilityChecker, "_jump", checked)
        records = profiled_trace_records(random.Random(5), profile, 100)

        def realized(change):
            # Called inside the refresh, before any compaction.
            assert change.worst == jumps[-1]
            assert monitor._checker.worst_cycle().ratio == change.worst

        monitor = OnlineAbcMonitor(
            xi=Fraction(3, 2),
            compact_threshold=2.0,
            on_ratio_increase=realized,
        )
        for chunk in batches_of(records, 10):
            monitor.observe_batch(rows(chunk))
        assert jumps or monitor.worst_ratio is None
        if monitor.violation is not None:
            assert monitor.violation.relevant
            assert monitor.violation.ratio >= Fraction(3, 2)

    def test_probes_below_one_return_valid_cycles(self):
        # Ratios below 1 never come from the climb, which starts at 1;
        # the reference must still answer them with genuine negative
        # cycles.
        found = 0
        for seed in range(5):
            graph = random_execution_graph(random.Random(seed), 3, 12)
            checker = AdmissibilityChecker(graph)
            for p, q in ((1, 2), (2, 3), (1, 5), (3, 4)):
                cycle = reference_negative_cycle(checker, p, q)
                if cycle is not None:
                    found += 1
                    assert_valid_cycle(checker, cycle, p, q)
        assert found, "no probe below 1 found a cycle"

    def test_dead_ended_walk_keeps_relaxing(self, monkeypatch):
        # The reference's first predecessor walk is made to dead-end;
        # the run must keep relaxing and still return a valid cycle.
        walk = cycle_from_predecessors
        calls = []

        def dead_end_once(pred, tails, start, n):
            calls.append(start)
            if len(calls) == 1:
                return None
            return walk(pred, tails, start, n)

        monkeypatch.setitem(
            globals(), "cycle_from_predecessors", dead_end_once
        )
        hits = 0
        for seed in range(6):
            calls.clear()
            graph = random_execution_graph(random.Random(seed + 90), 3, 16)
            checker = AdmissibilityChecker(graph)
            cycle = reference_negative_cycle(checker, 1, 1)
            if cycle is None:
                continue
            hits += 1
            assert len(calls) >= 2, "the forced dead end was never hit"
            assert_valid_cycle(checker, cycle, 1, 1)
            witness = checker.violating_cycle(Fraction(3, 2))
            if witness is not None:
                assert witness.relevant and witness.ratio >= Fraction(3, 2)
        assert hits >= 3


class TestCornerCases:
    def test_ratio_one_cycle_needs_the_pre_cycle_tie_break(
        self, broadcast_graph
    ):
        """Two messages from one step to one process close a cycle of
        ratio exactly 1.  At ratio-1 weights it weighs 0; only the
        pre-cycle weights ``(F - B) * K - L`` make it negative."""
        checker = AdmissibilityChecker(broadcast_graph)
        assert checker.worst_relevant_ratio() == 1
        witness = checker.worst_cycle()
        assert witness.relevant and witness.ratio == 1
        cycle = checker._pot_cycle
        at_one = sum(
            checker._edge_hops(checker._kinds[e])[0]
            - checker._edge_hops(checker._kinds[e])[1]
            for e in cycle
        )
        assert at_one == 0
        fresh = AdmissibilityChecker(broadcast_graph)
        pre_cycle = fresh._potential_weights()
        assert sum(pre_cycle[fresh._kinds[e]] for e in cycle) < 0
        # Started at ratio 1, the strict search finds nothing above it.
        assert fresh.updated_worst_ratio(Fraction(1)) == 1
        assert fresh.ratio_jumps == 0 and fresh.worst_cycle() is None

    def test_degenerate_shapes_are_never_reported(self, chain_only_graph):
        """A message's two traversals and cycles with more forward than
        backward messages weigh at least 0 at every ratio ``>= 1``."""
        one_message = GraphBuilder()
        one_message.message((0, 0), (1, 0))
        for graph in (one_message.build(), chain_only_graph):
            checker = AdmissibilityChecker(graph)
            assert checker.worst_relevant_ratio() is None
            assert checker.ratio_jumps == 0
            for start in (Fraction(1), Fraction(3, 2), Fraction(7)):
                checker = AdmissibilityChecker(graph)
                assert checker.updated_worst_ratio(start) == start
                assert checker.ratio_jumps == 0

    def test_causal_cycle_raises_at_refresh_and_compaction(self):
        # p0:0 -> p0:1 -> p1:0 -> p1:1 -> p0:0: no relevant cycle to
        # report, so every query must name the causal cycle instead.
        small = AdmissibilityChecker()
        for process in (0, 1):
            for index in (0, 1):
                small.add_event(Event(process, index))
        small.add_message(Event(0, 1), Event(1, 0))
        small.add_message(Event(1, 1), Event(0, 0))
        queries = (
            lambda checker: checker.worst_relevant_ratio(),
            lambda checker: checker.has_ratio_at_least(2),
            lambda checker: checker.violating_cycle(2),
            lambda checker: checker.check(2),
        )
        for query in queries:
            with pytest.raises(ValueError, match="causal cycle through p"):
                query(small)
        monitor = OnlineAbcMonitor()
        for process in (0, 1):
            for index in range(4):
                monitor.observe_event(Event(process, index))
        monitor.observe_message(Event(0, 2), Event(1, 1))
        monitor.observe_message(Event(1, 0), Event(0, 1))
        monitor.observe_message(Event(0, 0), Event(1, 0))
        # p0:0 -> p1:0 -> p1:1 -> p1:2 -> p0:0 is a causal cycle.
        with pytest.raises(ValueError, match="causal cycle"):
            monitor.observe_message(Event(1, 2), Event(0, 0))
        checker = monitor._checker
        with pytest.raises(ValueError, match="causal cycle"):
            checker.updated_worst_ratio(monitor.worst_ratio)
        for query in queries:
            with pytest.raises(ValueError, match="causal cycle"):
                query(checker)
        with pytest.raises(ValueError, match="causal cycle"):
            checker.compact_prefix({0: 3, 1: 3})
        assert checker.n_tombstoned == 0

    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize("mode", ["summary", "exact"])
    def test_compaction_with_unrefreshed_messages(self, seed, mode):
        """A graph-built checker queried once, grown by messages with no
        query after them, then compacted: its answers equal those of a
        checker that never held a potential."""
        rng = random.Random(seed + 900)
        records = profiled_trace_records(rng, "storm", 60)
        n = max(r.event.process for r in records) + 1
        half = build_execution_graph(Trace(n, frozenset(), records[:30]))
        full = build_execution_graph(Trace(n, frozenset(), records))
        warm = AdmissibilityChecker(half)
        floor = warm.worst_relevant_ratio()
        warm.absorb(full)
        cold = AdmissibilityChecker(full)
        if mode == "summary":
            cut = random_stops(warm, warm.summarizable_prefix(), rng)
            warm.compact_prefix(cut, floor=floor)
            cold.compact_prefix(cut, floor=floor)
            assert warm.updated_worst_ratio(floor) == cold.updated_worst_ratio(
                floor
            )
        else:
            cut = closed_cut(
                full, random_stops(warm, warm.summarizable_prefix(), rng)
            )
            warm.compact_prefix(cut_stops(cut), mode="exact")
            suffix = AdmissibilityChecker(suffix_graph(full, Cut(cut)))
            expected = reference_climb(suffix)
            assert warm.worst_relevant_ratio() == expected
        assert_potential_feasible(warm)

    def test_static_query_after_removal_answers_for_the_suffix(self):
        """Exact removal can drop the cycle that realized the potential's
        ratio.  A static query then answers for the suffix, which may
        sit lower, so the potential is rebuilt; a query given the old
        worst as ``previous`` keeps it as the running maximum."""
        lowered = 0
        for seed in range(40):
            rng = random.Random(seed + 1300)
            graph = random_execution_graph(rng, 3, 16)
            checker = AdmissibilityChecker(graph)
            worst = checker.worst_relevant_ratio()
            if worst is None:
                continue
            stops = random_stops(checker, checker.summarizable_prefix(), rng)
            cut = closed_cut(graph, stops)
            checker.compact_prefix(cut_stops(cut), mode="exact")
            suffix = reference_climb(
                AdmissibilityChecker(suffix_graph(graph, Cut(cut)))
            )
            assert checker.updated_worst_ratio(worst) == worst
            assert checker.worst_relevant_ratio() == suffix
            lowered += suffix is None or suffix < worst
        assert lowered >= 5, "no removal lowered the worst ratio"

    def test_speculate_leaves_potential_and_counters_as_they_were(self):
        rng = random.Random(3)
        records = profiled_trace_records(rng, "storm", 80)
        checker = prefix_checker(records, 40)
        base = checker.worst_relevant_ratio()
        jumped = 0
        for k in range(40, 80, 5):
            before = potential_state(checker)
            token = checker.checkpoint()
            with checker.speculate():
                graph = build_execution_graph(
                    Trace(3, frozenset(), records[: k + 5])
                )
                checker.absorb(graph)
                jumps = checker.ratio_jumps
                checker.updated_worst_ratio(base)
                jumped += checker.ratio_jumps > jumps
            assert potential_state(checker) == before
            checker.rollback(token)  # nested rollback restores it too
            assert potential_state(checker) == before
        assert jumped, "no speculation moved the ratio"
        assert checker.updated_worst_ratio(base) == base

class TestCausalCycle:
    @staticmethod
    def causal_checker(with_history):
        checker = AdmissibilityChecker()
        if with_history:
            graph = random_execution_graph(random.Random(3), 3, 12)
            for process in graph.processes:
                for event in graph.events_of(process):
                    checker.add_event(event)
            for message in graph.messages:
                checker.add_message(message.src, message.dst)
        a, b = Event(7, 0), Event(8, 0)
        checker.add_event(a)
        checker.add_event(b)
        checker.add_message(a, b)
        checker.add_message(b, a)
        return checker

    @pytest.mark.parametrize("with_history", [False, True])
    def test_worst_ratio_raises_instead_of_hanging(self, with_history):
        with deadline(20):
            checker = self.causal_checker(with_history)
            with pytest.raises(ValueError, match="causal cycle"):
                checker.worst_relevant_ratio()
            with pytest.raises(ValueError, match="causal cycle"):
                checker.updated_worst_ratio(None)


class TestStabilizationCuts:
    """The greedy stabilization cut depends on which violating cycle
    the oracle returns, so it may differ from the old search's; every
    cut must still be a valid ``C_GST`` witness."""

    def test_every_cut_is_left_closed_and_stabilizes(self):
        nonempty = 0
        for seed in range(200):
            rng = random.Random(seed + 5000)
            graph = random_execution_graph(rng, 3, rng.randint(4, 14))
            for xi in (Fraction(3, 2), Fraction(2), Fraction(3)):
                cut = earliest_stabilization_cut(graph, xi)
                assert cut.is_left_closed(graph), (seed, xi)
                assert check_eventual_abc(graph, xi, cut).admissible, (
                    seed, xi,
                )
                nonempty += bool(cut.events)
        assert nonempty > 200
