"""Summary compaction: the two-mode engine's ratio-equivalence contract.

``compact_prefix(cut)`` in summary mode replaces the region below a cut
-- messages crossing it and all -- by boundary-to-boundary summary
edges whose ``(forward, backward, local)`` profiles re-weight exactly
per ``(p, q)`` query.  The contract under test:

* **static identity** -- for any left-closed cut and every ratio,
  ``full(r) == compacted(r) or interior_worst >= r`` where
  ``interior_worst`` is the worst ratio of the removed region alone;
  equivalently ``worst(full) == max(worst(compacted), interior_worst)``;
* **extension identity** -- a monitor that summary-compacts at
  arbitrary points (pinning future senders) reports, at every
  subsequent record, the exact same running worst ratio as an
  uncompacted monitor -- bit-identical, including with a floored
  compaction;
* **interoperation** -- checkpoint/rollback round trips across a
  compacted digraph stay bit-identical, compaction is rejected inside
  ``speculate()``, stale checkpoints are epoch-rejected, and exact-mode
  removal after a summary compaction respects summary-edge crossings;
* **witnesses** -- violation witnesses extracted from a compacted
  digraph expand into genuine steps of the original execution graph;
* **search order** -- the checker's label-setting summary search keeps,
  per ``(tail, head)`` pair, exactly the profile set of a plain
  label-correcting reference search over the same dominance orders.
"""

from __future__ import annotations

import heapq
import random
from collections import Counter
from fractions import Fraction

import pytest

from repro.analysis.online import OnlineAbcMonitor
from repro.core import synchrony
from repro.core.events import Event
from repro.core.execution_graph import ExecutionGraph, GraphBuilder
from repro.core.synchrony import (
    AdmissibilityChecker,
    SummaryEdge,
    farey_predecessor,
    worst_relevant_ratio,
)
from repro.scenarios.generators import (
    random_execution_graph,
    relay_chain_workload,
    streaming_records,
)

RATIOS = [
    Fraction(1),
    Fraction(5, 4),
    Fraction(4, 3),
    Fraction(3, 2),
    Fraction(2),
    Fraction(5, 2),
    Fraction(3),
    Fraction(5),
]


def random_cut(rng: random.Random, graph: ExecutionGraph) -> list[Event]:
    """A random left-closed per-process prefix of ``graph``."""
    cut: list[Event] = []
    for process in graph.processes:
        events = graph.events_of(process)
        cut.extend(events[: rng.randint(0, len(events))])
    return cut


def interior_worst(
    graph: ExecutionGraph, checker: AdmissibilityChecker
) -> Fraction | None:
    """Worst ratio of the subgraph the compaction actually removed."""
    by_process = {
        p: [Event(p, i) for i in range(checker.first_live_index(p))]
        for p in graph.processes
    }
    removed = {ev for events in by_process.values() for ev in events}
    messages = [
        m for m in graph.messages if m.src in removed and m.dst in removed
    ]
    if not removed:
        return None
    return worst_relevant_ratio(ExecutionGraph(by_process, messages))


def reference_summaries(
    checker: AdmissibilityChecker, dead: set[int], floor: Fraction | None
) -> list[SummaryEdge]:
    """The summaries of ``dead``, by a plain label-correcting search.

    Same labels, dominance orders, caps and weight-only re-prune as
    ``AdmissibilityChecker._summarize_region``, but labels are taken
    from a LIFO stack in whatever order they arrive: a label beaten
    later has its whole subtree explored again, which makes the search
    slow but independent of any visiting order.  Both searches keep the
    Pareto frontier of every cap-respecting walk, so their profile sets
    per ``(tail, head)`` pair must be identical; only the choice among
    equal-profile walks may differ.
    """
    entries: dict[int, list[int]] = {}  # live tail -> edges into region
    internal: dict[int, list[int]] = {}  # region tail -> region edges
    exits: dict[int, list[int]] = {}  # region tail -> edges out to live
    forward_caps: list[int] = []
    for eidx, (tail, head) in enumerate(zip(checker._tails, checker._heads)):
        if tail not in dead and head not in dead:
            continue
        forward_caps.append(checker._edge_hops(checker._kinds[eidx])[0])
        if tail in dead and head in dead:
            internal.setdefault(tail, []).append(eidx)
        elif head in dead:
            entries.setdefault(tail, []).append(eidx)
        else:
            exits.setdefault(tail, []).append(eidx)
    forward_caps.sort(reverse=True)
    f_cap = sum(forward_caps[: len(dead) + 1])
    if floor is None:
        fa, fc, strict = 1, 1, False
    else:
        fa, fc, strict = floor.numerator, floor.denominator, True
    use_hops = not strict
    h_cap = len(dead) + 1

    def dominates(x_lab: tuple, y_lab: tuple, hops: bool = use_hops) -> bool:
        if hops and x_lab[3] > y_lab[3]:
            return False
        df = x_lab[0] - y_lab[0]
        db = x_lab[1] - y_lab[1]
        if df > 0 or fa * df > fc * db:
            return False
        tie = (df == 0 and db == 0) if strict else fa * df == fc * db
        return not tie or x_lab[2] >= y_lab[2]

    def offer(labels: list[tuple], cand: tuple, hops: bool = use_hops) -> bool:
        if any(dominates(o, cand, hops) for o in labels):
            return False
        labels[:] = [o for o in labels if not dominates(cand, o, hops)]
        labels.append(cand)
        return True

    def relax(label: tuple, eidx: int) -> tuple | None:
        if use_hops and label[3] + 1 > h_cap:
            return None
        df, db, dl = checker._edge_hops(checker._kinds[eidx])
        if label[0] + df > f_cap:
            return None
        return (
            label[0] + df, label[1] + db, label[2] + dl, label[3] + 1,
            label, eidx,
        )

    out: list[SummaryEdge] = []
    for x, seed_edges in entries.items():
        frontier: dict[int, list[tuple]] = {}
        results: dict[int, list[tuple]] = {}
        work: list[tuple[int, tuple]] = []
        for eidx in seed_edges:
            nxt = relax((0, 0, 0, 0, None, -1), eidx)
            head = checker._heads[eidx]
            if nxt is not None and offer(frontier.setdefault(head, []), nxt):
                work.append((head, nxt))
        while work:
            node, label = work.pop()
            for eidx in internal.get(node, ()):
                nxt = relax(label, eidx)
                head = checker._heads[eidx]
                if nxt is None:
                    continue
                if offer(frontier.setdefault(head, []), nxt):
                    work.append((head, nxt))
            for eidx in exits.get(node, ()):
                nxt = relax(label, eidx)
                if nxt is not None:
                    offer(results.setdefault(checker._heads[eidx], []), nxt)
        for y, labels in results.items():
            pruned: list[tuple] = []
            for label in labels:
                offer(pruned, label, hops=False)
            for label in pruned:
                chain = []
                cursor = label
                while cursor[4] is not None:
                    chain.append(checker._steps[cursor[5]])
                    cursor = cursor[4]
                out.append(
                    SummaryEdge(
                        tail=checker._nodes[x],
                        head=checker._nodes[y],
                        forward=label[0],
                        backward=label[1],
                        local=label[2],
                        parts=tuple(reversed(chain)),
                    )
                )
    return out


def profile_sets(edges: list[SummaryEdge]) -> dict[tuple, set]:
    """Per ``(tail, head)`` pair, the set of summary profiles."""
    out: dict[tuple, set] = {}
    for edge in edges:
        out.setdefault((edge.tail, edge.head), set()).add(edge.profile)
    return out


def assert_genuine_walk(summary: SummaryEdge) -> None:
    """The stored walk of ``summary`` runs from its tail to its head
    and realizes its profile hop for hop."""
    forward = backward = local = 0
    cursor = summary.tail
    for step in summary.steps:
        assert step.start == cursor
        cursor = step.end
        if step.edge.is_message:
            if step.direction > 0:
                forward += 1
            else:
                backward += 1
        else:
            local += 1
    assert cursor == summary.head
    assert (forward, backward, local) == summary.profile


def streaming_compactions(rng: random.Random):
    """Monitors over random streams, summary-compacted every few records
    with every future sender pinned, so later regions hold the older
    summaries (``forward == 0`` ones included).  Yields each monitor
    after its last record."""
    for _ in range(40):
        records = list(
            streaming_records(
                rng,
                n_processes=rng.randint(2, 4),
                n_records=rng.randint(20, 45),
            )
        )
        monitor = OnlineAbcMonitor()
        every = rng.randint(3, 6)
        for i, record in enumerate(records):
            monitor.observe(record)
            if i % every == every - 1:
                pinned = [
                    r.send_event
                    for r in records[i + 1 :]
                    if r.send_event is not None
                ]
                monitor.forget_prefix(
                    monitor.compactable_prefix(pinned), summarize=True
                )
        yield monitor


class TestStaticIdentity:
    def test_random_cuts_random_ratios(self):
        rng = random.Random(11)
        for _ in range(150):
            graph = random_execution_graph(
                rng,
                n_processes=rng.randint(2, 4),
                n_messages=rng.randint(4, 14),
            )
            full = AdmissibilityChecker(graph)
            compacted = AdmissibilityChecker(graph)
            compacted.compact_prefix(random_cut(rng, graph))
            inner = interior_worst(graph, compacted)
            worsts = [
                w
                for w in (compacted.worst_relevant_ratio(), inner)
                if w is not None
            ]
            assert (
                max(worsts, default=None) == full.worst_relevant_ratio()
            )
            for ratio in RATIOS:
                expect = full.has_ratio_at_least(ratio)
                got = compacted.has_ratio_at_least(ratio) or (
                    inner is not None and inner >= ratio
                )
                assert got == expect, (graph, ratio)

    def test_repeated_compaction_absorbs_summaries(self):
        """A second compaction swallowing the first one's boundary must
        fold the old summary edges into the new ones losslessly."""
        rng = random.Random(5)
        for _ in range(60):
            graph = random_execution_graph(
                rng, n_processes=3, n_messages=rng.randint(6, 16)
            )
            full = AdmissibilityChecker(graph)
            compacted = AdmissibilityChecker(graph)
            first = random_cut(rng, graph)
            second = random_cut(rng, graph)
            compacted.compact_prefix(first)
            compacted.compact_prefix(first + second)
            inner = interior_worst(graph, compacted)
            for ratio in RATIOS:
                expect = full.has_ratio_at_least(ratio)
                got = compacted.has_ratio_at_least(ratio) or (
                    inner is not None and inner >= ratio
                )
                assert got == expect

    def test_summary_edges_reweight_per_query(self, fig3_like_graph):
        """One compacted digraph must answer differently-weighted
        queries from the same summary profiles (no per-ratio state)."""
        checker = AdmissibilityChecker(fig3_like_graph)
        cut = [Event(0, 0), Event(1, 0), Event(1, 1)]
        checker.compact_prefix(cut)
        assert checker.n_summary_edges > 0
        assert checker.has_ratio_at_least(2)  # the ratio-2 cycle survives
        assert not checker.has_ratio_at_least(Fraction(5, 2))
        assert checker.worst_relevant_ratio() == 2

    def test_frontier_events_stay_live(self):
        """Summary mode implicitly pins each process's last live event."""
        b = GraphBuilder()
        b.message((0, 0), (1, 0))
        b.message((1, 0), (0, 1))
        graph = b.build()
        checker = AdmissibilityChecker(graph)
        removed = checker.compact_prefix(list(graph.events()))
        assert removed == 1  # only p0's first event; frontiers pinned
        assert checker.n_events == 2


class TestExtensionIdentity:
    def run_stream(self, seed: int, floored: bool) -> None:
        rng = random.Random(seed)
        for _ in range(25):
            records = list(
                streaming_records(
                    rng,
                    n_processes=rng.randint(2, 4),
                    n_records=rng.randint(20, 50),
                )
            )
            plain = OnlineAbcMonitor()
            compacting = OnlineAbcMonitor()
            # The inclusive default keeps exactness at every ratio >= 1,
            # paying for it with loop-staircase labels on cycle-rich
            # regions; it is the one-shot conservative mode, so give it
            # one compaction point.  The floored path (what every
            # monitoring layer uses) is cheap enough to repeat.
            splits = set(
                rng.sample(range(5, len(records)), k=3 if floored else 1)
            )
            for i, record in enumerate(records):
                plain.observe(record)
                compacting.observe(record)
                assert compacting.worst_ratio == plain.worst_ratio, (
                    seed,
                    i,
                )
                if i in splits:
                    # Future senders are in-flight from the monitor's
                    # point of view: pin them, as the fleet does from
                    # ``record.sends`` metadata.
                    pinned = [
                        r.send_event
                        for r in records[i + 1 :]
                        if r.send_event is not None
                    ]
                    cut = compacting.compactable_prefix(pinned)
                    if floored:
                        compacting.forget_prefix(cut, summarize=True)
                    else:
                        # Checker-level inclusive default (floor=None).
                        compacting._checker.compact_prefix(cut)
            assert compacting.forgotten_message_edges == 0

    def test_monitor_bit_identity_with_floored_compaction(self):
        self.run_stream(23, floored=True)

    def test_monitor_bit_identity_with_inclusive_default(self):
        self.run_stream(29, floored=False)

    def test_relay_chain_bit_identity(self):
        """The adversarial chain shape: nothing is exactly settleable,
        yet periodic summary compaction stays bit-identical."""
        records = relay_chain_workload(random.Random(17), 240)
        plain = OnlineAbcMonitor()
        compacting = OnlineAbcMonitor()
        in_flight: dict[Event, int] = {}  # send event -> undelivered count
        for i, record in enumerate(records):
            plain.observe(record)
            compacting.observe(record)
            src = record.send_event
            if src is not None and in_flight.get(src, 0) > 0:
                in_flight[src] -= 1
                if not in_flight[src]:
                    del in_flight[src]
            if record.sends:
                in_flight[record.event] = (
                    in_flight.get(record.event, 0) + len(record.sends)
                )
            assert compacting.worst_ratio == plain.worst_ratio, i
            if in_flight:
                # While anything is in flight the chain pins cascade:
                # no prefix is exactly removable.  (At fully quiescent
                # instants with no pins at all, exact removal could
                # take everything -- not the shape under test.)
                assert len(compacting.settled_prefix(in_flight)) == 0
            if i % 40 == 39:
                cut = compacting.compactable_prefix(in_flight)
                assert cut  # summary mode reclaims what exact cannot
                compacting.forget_prefix(cut, summarize=True)
                assert compacting.n_events <= 16
        assert compacting.forgotten_message_edges == 0
        assert plain.worst_ratio is not None and plain.worst_ratio > 1
        assert plain.n_events == len(records)  # the contrast


class TestInteroperation:
    def build_compacted(self, seed: int = 3):
        rng = random.Random(seed)
        graph = random_execution_graph(rng, n_processes=3, n_messages=12)
        checker = AdmissibilityChecker(graph)
        checker.compact_prefix(random_cut(rng, graph))
        return rng, graph, checker

    def test_checkpoint_rollback_across_summaries(self):
        rng, graph, checker = self.build_compacted()
        answers = {r: checker.has_ratio_at_least(r) for r in RATIOS}
        worst = checker.worst_relevant_ratio()
        token = checker.checkpoint()
        with checker.speculate():
            # Grow past the checkpoint: new events and messages on top
            # of the summarized digraph.
            frontier = {
                p: checker.n_events_of(p) for p in checker.processes
            }
            fresh = []
            for p, index in frontier.items():
                event = Event(p, index)
                checker.add_event(event)
                fresh.append(event)
            checker.add_message(fresh[0], fresh[1])
            checker.add_message(fresh[2], fresh[1])
            checker.has_ratio_at_least(2)
        checker.rollback(token)  # nested rollback must also be clean
        assert {r: checker.has_ratio_at_least(r) for r in RATIOS} == answers
        assert checker.worst_relevant_ratio() == worst

    def test_compaction_rejected_inside_speculation(self):
        _rng, _graph, checker = self.build_compacted()
        with checker.speculate():
            with pytest.raises(RuntimeError):
                checker.compact_prefix([], mode="summary")

    def test_stale_checkpoints_are_epoch_rejected(self):
        rng, graph, checker = self.build_compacted(seed=9)
        token = checker.checkpoint()
        if not checker.compact_prefix(checker.summarizable_prefix()):
            pytest.skip("nothing left to compact for this seed")
        with pytest.raises(ValueError):
            checker.rollback(token)

    def test_exact_removal_respects_summary_crossings(self):
        """removable_prefix must treat summary edges like messages: a
        boundary a summary edge spans is not exactly removable."""
        b = GraphBuilder()
        b.message((0, 0), (1, 0))
        b.message((1, 0), (0, 1))
        b.event(1, 1)  # a trailing wake-up with no messages at all
        graph = b.build()
        checker = AdmissibilityChecker(graph)
        checker.compact_prefix([Event(0, 0), Event(1, 0)])
        assert checker.n_summary_edges > 0
        assert checker.n_messages == 0  # both messages folded away
        # A cross-process summary (p1:1 -> p0:1, via the region) is the
        # only edge left between the processes; with p0:1 pinned, the
        # message-free p1 timeline would be removable were the summary
        # not honored as a crossing constraint.
        assert checker.removable_prefix(pinned=[Event(0, 1)]) == ()

    def test_summarizable_prefix_respects_pins(self):
        _rng, _graph, checker = self.build_compacted(seed=13)
        pinned = [
            Event(p, checker.first_live_index(p))
            for p in checker.processes
            if checker.first_live_index(p) < checker.n_events_of(p)
        ]
        assert checker.summarizable_prefix(pinned) == ()


class TestWitnesses:
    def test_witness_expands_to_genuine_steps(self, fig3_like_graph):
        checker = AdmissibilityChecker(fig3_like_graph)
        checker.compact_prefix([Event(0, 0), Event(1, 0), Event(1, 1)])
        witness = checker.violating_cycle(2)
        assert witness is not None
        assert witness.relevant
        assert witness.ratio is not None and witness.ratio >= 2
        edges = set(fig3_like_graph.edges())
        for step in witness.cycle.steps:
            assert step.edge in edges

    def test_monitor_witness_survives_compaction_cycles(self):
        """The monitor extracts its witness the moment the ratio first
        reaches Xi -- before any later compaction can absorb it."""
        records = relay_chain_workload(random.Random(2), 200)
        monitor = OnlineAbcMonitor(xi=3)
        for i, record in enumerate(records):
            monitor.observe(record)
            if i % 25 == 24 and monitor.violation is None:
                monitor.forget_prefix(
                    monitor.compactable_prefix(), summarize=True
                )
        assert monitor.violation is not None
        assert monitor.violation.ratio >= 3
        assert not monitor.is_admissible()
        assert monitor.would_violate()  # answered from the running max


@pytest.fixture
def differential(monkeypatch):
    """Check every summary search against :func:`reference_summaries`
    for the duration of a test; returns running counts."""
    stats: Counter = Counter()
    search = AdmissibilityChecker._summarize_region

    def checked(self, dead, floor):
        got = search(self, dead, floor)
        want = reference_summaries(self, dead, floor)
        assert profile_sets(got) == profile_sets(want), (dead, floor)
        for summary in got:
            assert_genuine_walk(summary)
        stats["compactions"] += 1
        for eidx, (tail, head) in enumerate(zip(self._tails, self._heads)):
            if tail not in dead or head not in dead:
                continue
            if self._edge_hops(self._kinds[eidx])[0]:
                continue
            # A zero-forward region edge runs from a causally later
            # event to an earlier one; with tail < head, visiting nodes
            # by descending id would take it backwards.
            stats["against_id_order"] += tail < head
            stats["old_zero_forward"] += isinstance(
                self._steps[eidx], SummaryEdge
            )
        return got

    monkeypatch.setattr(AdmissibilityChecker, "_summarize_region", checked)
    return stats


class TestSearchOrder:
    def test_graph_built_checkers_match_reference(self, differential):
        """Graph-built checkers number events process by process, so
        their node ids do not follow causality.  Two rounds of random
        cuts each, with the inclusive default and with random floors."""
        rng = random.Random(47)
        for _ in range(150):
            graph = random_execution_graph(
                rng,
                n_processes=rng.randint(2, 4),
                n_messages=rng.randint(5, 14),
            )
            first = random_cut(rng, graph)
            second = random_cut(rng, graph)
            floor = Fraction(rng.randint(4, 12), rng.randint(2, 4))
            for compaction_floor in (None, floor):
                checker = AdmissibilityChecker(graph)
                checker.compact_prefix(first, floor=compaction_floor)
                checker.compact_prefix(first + second, floor=compaction_floor)
        assert differential["compactions"] > 400
        assert differential["against_id_order"] > 200

    def test_streaming_monitors_match_reference(self, differential):
        """Monitors compacted every few records: regions hold older
        summaries, ``forward == 0`` ones included, and the floor is the
        running worst ratio (``None`` until the first relevant cycle)."""
        for monitor in streaming_compactions(random.Random(53)):
            assert monitor.forgotten_message_edges == 0
        assert differential["compactions"] > 150
        assert differential["old_zero_forward"] > 100

    def test_each_node_gets_one_turn_per_bucket(self, monkeypatch):
        """Within one forward-hop bucket, a zero-forward edge only ever
        reaches a node later in the topological order, so every bucket
        pops node ranks in non-decreasing order: no node is revisited
        after its turn, which is what settles each label once.  (A
        wrong order would still give the right profiles -- the heap
        would hand the node a second turn -- just more slowly.)"""
        last: dict[int, tuple[list, int]] = {}  # id(heap) -> (heap, rank)
        pops = Counter()

        def checked_pop(heap: list) -> int:
            rank = heapq.heappop(heap)
            # Keep the heap alive, so its id is not reused.
            _heap, before = last.get(id(heap), (heap, -1))
            assert rank >= before
            last[id(heap)] = (heap, rank)
            pops["pops"] += 1
            return rank

        monkeypatch.setattr(synchrony, "heappop", checked_pop)
        rng = random.Random(59)
        for _ in range(60):
            graph = random_execution_graph(
                rng, n_processes=rng.randint(2, 4), n_messages=14
            )
            checker = AdmissibilityChecker(graph)
            checker.compact_prefix(random_cut(rng, graph))
        for _monitor in streaming_compactions(random.Random(61)):
            pass
        assert pops["pops"] > 1000

    def test_causal_cycle_raises_and_leaves_checker_whole(self):
        """The public add_message can close a causal cycle; its
        backward-only H-edges then loop, and the in-bucket order does
        not exist.  compact_prefix must refuse before mutating."""
        checker = AdmissibilityChecker()
        for process in (0, 1):
            for index in range(3):
                checker.add_event(Event(process, index))
        # p0:0 -> p0:1 -> p1:0 -> p1:1 -> p0:0
        checker.add_message(Event(0, 1), Event(1, 0))
        checker.add_message(Event(1, 1), Event(0, 0))
        region = [Event(0, 0), Event(0, 1), Event(1, 0), Event(1, 1)]
        with pytest.raises(ValueError, match="causal cycle"):
            checker.compact_prefix(region)
        assert checker.n_events == 6
        assert checker.n_summary_edges == 0
        assert checker.n_tombstoned == 0
        assert checker.first_live_index(0) == checker.first_live_index(1) == 0


class TestSummaryInternals:
    def test_profiles_are_genuine_walks(self):
        """Every stored summary profile must be realized by its stored
        walk: hop counts and endpoints must match exactly (the
        no-false-positive argument rests on this).  Checked on
        graph-built checkers cut once and on streaming monitors whose
        summaries fold older summaries in."""
        rng = random.Random(31)
        checkers = []
        for _ in range(40):
            graph = random_execution_graph(
                rng, n_processes=3, n_messages=rng.randint(5, 14)
            )
            checker = AdmissibilityChecker(graph)
            checker.compact_prefix(random_cut(rng, graph))
            checkers.append(checker)
        checkers += [
            monitor._checker
            for monitor in streaming_compactions(random.Random(37))
        ]
        n_summaries = 0
        for checker in checkers:
            for summary in checker._live_summaries():
                assert isinstance(summary, SummaryEdge)
                assert_genuine_walk(summary)
                n_summaries += 1
        assert n_summaries > 100

    def test_floor_prunes_loop_staircases(self):
        """With the floor at the running worst, compacting a region
        full of relevant cycles stays region-bounded (the unfloored
        frontier would keep loop-improved labels)."""
        records = relay_chain_workload(random.Random(41), 160)
        monitor = OnlineAbcMonitor()
        for record in records:
            monitor.observe(record)
        worst = monitor.worst_ratio
        assert worst is not None and worst > 1
        monitor.forget_prefix(monitor.compactable_prefix(), summarize=True)
        assert monitor.summary_edges <= 40
        assert monitor._checker.ratio_bound < 4 * len(records)

    def test_farey_predecessor_brackets_xi(self):
        for num, den, bound in [(3, 2, 7), (2, 1, 1), (7, 3, 40), (9, 8, 4)]:
            xi = Fraction(num, den)
            below = farey_predecessor(xi, bound)
            assert below < xi
            assert below.denominator <= bound


class TestReviewRegressions:
    def test_profile_table_stays_bounded_by_live_summaries(self):
        """The per-query weight table carries one entry per summary
        profile; _compact must drop profiles no live edge references,
        or long-running compacting monitors degrade to O(history) per
        oracle call (review finding on this PR)."""
        records = relay_chain_workload(random.Random(0), 800)
        monitor = OnlineAbcMonitor()
        in_flight: dict[Event, int] = {}
        for i, record in enumerate(records):
            monitor.observe(record)
            src = record.send_event
            if src is not None and in_flight.get(src, 0) > 0:
                in_flight[src] -= 1
                if not in_flight[src]:
                    del in_flight[src]
            if record.sends:
                in_flight[record.event] = in_flight.get(
                    record.event, 0
                ) + len(record.sends)
            if (i + 1) % 15 == 0:
                monitor.forget_prefix(
                    monitor.compactable_prefix(in_flight), summarize=True
                )
        checker = monitor._checker
        live = {s.profile for s in checker._live_summaries()}
        assert set(checker._summary_profiles) == live
        assert len(checker._summary_profiles) <= 2 * checker.n_summary_edges

    def test_observe_skips_and_counts_forgotten_sends(self):
        """observe() must tolerate a record whose triggering send lies
        in a summarized prefix exactly like observe_batch does: skip
        the edge, count it, degrade -- never raise (review finding on
        this PR)."""
        from repro.sim.trace import ReceiveRecord

        def wake(process, index, time):
            return ReceiveRecord(
                event=Event(process, index), time=time, sender=None,
                send_event=None, send_time=None, payload=None,
                processed=True, sends=(),
            )

        monitor = OnlineAbcMonitor()
        monitor.observe(wake(0, 0, 0.0))
        monitor.observe(wake(0, 1, 1.0))
        monitor.observe(wake(1, 0, 2.0))
        # No pins: p0:0 is compacted away (the documented degradation).
        assert monitor.forget_prefix(
            monitor.compactable_prefix(), summarize=True
        ) == 1
        late = ReceiveRecord(
            event=Event(1, 1), time=3.0, sender=0,
            send_event=Event(0, 0), send_time=0.5, payload=None,
            processed=True, sends=(),
        )
        assert monitor.observe(late) is None  # no raise
        assert monitor.forgotten_message_edges == 1
        assert monitor.n_events == 3  # p0:1, p1:0, p1:1 (p0:0 compacted)


class TestPickleSafety:
    """Summary state must survive serialization (the parallel runtime
    forks/ships monitors and their compacted digraphs)."""

    def test_deeply_nested_summary_edge_pickles_flat(self):
        """One nesting level per compaction round: default dataclass
        pickling would recurse past the interpreter limit on a
        long-compacted monitor.  __reduce__ flattens iteratively."""
        import pickle
        import sys

        from repro.core.cycles import AGAINST, Step
        from repro.core.execution_graph import LocalEdge

        step = Step(LocalEdge(Event(0, 0), Event(0, 1)), AGAINST)
        edge = SummaryEdge(
            tail=Event(0, 1), head=Event(0, 0),
            forward=0, backward=0, local=1, parts=(step,),
        )
        depth = sys.getrecursionlimit() * 2
        for _ in range(depth):
            edge = SummaryEdge(
                tail=edge.tail, head=edge.head,
                forward=edge.forward, backward=edge.backward,
                local=edge.local, parts=(edge,),
            )
        wire = pickle.dumps(edge)
        copy = pickle.loads(wire)
        assert copy.profile == edge.profile
        assert copy.tail == edge.tail and copy.head == edge.head
        assert copy.steps == (step,)
        # The copy is flat: its parts ARE its steps.
        assert copy.parts == copy.steps

    def test_repeatedly_compacted_monitor_round_trips(self):
        """A monitor carrying hundreds of compaction rounds (nested
        summaries, profile tables, tombstone state) pickles and keeps
        answering bit-identically, including under further extension."""
        import pickle

        from repro.scenarios.generators import relay_chain_workload

        records = relay_chain_workload(random.Random(5), 400)
        monitor = OnlineAbcMonitor(compact_threshold=1.5)
        for record in records[:300]:
            monitor.observe(record)
        assert monitor.auto_compactions > 50  # genuinely deep nesting
        copy = pickle.loads(pickle.dumps(monitor))
        assert copy.worst_ratio == monitor.worst_ratio
        assert copy.n_events == monitor.n_events
        for record in records[300:]:
            assert copy.observe(record) == monitor.observe(record)

    def test_checkpoint_pickles(self):
        import pickle

        checker = AdmissibilityChecker()
        checker.add_event(Event(0, 0))
        token = checker.checkpoint()
        assert pickle.loads(pickle.dumps(token)) == token
