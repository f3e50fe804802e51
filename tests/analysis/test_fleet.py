"""Tests for the multi-trace monitoring fleet.

The central property: every per-trace worst ratio the fleet reports --
through batched flushes, budget-driven eviction, and retirement -- is
bit-identical to a standalone :class:`OnlineAbcMonitor` fed the same
records one at a time.  Around it: the memory budget's watermark
guarantee, that idle time and stream interleaving change no answer,
graceful degradation on metadata-free streams, the trace lifecycle,
and the fleet-level aggregates.
"""

import random
from collections import defaultdict
from fractions import Fraction

import pytest

from repro.analysis.fleet import (
    FleetReport,
    MonitorFleet,
    ShardStats,
    TraceSummary,
)
from repro.analysis.online import OnlineAbcMonitor
from repro.runtime.shard import MonitorSpec, ShardGroup
from repro.scenarios.generators import (
    concurrent_workload,
    profiled_trace_records,
    relay_chain_workload,
    streaming_records,
)


def standalone_ratio(records):
    """The reference: one monitor, record at a time."""
    monitor = OnlineAbcMonitor()
    for record in records:
        monitor.observe(record)
    return monitor.worst_ratio


def by_trace(stream):
    per = defaultdict(list)
    for trace_id, record in stream:
        per[trace_id].append(record)
    return per


class TestExactness:
    @pytest.mark.parametrize(
        "seed,batch_size,n_shards,budget",
        [
            (0, 1, 1, None),
            (1, 3, 4, None),
            (2, 8, 8, 300),
            (3, 32, 2, 150),
            (4, 64, 16, 500),
        ],
    )
    def test_fleet_matches_standalone_monitors(
        self, seed, batch_size, n_shards, budget
    ):
        """The acceptance property: per-trace worst ratios bit-identical
        to standalone monitors, across batch sizes, shard counts, and
        budgets tight enough to force eviction."""
        stream = list(
            concurrent_workload(
                random.Random(seed), n_traces=12, records_per_trace=(15, 45)
            )
        )
        fleet = MonitorFleet(
            n_shards=n_shards, batch_size=batch_size, event_budget=budget
        )
        fleet.ingest_many(stream)
        for trace_id, records in by_trace(stream).items():
            assert fleet.worst_ratio(trace_id) == standalone_ratio(records)
            assert not fleet.is_degraded(trace_id)

    def test_every_flush_boundary_is_exact(self):
        """Query after every single ingest: each query forces a flush,
        so every prefix becomes a batch boundary and must agree with the
        standalone monitor on that prefix."""
        records = profiled_trace_records(random.Random(5), "storm", 40)
        fleet = MonitorFleet(batch_size=7)
        reference = OnlineAbcMonitor()
        for record in records:
            fleet.ingest("t", record)
            assert fleet.worst_ratio("t") == reference.observe(record)

    def test_eviction_under_budget_stays_exact(self):
        """A budget tight enough to evict repeatedly must not change any
        ratio when the stream carries send metadata."""
        stream = list(
            concurrent_workload(
                random.Random(9),
                n_traces=10,
                records_per_trace=(30, 60),
                profile_weights={"burst": 0.7, "idler": 0.3},
            )
        )
        fleet = MonitorFleet(n_shards=4, batch_size=8, event_budget=60)
        fleet.ingest_many(stream)
        report = fleet.report()
        assert report.evictions > 0
        assert report.tombstoned_events > 0
        assert report.degraded_traces == 0
        for trace_id, records in by_trace(stream).items():
            assert fleet.worst_ratio(trace_id) == standalone_ratio(records)

    def test_batching_saves_oracle_calls(self):
        records = profiled_trace_records(random.Random(3), "storm", 120)
        fleet = MonitorFleet(batch_size=30)
        for record in records:
            fleet.ingest("t", record)
        fleet.flush()
        reference = OnlineAbcMonitor()
        for record in records:
            reference.observe(record)
        assert fleet.report().oracle_calls < reference.oracle_calls
        assert fleet.worst_ratio("t") == reference.worst_ratio


class TestBulkIngest:
    """ingest_many groups per shard and flushes once per shard batch."""

    @pytest.mark.parametrize("seed,chunk", [(0, 16), (1, 128), (2, 10_000)])
    def test_bulk_ingest_bit_identical_to_per_record(self, seed, chunk):
        """Grouping only coarsens flush boundaries, which never changes
        a reported ratio, a degradation flag, or the violating set."""
        stream = list(
            concurrent_workload(
                random.Random(seed), n_traces=10, records_per_trace=(15, 40)
            )
        )
        loop = MonitorFleet(n_shards=4, batch_size=8, event_budget=200)
        for trace_id, record in stream:
            loop.ingest(trace_id, record)
        bulk = MonitorFleet(n_shards=4, batch_size=8, event_budget=200)
        bulk.ingest_many(stream, chunk_size=chunk)
        for trace_id in by_trace(stream):
            assert bulk.worst_ratio(trace_id) == loop.worst_ratio(trace_id)
            assert bulk.is_degraded(trace_id) == loop.is_degraded(trace_id)
        assert bulk.report().records == len(stream)

    def test_bulk_ingest_coalesces_flushes_and_oracle_work(self):
        """The point of the grouping: a bulk stream hammering one trace
        flushes once per shard batch instead of once per watermark
        crossing -- visibly fewer flushes (and no more oracle calls)
        at identical ratios."""
        records = profiled_trace_records(random.Random(3), "storm", 200)
        stream = [("t", record) for record in records]
        loop = MonitorFleet(batch_size=8)
        for trace_id, record in stream:
            loop.ingest(trace_id, record)
        loop.flush()
        bulk = MonitorFleet(batch_size=8)
        bulk.ingest_many(stream, chunk_size=64)
        bulk.flush()
        loop_report = loop.report()
        bulk_report = bulk.report()
        assert bulk_report.flushes < loop_report.flushes
        assert bulk_report.oracle_calls <= loop_report.oracle_calls
        assert bulk.worst_ratio("t") == loop.worst_ratio("t")

    def test_chunk_size_validation(self):
        with pytest.raises(ValueError):
            MonitorFleet().ingest_many([], chunk_size=0)

    def test_bulk_ingest_touch_times_are_stream_ticks(self):
        """Regression (review finding): shard batches are processed
        sequentially, so stamping the *group clock* as the touch time
        inflated later shards' records and skewed the LRU eviction
        order.  A record's touch time must be its stream position."""
        stream = list(
            concurrent_workload(
                random.Random(7), n_traces=8, records_per_trace=(5, 15)
            )
        )
        fleet = MonitorFleet(n_shards=4, batch_size=8)
        fleet.ingest_many(stream, chunk_size=10_000)  # one chunk
        last_position = {}
        for position, (trace_id, _record) in enumerate(stream, start=1):
            last_position[trace_id] = position
        for shard in fleet._group.shards.values():
            for trace_id, state in shard.traces.items():
                assert state.last_touch == last_position[trace_id]


class TestMemoryBudget:
    def test_peak_watermark_bounded_on_settleable_workload(self):
        """Bursts and idlers settle between clusters, so the eviction
        policy must keep the post-enforcement watermark within budget
        with no overruns."""
        stream = list(
            concurrent_workload(
                random.Random(11),
                n_traces=12,
                records_per_trace=(30, 60),
                profile_weights={"burst": 0.6, "idler": 0.4},
            )
        )
        budget = 150
        fleet = MonitorFleet(n_shards=4, batch_size=8, event_budget=budget)
        fleet.ingest_many(stream)
        report = fleet.report()
        assert report.budget_overruns == 0
        assert report.peak_live_events <= budget
        assert report.live_events <= budget

    def test_hot_storms_fall_back_to_summary_compaction(self):
        """A hot ping-pong storm links history to the frontier: no
        prefix is exactly removable, so eviction falls back to summary
        compaction -- the budget holds (no overrun, unlike the
        pre-compaction fleet, which could only count overruns here)
        and the reported ratio stays exact."""
        records = profiled_trace_records(random.Random(2), "storm", 80)
        fleet = MonitorFleet(batch_size=10, event_budget=20)
        for record in records:
            fleet.ingest("t", record)
        fleet.flush()
        report = fleet.report()
        assert report.summary_compactions > 0
        assert report.budget_overruns == 0
        assert report.peak_live_events <= 20
        assert not fleet.is_degraded("t")
        assert fleet.worst_ratio("t") == standalone_ratio(records)

    def test_close_frees_the_digraph(self):
        stream = list(
            concurrent_workload(
                random.Random(4), n_traces=6, records_per_trace=(20, 40)
            )
        )
        fleet = MonitorFleet(batch_size=16)
        fleet.ingest_many(stream)
        fleet.flush()
        assert fleet.live_events > 0
        for trace_id in by_trace(stream):
            fleet.close(trace_id)
        assert fleet.live_events == 0
        assert fleet.open_traces == 0
        assert fleet.retired_traces == len(by_trace(stream))


class TestDegradation:
    def test_metadata_free_streams_flag_instead_of_crashing(self):
        """streaming_records carries no sends metadata, so a tight
        budget can evict past an in-flight send.  The late edge must be
        skipped and flagged, never raise -- and a non-degraded trace
        must still be exact, a degraded one a sound lower bound."""
        streams = {
            f"t{i}": list(
                streaming_records(
                    random.Random(50 + i), n_processes=3, n_records=40
                )
            )
            for i in range(6)
        }
        fleet = MonitorFleet(n_shards=2, batch_size=4, event_budget=30)
        rng = random.Random(0)
        iters = {tid: iter(recs) for tid, recs in streams.items()}
        alive = sorted(iters)
        while alive:
            tid = rng.choice(alive)
            try:
                fleet.ingest(tid, next(iters[tid]))
            except StopIteration:
                alive.remove(tid)
        degraded = 0
        for tid, records in streams.items():
            exact = standalone_ratio(records)
            got = fleet.worst_ratio(tid)
            if fleet.is_degraded(tid):
                degraded += 1
                assert got is None or exact is None or got <= exact
            else:
                assert got == exact
        assert fleet.report().degraded_traces == degraded


class TestLifecycle:
    def test_close_summary_and_retired_queries(self):
        records = profiled_trace_records(random.Random(8), "burst", 30)
        fleet = MonitorFleet(batch_size=8)
        for record in records:
            fleet.ingest("t", record)
        summary = fleet.close("t")
        assert isinstance(summary, TraceSummary)
        assert summary.worst_ratio == standalone_ratio(records)
        assert summary.n_records == len(records)
        assert not summary.degraded
        # Retired traces still answer queries, from the summary.
        assert fleet.worst_ratio("t") == summary.worst_ratio
        assert not fleet.is_degraded("t")
        # Closing again returns the summary unchanged.
        assert fleet.close("t") == summary
        with pytest.raises(KeyError):
            fleet.close("never-seen")
        with pytest.raises(KeyError):
            fleet.worst_ratio("never-seen")

    def test_reopening_a_retired_trace_degrades(self):
        records = profiled_trace_records(random.Random(8), "storm", 40)
        fleet = MonitorFleet(batch_size=8)
        for record in records[:20]:
            fleet.ingest("t", record)
        first = fleet.close("t")
        for record in records[20:]:
            fleet.ingest("t", record)
        assert fleet.is_degraded("t")
        merged = fleet.close("t")
        assert merged.degraded
        assert merged.n_records == len(records)
        # The merged ratio keeps at least the historical maximum.
        assert first.worst_ratio is None or (
            merged.worst_ratio is not None
            and merged.worst_ratio >= first.worst_ratio
        )

    def test_on_violation_may_close_the_trace_reentrantly(self):
        """Regression: the natural 'retire violating traces' deployment
        -- on_violation calling fleet.close() -- must not crash the
        flush that detected the violation, and the summary must count
        the full triggering batch."""
        storm = profiled_trace_records(random.Random(6), "storm", 60)
        closed = []
        fleet = MonitorFleet(
            xi=Fraction(2),
            batch_size=1000,  # everything pends until the explicit flush
            on_violation=lambda tid, w: closed.append(fleet.close(tid)),
        )
        for record in storm:
            fleet.ingest("hot", record)
        fleet.flush()  # fires the violation mid-flush -> reentrant close
        assert [s.trace_id for s in closed] == ["hot"]
        assert closed[0].n_records == len(storm)
        assert closed[0].worst_ratio == standalone_ratio(storm)
        assert fleet.open_traces == 0 and fleet.retired_traces == 1
        assert fleet.live_events == 0
        assert fleet.violating_traces() == ("hot",)
        # The ingest-triggered variant (watermark flush) as well.
        closed.clear()
        fleet2 = MonitorFleet(
            xi=Fraction(2),
            batch_size=5,
            on_violation=lambda tid, w: closed.append(fleet2.close(tid)),
        )
        for record in storm:
            if not closed:
                fleet2.ingest("hot", record)
        assert len(closed) == 1
        assert closed[0].n_records % 5 == 0  # full batches, none dropped
        assert fleet2.open_traces == 0

    def test_reopened_trace_counts_once_in_aggregates(self):
        """Regression: a trace open again after retirement must appear
        exactly once in every aggregate, with its retired maximum
        merged in -- not once open and once retired."""
        records = profiled_trace_records(random.Random(8), "storm", 40)
        fleet = MonitorFleet(batch_size=8)
        for record in records[:30]:
            fleet.ingest("t", record)
        closed = fleet.close("t")
        for record in records[30:]:
            fleet.ingest("t", record)
        assert len(fleet) == 1
        assert fleet.open_traces == 1 and fleet.retired_traces == 0
        assert sum(fleet.worst_ratio_histogram().values()) == 1
        top = fleet.top_k_riskiest(10)
        assert [tid for tid, _r in top] == ["t"]
        # The reported ratio keeps the pre-reopen historical maximum.
        assert closed.worst_ratio is not None
        assert fleet.worst_ratio("t") >= closed.worst_ratio
        assert top[0][1] == fleet.worst_ratio("t")
        report = fleet.report()
        assert report.open_traces == 1 and report.retired_traces == 0
        assert report.degraded_traces == 1  # reopened => degraded, once

    def test_violation_callbacks_and_listing(self):
        storm = profiled_trace_records(random.Random(6), "storm", 60)
        # Seed chosen so the idler's worst ratio stays below Xi = 2.
        idler = profiled_trace_records(random.Random(7), "idler", 20)
        assert standalone_ratio(storm) >= Fraction(2)
        assert standalone_ratio(idler) < Fraction(2)
        hits = []
        fleet = MonitorFleet(
            xi=Fraction(2),
            batch_size=16,
            on_violation=lambda tid, witness: hits.append((tid, witness)),
        )
        for record in storm:
            fleet.ingest("hot", record)
        for record in idler:
            fleet.ingest("cold", record)
        assert fleet.violating_traces() == ("hot",)
        assert len(hits) == 1
        tid, witness = hits[0]
        assert tid == "hot"
        assert witness.relevant and witness.ratio >= Fraction(2)
        assert "cold" not in fleet.violating_traces()


class TestAggregates:
    @pytest.fixture(scope="class")
    def populated(self):
        stream = list(
            concurrent_workload(
                random.Random(13), n_traces=15, records_per_trace=(15, 40)
            )
        )
        fleet = MonitorFleet(n_shards=4, batch_size=16)
        fleet.ingest_many(stream)
        return fleet, by_trace(stream)

    def test_histogram_covers_every_trace(self, populated):
        fleet, per = populated
        histogram = fleet.worst_ratio_histogram()
        assert sum(histogram.values()) == len(per)
        for records in per.values():
            assert standalone_ratio(records) in histogram

    def test_top_k_riskiest_is_sorted_and_bounded(self, populated):
        fleet, per = populated
        top = fleet.top_k_riskiest(5)
        assert len(top) == 5
        ratios = [r if r is not None else Fraction(0) for _t, r in top]
        assert ratios == sorted(ratios, reverse=True)
        # The head really is the population maximum.
        best = max(
            (standalone_ratio(recs) for recs in per.values()),
            key=lambda r: r if r is not None else Fraction(0),
        )
        assert top[0][1] == best
        assert fleet.top_k_riskiest(0) == []
        assert len(fleet.top_k_riskiest(1000)) == len(per)

    def test_report_totals_match_shard_breakdown(self, populated):
        fleet, per = populated
        report = fleet.report()
        assert report.records == sum(s.records for s in report.shards)
        assert report.flushes == sum(s.flushes for s in report.shards)
        assert report.oracle_calls == sum(
            s.oracle_calls for s in report.shards
        )
        assert report.live_events == sum(
            s.live_events for s in report.shards
        )
        assert report.open_traces == len(per)
        assert report.records == sum(len(r) for r in per.values())
        assert len(fleet) == len(per)

    def test_shard_routing_is_stable_and_spread(self, populated):
        fleet, per = populated
        assert fleet.n_shards == 4
        for trace_id in per:
            assert fleet.shard_of(trace_id) == fleet.shard_of(trace_id)
            assert 0 <= fleet.shard_of(trace_id) < 4
        used = {fleet.shard_of(trace_id) for trace_id in per}
        assert len(used) > 1


class TestConstruction:
    def test_argument_validation(self):
        with pytest.raises(ValueError):
            MonitorFleet(n_shards=0)
        with pytest.raises(ValueError):
            MonitorFleet(batch_size=0)
        with pytest.raises(ValueError):
            MonitorFleet(event_budget=0)

    def test_budget_is_the_one_runtime_setting(self):
        """The event budget stays writable and a tightened budget takes
        effect immediately; xi, batch_size, faulty and drop_faulty are
        fixed at construction, so one fleet never monitors its traces
        against two configurations."""
        records = profiled_trace_records(random.Random(6), "burst", 120)
        fleet = MonitorFleet(batch_size=16)
        for record in records:
            fleet.ingest("t", record)
        fleet.flush()
        assert fleet.event_budget is None and fleet.live_events > 40
        fleet.event_budget = 40  # tighten mid-stream: enforces now
        assert fleet.event_budget == 40
        assert fleet.live_events <= 40
        assert fleet.worst_ratio("t") == standalone_ratio(records)
        with pytest.raises(ValueError):
            fleet.event_budget = 0
        for attribute, value in (
            ("xi", Fraction(2)),
            ("batch_size", 4),
            ("faulty", frozenset({0})),
            ("drop_faulty", False),
        ):
            with pytest.raises(AttributeError):
                setattr(fleet, attribute, value)
        assert (fleet.xi, fleet.batch_size) == (None, 16)
        assert (fleet.faulty, fleet.drop_faulty) == (frozenset(), True)
        for name in ("_shards", "_futile_at"):
            assert not hasattr(fleet, name)


class TestSummaryCompaction:
    """Budget eviction's summary fallback on chain-shaped workloads."""

    def test_relay_chains_bounded_and_bit_identical(self):
        """The acceptance scenario: relay-chain traces -- where exact
        eviction can reclaim nothing -- stay within the budget with
        ratios bit-identical to unbudgeted standalone monitors."""
        rng = random.Random(12)
        traces = {
            f"relay-{k}": relay_chain_workload(rng, 150) for k in range(6)
        }
        budget = 160
        fleet = MonitorFleet(batch_size=16, event_budget=budget)
        streams = {tid: iter(records) for tid, records in traces.items()}
        alive = dict(streams)
        while alive:
            for tid in list(alive):
                record = next(alive[tid], None)
                if record is None:
                    del alive[tid]
                else:
                    fleet.ingest(tid, record)
        fleet.flush()
        report = fleet.report()
        assert report.summary_compactions > 0
        assert report.budget_overruns == 0
        assert report.peak_live_events <= budget
        assert report.degraded_traces == 0
        for tid, records in traces.items():
            assert fleet.worst_ratio(tid) == standalone_ratio(records)
            assert standalone_ratio(records) is not None  # nontrivial

    def test_summary_edges_reported(self):
        records = relay_chain_workload(random.Random(3), 120)
        fleet = MonitorFleet(batch_size=8, event_budget=24)
        for record in records:
            fleet.ingest("t", record)
        fleet.flush()
        report = fleet.report()
        assert report.summary_edges > 0
        assert report.summary_edges == sum(
            s.summary_edges for s in report.shards
        )
        assert report.summary_compactions == sum(
            s.summary_compactions for s in report.shards
        )

    def test_eviction_prefers_exact_removal(self):
        """Burst traces settle exactly; the summary fallback must not
        fire where the no-crossing criterion already works."""
        records = profiled_trace_records(random.Random(6), "burst", 120)
        fleet = MonitorFleet(batch_size=16, event_budget=30)
        for record in records:
            fleet.ingest("t", record)
        fleet.flush()
        report = fleet.report()
        assert report.evictions > 0
        assert report.summary_compactions == 0
        assert fleet.worst_ratio("t") == standalone_ratio(records)


class TestMemoryPolicy:
    """``event_budget`` eviction and explicit ``close()`` are the whole
    memory policy: what a trace reports depends on its records and the
    caller's calls, never on how long it sat idle or how the stream
    interleaved it with other traces."""

    def test_idle_trace_stays_open_and_exact(self):
        """A trace left idle behind a long stretch of unrelated traffic
        is neither retired nor degraded: resuming it extends the same
        monitor, and its ratio is a standalone monitor's."""
        fleet = MonitorFleet(batch_size=4)
        records = list(streaming_records(random.Random(2), 2, 30))
        other = list(streaming_records(random.Random(3), 2, 200))
        for record in records[:10]:
            fleet.ingest("t", record)
        monitor = fleet.monitor_of("t")
        for record in other:
            fleet.ingest("other", record)
        assert fleet.open_traces == 2
        assert fleet.retired_traces == 0
        for record in records[10:]:
            fleet.ingest("t", record)
        fleet.flush()
        assert fleet.monitor_of("t") is monitor
        assert not fleet.is_degraded("t")
        assert fleet.worst_ratio("t") == standalone_ratio(records)
        assert fleet.report().degraded_traces == 0

    def test_answers_do_not_depend_on_interleaving(self):
        """Unbudgeted, three interleavings of the same per-trace streams
        -- as generated, trace after trace, and a random merge -- give
        the same ratios, degraded flags and violating set."""
        stream = list(
            concurrent_workload(
                random.Random(12), n_traces=10, records_per_trace=(20, 50)
            )
        )
        per = by_trace(stream)
        sequential = [
            (trace_id, record)
            for trace_id, records in per.items()
            for record in records
        ]
        rng = random.Random(5)
        left = {trace_id: list(records) for trace_id, records in per.items()}
        merged = []
        while left:
            trace_id = rng.choice(sorted(left))
            merged.append((trace_id, left[trace_id].pop(0)))
            if not left[trace_id]:
                del left[trace_id]

        def answers(order):
            fleet = MonitorFleet(xi=Fraction(3), n_shards=4, batch_size=8)
            for trace_id, record in order:
                fleet.ingest(trace_id, record)
            fleet.flush()
            return (
                {trace_id: fleet.worst_ratio(trace_id) for trace_id in per},
                {trace_id: fleet.is_degraded(trace_id) for trace_id in per},
                set(fleet.violating_traces()),
                fleet.retired_traces,
            )

        reference = answers(stream)
        assert answers(sequential) == reference
        assert answers(merged) == reference
        ratios, degraded, violating, retired = reference
        assert ratios == {
            trace_id: standalone_ratio(records)
            for trace_id, records in per.items()
        }
        assert not any(degraded.values())
        assert retired == 0
        assert violating and violating != set(per)

    def test_final_flush_fires_violations_in_opened_order(self):
        """A shard walks its open traces in the order they were opened:
        violations a flush finds fire in that order, however recently
        each trace was touched."""
        first = profiled_trace_records(random.Random(8), "storm", 60)
        second = profiled_trace_records(random.Random(9), "storm", 60)
        hits = []
        # A watermark above both traces: nothing is absorbed before the
        # explicit flush.
        fleet = MonitorFleet(
            xi=Fraction(2),
            n_shards=1,
            batch_size=1000,
            on_violation=lambda trace_id, _witness: hits.append(trace_id),
        )
        for record in first[:5]:
            fleet.ingest("first", record)
        for record in second:
            fleet.ingest("second", record)
        for record in first[5:]:
            fleet.ingest("first", record)
        assert hits == []
        fleet.flush()
        assert hits == ["first", "second"]
        assert fleet.violating_traces() == ("first", "second")
        assert fleet.worst_ratio("first") == standalone_ratio(first)
        assert fleet.worst_ratio("second") == standalone_ratio(second)

    def test_eviction_takes_the_least_recently_touched_trace_first(self):
        """Opened order is not eviction order: the trace opened first
        but touched last keeps its digraph, and the budget is met by
        evicting the trace that has sat idle longest."""
        recent = profiled_trace_records(random.Random(1), "burst", 40)
        idle = profiled_trace_records(random.Random(2), "burst", 40)
        fleet = MonitorFleet(n_shards=1, batch_size=1)
        for record in recent[:20]:
            fleet.ingest("recent", record)
        for record in idle:
            fleet.ingest("idle", record)
        for record in recent[20:]:
            fleet.ingest("recent", record)
        before = {
            trace_id: fleet.monitor_of(trace_id).n_events
            for trace_id in ("recent", "idle")
        }
        fleet.event_budget = fleet.live_events - 1
        assert fleet.live_events <= fleet.event_budget
        assert fleet.monitor_of("recent").n_events == before["recent"]
        assert fleet.monitor_of("idle").n_events < before["idle"]
        assert fleet.worst_ratio("recent") == standalone_ratio(recent)
        assert fleet.worst_ratio("idle") == standalone_ratio(idle)

    def test_no_idle_age_or_fleet_compaction_options(self):
        """Neither idle-age retirement nor a fleet-level compaction
        trigger is accepted by the serial layers, and the report
        carries no counters for them."""
        for option in ({"auto_retire_after": 10}, {"compact_threshold": 2.0}):
            with pytest.raises(TypeError):
                MonitorFleet(**option)
            with pytest.raises(TypeError):
                ShardGroup(range(2), **option)
        with pytest.raises(TypeError):
            MonitorSpec(compact_threshold=2.0)
        assert not hasattr(MonitorFleet(), "auto_retire_after")
        fields = set(FleetReport.__dataclass_fields__) | set(
            ShardStats.__dataclass_fields__
        )
        assert not fields & {"auto_retired", "auto_compactions"}


class TestEvictMarkerReset:
    def test_absorbing_records_clears_futility_memos(self):
        """A futile eviction pass memoizes the live-event count; any
        later absorption must clear the memo -- comparing counts alone
        can collide after absorb-then-evict elsewhere (the reopen/skip
        bug this PR's sweep fixed)."""
        records = profiled_trace_records(random.Random(2), "storm", 40)
        fleet = MonitorFleet(batch_size=10, event_budget=2000)
        for record in records[:20]:
            fleet.ingest("t", record)
        fleet.flush()
        group = fleet._group
        state = group.shards[fleet.shard_of("t")].traces["t"]
        state.evict_marker = state.monitor.n_events  # simulate futility
        group._futile_at = fleet.live_events
        for record in records[20:]:
            fleet.ingest("t", record)
        fleet.flush()
        assert state.evict_marker is None
        assert group._futile_at is None


class TestMixedShapeBudget:
    def test_partial_exact_removal_still_triggers_summary_fallback(self):
        """A trace mixing settleable wake-up noise with a chain-shaped
        core always yields a small nonzero exact eviction; the summary
        fallback must fire whenever that leaves the fleet over budget,
        or the chain core grows unboundedly (review finding on this
        PR: peak 402 vs budget 80 before the fix)."""
        from repro.core.events import Event
        from repro.sim.trace import ReceiveRecord

        chain = relay_chain_workload(random.Random(0), 300)
        next_index = {3: 0, 4: 0}
        mixed = []
        now = 0.0
        for i, record in enumerate(chain):
            mixed.append(record)
            if i % 2 == 0:
                process = 3 + (i // 2) % 2
                now = record.time
                mixed.append(
                    ReceiveRecord(
                        event=Event(process, next_index[process]),
                        time=now, sender=None, send_event=None,
                        send_time=None, payload=None, processed=True,
                        sends=(),
                    )
                )
                next_index[process] += 1
        budget = 80
        fleet = MonitorFleet(batch_size=16, event_budget=budget)
        for record in mixed:
            fleet.ingest("mixed", record)
        fleet.flush()
        report = fleet.report()
        assert report.summary_compactions > 0
        assert report.budget_overruns == 0
        assert report.peak_live_events <= budget
        assert not fleet.is_degraded("mixed")
        assert fleet.worst_ratio("mixed") == standalone_ratio(mixed)


class TestSnapshotRestore:
    def test_mid_stream_snapshot_restores_bit_identically(self):
        """Snapshot a live fleet mid-stream (pending buffers included),
        restore, feed both the rest of the stream: every per-trace
        ratio, degraded flag, violating set and the full report must
        match."""
        stream = list(
            concurrent_workload(
                random.Random(44), n_traces=14, records_per_trace=(20, 50)
            )
        )
        cut = (len(stream) * 2) // 3
        original = MonitorFleet(
            xi=Fraction(3, 2), n_shards=6, batch_size=8, event_budget=600
        )
        for trace_id, record in stream[:cut]:
            original.ingest(trace_id, record)
        restored = MonitorFleet.restore(original.snapshot())
        assert restored.xi == original.xi
        assert restored.n_shards == original.n_shards
        assert restored.event_budget == original.event_budget
        for trace_id, record in stream[cut:]:
            original.ingest(trace_id, record)
            restored.ingest(trace_id, record)
        for trace_id in sorted({tid for tid, _ in stream}):
            assert restored.worst_ratio(trace_id) == original.worst_ratio(
                trace_id
            ), trace_id
            assert restored.is_degraded(trace_id) == original.is_degraded(
                trace_id
            )
        assert restored.violating_traces() == original.violating_traces()
        assert restored.report() == original.report()

    def test_snapshot_file_round_trip(self, tmp_path):
        stream = list(
            concurrent_workload(
                random.Random(9), n_traces=8, records_per_trace=(15, 30)
            )
        )
        fleet = MonitorFleet(xi=Fraction(2), n_shards=4, batch_size=8)
        fleet.ingest_many(stream)
        path = tmp_path / "fleet.snap"
        fleet.snapshot(path)
        restored = MonitorFleet.restore(path)
        for trace_id in sorted({tid for tid, _ in stream}):
            assert restored.worst_ratio(trace_id) == fleet.worst_ratio(
                trace_id
            )
        assert restored.report() == fleet.report()

    def test_snapshot_of_another_version_is_rejected(self):
        """A store written under another snapshot version -- whose
        pickled checkers may have another shape -- fails loudly, both
        at the fleet frame and at the group frame inside it."""
        stream = list(
            concurrent_workload(
                random.Random(3), n_traces=3, records_per_trace=(5, 10)
            )
        )
        fleet = MonitorFleet(xi=Fraction(2), n_shards=2)
        fleet.ingest_many(stream)
        magic, version, config, group_frame = fleet.snapshot()
        with pytest.raises(ValueError, match="version"):
            MonitorFleet.restore((magic, version - 1, config, group_frame))
        old_group = (group_frame[0], group_frame[1] - 1, *group_frame[2:])
        with pytest.raises(ValueError, match="version"):
            MonitorFleet.restore((magic, version, config, old_group))

    def test_restore_reattaches_callbacks(self):
        stream = list(
            concurrent_workload(
                random.Random(8),
                n_traces=6,
                records_per_trace=(40, 60),
                profile_weights={"storm": 1.0},
            )
        )
        cut = len(stream) // 4
        fleet = MonitorFleet(xi=Fraction(2), n_shards=4, batch_size=8)
        for trace_id, record in stream[:cut]:
            fleet.ingest(trace_id, record)
        already = set(fleet.violating_traces())
        hits = []
        restored = MonitorFleet.restore(
            fleet.snapshot(), on_violation=lambda tid, w: hits.append(tid)
        )
        for trace_id, record in stream[cut:]:
            restored.ingest(trace_id, record)
        # The once-only guard survives the round trip: pre-cut violators
        # never re-fire, and every fresh violator fires exactly once.
        assert set(hits) == set(restored.violating_traces()) - already
        assert hits, "some storm traces must first violate after the cut"

    def test_restore_rejects_foreign_frames(self, tmp_path):
        with pytest.raises(ValueError):
            MonitorFleet.restore(("not-a-snapshot", 1, (), ()))
        with pytest.raises(ValueError):
            MonitorFleet.restore((1, 2))
        empty = tmp_path / "empty.bin"
        empty.write_bytes(b"")
        with pytest.raises(ValueError):
            MonitorFleet.restore(empty)


class TestFleetClose:
    def test_context_manager_closes_and_blocks_ingest(self):
        records = profiled_trace_records(random.Random(3), "burst", 20)
        with MonitorFleet(xi=Fraction(2), n_shards=4, batch_size=8) as fleet:
            for record in records:
                fleet.ingest("t", record)
        fleet.close()  # idempotent
        with pytest.raises(RuntimeError, match="closed"):
            fleet.ingest("t", records[0])
        with pytest.raises(RuntimeError, match="closed"):
            fleet.ingest_many([("t", records[0])])
        # Queries keep answering from the final (flushed) state.
        assert fleet.worst_ratio("t") == standalone_ratio(records)
        assert fleet.report().records == len(records)
        # Per-trace close still retires as usual.
        assert fleet.close("t").worst_ratio == standalone_ratio(records)

    def test_monitor_specs_on_the_serial_fleet(self):
        from repro.runtime import MonitorSpec

        records = profiled_trace_records(random.Random(5), "storm", 80)
        fleet = MonitorFleet(
            xi=Fraction(10),  # loose default: no violation
            n_shards=4,
            batch_size=8,
            monitor_specs={"hot": MonitorSpec(xi=Fraction(3, 2))},
        )
        for record in records:
            fleet.ingest("hot", record)
            fleet.ingest("cold", record)
        assert fleet.violating_traces() == ("hot",)
        with pytest.raises(TypeError):
            MonitorFleet(monitor_specs=42)
