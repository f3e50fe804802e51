"""The shard engine's row ingest against per-trace references.

``ShardGroup.ingest_batch`` takes the dispatcher's wire batches --
``(tick, trace_id, row)`` triples -- unchanged, buffers rows per trace
and hands them to each monitor's ``observe_batch``.  These tests check
what a group reports against references that share none of that path:
a standalone monitor per trace fed ``ReceiveRecord`` objects one at a
time, and ``worst_relevant_ratio(build_execution_graph(...))`` over the
whole trace.  Ratios, degraded flags and the violating set must agree
across wire batch sizes, per-record and batch ingest interleaved on one
group, metadata-free streams under a budget (degraded traces report
sound lower bounds), and a trace reopened after retirement.  A
malformed batch must be rejected before any of it is buffered, and a
shard keeps its open traces in the order they were opened, through a
snapshot and restore too.
"""

import random
from fractions import Fraction

import pytest

from repro.analysis.online import OnlineAbcMonitor
from repro.core.synchrony import worst_relevant_ratio
from repro.runtime.shard import ShardGroup, shard_index_of
from repro.scenarios.generators import (
    concurrent_workload,
    strip_sends_metadata,
)
from repro.sim.trace import Trace, build_execution_graph, encode_record

XI = Fraction(3)
N_SHARDS = 4


def record_stream(seed=1, n_traces=24, metadata_free=False, **kw):
    kw.setdefault("records_per_trace", (20, 40))
    stream = list(
        concurrent_workload(random.Random(seed), n_traces=n_traces, **kw)
    )
    if metadata_free:
        by_trace = {}
        for tid, record in stream:
            by_trace.setdefault(tid, []).append(record)
        stripped = {
            tid: iter(strip_sends_metadata(records))
            for tid, records in by_trace.items()
        }
        stream = [(tid, next(stripped[tid])) for tid, _ in stream]
    return stream


def wire_rows(stream):
    return [
        (tick, tid, encode_record(record))
        for tick, (tid, record) in enumerate(stream, 1)
    ]


def shard_batches(rows, wire_batch=32):
    """Cut an interleaved stream into per-shard wire batches, exactly
    as the parallel dispatcher does."""
    buffers: dict[int, list[tuple]] = {}
    out = []
    for row in rows:
        shard = shard_index_of(row[1], N_SHARDS)
        pending = buffers.setdefault(shard, [])
        pending.append(row)
        if len(pending) >= wire_batch:
            out.append((shard, pending))
            buffers[shard] = []
    for shard, pending in sorted(buffers.items()):
        if pending:
            out.append((shard, pending))
    return out


def make_group(**kw):
    kw.setdefault("xi", XI)
    kw.setdefault("batch_size", 8)
    return ShardGroup(range(N_SHARDS), **kw)


def references(stream):
    """Per trace: the standalone monitor's ratio, fed one record at a
    time, after checking it against the batch oracle."""
    by_trace = {}
    for tid, record in stream:
        by_trace.setdefault(tid, []).append(record)
    out = {}
    for tid, records in by_trace.items():
        monitor = OnlineAbcMonitor()
        for record in records:
            monitor.observe(record)
        n = max(r.event.process for r in records) + 1
        graph = build_execution_graph(Trace(n, frozenset(), records))
        assert monitor.worst_ratio == worst_relevant_ratio(graph), tid
        out[tid] = monitor.worst_ratio
    return out


def reported(group, ids):
    group.flush_all()
    ratios = {
        tid: group.worst_ratio(shard_index_of(tid, N_SHARDS), tid)
        for tid in ids
    }
    degraded = {
        tid: group.is_degraded(shard_index_of(tid, N_SHARDS), tid)
        for tid in ids
    }
    return ratios, degraded


def violating(ratios):
    return {tid for tid, r in ratios.items() if r is not None and r >= XI}


class TestShardRowIngest:
    @pytest.mark.parametrize("wire_batch", (8, 32, 128))
    def test_row_ingest_matches_references(self, wire_batch):
        stream = record_stream(seed=5)
        rows = wire_rows(stream)
        group = make_group()
        for shard, chunk in shard_batches(rows, wire_batch):
            group.ingest_batch(shard, chunk)
        expected = references(stream)
        ratios, degraded = reported(group, expected)
        assert ratios == expected
        assert not any(degraded.values())
        assert set(group.violating_ids()) == violating(expected)
        assert group.violating_ids(), "workload must violate Xi=3"
        assert sum(s.records for s in group.shard_stats()) == len(rows)

    def test_metadata_free_degraded_traces_are_lower_bounds(self):
        """Stripped sends metadata under a budget degrades traces
        (forgotten edges): a degraded ratio is a sound lower bound, and
        every other trace is exact."""
        stream = record_stream(seed=9, metadata_free=True)
        group = make_group(event_budget=300)
        for shard, chunk in shard_batches(wire_rows(stream)):
            group.ingest_batch(shard, chunk)
        expected = references(stream)
        ratios, degraded = reported(group, expected)
        assert any(degraded.values()), "workload must degrade a trace"
        for tid, exact in expected.items():
            if degraded[tid]:
                assert ratios[tid] is None or ratios[tid] <= exact, tid
            else:
                assert ratios[tid] == exact, tid
        exact_ids = {tid for tid in expected if not degraded[tid]}
        assert set(group.violating_ids()) & exact_ids == (
            violating(expected) & exact_ids
        )

    def test_per_record_and_batch_ingest_interleave(self):
        """``ingest`` (one record, encoded on the way in) and
        ``ingest_batch`` (wire rows) alternating on one group."""
        stream = record_stream(seed=3)
        rows = wire_rows(stream)
        group = make_group()
        for k, (shard, chunk) in enumerate(shard_batches(rows, 16)):
            if k % 2:
                group.ingest_batch(shard, chunk)
            else:
                for tick, tid, row in chunk:
                    record = stream[tick - 1][1]
                    assert encode_record(record) == row
                    group.ingest(shard, tid, record, tick)
        expected = references(stream)
        ratios, degraded = reported(group, expected)
        assert ratios == expected
        assert not any(degraded.values())
        assert set(group.violating_ids()) == violating(expected)

    def test_reopened_trace_fills_gaps_from_rows(self):
        """A trace closed mid-stream and reopened by later rows is
        permanently degraded: its ratio lies between the closed part's
        and the whole trace's, and every other trace stays exact."""
        stream = record_stream(seed=7, n_traces=6)
        rows = wire_rows(stream)
        cut = len(rows) // 2
        victim = rows[0][1]
        shard = shard_index_of(victim, N_SHARDS)
        group = make_group()
        for s, chunk in shard_batches(rows[:cut], 16):
            group.ingest_batch(s, chunk)
        closed = group.close(shard, victim).worst_ratio
        later = [row for row in rows[cut:] if row[1] == victim]
        assert later and later[0][2][1] > 0, "victim must reopen mid-trace"
        for s, chunk in shard_batches(rows[cut:], 16):
            group.ingest_batch(s, chunk)
        expected = references(stream)
        assert closed == references(
            [(tid, r) for tid, r in stream[:cut] if tid == victim]
        )[victim]
        ratios, degraded = reported(group, expected)
        assert degraded[victim]
        assert closed is None or ratios[victim] >= closed
        assert ratios[victim] is None or ratios[victim] <= expected[victim]
        for tid, exact in expected.items():
            if tid != victim:
                assert not degraded[tid]
                assert ratios[tid] == exact, tid

    @pytest.mark.parametrize(
        "malform",
        [
            lambda row: row[:2],  # the record cell is missing
            lambda row: (row[0], row[1], row[2][:9]),  # nine fields
            lambda row: (row[0], row[1], None),  # no record at all
        ],
        ids=["short-triple", "nine-field-record", "no-record"],
    )
    def test_malformed_last_row_rejects_the_whole_batch(self, malform):
        """The outside-input check: a batch whose *last* row is
        malformed raises before any row is buffered -- shard record
        counts, the group clock, the open traces and every pending
        buffer stay as they were."""
        rows = wire_rows(record_stream(seed=1, n_traces=8))
        group = make_group(batch_size=1000)
        batches = shard_batches(rows, 32)
        for shard, chunk in batches[:-1]:
            group.ingest_batch(shard, chunk)
        shard, chunk = batches[-1]
        bad = chunk[:-1] + [malform(chunk[-1])]

        def state():
            return (
                {s.index: s.records for s in group.shards.values()},
                group.tick,
                {
                    s.index: [
                        (tid, list(st.pending)) for tid, st in s.traces.items()
                    ]
                    for s in group.shards.values()
                },
            )

        before = state()
        assert any(
            pending for traces in before[2].values() for _, pending in traces
        )
        with pytest.raises(ValueError, match="malformed record batch"):
            group.ingest_batch(shard, bad)
        assert state() == before


class TestTraceOrder:
    def test_open_traces_keep_opened_order_through_snapshots(self):
        """Each shard lists its open traces in the order they were
        opened -- not the order they were last touched -- and a shard
        image restores that order, so a restored group's flushes walk
        its traces as the original's do."""
        stream = record_stream(seed=4, n_traces=12)
        group = make_group()
        for shard, chunk in shard_batches(wire_rows(stream)):
            group.ingest_batch(shard, chunk)

        def per_shard(ids):
            return [
                tid
                for shard in range(N_SHARDS)
                for tid in ids
                if shard_index_of(tid, N_SHARDS) == shard
            ]

        opened = per_shard(list(dict.fromkeys(tid for tid, _ in stream)))
        last_touched = per_shard(
            list(dict.fromkeys(tid for tid, _ in reversed(stream)))[::-1]
        )
        assert opened != last_touched, "the stream must tell them apart"
        restored = make_group()
        restored.load_snapshot(group.snapshot())
        assert [tid for tid, _ in group.all_ratios()] == opened
        assert [tid for tid, _ in restored.all_ratios()] == opened
        assert restored.all_ratios() == group.all_ratios()
