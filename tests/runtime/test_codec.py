"""Round-trip tests for the wire codec.

The contract: every value the parallel runtime puts on the wire --
records (with and without sends metadata), exact rationals, trace
summaries, shard statistics, violation notices with their witness
cycles -- decodes back to an equal value, and the encoded form contains
only plain primitives (transportable by any backend, no library classes
on the wire).
"""

import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.online import OnlineAbcMonitor
from repro.runtime.codec import (
    decode_fraction,
    decode_monitor,
    decode_notice,
    decode_record,
    decode_spec,
    decode_specs,
    decode_stats,
    decode_summary,
    decode_witness,
    encode_fraction,
    encode_monitor,
    encode_notice,
    encode_record,
    encode_spec,
    encode_specs,
    encode_stats,
    encode_summary,
    encode_witness,
)
from repro.runtime.shard import MonitorSpec, ShardGroup, ShardStats, TraceSummary
from repro.scenarios.generators import (
    profiled_trace_records,
    strip_sends_metadata,
)
from repro.sim.trace import RECORD_ROW

PROFILES = ("storm", "burst", "idler", "relay")


def assert_plain(value):
    """Encoded values must be primitives/tuples/lists all the way down."""
    if isinstance(value, (tuple, list)):
        for item in value:
            assert_plain(item)
    else:
        assert value is None or isinstance(value, (int, float, str, bool))


def wire_batch(records):
    """A shard batch of ``(tick, trace_id, row)`` wire rows."""
    return [
        (i + 1, f"trace-{i % 3}", encode_record(r))
        for i, r in enumerate(records)
    ]


# ----------------------------------------------------------------------
# records over randomized workload streams
# ----------------------------------------------------------------------


@pytest.mark.parametrize("profile", PROFILES)
@pytest.mark.parametrize("seed", range(4))
def test_profiled_records_round_trip(profile, seed):
    records = profiled_trace_records(random.Random(seed), profile, 60)
    for record in records:
        wire = encode_record(record)
        assert_plain(wire)
        assert decode_record(wire) == record


@pytest.mark.parametrize("profile", PROFILES)
def test_metadata_free_records_round_trip(profile):
    """The degraded regime: stripped sends survive the trip as
    genuinely empty metadata (not as a lossy placeholder)."""
    records = strip_sends_metadata(
        profiled_trace_records(random.Random(7), profile, 40)
    )
    for record in records:
        decoded = decode_record(encode_record(record))
        assert decoded == record
        assert decoded.sends == ()


def test_batch_round_trip_preserves_ticks_and_ids():
    records = profiled_trace_records(random.Random(3), "burst", 30)
    batch = [(i + 1, f"trace-{i % 3}", r) for i, r in enumerate(records)]
    wire = wire_batch(records)
    assert_plain(wire)
    assert [
        (tick, tid, decode_record(row)) for tick, tid, row in wire
    ] == batch


# ----------------------------------------------------------------------
# fractions (hypothesis: exactness is the whole point)
# ----------------------------------------------------------------------


@given(
    num=st.integers(min_value=0, max_value=10**12),
    den=st.integers(min_value=1, max_value=10**12),
)
@settings(max_examples=200, deadline=None)
def test_fraction_round_trip_is_exact(num, den):
    value = Fraction(num, den)
    wire = encode_fraction(value)
    assert_plain(wire)
    assert decode_fraction(wire) == value


def test_none_fraction_passes():
    assert encode_fraction(None) is None
    assert decode_fraction(None) is None


# ----------------------------------------------------------------------
# witnesses: real violating cycles from monitored streams
# ----------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(5))
def test_witness_round_trip_from_real_violations(seed):
    records = profiled_trace_records(random.Random(seed), "storm", 80)
    monitor = OnlineAbcMonitor(xi=Fraction(2))
    for record in records:
        monitor.observe(record)
    witness = monitor.violation
    assert witness is not None, "storm workloads must violate Xi=2"
    wire = encode_witness(witness)
    assert_plain(wire)
    decoded = decode_witness(wire)
    assert decoded == witness
    assert decoded.ratio == witness.ratio
    assert decoded.cycle.steps == witness.cycle.steps


def test_witness_none_passes():
    assert encode_witness(None) is None
    assert decode_witness(None) is None


@pytest.mark.parametrize("seed", range(3))
def test_notice_round_trip(seed):
    records = profiled_trace_records(random.Random(seed), "storm", 80)
    monitor = OnlineAbcMonitor(xi=Fraction(2))
    for record in records:
        monitor.observe(record)
    wire = encode_notice(17, f"trace-{seed}", monitor.violation)
    assert_plain(wire)
    tick, trace_id, witness = decode_notice(wire)
    assert (tick, trace_id) == (17, f"trace-{seed}")
    assert witness == monitor.violation


# ----------------------------------------------------------------------
# summaries and statistics
# ----------------------------------------------------------------------


@given(
    trace_id=st.one_of(st.text(max_size=20), st.integers()),
    ratio=st.one_of(
        st.none(),
        st.builds(
            Fraction,
            st.integers(min_value=1, max_value=10**6),
            st.integers(min_value=1, max_value=10**6),
        ),
    ),
    n_records=st.integers(min_value=0, max_value=10**9),
    oracle_calls=st.integers(min_value=0, max_value=10**9),
    degraded=st.booleans(),
)
@settings(max_examples=100, deadline=None)
def test_summary_round_trip(trace_id, ratio, n_records, oracle_calls, degraded):
    summary = TraceSummary(
        trace_id=trace_id,
        worst_ratio=ratio,
        n_records=n_records,
        oracle_calls=oracle_calls,
        violation=None,
        degraded=degraded,
    )
    wire = encode_summary(summary)
    assert_plain(wire)
    assert decode_summary(wire) == summary


def test_summary_with_witness_round_trips():
    records = profiled_trace_records(random.Random(2), "storm", 80)
    monitor = OnlineAbcMonitor(xi=Fraction(2))
    for record in records:
        monitor.observe(record)
    summary = TraceSummary(
        trace_id="hot",
        worst_ratio=monitor.worst_ratio,
        n_records=len(records),
        oracle_calls=monitor.oracle_calls,
        violation=monitor.violation,
        degraded=False,
    )
    assert decode_summary(encode_summary(summary)) == summary


@given(values=st.lists(st.integers(min_value=0, max_value=10**9), min_size=11, max_size=11))
@settings(max_examples=100, deadline=None)
def test_stats_round_trip(values):
    stats = ShardStats(*values)
    wire = encode_stats(stats)
    assert_plain(wire)
    assert decode_stats(wire) == stats


# ----------------------------------------------------------------------
# monitor specs
# ----------------------------------------------------------------------


@given(
    xi=st.one_of(
        st.none(),
        st.builds(
            Fraction,
            st.integers(min_value=1, max_value=100),
            st.integers(min_value=1, max_value=100),
        ),
    ),
    faulty=st.one_of(
        st.none(), st.frozensets(st.integers(min_value=0, max_value=7))
    ),
    drop_faulty=st.one_of(st.none(), st.booleans()),
)
@settings(max_examples=100, deadline=None)
def test_spec_round_trip(xi, faulty, drop_faulty):
    spec = MonitorSpec(
        xi=xi,
        faulty=faulty,
        drop_faulty=drop_faulty,
    )
    wire = encode_spec(spec)
    assert_plain(wire)
    assert decode_spec(wire) == spec


def test_specs_registry_round_trip():
    assert encode_specs(None) is None
    assert decode_specs(None) is None
    one = MonitorSpec(xi=Fraction(2))
    assert decode_specs(encode_specs(one)) == one
    mapping = {
        "hot": MonitorSpec(xi=Fraction(3, 2)),
        "cold": MonitorSpec(faulty=frozenset({1})),
    }
    wire = encode_specs(mapping)
    assert_plain(wire)
    assert decode_specs(wire) == mapping


# ----------------------------------------------------------------------
# snapshot frames: the durability plane's payload
# ----------------------------------------------------------------------


def drive(monitor, records):
    for record in records:
        monitor.observe(record)
    return monitor


class TestMonitorSnapshot:
    @pytest.mark.parametrize("profile", PROFILES)
    @pytest.mark.parametrize("seed", range(3))
    def test_live_monitor_round_trips_mid_stream(self, profile, seed):
        """Cut a live monitor anywhere; the decoded copy must finish the
        stream with exactly the same worst ratio and violation state."""
        records = profiled_trace_records(random.Random(seed), profile, 80)
        cut = len(records) // 2
        original = drive(OnlineAbcMonitor(xi=Fraction(2)), records[:cut])
        clone = decode_monitor(encode_monitor(original))
        assert clone.worst_ratio == original.worst_ratio
        assert clone.n_events == original.n_events
        for both in (original, clone):
            drive(both, records[cut:])
        assert clone.worst_ratio == original.worst_ratio
        assert clone.oracle_calls == original.oracle_calls
        assert (clone.violation is None) == (original.violation is None)

    def test_deep_summary_edge_chains_survive(self):
        """Adaptive compaction rewrites the digraph into SummaryEdge
        chains; repeated snapshot round trips through the deepest such
        state must stay bit-identical on the rest of the stream."""
        records = profiled_trace_records(random.Random(11), "relay", 160)
        reference = drive(
            OnlineAbcMonitor(xi=Fraction(2), compact_threshold=2.0), records
        )
        hopper = OnlineAbcMonitor(xi=Fraction(2), compact_threshold=2.0)
        for start in range(0, len(records), 20):
            drive(hopper, records[start : start + 20])
            hopper = decode_monitor(encode_monitor(hopper))  # hop every 20
        assert hopper.worst_ratio == reference.worst_ratio
        assert hopper.n_events == reference.n_events
        assert hopper.oracle_calls == reference.oracle_calls

    def test_violation_callbacks_are_stripped_not_pickled(self):
        hits = []
        monitor = OnlineAbcMonitor(
            xi=Fraction(2), on_violation=lambda w: hits.append(w)
        )
        records = profiled_trace_records(random.Random(0), "storm", 80)
        drive(monitor, records)
        assert hits, "storm workloads must violate Xi=2"
        clone = decode_monitor(encode_monitor(monitor))
        assert clone.on_violation is None
        assert monitor.on_violation is not None  # the live one is untouched


def assert_plain_or_bytes(value):
    """Snapshot frames are plain primitives plus pickled monitor blobs
    (``bytes``) -- still transportable by any backend."""
    if isinstance(value, (tuple, list)):
        for item in value:
            assert_plain_or_bytes(item)
    else:
        assert value is None or isinstance(
            value, (int, float, str, bool, bytes)
        )


class TestGroupSnapshot:
    @pytest.mark.parametrize(
        "budget,metadata_free", [(None, False), (260, False), (140, True)]
    )
    def test_group_snapshot_round_trip_mid_stream(self, budget, metadata_free):
        """Snapshot a live group mid-stream -- pending buffers, eviction
        state, degraded flags and all -- and the restored group must be
        indistinguishable on the rest of the stream.  Covers the exact
        regime, the budget-eviction regime, and the metadata-free
        degraded regime."""
        from repro.runtime.shard import shard_index_of

        rng = random.Random(17)
        streams = {
            f"t{i}": profiled_trace_records(
                rng, ("storm", "burst", "relay")[i % 3], 50
            )
            for i in range(6)
        }
        if metadata_free:
            streams = {
                tid: strip_sends_metadata(records)
                for tid, records in streams.items()
            }
        merged = [
            (tid, record)
            for tid, records in streams.items()
            for record in records
        ]
        rng.shuffle(merged)
        # Re-sort per trace: shuffling must not break per-trace order.
        order = {tid: iter(records) for tid, records in streams.items()}
        merged = [(tid, next(order[tid])) for tid, _ in merged]

        def make_group():
            return ShardGroup(
                range(4),
                xi=Fraction(2),
                batch_size=8,
                event_budget=budget,
            )

        def feed(group, part):
            for tid, record in part:
                group.ingest(shard_index_of(tid, 4), tid, record)

        cut = len(merged) // 2
        original = make_group()
        feed(original, merged[:cut])
        frame = original.snapshot()
        assert_plain_or_bytes(frame)
        restored = make_group()
        restored.load_snapshot(frame)
        feed(original, merged[cut:])
        feed(restored, merged[cut:])
        for tid in streams:
            shard = shard_index_of(tid, 4)
            assert restored.worst_ratio(shard, tid) == original.worst_ratio(
                shard, tid
            ), tid
            assert restored.is_degraded(shard, tid) == original.is_degraded(
                shard, tid
            )
        assert restored.violating_ids() == original.violating_ids()
        assert restored.live_events == original.live_events
        original_stats = {s.shard: s for s in original.shard_stats()}
        for stats in restored.shard_stats():
            assert stats == original_stats[stats.shard]


# ----------------------------------------------------------------------
# record rows: the one batch format, wire to digraph
# ----------------------------------------------------------------------


class TestRecordRows:
    @pytest.mark.parametrize("profile", PROFILES + ("firehose",))
    @pytest.mark.parametrize("seed", range(3))
    def test_row_layout_round_trips_every_profile(self, profile, seed):
        """Every field of every record sits at its ``RECORD_ROW``
        position, sends metadata included, and the row decodes back to
        an equal record."""
        records = profiled_trace_records(random.Random(seed), profile, 60)
        for record in records:
            row = encode_record(record)
            assert_plain(row)
            fields = dict(zip(RECORD_ROW, row, strict=True))
            assert (fields["process"], fields["index"]) == (
                record.event.process,
                record.event.index,
            )
            send = record.send_event
            assert (fields["send_process"], fields["send_index"]) == (
                (None, None) if send is None else (send.process, send.index)
            )
            assert fields["sender"] == record.sender
            assert fields["time"] == record.time
            assert fields["send_time"] == record.send_time
            assert fields["payload"] == record.payload
            assert fields["processed"] == record.processed
            assert fields["sends"] == tuple(
                (s.dest, s.payload, s.delay, s.deliver_time)
                for s in record.sends
            )
            decoded = decode_record(row)
            assert decoded == record
            assert decoded.sends == record.sends

    @pytest.mark.parametrize("profile", PROFILES)
    def test_metadata_free_rows_carry_empty_sends(self, profile):
        """Degraded streams (sends stripped at the producer) travel as
        genuinely empty metadata."""
        records = strip_sends_metadata(
            profiled_trace_records(random.Random(7), profile, 40)
        )
        wire = wire_batch(records)
        assert all(row[RECORD_ROW.index("sends")] == () for _, _, row in wire)
        assert [decode_record(row) for _, _, row in wire] == records

    @given(
        payload_num=st.integers(min_value=-(10**40), max_value=10**40),
        payload_den=st.integers(min_value=1, max_value=10**40),
        n_sends=st.integers(min_value=0, max_value=3),
        processed=st.booleans(),
        wakeup=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_exact_payloads_survive_the_row(
        self, payload_num, payload_den, n_sends, processed, wakeup
    ):
        """Big-int Fraction payloads (the exact-arithmetic plane's
        currency) ride in the row untouched, across a pickle boundary
        too."""
        from repro.core.events import Event
        from repro.sim.trace import ReceiveRecord, SendRecord

        payload = Fraction(payload_num, payload_den)
        record = ReceiveRecord(
            event=Event(process=2, index=5),
            time=1.5,
            sender=None if wakeup else 1,
            send_event=None if wakeup else Event(process=1, index=4),
            send_time=None if wakeup else 1.25,
            payload=payload,
            processed=processed,
            sends=tuple(
                SendRecord(
                    dest=d, payload=payload + d, delay=0.1, deliver_time=2.0
                )
                for d in range(n_sends)
            ),
        )
        row = pickle.loads(pickle.dumps(encode_record(record)))
        assert row[RECORD_ROW.index("payload")] == payload
        decoded = decode_record(row)
        assert decoded == record
        assert decoded.payload == payload
        assert [s.payload for s in decoded.sends] == [
            s.payload for s in record.sends
        ]

    def test_empty_batch_is_a_no_op(self):
        group = ShardGroup(range(2), batch_size=4)
        group.ingest_batch(0, [])
        assert group.tick == 0 and group.open_traces == 0
        assert all(s.records == 0 for s in group.shard_stats())

    def test_truncated_batch_row_raises(self):
        """A truncated frame row fails loudly in ``ingest_batch``, not
        somewhere downstream."""
        records = profiled_trace_records(random.Random(0), "burst", 6)
        wire = wire_batch(records)
        wire[3] = wire[3][:2]  # drop the record cell
        with pytest.raises(ValueError, match="malformed record batch"):
            ShardGroup(range(1)).ingest_batch(0, wire)

    def test_wrong_record_arity_raises(self):
        """A record with the wrong field count (old producer, corrupted
        frame) raises instead of shifting every later field."""
        records = profiled_trace_records(random.Random(0), "burst", 6)
        wire = wire_batch(records)
        tick, tid, rec = wire[2]
        wire[2] = (tick, tid, rec[:9])  # nine fields, not ten
        with pytest.raises(ValueError, match="malformed record batch"):
            ShardGroup(range(1)).ingest_batch(0, wire)

    def test_row_layout_is_defined_once(self):
        """The codec's record functions are the trace module's, so the
        wire, the journal and the shard buffers share one layout."""
        from repro.runtime import codec
        from repro.sim import trace

        assert codec.encode_record is trace.encode_record
        assert codec.decode_record is trace.decode_record
        assert len(RECORD_ROW) == 10
