"""Tests for the durability plane: WAL framing, checkpoints, recovery.

Three layers, bottom up: the frame format (torn tails must truncate,
never corrupt), the store's journal of ``(shard, rows)`` batch frames
and its checkpoint commit semantics (the metadata replace is the
commit point; journals reset only after it, and a journal rewrite is
atomic), and the fleet-level recovery protocol -- a SIGKILLed worker
respawns from its snapshot + journal with bit-identical per-trace
results, a whole fleet restarts from disk with the producer resuming
at ``fleet.ingested_records``, and a poison record exhausts the
recovery budget instead of looping forever.  Restore derives the fixed
round-robin placement from the configuration and, before starting any
worker, refuses a store whose snapshots hold other shards or were
written under another journal format or snapshot version.
"""

import multiprocessing
import os
import random
import signal
import time
from fractions import Fraction

import pytest

from repro.analysis.fleet import MonitorFleet
from repro.runtime import Durability, ParallelFleet, WorkerCrashed
from repro.runtime.codec import SNAPSHOT_VERSION
from repro.runtime.durable import (
    JOURNAL_FORMAT,
    DurableStore,
    contiguous_prefix,
    frame_bytes,
    read_frames,
    scan_frames,
    write_frames,
)
from repro.scenarios.generators import concurrent_workload


# ----------------------------------------------------------------------
# frame format
# ----------------------------------------------------------------------


class TestFrames:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "frames.bin"
        frames = [(1, "a", (1, 2)), (2, "b", None), (3, "c", "payload")]
        write_frames(path, frames)
        assert list(read_frames(path)) == frames

    def test_torn_tail_truncates_cleanly(self, tmp_path):
        path = tmp_path / "frames.bin"
        frames = [(i, f"t{i}", "x" * 50) for i in range(10)]
        write_frames(path, frames)
        size = path.stat().st_size
        # Chop the file at every byte boundary of the last two frames:
        # the reader must yield some prefix of the written frames and
        # never raise -- a crash mid-append is exactly a truncation.
        with open(path, "rb") as fh:
            blob = fh.read()
        for cut in range(size - 130, size):
            with open(path, "wb") as fh:
                fh.write(blob[:cut])
            got = list(read_frames(path))
            assert got == frames[: len(got)]
            assert len(got) >= 8

    def test_corrupt_crc_stops_iteration(self, tmp_path):
        path = tmp_path / "frames.bin"
        write_frames(path, [(1, "a"), (2, "b"), (3, "c")])
        with open(path, "rb") as fh:
            blob = bytearray(fh.read())
        blob[len(blob) // 2] ^= 0xFF  # flip a payload byte mid-file
        with open(path, "wb") as fh:
            fh.write(bytes(blob))
        got = list(read_frames(path))
        # Everything before the corrupted frame is intact; nothing after
        # it is trusted (appends are sequential, so a bad CRC means the
        # tail is suspect).
        assert got == [(1, "a"), (2, "b"), (3, "c")][: len(got)]
        assert len(got) < 3


def batch(shard, *ticks, wire="w"):
    """A journal frame: one shipped batch of ``shard`` at ``ticks``."""
    return (shard, [(t, f"tr{t}", wire) for t in ticks])


class TestContiguousPrefix:
    def test_gap_free_union_is_fully_claimed(self):
        frames = [
            batch(1, 1, 4),
            batch(2, 2, 5),
            batch(0, 3, 6),
            batch(1, 7, 10),
            batch(2, 8, 11),
            batch(0, 9, 12),
        ]
        random.Random(0).shuffle(frames)
        prefix, tick = contiguous_prefix(frames, after_tick=0)
        assert tick == 12
        # Nothing is cut: the frames come back whole, in their order.
        assert prefix == frames

    def test_gap_cuts_each_frame_at_the_frontier(self):
        # Tick 6 was never journaled (still in a dispatcher buffer).
        frames = [batch(0, 1, 2, 4, 7), batch(1, 3, 5, 8), batch(2, 9)]
        prefix, tick = contiguous_prefix(frames, after_tick=0)
        assert tick == 5
        assert prefix == [batch(0, 1, 2, 4), batch(1, 3, 5)]

    def test_after_tick_filters_committed_frames(self):
        frames = [batch(0, 1, 2, 3, 4), batch(0, 5, 6, 7)]
        prefix, tick = contiguous_prefix(frames, after_tick=4)
        assert prefix == [batch(0, 5, 6, 7)]
        assert tick == 7

    def test_empty_union_claims_nothing(self):
        assert contiguous_prefix([], after_tick=9) == ([], 9)

    def test_duplicate_tick_is_coverage_not_a_gap(self):
        """A tick journaled twice must not cut the claim: the copy is
        skipped and the claim keeps going -- only a genuinely *missing*
        tick cuts the prefix."""
        frames = [batch(0, 1, 2), batch(0, 2, 3, 4)]
        prefix, tick = contiguous_prefix(frames, after_tick=0)
        assert tick == 4
        assert prefix == [batch(0, 1, 2), batch(0, 3, 4)]

    def test_duplicate_keeps_first_copy_and_gap_still_cuts(self):
        frames = [
            batch(0, 1, wire="first"),
            (1, [(1, "tr1", "second"), (2, "tr2", "w")]),
            batch(0, 4),  # 3 is missing: claim ends at 2
        ]
        prefix, tick = contiguous_prefix(frames, after_tick=0)
        assert tick == 2
        assert prefix == [batch(0, 1, wire="first"), batch(1, 2)]


# ----------------------------------------------------------------------
# journal scanning: torn tail vs mid-file corruption
# ----------------------------------------------------------------------


class TestScanFrames:
    def write(self, path, frames):
        write_frames(path, frames)
        with open(path, "rb") as fh:
            return bytearray(fh.read())

    def test_clean_file(self, tmp_path):
        path = tmp_path / "wal.bin"
        frames = [(i, 0, f"t{i}", "w" * 20) for i in range(5)]
        self.write(path, frames)
        scan = scan_frames(path)
        assert list(scan.frames) == frames
        assert not scan.torn_tail and not scan.corrupt
        assert scan.bytes_discarded == 0 and scan.frames_salvaged == 0

    def test_torn_tail_is_not_corruption(self, tmp_path):
        path = tmp_path / "wal.bin"
        frames = [(i, 0, f"t{i}", "w" * 20) for i in range(5)]
        blob = self.write(path, frames)
        path.write_bytes(bytes(blob[:-7]))  # crash mid-append
        scan = scan_frames(path)
        assert list(scan.frames) == frames[:4]
        assert scan.torn_tail and not scan.corrupt
        # Torn bytes are not "discarded": that counter flags damage.
        assert scan.bytes_discarded == 0
        # strict mode tolerates a torn tail: it is the expected shape
        # of a crash, not damage.
        assert list(scan_frames(path, strict=True).frames) == frames[:4]

    def corrupt_mid_file(self, path, frames):
        blob = self.write(path, frames)
        # Flip a byte inside frame 1's payload: frames 2+ still follow
        # as valid frames, so this is damage, not a torn tail.
        offset = len(frame_bytes(frames[0])) + 12
        blob[offset] ^= 0xFF
        path.write_bytes(bytes(blob))

    def test_mid_file_corruption_salvages_the_tail(self, tmp_path):
        path = tmp_path / "wal.bin"
        frames = [(i, 0, f"t{i}", "w" * 30) for i in range(6)]
        self.corrupt_mid_file(path, frames)
        scan = scan_frames(path)
        assert scan.corrupt and not scan.torn_tail
        assert list(scan.frames) == [frames[0]] + frames[2:]
        assert scan.frames_salvaged == 4
        assert scan.bytes_discarded == len(frame_bytes(frames[1]))

    def test_strict_mode_raises_on_corruption(self, tmp_path):
        path = tmp_path / "wal.bin"
        frames = [(i, 0, f"t{i}", "w" * 30) for i in range(6)]
        self.corrupt_mid_file(path, frames)
        with pytest.raises(ValueError, match="mid-file corruption"):
            scan_frames(path, strict=True)

    def test_missing_file_is_empty(self, tmp_path):
        scan = scan_frames(tmp_path / "nope.bin")
        assert scan.frames == () and not scan.corrupt

    def test_wal_frames_warns_on_corruption(self, tmp_path):
        """A corrupted journal must not silently shrink the recovery
        claim: restore paths get a RuntimeWarning naming the damage and
        the re-feed remedy, while the salvaged tail is still served."""
        store = DurableStore(tmp_path)
        for tick in range(1, 7):
            store.append(0, *batch(0, tick, wire="w" * 30))
        path = store.wal_path(0)
        with open(path, "rb") as fh:
            blob = bytearray(fh.read())
        first = len(frame_bytes(batch(0, 1, wire="w" * 30)))
        blob[first + 12] ^= 0xFF  # damage tick 2's frame
        path.write_bytes(bytes(blob))
        fresh = DurableStore(tmp_path)
        with pytest.warns(RuntimeWarning, match="ingested_records"):
            frames = fresh.wal_frames(0, after_tick=0)
        assert [rows[0][0] for _shard, rows in frames] == [1, 3, 4, 5, 6]
        # The contiguous claim then honestly stops before the hole.
        prefix, tick = contiguous_prefix(frames, after_tick=0)
        assert tick == 1 and prefix == [batch(0, 1, wire="w" * 30)]


# ----------------------------------------------------------------------
# the store
# ----------------------------------------------------------------------


class _Unpicklable:
    def __reduce__(self):
        raise RuntimeError("cannot pickle this row")


class TestDurableStore:
    def test_journal_append_read(self, tmp_path):
        store = DurableStore(tmp_path)
        store.append(0, *batch(2, 1, 2))
        store.append(1, *batch(5, 3))
        store.append(0, *batch(4, 4))
        # Each append is one frame on disk at once: a fresh store on
        # the same directory reads every batch back, in journal order.
        fresh = DurableStore(tmp_path)
        assert fresh.wal_frames(0, after_tick=0) == [
            batch(2, 1, 2),
            batch(4, 4),
        ]
        assert fresh.wal_frames(0, after_tick=2) == [batch(4, 4)]
        assert fresh.wal_frames(1, after_tick=0) == [batch(5, 3)]
        assert fresh.wal_frames(2, after_tick=0) == []

    def test_rewrite_journal_replaces_it_whole(self, tmp_path):
        store = DurableStore(tmp_path)
        old = [batch(0, 1, 2), batch(2, 3), batch(0, 4)]
        for frame in old:
            store.append(0, *frame)
        store.rewrite_journal(0, old[:2])
        assert store.wal_frames(0, after_tick=0) == old[:2]
        # A rewrite that fails midway leaves the old journal intact.
        with pytest.raises(RuntimeError, match="cannot pickle"):
            store.rewrite_journal(
                0, [batch(0, 1), (2, [(3, "tr3", _Unpicklable())])]
            )
        assert store.wal_frames(0, after_tick=0) == old[:2]

    def test_load_refuses_another_journal_format(self, tmp_path):
        store = DurableStore(tmp_path)
        store.checkpoint({"epoch": 1, "tick": 0}, {0: ("snap", 0)})
        # A store from before the batch journal records no format.
        write_frames(tmp_path / "meta.bin", [{"epoch": 1, "tick": 0}])
        with pytest.raises(ValueError, match="journal format 1"):
            store.load()

    def test_checkpoint_commits_and_resets_journals(self, tmp_path):
        store = DurableStore(tmp_path)
        store.append(0, *batch(0, 1))
        meta = {"epoch": 1, "tick": 1}
        store.checkpoint(meta, {0: ("snap", 0), 1: ("snap", 1)})
        loaded = store.load()
        assert loaded is not None
        got_meta, snapshots = loaded
        assert got_meta == {**meta, "journal_format": JOURNAL_FORMAT}
        assert snapshots == {0: ("snap", 0), 1: ("snap", 1)}
        # Journals are reset: the committed snapshot subsumes them.
        assert store.wal_frames(0, after_tick=0) == []
        # A second checkpoint cleans the previous epoch's snapshots.
        store.checkpoint({"epoch": 2, "tick": 5}, {0: ("snap2", 0)})
        assert store.load()[0]["epoch"] == 2
        assert not list(tmp_path.glob("snap-00000001-*.bin"))

    def test_crash_before_commit_leaves_old_checkpoint(self, tmp_path):
        store = DurableStore(tmp_path)
        store.checkpoint({"epoch": 1, "tick": 10}, {0: ("old", 0)})
        # Simulate a crash after the new snapshots hit disk but before
        # the metadata replace: the new files are unreferenced garbage.
        write_frames(store.snapshot_path(2, 0), [("new", 0)])
        meta, snapshots = store.load()
        assert meta["epoch"] == 1
        assert snapshots == {0: ("old", 0)}

    def test_load_without_checkpoint_is_none(self, tmp_path):
        assert DurableStore(tmp_path).load() is None

    def test_durability_validation(self, tmp_path):
        with pytest.raises(ValueError):
            Durability(root=tmp_path, checkpoint_every=0)
        with pytest.raises(ValueError):
            Durability(root=tmp_path, max_recoveries=-1)


# ----------------------------------------------------------------------
# fleet-level recovery
# ----------------------------------------------------------------------


def serial_reference(stream, **kwargs):
    fleet = MonitorFleet(xi=Fraction(3, 2), n_shards=9, batch_size=8, **kwargs)
    fleet.ingest_many(stream)
    ids = sorted({tid for tid, _ in stream})
    return (
        {tid: (fleet.worst_ratio(tid), fleet.is_degraded(tid)) for tid in ids},
        set(fleet.violating_traces()),
    )


def assert_matches_serial(fleet, stream, expected, expected_violating):
    ids = sorted({tid for tid, _ in stream})
    got = {
        tid: (fleet.worst_ratio(tid), fleet.is_degraded(tid)) for tid in ids
    }
    assert got == expected
    assert set(fleet.violating_traces()) == expected_violating
    assert fleet.crashed_shards() == ()


class TestRecovery:
    def make_stream(self, seed=23):
        return list(
            concurrent_workload(
                random.Random(seed), n_traces=24, records_per_trace=(30, 60)
            )
        )

    def test_sigkill_mid_ingest_recovers_bit_identically(self, tmp_path):
        """The headline property: SIGKILL a worker mid-stream; the
        fleet respawns it from snapshot + journal suffix and every
        per-trace result matches the serial fleet exactly, with zero
        crashed shards and zero dropped records."""
        stream = self.make_stream()
        expected, expected_violating = serial_reference(stream)
        with ParallelFleet(
            Fraction(3, 2),
            n_workers=3,
            n_shards=9,
            batch_size=8,
            backend="process",
            wire_batch=16,
            durability=Durability(root=tmp_path, checkpoint_every=300),
        ) as fleet:
            cut = len(stream) // 2
            fleet.ingest_many(stream[:cut])
            # Rows still buffered for the killed worker's shards were
            # never shipped, so they are not in its journal: they must
            # ship after the recovery, exactly once.
            assert any(
                fleet._buffers.get(shard)
                for shard in fleet.shards_of_worker(1)
            )
            os.kill(fleet._backend._processes[1].pid, signal.SIGKILL)
            time.sleep(0.2)
            fleet.ingest_many(stream[cut:])
            assert_matches_serial(fleet, stream, expected, expected_violating)
            assert fleet.dropped_records == 0
            assert fleet._recoveries.get(1, 0) >= 1
            assert fleet.report().records == len(stream)

    def test_recovery_drains_each_violation_once(self, tmp_path):
        """Replay re-detects violations whose notices fired before the
        crash; drain_violations hands over each detection once, as the
        fired feed keeps it."""
        stream = self.make_stream(seed=37)
        with ParallelFleet(
            Fraction(3, 2),
            n_workers=3,
            n_shards=9,
            batch_size=8,
            backend="process",
            wire_batch=16,
            durability=Durability(root=tmp_path, checkpoint_every=None),
        ) as fleet:
            cut = len(stream) // 2
            fleet.ingest_many(stream[:cut])
            fleet.flush()  # fires them; the empty snapshot predates them
            drained = fleet.drain_violations()
            owned = set(fleet.shards_of_worker(1))
            assert any(fleet.shard_of(tid) in owned for _t, tid in drained)
            os.kill(fleet._backend._processes[1].pid, signal.SIGKILL)
            time.sleep(0.2)
            fleet.ingest_many(stream[cut:])
            fleet.flush()  # finds the worker dead
            fleet.flush()  # recovers it, replaying its journal
            assert fleet._recoveries.get(1, 0) == 1
            drained += fleet.drain_violations()
            feed = fleet.violation_feed()
        assert len(drained) == len(set(drained))
        assert set(drained) == set(feed)

    def test_recovery_leaves_unshipped_rows_to_ship_once(
        self, tmp_path, monkeypatch
    ):
        """A crash found by a blocked put recovers mid-ingest, while the
        dead worker's other shards still buffer rows that were never
        shipped and so never journaled: the replay does not carry them
        and the recovery must not drop them -- they ship afterwards,
        exactly once."""
        buffered_at_replay = []
        replay = ParallelFleet._replay

        def recording_replay(fleet, frames):
            buffered_at_replay.append(
                sum(len(fleet._buffers.get(s, ())) for s in (1, 4, 7))
            )
            return replay(fleet, frames)

        monkeypatch.setattr(ParallelFleet, "_replay", recording_replay)
        stream = self.make_stream(seed=29)
        expected, expected_violating = serial_reference(stream)
        with ParallelFleet(
            Fraction(3, 2),
            n_workers=3,
            n_shards=9,
            batch_size=8,
            backend="process",
            wire_batch=16,
            # A one-batch inbox makes a put find the dead worker within
            # two batches; no checkpoint barrier ships the buffers first.
            inbox_capacity=1,
            durability=Durability(root=tmp_path, checkpoint_every=None),
        ) as fleet:
            assert fleet.shards_of_worker(1) == (1, 4, 7)
            cut = len(stream) // 2
            fleet.ingest_many(stream[:cut])
            os.kill(fleet._backend._processes[1].pid, signal.SIGKILL)
            time.sleep(0.2)
            fleet.ingest_many(stream[cut:])
            assert fleet._recoveries.get(1, 0) == 1
            assert buffered_at_replay[0] > 0
            assert_matches_serial(fleet, stream, expected, expected_violating)
            assert fleet.dropped_records == 0
            assert fleet.report().records == len(stream)

    def test_full_restart_resumes_at_ingested_records(self, tmp_path):
        """Kill the whole fleet (abandon it un-shut-down), restore from
        disk, resume the producer at ``fleet.ingested_records`` -- the
        contiguous journal prefix -- and end bit-identical to serial."""
        stream = self.make_stream(seed=31)
        expected, expected_violating = serial_reference(stream)
        cut = (len(stream) * 2) // 3
        fleet = ParallelFleet(
            Fraction(3, 2),
            n_workers=3,
            n_shards=9,
            batch_size=8,
            backend="thread",
            wire_batch=16,
            durability=Durability(root=tmp_path, checkpoint_every=250),
        )
        fleet.ingest_many(stream[:cut])
        # Abandon the fleet without shutdown(): the journals and the
        # last committed checkpoint are all that survives.
        del fleet
        restored = ParallelFleet.restore(tmp_path)
        resume = restored.ingested_records
        # The restored fleet honestly claims some prefix bounded by the
        # checkpoint cadence, never more than it absorbed.
        assert 0 < resume <= cut
        with restored:
            restored.ingest_many(stream[resume:])
            assert_matches_serial(
                restored, stream, expected, expected_violating
            )
            assert restored.ingested_records == len(stream)

    def test_restore_after_clean_shutdown(self, tmp_path):
        stream = self.make_stream(seed=5)
        expected, expected_violating = serial_reference(stream)
        with ParallelFleet(
            Fraction(3, 2),
            n_workers=3,
            n_shards=9,
            batch_size=8,
            backend="thread",
            wire_batch=16,
            durability=Durability(root=tmp_path, checkpoint_every=400),
        ) as fleet:
            fleet.ingest_many(stream)
        # shutdown() checkpoints, so restore resumes at the very end.
        restored = ParallelFleet.restore(tmp_path)
        with restored:
            assert restored.ingested_records == len(stream)
            assert_matches_serial(
                restored, stream, expected, expected_violating
            )

    def test_restore_refuses_missing_and_fresh_refuses_existing(
        self, tmp_path
    ):
        with pytest.raises(FileNotFoundError):
            ParallelFleet.restore(tmp_path / "nowhere")
        stream = self.make_stream(seed=1)
        with ParallelFleet(
            Fraction(3, 2),
            n_workers=2,
            n_shards=8,
            backend="thread",
            durability=Durability(root=tmp_path, checkpoint_every=200),
        ) as fleet:
            fleet.ingest_many(stream[:300])
        # A fresh fleet must not silently overwrite a committed
        # checkpoint -- restoring is an explicit decision.
        with pytest.raises(ValueError, match="restore"):
            ParallelFleet(
                Fraction(3, 2),
                n_workers=2,
                n_shards=8,
                backend="thread",
                durability=Durability(root=tmp_path),
            )

    def test_poison_record_exhausts_recovery_budget(self, tmp_path):
        """A deterministic poison record crashes the worker again on
        every replay; the budget bounds the crash-recover loop and the
        shards end degraded exactly as without durability."""
        from repro.core.events import Event
        from repro.sim.trace import ReceiveRecord
        import zlib

        n_shards, n_workers = 4, 2
        doomed = next(
            f"d{i}"
            for i in range(100)
            if zlib.crc32(f"d{i}".encode()) % n_shards % n_workers == 0
        )
        poison = ReceiveRecord(
            event=Event(0, 7),  # index 7 with no predecessors: ValueError
            time=1.0,
            sender=None,
            send_event=None,
            send_time=None,
            payload=None,
            processed=True,
            sends=(),
        )
        with ParallelFleet(
            n_shards=n_shards,
            n_workers=n_workers,
            batch_size=1,
            backend="thread",
            wire_batch=1,
            durability=Durability(root=tmp_path, max_recoveries=2),
        ) as fleet:
            fleet.ingest(doomed, poison)
            fleet.flush()  # the barrier that discovers the crash
            # The poison was journaled at ingest, so every respawn
            # replays it and dies again; each query against the dead
            # worker burns one recovery attempt until the budget is
            # spent, after which the worker stays dead for good.
            for _ in range(3):
                with pytest.raises(WorkerCrashed):
                    fleet.worst_ratio(doomed)
            assert fleet._recoveries[0] == 2
            assert fleet.crashed_shards() == tuple(
                range(0, n_shards, n_workers)
            )
            assert fleet.dropped_records >= 1


class _NoSpawnBackend:
    """A backend that fails the test if a worker is ever started."""

    def spawn(self, *args):
        raise AssertionError("a worker was started")


class TestFixedPlacement:
    """Placement is the round-robin split for a fleet's lifetime:
    restore() derives it from the configuration, writes none to disk,
    and refuses a store whose snapshots disagree with it."""

    def durable_fleet(self, root):
        return ParallelFleet(
            Fraction(3, 2),
            n_workers=3,
            n_shards=9,
            batch_size=8,
            backend="thread",
            wire_batch=16,
            durability=Durability(root=root, checkpoint_every=None),
        )

    def test_restore_keeps_the_round_robin_split(self, tmp_path):
        stream = list(
            concurrent_workload(
                random.Random(41), n_traces=18, records_per_trace=(20, 50)
            )
        )
        expected, expected_violating = serial_reference(stream)
        cut = len(stream) // 2
        fleet = self.durable_fleet(tmp_path)
        fleet.ingest_many(stream[:cut])
        fleet.checkpoint()
        del fleet  # abandoned: the checkpoint and journals survive
        meta, snapshots = DurableStore(tmp_path).load()
        assert "placement" not in meta
        assert sorted(snapshots) == [0, 1, 2]
        restored = ParallelFleet.restore(tmp_path)
        with restored:
            assert [restored.worker_of(s) for s in range(9)] == [
                s % 3 for s in range(9)
            ]
            assert restored.ingested_records == cut
            restored.ingest_many(stream[cut:])
            assert_matches_serial(
                restored, stream, expected, expected_violating
            )

    def test_restore_refuses_swapped_snapshots(self, tmp_path):
        stream = list(
            concurrent_workload(
                random.Random(43), n_traces=12, records_per_trace=(20, 40)
            )
        )
        with self.durable_fleet(tmp_path) as fleet:
            fleet.ingest_many(stream)
        # Worker 0's file now holds shards 1, 4, 7 and worker 1's
        # shards 0, 3, 6: the shape of a store whose shards moved.
        (w0,) = tmp_path.glob("snap-*-w0.bin")
        (w1,) = tmp_path.glob("snap-*-w1.bin")
        swap = tmp_path / "swap.bin"
        w0.rename(swap)
        w1.rename(w0)
        swap.rename(w1)
        with pytest.raises(ValueError, match="placement"):
            ParallelFleet.restore(tmp_path, backend=_NoSpawnBackend())


class TestRestoreSafety:
    """restore() refuses a store it cannot replay before starting any
    worker, and rewrites the journals it claims durably."""

    def abandoned_store(self, root, *, fsync=False):
        """A durable 3-worker fleet checkpointed mid-stream, then fed
        and flushed (so every worker journals batches) and abandoned."""
        stream = list(
            concurrent_workload(
                random.Random(53), n_traces=12, records_per_trace=(20, 40)
            )
        )
        fleet = ParallelFleet(
            Fraction(3, 2),
            n_workers=3,
            n_shards=9,
            batch_size=8,
            backend="thread",
            wire_batch=16,
            durability=Durability(
                root=root, checkpoint_every=None, fsync=fsync
            ),
        )
        fleet.ingest_many(stream[: len(stream) // 2])
        fleet.checkpoint()
        fleet.ingest_many(stream[len(stream) // 2 :])
        fleet.flush()
        return stream

    def test_restore_refuses_another_journal_format(self, tmp_path):
        self.abandoned_store(tmp_path)
        meta_path = tmp_path / "meta.bin"
        (meta,) = read_frames(meta_path)
        assert meta["journal_format"] == JOURNAL_FORMAT
        del meta["journal_format"]  # what a per-record store recorded
        write_frames(meta_path, [meta])
        with pytest.raises(ValueError, match="journal format 1"):
            ParallelFleet.restore(tmp_path, backend=_NoSpawnBackend())

    def test_restore_refuses_a_stale_snapshot_version(self, tmp_path):
        """Only worker 0's snapshot is stale: restore must refuse the
        store before it starts any worker, not crash the ones it
        started while they decode."""
        self.abandoned_store(tmp_path)
        (w0,) = tmp_path.glob("snap-*-w0.bin")
        (frame,) = read_frames(w0)
        write_frames(w0, [(frame[0], SNAPSHOT_VERSION - 1, *frame[2:])])
        with pytest.raises(ValueError, match="snapshot version"):
            ParallelFleet.restore(tmp_path, backend=_NoSpawnBackend())

    def test_failed_restore_leaves_no_worker_running(self, tmp_path):
        """Worker 0's snapshot holds the right shards of the right
        version, so restore() starts both workers, and worker 0 then
        crashes decoding it: the fleet the caller never gets must not
        leave worker 1 behind."""
        stream = list(
            concurrent_workload(
                random.Random(1), n_traces=20, records_per_trace=(20, 40)
            )
        )
        with ParallelFleet(
            Fraction(3, 2),
            n_workers=2,
            backend="process",
            durability=Durability(root=tmp_path),
        ) as fleet:
            fleet.ingest_many(stream)  # shutdown commits a checkpoint
        (w0,) = tmp_path.glob("snap-*-w0.bin")
        (frame,) = read_frames(w0)
        images = tuple((image[0], None) for image in frame[-1])
        write_frames(w0, [(*frame[:-1], images)])
        before = set(multiprocessing.active_children())
        with pytest.raises(WorkerCrashed):
            ParallelFleet.restore(tmp_path)
        assert set(multiprocessing.active_children()) <= before

    def test_restore_fsyncs_every_rewritten_journal(
        self, tmp_path, monkeypatch
    ):
        stream = self.abandoned_store(tmp_path, fsync=True)
        synced = set()
        fsync = os.fsync

        def recording_fsync(fd):
            synced.add(os.fstat(fd).st_ino)
            fsync(fd)

        monkeypatch.setattr(os, "fsync", recording_fsync)
        with ParallelFleet.restore(tmp_path) as restored:
            store = DurableStore(tmp_path)
            journals = {store.wal_path(w).stat().st_ino for w in range(3)}
            assert journals <= synced
            assert restored.ingested_records == len(stream)
