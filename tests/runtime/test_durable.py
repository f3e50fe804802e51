"""Tests for the durability plane: WAL framing, checkpoints, recovery.

Three layers, bottom up: the frame format (torn tails must truncate,
never corrupt), the store's checkpoint commit semantics (the metadata
replace is the commit point; journals reset only after it), and the
fleet-level recovery protocol -- a SIGKILLed worker respawns from its
snapshot + journal suffix with bit-identical per-trace results, a whole
fleet restarts from disk with the producer resuming at
``fleet.ingested_records``, and a poison record exhausts the recovery
budget instead of looping forever.  Restore derives the fixed
round-robin placement from the configuration and refuses a store whose
snapshots hold other shards.
"""

import os
import random
import signal
import time
from fractions import Fraction

import pytest

from repro.analysis.fleet import MonitorFleet
from repro.runtime import Durability, ParallelFleet, WorkerCrashed
from repro.runtime.durable import (
    DurableStore,
    contiguous_prefix,
    frame_bytes,
    read_frames,
    scan_frames,
    write_frames,
)
from repro.runtime.shard import shard_index_of
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


class TestContiguousPrefix:
    def test_gap_free_union_is_fully_claimed(self):
        frames = [(t, t % 3, f"tr{t}", "w") for t in range(1, 11)]
        random.Random(0).shuffle(frames)
        prefix, tick = contiguous_prefix(frames, after_tick=0)
        assert tick == 10
        assert [f[0] for f in prefix] == list(range(1, 11))

    def test_gap_cuts_the_claim(self):
        frames = [(t, 0, "tr", "w") for t in (1, 2, 3, 5, 6)]
        prefix, tick = contiguous_prefix(frames, after_tick=0)
        assert tick == 3
        assert [f[0] for f in prefix] == [1, 2, 3]

    def test_after_tick_filters_committed_frames(self):
        frames = [(t, 0, "tr", "w") for t in range(1, 8)]
        prefix, tick = contiguous_prefix(frames, after_tick=4)
        assert [f[0] for f in prefix] == [5, 6, 7]
        assert tick == 7

    def test_empty_union_claims_nothing(self):
        assert contiguous_prefix([], after_tick=9) == ([], 9)

    def test_duplicate_tick_is_coverage_not_a_gap(self):
        """A record re-journaled after a crash-replay shows up as a
        duplicate tick; the claim must skip the copy and keep going --
        only a genuinely *missing* tick cuts the prefix."""
        frames = [(t, 0, "tr", "w") for t in (1, 2, 2, 3, 4)]
        prefix, tick = contiguous_prefix(frames, after_tick=0)
        assert tick == 4
        assert [f[0] for f in prefix] == [1, 2, 3, 4]

    def test_duplicate_keeps_first_copy_and_gap_still_cuts(self):
        frames = [
            (1, 0, "tr", "first"),
            (1, 0, "tr", "second"),
            (2, 0, "tr", "w"),
            (4, 0, "tr", "w"),  # 3 is missing: claim ends at 2
        ]
        prefix, tick = contiguous_prefix(frames, after_tick=0)
        assert tick == 2
        assert [f[3] for f in prefix] == ["first", "w"]


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
            store.append(0, tick, 0, "t", "w" * 30)
        store.flush(0)
        path = store.wal_path(0)
        with open(path, "rb") as fh:
            blob = bytearray(fh.read())
        first = len(frame_bytes((1, 0, "t", "w" * 30)))
        blob[first + 12] ^= 0xFF  # damage tick 2's frame
        path.write_bytes(bytes(blob))
        fresh = DurableStore(tmp_path)
        with pytest.warns(RuntimeWarning, match="ingested_records"):
            frames = fresh.wal_frames(0, after_tick=0)
        assert [f[0] for f in frames] == [1, 3, 4, 5, 6]
        # The contiguous claim then honestly stops before the hole.
        prefix, tick = contiguous_prefix(frames, after_tick=0)
        assert tick == 1 and [f[0] for f in prefix] == [1]


# ----------------------------------------------------------------------
# the store
# ----------------------------------------------------------------------


class TestDurableStore:
    def test_journal_append_flush_read(self, tmp_path):
        store = DurableStore(tmp_path)
        store.append(0, 1, 2, "t", "wire-1")
        store.append(0, 2, 2, "t", "wire-2")
        store.append(1, 3, 5, "u", "wire-3")
        # wal_frames flushes the buffered tail first, so the answer is
        # complete without an explicit flush call.
        assert store.wal_frames(0, after_tick=0) == [
            (1, 2, "t", "wire-1"),
            (2, 2, "t", "wire-2"),
        ]
        assert store.wal_frames(0, after_tick=1) == [(2, 2, "t", "wire-2")]
        assert store.wal_frames(1, after_tick=0) == [(3, 5, "u", "wire-3")]
        assert store.wal_frames(2, after_tick=0) == []

    def test_checkpoint_commits_and_resets_journals(self, tmp_path):
        store = DurableStore(tmp_path)
        store.append(0, 1, 0, "t", "w")
        store.flush(0)
        meta = {"epoch": 1, "tick": 1}
        store.checkpoint(meta, {0: ("snap", 0), 1: ("snap", 1)})
        loaded = store.load()
        assert loaded is not None
        got_meta, snapshots = loaded
        assert got_meta == meta
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
            os.kill(fleet._backend._processes[1].pid, signal.SIGKILL)
            time.sleep(0.2)
            fleet.ingest_many(stream[cut:])
            assert_matches_serial(fleet, stream, expected, expected_violating)
            assert fleet.dropped_records == 0
            assert fleet._recoveries.get(1, 0) >= 1

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

    def test_restore_keeps_a_shard_subset(self, tmp_path):
        subset = (1, 3, 5, 7)
        stream = [
            (tid, record)
            for tid, record in concurrent_workload(
                random.Random(47), n_traces=16, records_per_trace=(10, 20)
            )
            if shard_index_of(tid, 8) in subset
        ]
        with ParallelFleet(
            n_workers=2,
            n_shards=8,
            backend="thread",
            shard_subset=subset,
            durability=Durability(root=tmp_path),
        ) as fleet:
            fleet.ingest_many(stream)
            ratios = dict(fleet.all_ratios())
        with ParallelFleet.restore(tmp_path) as restored:
            assert [restored.worker_of(s) for s in subset] == [0, 1, 0, 1]
            assert dict(restored.all_ratios()) == ratios
            foreign = next(
                f"x{i}" for i in range(100) if shard_index_of(f"x{i}", 8) == 0
            )
            with pytest.raises(ValueError, match="does not own"):
                restored.ingest(foreign, stream[0][1])
