"""The durability plane: batch journals plus periodic shard snapshots.

PR 5 proved that live monitors -- checker digraphs, deep
``SummaryEdge`` chains, tombstone state -- pickle bit-identically;
this module spends that primitive on crash recovery.  The scheme is
the classic snapshot + write-ahead-log pair (in the spirit of
cylc-flow's ``rundb.py``/``suite_db_mgr.py``, per the roadmap notes),
kept stdlib-only:

* **Batch journal (WAL).**  Just before the dispatcher ships a batch,
  it appends it as one ``(shard, rows)`` frame (``rows``: the batch's
  ``(tick, trace_id, wire_record)`` rows, in tick order) to the
  journal of the worker the shard is placed on.  Placement is fixed
  for the fleet's lifetime, so each journal belongs to one worker for
  good and replays as exactly the batches that worker was shipped;
  rows still in the dispatcher's shard buffers are not journaled yet.
  Files are length-prefixed, CRC-guarded pickle frames; a reader stops
  cleanly at a torn tail, so a crash mid-append costs at most the
  interrupted batch.

* **Snapshots.**  At a checkpoint, every worker emits its
  :meth:`~repro.runtime.shard.ShardGroup.snapshot` frame (taken
  *without* flushing: pending buffers travel verbatim).  The store
  writes one snapshot file per worker plus a metadata frame carrying
  the fleet configuration, the dispatcher's own durable state and the
  :data:`JOURNAL_FORMAT`; the metadata ``os.replace`` is the commit
  point.  Journals are then reset (a replay also skips frames at or
  below the committed tick, so a crash between the commit and the
  reset cannot double-apply).

* **Recovery.**  A crashed worker is respawned, handed its snapshot,
  and replayed its journal; a whole fleet restarts from the metadata +
  snapshots + journals.  Unshipped rows are missing from the journals,
  so after a full-process crash the journaled ticks stop at a *ragged*
  frontier; :func:`contiguous_prefix` cuts the frames at the longest
  gap-free tick prefix, the stream prefix the restored fleet has
  provably absorbed -- the producer re-feeds from
  ``fleet.ingested_records``.

Frame format (all integers big-endian): ``[length u32][crc32 u32]
[payload]`` where ``payload`` is a pickled plain tuple.  See
:class:`Durability` for the user-facing configuration and
:mod:`repro.runtime.parallel` for the protocol that drives this store.
"""

from __future__ import annotations

import logging
import os
import pickle
import struct
import time
import warnings
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterable, Iterator

from repro.obs import metrics as _obs_metrics

__all__ = [
    "JOURNAL_FORMAT",
    "Durability",
    "DurableStore",
    "JournalScan",
    "contiguous_prefix",
    "frame_bytes",
    "read_frames",
    "scan_frames",
    "write_frames",
]

logger = logging.getLogger(__name__)

_HEADER = struct.Struct(">II")
_MAX_FRAME = 1 << 31
_META_NAME = "meta.bin"

# Recorded in every checkpoint: 2 is one ``(shard, rows)`` frame per
# shipped batch; stores that record none hold one frame per record (1).
JOURNAL_FORMAT = 2


class _StoreObs:
    """The store's instrument bundle (all wall-clock, none deterministic:
    append/checkpoint timing depends on the host, and frame counts depend
    on ship batching)."""

    __slots__ = ("append_ns", "fsync_ns", "checkpoint_ns", "frames")

    def __init__(self, registry: "_obs_metrics.MetricsRegistry") -> None:
        self.append_ns = registry.histogram(
            "repro_durable_append_ns",
            deterministic=False,
            help="journal append latency (write + optional fsync)",
        )
        self.fsync_ns = registry.histogram(
            "repro_durable_fsync_ns",
            deterministic=False,
            help="os.fsync latency on journal appends",
        )
        self.checkpoint_ns = registry.histogram(
            "repro_durable_checkpoint_ns",
            deterministic=False,
            help="full checkpoint commit duration",
        )
        self.frames = registry.counter(
            "repro_durable_journal_frames_total",
            deterministic=False,
            help="WAL frames written to disk",
        )


@dataclass(frozen=True)
class Durability:
    """Configuration of a fleet's durability plane.

    Attributes:
        root: directory holding the journals, snapshots and metadata
            (created on demand; one fleet per directory).
        checkpoint_every: records between automatic checkpoints
            (``None`` = only the baseline checkpoint at start,
            explicit :meth:`ParallelFleet.checkpoint` calls and the
            final one at shutdown).
        fsync: ``os.fsync`` every journal, snapshot and metadata write.
            Off by default: the journals then survive *process* crashes
            (the failure mode recovery targets) but a same-instant OS
            crash may cost the tail.
        max_recoveries: per-worker respawn budget.  A deterministic
            poison record would otherwise crash-recover-replay forever;
            once the budget is spent the worker stays dead and its
            shards degrade, exactly as without durability.
    """

    root: str | os.PathLike
    checkpoint_every: int | None = 50_000
    fsync: bool = False
    max_recoveries: int = 3

    def __post_init__(self) -> None:
        if self.checkpoint_every is not None and self.checkpoint_every < 1:
            raise ValueError("checkpoint_every must be positive (or None)")
        if self.max_recoveries < 0:
            raise ValueError("max_recoveries must be non-negative")


def frame_bytes(frame: Any) -> bytes:
    """One frame in WAL format: ``[length u32][crc32 u32][payload]``.

    The single encoding shared by the journal files here and the
    network plane's stream framing (:mod:`repro.runtime.net`): a frame
    written by either side parses in the other.
    """
    payload = pickle.dumps(frame, protocol=pickle.HIGHEST_PROTOCOL)
    return _HEADER.pack(len(payload), zlib.crc32(payload)) + payload


def write_frames(path: str | os.PathLike, frames: Iterable[Any]) -> None:
    """Write pickled frames to ``path`` (truncating) in WAL format."""
    with open(path, "wb") as fh:
        for frame in frames:
            fh.write(frame_bytes(frame))


def read_frames(path: str | os.PathLike) -> Iterator[Any]:
    """Yield frames from a WAL-format file, stopping at a torn tail.

    A truncated header, truncated payload, implausible length, or CRC
    mismatch ends iteration cleanly: those are exactly the states an
    append interrupted by a crash leaves behind, and everything before
    the tear is intact by construction (appends are sequential).
    """
    with open(path, "rb") as fh:
        while True:
            header = fh.read(_HEADER.size)
            if len(header) < _HEADER.size:
                return
            length, crc = _HEADER.unpack(header)
            if length > _MAX_FRAME:
                return
            payload = fh.read(length)
            if len(payload) < length or zlib.crc32(payload) != crc:
                return
            yield pickle.loads(payload)


@dataclass(frozen=True)
class JournalScan:
    """What a full journal scan found, damage classified.

    Attributes:
        frames: every CRC-intact frame, file order (frames salvaged
            *past* mid-file damage included -- they were committed
            appends, and :func:`contiguous_prefix` handles the tick gap
            the damage leaves).
        total_bytes: the file's size.
        bytes_discarded: bytes skipped over mid-file damage (``0`` for
            a clean or merely torn file).
        frames_salvaged: intact frames found after the first damage.
        torn_tail: the file ends in a partial frame -- the normal
            leftover of an append interrupted by a crash, not damage.
        corrupt: mid-file damage (a CRC mismatch or implausible header
            with valid frames after it): unlike a torn tail this means
            committed history was lost, and a recovery claim built from
            this journal may silently under-count.
    """

    frames: tuple
    total_bytes: int
    bytes_discarded: int
    frames_salvaged: int
    torn_tail: bool
    corrupt: bool


def _frame_at(data: bytes, offset: int) -> tuple[Any, int] | None:
    """Decode the frame starting at ``offset``, or ``None`` if the
    bytes there are not one (bad length, short payload, CRC mismatch).
    """
    if offset + _HEADER.size > len(data):
        return None
    length, crc = _HEADER.unpack_from(data, offset)
    # length == 0 never occurs (payloads are pickles, >= 2 bytes) and
    # would make a run of zero bytes look like valid empty frames.
    if length == 0 or length > _MAX_FRAME:
        return None
    end = offset + _HEADER.size + length
    if end > len(data):
        return None
    payload = data[offset + _HEADER.size : end]
    if zlib.crc32(payload) != crc:
        return None
    return pickle.loads(payload), end


def scan_frames(path: str | os.PathLike, *, strict: bool = False) -> JournalScan:
    """Read a WAL-format file end to end, classifying any damage.

    :func:`read_frames` stops at the first bad frame because a torn
    tail -- the only damage a crashed append can cause -- is always
    *last*.  But a flipped bit in the middle of a journal (bad disk,
    truncation, an editor) also stops it, silently hiding every later
    frame; a recovery claim built on that read under-counts with no
    signal.  This scan tells the two apart: damage is *mid-file*
    (``corrupt``) when CRC-intact frames exist after it, found by
    resynchronizing on the next byte offset that parses as a valid
    frame, and a *torn tail* (``torn_tail``) when nothing valid
    follows.  With ``strict=True`` mid-file corruption raises
    ``ValueError`` instead of being reported (torn tails never raise:
    they are expected after any crash).  A missing file scans as
    empty: an unwritten journal and an empty one claim the same
    nothing.
    """
    try:
        data = Path(path).read_bytes()
    except FileNotFoundError:
        data = b""
    frames: list[Any] = []
    offset = 0
    discarded = 0
    salvaged = 0
    torn = False
    corrupt = False
    size = len(data)
    while offset < size:
        parsed = _frame_at(data, offset)
        if parsed is not None:
            frame, offset = parsed
            frames.append(frame)
            if corrupt:
                salvaged += 1
            continue
        # Damage at `offset`: resynchronize on the next byte position
        # that parses as a whole valid frame.  Found -> the damage was
        # mid-file corruption; not found -> it is the torn tail.
        resume = next(
            (
                pos
                for pos in range(offset + 1, size - _HEADER.size + 1)
                if _frame_at(data, pos) is not None
            ),
            None,
        )
        if resume is None:
            torn = offset < size
            break
        if strict:
            raise ValueError(
                f"mid-file corruption in {path} at byte {offset}: "
                f"{resume - offset} bytes unreadable before the next "
                "valid frame"
            )
        corrupt = True
        discarded += resume - offset
        offset = resume
    return JournalScan(
        frames=tuple(frames),
        total_bytes=size,
        bytes_discarded=discarded,
        frames_salvaged=salvaged,
        torn_tail=torn,
        corrupt=corrupt,
    )


def contiguous_prefix(
    frames: Iterable[tuple], after_tick: int
) -> tuple[list[tuple], int]:
    """Journal frames cut at the longest gap-free tick run following
    ``after_tick``.

    Every ingest stamps exactly one global tick, so the union of all
    journals *should* cover ``after_tick+1, after_tick+2, ...`` -- but
    unshipped rows are missing from it (and tails can tear), so it
    stops raggedly.  Only the contiguous prefix is a stream prefix the
    restored fleet can honestly claim.  Returns ``(prefix,
    last_covered_tick)``: the ``(shard, rows)`` frames in their given
    order, each cut to its rows in ``after_tick+1 ..
    last_covered_tick`` and dropped when none are left.

    A tick in two frames is coverage, not a gap: the first copy is
    kept, so the claim and the replay stay exact if a duplicate ever
    appears -- only a genuinely missing tick ends the claim.
    """
    frames = list(frames)
    covered = {row[0] for _shard, rows in frames for row in rows}
    tick = after_tick
    while tick + 1 in covered:
        tick += 1
    unclaimed = set(range(after_tick + 1, tick + 1))
    prefix: list[tuple] = []
    for shard, rows in frames:
        kept = [row for row in rows if row[0] in unclaimed]
        unclaimed.difference_update(row[0] for row in kept)
        if kept:
            prefix.append((shard, kept))
    return prefix, tick


class DurableStore:
    """One fleet's on-disk state: per-worker journals, snapshots, meta.

    Layout under ``root``::

        meta.bin             committed checkpoint metadata (one frame);
                             its atomic replace is the commit point
        snap-<epoch>-w<k>.bin  worker ``k``'s group snapshot (one frame)
        wal-w<k>.log         worker ``k``'s batch journal

    The store itself is mechanism only -- what goes *into* frames and
    when checkpoints happen is the dispatcher's protocol (see
    :mod:`repro.runtime.parallel`).
    """

    def __init__(
        self,
        root: str | os.PathLike,
        *,
        fsync: bool = False,
        metrics: "_obs_metrics.MetricsRegistry | None" = None,
    ) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.fsync = fsync
        self._obs = None if metrics is None else _StoreObs(metrics)

    def _write(self, path: Path, frames: Iterable[Any]) -> None:
        """Write frames to a temp file beside ``path``, fsynced when
        configured, then ``os.replace`` it: a crash or an error midway
        leaves the old file whole."""
        tmp = path.with_name(path.name + ".tmp")
        write_frames(tmp, frames)
        if self.fsync:
            with open(tmp, "rb") as fh:
                os.fsync(fh.fileno())
        os.replace(tmp, path)

    # -- journal ------------------------------------------------------

    def wal_path(self, worker_id: int) -> Path:
        return self.root / f"wal-w{worker_id}.log"

    def append(self, worker_id: int, shard: int, rows: list[tuple]) -> None:
        """Journal one shipped batch: append ``(shard, rows)`` as one
        frame to the worker's journal."""
        obs = self._obs
        start = 0 if obs is None else time.perf_counter_ns()
        with open(self.wal_path(worker_id), "ab") as fh:
            fh.write(frame_bytes((shard, rows)))
            if self.fsync:
                fh.flush()
                sync_start = 0 if obs is None else time.perf_counter_ns()
                os.fsync(fh.fileno())
                if obs is not None:
                    obs.fsync_ns.observe(
                        time.perf_counter_ns() - sync_start
                    )
        if obs is not None:
            obs.append_ns.observe(time.perf_counter_ns() - start)
            obs.frames.inc()

    def rewrite_journal(self, worker_id: int, frames: Iterable[tuple]) -> None:
        """Replace the worker's journal with ``frames``, atomically."""
        self._write(self.wal_path(worker_id), frames)

    def wal_frames(self, worker_id: int, after_tick: int) -> list[tuple]:
        """The worker's journal frames above ``after_tick``, in journal
        order.

        A checkpoint ships every buffered row before it commits, so a
        frame lies wholly above or wholly at or below a committed tick;
        frames at or below it are leftovers of a crash between the
        commit and the journal reset.

        Reads via :func:`scan_frames`: a torn tail is dropped silently
        (the expected crash leftover), but mid-file corruption --
        committed frames lost, so any recovery claim built from this
        journal may under-count -- raises a ``RuntimeWarning`` naming
        the damage, and the frames salvaged past it are still
        returned (:func:`contiguous_prefix` stops the claim at the
        gap the damage left).
        """
        path = self.wal_path(worker_id)
        scan = scan_frames(path)  # a missing journal scans as empty
        if scan.corrupt:
            logger.warning(
                "journal %s has mid-file corruption: %d bytes "
                "unreadable, %d frames salvaged past the damage",
                path,
                scan.bytes_discarded,
                scan.frames_salvaged,
            )
            warnings.warn(
                f"journal {path} has mid-file corruption: "
                f"{scan.bytes_discarded} bytes unreadable, "
                f"{scan.frames_salvaged} frames salvaged past the "
                "damage; the recovery claim stops at the resulting "
                "tick gap and may under-count -- re-feed from "
                "fleet.ingested_records",
                RuntimeWarning,
                stacklevel=2,
            )
        return [
            (shard, rows)
            for shard, rows in scan.frames
            if rows[-1][0] > after_tick
        ]

    # -- checkpoints --------------------------------------------------

    def snapshot_path(self, epoch: int, worker_id: int) -> Path:
        return self.root / f"snap-{epoch:08d}-w{worker_id}.bin"

    def checkpoint(
        self, meta: dict[str, Any], snapshots: dict[int, tuple]
    ) -> None:
        """Commit one checkpoint: snapshots, then metadata (the commit
        point), then journal reset and old-epoch cleanup.

        ``meta`` must carry ``"epoch"`` and ``"tick"``.  A crash before
        the metadata replace leaves the previous checkpoint authoritative
        (the new snapshot files are unreferenced garbage, cleaned at the
        next commit); a crash after it leaves stale journal frames,
        which replay skips by tick.
        """
        obs = self._obs
        start = 0 if obs is None else time.perf_counter_ns()
        epoch = meta["epoch"]
        for worker_id, frame in snapshots.items():
            self._write(self.snapshot_path(epoch, worker_id), [frame])
        meta = dict(meta, journal_format=JOURNAL_FORMAT)
        self._write(self.root / _META_NAME, [meta])
        for path in self.root.glob("wal-w*.log"):
            path.unlink()
        for path in self.root.glob("snap-*-w*.bin"):
            if not path.name.startswith(f"snap-{epoch:08d}-"):
                path.unlink()
        if obs is not None:
            obs.checkpoint_ns.observe(time.perf_counter_ns() - start)
        logger.debug(
            "checkpoint committed: epoch %d, tick %d, %d snapshots",
            epoch,
            meta.get("tick", -1),
            len(snapshots),
        )

    def load(self) -> tuple[dict[str, Any], dict[int, tuple]] | None:
        """The committed checkpoint: ``(meta, {worker_id: snapshot})``,
        or ``None`` when no checkpoint was ever committed.  A store
        written under another :data:`JOURNAL_FORMAT` raises
        ``ValueError``: its journals do not replay here."""
        meta_path = self.root / _META_NAME
        if not meta_path.exists():
            return None
        frames = list(read_frames(meta_path))
        if not frames:
            raise ValueError(f"corrupt checkpoint metadata: {meta_path}")
        meta = frames[0]
        journal_format = meta.get("journal_format", 1)
        if journal_format != JOURNAL_FORMAT:
            raise ValueError(
                f"{self.root} holds journal format {journal_format}; this "
                f"build reads format {JOURNAL_FORMAT} -- start the fleet "
                "over in a fresh directory"
            )
        epoch = meta["epoch"]
        snapshots: dict[int, tuple] = {}
        prefix = f"snap-{epoch:08d}-w"
        for path in sorted(self.root.glob(f"{prefix}*.bin")):
            worker_id = int(path.name[len(prefix) : -len(".bin")])
            rows = list(read_frames(path))
            if not rows:
                raise ValueError(f"corrupt snapshot frame: {path}")
            snapshots[worker_id] = rows[0]
        return meta, snapshots
