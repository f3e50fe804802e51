"""Stream framing for the network ingestion plane.

One frame format for the whole durability *and* network story:
``[length u32][crc32 u32][pickled payload]``, exactly the WAL format
of :mod:`repro.runtime.durable` (whose :func:`~repro.runtime.durable.
frame_bytes` is the single encoder).  A producer's wire frames and a
journal's frames are interchangeable bytes; the CRC turns a flipped
bit anywhere on the path into a clean :class:`ProtocolError` instead
of a silently corrupted monitor.

Payloads are pickled plain tuples (the codec discipline of
:mod:`repro.runtime.codec`).  Pickle over a socket means the transport
trusts its peers -- this plane is an *internal* service edge (producers
and dashboards inside one deployment), not an internet-facing API;
front it with authenticated transport if the network is not yours.

Two consumers of the same format live here, and they share one
decoder: :class:`FrameDecoder` owns a reused receive buffer that the
server's connections (``asyncio.BufferedProtocol``, see
:mod:`repro.runtime.net.server`) and the client side's blocking
:class:`FrameSocket` both ``recv_into``, and it decodes every complete
frame in place -- header, length bound, CRC, unpickle.
"""

from __future__ import annotations

import pickle
import socket
import zlib
from typing import Any, Iterator

from repro.runtime.durable import _HEADER, _MAX_FRAME, frame_bytes

__all__ = [
    "PROTOCOL_VERSION",
    "FrameDecoder",
    "FrameSocket",
    "ProtocolError",
    "frame_bytes",
]

# 3: the welcome frame carries no front count, ("welcome", ver,
# n_shards, acked, credit_window).  2: one produce-frame shape,
# ("produce", seq, rows); no columnar frame and no trailing fields.
PROTOCOL_VERSION = 3

# A receive buffer's starting size: under glibc's 128 KiB mmap
# threshold, so it comes from the heap once per connection.
_INITIAL_BUFFER = 1 << 16


class ProtocolError(RuntimeError):
    """The peer sent bytes that are not a valid frame, closed the
    stream mid-frame, or spoke the protocol out of order."""


class FrameDecoder:
    """Incremental frame decoding over one reused receive buffer.

    A reader calls :meth:`room` for a writable view of the buffer's
    free tail, ``recv_into`` it, reports the byte count to
    :meth:`filled` and takes every complete frame from :meth:`frames`.
    The bytes not yet consumed are ``buffer[start:end]``; a partial
    frame left at the tail moves to the front on the next
    :meth:`room`, and the buffer doubles while one frame does not fit
    (it never shrinks).  The buffer is never resized: the view
    :meth:`room` returned may still be alive while the frames are
    decoded (asyncio holds it across ``buffer_updated``), so moving
    bytes is an equal-length slice assignment and growth swaps in a
    new ``bytearray``.
    """

    __slots__ = ("_buf", "_start", "_end")

    def __init__(self) -> None:
        self._buf = bytearray(_INITIAL_BUFFER)
        self._start = 0
        self._end = 0

    @property
    def partial(self) -> bool:
        """Whether bytes of an incomplete frame are buffered (EOF now
        would cut a frame)."""
        return self._end > self._start

    def room(self) -> memoryview:
        """The buffer's free tail, to read into; never empty."""
        buf, start, end = self._buf, self._start, self._end
        if start:
            pending = end - start
            buf[:pending] = buf[start:end]
            self._start, self._end = 0, pending
            end = pending
        if end == len(buf):
            grown = bytearray(2 * end)
            grown[:end] = buf
            self._buf = grown
        return memoryview(self._buf)[end:]

    def filled(self, nbytes: int) -> None:
        """Account ``nbytes`` just read into the view :meth:`room`
        returned."""
        self._end += nbytes

    def frames(self) -> Iterator[Any]:
        """Yield each complete buffered frame in order, consuming it
        before it is yielded; stop at the first incomplete one.

        Raises :class:`ProtocolError` on an implausible length, a CRC
        mismatch or a payload that does not unpickle.
        """
        while self._end - self._start >= _HEADER.size:
            buf, start = self._buf, self._start
            length, crc = _HEADER.unpack_from(buf, start)
            if length == 0 or length > _MAX_FRAME:
                raise ProtocolError(f"implausible frame length {length}")
            stop = start + _HEADER.size + length
            if stop > self._end:
                return
            with memoryview(buf)[start + _HEADER.size : stop] as payload:
                if zlib.crc32(payload) != crc:
                    raise ProtocolError("frame CRC mismatch")
                # Malformed pickle bytes raise nearly anything
                # (UnpicklingError, EOFError, ValueError, ...).
                try:
                    frame = pickle.loads(payload)
                except Exception as exc:
                    raise ProtocolError(
                        f"frame payload does not unpickle: {exc!r}"
                    ) from None
            if stop == self._end:
                self._start = self._end = 0
            else:
                self._start = stop
            yield frame


class FrameSocket:
    """Framed messages over one blocking socket (the client side).

    Reads are buffered and *transactional*: a frame is consumed from
    the buffer only once it is complete, so a socket timeout mid-frame
    leaves the partial bytes buffered and the next call resumes them
    -- timeouts never corrupt framing.
    """

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self._decoder = FrameDecoder()

    def send(self, frame: Any) -> None:
        self.sock.sendall(frame_bytes(frame))

    def recv(self) -> Any | None:
        """One frame, or ``None`` on clean EOF.  Honors the socket's
        timeout setting (``socket.timeout`` propagates; in
        non-blocking mode an empty buffer raises ``BlockingIOError``).
        """
        decoder = self._decoder
        while True:
            for frame in decoder.frames():
                return frame
            with decoder.room() as room:
                nbytes = self.sock.recv_into(room)
            if not nbytes:
                if decoder.partial:
                    raise ProtocolError("connection closed mid-frame")
                return None
            decoder.filled(nbytes)

    def close(self) -> None:
        try:
            self.sock.close()
        except OSError:  # pragma: no cover - already gone
            pass
