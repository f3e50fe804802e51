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

Two consumers of the same format live here: an asyncio reader for the
server side (:func:`read_frame`) and a small buffered blocking-socket
wrapper for the client side (:class:`FrameSocket`).
"""

from __future__ import annotations

import asyncio
import pickle
import socket
import zlib
from typing import Any

from repro.runtime.durable import _HEADER, _MAX_FRAME, frame_bytes

__all__ = [
    "PROTOCOL_VERSION",
    "FrameSocket",
    "ProtocolError",
    "frame_bytes",
    "read_frame",
]

# 2: one produce-frame shape, ("produce", seq, rows); no columnar frame
# and no trailing fields.
PROTOCOL_VERSION = 2


class ProtocolError(RuntimeError):
    """The peer sent bytes that are not a valid frame, closed the
    stream mid-frame, or spoke the protocol out of order."""


async def read_frame(reader: asyncio.StreamReader) -> Any | None:
    """Read one frame from an asyncio stream; ``None`` on clean EOF.

    EOF *between* frames is the peer hanging up (normal); EOF inside a
    frame, an implausible length, or a CRC mismatch raises
    :class:`ProtocolError`.
    """
    try:
        header = await reader.readexactly(_HEADER.size)
    except asyncio.IncompleteReadError as exc:
        if exc.partial:
            raise ProtocolError("stream closed mid-frame header") from None
        return None
    length, crc = _HEADER.unpack(header)
    if length == 0 or length > _MAX_FRAME:
        raise ProtocolError(f"implausible frame length {length}")
    try:
        payload = await reader.readexactly(length)
    except asyncio.IncompleteReadError:
        raise ProtocolError("stream closed mid-frame payload") from None
    if zlib.crc32(payload) != crc:
        raise ProtocolError("frame CRC mismatch")
    return pickle.loads(payload)


class FrameSocket:
    """Framed messages over one blocking socket (the client side).

    Reads are buffered and *transactional*: a frame is consumed from
    the buffer only once it is complete, so a socket timeout mid-frame
    leaves the partial bytes buffered and the next call resumes them
    -- timeouts never corrupt framing.
    """

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self._buf = bytearray()

    def send(self, frame: Any) -> None:
        self.sock.sendall(frame_bytes(frame))

    def recv(self) -> Any | None:
        """One frame, or ``None`` on clean EOF.  Honors the socket's
        timeout setting (``socket.timeout`` propagates; in
        non-blocking mode an empty buffer raises ``BlockingIOError``).
        """
        while True:
            if len(self._buf) >= _HEADER.size:
                length, crc = _HEADER.unpack_from(self._buf, 0)
                if length == 0 or length > _MAX_FRAME:
                    raise ProtocolError(
                        f"implausible frame length {length}"
                    )
                total = _HEADER.size + length
                if len(self._buf) >= total:
                    payload = bytes(self._buf[_HEADER.size : total])
                    del self._buf[:total]
                    if zlib.crc32(payload) != crc:
                        raise ProtocolError("frame CRC mismatch")
                    return pickle.loads(payload)
            chunk = self.sock.recv(1 << 16)
            if not chunk:
                if self._buf:
                    raise ProtocolError("connection closed mid-frame")
                return None
            self._buf += chunk

    def close(self) -> None:
        try:
            self.sock.close()
        except OSError:  # pragma: no cover - already gone
            pass
