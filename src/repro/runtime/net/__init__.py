"""The network ingestion plane: remote producers into one fleet.

This package puts the parallel runtime behind a socket:

* :mod:`repro.runtime.net.wire` -- length-prefixed CRC-checked frame
  streaming (the WAL frame format of :mod:`repro.runtime.durable`,
  reused verbatim on the network);
* :mod:`repro.runtime.net.server` -- :class:`IngestServer`: an asyncio
  server (TCP and/or Unix-domain) whose one event-loop thread feeds
  one :class:`~repro.runtime.parallel.ParallelFleet` over the whole
  shard space, with exactly-once producer resume and credit-window
  backpressure;
* :mod:`repro.runtime.net.client` -- :class:`ProducerClient` (batching,
  replay-on-reconnect, windowed) and :class:`DeltaSubscriber`;
* :mod:`repro.runtime.net.deltas` -- :class:`DeltaStore` /
  :class:`DeltaView`: delta-streaming observability, reconstructing
  the fleet's aggregate reports from incremental updates alone.
"""

from repro.runtime.net.client import DeltaSubscriber, ProducerClient
from repro.runtime.net.deltas import DeltaStore, DeltaView
from repro.runtime.net.server import IngestServer
from repro.runtime.net.wire import FrameSocket, ProtocolError

__all__ = [
    "DeltaStore",
    "DeltaSubscriber",
    "DeltaView",
    "FrameSocket",
    "IngestServer",
    "ProducerClient",
    "ProtocolError",
]
