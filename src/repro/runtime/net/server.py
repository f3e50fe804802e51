"""The ingestion server: remote producers, sharded fronts, delta push.

:class:`IngestServer` is the network face of the parallel runtime.  It
listens on TCP and/or a Unix-domain socket for length-prefixed frames
(:mod:`repro.runtime.net.wire`) from two kinds of peers -- *producers*
streaming ``(trace_id, wire_record)`` rows and *subscribers* tailing
the delta feed -- and drives ``n_fronts`` ingestion fronts, each one
:class:`~repro.runtime.parallel.ParallelFleet` over a shard subset.

Architecture (two thread layers, no shared mutable fleet state):

- **asyncio loop thread**: owns the listeners, every connection, the
  producer bookkeeping (sequence numbers, acks), the row router and
  every front's fleet.  Each connection is one
  ``asyncio.BufferedProtocol``: the transport ``recv_into``s the
  connection's reused :class:`~repro.runtime.net.wire.FrameDecoder`
  buffer, and every frame a read completes is handled right there, in
  arrival order -- routed, handed to each front it touches through
  ``ingest_wire_many``, its deltas staged and the frame acked, with no
  thread hop.  Queries from other threads run on this thread too.
- **worker threads/processes** under each fleet, as usual.

Sharded fronts
    Front ``f`` of ``n`` owns shard subset ``{s : s % n == f}`` of one
    global ``n_shards`` space and stamps global ingest ticks
    ``f+1, f+1+n, f+1+2n, ...`` (``tick_start``/``tick_step``), so the
    fronts partition both the trace space and the tick space.  Rows
    are routed by the same CRC32 ``shard_index_of`` the fleets
    themselves use; per-trace record order is preserved end to end
    (FIFO connection, frames handled in arrival order, FIFO worker
    inbox), so every per-trace ratio is bit-identical to a serial
    fleet over the same records, and violation rows carry globally
    unique ticks that merge into one deterministic ``(tick, trace
    id)`` order.

Exactly-once ingestion
    Producers number their ``produce`` frames.  The server tracks, per
    producer id, the highest sequence *taken in* (``seen``; replays at
    or below it are dropped) and the highest sequence *absorbed*
    (``acked``; advertised in ``welcome`` and in ``ack`` frames).  A
    frame is acked once every front holding one of its rows has
    returned from ``ingest_wire_many`` -- at which point the rows are
    inside fleet buffers, in memory only: the server takes no
    durability.  Frames are handled one at a time, so they are acked
    in order.  A reconnecting producer resumes from the server's
    ``acked`` and replays its unacked tail; ``seen`` deduplicates, so a
    frame is ingested exactly once no matter how often the connection
    dies around it.  That bookkeeping lives in the server process, so
    exactly-once does not survive a server restart.

Backpressure
    Producers hold at most ``credit_window`` unacked frames.  The
    fleets' bounded worker inboxes (``inbox_capacity``) reach the
    producers through the loop itself: a front shipping to a full
    inbox blocks the loop thread, which then reads no socket and acks
    no frame until the worker catches up, so every producer's window
    fills and it waits.  Slow workers therefore stall producers, not
    memory -- and while the loop is blocked, every connection waits,
    a ``metrics`` scrape and a query included.

Producer protocol (client side in :mod:`repro.runtime.net.client`):

==========================================  ========================
frame                                        direction / meaning
==========================================  ========================
``("hello", ver, "produce", producer_id)``  first client frame
``("welcome", ver, n_fronts, n_shards,      server reply: resume
``  ``acked, credit_window)``               point + credit window
``("produce", seq, rows)``                  numbered row batch:
                                            ``seq`` an int, ``rows``
                                            a list or tuple of
                                            ``(trace_id, wire_record)``
                                            pairs
``("ack", acked)``                          highest absorbed seq
``("bye",)``                                clean producer exit
``("error", message)``                      protocol failure
==========================================  ========================

A frame of any other shape draws an ``error`` frame and closes the
connection before any of its rows is ingested.  Bytes that are not a
frame at all (an implausible length, a CRC mismatch, a payload that
does not unpickle) close the connection without an answer; either way
the producer's ``seen`` and ``acked`` stay where they were, so the
client reconnects and replays.

Subscribers send ``("hello", ver, "subscribe", name)`` and then just
read: a ``snapshot`` frame, ``delta`` frames as ingestion progresses,
and ``end`` at shutdown (:mod:`repro.runtime.net.deltas`).  The
subscriber's delta-store sink writes each frame to its transport; the
server publishes on the loop thread, so those writes happen there.

A third role, ``("hello", ver, "metrics", name)``, is a one-shot
telemetry scrape: the server answers ``("metrics", rows)`` -- the
latest staged instrument readings (see
:meth:`IngestServer.staged_metrics_rows`) -- and closes.  Answered
inline on the loop thread from the delta store's staged copy, so a
scrape never barriers a front (it does wait while the loop is blocked
on a full inbox).  Delta frames also carry the same readings as their
fifth element, refreshed every ``metrics_interval`` seconds per front,
so long-lived subscribers get metrics pushed rather than polling.

The query surface (``worst_ratio``, ``violating_traces``,
``report()``, ...) runs each call on the loop thread, between frames,
so callers on any thread get the fleets' answers without data races.
"""

from __future__ import annotations

import asyncio
import functools
import logging
import threading
import time
import traceback
from fractions import Fraction
from typing import Any, Callable, Iterable

from repro.obs import metrics as _obs_metrics
from repro.runtime.net.deltas import DeltaStore
from repro.runtime.net.wire import (
    PROTOCOL_VERSION,
    FrameDecoder,
    ProtocolError,
    frame_bytes,
)
from repro.runtime.parallel import ParallelFleet
from repro.runtime.shard import (
    FleetReport,
    TraceId,
    ratio_histogram,
    shard_index_of,
    top_k_riskiest,
)

__all__ = ["IngestServer"]

logger = logging.getLogger(__name__)


class _ProducerObs:
    """Per-producer ingest instruments (``producer`` label).

    All wall-clock shaped -- frame arrival, replay and dedup depend on
    the network -- so none are in the deterministic dump."""

    __slots__ = ("frames", "records")

    def __init__(
        self, registry: "_obs_metrics.MetricsRegistry", name: str
    ) -> None:
        labels = (("producer", name),)
        self.frames = registry.counter(
            "repro_net_produced_frames_total",
            labels,
            deterministic=False,
            help="produce frames accepted (replays excluded)",
        )
        self.records = registry.counter(
            "repro_net_produced_records_total",
            labels,
            deterministic=False,
            help="records accepted from this producer",
        )


class _Producer:
    """Per-producer-id ingestion bookkeeping (survives reconnects)."""

    __slots__ = ("name", "seen", "acked", "writer", "obs")

    def __init__(
        self,
        name: str,
        registry: "_obs_metrics.MetricsRegistry | None" = None,
    ) -> None:
        self.name = name
        self.seen = 0  # highest seq ever taken in (dedup floor)
        self.acked = 0  # highest absorbed seq
        # The transport of the producer's live connection (a newer one
        # closes it); None while it is disconnected.
        self.writer: asyncio.Transport | None = None
        self.obs = (
            None if registry is None else _ProducerObs(registry, name)
        )


class _Connection(asyncio.BufferedProtocol):
    """One peer connection, served on the loop thread.

    The transport reads into the connection's :class:`FrameDecoder`
    (:meth:`get_buffer`), and :meth:`buffer_updated` hands each frame
    the read completed to ``handle(connection, frame)``: the server's
    hello handler first, then the handler of the role the hello chose.
    Bytes that are not a valid frame close the connection unanswered;
    a handler that closes the transport stops the rest of the read.
    """

    def __init__(self, server: "IngestServer") -> None:
        self.server = server
        self.decoder = FrameDecoder()
        self.transport: asyncio.Transport | None = None
        self.handle: Callable[[_Connection, Any], None] = server._hello
        self.producer: _Producer | None = None
        self.subscribed = False
        # A subscriber's frames published before its snapshot went out
        # (a closed store hands over its end marker first).
        self.held: list[tuple] | None = None

    def connection_made(self, transport: asyncio.Transport) -> None:
        self.transport = transport
        self.server._connections.add(self)

    def get_buffer(self, sizehint: int) -> memoryview:
        return self.decoder.room()

    def buffer_updated(self, nbytes: int) -> None:
        self.decoder.filled(nbytes)
        transport = self.transport
        try:
            for frame in self.decoder.frames():
                self.handle(self, frame)
                if transport.is_closing():
                    return
        except ProtocolError:
            transport.close()  # a misbehaving peer; its state is resumable

    def connection_lost(self, exc: Exception | None) -> None:
        self.server._drop(self)

    def send(self, frame: tuple) -> None:
        self.transport.write(frame_bytes(frame))

    def refuse(self, message: str) -> None:
        """Answer with an ``error`` frame and hang up."""
        self.send(("error", message))
        self.transport.close()

    def deliver(self, frame: tuple) -> None:
        """The subscriber's delta-store sink (runs where the store
        publishes: the loop thread)."""
        if self.held is not None:
            self.held.append(frame)
        elif not self.transport.is_closing():
            self.send(frame)
            if frame[0] == "end":
                self.transport.close()


class _Front:
    """One ingestion front: a fleet over a shard subset, driven by the
    loop thread."""

    __slots__ = ("index", "fleet", "error", "metrics_at")

    def __init__(self, index: int, fleet: ParallelFleet) -> None:
        self.index = index
        self.fleet = fleet
        self.error: str | None = None
        self.metrics_at = 0.0  # monotonic time of the last staging


def _ignore(conn: _Connection, frame: Any) -> None:
    """The frame handler of a subscriber, which has nothing to say."""


def _label_rows(rows: Iterable[tuple], key: str, value: str) -> tuple:
    """Re-key serialized instrument rows with an extra label pair, so
    identically named instruments from different sources (fronts)
    stay distinct series instead of clobbering each other."""
    labeled = []
    for kind, name, labels, deterministic, payload in rows:
        new_labels = tuple(sorted((*labels, (key, value))))
        labeled.append((kind, name, new_labels, deterministic, payload))
    return tuple(labeled)


class IngestServer:
    """Network ingestion plane over ``n_fronts`` sharded fleet fronts.

    One thread, the event loop, serves every connection and drives
    every front's fleet; the fleets' workers run under it.  A front
    shipping to a full worker inbox therefore blocks the whole server
    -- producers, subscribers, ``metrics`` scrapes and queries -- until
    that worker catches up, which is how backpressure reaches the
    producers.

    Args mirror :class:`~repro.runtime.parallel.ParallelFleet` where
    they configure the per-front fleets; ``event_budget`` is a global
    cap split evenly across fronts.  ``host``/``port`` open a TCP
    listener (``port=0`` picks a free port; ``host=None`` disables
    TCP), ``unix_path`` additionally/instead serves a Unix-domain
    socket.  ``credit_window`` is the max unacked frames advertised to
    each producer.  ``metrics_interval`` throttles how often each
    front's telemetry is staged into the delta stream (only relevant
    with ``REPRO_OBS`` on).

    Use as a context manager, or call :meth:`start` / :meth:`stop`.
    """

    def __init__(
        self,
        xi: Fraction | float | int | str | None = None,
        *,
        n_fronts: int = 2,
        workers_per_front: int = 1,
        n_shards: int | None = None,
        host: str | None = "127.0.0.1",
        port: int = 0,
        unix_path: str | None = None,
        backend: str = "thread",
        start_method: str | None = None,
        batch_size: int = 32,
        event_budget: int | None = None,
        wire_batch: int = 256,
        inbox_capacity: int = 16,
        credit_window: int = 32,
        monitor_specs: Any = None,
        metrics_interval: float = 0.5,
    ) -> None:
        if n_fronts < 1:
            raise ValueError("need at least one front")
        if workers_per_front < 1:
            raise ValueError("need at least one worker per front")
        if credit_window < 1:
            raise ValueError("credit_window must be positive")
        if host is None and unix_path is None:
            raise ValueError("need a TCP host or a unix_path to listen on")
        if n_shards is None:
            n_shards = max(8, n_fronts * workers_per_front)
        if n_shards < n_fronts * workers_per_front:
            raise ValueError(
                f"{n_shards} shards cannot cover {n_fronts} fronts x "
                f"{workers_per_front} workers"
            )
        self._n_shards = n_shards
        self._host, self._port = host, port
        self._unix_path = unix_path
        self._credit_window = credit_window
        self._fronts: list[_Front] = []
        for f in range(n_fronts):
            share = None
            if event_budget is not None:
                share = event_budget // n_fronts + (
                    1 if f < event_budget % n_fronts else 0
                )
            fleet = ParallelFleet(
                xi,
                n_workers=workers_per_front,
                n_shards=n_shards,
                batch_size=batch_size,
                event_budget=share,
                backend=backend,
                start_method=start_method,
                wire_batch=wire_batch,
                inbox_capacity=inbox_capacity,
                monitor_specs=monitor_specs,
                shard_subset=tuple(
                    s for s in range(n_shards) if s % n_fronts == f
                ),
                tick_start=f + 1,
                tick_step=n_fronts,
            )
            self._fronts.append(_Front(f, fleet))
        self.deltas = DeltaStore()
        # The server's own registry (per-producer counters, subscriber
        # gauge, front_accept spans); None keeps every hook one
        # attribute test when telemetry is off.
        self._metrics = _obs_metrics.registry_if_enabled()
        self._metrics_interval = metrics_interval
        self._accept_ns = (
            None
            if self._metrics is None
            else self._metrics.histogram(
                "repro_stage_ns",
                (("stage", "front_accept"),),
                help="per-stage record-lifecycle latency",
            )
        )
        self._subscribers_gauge = (
            None
            if self._metrics is None
            else self._metrics.gauge(
                "repro_net_subscribers",
                help="connected delta-stream subscribers",
            )
        )
        self.address: tuple[str, int] | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._loop_thread: threading.Thread | None = None
        self._tcp_server: asyncio.AbstractServer | None = None
        self._unix_server: asyncio.AbstractServer | None = None
        self._producers: dict[str, _Producer] = {}
        self._connections: set[_Connection] = set()
        self._n_subscribers = 0
        self._publish_scheduled = False
        self._state_lock = threading.Lock()
        self._started = False
        self._stopping = False
        self._stopped = False

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def start(self) -> "IngestServer":
        with self._state_lock:
            if self._started:
                raise RuntimeError("server already started")
            self._started = True
        self._loop = asyncio.new_event_loop()
        ready = threading.Event()

        def run() -> None:
            asyncio.set_event_loop(self._loop)
            self._loop.call_soon(ready.set)
            self._loop.run_forever()

        self._loop_thread = threading.Thread(
            target=run, name="ingest-loop", daemon=True
        )
        self._loop_thread.start()
        ready.wait()
        try:
            self._run_on_loop(self._open_listeners())
        except BaseException:
            self.stop()
            raise
        return self

    def __enter__(self) -> "IngestServer":
        return self.start()

    def __exit__(self, *exc: Any) -> None:
        self.stop()

    def _run_on_loop(self, coro: Any, timeout: float = 60.0) -> Any:
        assert self._loop is not None
        future = asyncio.run_coroutine_threadsafe(coro, self._loop)
        return future.result(timeout)

    async def _open_listeners(self) -> None:
        loop = asyncio.get_running_loop()
        connection = functools.partial(_Connection, self)
        if self._host is not None:
            self._tcp_server = await loop.create_server(
                connection, self._host, self._port
            )
            self.address = self._tcp_server.sockets[0].getsockname()[:2]
        if self._unix_path is not None:
            self._unix_server = await loop.create_unix_server(
                connection, path=self._unix_path
            )

    def stop(self) -> None:
        """Drain and shut down: close listeners and producer
        connections (every frame read so far is already absorbed),
        flush every front, publish the final deltas, end the subscriber
        streams, shut the fleets down."""
        with self._state_lock:
            if not self._started or self._stopped:
                self._stopped = True
                return
            self._stopped = True
        self._stopping = True
        loop, alive = self._loop, self._loop_thread
        if loop is not None and alive is not None and alive.is_alive():
            self._run_on_loop(self._close_network())
            # Final barrier per front so retirement/violations are
            # final, then final deltas (the call path stages them).
            for front in self._fronts:
                try:
                    self._call(front, lambda fl: fl.flush())
                except Exception:  # pragma: no cover - crashed fleet
                    pass
            self._run_on_loop(self._finish_stream())
            self._wait(lambda: self._n_subscribers == 0, timeout=10.0)
            self._run_on_loop(self._close())
            loop.call_soon_threadsafe(loop.stop)
            alive.join(timeout=10.0)
        else:
            self.deltas.close()
            for front in self._fronts:
                front.fleet.shutdown()
        if loop is not None:
            loop.close()

    @staticmethod
    def _wait(done: Callable[[], bool], timeout: float) -> None:
        deadline = time.monotonic() + timeout
        while not done() and time.monotonic() < deadline:
            time.sleep(0.005)

    async def _close_network(self) -> None:
        for server in (self._tcp_server, self._unix_server):
            if server is not None:
                server.close()
        # Producer transports: a closed transport reads no more, so no
        # frame is ingested after this coroutine returns.  A connection
        # still without a hello is refused from here on.
        for producer in self._producers.values():
            if producer.writer is not None:
                producer.writer.close()

    async def _finish_stream(self) -> None:
        # On the loop thread: a final publish of anything staged, then
        # end frames; each subscriber hangs up once its end is written.
        self.deltas.close()

    async def _close(self) -> None:
        # The fleets shut down on the loop thread, so a query still
        # queued for it finds them shut down rather than half way.
        for front in self._fronts:
            front.fleet.shutdown()
        # Every transport must reach connection_lost, which closes its
        # socket, before the loop goes away.
        for connection in tuple(self._connections):
            connection.transport.abort()
        while self._connections:
            await asyncio.sleep(0)

    # ------------------------------------------------------------------
    # fronts (loop thread)
    # ------------------------------------------------------------------

    def _ingest(self, front: _Front, rows: list[tuple]) -> None:
        try:
            front.fleet.ingest_wire_many(rows)
        except Exception:  # keep serving; surface it
            front.error = traceback.format_exc()
            logger.error(
                "ingest batch failed on front %d:\n%s",
                front.index,
                front.error,
            )
        self._stage_deltas(front)

    def _stage_deltas(self, front: _Front) -> None:
        fleet = front.fleet
        updates = fleet.drain_ratio_updates()
        if updates:
            self.deltas.update_ratios(updates)
        violations = fleet.drain_violations()
        if violations:
            self.deltas.extend_violations(violations)
        if self._metrics is not None:
            # Periodic metrics staging (throttled per front): cumulative
            # readings ride the delta stream and answer "metrics"
            # request frames without a barrier.
            now = time.monotonic()
            if now - front.metrics_at >= self._metrics_interval:
                front.metrics_at = now
                self.deltas.update_metrics(
                    _label_rows(
                        fleet.metrics_rows(), "front", str(front.index)
                    )
                )
        if not self._publish_scheduled and self.deltas.dirty:
            # One publish per loop turn, after the frames of this read.
            self._publish_scheduled = True
            self._loop.call_soon(self._publish)

    def _publish(self) -> None:
        # Sinks write to subscriber transports, safe on the loop thread.
        self._publish_scheduled = False
        self.deltas.publish()

    # ------------------------------------------------------------------
    # connections (loop thread)
    # ------------------------------------------------------------------

    def _hello(self, conn: _Connection, hello: Any) -> None:
        """A connection's first frame: check it and start its role."""
        if (
            not isinstance(hello, tuple)
            or len(hello) != 4
            or hello[0] != "hello"
        ):
            conn.refuse("expected hello")
            return
        _kind, version, role, name = hello
        if version != PROTOCOL_VERSION:
            conn.refuse(f"protocol {version} != {PROTOCOL_VERSION}")
        elif role == "produce":
            self._start_producer(conn, str(name))
        elif role == "subscribe":
            self._start_subscriber(conn)
        elif role == "metrics":
            # One-shot: the latest staged readings (plus the server's
            # own registry), answered inline from the loop thread --
            # no barrier on any front.
            conn.send(("metrics", self.staged_metrics_rows()))
            conn.transport.close()
        else:
            conn.refuse(f"unknown role {role!r}")

    def _start_producer(self, conn: _Connection, name: str) -> None:
        if self._stopping:
            conn.refuse("server is stopping")
            return
        producer = self._producers.get(name)
        if producer is None:
            producer = self._producers[name] = _Producer(
                name, self._metrics
            )
        # Newest connection wins: preempt any stale one for this id.
        if producer.writer is not None:
            producer.writer.close()
        producer.writer = conn.transport
        conn.producer = producer
        conn.handle = self._produce
        conn.send(
            (
                "welcome",
                PROTOCOL_VERSION,
                len(self._fronts),
                self._n_shards,
                producer.acked,
                self._credit_window,
            )
        )

    def _produce(self, conn: _Connection, frame: Any) -> None:
        """One frame from a producer after its welcome."""
        if not isinstance(frame, tuple) or not frame:
            conn.refuse("expected a tuple")
            return
        if frame[0] == "bye":
            conn.transport.close()
            return
        if frame[0] != "produce":
            conn.refuse(f"unexpected {frame[0]!r}")
            return
        if not (
            len(frame) == 3
            and type(frame[1]) is int
            and isinstance(frame[2], (list, tuple))
        ):
            conn.refuse("expected ('produce', int seq, rows)")
            return
        _kind, seq, rows = frame
        producer = conn.producer
        if seq <= producer.seen:
            return  # replay of an already-ingested frame
        if seq != producer.seen + 1:
            conn.refuse(
                f"sequence gap: expected {producer.seen + 1}, got {seq}"
            )
            return
        obs = producer.obs
        start = 0 if obs is None else time.perf_counter_ns()
        try:
            by_front = self._route(rows)
        except ValueError as exc:
            conn.refuse(str(exc))
            return
        producer.seen = seq
        if obs is not None:
            self._accept_ns.observe(time.perf_counter_ns() - start)
            obs.frames.inc()
            obs.records.inc(len(rows))
        for front_index, front_rows in by_front.items():
            self._ingest(self._fronts[front_index], front_rows)
        # Every front holding a row has it: the frame is absorbed.
        producer.acked = seq
        conn.send(("ack", seq))

    def _route(self, rows: Iterable[tuple]) -> dict[int, list[tuple]]:
        """Split a produce frame's rows by front; raises ``ValueError``
        if a row is not a ``(trace_id, wire_record)`` pair, before any
        row is ingested."""
        n_fronts, n_shards = len(self._fronts), self._n_shards
        by_front: dict[int, list[tuple]] = {}
        for row in rows:
            try:
                trace_id, _record = row
            except (TypeError, ValueError):
                raise ValueError(
                    "produce row is not a (trace_id, wire_record) pair"
                ) from None
            front_index = shard_index_of(trace_id, n_shards) % n_fronts
            by_front.setdefault(front_index, []).append(row)
        return by_front

    def _start_subscriber(self, conn: _Connection) -> None:
        conn.handle = _ignore  # a subscriber only reads
        conn.subscribed = True
        self._n_subscribers += 1
        if self._subscribers_gauge is not None:
            self._subscribers_gauge.inc()
        # The snapshot goes out first, then whatever the store handed
        # the sink meanwhile (on a closed store, its end marker).
        conn.held = []
        snapshot = self.deltas.subscribe(conn.deliver)
        held, conn.held = conn.held, None
        conn.send(snapshot)
        for frame in held:
            conn.deliver(frame)

    def _drop(self, conn: _Connection) -> None:
        """A connection is gone (its transport reached connection_lost)."""
        self._connections.discard(conn)
        producer = conn.producer
        if producer is not None and producer.writer is conn.transport:
            producer.writer = None
        if conn.subscribed:
            self.deltas.unsubscribe(conn.deliver)
            self._n_subscribers -= 1
            if self._subscribers_gauge is not None:
                self._subscribers_gauge.dec()

    # ------------------------------------------------------------------
    # the marshaled query surface
    # ------------------------------------------------------------------

    def _call(
        self,
        front: _Front,
        fn: Callable[[ParallelFleet], Any],
        timeout: float = 60.0,
    ) -> Any:
        """Run ``fn(fleet)`` on the loop thread, between frames, and
        return its result -- the only safe way to query a front's
        fleet.  Inline when called there; from any other thread the
        call waits up to ``timeout`` seconds for the loop."""

        def run() -> Any:
            try:
                return fn(front.fleet)
            finally:
                self._stage_deltas(front)

        if threading.current_thread() is self._loop_thread:
            return run()
        if self._loop is None:
            raise RuntimeError("the server has not been started")
        box: dict[str, Any] = {}
        done = threading.Event()

        def on_loop() -> None:
            try:
                box["value"] = run()
            except BaseException as exc:  # re-raised on the caller's thread
                box["error"] = exc
            finally:
                done.set()

        self._loop.call_soon_threadsafe(on_loop)
        if not done.wait(timeout):
            raise TimeoutError(
                f"front {front.index} did not answer within {timeout}s"
            )
        if "error" in box:
            raise box["error"]
        return box["value"]

    def _front_of(self, trace_id: TraceId) -> _Front:
        index = shard_index_of(trace_id, self._n_shards)
        return self._fronts[index % len(self._fronts)]

    @property
    def n_fronts(self) -> int:
        return len(self._fronts)

    @property
    def n_shards(self) -> int:
        return self._n_shards

    @property
    def ingested_records(self) -> int:
        return sum(
            self._call(front, lambda fl: fl.ingested_records)
            for front in self._fronts
        )

    def front_errors(self) -> tuple[str, ...]:
        """Tracebacks of ingest batches that failed inside a front
        (empty in healthy operation; the rows of a failed batch are
        acked but lost, exactly like a crashed worker's tail)."""
        return tuple(f.error for f in self._fronts if f.error is not None)

    def flush(self) -> None:
        """Sync barrier on every front (violations fire, deltas cut)."""
        for front in self._fronts:
            self._call(front, lambda fl: fl.flush())

    def worst_ratio(self, trace_id: TraceId) -> Fraction | None:
        front = self._front_of(trace_id)
        return self._call(front, lambda fl: fl.worst_ratio(trace_id))

    def is_degraded(self, trace_id: TraceId) -> bool:
        front = self._front_of(trace_id)
        return self._call(front, lambda fl: fl.is_degraded(trace_id))

    def all_ratios(self) -> list[tuple[TraceId, Fraction | None]]:
        out: list[tuple[TraceId, Fraction | None]] = []
        for front in self._fronts:
            out.extend(self._call(front, lambda fl: fl.all_ratios()))
        return out

    def worst_ratio_histogram(self) -> dict[Fraction | None, int]:
        return ratio_histogram(self.all_ratios())

    def top_k_riskiest(
        self, k: int
    ) -> list[tuple[TraceId, Fraction | None]]:
        return top_k_riskiest(self.all_ratios(), k)

    def violation_feed(self) -> tuple[tuple[int, TraceId], ...]:
        """All fronts' violation rows in one deterministic merged order
        (front ticks are disjoint, so a plain sort interleaves them
        exactly as a single fleet would have stamped them)."""
        rows: list[tuple[int, TraceId]] = []
        for front in self._fronts:
            rows.extend(self._call(front, lambda fl: fl.violation_feed()))
        return tuple(sorted(rows, key=lambda n: (n[0], str(n[1]))))

    def violating_traces(self) -> tuple[TraceId, ...]:
        self.flush()
        return tuple(
            dict.fromkeys(tid for _t, tid in self.violation_feed())
        )

    def report(self) -> FleetReport:
        """One merged :class:`FleetReport` across every front (sync
        barrier).  Counters sum; ``peak_live_events`` sums the fronts'
        epoch watermarks (a sound upper bound on the global peak);
        violating traces merge in global tick order."""
        reports = [
            self._call(front, lambda fl: fl.report())
            for front in self._fronts
        ]
        shards = sorted(
            (s for r in reports for s in r.shards), key=lambda s: s.shard
        )
        violating = tuple(
            dict.fromkeys(tid for _t, tid in self.violation_feed())
        )
        first = reports[0]
        return FleetReport(
            xi=first.xi,
            n_shards=self._n_shards,
            batch_size=first.batch_size,
            event_budget=sum(
                (r.event_budget or 0) for r in reports
            )
            or None,
            open_traces=sum(r.open_traces for r in reports),
            retired_traces=sum(r.retired_traces for r in reports),
            records=sum(r.records for r in reports),
            flushes=sum(r.flushes for r in reports),
            oracle_calls=sum(r.oracle_calls for r in reports),
            live_events=sum(r.live_events for r in reports),
            peak_live_events=sum(r.peak_live_events for r in reports),
            tombstoned_events=sum(r.tombstoned_events for r in reports),
            evictions=sum(r.evictions for r in reports),
            summary_compactions=sum(
                r.summary_compactions for r in reports
            ),
            summary_edges=sum(r.summary_edges for r in reports),
            budget_overruns=sum(r.budget_overruns for r in reports),
            degraded_traces=sum(r.degraded_traces for r in reports),
            violating_traces=violating,
            shards=tuple(shards),
            crashed_shards=tuple(
                s for r in reports for s in r.crashed_shards
            ),
        )

    # ------------------------------------------------------------------
    # telemetry
    # ------------------------------------------------------------------

    def staged_metrics_rows(self) -> tuple[tuple, ...]:
        """The latest *staged* readings -- what a ``metrics`` request
        frame is answered from: front rows last staged into the delta
        store (front-labeled) plus the server's own registry.  Never
        blocks on a front thread; may lag by ``metrics_interval``."""
        row_sets = [self.deltas.metrics_rows()]
        if self._metrics is not None:
            row_sets.append(self._metrics.to_rows())
        return _obs_metrics.merge_row_sets(row_sets)

    def metrics_rows(self) -> tuple[tuple, ...]:
        """Fresh merged readings: every front's fleet is polled on its
        own thread (each worker contributes its registry), rows are
        labeled ``front=<index>`` so identically named per-front
        instruments stay distinct series, and the server's own
        registry rides along.  Also refreshes the staged copy the
        delta stream and ``metrics`` frames serve."""
        for front in self._fronts:
            rows = self._call(front, lambda fl: fl.metrics_rows())
            self.deltas.update_metrics(
                _label_rows(rows, "front", str(front.index))
            )
        return self.staged_metrics_rows()

    def metrics_snapshot(self, *, deterministic_only: bool = False) -> dict:
        """Fresh merged readings as a JSON-able dict (the
        :meth:`repro.obs.metrics.MetricsRegistry.to_json` shape)."""
        return _obs_metrics.rows_to_json(
            self.metrics_rows(), deterministic_only=deterministic_only
        )

    def render_prometheus(self) -> str:
        """Fresh merged readings in Prometheus text exposition format
        (empty when telemetry is disabled)."""
        registry = _obs_metrics.MetricsRegistry()
        registry.merge_rows(self.metrics_rows())
        return registry.render_prometheus()
