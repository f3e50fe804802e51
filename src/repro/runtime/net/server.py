"""The ingestion server: remote producers, one fleet, delta push.

:class:`IngestServer` is the network face of the parallel runtime.  It
listens on TCP and/or a Unix-domain socket for length-prefixed frames
(:mod:`repro.runtime.net.wire`) from two kinds of peers -- *producers*
streaming ``(trace_id, wire_record)`` rows and *subscribers* tailing
the delta feed -- and drives one
:class:`~repro.runtime.parallel.ParallelFleet` over the whole shard
space.

Architecture (two thread layers, no shared mutable fleet state):

- **asyncio loop thread**: owns the listeners, every connection, the
  producer bookkeeping (sequence numbers, acks) and the fleet.  Each
  connection is one ``asyncio.BufferedProtocol``: the transport
  ``recv_into``s the connection's reused
  :class:`~repro.runtime.net.wire.FrameDecoder` buffer, and every frame
  a read completes is handled right there, in arrival order -- its
  rows checked, handed to the fleet in one ``ingest_wire_many`` call,
  its deltas staged and the frame acked, with no thread hop.  Queries
  from other threads run on this thread too.
- **worker threads/processes** under the fleet, as usual.

One fleet
    The fleet routes each row by the CRC32 ``shard_index_of`` of its
    trace id and keeps shard ``s`` on worker ``s % n_workers``; the
    server never hashes a row.  Per-trace record order is preserved
    end to end (FIFO connection, frames handled in arrival order, FIFO
    worker inbox), so every per-trace ratio is bit-identical to a
    serial fleet over the same records.  A sync barrier (``flush()``,
    ``report()``, ``violating_traces()``, the fleet shutdown in
    ``stop()``) posts to every worker before it collects any reply.

Exactly-once ingestion
    Producers number their ``produce`` frames.  The server tracks, per
    producer id, the highest sequence *taken in* (``seen``; replays at
    or below it are dropped) and the highest sequence *absorbed*
    (``acked``; advertised in ``welcome`` and in ``ack`` frames).  A
    frame is acked once the fleet has returned from
    ``ingest_wire_many`` -- at which point the rows are inside fleet
    buffers, in memory only: the server takes no durability.  Frames
    are handled one at a time, so they are acked in order.  A
    reconnecting producer resumes from the server's ``acked`` and
    replays its unacked tail; ``seen`` deduplicates, so a frame is
    ingested exactly once no matter how often the connection dies
    around it.  That bookkeeping lives in the server process, so
    exactly-once does not survive a server restart.

Backpressure
    Producers hold at most ``credit_window`` unacked frames.  The
    fleet's bounded worker inboxes (``inbox_capacity``) reach the
    producers through the loop itself: shipping to a full inbox blocks
    the loop thread, which then reads no socket and acks no frame
    until the worker catches up, so every producer's window fills and
    it waits.  Slow workers therefore stall producers, not memory --
    and while the loop is blocked, every connection waits, a
    ``metrics`` scrape and a query included.

Producer protocol (client side in :mod:`repro.runtime.net.client`):

==========================================  ========================
frame                                        direction / meaning
==========================================  ========================
``("hello", ver, "produce", producer_id)``  first client frame
``("welcome", ver, n_shards, acked,         server reply: resume
``  ``credit_window)``                      point + credit window
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
scrape never barriers the fleet (it does wait while the loop is
blocked on a full inbox).  Delta frames also carry the same readings
as their fifth element, refreshed at most every ``metrics_interval``
seconds, so long-lived subscribers get metrics pushed rather than
polling.

The query surface (``worst_ratio``, ``violating_traces``,
``report()``, ...) runs each call on the loop thread, between frames,
so callers on any thread get the fleet's answers without data races.
"""

from __future__ import annotations

import asyncio
import functools
import logging
import threading
import time
import traceback
from fractions import Fraction
from typing import Any, Callable

from repro.obs import metrics as _obs_metrics
from repro.runtime.net.deltas import DeltaStore
from repro.runtime.net.wire import (
    PROTOCOL_VERSION,
    FrameDecoder,
    ProtocolError,
    frame_bytes,
)
from repro.runtime.parallel import ParallelFleet
from repro.runtime.shard import FleetReport, TraceId

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


def _ignore(conn: _Connection, frame: Any) -> None:
    """The frame handler of a subscriber, which has nothing to say."""


class IngestServer:
    """Network ingestion plane over one :class:`ParallelFleet`.

    One thread, the event loop, serves every connection and drives the
    fleet; its workers run under it.  Shipping to a full worker inbox
    therefore blocks the whole server -- producers, subscribers,
    ``metrics`` scrapes and queries -- until that worker catches up,
    which is how backpressure reaches the producers.

    The fleet runs ``n_fronts * workers_per_front`` workers; only that
    product matters (the two names are kept for existing callers).  The
    other fleet arguments mirror :class:`~repro.runtime.parallel.
    ParallelFleet`, ``event_budget`` included: the fleet apportions it
    across its workers by live-event demand.  ``host``/``port`` open a
    TCP listener (``port=0`` picks a free port; ``host=None`` disables
    TCP), ``unix_path`` additionally/instead serves a Unix-domain
    socket.  ``credit_window`` is the max unacked frames advertised to
    each producer.  ``metrics_interval`` throttles how often the
    fleet's telemetry is staged into the delta stream (only relevant
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
        self._host, self._port = host, port
        self._unix_path = unix_path
        self._credit_window = credit_window
        # Built after every check of the server's own arguments: the
        # fleet validates its arguments before it starts a worker, so a
        # refused constructor leaves no worker behind.
        self._fleet = ParallelFleet(
            xi,
            n_workers=n_fronts * workers_per_front,
            n_shards=n_shards,
            batch_size=batch_size,
            event_budget=event_budget,
            backend=backend,
            start_method=start_method,
            wire_batch=wire_batch,
            inbox_capacity=inbox_capacity,
            monitor_specs=monitor_specs,
        )
        # The traceback of the last ingest call that raised.
        self._error: str | None = None
        self._metrics_at = 0.0  # monotonic time of the last staging
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
        connections (every frame read so far is already absorbed), shut
        the fleet down (its final barrier), publish the final deltas
        and end the subscriber streams."""
        with self._state_lock:
            if not self._started or self._stopped:
                self._stopped = True
                return
            self._stopped = True
        self._stopping = True
        loop, alive = self._loop, self._loop_thread
        if loop is not None and alive is not None and alive.is_alive():
            self._run_on_loop(self._close_network())
            # The fleet's shutdown is its final barrier, so retirement
            # and violations are final; the call path stages the final
            # deltas.  On the loop thread, a query still queued for it
            # finds the fleet shut down rather than half way.
            try:
                self._call(lambda fl: fl.shutdown())
            except Exception:  # pragma: no cover - crashed fleet
                pass
            self._run_on_loop(self._finish_stream())
            self._wait(lambda: self._n_subscribers == 0, timeout=10.0)
            self._run_on_loop(self._close())
            loop.call_soon_threadsafe(loop.stop)
            alive.join(timeout=10.0)
        else:
            self.deltas.close()
            self._fleet.shutdown()
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
        # Every transport must reach connection_lost, which closes its
        # socket, before the loop goes away.
        for connection in tuple(self._connections):
            connection.transport.abort()
        while self._connections:
            await asyncio.sleep(0)

    # ------------------------------------------------------------------
    # the fleet (loop thread)
    # ------------------------------------------------------------------

    def _ingest(self, rows: list[tuple] | tuple) -> None:
        try:
            self._fleet.ingest_wire_many(rows)
        except Exception:  # keep serving; surface it
            self._error = traceback.format_exc()
            logger.error("ingest batch failed:\n%s", self._error)
        self._stage_deltas()

    def _stage_deltas(self) -> None:
        fleet = self._fleet
        updates = fleet.drain_ratio_updates()
        if updates:
            self.deltas.update_ratios(updates)
        violations = fleet.drain_violations()
        if violations:
            self.deltas.extend_violations(violations)
        if self._metrics is not None:
            # Periodic metrics staging (throttled): cumulative readings
            # ride the delta stream and answer "metrics" request frames
            # without a barrier.
            now = time.monotonic()
            if now - self._metrics_at >= self._metrics_interval:
                self._metrics_at = now
                self.deltas.update_metrics(fleet.metrics_rows())
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
            # no barrier on the fleet.
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
                self._fleet.n_shards,
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
        # Every row is checked before any is ingested, so a frame is
        # taken in whole or not at all.  Routing is the fleet's job.
        try:
            for _trace_id, _record in rows:
                pass
        except (TypeError, ValueError):
            conn.refuse("produce row is not a (trace_id, wire_record) pair")
            return
        producer.seen = seq
        if obs is not None:
            self._accept_ns.observe(time.perf_counter_ns() - start)
            obs.frames.inc()
            obs.records.inc(len(rows))
        self._ingest(rows)
        # The fleet holds every row: the frame is absorbed.
        producer.acked = seq
        conn.send(("ack", seq))

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
        fn: Callable[[ParallelFleet], Any],
        timeout: float = 60.0,
    ) -> Any:
        """Run ``fn(fleet)`` on the loop thread, between frames, and
        return its result -- the only safe way to query the fleet.
        Inline when called there; from any other thread the call waits
        up to ``timeout`` seconds for the loop."""

        def run() -> Any:
            try:
                return fn(self._fleet)
            finally:
                self._stage_deltas()

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
                f"the fleet did not answer within {timeout}s"
            )
        if "error" in box:
            raise box["error"]
        return box["value"]

    @property
    def n_shards(self) -> int:
        return self._fleet.n_shards

    @property
    def ingested_records(self) -> int:
        return self._call(lambda fl: fl.ingested_records)

    def front_errors(self) -> tuple[str, ...]:
        """The traceback of the last ingest call that failed inside the
        fleet, if any (empty in healthy operation; the rows of a failed
        call are acked but lost, exactly like a crashed worker's
        tail)."""
        return () if self._error is None else (self._error,)

    def flush(self) -> None:
        """One sync barrier on the fleet (violations fire, deltas cut)."""
        self._call(lambda fl: fl.flush())

    def worst_ratio(self, trace_id: TraceId) -> Fraction | None:
        return self._call(lambda fl: fl.worst_ratio(trace_id))

    def is_degraded(self, trace_id: TraceId) -> bool:
        return self._call(lambda fl: fl.is_degraded(trace_id))

    def all_ratios(self) -> list[tuple[TraceId, Fraction | None]]:
        return self._call(lambda fl: fl.all_ratios())

    def worst_ratio_histogram(self) -> dict[Fraction | None, int]:
        return self._call(lambda fl: fl.worst_ratio_histogram())

    def top_k_riskiest(
        self, k: int
    ) -> list[tuple[TraceId, Fraction | None]]:
        return self._call(lambda fl: fl.top_k_riskiest(k))

    def violation_feed(self) -> tuple[tuple[int, TraceId], ...]:
        """Every violation row known so far, in the fleet's
        deterministic ``(tick, trace id)`` order."""
        return self._call(lambda fl: fl.violation_feed())

    def violating_traces(self) -> tuple[TraceId, ...]:
        return self._call(lambda fl: fl.violating_traces())

    def report(self) -> FleetReport:
        """The fleet's :class:`FleetReport` (one sync barrier)."""
        return self._call(lambda fl: fl.report())

    # ------------------------------------------------------------------
    # telemetry
    # ------------------------------------------------------------------

    def staged_metrics_rows(self) -> tuple[tuple, ...]:
        """The latest *staged* readings -- what a ``metrics`` request
        frame is answered from: the fleet's rows last staged into the
        delta store plus the server's own registry.  Never barriers the
        fleet; may lag by ``metrics_interval``."""
        row_sets = [self.deltas.metrics_rows()]
        if self._metrics is not None:
            row_sets.append(self._metrics.to_rows())
        return _obs_metrics.merge_row_sets(row_sets)

    def metrics_rows(self) -> tuple[tuple, ...]:
        """Fresh merged readings: the fleet is polled on the loop thread
        (each worker contributes its registry) and the server's own
        registry rides along.  Also refreshes the staged copy the delta
        stream and ``metrics`` frames serve."""
        self.deltas.update_metrics(self._call(lambda fl: fl.metrics_rows()))
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
