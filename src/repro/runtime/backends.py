"""Execution backends: where worker shard groups actually run.

A backend's single job is to put :func:`repro.runtime.worker.worker_main`
somewhere with a bounded inbox and an outbox, and to answer "is that
worker still alive?".  Two implementations:

* :class:`ProcessBackend` -- one OS process per worker
  (``multiprocessing``; ``fork`` where available, ``spawn`` otherwise).
  The real-parallelism backend: workers bypass the GIL, so a fleet's
  oracle work scales with cores.
* :class:`ThreadBackend` -- one daemon thread per worker with plain
  ``queue.Queue`` pipes.  No parallel speedup (the GIL serializes the
  oracle), but identical protocol semantics with zero process-spawn
  overhead and in-process tracebacks: the debugging and
  low-overhead-correctness backend.

Both expose the same :class:`WorkerHandle` surface; the dispatcher in
:mod:`repro.runtime.parallel` never branches on the backend.  Bounded
inboxes are the backpressure mechanism: a ``put`` into a full inbox
blocks (in timeout slices probing liveness), so a dispatcher can never
run unboundedly ahead of a slow worker, and a dead worker turns the
block into :class:`WorkerCrashed` instead of a hang.
"""

from __future__ import annotations

import gc
import logging
import multiprocessing
import queue
import threading
import time
from collections import deque
from typing import Any, Callable, Iterable

from repro.runtime.worker import worker_main

__all__ = [
    "ProcessBackend",
    "ThreadBackend",
    "WorkerCrashed",
    "WorkerHandle",
]

logger = logging.getLogger(__name__)

# Seconds between liveness probes while blocked on a full inbox or an
# empty outbox; purely an upper bound on crash-detection latency.
_PROBE_INTERVAL = 0.05


class WorkerCrashed(RuntimeError):
    """A worker died (crash message received, or its process/thread is
    gone); the message names the worker and -- whenever the worker
    managed to send one -- carries the original traceback, both in the
    message text and as :attr:`worker_traceback`."""

    def __init__(
        self,
        message: str,
        worker_id: int | None = None,
        worker_traceback: str | None = None,
    ) -> None:
        super().__init__(message)
        self.worker_id = worker_id
        self.worker_traceback = worker_traceback


class WorkerHandle:
    """One live worker: its queues plus backend-specific liveness."""

    def __init__(
        self,
        worker_id: int,
        inbox: Any,
        outbox: Any,
        is_alive: Callable[[], bool],
        join: Callable[[float], None],
    ) -> None:
        self.worker_id = worker_id
        self.inbox = inbox
        self.outbox = outbox
        self._is_alive = is_alive
        self._join = join
        # Messages salvaged from the outbox while building a crash
        # diagnosis; served to the dispatcher ahead of the queue so the
        # salvage never steals replies or notices.
        self._salvaged: deque[tuple] = deque()
        # The worker's crash traceback, once seen (crash frames are
        # recorded on every read path, then *also* delivered).
        self.crash_traceback: str | None = None
        self._crash_logged = False
        # Backpressure accounting, always on (the Full branch is the
        # slow path already): ship attempts that blocked, and for how
        # long.  The dispatcher folds these into its metrics registry.
        self.stall_count = 0
        self.stall_ns = 0

    def alive(self) -> bool:
        return self._is_alive()

    def depth(self) -> int:
        """Best-effort inbox depth (0 where the platform's queue cannot
        say, e.g. ``qsize`` on macOS)."""
        try:
            return self.inbox.qsize()
        except (NotImplementedError, OSError):
            return 0

    def _note(self, message: tuple) -> tuple:
        if message and message[0] == "crash":
            self.crash_traceback = message[2]
        return message

    def _crashed(self, context: str) -> WorkerCrashed:
        """Build the crash exception, always with the worker's traceback
        when one exists: drain whatever the outbox holds into the
        salvage buffer (crash frames are recorded *and* kept for the
        dispatcher's own accounting), log once at ERROR, and attach.
        """
        while True:
            try:
                message = self.outbox.get_nowait()
            except queue.Empty:
                break
            self._salvaged.append(self._note(message))
        if self.crash_traceback is None and not self.alive():
            # One short grace read: the crash frame may still be in a
            # process queue's feeder thread (the _grace_read lag).
            try:
                self._salvaged.append(
                    self._note(self.outbox.get(timeout=0.25))
                )
            except queue.Empty:
                pass
        detail = self.crash_traceback
        message = f"worker {self.worker_id} {context}"
        if detail is not None:
            message = f"{message}\nworker traceback:\n{detail}"
        if not self._crash_logged:
            self._crash_logged = True
            logger.error(
                "worker %d crashed (%s)%s",
                self.worker_id,
                context,
                "" if detail is None else f":\n{detail}",
            )
        return WorkerCrashed(
            message, worker_id=self.worker_id, worker_traceback=detail
        )

    def put(self, message: tuple, timeout: float | None = None) -> None:
        """Enqueue with backpressure: block while the inbox is full,
        probing liveness so a dead worker raises instead of hanging.

        ``timeout`` is honored against the wall clock: the deadline is a
        ``time.monotonic()`` instant, not a count of probe slices, so
        scheduler jitter (a probe sleeping longer than its nominal
        interval) cannot stretch the effective timeout.  A dead worker
        always raises :class:`WorkerCrashed`, even at an expired
        deadline -- the crash is the truer diagnosis.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        stalled_at: int | None = None
        try:
            while True:
                wait = _PROBE_INTERVAL
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        if not self.alive():
                            raise self._crashed(
                                "died with a full inbox"
                            ) from None
                        raise TimeoutError(
                            f"worker {self.worker_id} inbox full for "
                            f"{timeout:.1f}s"
                        ) from None
                    wait = min(wait, remaining)
                try:
                    self.inbox.put(message, timeout=wait)
                    return
                except queue.Full:
                    if stalled_at is None:
                        stalled_at = time.perf_counter_ns()
                        self.stall_count += 1
                    if not self.alive():
                        raise self._crashed(
                            "died with a full inbox"
                        ) from None
        finally:
            if stalled_at is not None:
                self.stall_ns += time.perf_counter_ns() - stalled_at

    def get(self, timeout: float | None = None) -> tuple:
        """Dequeue one outbound message, probing liveness while empty.

        Same monotonic-deadline semantics as :meth:`put`; on a dead
        worker one final grace read drains a reply that raced the exit.
        """
        if self._salvaged:
            return self._salvaged.popleft()
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            wait = _PROBE_INTERVAL
            if deadline is not None:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    if not self.alive():
                        return self._grace_read()
                    raise TimeoutError(
                        f"worker {self.worker_id} silent for {timeout:.1f}s"
                    ) from None
                wait = min(wait, remaining)
            try:
                return self._note(self.outbox.get(timeout=wait))
            except queue.Empty:
                if not self.alive():
                    return self._grace_read()

    def _grace_read(self) -> tuple:
        """One final read on a dead worker's outbox: it may have emitted
        its crash notice and exited between probes (a process queue's
        feeder thread can lag the exit)."""
        try:
            return self._note(self.outbox.get(timeout=0.25))
        except queue.Empty:
            raise self._crashed("died without replying") from None

    def get_nowait(self) -> tuple | None:
        """Opportunistic drain: one message if immediately available."""
        if self._salvaged:
            return self._salvaged.popleft()
        try:
            return self._note(self.outbox.get_nowait())
        except queue.Empty:
            return None

    def join(self, timeout: float = 5.0) -> None:
        self._join(timeout)


def _process_worker_main(*args: Any) -> None:
    """A process worker's entry: freeze the heap it inherited, then run
    :func:`worker_main` (looked up at call time, so a wrapper installed
    on this module still runs).

    A forked worker starts with the dispatcher's whole heap tracked by
    the collector; frozen, those objects are never scanned again, so a
    worker decoding its snapshot after recovery pays no full collection
    over the dispatcher's records.  Threads share the dispatcher's heap,
    so :class:`ThreadBackend` never freezes.
    """
    gc.freeze()
    worker_main(*args)


class ProcessBackend:
    """Workers as OS processes (the parallel-throughput backend).

    Args:
        start_method: ``multiprocessing`` start method; default prefers
            ``fork`` (cheap, inherits the imported library) and falls
            back to the platform default (``spawn`` on Windows/macOS,
            which requires picklable configuration -- the wire codec
            keeps everything else plain already).
    """

    def __init__(self, start_method: str | None = None) -> None:
        if start_method is None:
            methods = multiprocessing.get_all_start_methods()
            start_method = "fork" if "fork" in methods else None
        self._ctx = multiprocessing.get_context(start_method)
        self._processes: list[multiprocessing.process.BaseProcess] = []

    def spawn(
        self,
        worker_id: int,
        shard_indices: Iterable[int],
        config: dict[str, Any],
        inbox_capacity: int,
    ) -> WorkerHandle:
        inbox = self._ctx.Queue(maxsize=inbox_capacity)
        outbox = self._ctx.Queue()
        process = self._ctx.Process(
            target=_process_worker_main,
            args=(worker_id, tuple(shard_indices), config, inbox, outbox),
            daemon=True,
            name=f"fleet-worker-{worker_id}",
        )
        process.start()
        self._processes.append(process)

        def join(timeout: float) -> None:
            process.join(timeout)
            if process.is_alive():  # pragma: no cover - stuck worker
                process.terminate()
                process.join(1.0)

        return WorkerHandle(
            worker_id, inbox, outbox, process.is_alive, join
        )


class ThreadBackend:
    """Workers as daemon threads (debug / low-overhead correctness).

    Shares the process with the dispatcher: no serialization actually
    copies (queues pass tuples by reference -- the codec still runs, so
    the wire format is exercised identically) and tracebacks surface
    in-process.  The GIL serializes oracle work, so use
    :class:`ProcessBackend` for throughput.  Per-trace configuration
    (:class:`~repro.runtime.MonitorSpec` rows, ``monitor_specs=``) is
    plain data and works the same on both backends.
    """

    def __init__(self) -> None:
        self._threads: list[threading.Thread] = []

    def spawn(
        self,
        worker_id: int,
        shard_indices: Iterable[int],
        config: dict[str, Any],
        inbox_capacity: int,
    ) -> WorkerHandle:
        inbox: queue.Queue = queue.Queue(maxsize=inbox_capacity)
        outbox: queue.Queue = queue.Queue()
        thread = threading.Thread(
            target=worker_main,
            args=(worker_id, tuple(shard_indices), config, inbox, outbox),
            daemon=True,
            name=f"fleet-worker-{worker_id}",
        )
        thread.start()
        self._threads.append(thread)
        return WorkerHandle(
            worker_id, inbox, outbox, thread.is_alive, thread.join
        )
