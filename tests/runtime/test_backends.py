"""Timing and liveness semantics of the worker backpressure handles.

The contract under test: ``WorkerHandle.put``/``get`` honor their
timeout against the wall clock (a ``time.monotonic()`` deadline, not a
count of probe slices -- scheduler jitter must not stretch the
effective timeout), and a dead worker always surfaces as
:class:`WorkerCrashed`, never as ``TimeoutError``, even when the
deadline has already expired -- the crash is the truer diagnosis.
Process workers also freeze the heap they inherit; thread workers,
which share the dispatcher's heap, do not.
"""

import gc
import multiprocessing
import queue
import threading
import time

import pytest

from repro.runtime import backends
from repro.runtime.backends import (
    ProcessBackend,
    ThreadBackend,
    WorkerCrashed,
    WorkerHandle,
)


def handle(alive=lambda: True, inbox_size=1):
    inbox = queue.Queue(maxsize=inbox_size)
    outbox = queue.Queue()
    return WorkerHandle(7, inbox, outbox, alive, lambda t: None)


# How much scheduler slop we tolerate on top of the nominal timeout.
# One probe interval is 0.05s; the old slice-counting implementation
# could drift by an unbounded multiple of it under jitter.
TOLERANCE = 0.25


class TestPutTimeout:
    @pytest.mark.parametrize("timeout", [0.1, 0.25, 0.4])
    def test_timeout_honored_within_tolerance(self, timeout):
        h = handle()
        h.inbox.put(("filler",))  # inbox full, worker alive
        start = time.monotonic()
        with pytest.raises(TimeoutError):
            h.put(("msg",), timeout=timeout)
        elapsed = time.monotonic() - start
        assert timeout <= elapsed < timeout + TOLERANCE

    def test_expired_deadline_prefers_crash_over_timeout(self):
        h = handle(alive=lambda: False)
        h.inbox.put(("filler",))
        # Deadline expires on the first probe; the dead worker must
        # still surface as a crash, not as a timeout.
        with pytest.raises(WorkerCrashed):
            h.put(("msg",), timeout=0.0)

    def test_death_during_wait_raises_crashed(self):
        dead = threading.Event()
        h = handle(alive=lambda: not dead.is_set())
        h.inbox.put(("filler",))
        threading.Timer(0.1, dead.set).start()
        start = time.monotonic()
        with pytest.raises(WorkerCrashed):
            h.put(("msg",), timeout=5.0)
        # Detected at the next probe, nowhere near the 5s timeout.
        assert time.monotonic() - start < 1.0

    def test_put_succeeds_when_space_frees_up(self):
        h = handle()
        h.inbox.put(("filler",))
        threading.Timer(0.1, h.inbox.get).start()
        h.put(("msg",), timeout=5.0)  # must not raise


class TestGetTimeout:
    @pytest.mark.parametrize("timeout", [0.1, 0.3])
    def test_timeout_honored_within_tolerance(self, timeout):
        h = handle()
        start = time.monotonic()
        with pytest.raises(TimeoutError):
            h.get(timeout=timeout)
        elapsed = time.monotonic() - start
        assert timeout <= elapsed < timeout + TOLERANCE

    def test_dead_worker_grace_read_salvages_reply(self):
        # The worker emitted its last reply and exited: the reply must
        # win over the crash (a process queue's feeder can lag).
        h = handle(alive=lambda: False)
        h.outbox.put(("reply", 1, ("ok", None), [], (), 0, 0))
        assert h.get(timeout=0.0)[0] == "reply"

    def test_dead_worker_empty_outbox_raises_crashed(self):
        h = handle(alive=lambda: False)
        start = time.monotonic()
        with pytest.raises(WorkerCrashed):
            h.get(timeout=10.0)
        assert time.monotonic() - start < 1.0  # no 10s hang

    def test_death_during_wait_raises_crashed(self):
        dead = threading.Event()
        h = handle(alive=lambda: not dead.is_set())
        threading.Timer(0.1, dead.set).start()
        with pytest.raises(WorkerCrashed):
            h.get(timeout=5.0)


def _report_freeze_count(worker_id, shard_indices, config, inbox, outbox):
    outbox.put(("frozen", gc.get_freeze_count()))


class TestHeapFreeze:
    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="needs the fork start method",
    )
    def test_process_worker_freezes_the_inherited_heap(self, monkeypatch):
        # Looked up at call time: the stub replaces the real loop.
        monkeypatch.setattr(backends, "worker_main", _report_freeze_count)
        handle = ProcessBackend("fork").spawn(0, (0,), {}, 1)
        kind, count = handle.get(timeout=30)
        handle.join()
        assert kind == "frozen" and count > 0

    def test_thread_worker_leaves_the_heap_alone(self, monkeypatch):
        monkeypatch.setattr(backends, "worker_main", _report_freeze_count)
        before = gc.get_freeze_count()
        handle = ThreadBackend().spawn(0, (0,), {}, 1)
        assert handle.get(timeout=30) == ("frozen", before)
        handle.join()
        assert gc.get_freeze_count() == before
