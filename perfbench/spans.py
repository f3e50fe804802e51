"""Spans around the public functions of each layer, recorded from outside.

:func:`install` replaces public functions and methods of the library
with wrappers.  Each call records one span: its name, its execution
context (process label and thread name), start, duration and self time
(duration minus the spans it called).  The library itself is untouched.

Spans stay in memory; each process writes its own out with
:meth:`Recorder.dump` when it ends.  Worker processes fork from the
process that installed the wrappers, so they inherit them.  The wrapped
``worker_main`` drops the spans inherited from its parent, times the
worker's waits on its inbox as idle time and dumps when the worker
returns.

All timestamps come from ``time.perf_counter_ns``, which is
``CLOCK_MONOTONIC`` on Linux: one clock for every process on the host,
so spans from the load generator, the host and the workers can be cut
to one measurement window.
"""

from __future__ import annotations

import functools
import importlib
import os
import pickle
import statistics
import threading
import time
from typing import Any, Callable

now_ns = time.perf_counter_ns

# (span name, module, class or None for a module function, attribute).
# Several attributes may share a span name: the ingest paths the library
# keeps side by side all count as one layer, and a path a later change
# deletes is simply skipped (see Recorder.missing).
HOST_TARGETS: tuple[tuple[str, str, str | None, str], ...] = (
    # runtime.parallel: the dispatcher (front threads, or the host's
    # feeding thread)
    ("parallel.ingest", "repro.runtime.parallel", "ParallelFleet", "ingest_wire_many"),
    ("parallel.flush", "repro.runtime.parallel", "ParallelFleet", "flush"),
    # runtime.net.deltas: staging ratio rows and violations for the
    # delta stream (the fleet half runs on the front threads)
    ("deltas.stage", "repro.runtime.parallel", "ParallelFleet", "drain_ratio_updates"),
    ("deltas.stage", "repro.runtime.parallel", "ParallelFleet", "violation_feed"),
    ("deltas.stage", "repro.runtime.net.deltas", "DeltaStore", "update_ratios"),
    ("deltas.stage", "repro.runtime.net.deltas", "DeltaStore", "extend_violations"),
    ("deltas.stage", "repro.runtime.net.deltas", "DeltaStore", "publish"),
    # runtime.backends
    ("backends.put", "repro.runtime.backends", "WorkerHandle", "put"),
    ("backends.spawn", "repro.runtime.backends", "ProcessBackend", "spawn"),
    # runtime.durable
    ("durable.append", "repro.runtime.durable", "DurableStore", "append"),
    ("durable.flush", "repro.runtime.durable", "DurableStore", "flush"),
    ("durable.checkpoint", "repro.runtime.durable", "DurableStore", "checkpoint"),
    # runtime.codec and runtime.shard, inside the workers
    ("codec.decode", "repro.runtime.codec", None, "decode_records_columnar"),
    ("codec.decode", "repro.runtime.codec", None, "decode_records"),
    ("shard.ingest", "repro.runtime.shard", "ShardGroup", "ingest_batch_columnar"),
    ("shard.ingest", "repro.runtime.shard", "ShardGroup", "ingest_batch"),
    ("shard.ingest", "repro.runtime.shard", "ShardGroup", "flush_all"),
    ("shard.enforce_budget", "repro.runtime.shard", "ShardGroup", "enforce_budget"),
    ("shard.snapshot", "repro.runtime.shard", "ShardGroup", "snapshot"),
    # analysis.online
    ("online.observe", "repro.analysis.online", "OnlineAbcMonitor", "observe_batch_columnar"),
    ("online.observe", "repro.analysis.online", "OnlineAbcMonitor", "observe_batch"),
    # core.synchrony
    ("synchrony.absorb", "repro.core.synchrony", "AdmissibilityChecker", "absorb_batch"),
    ("synchrony.ratio_search", "repro.core.synchrony", "AdmissibilityChecker", "updated_worst_ratio"),
    ("synchrony.compact", "repro.core.synchrony", "AdmissibilityChecker", "compact_prefix"),
)

# The load generator's side of the socket.
CLIENT_TARGETS: tuple[tuple[str, str, str | None, str], ...] = (
    ("client.send", "repro.runtime.net.client", "ProducerClient", "send_wire"),
)


class Recorder:
    """The spans and counts of one process, in memory until :meth:`dump`."""

    def __init__(self, label: str) -> None:
        self.missing: list[str] = []
        self._installed: list[tuple[Any, str, Any]] = []
        self.reset(label)

    def reset(self, label: str) -> None:
        """Start over under a new label (a forked worker drops what it
        inherited from its parent, thread-local stacks included)."""
        self.label = label
        self.spans: list[tuple[str, tuple[str, str], int, int, int]] = []
        self.counts: dict[str, int] = {}
        # id(checker) -> [(events absorbed so far, search ns)]
        self.search: dict[int, list[tuple[int, int]]] = {}
        self.idle: list[tuple[int, int]] = []
        self.life: tuple[int, int] | None = None
        self._local = threading.local()
        self._lock = threading.Lock()

    def stack(self) -> list[int]:
        try:
            return self._local.stack
        except AttributeError:
            stack = self._local.stack = []
            return stack

    def context(self) -> tuple[str, str]:
        return (self.label, threading.current_thread().name)

    def count(self, name: str, n: int = 1) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + n

    def snapshot(self) -> dict[str, Any]:
        return {
            "label": self.label,
            "spans": self.spans,
            "counts": self.counts,
            "search": self.search,
            "idle": self.idle,
            "life": self.life,
        }

    def dump(self, path: str) -> None:
        with open(path, "wb") as fh:
            pickle.dump(self.snapshot(), fh, protocol=pickle.HIGHEST_PROTOCOL)

    # -- installing wrappers --------------------------------------------

    def _replace(self, owner: Any, attr: str, wrapper: Any) -> None:
        self._installed.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def wrap(
        self,
        name: str,
        owner: Any,
        attr: str,
        note: Callable[["Recorder", tuple, Any, int], None] | None = None,
    ) -> None:
        fn = owner.__dict__.get(attr) if owner is not None else None
        if not callable(fn):
            self.missing.append(f"{name}: {attr}")
            return
        self._replace(owner, attr, _traced(self, name, fn, note))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()


def _traced(
    rec: Recorder,
    name: str,
    fn: Callable,
    note: Callable[[Recorder, tuple, Any, int], None] | None,
) -> Callable:
    @functools.wraps(fn)
    def traced(*args: Any, **kwargs: Any) -> Any:
        stack = rec.stack()
        stack.append(0)
        start = now_ns()
        try:
            result = fn(*args, **kwargs)
        finally:
            duration = now_ns() - start
            children = stack.pop()
            if stack:
                stack[-1] += duration
            rec.spans.append(
                (name, rec.context(), start, duration, duration - children)
            )
        if note is not None:
            note(rec, args, result, duration)
        return result

    return traced


def _note_put(rec: Recorder, args: tuple, _result: Any, _ns: int) -> None:
    message = args[1]
    if message and message[0] == "ingest":
        rec.count("parallel.batches")
        rec.count("parallel.batch_records", len(message[2]))


def _note_search(rec: Recorder, args: tuple, result: Any, ns: int) -> None:
    checker, previous = args[0], args[1]
    if result != previous:
        rec.count("synchrony.ratio_changes")
    position = checker.n_events + checker.n_tombstoned
    rec.search.setdefault(id(checker), []).append((position, ns))


_NOTES = {
    ("WorkerHandle", "put"): _note_put,
    ("AdmissibilityChecker", "updated_worst_ratio"): _note_search,
}


def _resolve(module: str, owner: str | None) -> Any:
    try:
        mod = importlib.import_module(module)
    except ImportError:
        return None
    return mod if owner is None else getattr(mod, owner, None)


def install(
    rec: Recorder,
    targets: tuple[tuple[str, str, str | None, str], ...],
    worker_dump_dir: str | None = None,
) -> None:
    """Wrap ``targets``; with ``worker_dump_dir`` also wrap every kernel's
    sweep and the worker entry point, so forked workers record too."""
    for name, module, owner, attr in targets:
        rec.wrap(name, _resolve(module, owner), attr, _NOTES.get((owner, attr)))
    if worker_dump_dir is None:
        return
    base = _resolve("repro.core.kernel", "Kernel")
    pending = [base] if base is not None else []
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        if cls is not base and "has_negative_cycle" in cls.__dict__:
            rec.wrap("kernel.sweep", cls, "has_negative_cycle")
    if base is None:
        rec.missing.append("kernel.sweep: has_negative_cycle")
    backends = importlib.import_module("repro.runtime.backends")
    rec._replace(
        backends,
        "worker_main",
        _traced_worker(rec, backends.worker_main, worker_dump_dir),
    )


class _TimedInbox:
    """The worker's inbox, with every wait recorded as idle time."""

    def __init__(self, inbox: Any, rec: Recorder) -> None:
        self._inbox = inbox
        self._rec = rec

    def get(self, *args: Any, **kwargs: Any) -> Any:
        start = now_ns()
        try:
            return self._inbox.get(*args, **kwargs)
        finally:
            self._rec.idle.append((start, now_ns() - start))


def _traced_worker(rec: Recorder, fn: Callable, dump_dir: str) -> Callable:
    @functools.wraps(fn)
    def worker_main(worker_id, shard_indices, config, inbox, outbox):
        # Worker ids repeat across fronts; the pid tells workers apart.
        rec.reset(f"worker-{worker_id}-{os.getpid()}")
        start = now_ns()
        try:
            fn(worker_id, shard_indices, config, _TimedInbox(inbox, rec), outbox)
        finally:
            rec.life = (start, now_ns())
            rec.dump(
                os.path.join(dump_dir, f"spans-w{worker_id}-{os.getpid()}.pkl")
            )

    return worker_main


# ----------------------------------------------------------------------
# analysis
# ----------------------------------------------------------------------


def load_dumps(directory: str) -> list[dict]:
    out = []
    for name in sorted(os.listdir(directory)):
        if name.startswith("spans-") and name.endswith(".pkl"):
            with open(os.path.join(directory, name), "rb") as fh:
                out.append(pickle.load(fh))
    return out


def _overlap(start: int, duration: int, lo: int, hi: int) -> int:
    return max(0, min(start + duration, hi) - max(start, lo))


def analyse(dumps: list[dict], lo: int, hi: int) -> dict[str, Any]:
    """Cut every process's spans to the window ``[lo, hi)``.

    A span belongs to the window when it starts inside it.  Returns,
    per span name, the calls, inclusive and self seconds in the window
    and the inclusive seconds over the processes' whole lives
    (``lifetime``: set-up work such as spawning workers); self seconds
    per execution context; per-worker busy and idle seconds (idle waits
    are clipped to the window exactly, busy is the rest of it); the
    noted counts, over whole process lives; and the median, over
    checkers, of the ratio-search time in a trace's last quarter of
    absorbed events over its first quarter.
    """
    total: dict[str, float] = {}
    own: dict[str, float] = {}
    by_context: dict[tuple[str, str], float] = {}
    lifetime: dict[str, float] = {}
    calls: dict[str, int] = {}
    counts: dict[str, int] = {}
    busy: dict[str, float] = {}
    idle: dict[str, float] = {}
    growth: list[float] = []
    window = hi - lo
    for dump in dumps:
        for name, context, start, duration, self_ns in dump["spans"]:
            lifetime[name] = lifetime.get(name, 0.0) + duration / 1e9
            if lo <= start < hi:
                calls[name] = calls.get(name, 0) + 1
                total[name] = total.get(name, 0.0) + duration / 1e9
                own[name] = own.get(name, 0.0) + self_ns / 1e9
                by_context[context] = by_context.get(context, 0.0) + self_ns / 1e9
        for key, value in dump["counts"].items():
            counts[key] = counts.get(key, 0) + value
        life = dump["life"]
        alive = 0 if life is None else _overlap(life[0], life[1] - life[0], lo, hi)
        if alive:  # a worker (of the measured fleet, not a discarded one)
            waited = sum(_overlap(s, d, lo, hi) for s, d in dump["idle"])
            idle[dump["label"]] = waited / 1e9
            busy[dump["label"]] = max(0, alive - waited) / 1e9
        for searches in dump["search"].values():
            final = max(position for position, _ns in searches)
            first = sum(ns for position, ns in searches if position <= final / 4)
            last = sum(ns for position, ns in searches if position > 3 * final / 4)
            if first and last:
                growth.append(last / first)
    return {
        "window_s": window / 1e9,
        "total": total,
        "self": own,
        "by_context": by_context,
        "lifetime": lifetime,
        "calls": calls,
        "counts": counts,
        "busy": busy,
        "idle": idle,
        "search_growth": statistics.median(growth) if growth else 0.0,
    }
