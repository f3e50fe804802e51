"""The process that hosts the system under test.

The load generator starts one host per run, ``python3 -m perfbench.host
<fd>``, and drives it over the socket ``fd``.  The host imports the
library once and then forks one child per round, so every round runs in
a fresh process without paying for the imports again.  The child builds
the system -- an ``IngestServer`` (the socket workloads) or a durable
``ParallelFleet`` fed by its own feeding thread (the in-process
workload) -- runs the round and exits.  Either way the system's workers
fork from the round's process, and in a traced round it installs the
span wrappers before they do.

Protocol: the host receives its spec and sends ``("ready", kernel,
pid)``.  Then, once per round, one reply per command -- ``build``,
``run`` (in-process only), ``flush`` (socket only), ``answers`` and
``stop``; the reply to ``stop`` comes once every process of the round
has written its spans out.  ``exit`` ends the host without a reply.
"""

from __future__ import annotations

import os
import resource
import shutil
import sys
import tempfile
import traceback
from multiprocessing.connection import Connection
from typing import Any

# Imported at module level, before "ready": set-up time is the
# system's, not the interpreter's.
from perfbench import spans
from repro.core.kernel import resolve_kernel_name
from repro.runtime.durable import Durability
from repro.runtime.net import IngestServer
from repro.runtime.parallel import ParallelFleet

# In process: rows per ingest_wire_many call (one latency sample each).
FEED_BATCH = 16


def host_main(conn: Any, spec: dict[str, Any]) -> None:
    conn.send(("ready", resolve_kernel_name(None), os.getpid()))
    # The host itself only waits: nothing it does between rounds can
    # leave state or memory behind for the next round's process.
    while (message := conn.recv())[0] == "build":
        pid = os.fork()
        if pid == 0:
            status = 1
            try:
                _round(conn, spec, *message[1:])
                status = 0
            except BaseException:
                traceback.print_exc()
            finally:
                sys.stdout.flush()
                sys.stderr.flush()
                os._exit(status)
        _pid, status = os.waitpid(pid, 0)
        if status:
            raise RuntimeError(f"round process {pid} ended with status {status}")
    if message[0] != "exit":
        raise RuntimeError(f"expected 'build' or 'exit', got {message[0]!r}")


def _round(
    conn: Any,
    spec: dict[str, Any],
    trace_ids: tuple[str, ...],
    trace: bool,
    dump_dir: str,
) -> None:
    recorder = None
    if trace:
        recorder = spans.Recorder("host")
        spans.install(recorder, spans.HOST_TARGETS, worker_dump_dir=dump_dir)
        if recorder.missing:
            print(f"perfbench: not traced, absent: {recorder.missing}", file=sys.stderr)
    system = _serve if spec["kind"] == "socket" else _drive
    rss_mb, durable_bytes = system(conn, spec, trace_ids, dump_dir)
    if recorder is not None:
        recorder.dump(os.path.join(dump_dir, f"spans-host-{os.getpid()}.pkl"))
    # The workers have ended and written their spans out: this is the
    # round's last message.
    conn.send(("stopped", rss_mb, durable_bytes))


def _expect(conn: Any, command: str) -> tuple:
    message = conn.recv()
    if message[0] != command:
        raise RuntimeError(f"expected {command!r}, got {message[0]!r}")
    return message


def _children_peak_rss_mb() -> float:
    # ru_maxrss of RUSAGE_CHILDREN: the largest peak RSS among waited-for
    # children, in KiB on Linux.  A round's process has no children but
    # its workers.
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def _answers(fleet: Any, trace_ids: tuple[str, ...]) -> dict[str, Any]:
    report = fleet.report()
    return {
        "ratios": dict(fleet.all_ratios()),
        "degraded": {tid: fleet.is_degraded(tid) for tid in trace_ids},
        "violating": tuple(fleet.violating_traces()),
        "report": {
            "records": report.records,
            "flushes": report.flushes,
            "oracle_calls": report.oracle_calls,
            "evictions": report.evictions,
            "summary_compactions": report.summary_compactions,
            "tombstoned_events": report.tombstoned_events,
        },
    }


def _serve(
    conn: Any, spec: dict[str, Any], trace_ids: tuple[str, ...], _dump_dir: str
) -> tuple[float, int]:
    # The one deliberate non-default: process workers (the server's
    # default backend is "thread").
    server = IngestServer(
        spec["xi"], n_fronts=2, workers_per_front=1, backend="process"
    )
    try:
        server.start()
        conn.send(("built", server.address))
        _expect(conn, "flush")
        server.flush()
        conn.send(("flushed",))
        _expect(conn, "answers")
        answers = _answers(server, trace_ids)
        answers["front_errors"] = len(server.front_errors())
        conn.send(("answers", answers))
        _expect(conn, "stop")
    finally:
        server.stop()
    return _children_peak_rss_mb(), 0


def _drive(
    conn: Any, spec: dict[str, Any], trace_ids: tuple[str, ...], dump_dir: str
) -> tuple[float, int]:
    root = tempfile.mkdtemp(prefix="durable-", dir=dump_dir)
    built_at = spans.now_ns()
    # Default checkpointing, fsync off: the Durability defaults.
    fleet = ParallelFleet(
        None,
        n_workers=2,
        event_budget=spec["event_budget"],
        durability=Durability(root=root),
    )
    conn.send(("built", (spans.now_ns() - built_at) / 1e9, built_at))
    try:
        _command, rows = _expect(conn, "run")
        samples = []
        start = spans.now_ns()
        for i in range(0, len(rows), FEED_BATCH):
            chunk = rows[i : i + FEED_BATCH]
            t = spans.now_ns()
            fleet.ingest_wire_many(chunk)
            samples.append(spans.now_ns() - t)
        accepted = spans.now_ns()
        fleet.flush()
        conn.send(("ran", start, accepted, spans.now_ns(), samples))
        _expect(conn, "answers")
        answers = _answers(fleet, trace_ids)
        answers["dropped_records"] = fleet.dropped_records
        conn.send(("answers", answers))
        _expect(conn, "stop")
    finally:
        fleet.shutdown()
    durable_bytes = sum(
        os.path.getsize(os.path.join(root, name)) for name in os.listdir(root)
    )
    shutil.rmtree(root)
    return _children_peak_rss_mb(), durable_bytes


def main(argv: list[str]) -> None:
    conn = Connection(int(argv[1]))
    try:
        host_main(conn, conn.recv())
    finally:
        conn.close()


if __name__ == "__main__":
    main(sys.argv)
