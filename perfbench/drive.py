"""One measured round: set the system up in a host, feed it, collect it.

The system under test runs in a host process (``python3 -m
perfbench.host``), never in the load generator.  The host forks a fresh
process for every round, so rounds share no state.  The load generator
-- this process -- holds at most two threads and two producer
connections: the bulk producer on the calling thread and the
interactive producer on one more.
"""

from __future__ import annotations

import contextlib
import logging
import os
import socket
import subprocess
import sys
import threading
from dataclasses import dataclass
from multiprocessing.connection import Connection
from typing import Any

from perfbench import spans
from perfbench.workloads import Inputs, Workload
from repro.runtime.net import ProducerClient

# Every wait on the host is bounded, so a hung system fails the run
# instead of hanging it.
HOST_TIMEOUT_S = 120.0


@dataclass
class Round:
    kernel: str
    setup_s: float
    records: int
    start_ns: int  # first send (or first ingest call)
    acked_ns: int  # every record acked
    end_ns: int  # the final flush barrier returned
    # Socket rounds: when each producer had every record acked.
    bulk_done_ns: int
    interactive_done_ns: int
    latencies_ns: list[int]
    rss_mb: float
    durable_bytes: int
    acked_frames: int
    replayed_frames: int
    answers: dict[str, Any]
    # The in-process round counts the durable plane from the kept
    # fleet's set-up on, so its baseline checkpoint is included.
    durable_from_ns: int = 0
    layers: dict[str, Any] | None = None
    durable_layers: dict[str, Any] | None = None
    # Socket rounds: the span analysis from the first producer's last
    # ack to the second's, when only one producer still waits.
    tail_layers: dict[str, Any] | None = None

    @property
    def elapsed_s(self) -> float:
        return (self.end_ns - self.start_ns) / 1e9

    @property
    def answer_lag_s(self) -> float:
        return (self.end_ns - self.acked_ns) / 1e9

    @property
    def failed(self) -> int:
        """Front errors + frames replayed after a reconnect + records
        dropped.  A record counts as dropped when the fleet says so, or
        when no worker's shard ever absorbed it."""
        lost = self.records - self.answers["report"]["records"]
        return (
            self.answers.get("front_errors", 0)
            + self.replayed_frames
            + max(lost, self.answers.get("dropped_records", 0))
        )


class _Replays(logging.Handler):
    """Counts frames producers replay: the client logs every reconnect
    with the number of unacked frames it is about to resend."""

    def __init__(self) -> None:
        super().__init__(logging.INFO)
        self.frames = 0

    def emit(self, record: logging.LogRecord) -> None:
        if str(record.msg).startswith("reconnecting producer"):
            self.frames += int(record.args[2])


def _expect(conn: Any, command: str) -> tuple:
    if not conn.poll(HOST_TIMEOUT_S):
        raise TimeoutError(f"host sent no {command!r} in {HOST_TIMEOUT_S}s")
    message = conn.recv()
    if message[0] != command:
        raise RuntimeError(f"expected {command!r} from host, got {message[0]!r}")
    return message


class Host:
    """The host process holding the system under test, for a run's
    rounds.  Each round runs in a fresh process forked from it."""

    def __init__(self, workload: Workload) -> None:
        self.workload = workload
        ours, theirs = socket.socketpair()
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(root, "src"), root, env.get("PYTHONPATH", "")]
        )
        self.process = subprocess.Popen(
            [sys.executable, "-m", "perfbench.host", str(theirs.fileno())],
            pass_fds=(theirs.fileno(),),
            cwd=root,
            env=env,
            stdout=sys.stderr.fileno(),  # our stdout carries only results
        )
        theirs.close()
        self.conn = Connection(ours.detach())
        try:
            self.conn.send(
                {
                    "kind": workload.kind,
                    "xi": workload.xi,
                    "event_budget": workload.event_budget,
                }
            )
            _ready, self.kernel, _pid = _expect(self.conn, "ready")
        except BaseException:
            self.close()
            raise

    def round(self, inputs: Inputs, *, trace: bool, dump_dir: str) -> Round:
        """One round.  A traced round installs the span wrappers in its
        process before any worker forks, and is analysed once every
        process of it has written its spans to ``dump_dir``."""
        build = ("build", inputs.trace_ids, trace, dump_dir)
        if self.workload.kind != "socket":
            result = _inprocess_round(self.conn, build, inputs, self.kernel)
            client_rec = None
        else:
            client_rec = spans.Recorder("load") if trace else None
            if client_rec is not None:
                spans.install(client_rec, spans.CLIENT_TARGETS)
            try:
                result = _socket_round(self.conn, build, inputs, self.kernel)
            finally:
                if client_rec is not None:
                    client_rec.uninstall()
        if not trace:
            return result
        dumps = spans.load_dumps(dump_dir)
        if client_rec is not None:
            dumps.append(client_rec.snapshot())
        result.layers = spans.analyse(dumps, result.start_ns, result.end_ns)
        if self.workload.kind == "inprocess":
            result.durable_layers = spans.analyse(
                dumps, result.durable_from_ns, result.end_ns
            )
        else:
            result.durable_layers = result.layers
            first = min(result.bulk_done_ns, result.interactive_done_ns)
            result.tail_layers = spans.analyse(dumps, first, result.acked_ns)
        return result

    def close(self) -> None:
        """Stop the host and wait until it has ended."""
        with contextlib.suppress(OSError):
            self.conn.send(("exit",))
        self.conn.close()
        try:
            self.process.wait(HOST_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()

    def __enter__(self) -> Host:
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()


def _socket_round(conn: Any, build: tuple, inputs: Inputs, kernel: str) -> Round:
    replays = _Replays()
    client_log = logging.getLogger("repro.runtime.net.client")
    client_log.addHandler(replays)
    level = client_log.level
    client_log.setLevel(logging.INFO)
    try:
        with contextlib.ExitStack() as stack:
            begin = spans.now_ns()
            conn.send(build)
            _built, address = _expect(conn, "built")
            bulk = stack.enter_context(ProducerClient(address, producer_id="bulk"))
            interactive = stack.enter_context(
                ProducerClient(address, producer_id="interactive")
            )
            setup_s = (spans.now_ns() - begin) / 1e9
            latencies: list[int] = []
            interactive_done: list[int] = []
            errors: list[BaseException] = []
            go = threading.Event()

            def interact() -> None:
                go.wait()
                try:
                    for frame in inputs.interactive_frames:
                        t = spans.now_ns()
                        for trace_id, wire in frame:
                            interactive.send_wire(trace_id, wire)
                        interactive.flush()
                        latencies.append(spans.now_ns() - t)
                    interactive_done.append(spans.now_ns())
                except BaseException as exc:  # re-raised on the main thread
                    errors.append(exc)

            thread = threading.Thread(target=interact, name="interactive-producer")
            thread.start()
            try:
                start = spans.now_ns()
                go.set()
                for trace_id, wire in inputs.bulk_rows:
                    bulk.send_wire(trace_id, wire)
                bulk.flush()
                bulk_done = spans.now_ns()
            finally:
                go.set()
                thread.join(HOST_TIMEOUT_S)
            if errors:
                raise errors[0]
            if thread.is_alive():
                raise TimeoutError("interactive producer did not finish")
            acked = max(bulk_done, interactive_done[0])
            conn.send(("flush",))
            _expect(conn, "flushed")
            end = spans.now_ns()
            frames = bulk.acked_frames + interactive.acked_frames
        conn.send(("answers",))
        _a, answers = _expect(conn, "answers")
        conn.send(("stop",))
        _s, rss_mb, durable_bytes = _expect(conn, "stopped")
    finally:
        client_log.removeHandler(replays)
        client_log.setLevel(level)
    return Round(
        kernel=kernel,
        setup_s=setup_s,
        records=len(inputs.rows),
        start_ns=start,
        acked_ns=acked,
        end_ns=end,
        bulk_done_ns=bulk_done,
        interactive_done_ns=interactive_done[0],
        latencies_ns=latencies,
        rss_mb=rss_mb,
        durable_bytes=durable_bytes,
        acked_frames=frames,
        replayed_frames=replays.frames,
        answers=answers,
    )


def _inprocess_round(conn: Any, build: tuple, inputs: Inputs, kernel: str) -> Round:
    conn.send(build)
    _built, setup_s, built_at = _expect(conn, "built")
    conn.send(("run", inputs.rows))
    _ran, start, accepted, end, samples = _expect(conn, "ran")
    conn.send(("answers",))
    _a, answers = _expect(conn, "answers")
    conn.send(("stop",))
    _s, rss_mb, durable_bytes = _expect(conn, "stopped")
    return Round(
        kernel=kernel,
        setup_s=setup_s,
        records=len(inputs.rows),
        start_ns=start,
        acked_ns=accepted,
        end_ns=end,
        bulk_done_ns=accepted,
        interactive_done_ns=accepted,
        latencies_ns=samples,
        rss_mb=rss_mb,
        durable_bytes=durable_bytes,
        acked_frames=0,
        replayed_frames=0,
        answers=answers,
        durable_from_ns=built_at,
    )
