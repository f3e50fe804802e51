"""Tests for the network ingestion plane.

Bottom up: the frame codec (CRC rejection, torn streams), the delta
store/view pair (atomic subscribe, gap detection, reconstruction),
wire-row ingestion on :class:`ParallelFleet`, and the full server:
multi-producer ingest over real sockets bit-identical to the serial
fleet, exactly-once resume across killed connections, credit-window
backpressure, subscribers reconstructing the fleet's aggregates from
the delta stream alone, the one loop thread that drives the fleet, and
the one fleet behind the server (``n_fronts * workers_per_front``
workers, one ingest call per frame, one barrier per flush).
"""

import logging
import multiprocessing
import random
import socket
import threading
import zlib
from fractions import Fraction

import pytest

from repro.analysis.fleet import MonitorFleet
from repro.runtime import ParallelFleet
from repro.runtime.net import (
    DeltaStore,
    DeltaSubscriber,
    DeltaView,
    FrameSocket,
    IngestServer,
    ProducerClient,
    ProtocolError,
)
from repro.runtime.durable import _HEADER
from repro.runtime.net.wire import PROTOCOL_VERSION, FrameDecoder, frame_bytes
from repro.runtime import codec
from repro.runtime.backends import WorkerHandle
from repro.runtime.shard import shard_index_of
from repro.scenarios.generators import concurrent_workload

XI = Fraction(4)


def workload(seed=1, n_traces=24, **kw):
    kw.setdefault("records_per_trace", (30, 60))
    return list(
        concurrent_workload(random.Random(seed), n_traces=n_traces, **kw)
    )


def serial_answers(stream, n_shards=8, batch_size=16):
    fleet = MonitorFleet(xi=XI, n_shards=n_shards, batch_size=batch_size)
    fleet.ingest_many(stream)
    ids = sorted({tid for tid, _ in stream}, key=str)
    return (
        {tid: fleet.worst_ratio(tid) for tid in ids},
        {tid: fleet.is_degraded(tid) for tid in ids},
        set(fleet.violating_traces()),
    )


# ----------------------------------------------------------------------
# frame codec
# ----------------------------------------------------------------------


def feed(decoder, data, chunk):
    """Read ``data`` into ``decoder`` ``chunk`` bytes at a time, the way
    a socket reader does; return every frame decoded on the way."""
    frames = []
    for i in range(0, len(data), chunk):
        piece = data[i : i + chunk]
        while piece:
            with decoder.room() as room:
                n = min(len(room), len(piece))
                room[:n] = piece[:n]
            decoder.filled(n)
            piece = piece[n:]
            frames.extend(decoder.frames())
    return frames


def undecodable_frame():
    """A frame whose CRC is right but whose payload does not unpickle."""
    payload = b"\x80\x05garbage"
    return _HEADER.pack(len(payload), zlib.crc32(payload)) + payload


class TestFrameDecoder:
    """The one frame decoder, fed directly and through its client-side
    reader, :class:`FrameSocket` (the server's connections are
    covered over raw sockets in :class:`TestServerFraming`)."""

    def pair(self):
        a, b = socket.socketpair()
        return FrameSocket(a), FrameSocket(b)

    def test_round_trip_and_eof(self):
        frames = [("hello", 1, "produce", "p"), ("produce", 1, ((1, 2),))]
        decoder = FrameDecoder()
        blob = b"".join(frame_bytes(f) for f in frames)
        assert feed(decoder, blob, len(blob)) == frames
        assert not decoder.partial  # EOF here is clean
        left, right = self.pair()
        for frame in frames:
            left.send(frame)
        left.sock.close()
        assert [right.recv(), right.recv()] == frames
        assert right.recv() is None  # clean EOF between frames
        right.close()

    def test_split_delivery_reassembles(self):
        payload = ("produce", 7, tuple((f"t{i}", ("x",) * 4) for i in range(50)))
        blob = frame_bytes(payload)
        for chunk in (1, 13):
            assert feed(FrameDecoder(), blob, chunk) == [payload]
        left, right = self.pair()
        for i in range(0, len(blob), 13):  # drip-feed odd-sized chunks
            left.sock.sendall(blob[i : i + 13])
        assert right.recv() == payload
        left.close(), right.close()

    def test_corrupt_crc_raises(self):
        blob = bytearray(frame_bytes(("ack", 3)))
        blob[-1] ^= 0xFF
        with pytest.raises(ProtocolError, match="CRC"):
            feed(FrameDecoder(), bytes(blob), len(blob))
        left, right = self.pair()
        left.sock.sendall(bytes(blob))
        with pytest.raises(ProtocolError, match="CRC"):
            right.recv()
        left.close(), right.close()

    def test_eof_mid_frame_raises(self):
        blob = frame_bytes(("ack", 3))[:-2]
        decoder = FrameDecoder()
        assert feed(decoder, blob, len(blob)) == []
        assert decoder.partial
        left, right = self.pair()
        left.sock.sendall(blob)
        left.sock.close()
        with pytest.raises(ProtocolError, match="mid-frame"):
            right.recv()
        right.close()

    def test_undecodable_payload_raises(self):
        with pytest.raises(ProtocolError, match="unpickle"):
            feed(FrameDecoder(), undecodable_frame(), 64)
        left, right = self.pair()
        left.sock.sendall(undecodable_frame())
        with pytest.raises(ProtocolError, match="unpickle"):
            right.recv()
        left.close(), right.close()

    def test_buffer_grows_and_compacts(self):
        """Frames straddling reads, and one larger than the initial
        receive buffer, come out intact in order."""
        big = ("produce", 2, tuple((f"t{i}", (i,) * 8) for i in range(20000)))
        frames = [("ack", 1), big, ("ack", 2), ("ack", 3)]
        blob = b"".join(frame_bytes(f) for f in frames)
        assert len(frame_bytes(big)) > 4 * len(FrameDecoder().room())
        for chunk in (7001, 1 << 16, len(blob)):
            assert feed(FrameDecoder(), blob, chunk) == frames


# ----------------------------------------------------------------------
# delta store / view
# ----------------------------------------------------------------------


class TestDeltas:
    def test_snapshot_plus_deltas_reconstruct(self):
        store = DeltaStore()
        store.update_ratios({"a": Fraction(1, 2), "b": None})
        store.publish()  # published before subscribing: snapshot covers it
        frames = []
        view = DeltaView()
        view.apply(store.subscribe(frames.append))
        store.update_ratios({"a": Fraction(3, 2), "c": Fraction(5)})
        store.extend_violations([(7, "c")])
        store.publish()
        store.extend_violations([(7, "c"), (9, "a")])  # dup row dropped
        store.close()
        for frame in frames:
            view.apply(frame)
        assert view.closed
        assert view.ratios == {
            "a": Fraction(3, 2),
            "b": None,
            "c": Fraction(5),
        }
        assert view.violation_feed() == ((7, "c"), (9, "a"))
        assert view.violating_traces() == ("c", "a")
        assert view.worst_ratio_histogram() == {
            Fraction(3, 2): 1,
            None: 1,
            Fraction(5): 1,
        }

    def test_gap_detection(self):
        view = DeltaView()
        view.apply(("snapshot", 3, (), (), ()))
        with pytest.raises(ValueError, match="gap"):
            view.apply(("delta", 5, (), (), ()))
        with pytest.raises(ValueError, match="before snapshot"):
            DeltaView().apply(("delta", 1, (), (), ()))

    def test_publish_without_changes_is_noop(self):
        store = DeltaStore()
        frames = []
        store.subscribe(frames.append)
        assert store.publish() is None
        assert frames == []

    def test_subscribe_after_close_gets_end(self):
        store = DeltaStore()
        store.update_ratios({"a": Fraction(2)})
        store.close()
        frames = []
        view = DeltaView()
        view.apply(store.subscribe(frames.append))
        for frame in frames:
            view.apply(frame)
        assert view.closed
        # The final publish ran inside close(), so the late snapshot
        # already carries the state.
        assert view.ratios == {"a": Fraction(2)}


# ----------------------------------------------------------------------
# wire rows into ParallelFleet
# ----------------------------------------------------------------------


class TestWireIngest:
    def test_ingest_wire_matches_ingest(self):
        stream = workload(seed=9, n_traces=10)
        with ParallelFleet(
            XI, n_workers=1, n_shards=8, backend="thread"
        ) as plain, ParallelFleet(
            XI, n_workers=1, n_shards=8, backend="thread"
        ) as wired:
            plain.ingest_many(stream)
            wired.ingest_wire_many(
                [(tid, codec.encode_record(rec)) for tid, rec in stream]
            )
            assert dict(plain.all_ratios()) == dict(wired.all_ratios())
            assert wired.ingested_records == len(stream)


# ----------------------------------------------------------------------
# the server, end to end
# ----------------------------------------------------------------------


def drive(server, stream, n_producers=2, batch=7, **client_kw):
    """Feed ``stream`` through ``n_producers`` clients, each owning a
    disjoint set of traces (the single-writer-per-trace discipline)."""
    ids = sorted({tid for tid, _ in stream}, key=str)
    owner = {tid: i % n_producers for i, tid in enumerate(ids)}
    clients = [
        ProducerClient(
            server.address, producer_id=f"p{i}", batch=batch, **client_kw
        )
        for i in range(n_producers)
    ]
    try:
        for tid, rec in stream:
            clients[owner[tid]].send(tid, rec)
    finally:
        for client in clients:
            client.close()


class TestIngestServer:
    def test_multi_producer_matches_serial(self):
        stream = workload(seed=1, n_traces=24)
        ratios, degraded, violating = serial_answers(stream)
        ids = sorted(ratios, key=str)
        with IngestServer(
            XI,
            n_fronts=2,
            workers_per_front=1,
            n_shards=8,
            batch_size=16,
            backend="thread",
        ) as server:
            drive(server, stream, n_producers=3)
            server.flush()
            assert {
                tid: server.worst_ratio(tid) for tid in ids
            } == ratios
            assert {
                tid: server.is_degraded(tid) for tid in ids
            } == degraded
            assert set(server.violating_traces()) == violating
            assert server.ingested_records == len(stream)
            assert server.front_errors() == ()
            report = server.report()
            assert report.records == len(stream)
            assert set(report.violating_traces) == violating
            assert len(report.shards) == 8

    def test_delta_subscriber_reconstructs_aggregates(self):
        stream = workload(seed=4, n_traces=20)
        with IngestServer(
            XI, n_fronts=2, n_shards=8, batch_size=16, backend="thread"
        ) as server:
            sub = DeltaSubscriber(server.address, name="dash")
            drive(server, stream)
            server.flush()
            hist = server.worst_ratio_histogram()
            topk = server.top_k_riskiest(5)
            ratios = dict(server.all_ratios())
            feed = server.violation_feed()
            violating = server.violating_traces()
        # Server fully stopped: the view is built from the stream alone.
        view = sub.run_to_end()
        sub.close()
        assert view.ratios == ratios
        assert view.worst_ratio_histogram() == hist
        assert view.top_k_riskiest(5) == topk
        assert view.violation_feed() == feed
        assert view.violating_traces() == violating

    def test_reconnect_resumes_exactly_once(self):
        stream = workload(seed=7, n_traces=16)
        ratios, _degraded, _violating = serial_answers(stream)
        with IngestServer(
            XI, n_fronts=2, n_shards=8, batch_size=16, backend="thread"
        ) as server:
            client = ProducerClient(
                server.address, producer_id="flaky", batch=5
            )
            kills = {len(stream) // 4, len(stream) // 2}
            for i, (tid, rec) in enumerate(stream):
                client.send(tid, rec)
                if i in kills:
                    # The network dies under the producer; the next
                    # ship reconnects and replays the unacked tail.
                    client._fs.sock.shutdown(socket.SHUT_RDWR)
            client.close()
            server.flush()
            assert server.ingested_records == len(stream)  # exactly once
            got = {tid: server.worst_ratio(tid) for tid in ratios}
            assert got == ratios

    def test_unix_socket_listener(self, tmp_path):
        stream = workload(seed=2, n_traces=8)
        ratios, _d, _v = serial_answers(stream)
        path = str(tmp_path / "ingest.sock")
        with IngestServer(
            XI,
            n_fronts=2,
            n_shards=8,
            batch_size=16,
            backend="thread",
            host=None,
            unix_path=path,
        ) as server:
            assert server.address is None
            with ProducerClient(path, producer_id="p0", batch=9) as client:
                for tid, rec in stream:
                    client.send(tid, rec)
            assert {
                tid: server.worst_ratio(tid) for tid in ratios
            } == ratios

    def test_credit_window_bounds_unacked(self):
        stream = workload(seed=5, n_traces=12)
        with IngestServer(
            XI,
            n_fronts=1,
            n_shards=8,
            batch_size=16,
            backend="thread",
            credit_window=2,
        ) as server:
            client = ProducerClient(
                server.address, producer_id="p0", batch=3
            )
            peak = 0
            for tid, rec in stream:
                client.send(tid, rec)
                peak = max(peak, client.unacked_frames)
            client.flush()
            assert peak <= 2  # the server's window, honored client-side
            assert client.unacked_frames == 0
            assert client.acked_frames > 0
            client.close()

    def test_bad_hello_and_version_mismatch(self):
        with IngestServer(
            XI, n_fronts=1, n_shards=8, backend="thread"
        ) as server:
            sock = socket.create_connection(server.address, timeout=10)
            fs = FrameSocket(sock)
            fs.send(("nonsense",))
            assert fs.recv() == ("error", "expected hello")
            fs.close()
            sock = socket.create_connection(server.address, timeout=10)
            fs = FrameSocket(sock)
            fs.send(("hello", PROTOCOL_VERSION + 1, "produce", "p"))
            kind, message = fs.recv()
            assert kind == "error" and "protocol" in message
            fs.close()

    def test_constructor_validation(self):
        with pytest.raises(ValueError, match="front"):
            IngestServer(XI, n_fronts=0)
        with pytest.raises(ValueError, match="every worker needs a shard"):
            IngestServer(XI, n_fronts=4, workers_per_front=2, n_shards=4)
        with pytest.raises(ValueError, match="listen"):
            IngestServer(XI, host=None)

    def test_concurrent_producers_threads(self):
        """Producers on real threads, interleaving arbitrarily: the
        per-trace single-writer discipline is all determinism needs."""
        stream = workload(seed=11, n_traces=20)
        ratios, _d, violating = serial_answers(stream)
        ids = sorted(ratios, key=str)
        owner = {tid: i % 3 for i, tid in enumerate(ids)}
        with IngestServer(
            XI, n_fronts=2, n_shards=8, batch_size=16, backend="thread"
        ) as server:
            def produce(i):
                with ProducerClient(
                    server.address, producer_id=f"p{i}", batch=6
                ) as client:
                    for tid, rec in stream:
                        if owner[tid] == i:
                            client.send(tid, rec)

            threads = [
                threading.Thread(target=produce, args=(i,))
                for i in range(3)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert {
                tid: server.worst_ratio(tid) for tid in ids
            } == ratios
            assert set(server.violating_traces()) == violating


class TestOneThread:
    """The loop thread drives the fleet: no front threads, violation
    rows staged as they arrive, queries served between frames."""

    def test_no_front_threads(self):
        stream = workload(seed=3, n_traces=16)
        ratios, degraded, violating = serial_answers(stream)
        with IngestServer(
            XI, n_fronts=2, n_shards=8, batch_size=16, backend="thread"
        ) as server:
            names = [thread.name for thread in threading.enumerate()]
            assert not [n for n in names if n.startswith("ingest-front")]
            drive(server, stream, n_producers=3)
            assert {tid: server.worst_ratio(tid) for tid in ratios} == ratios
            assert {
                tid: server.is_degraded(tid) for tid in ratios
            } == degraded
            assert set(server.violating_traces()) == violating

    def test_staging_never_sorts_the_violation_feed(self, monkeypatch):
        stream = workload(seed=1, n_traces=24)
        _ratios, _degraded, violating = serial_answers(stream)
        assert violating
        calls = []
        feed = ParallelFleet.violation_feed

        def counted(fleet):
            calls.append(fleet)
            return feed(fleet)

        monkeypatch.setattr(ParallelFleet, "violation_feed", counted)
        with IngestServer(
            XI, n_fronts=2, n_shards=8, batch_size=16, backend="thread"
        ) as server:
            sub = DeltaSubscriber(server.address, name="dash")
            drive(server, stream, n_producers=3)
            assert calls == []
            server.flush()
            assert calls == []
            rows = server.violation_feed()
        view = sub.run_to_end()
        sub.close()
        assert {tid for _tick, tid in rows} == violating
        assert view.violation_feed() == rows

    def test_queries_from_another_thread_while_producers_stream(self):
        stream = workload(seed=11, n_traces=20)
        ratios, _degraded, violating = serial_answers(stream)
        ids = sorted(ratios, key=str)
        owner = {tid: i % 3 for i, tid in enumerate(ids)}
        with IngestServer(
            XI, n_fronts=2, n_shards=8, batch_size=16, backend="thread"
        ) as server:
            streaming = threading.Event()
            streaming.set()
            answers = []
            errors = []

            def query():
                try:
                    while streaming.is_set():
                        answers.append(
                            (server.report(), server.all_ratios())
                        )
                except BaseException as exc:  # asserted empty below
                    errors.append(exc)

            def produce(i):
                with ProducerClient(
                    server.address, producer_id=f"p{i}", batch=6
                ) as client:
                    for tid, rec in stream:
                        if owner[tid] == i:
                            client.send(tid, rec)

            querier = threading.Thread(target=query)
            producers = [
                threading.Thread(target=produce, args=(i,))
                for i in range(3)
            ]
            querier.start()
            for thread in producers:
                thread.start()
            for thread in producers:
                thread.join(timeout=60)
            streaming.clear()
            querier.join(timeout=60)
            assert not querier.is_alive()
            assert not any(thread.is_alive() for thread in producers)
            assert errors == []
            assert answers
            report = server.report()
            assert report.records == len(stream)
            assert set(report.violating_traces) == violating
            assert dict(server.all_ratios()) == ratios


class TestProduceFrames:
    """One produce-frame shape, ``("produce", int seq, rows)`` with rows
    ``(trace_id, wire_record)`` pairs; anything else draws an error
    frame before any of its rows is enqueued."""

    @staticmethod
    def connect(server, name):
        sock = socket.create_connection(server.address, timeout=10)
        fs = FrameSocket(sock)
        fs.send(("hello", PROTOCOL_VERSION, "produce", name))
        welcome = fs.recv()
        assert welcome[0] == "welcome"
        return fs, welcome[3]

    def test_interleaved_producers_match_serial(self):
        stream = workload(seed=21, n_traces=18)
        ratios, degraded, violating = serial_answers(stream)
        ids = sorted(ratios, key=str)
        with IngestServer(
            XI, n_fronts=2, n_shards=8, batch_size=16, backend="thread"
        ) as server:
            drive(server, stream, n_producers=3)
            server.flush()
            assert {
                tid: server.worst_ratio(tid) for tid in ids
            } == ratios
            assert {
                tid: server.is_degraded(tid) for tid in ids
            } == degraded
            assert set(server.violating_traces()) == violating
            assert server.ingested_records == len(stream)
            assert server.front_errors() == ()

    def test_malformed_frames_draw_an_error_frame(self):
        """A produce frame of the wrong shape is answered with an error
        frame (not a dropped connection), leaves the producer's
        sequence line untouched, and does not disturb a well-formed
        producer on the same server."""
        stream = workload(seed=3, n_traces=6)
        with IngestServer(
            XI, n_fronts=2, n_shards=8, batch_size=16, backend="thread"
        ) as server:
            good = ProducerClient(server.address, producer_id="good", batch=5)
            half = len(stream) // 2
            for tid, rec in stream[:half]:
                good.send(tid, rec)
            good.flush()
            for frame in (("produce", 1), ("produce", "one", []), 7):
                fs, acked = self.connect(server, "evil")
                assert acked == 0
                fs.send(frame)
                kind, _message = fs.recv()
                assert kind == "error", frame
                assert fs.recv() is None  # then the server hangs up
                fs.close()
            # The sequence line never moved: seq 1 is still the next
            # frame, and it is acked.
            fs, acked = self.connect(server, "evil")
            assert acked == 0
            fs.send(("produce", 1, []))
            assert fs.recv() == ("ack", 1)
            fs.close()
            for tid, rec in stream[half:]:
                good.send(tid, rec)
            good.flush()
            assert good.unacked_frames == 0
            good.close()
            server.flush()
            assert server.ingested_records == len(stream)
            assert server.front_errors() == ()

    def test_row_that_is_not_a_pair_rejected(self):
        """A row that does not unpack as ``(trace_id, wire_record)``
        rejects the whole frame: no row of it is ingested."""
        record = codec.encode_record(workload(seed=1, n_traces=1)[0][1])
        with IngestServer(
            XI, n_fronts=1, n_shards=8, backend="thread"
        ) as server:
            fs, _acked = self.connect(server, "evil")
            fs.send(("produce", 1, [("t1", record), ("t2",)]))
            kind, message = fs.recv()
            assert kind == "error" and "pair" in message
            fs.close()
            server.flush()
            assert server.ingested_records == 0
            fs, acked = self.connect(server, "evil")
            assert acked == 0
            fs.close()

    def test_trailing_field_rejected(self):
        """No trailing-field tolerance: the columnar frame's fourth
        element, or any other, is a malformed frame."""
        record = codec.encode_record(workload(seed=1, n_traces=1)[0][1])
        with IngestServer(
            XI, n_fronts=1, n_shards=8, backend="thread"
        ) as server:
            fs, _acked = self.connect(server, "odd")
            fs.send(("produce", 1, [("t1", record)], "cols"))
            kind, message = fs.recv()
            assert kind == "error" and "produce" in message
            fs.close()
            server.flush()
            assert server.ingested_records == 0


def produce_frames(stream, rows_per_frame):
    """The wire rows of ``stream`` cut into numbered produce frames."""
    rows = [(tid, codec.encode_record(rec)) for tid, rec in stream]
    return [
        ("produce", seq, rows[i : i + rows_per_frame])
        for seq, i in enumerate(range(0, len(rows), rows_per_frame), 1)
    ]


def read_acks(fs, last):
    """Read ack frames until ``last`` is acked; return their values."""
    acks = []
    while not acks or acks[-1] < last:
        kind, acked = fs.recv()
        assert kind == "ack"
        acks.append(acked)
    return acks


def assert_matches_serial(server, stream):
    ratios, degraded, violating = serial_answers(stream)
    server.flush()
    assert {tid: server.worst_ratio(tid) for tid in ratios} == ratios
    assert {tid: server.is_degraded(tid) for tid in ratios} == degraded
    assert set(server.violating_traces()) == violating
    assert server.ingested_records == len(stream)
    assert server.front_errors() == ()


def no_error_logs(caplog):
    return not [r for r in caplog.records if r.levelno >= logging.ERROR]


class TestServerFraming:
    """The server's connections over raw sockets: however the bytes of
    a frame are cut into reads, each frame is handled once, in order;
    bytes that are not a frame close the connection and leave the
    producer's ``seen`` and ``acked`` where they were."""

    connect = staticmethod(TestProduceFrames.connect)

    @staticmethod
    def server():
        return IngestServer(
            XI, n_fronts=2, n_shards=8, batch_size=16, backend="thread"
        )

    def test_frame_fed_one_byte_at_a_time(self):
        stream = workload(seed=31, n_traces=4, records_per_trace=(5, 10))
        [frame] = produce_frames(stream, len(stream))
        with self.server() as server:
            fs, _acked = self.connect(server, "drip")
            fs.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            for byte in frame_bytes(frame):
                fs.sock.sendall(bytes((byte,)))
            assert read_acks(fs, 1) == [1]
            fs.close()
            assert_matches_serial(server, stream)

    def test_frame_larger_than_the_receive_buffer(self):
        stream = workload(seed=32, n_traces=100, records_per_trace=(50, 50))
        [frame] = produce_frames(stream, len(stream))
        assert len(frame_bytes(frame)) > 256 * 1024
        with self.server() as server:
            fs, _acked = self.connect(server, "bulk")
            fs.send(frame)
            assert read_acks(fs, 1) == [1]
            fs.close()
            assert_matches_serial(server, stream)

    def test_coalesced_frames_acked_in_order(self):
        stream = workload(seed=33, n_traces=12)
        frames = produce_frames(stream, 17)
        with self.server() as server:
            fs, _acked = self.connect(server, "burst")
            fs.sock.sendall(b"".join(frame_bytes(f) for f in frames))
            acks = read_acks(fs, len(frames))
            assert acks == sorted(set(acks))  # increasing, none repeated
            fs.close()
            assert_matches_serial(server, stream)

    @pytest.mark.parametrize(
        "bad",
        ["crc", "zero-length", "unpickle"],
    )
    def test_bad_bytes_close_without_ingesting(self, bad, caplog):
        stream = workload(seed=34, n_traces=6)
        first, second = produce_frames(stream, len(stream) // 2 + 1)
        if bad == "crc":
            blob = bytearray(frame_bytes(second))
            blob[5] ^= 0xFF  # inside the CRC field
            blob = bytes(blob)
        elif bad == "zero-length":
            blob = _HEADER.pack(0, 0) + frame_bytes(second)
        else:
            blob = undecodable_frame()
        with self.server() as server:
            fs, _acked = self.connect(server, "p")
            fs.send(first)
            assert read_acks(fs, 1) == [1]
            fs.sock.sendall(blob)
            assert fs.recv() is None  # the server hung up, unanswered
            fs.close()
            assert server.ingested_records == len(first[2])
            fs, acked = self.connect(server, "p")
            assert acked == 1
            fs.send(second)  # seq 2 is still the next frame
            assert read_acks(fs, 2) == [2]
            fs.close()
            assert_matches_serial(server, stream)
        assert no_error_logs(caplog)

    def test_undecodable_hello_closes_quietly(self, caplog):
        with self.server() as server:
            sock = socket.create_connection(server.address, timeout=10)
            fs = FrameSocket(sock)
            fs.sock.sendall(undecodable_frame())
            assert fs.recv() is None
            fs.close()
            fs, acked = self.connect(server, "after")
            assert acked == 0
            fs.close()
        assert no_error_logs(caplog)

    def test_eof_mid_frame_then_replay_matches_serial(self):
        stream = workload(seed=35, n_traces=10)
        frames = produce_frames(stream, 23)
        cut = len(frames) // 2
        with self.server() as server:
            fs, _acked = self.connect(server, "torn")
            for frame in frames[:cut]:
                fs.send(frame)
            torn = frame_bytes(frames[cut])
            fs.sock.sendall(torn[: len(torn) // 2])
            fs.sock.shutdown(socket.SHUT_WR)
            while fs.recv() is not None:  # acks, then the hang-up
                pass
            fs.close()
            fs, acked = self.connect(server, "torn")
            assert acked <= cut
            for frame in frames[acked:]:  # replay from the ack line
                fs.send(frame)
            read_acks(fs, len(frames))
            fs.close()
            assert_matches_serial(server, stream)


class TestOneFleet:
    """One fleet behind the server: ``n_fronts * workers_per_front``
    workers, one ``ingest_wire_many`` call per produce frame, and one
    barrier per flush that posts to every worker before it reads any
    reply."""

    def test_flush_posts_to_every_worker_before_reading_a_reply(
        self, monkeypatch
    ):
        stream = workload(seed=41, n_traces=12)
        events = []
        put, get = WorkerHandle.put, WorkerHandle.get

        def recording_put(handle, message, timeout=None):
            if message[0] == "flush":
                events.append(("put", handle.worker_id))
            put(handle, message, timeout)

        def recording_get(handle, timeout=None):
            message = get(handle, timeout)
            if message[0] == "reply":
                events.append(("get", handle.worker_id))
            return message

        with IngestServer(
            XI, n_fronts=2, n_shards=8, batch_size=16, backend="thread"
        ) as server:
            drive(server, stream)
            monkeypatch.setattr(WorkerHandle, "put", recording_put)
            monkeypatch.setattr(WorkerHandle, "get", recording_get)
            server.flush()
            monkeypatch.undo()
            assert_matches_serial(server, stream)
        first_reply = next(
            i for i, (op, _w) in enumerate(events) if op == "get"
        )
        posted = [w for op, w in events[:first_reply] if op == "put"]
        assert sorted(posted) == [0, 1]

    def test_frame_is_one_ingest_call(self, monkeypatch):
        stream = workload(seed=42, n_traces=12)
        [frame] = produce_frames(stream, len(stream))
        # The frame's rows span both workers' shards.
        assert {shard_index_of(tid, 8) % 2 for tid, _ in frame[2]} == {0, 1}
        calls = []
        ingest = ParallelFleet.ingest_wire_many

        def counted(fleet, rows):
            calls.append(len(rows))
            return ingest(fleet, rows)

        monkeypatch.setattr(ParallelFleet, "ingest_wire_many", counted)
        with IngestServer(
            XI, n_fronts=2, n_shards=8, batch_size=16, backend="thread"
        ) as server:
            fs, _acked = TestProduceFrames.connect(server, "p")
            fs.send(frame)
            assert read_acks(fs, 1) == [1]
            fs.close()
            assert calls == [len(stream)]
            assert_matches_serial(server, stream)

    def test_budgeted_server_matches_serial(self):
        """A global budget goes to the one fleet, which apportions it
        across its workers; with sends metadata every answer stays
        bit-identical to the serial fleet under the same budget."""
        stream = workload(seed=43, n_traces=16)
        budget = 240
        serial = MonitorFleet(
            xi=XI, n_shards=8, batch_size=16, event_budget=budget
        )
        serial.ingest_many(stream)
        ids = sorted({tid for tid, _ in stream}, key=str)
        with IngestServer(
            XI,
            n_fronts=2,
            n_shards=8,
            batch_size=16,
            event_budget=budget,
            backend="thread",
        ) as server:
            drive(server, stream, n_producers=3)
            server.flush()
            assert {tid: server.worst_ratio(tid) for tid in ids} == {
                tid: serial.worst_ratio(tid) for tid in ids
            }
            assert {tid: server.is_degraded(tid) for tid in ids} == {
                tid: serial.is_degraded(tid) for tid in ids
            }
            assert set(server.violating_traces()) == set(
                serial.violating_traces()
            )
            report = server.report()
        assert report.records == len(stream)
        assert report.event_budget == budget
        assert report.peak_live_events <= budget
        assert report.tombstoned_events > 0  # the budget bit

    def test_refused_budget_starts_no_worker(self):
        before = set(multiprocessing.active_children())
        with pytest.raises(ValueError, match="got 1$"):
            IngestServer(3, n_fronts=2, event_budget=1, backend="process")
        assert not set(multiprocessing.active_children()) - before

    def test_process_workers_match_serial_and_rebuild_deltas(self):
        """On process workers, small inboxes and storm-heavy traffic: a
        multi-producer socket run answers bit-identically to the serial
        fleet, and a subscriber rebuilds ratios, histogram, top-k and
        violation feed from the delta stream alone."""
        stream = workload(
            seed=44,
            n_traces=30,
            profile_weights={"storm": 0.5, "burst": 0.35, "idler": 0.15},
        )
        ratios, degraded, violating = serial_answers(stream)
        assert violating
        with IngestServer(
            XI,
            n_fronts=2,
            n_shards=8,
            batch_size=16,
            backend="process",
            wire_batch=32,
            inbox_capacity=2,
        ) as server:
            sub = DeltaSubscriber(server.address, name="dash")
            drive(server, stream, n_producers=3)
            assert_matches_serial(server, stream)
            assert dict(server.all_ratios()) == ratios
            hist = server.worst_ratio_histogram()
            topk = server.top_k_riskiest(5)
            feed = server.violation_feed()
        view = sub.run_to_end()
        sub.close()
        assert view.ratios == ratios
        assert view.worst_ratio_histogram() == hist
        assert view.top_k_riskiest(5) == topk
        assert view.violation_feed() == feed
        assert {tid for _tick, tid in feed} == violating


class TestSubscriberOrder:
    def test_late_subscriber_gets_snapshot_then_end(self):
        """A subscriber of a closed store gets the snapshot first: the
        store hands the sink its end marker before it returns."""
        stream = workload(seed=36, n_traces=10)
        with IngestServer(
            XI, n_fronts=2, n_shards=8, batch_size=16, backend="thread"
        ) as server:
            drive(server, stream)
            server.flush()
            hist = server.worst_ratio_histogram()
            assert hist
            server.deltas.close()
            with DeltaSubscriber(server.address, name="late") as sub:
                view = sub.run_to_end()
            assert view.worst_ratio_histogram() == hist


class TestProducerReconnect:
    def test_undecodable_server_frame_reconnects_and_replays(self):
        """A frame the client cannot decode is a ProtocolError, which
        the producer answers by reconnecting and replaying its unacked
        frames."""
        stream = workload(seed=37, n_traces=1, records_per_trace=(3, 3))
        listener = socket.create_server(("127.0.0.1", 0))
        received = []

        def serve():
            for attempt in range(2):
                conn, _addr = listener.accept()
                fs = FrameSocket(conn)
                fs.sock.settimeout(10)
                assert fs.recv()[0] == "hello"
                fs.send(("welcome", PROTOCOL_VERSION, 8, 0, 4))
                frame = fs.recv()
                received.append(frame)
                if attempt == 0:
                    fs.sock.sendall(undecodable_frame())
                else:
                    fs.send(("ack", frame[1]))
                    assert fs.recv() == ("bye",)
                fs.close()

        server = threading.Thread(target=serve, daemon=True)
        server.start()
        try:
            with ProducerClient(
                listener.getsockname(),
                producer_id="p",
                batch=len(stream),
                timeout=10,
            ) as client:
                for tid, rec in stream:
                    client.send(tid, rec)
                client.flush()
                assert client.unacked_frames == 0
            server.join(timeout=10)
            assert not server.is_alive()
        finally:
            listener.close()
        assert len(received) == 2 and received[0] == received[1]
        assert received[0][1] == 1
