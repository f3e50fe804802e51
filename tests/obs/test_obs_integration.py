"""Telemetry-plane integration: monitor, codec, fleet, and server.

What travels here is the full metrics path the observability PR wires:
monitor instruments survive pickling by *not* traveling (snapshot blobs
stay telemetry-agnostic), telemetry rows round-trip the worker codec,
a parallel fleet merges per-worker registries crash-tolerantly, and a
network server exposes the scrape role plus metrics in the delta
stream.
"""

import pickle
import random
from fractions import Fraction

import pytest

from repro.analysis.online import OnlineAbcMonitor
from repro.core.events import Event
from repro.obs import metrics as obs
from repro.runtime import ParallelFleet, codec
from repro.runtime.net import DeltaSubscriber, IngestServer
from repro.runtime.net.client import fetch_metrics
from repro.scenarios.generators import (
    concurrent_workload,
    profiled_trace_records,
)
from repro.sim.trace import ReceiveRecord

XI = Fraction(4)


@pytest.fixture(autouse=True)
def clean_module_state():
    previous = obs.set_enabled(False)
    obs.reset_global_registry()
    yield
    obs.set_enabled(previous)
    obs.reset_global_registry()


@pytest.fixture
def enabled():
    obs.set_enabled(True)
    yield


def stream(seed=1, n_traces=8):
    return list(
        concurrent_workload(
            random.Random(seed),
            n_traces=n_traces,
            records_per_trace=(20, 40),
        )
    )


def trace_records(n=60, seed=3):
    return list(profiled_trace_records(random.Random(seed), "firehose", n))


def poison_record():
    return ReceiveRecord(
        event=Event(0, 7),
        time=1.0,
        sender=None,
        send_event=None,
        send_time=None,
        payload=None,
        processed=True,
        sends=(),
    )


# ----------------------------------------------------------------------
# codec
# ----------------------------------------------------------------------


class TestCodec:
    def test_metrics_rows_round_trip(self):
        registry = obs.MetricsRegistry()
        registry.counter("c_total", {"w": 0}).inc(3)
        registry.histogram("lat_ns", bounds=(10, 100)).observe(50)
        rows = registry.to_rows()
        wire = codec.encode_metrics_rows(rows)
        assert codec.decode_metrics_rows(wire) == rows
        merged = obs.MetricsRegistry()
        merged.merge_rows(codec.decode_metrics_rows(wire))
        assert merged.dump_json() == registry.dump_json()

    def test_encode_normalizes_histogram_payload_sequences(self):
        row = ("histogram", "h", (), 0, ([1, 2], [0, 1, 0], 1, 2))
        (encoded,) = codec.encode_metrics_rows((row,))
        assert encoded[4] == ((1, 2), (0, 1, 0), 1, 2)

    def test_decode_rejects_trailing_fields(self):
        wire = (("counter", "c_total", (), 1, 5, "trailing-field"),)
        with pytest.raises(ValueError):
            codec.decode_metrics_rows(wire)


# ----------------------------------------------------------------------
# monitor
# ----------------------------------------------------------------------


class TestMonitor:
    def test_disabled_monitor_has_no_instruments(self):
        assert OnlineAbcMonitor(xi=XI)._obs is None

    def test_enabled_monitor_counts_oracle_calls(self, enabled):
        monitor = OnlineAbcMonitor(xi=XI)
        assert monitor._obs is not None
        for record in trace_records():
            monitor.observe(record)
        registry = obs.global_registry()
        calls = registry.counter("repro_monitor_oracle_calls_total")
        assert calls.value == monitor.oracle_calls > 0
        sweep = registry.histogram(
            "repro_stage_ns", (("stage", "kernel_sweep"),)
        )
        assert sweep.count > 0

    def test_enabled_monitor_counts_detector_work(self, enabled):
        monitor = OnlineAbcMonitor(xi=XI)
        for record in trace_records():
            monitor.observe(record)
        registry = obs.global_registry()
        checker = monitor._checker
        for name, value in (
            ("repro_monitor_repairs_total", checker.repairs),
            ("repro_monitor_repaired_nodes_total", checker.repaired_nodes),
            ("repro_monitor_ratio_jumps_total", checker.ratio_jumps),
        ):
            counter = registry.counter(name)
            assert counter.deterministic
            assert counter.value == value > 0, name
        assert checker.ratio_jumps >= len(monitor.changes)

    def test_pickle_strips_instruments_and_restores_working(self, enabled):
        records = trace_records()
        monitor = OnlineAbcMonitor(xi=XI)
        for record in records[: len(records) // 2]:
            monitor.observe(record)
        assert monitor.__getstate__()["_obs"] is None
        restored = pickle.loads(pickle.dumps(monitor))
        assert restored._obs is None  # restoring side re-binds explicitly
        for record in records[len(records) // 2 :]:
            restored.observe(record)  # hooks skipped, no crash

    def test_snapshot_state_is_identical_on_and_off(self):
        records = trace_records()

        def blob(flag):
            previous = obs.set_enabled(flag)
            obs.reset_global_registry()
            try:
                monitor = OnlineAbcMonitor(xi=XI)
                for record in records:
                    monitor.observe(record)
                return pickle.dumps(monitor)
            finally:
                obs.set_enabled(previous)
                obs.reset_global_registry()

        assert blob(True) == blob(False)


# ----------------------------------------------------------------------
# parallel fleet
# ----------------------------------------------------------------------


class TestFleet:
    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_fleet_merges_worker_and_dispatcher_rows(self, enabled, backend):
        records = stream()
        with ParallelFleet(
            XI, n_shards=4, n_workers=2, batch_size=8, backend=backend
        ) as fleet:
            for tid, record in records:
                fleet.ingest(tid, record)
            fleet.flush()
            snapshot = fleet.metrics_snapshot()
            assert (
                snapshot["repro_dispatcher_shipped_records_total"]["value"]
                == len(records)
            )
            # worker-side (per-group registry) rows made it across the
            # reply protocol and into the merge
            assert any(
                key.startswith("repro_shard_flushes_total") for key in snapshot
            )
            deterministic = fleet.metrics_snapshot(deterministic_only=True)
            assert deterministic
            assert all(
                entry["deterministic"] for entry in deterministic.values()
            )
            text = fleet.render_prometheus()
            assert "# TYPE repro_dispatcher_shipped_records_total counter" in text

    def test_disabled_fleet_exports_nothing(self):
        records = stream(n_traces=4)
        with ParallelFleet(
            XI, n_shards=4, n_workers=2, batch_size=8, backend="thread"
        ) as fleet:
            for tid, record in records:
                fleet.ingest(tid, record)
            fleet.flush()
            assert fleet.metrics_rows() == ()
            assert fleet.metrics_snapshot() == {}

    def test_crashed_worker_contributes_last_synced_rows(self, enabled):
        records = stream(n_traces=6)
        with ParallelFleet(
            XI,
            n_shards=4,
            n_workers=2,
            batch_size=8,
            backend="thread",
            wire_batch=16,
        ) as fleet:
            for tid, record in records:
                fleet.ingest(tid, record)
            fleet.flush()
            before = fleet.metrics_snapshot()  # fills per-worker caches
            doomed = next(
                f"d{i}"
                for i in range(1000)
                if fleet.worker_of(fleet.shard_of(f"d{i}")) == 0
            )
            fleet.ingest(doomed, poison_record())
            fleet.flush()
            assert fleet.report().crashed_shards
            after = fleet.metrics_snapshot()
            # the dead worker's shard rows are the cached pre-crash ones
            shard_keys = [
                key for key in before if key.startswith("repro_shard")
            ]
            assert shard_keys
            for key in shard_keys:
                assert after[key] == before[key]
            # the dispatcher kept counting through the crash
            assert (
                after["repro_dispatcher_shipped_records_total"]["value"]
                == len(records) + 1
            )


# ----------------------------------------------------------------------
# network server
# ----------------------------------------------------------------------


def drive(server, records, n_producers=2):
    from repro.runtime.net import ProducerClient

    ids = sorted({tid for tid, _ in records}, key=str)
    owner = {tid: i % n_producers for i, tid in enumerate(ids)}
    clients = [
        ProducerClient(server.address, producer_id=f"p{i}", batch=7)
        for i in range(n_producers)
    ]
    try:
        for tid, record in records:
            clients[owner[tid]].send(tid, record)
    finally:
        for client in clients:
            client.close()


class TestServer:
    def test_metrics_role_and_delta_stream(self, enabled):
        records = stream(seed=5, n_traces=8)
        with IngestServer(
            XI,
            n_fronts=2,
            n_shards=4,
            batch_size=8,
            backend="thread",
            metrics_interval=0.0,
        ) as server:
            sub = DeltaSubscriber(server.address, name="dash")
            drive(server, records)
            server.flush()
            scraped = obs.rows_to_json(fetch_metrics(server.address))
            produced = [
                entry["value"]
                for key, entry in scraped.items()
                if key.startswith("repro_net_produced_records_total")
            ]
            assert sum(produced) == len(records)
            assert len(produced) == 2  # one series per producer
            # One fleet: its dispatcher's series carries no front label.
            shipped = scraped["repro_dispatcher_shipped_records_total"]
            assert shipped["value"] == len(records)
            assert not [key for key in scraped if "front=" in key]
            text = server.render_prometheus()
            assert "repro_net_produced_records_total" in text
        view = sub.run_to_end()
        sub.close()
        assert view.metrics_rows()
        assert view.metrics_snapshot()

    def test_disabled_server_scrapes_empty(self):
        records = stream(seed=6, n_traces=4)
        with IngestServer(
            XI, n_fronts=1, n_shards=4, batch_size=8, backend="thread"
        ) as server:
            drive(server, records, n_producers=1)
            server.flush()
            assert fetch_metrics(server.address) == ()
