"""Unit tests for the metrics registry.

The contract under test is the one the parallel fleet leans on:
instrument creation is idempotent, serialization is plain sorted
tuples, merging is associative/commutative integer addition (so the
fleet dump is independent of worker arrival order), and the
deterministic flag partitions the export into the cross-backend
comparable subset.
"""

import itertools
import json

import pytest

from repro.obs import metrics as obs
from repro.obs.metrics import (
    COUNT_BUCKETS,
    DEFAULT_NS_BUCKETS,
    EVENT_CAPACITY,
    MetricsRegistry,
    merge_row_sets,
    rows_to_json,
)


@pytest.fixture(autouse=True)
def clean_module_state():
    previous = obs.set_enabled(False)
    obs.reset_global_registry()
    yield
    obs.set_enabled(previous)
    obs.reset_global_registry()


class TestInstruments:
    def test_counter_accumulates(self):
        c = MetricsRegistry().counter("c_total")
        c.inc()
        c.inc(41)
        assert c.value == 42

    def test_gauge_set_inc_dec(self):
        g = MetricsRegistry().gauge("g")
        g.set(10)
        g.inc(5)
        g.dec(2)
        assert g.value == 13

    def test_histogram_bucket_edges_are_inclusive(self):
        # bisect_left: a value equal to a bound must land in that
        # bound's bucket (Prometheus ``le`` semantics).
        h = MetricsRegistry().histogram("h", bounds=(10, 100, 1000))
        h.observe(10)  # equal to the first bound: bucket 0, not 1
        h.observe(11)
        h.observe(100)
        h.observe(5000)  # past the last bound: overflow bucket
        h.observe(0)
        assert h.counts == [2, 2, 0, 1]
        assert h.count == 5
        assert h.sum == 10 + 11 + 100 + 5000

    def test_default_bounds_are_exact_integer_powers(self):
        assert DEFAULT_NS_BUCKETS == tuple(4**k for k in range(5, 17))
        assert COUNT_BUCKETS == tuple(4**k for k in range(0, 10))
        assert all(isinstance(b, int) for b in DEFAULT_NS_BUCKETS)


class TestRegistry:
    def test_instrument_creation_is_idempotent(self):
        registry = MetricsRegistry()
        a = registry.counter("x_total", {"w": 1})
        b = registry.counter("x_total", (("w", "1"),))  # same key, other spelling
        assert a is b

    def test_labels_are_sorted_normalized_strings(self):
        registry = MetricsRegistry()
        c = registry.counter("x_total", {"zeta": 1, "alpha": "two"})
        assert c.labels == (("alpha", "two"), ("zeta", "1"))

    def test_same_name_different_kind_are_distinct(self):
        registry = MetricsRegistry()
        registry.counter("x")
        registry.gauge("x")
        assert len(registry.to_rows()) == 2

    def test_to_rows_shape_and_order(self):
        registry = MetricsRegistry()
        registry.counter("b_total").inc(2)
        registry.gauge("a_depth", deterministic=False).set(3)
        rows = registry.to_rows()
        assert [row[1] for row in rows] == ["a_depth", "b_total"]
        kind, name, labels, deterministic, payload = rows[1]
        assert (kind, name, labels, deterministic, payload) == (
            "counter", "b_total", (), 1, 2
        )
        assert rows[0][3] == 0  # non-deterministic flag serializes as 0

    def test_merge_sums_counters_gauges_and_buckets(self):
        def build(counter_n, gauge_v, observations):
            registry = MetricsRegistry()
            registry.counter("c_total").inc(counter_n)
            registry.gauge("depth").set(gauge_v)
            h = registry.histogram("lat_ns", bounds=(10, 100))
            for v in observations:
                h.observe(v)
            return registry

        merged = MetricsRegistry()
        merged.merge_rows(build(3, 7, [5, 50]).to_rows())
        merged.merge_rows(build(4, 2, [500]).to_rows())
        assert merged.counter("c_total").value == 7
        assert merged.gauge("depth").value == 9  # gauges sum (fleet level)
        h = merged.histogram("lat_ns", bounds=(10, 100))
        assert h.counts == [1, 1, 1] and h.count == 3 and h.sum == 555

    def test_merge_is_order_independent(self):
        row_sets = []
        for seed in range(3):
            registry = MetricsRegistry()
            registry.counter("c_total", {"w": seed}).inc(seed + 1)
            registry.histogram("lat_ns").observe(4**(5 + seed))
            row_sets.append(registry.to_rows())
        dumps = set()
        for perm in itertools.permutations(row_sets):
            dumps.add(merge_row_sets(perm))
        assert len(dumps) == 1

    def test_merge_rejects_mismatched_histogram_bounds(self):
        a = MetricsRegistry()
        a.histogram("h", bounds=(1, 2)).observe(1)
        b = MetricsRegistry()
        b.histogram("h", bounds=(1, 2, 3)).observe(1)
        with pytest.raises(ValueError, match="bucket bounds differ"):
            b.merge_rows(a.to_rows())

    def test_merge_rejects_unknown_kinds_and_trailing_fields(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError, match="instrument kind"):
            registry.merge_rows([("summary", "s", (), 1, (1, 2))])
        with pytest.raises(ValueError):
            registry.merge_rows([("counter", "c_total", (), 1, 5, "extra")])
        assert registry.to_rows() == ()

    def test_event_buffer_records_drains_and_bounds(self):
        registry = MetricsRegistry()
        registry.record_event("ctx", "worker_absorb", 12)
        assert registry.drain_events() == (("ctx", "worker_absorb", 12),)
        assert registry.drain_events() == ()
        for i in range(EVENT_CAPACITY + 10):
            registry.record_event("ctx", "s", i)
        drained = registry.drain_events()
        assert len(drained) == EVENT_CAPACITY
        assert drained[0][2] == 10  # oldest events fell off


class TestExport:
    def build(self):
        registry = MetricsRegistry()
        registry.counter("repro_c_total", help="a counter").inc(3)
        registry.gauge("repro_depth", {"w": 0}).set(2)
        h = registry.histogram("repro_lat_ns", bounds=(10, 100))
        h.observe(10)
        h.observe(99)
        h.observe(5000)
        return registry

    def test_to_json_shapes(self):
        snapshot = self.build().to_json()
        assert snapshot["repro_c_total"] == {
            "kind": "counter", "deterministic": True, "value": 3
        }
        assert snapshot['repro_depth{w="0"}']["value"] == 2
        hist = snapshot["repro_lat_ns"]
        assert hist["buckets"] == [[10, 1], [100, 1]]
        assert hist["overflow"] == 1
        assert (hist["count"], hist["sum"]) == (3, 10 + 99 + 5000)

    def test_deterministic_only_filters(self):
        snapshot = self.build().to_json(deterministic_only=True)
        assert list(snapshot) == ["repro_c_total"]

    def test_dump_json_is_canonical(self):
        a, b = self.build(), self.build()
        assert a.dump_json() == b.dump_json()
        json.loads(a.dump_json())  # valid JSON

    def test_render_prometheus_exposition(self):
        text = self.build().render_prometheus()
        lines = text.splitlines()
        assert "# TYPE repro_c_total counter" in lines
        assert "# HELP repro_c_total a counter" in lines
        assert "repro_c_total 3" in lines
        assert 'repro_depth{w="0"} 2' in lines
        # histogram buckets are cumulative and ``le`` is inclusive
        assert 'repro_lat_ns_bucket{le="10"} 1' in lines
        assert 'repro_lat_ns_bucket{le="100"} 2' in lines
        assert 'repro_lat_ns_bucket{le="+Inf"} 3' in lines
        assert "repro_lat_ns_sum 5109" in lines
        assert "repro_lat_ns_count 3" in lines
        assert text.endswith("\n")

    def test_rows_to_json_round_trips(self):
        registry = self.build()
        assert rows_to_json(registry.to_rows()) == registry.to_json()


class TestModuleState:
    def test_set_enabled_returns_previous(self):
        assert obs.set_enabled(True) is False
        assert obs.enabled() is True
        assert obs.set_enabled(False) is True

    def test_registry_if_enabled_gates_on_flag(self):
        assert obs.registry_if_enabled() is None
        obs.set_enabled(True)
        assert obs.registry_if_enabled() is obs.global_registry()

    def test_reset_drops_the_global_registry(self):
        first = obs.global_registry()
        first.counter("x").inc()
        obs.reset_global_registry()
        second = obs.global_registry()
        assert second is not first
        assert second.to_rows() == ()
