"""Tests for the random workload generators."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

from repro.core.synchrony import check_abc
from repro.scenarios.generators import (
    concurrent_workload,
    profiled_trace_records,
    random_execution_graph,
    streaming_records,
    streaming_trace,
    theta_band_trace,
)
from repro.sim.trace import Trace, build_execution_graph


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    n_processes=st.integers(1, 5),
    n_messages=st.integers(0, 15),
)
def test_random_graphs_are_valid(seed, n_processes, n_messages):
    rng = random.Random(seed)
    # Construction raises if the graph violates Definition 1.
    graph = random_execution_graph(rng, n_processes, n_messages)
    assert len(graph.messages) == n_messages
    assert graph.n_events == n_processes + n_messages


def test_random_graph_determinism():
    g1 = random_execution_graph(random.Random(5), 3, 8)
    g2 = random_execution_graph(random.Random(5), 3, 8)
    assert g1.messages == g2.messages


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    n_processes=st.integers(1, 4),
    n_records=st.integers(1, 30),
)
def test_streaming_prefixes_are_valid_traces(seed, n_processes, n_records):
    rng = random.Random(seed)
    n_records = max(n_records, n_processes)
    records = list(streaming_records(rng, n_processes, n_records))
    assert len(records) == n_records
    times = [r.time for r in records]
    assert times == sorted(times) and len(set(times)) == len(times)
    # Every prefix must build into a valid execution graph.
    for k in (1, n_records // 2 + 1, n_records):
        prefix = Trace(n_processes, frozenset(), records[:k])
        build_execution_graph(prefix)  # raises if invalid


def test_streaming_trace_determinism_and_shape():
    t1 = streaming_trace(random.Random(4), n_processes=3, n_records=20)
    t2 = streaming_trace(random.Random(4), n_processes=3, n_records=20)
    assert t1.records == t2.records
    assert len(t1.records) == 20
    # The first n_processes records are the wake-ups.
    assert all(r.sender is None for r in t1.records[:3])
    assert any(r.sender is not None for r in t1.records)


def test_streaming_records_validation():
    with pytest.raises(ValueError):
        list(streaming_records(random.Random(0), n_processes=0))
    with pytest.raises(ValueError):
        list(streaming_records(random.Random(0), n_processes=3, n_records=2))


def test_theta_band_trace_is_abc_admissible():
    trace = theta_band_trace(n=4, f=1, theta=1.4, max_tick=6, seed=2)
    graph = build_execution_graph(trace)
    assert check_abc(graph, 2).admissible


# ----------------------------------------------------------------------
# multi-trace fleet workloads
# ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "profile", ["storm", "burst", "idler", "relay", "firehose"]
)
def test_profiled_traces_are_valid_growing_executions(profile):
    records = profiled_trace_records(random.Random(3), profile, 50)
    assert len(records) == 50
    times = [r.time for r in records]
    assert times == sorted(times)
    n = max(r.event.process for r in records) + 1
    # Every prefix must build into a valid execution graph.
    for k in (1, 17, 50):
        build_execution_graph(Trace(n, frozenset(), records[:k]))


@pytest.mark.parametrize(
    "profile", ["storm", "burst", "idler", "relay", "firehose"]
)
def test_profiled_traces_carry_complete_sends_metadata(profile):
    """Every message must appear in its send event's ``sends`` -- the
    in-flight knowledge that keeps fleet eviction exact."""
    records = profiled_trace_records(random.Random(9), profile, 60)
    by_event = {r.event: r for r in records}
    n_messages = 0
    for record in records:
        if record.send_event is None:
            continue
        n_messages += 1
        sender = by_event[record.send_event]
        assert any(
            s.dest == record.event.process and s.deliver_time == record.time
            for s in sender.sends
        ), f"{record.event} missing from {record.send_event}'s sends"
    assert n_messages > 0


def test_storm_traces_close_relevant_cycles():
    from repro.core.synchrony import worst_relevant_ratio

    records = profiled_trace_records(random.Random(1), "storm", 80)
    graph = build_execution_graph(Trace(3, frozenset(), records))
    worst = worst_relevant_ratio(graph)
    assert worst is not None and worst > 1


def test_profiled_trace_records_validation():
    with pytest.raises(ValueError):
        profiled_trace_records(random.Random(0), "nope", 10)
    with pytest.raises(ValueError):
        profiled_trace_records(random.Random(0), "storm", 0)


def test_concurrent_workload_shape_and_determinism():
    stream1 = list(concurrent_workload(random.Random(5), n_traces=8))
    stream2 = list(concurrent_workload(random.Random(5), n_traces=8))
    assert stream1 == stream2
    trace_ids = {tid for tid, _r in stream1}
    assert len(trace_ids) == 8
    assert all(tid.split("-")[0] in ("storm", "burst", "idler") for tid in trace_ids)
    # Per-trace subsequences are valid growing executions.
    per = {}
    for tid, record in stream1:
        per.setdefault(tid, []).append(record)
    for records in per.values():
        n = max(r.event.process for r in records) + 1
        build_execution_graph(Trace(n, frozenset(), records))


def test_concurrent_workload_validation():
    with pytest.raises(ValueError):
        list(concurrent_workload(random.Random(0), n_traces=0))


def test_relay_chain_is_never_exactly_settleable():
    """The adversarial compaction shape: on every prefix with anything
    in flight, the no-crossing criterion removes nothing, while the
    chain closes relevant cycles of ratio > 1."""
    from repro.analysis.online import OnlineAbcMonitor
    from repro.scenarios.generators import relay_chain_workload

    records = relay_chain_workload(random.Random(3), 200)
    n = max(r.event.process for r in records) + 1
    for k in (1, 80, 200):
        build_execution_graph(Trace(n, frozenset(), records[:k]))
    monitor = OnlineAbcMonitor()
    pinned = {r.send_event for r in records if r.send_event is not None}
    for record in records:
        monitor.observe(record)
        assert monitor.settled_prefix(pinned) == {}
    from repro.core.synchrony import worst_relevant_ratio

    worst = worst_relevant_ratio(
        build_execution_graph(Trace(n, frozenset(), records))
    )
    assert worst is not None and worst > 1
    assert monitor.worst_ratio == worst


def test_relay_chain_validation():
    from repro.scenarios.generators import relay_chain_workload

    with pytest.raises(ValueError):
        relay_chain_workload(random.Random(0), 10, n_processes=1)
    with pytest.raises(ValueError):
        relay_chain_workload(random.Random(0), 0)


def test_firehose_traces_are_dense_message_streams():
    """The firehose profile (bench_e2e's gate shape):
    one wake-up per process, then *every* record carries a triggering
    message from a recent event, with no silences between arrivals."""
    records = profiled_trace_records(random.Random(5), "firehose", 80)
    n_processes = max(r.event.process for r in records) + 1
    wakeups = [r for r in records if r.send_event is None]
    assert len(wakeups) == n_processes
    assert all(r.event.index == 0 for r in wakeups)
    triggered = [r for r in records if r.send_event is not None]
    assert len(triggered) == len(records) - n_processes
    # Dense arrivals: no gap resembling an idle period.
    times = [r.time for r in records]
    gaps = [b - a for a, b in zip(times, times[1:])]
    assert max(gaps) < 0.01
    # Dense all-to-all traffic closes relevant cycles, so the monitor
    # has real ratio work on every batch.
    graph = build_execution_graph(
        Trace(n_processes, frozenset(), records)
    )
    from repro.core.synchrony import worst_relevant_ratio

    assert worst_relevant_ratio(graph) is not None


def test_firehose_determinism():
    one = profiled_trace_records(random.Random(42), "firehose", 60)
    two = profiled_trace_records(random.Random(42), "firehose", 60)
    assert one == two
