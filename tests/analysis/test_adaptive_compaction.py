"""Adaptive compaction cadence: live/boundary-triggered, not every-k.

The ROADMAP follow-on to PR 4's summary compaction: instead of
compacting on a fixed record cadence -- which pays a full Pareto
label-correcting pass every k records no matter how little it would
reclaim -- the monitor triggers when the live digraph outgrows
``threshold`` times the boundary it must keep (frontier + in-flight
send pins).  The contract under test, on the adversarial
relay-chain shape:

* reported ratios stay bit-identical to an uncompacted monitor at
  every record (the summary-mode ratio-equivalence invariant);
* the adaptive trigger runs *fewer* compaction passes than the fixed
  every-k cadence, because its spacing scales with the reclaimable
  volume instead of the record count;
* memory stays bounded by the threshold times the boundary, not by
  the trace length;
* a fully pinned trace (every send still in flight) is never
  compacted at all -- the degenerate case where a fixed cadence pays
  passes that can reclaim nothing.
"""

import random
from fractions import Fraction

import pytest

from repro.analysis.online import OnlineAbcMonitor
from repro.core.events import Event
from repro.scenarios.generators import relay_chain_workload
from repro.sim.trace import ReceiveRecord, SendRecord, encode_record

SEED = 13
N_RECORDS = 800
FIXED_EVERY = 8
THRESHOLD = 3.0


def rows(records):
    """Records as the rows ``observe_batch`` takes."""
    return [encode_record(record) for record in records]


def run_fixed_cadence(records, every=FIXED_EVERY):
    """The pre-satellite baseline (bench_compaction's shape): compact
    on a fixed record cadence, tracking in-flight pins by hand."""
    monitor = OnlineAbcMonitor()
    in_flight: dict = {}
    peak = 0
    compactions = 0
    for i, record in enumerate(records):
        monitor.observe(record)
        src = record.send_event
        if src is not None and in_flight.get(src, 0) > 0:
            in_flight[src] -= 1
            if not in_flight[src]:
                del in_flight[src]
        if record.sends:
            in_flight[record.event] = in_flight.get(record.event, 0) + len(
                record.sends
            )
        peak = max(peak, monitor.n_events)
        if (i + 1) % every == 0:
            if monitor.forget_prefix(
                monitor.compactable_prefix(in_flight), summarize=True
            ):
                compactions += 1
    return monitor, peak, compactions


def run_adaptive(records, threshold=THRESHOLD):
    monitor = OnlineAbcMonitor(compact_threshold=threshold)
    peak = 0
    for record in records:
        monitor.observe(record)
        peak = max(peak, monitor.n_events)
    return monitor, peak


class TestAdaptiveMonitor:
    def test_running_ratios_bit_identical_to_uncompacted(self):
        records = relay_chain_workload(random.Random(SEED), 300)
        adaptive = OnlineAbcMonitor(compact_threshold=2.0)
        reference = OnlineAbcMonitor()
        for record in records:
            assert adaptive.observe(record) == reference.observe(record)
        assert adaptive.auto_compactions > 0
        assert adaptive.forgotten_message_edges == 0
        assert adaptive.n_events < reference.n_events

    def test_fewer_compactions_than_fixed_cadence_at_identical_ratios(self):
        """The satellite's acceptance assertion: on the relay chain,
        the threshold trigger compacts when (threshold - 1) boundaries'
        worth of history has accumulated -- so its pass count scales
        with the reclaimable volume, while the fixed cadence pays
        ``n / k`` passes regardless.  Ratios must agree bit-for-bit
        throughout."""
        records = relay_chain_workload(random.Random(SEED), N_RECORDS)
        fixed_monitor, _fixed_peak, fixed_compactions = run_fixed_cadence(
            records
        )
        adaptive_monitor, adaptive_peak = run_adaptive(records)
        assert adaptive_monitor.worst_ratio == fixed_monitor.worst_ratio
        assert adaptive_monitor.worst_ratio is not None  # nontrivial
        assert 0 < adaptive_monitor.auto_compactions < fixed_compactions
        # The memory stays boundary-bounded (t x boundary), nowhere
        # near the unbounded trace length.
        assert adaptive_peak <= 60 < N_RECORDS

    def test_fully_pinned_trace_is_never_compacted(self):
        """Every record announces a send that never arrives: every
        event is pinned, nothing is reclaimable, and the adaptive
        trigger -- unlike a fixed cadence -- never pays a pass."""
        records = []
        for i in range(60):
            process = i % 2
            records.append(
                ReceiveRecord(
                    event=Event(process, i // 2),
                    time=float(i),
                    sender=None,
                    send_event=None,
                    send_time=None,
                    payload=None,
                    processed=True,
                    sends=(
                        SendRecord(
                            dest=1 - process,
                            payload=None,
                            delay=1e9,
                            deliver_time=1e9,
                        ),
                    ),
                )
            )
        monitor = OnlineAbcMonitor(compact_threshold=1.5)
        for record in records:
            monitor.observe(record)
        assert monitor.auto_compactions == 0
        assert monitor.n_events == len(records)

    def test_batch_observation_also_triggers(self):
        records = relay_chain_workload(random.Random(SEED), 300)
        monitor = OnlineAbcMonitor(compact_threshold=2.0)
        reference = OnlineAbcMonitor()
        for start in range(0, len(records), 25):
            batch = records[start : start + 25]
            assert monitor.observe_batch(rows(batch)) == reference.observe_batch(
                rows(batch)
            )
        assert monitor.auto_compactions > 0
        assert monitor.n_events < reference.n_events

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            OnlineAbcMonitor(compact_threshold=1.0)
        with pytest.raises(ValueError):
            OnlineAbcMonitor(compact_threshold=0.5)
