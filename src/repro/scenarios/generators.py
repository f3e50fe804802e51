"""Random workload generators for tests and benchmarks.

Three kinds of randomness are useful:

* :func:`random_execution_graph` -- synthetic execution graphs built
  directly (no simulation): messages attach a fresh receive event to a
  random earlier step, so validity (DAG, one trigger per event) holds by
  construction while the ABC condition may or may not.  Ideal for
  property-based testing of the checkers and the Theorem 7 equivalence.
* :func:`streaming_records` -- the same random construction emitted as a
  *stream* of :class:`~repro.sim.trace.ReceiveRecord` objects in global
  delivery order, i.e. a growing execution as an online monitor sees it.
  Every finite prefix of the stream is a valid trace, which is exactly
  the workload shape of the ?ABC / <>ABC monitoring primitives.
* :func:`theta_band_trace` -- simulated Algorithm-1 executions under a
  Theta-band delay model; ABC-admissible for any ``Xi > Theta`` by
  Theorem 6, with realistic message patterns.

A fourth family stresses the ABC-*enforcing* scheduler
(:class:`~repro.sim.abc_scheduler.AbcEnforcingSimulator`): workload
setups -- ``(processes, network)`` pairs -- whose raw delays would break
admissibility, so the enforcer has to intervene.  :func:`ping_pong_storm`
races fast round-trip chains against a slow link (Figure 3 at scale),
:func:`zero_delay_burst` drives the fast chains at literally zero delay
(the paper's ``m3`` observation pushed to the limit), and
:func:`long_silence` leaves a link silent for epochs at a time.
:func:`random_enforcer_setup` draws randomized mixtures of all three for
differential and property testing.

A fifth family feeds the *multi-trace* fleet monitor
(:class:`~repro.analysis.fleet.MonitorFleet`):
:func:`concurrent_workload` interleaves many independent record streams
-- ping-pong storms, clustered bursts, long-silence idlers -- into one
global ``(trace_id, record)`` stream in arrival order, with every
record carrying full ``sends`` metadata so in-flight messages are
knowable and budget-driven eviction stays exact.
"""

from __future__ import annotations

import dataclasses
import random
from fractions import Fraction
from typing import Iterator, Sequence

from repro.algorithms.clock_sync import ClockSyncProcess
from repro.algorithms.failure_detector import PingPongMonitor, PongResponder
from repro.core.events import Event
from repro.core.execution_graph import ExecutionGraph, GraphBuilder
from repro.sim.delays import FixedDelay, PerLinkDelay, ThetaBandDelay, UniformDelay
from repro.sim.engine import SimulationLimits, Simulator
from repro.sim.network import Network, Topology
from repro.sim.process import Process
from repro.sim.trace import ReceiveRecord, SendRecord, Trace

__all__ = [
    "random_execution_graph",
    "streaming_records",
    "streaming_trace",
    "theta_band_trace",
    "clock_sync_run",
    "ping_pong_storm",
    "zero_delay_burst",
    "long_silence",
    "random_enforcer_setup",
    "concurrent_workload",
    "profiled_trace_records",
    "relay_chain_workload",
    "strip_sends_metadata",
]


def _pick_source(
    rng: random.Random,
    events: Sequence[Event],
    locality: float,
    n_processes: int,
) -> Event:
    """A random existing event to send from, biased towards recent ones
    (the shared locality rule of the random generators)."""
    if rng.random() < locality and len(events) > n_processes:
        return events[rng.randrange(len(events) // 2, len(events))]
    return events[rng.randrange(len(events))]


def random_execution_graph(
    rng: random.Random,
    n_processes: int = 3,
    n_messages: int = 8,
    locality: float = 0.5,
) -> ExecutionGraph:
    """A random valid execution graph.

    Events are created in causal order: each new message picks an
    already-existing event as its sending step (biased towards recent
    events by ``locality``) and appends a fresh receive event at a random
    process, so every event has at most one incoming message and the
    digraph is acyclic by construction.
    """
    if n_processes < 1:
        raise ValueError("need at least one process")
    builder = GraphBuilder()
    next_index = [1 for _ in range(n_processes)]
    events: list[Event] = [builder.event(p, 0) for p in range(n_processes)]
    for _ in range(n_messages):
        src = _pick_source(rng, events, locality, n_processes)
        dst_process = rng.randrange(n_processes)
        dst = builder.event(dst_process, next_index[dst_process])
        next_index[dst_process] += 1
        builder.message(src, dst)
        events.append(dst)
    return builder.build()


def streaming_records(
    rng: random.Random,
    n_processes: int = 3,
    n_records: int = 50,
    p_message: float = 0.9,
    locality: float = 0.5,
) -> Iterator[ReceiveRecord]:
    """A stream of receive records forming a growing valid execution.

    The first ``n_processes`` records are the external wake-ups (one per
    process); each later record appends a fresh receive event at a random
    process, triggered with probability ``p_message`` by a message from a
    random earlier step (biased towards recent steps by ``locality``, as
    in :func:`random_execution_graph`) and otherwise by another wake-up.
    Occurrence times strictly increase, so every prefix of the stream is
    a well-formed trace and :func:`~repro.sim.trace.build_execution_graph`
    accepts it; the worst relevant ratio of the prefixes typically grows
    several times over the stream, exercising the incremental monitor's
    rare path as well as its steady state.
    """
    if n_processes < 1:
        raise ValueError("need at least one process")
    if n_records < n_processes:
        raise ValueError("need at least one (wake-up) record per process")

    def record(
        event: Event,
        time: float,
        sender: int | None,
        send_event: Event | None,
        send_time: float | None,
    ) -> ReceiveRecord:
        return ReceiveRecord(
            event=event,
            time=time,
            sender=sender,
            send_event=send_event,
            send_time=send_time,
            payload=None,
            processed=True,
            sends=(),
        )

    now = 0.0
    next_index = [1] * n_processes
    events: list[Event] = []
    times: dict[Event, float] = {}
    for p in range(n_processes):
        ev = Event(p, 0)
        now += rng.random() + 0.05
        events.append(ev)
        times[ev] = now
        yield record(ev, now, None, None, None)
    for _ in range(n_records - n_processes):
        now += rng.random() + 0.05
        dst_process = rng.randrange(n_processes)
        dst = Event(dst_process, next_index[dst_process])
        next_index[dst_process] += 1
        if rng.random() < p_message:
            src = _pick_source(rng, events, locality, n_processes)
            yield record(dst, now, src.process, src, times[src])
        else:
            yield record(dst, now, None, None, None)
        events.append(dst)
        times[dst] = now


def streaming_trace(
    rng: random.Random,
    n_processes: int = 3,
    n_records: int = 50,
    p_message: float = 0.9,
    locality: float = 0.5,
) -> Trace:
    """The :func:`streaming_records` stream materialized as a trace."""
    records = list(
        streaming_records(rng, n_processes, n_records, p_message, locality)
    )
    return Trace(n_processes, frozenset(), records)


def clock_sync_run(
    n: int,
    f: int,
    theta: float,
    max_tick: int,
    seed: int = 0,
    faulty_procs: Sequence[object] = (),
) -> tuple[Trace, list[object]]:
    """Run Algorithm 1 under a Theta-band network; returns (trace,
    processes).  ``faulty_procs`` replace the *last* ``len(faulty_procs)``
    correct processes and are reported as faulty in the trace."""
    processes: list[object] = [
        ClockSyncProcess(f, max_tick=max_tick) for _ in range(n)
    ]
    faulty_ids = set()
    for i, proc in enumerate(faulty_procs):
        pid = n - 1 - i
        processes[pid] = proc
        faulty_ids.add(pid)
    network = Network(Topology.fully_connected(n), ThetaBandDelay(1.0, theta))
    sim = Simulator(processes, network, faulty=faulty_ids, seed=seed)
    trace = sim.run(SimulationLimits(max_events=200_000))
    return trace, processes


def theta_band_trace(
    n: int = 4,
    f: int = 1,
    theta: float = 1.5,
    max_tick: int = 10,
    seed: int = 0,
) -> Trace:
    """A Theta-band Algorithm-1 trace (ABC-admissible for ``Xi > theta``)."""
    trace, _processes = clock_sync_run(n, f, theta, max_tick, seed=seed)
    return trace


# ----------------------------------------------------------------------
# enforcer-stressing workloads
# ----------------------------------------------------------------------


def _monitor_setup(
    n_responders: int,
    xi: Fraction | int | float,
    max_probes: int,
    slow_links: dict[tuple[int, int], object],
    default_delay: object,
) -> tuple[list[Process], Network]:
    """A ping-pong monitor (pid 0) over responders with per-link delays."""
    if n_responders < 1:
        raise ValueError("need at least one responder")
    monitor = PingPongMonitor(
        targets=list(range(1, n_responders + 1)), xi=xi, max_probes=max_probes
    )
    processes: list[Process] = [monitor]
    processes += [PongResponder() for _ in range(n_responders)]
    network = Network(
        Topology.fully_connected(n_responders + 1),
        PerLinkDelay(slow_links, default=default_delay),
    )
    return processes, network


def ping_pong_storm(
    n_responders: int = 3,
    xi: Fraction | int | float = Fraction(2),
    slow: float = 25.0,
    fast: float = 1.0,
    max_probes: int = 8,
) -> tuple[list[Process], Network]:
    """Fast ping-pong chains racing one massively delayed responder.

    The Figure-3 situation at scale: the monitor completes round trips
    with ``n_responders - 1`` fast peers while the last responder sits
    behind a ``slow / fast`` delay spread, so a plain scheduler closes
    relevant cycles of ratio up to that spread and the enforcer has to
    keep pulling the slow replies forward.
    """
    slow_pid = n_responders
    links = {
        (0, slow_pid): FixedDelay(slow),
        (slow_pid, 0): FixedDelay(slow),
    }
    return _monitor_setup(n_responders, xi, max_probes, links, FixedDelay(fast))


def zero_delay_burst(
    n_responders: int = 2,
    xi: Fraction | int | float = Fraction(2),
    slow: float = 15.0,
    max_probes: int = 6,
) -> tuple[list[Process], Network]:
    """Zero-delay fast chains against a slow link.

    The paper observes (Figure 1, message ``m3``) that the ABC model
    tolerates zero-delay messages; here *every* fast link delivers
    instantaneously, so unboundedly many chain messages fit into any
    nonzero slow delay and admissibility rests entirely on the
    enforcer's intervention.
    """
    slow_pid = n_responders
    links = {
        (0, slow_pid): FixedDelay(slow),
        (slow_pid, 0): FixedDelay(slow),
    }
    return _monitor_setup(n_responders, xi, max_probes, links, FixedDelay(0.0))


def long_silence(
    n_responders: int = 2,
    xi: Fraction | int | float = Fraction(2),
    silence: float = 400.0,
    fast_low: float = 0.5,
    fast_high: float = 1.5,
    max_probes: int = 10,
) -> tuple[list[Process], Network]:
    """A responder that falls silent for epochs at a time.

    Both directions of the last responder's link take ``silence`` time
    units while the rest of the system keeps jittering along at unit
    delays -- many probe rounds complete during one silent gap, which is
    the long-silence regime the time-free ABC condition is meant to
    survive.
    """
    silent_pid = n_responders
    links = {
        (0, silent_pid): FixedDelay(silence),
        (silent_pid, 0): FixedDelay(silence),
    }
    return _monitor_setup(
        n_responders, xi, max_probes, links, UniformDelay(fast_low, fast_high)
    )


def random_enforcer_setup(
    rng: random.Random,
) -> tuple[list[Process], Network, Fraction]:
    """A randomized enforcer-stressing workload: ``(processes, network, xi)``.

    Draws one of the three stress families with randomized sizes, delay
    spreads (including exact zeros), and synchrony parameters -- the
    workload distribution behind the differential and property tests of
    the incremental enforcer.
    """
    xi = rng.choice([Fraction(3, 2), Fraction(2), Fraction(5, 2), Fraction(3)])
    n_responders = rng.randint(1, 3)
    family = rng.randrange(3)
    if family == 0:
        processes, network = ping_pong_storm(
            n_responders,
            xi,
            slow=rng.uniform(5.0, 60.0),
            fast=rng.uniform(0.5, 2.0),
            max_probes=rng.randint(2, 6),
        )
    elif family == 1:
        processes, network = zero_delay_burst(
            n_responders,
            xi,
            slow=rng.uniform(2.0, 30.0),
            max_probes=rng.randint(2, 5),
        )
    else:
        processes, network = long_silence(
            n_responders,
            xi,
            silence=rng.uniform(50.0, 500.0),
            fast_low=rng.uniform(0.1, 0.8),
            fast_high=rng.uniform(1.0, 2.5),
            max_probes=rng.randint(3, 8),
        )
    return processes, network, xi


# ----------------------------------------------------------------------
# multi-trace fleet workloads
# ----------------------------------------------------------------------


def _materialize_records(
    skeleton: Sequence[tuple[Event, float, Event | None]],
) -> list[ReceiveRecord]:
    """Turn ``(event, time, triggering send event | None)`` rows into
    receive records with *complete* ``sends`` metadata.

    The skeleton lists messages by their receive; this pass inverts that
    view so every record also announces the messages its step sent --
    the in-flight knowledge :class:`~repro.analysis.fleet.MonitorFleet`
    needs to pin send events and keep eviction exact.
    """
    times = {event: time for event, time, _src in skeleton}
    sends: dict[Event, list[SendRecord]] = {}
    for event, time, src in skeleton:
        if src is not None:
            sends.setdefault(src, []).append(
                SendRecord(
                    dest=event.process,
                    payload=None,
                    delay=time - times[src],
                    deliver_time=time,
                )
            )
    return [
        ReceiveRecord(
            event=event,
            time=time,
            sender=None if src is None else src.process,
            send_event=src,
            send_time=None if src is None else times[src],
            payload=None,
            processed=True,
            sends=tuple(sends.get(event, ())),
        )
        for event, time, src in skeleton
    ]


def _storm_skeleton(
    rng: random.Random, n_records: int
) -> list[tuple[Event, float, Event | None]]:
    """A fig-3 storm: a fast ping-pong chain between processes 0 and 1
    racing slow round trips through process 2.

    Each slow round trip (0 -> 2 -> 0) spans the ever-running fast chain,
    closing relevant cycles whose ratio grows with the span -- and the
    chain links history to the frontier, so storm traces are the
    *unsettleable* population of a fleet (nothing tombstonable).
    """
    skeleton: list[tuple[Event, float, Event | None]] = []
    next_index = [0, 0, 0]
    now = 0.0

    def emit(process: int, src: Event | None) -> Event:
        nonlocal now
        now += rng.uniform(0.01, 0.1)
        event = Event(process, next_index[process])
        next_index[process] += 1
        skeleton.append((event, now, src))
        return event

    last = emit(0, None)  # the chain's wake-up
    # (due at chain step, src event, destination process)
    slow: list[tuple[int, Event, int]] = []
    span = rng.randint(4, 9)
    for step in range(1, n_records):
        due = [s for s in slow if s[0] <= step]
        if due:
            slow.remove(due[0])
            _due, src, dest = due[0]
            arrival = emit(dest, src)
            if dest == 2:  # the echo: schedule the reply leg
                slow.append((step + span, arrival, 0))
        else:
            last = emit(1 - last.process, last)
            if last.process == 0 and not slow and rng.random() < 0.5:
                slow.append((step + span, last, 2))
                span += rng.randint(1, 3)  # later cycles span more chain
    return skeleton


def _burst_skeleton(
    rng: random.Random,
    n_records: int,
    n_processes: int = 3,
    cluster: tuple[int, int] = (6, 14),
    gap: float = 50.0,
) -> list[tuple[Event, float, Event | None]]:
    """Clustered bursts: each cluster wakes every process afresh, then
    exchanges messages only among the cluster's own events.

    Because no message refers back past a cluster's wake-ups, everything
    before the live cluster is settled -- the population budget-driven
    eviction can actually reclaim.
    """
    skeleton: list[tuple[Event, float, Event | None]] = []
    next_index = [0] * n_processes
    now = 0.0

    def emit(process: int, src: Event | None) -> Event:
        nonlocal now
        now += rng.uniform(0.001, 0.01)
        event = Event(process, next_index[process])
        next_index[process] += 1
        skeleton.append((event, now, src))
        return event

    while len(skeleton) < n_records:
        now += gap * rng.uniform(0.5, 1.5)  # silence between clusters
        fresh = [emit(p, None) for p in range(n_processes)]
        for _ in range(rng.randint(*cluster)):
            if len(skeleton) >= n_records:
                break
            src = fresh[rng.randrange(len(fresh))]
            dst_process = rng.randrange(n_processes)
            fresh.append(emit(dst_process, src))
    return skeleton


def _idler_skeleton(
    rng: random.Random, n_records: int
) -> list[tuple[Event, float, Event | None]]:
    """A long-silence idler: tiny clusters separated by epochs of
    nothing; most of the trace is settled history almost immediately."""
    return _burst_skeleton(
        rng, n_records, n_processes=2, cluster=(1, 4), gap=500.0
    )


def _relay_skeleton(
    rng: random.Random, n_records: int, n_processes: int = 3
) -> list[tuple[Event, float, Event | None]]:
    """A single relay chain threading every process, racing slow echoes.

    One causal chain relays around the ring ``0 -> 1 -> ... -> 0``;
    occasionally the chain's process-0 step also probes a ring member
    whose echo returns ``span`` chain steps later, closing relevant
    cycles whose ratio grows with the span.  Every event extends the
    one chain, so *every* possible prefix boundary has a message
    crossing it -- the no-crossing criterion removes nothing, ever --
    while delivery progress keeps the frontier tiny: the adversarial
    shape for exact tombstoning and the home turf of summary
    compaction.
    """
    skeleton: list[tuple[Event, float, Event | None]] = []
    next_index = [0] * n_processes
    now = 0.0

    def emit(process: int, src: Event | None) -> Event:
        nonlocal now
        now += rng.uniform(0.01, 0.1)
        event = Event(process, next_index[process])
        next_index[process] += 1
        skeleton.append((event, now, src))
        return event

    last = emit(0, None)  # the chain's wake-up
    echo_pid = n_processes - 1
    # (due at chain step, src event, destination process)
    slow: list[tuple[int, Event, int]] = []
    span = rng.randint(2 * n_processes, 3 * n_processes)
    for step in range(1, n_records):
        due = [s for s in slow if s[0] <= step]
        if due:
            slow.remove(due[0])
            _due, src, dest = due[0]
            arrival = emit(dest, src)
            if dest == echo_pid:  # the echo: schedule the reply leg
                slow.append((step + span, arrival, 0))
        else:
            last = emit((last.process + 1) % n_processes, last)
            if last.process == 0 and not slow and rng.random() < 0.5:
                slow.append((step + span, last, echo_pid))
                span += rng.randint(1, 3)  # later cycles span more chain
    return skeleton


def _firehose_skeleton(
    rng: random.Random, n_records: int, n_processes: int = 4
) -> list[tuple[Event, float, Event | None]]:
    """A dense all-to-all firehose: after one wake-up per process,
    every event is triggered by a message from a recent event and
    fans out immediately.

    Inter-arrival gaps are tiny and there are no silences, so records
    arrive in dense batches; every record past the wake-ups carries a
    triggering message and sends metadata.  A sliding window of recent
    events keeps message spans short (ratios stay near 1 and the
    frontier dense) -- the best case for batch absorption of rows,
    where per-record object overhead, not oracle time, dominates.
    """
    skeleton: list[tuple[Event, float, Event | None]] = []
    next_index = [0] * n_processes
    now = 0.0

    def emit(process: int, src: Event | None) -> Event:
        nonlocal now
        now += rng.uniform(0.0001, 0.001)
        event = Event(process, next_index[process])
        next_index[process] += 1
        skeleton.append((event, now, src))
        return event

    recent = [emit(p, None) for p in range(n_processes)]
    while len(skeleton) < n_records:
        src = recent[rng.randrange(len(recent))]
        recent.append(emit(rng.randrange(n_processes), src))
        if len(recent) > 2 * n_processes:
            recent.pop(0)
    return skeleton


_PROFILES = {
    "storm": _storm_skeleton,
    "burst": _burst_skeleton,
    "idler": _idler_skeleton,
    "relay": _relay_skeleton,
    "firehose": _firehose_skeleton,
}


def profiled_trace_records(
    rng: random.Random, profile: str, n_records: int
) -> list[ReceiveRecord]:
    """One trace's records under a named activity profile.

    Profiles (the per-trace building blocks of
    :func:`concurrent_workload`):

    * ``"storm"``  -- a fast ping-pong chain racing slow round trips
      (relevant cycles of growing ratio; nothing ever settles);
    * ``"burst"``  -- clustered exchanges between causally fresh
      wake-ups (ratio-1-and-up cycles; old clusters settle);
    * ``"idler"``  -- long silences around tiny clusters (mostly
      settled history);
    * ``"relay"``  -- one long relay chain around three processes with
      slow cross echoes (see :func:`relay_chain_workload` -- no prefix
      is ever exactly removable, the summary-compaction stress shape);
    * ``"firehose"`` -- dense all-to-all exchange with no silences
      (message-dense batches, short spans -- the row ingest path's
      best case, and ``bench_e2e.py``'s workload).

    Every prefix of the returned list is a valid growing execution, and
    ``sends`` metadata is complete (each message appears in its send
    event's record), so in-flight pinning -- and with it exact fleet
    eviction -- works on these streams.
    """
    try:
        skeleton_of = _PROFILES[profile]
    except KeyError:
        raise ValueError(
            f"unknown profile {profile!r}; choose from {sorted(_PROFILES)}"
        ) from None
    if n_records < 1:
        raise ValueError("need at least one record")
    # Clusters may overshoot by their wake-ups; trimming the tail keeps
    # every prefix valid (sends metadata is derived after the trim, so a
    # message whose receive was trimmed simply stays in flight).
    return _materialize_records(skeleton_of(rng, n_records)[:n_records])


def relay_chain_workload(
    rng: random.Random, n_records: int = 200, n_processes: int = 3
) -> list[ReceiveRecord]:
    """A long single-chain relay trace with complete sends metadata.

    The adversarial shape for prefix eviction (ROADMAP: "stronger
    tombstoning for chain-shaped workloads"): one causal chain relays
    around ``n_processes`` processes forever, so a message crosses
    *every* prefix boundary and :meth:`~repro.analysis.online.OnlineAbcMonitor.settled_prefix`
    is empty on every prefix of the stream -- exact eviction can never
    reclaim anything.  Slow echo round trips racing the chain close
    relevant cycles of growing ratio, so the running worst ratio is
    nontrivial and summary compaction's bit-identity is genuinely
    exercised.  ``sends`` metadata is complete (each message appears in
    its send event's record), so in-flight pinning -- and with it exact
    budget-bounded fleet monitoring -- works on these streams; every
    prefix is a valid growing execution.
    """
    if n_processes < 2:
        raise ValueError("a relay chain needs at least two processes")
    if n_records < 1:
        raise ValueError("need at least one record")
    return _materialize_records(
        _relay_skeleton(rng, n_records, n_processes)[:n_records]
    )


def strip_sends_metadata(
    records: Sequence[ReceiveRecord],
) -> list[ReceiveRecord]:
    """The same stream without its ``sends`` announcements.

    Models the *degraded* ingestion regime: triggering-message fields
    stay (the graph is unchanged), but no record announces what its
    step sent, so in-flight messages are unknowable -- budget-driven
    eviction and adaptive compaction can then cut a prefix an unseen
    message still crosses, which the monitoring layers must survive by
    flagging (``degraded``) rather than crashing.  Used by the wire
    codec and fleet degradation tests.
    """
    return [dataclasses.replace(r, sends=()) for r in records]


def concurrent_workload(
    rng: random.Random,
    n_traces: int = 20,
    records_per_trace: tuple[int, int] = (30, 80),
    profile_weights: dict[str, float] | None = None,
) -> Iterator[tuple[str, ReceiveRecord]]:
    """An interleaved multi-trace stream: ``(trace_id, record)`` pairs.

    Each trace draws a profile (see :func:`profiled_trace_records`) and
    a record count, gets a random start offset, and the per-trace
    streams are merged by arrival time -- the ingestion order a
    production monitor sees: storms hammering single traces, bursts
    arriving in clumps, idlers trickling alongside.  Per-trace record
    order is preserved, so every trace's subsequence is a valid growing
    execution; trace ids are ``"<profile>-<k>"``.
    """
    if n_traces < 1:
        raise ValueError("need at least one trace")
    weights = profile_weights or {"storm": 0.3, "burst": 0.45, "idler": 0.25}
    names = sorted(weights)
    streams: list[tuple[float, int, str, ReceiveRecord]] = []
    for k in range(n_traces):
        profile = rng.choices(names, [weights[n] for n in names])[0]
        n_records = rng.randint(*records_per_trace)
        records = profiled_trace_records(rng, profile, n_records)
        start = rng.uniform(0.0, 200.0)
        trace_id = f"{profile}-{k}"
        for record in records:
            streams.append((start + record.time, k, trace_id, record))
    streams.sort(key=lambda item: (item[0], item[1]))
    for _arrival, _k, trace_id, record in streams:
        yield trace_id, record
