"""The benchmark's workloads: inputs from a seed, and the serial reference.

Every workload is an interleaved multi-trace stream in the shape of
``concurrent_workload``: per-trace records from
``profiled_trace_records``, merged by arrival time.  One difference:
each profile gets exactly its weight's share of the traces instead of a
random draw per trace, so a seed changes trace shapes, lengths and
arrival offsets but not the mix.  (With random draws, the storm count
alone moves a 240-trace round's work by several percent from seed to
seed.)  Inputs are generated and wire-encoded before any clock starts;
the reference answers come from a serial ``MonitorFleet`` with no
budget, built once per invocation, outside every timed span.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Any

from repro.analysis.fleet import MonitorFleet
from repro.runtime import codec
from repro.runtime.shard import shard_index_of
from repro.scenarios.generators import profiled_trace_records

# Both stacks run two workers behind the default 8 shards, and both
# place shard s on worker s % 2 (the server through its fronts).
N_SHARDS = 8
N_WORKERS = 2
# Rows per interactive frame over sockets (one flush, one latency
# sample each).
INTERACTIVE_FRAME = 16


@dataclass(frozen=True)
class Workload:
    name: str
    # "socket": IngestServer in a host process, producers over TCP.
    # "inprocess": a host process feeds a durable ParallelFleet directly.
    kind: str
    n_traces: int
    records_per_trace: tuple[int, int]
    weights: dict[str, float]
    xi: Fraction | None
    event_budget: int | None = None
    # Independent record sets per run, measured in turn.  More than one
    # where a single set's cost or latency tail swings with its seed
    # (summary compaction, violation witnesses), so one unlucky draw
    # cannot set the figure.
    populations: int = 1


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="fleet-mixed",
            kind="socket",
            n_traces=240,
            records_per_trace=(160, 280),
            weights={"storm": 0.5, "burst": 0.35, "idler": 0.15},
            xi=Fraction(3),
            populations=2,
        ),
        Workload(
            name="fleet-short",
            kind="socket",
            n_traces=1500,
            records_per_trace=(10, 60),
            weights={"burst": 0.45, "idler": 0.45, "firehose": 0.1},
            xi=Fraction(3),
        ),
        Workload(
            name="long-bounded",
            kind="inprocess",
            # About 56k records per population: more than Durability's
            # default 50,000 between checkpoints, so every round takes
            # one periodic checkpoint while it is measured.
            n_traces=112,
            records_per_trace=(500, 500),
            weights={"relay": 0.4, "storm": 0.4, "burst": 0.2},
            xi=None,
            event_budget=9000,
            populations=3,
        ),
    )
}


@dataclass
class Inputs:
    """One seed's records, encoded, and how the producers split them."""

    trace_ids: tuple[str, ...]
    rows: list[tuple[str, tuple]]  # (trace id, wire record), stream order
    encode_s: float
    bulk_rows: list[tuple[str, tuple]]
    interactive_frames: list[list[tuple[str, tuple]]]


def generate(workload: Workload, seed: int, population: int) -> list[tuple[str, Any]]:
    """The ``(trace_id, record)`` stream of one of the seed's
    populations, in arrival order."""
    rng = random.Random(f"{seed}/{population}")
    profiles = []
    for name in sorted(workload.weights):
        profiles += [name] * round(workload.weights[name] * workload.n_traces)
    rng.shuffle(profiles)
    arrivals = []
    seen: dict[str, int] = {}
    for k, profile in enumerate(profiles):
        records = profiled_trace_records(
            rng, profile, rng.randint(*workload.records_per_trace)
        )
        # Traces open at an even pace.  Drawn at random, the starts of
        # the short relay and storm traces cluster differently from seed
        # to seed, and so does the live history the budget compacts.
        start = 200.0 * k / len(profiles)
        # Deal each profile's traces to the workers in turn, so a seed
        # cannot pile one profile onto one worker: the workloads measure
        # the layers, not placement luck.
        dealt = seen.get(profile, 0)
        seen[profile] = dealt + 1
        worker = dealt % N_WORKERS
        trace_id = f"{profile}-{k}"
        salt = 0
        while shard_index_of(trace_id, N_SHARDS) % N_WORKERS != worker:
            salt += 1
            trace_id = f"{profile}-{k}.{salt}"
        arrivals += [(start + r.time, k, trace_id, r) for r in records]
    arrivals.sort(key=lambda item: (item[0], item[1]))
    return [(trace_id, record) for _at, _k, trace_id, record in arrivals]


def build_inputs(
    workload: Workload, seed: int, population: int
) -> tuple[Inputs, list]:
    """Generate one population's stream; returns the encoded inputs and
    the record objects (for the reference)."""
    stream = generate(workload, seed, population)
    start = time.perf_counter()
    rows = [(tid, codec.encode_record(record)) for tid, record in stream]
    encode_s = time.perf_counter() - start
    trace_ids = tuple(sorted({tid for tid, _ in stream}, key=str))
    # The interactive producer owns every fourth trace; each trace has a
    # single producer, so per-trace order is the stream's order.
    interactive = set(trace_ids[::4])
    bulk_rows = [row for row in rows if row[0] not in interactive]
    mine = [row for row in rows if row[0] in interactive]
    k = INTERACTIVE_FRAME
    frames = [mine[i : i + k] for i in range(0, len(mine), k)]
    return Inputs(trace_ids, rows, encode_s, bulk_rows, frames), stream


def prepare(name: str, seed: int, population: int) -> tuple[Inputs, dict[str, Any]]:
    """One population's encoded inputs and its reference answers."""
    workload = WORKLOADS[name]
    inputs, stream = build_inputs(workload, seed, population)
    return inputs, reference_answers(workload, stream)


def reference_answers(workload: Workload, stream: list) -> dict[str, Any]:
    """Per-trace worst ratios, degraded flags and the violating set of a
    serial, unbudgeted ``MonitorFleet`` over the same records."""
    fleet = MonitorFleet(xi=workload.xi)
    fleet.ingest_many(stream)
    fleet.flush()
    ids = sorted({tid for tid, _ in stream}, key=str)
    return {
        "ratios": {tid: fleet.worst_ratio(tid) for tid in ids},
        "degraded": {tid: fleet.is_degraded(tid) for tid in ids},
        "violating": frozenset(fleet.violating_traces()),
    }


def mismatches(answers: dict[str, Any], reference: dict[str, Any]) -> list[str]:
    """Trace ids (or ``"violating-set"``) where the answers differ."""
    bad = [
        tid
        for tid, ratio in reference["ratios"].items()
        if answers["ratios"].get(tid, "missing") != ratio
        or answers["degraded"].get(tid) != reference["degraded"][tid]
    ]
    if len(answers["ratios"]) != len(reference["ratios"]):
        bad.append("trace-count")
    if frozenset(answers["violating"]) != reference["violating"]:
        bad.append("violating-set")
    return bad
