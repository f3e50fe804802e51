"""The parallel fleet runtime: share-nothing shards on worker backends.

This package executes the monitoring plane itself as an asynchronous
system of independent workers -- the deployment shape the ROADMAP's
"actually running shards on worker threads/processes" item asked for:

* :mod:`repro.runtime.shard` -- the backend-agnostic shard engine
  (:class:`ShardGroup` / :class:`FleetShard`), extracted from the
  serial fleet so both front ends share one shard implementation;
  a group's state travels only as its ``snapshot`` (checkpoints and
  recovery);
* :mod:`repro.runtime.codec` -- the compact wire encoding for records,
  ratios, summaries, statistics, violation witnesses, and the
  snapshot/WAL frames of the durability plane;
* :mod:`repro.runtime.worker` -- the worker-side message loop driving
  one :class:`ShardGroup`;
* :mod:`repro.runtime.backends` -- process and thread execution
  backends (bounded inboxes, liveness probing);
* :mod:`repro.runtime.durable` -- batch journals plus periodic shard
  snapshots (:class:`Durability` / :class:`DurableStore`): the
  persistence layer behind worker recovery and whole-fleet restore;
* :mod:`repro.runtime.parallel` -- the :class:`ParallelFleet` facade:
  the serial fleet's ``ingest / ingest_many / flush / close /
  worst_ratio / report`` surface, with shards split round-robin
  across workers for the fleet's lifetime, a global event
  budget apportioned and rebalanced per worker, crash *recovery* under
  ``durability=``, and per-trace results bit-identical to
  :class:`repro.analysis.fleet.MonitorFleet`;
* :mod:`repro.runtime.net` -- the network ingestion plane: an asyncio
  ingest server driving one parallel fleet, exactly-once producer
  clients, and delta-streaming observability
  (:class:`IngestServer` / :class:`ProducerClient` /
  :class:`DeltaSubscriber`).
"""

from repro.runtime.backends import ProcessBackend, ThreadBackend, WorkerCrashed
from repro.runtime.durable import Durability, DurableStore
from repro.runtime.net import (
    DeltaStore,
    DeltaSubscriber,
    DeltaView,
    IngestServer,
    ProducerClient,
)
from repro.runtime.parallel import ParallelFleet
from repro.runtime.shard import (
    FleetReport,
    FleetShard,
    MonitorSpec,
    ShardGroup,
    ShardStats,
    TraceId,
    TraceState,
    TraceSummary,
)

__all__ = [
    "DeltaStore",
    "DeltaSubscriber",
    "DeltaView",
    "Durability",
    "DurableStore",
    "FleetReport",
    "IngestServer",
    "ProducerClient",
    "FleetShard",
    "MonitorSpec",
    "ParallelFleet",
    "ProcessBackend",
    "ShardGroup",
    "ShardStats",
    "ThreadBackend",
    "TraceId",
    "TraceState",
    "TraceSummary",
    "WorkerCrashed",
]
