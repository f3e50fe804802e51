"""Remote ingestion: producers over sockets, one fleet, delta push.

Stands up an :class:`~repro.runtime.net.IngestServer` (one parallel
fleet on two workers) on a loopback TCP port, streams one concurrent
workload into it from three :class:`~repro.runtime.net.ProducerClient`
threads (each owning a disjoint set of traces -- the single-writer-
per-trace discipline determinism rests on), and tails the delta feed
with a :class:`~repro.runtime.net.DeltaSubscriber`:

* every per-trace worst ratio answered by the server is
  **bit-identical** to the serial :class:`~repro.analysis.fleet.
  MonitorFleet` over the same records -- which worker runs a trace's
  shard never changes its answer;
* one producer's connection is killed mid-stream; its client
  reconnects, resumes at the server's acked frame, and not a record is
  lost or duplicated;
* the subscriber reconstructs the final histogram, watchlist and
  violation feed from the incremental delta stream alone -- no
  pull-side barrier, no full scan.

Run:  python examples/remote_ingest.py
"""

import random
import socket
import threading
from fractions import Fraction

from repro.analysis import MonitorFleet
from repro.runtime.net import DeltaSubscriber, IngestServer, ProducerClient
from repro.scenarios.generators import concurrent_workload


def main() -> None:
    xi = Fraction(4)
    stream = list(
        concurrent_workload(
            random.Random(2026), n_traces=60, records_per_trace=(40, 90)
        )
    )
    trace_ids = sorted({tid for tid, _record in stream}, key=str)
    owner = {tid: i % 3 for i, tid in enumerate(trace_ids)}
    print(
        f"workload: {len(stream)} records across {len(trace_ids)} traces,"
        f" 3 producers"
    )

    serial = MonitorFleet(xi=xi, n_shards=8, batch_size=32)
    serial.ingest_many(stream)
    serial.flush()

    with IngestServer(
        xi, n_shards=8, batch_size=32, backend="thread"
    ) as server:
        host, port = server.address
        print(f"server: {host}:{port}, one fleet over "
              f"{server.n_shards} shards")
        subscriber = DeltaSubscriber(server.address, name="dashboard")

        def produce(index: int) -> None:
            with ProducerClient(
                server.address, producer_id=f"sensor-{index}", batch=32
            ) as client:
                for position, (tid, rec) in enumerate(stream):
                    if owner[tid] != index:
                        continue
                    client.send(tid, rec)
                    if index == 0 and position == len(stream) // 2:
                        # Yank producer 0's connection mid-stream: the
                        # client reconnects and resumes exactly once.
                        client._fs.sock.shutdown(socket.SHUT_RDWR)

        threads = [
            threading.Thread(target=produce, args=(i,)) for i in range(3)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        server.flush()

        mismatches = sum(
            1
            for tid in trace_ids
            if server.worst_ratio(tid) != serial.worst_ratio(tid)
        )
        print(
            f"\nbit-identity: {len(trace_ids) - mismatches}/"
            f"{len(trace_ids)} per-trace ratios equal across the wire"
        )
        print(
            f"exactly-once: server absorbed {server.ingested_records} "
            f"records of {len(stream)} sent (one connection killed)"
        )
        histogram = server.worst_ratio_histogram()
        watchlist = server.top_k_riskiest(3)
        violating = server.violating_traces()

    # The server is gone; the dashboard still has everything, built
    # from the delta stream alone.
    view = subscriber.run_to_end()
    subscriber.close()
    print(
        "delta view: histogram equal:",
        view.worst_ratio_histogram() == histogram,
        "| watchlist equal:",
        view.top_k_riskiest(3) == watchlist,
        "| violating equal:",
        view.violating_traces() == violating,
    )
    print(
        f"watchlist: "
        f"{[(tid, str(r)) for tid, r in watchlist]}"
    )
    print(f"violating traces ({len(violating)}): {list(violating)[:6]} ...")


if __name__ == "__main__":
    main()
