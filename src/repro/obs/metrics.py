"""The fleet metrics registry: counters, gauges, latency histograms.

Design constraints, in priority order:

* **Near-zero cost when disabled.**  Nothing in this module is imported
  on a hot path; components capture an instrument bundle (or ``None``)
  at construction time, so a disabled fleet pays one attribute load and
  an ``is None`` test per instrumented call site -- the same contract as
  the shard engine's ``emit_ratio`` hook.  The ambient switch is the
  ``REPRO_OBS`` environment variable (read once at import), overridable
  per process with :func:`set_enabled`.
* **Deterministic cross-worker merge.**  Instruments serialize to plain
  tuples (:meth:`MetricsRegistry.to_rows`) that travel over the same
  picklable-tuple codec as every other worker reply, and merging is
  integer addition bucket by bucket -- associative and commutative, so
  the merged registry is independent of worker arrival order.
  Histograms use **fixed integer-nanosecond bucket bounds** (no
  floating-point bucket math, no per-process adaptivity), which is what
  makes the merge reproducible bit for bit.
* **Determinism is declared per instrument.**  Event-count metrics
  (oracle calls, evictions, batch-size histograms) are functions of the
  ingested stream and are bit-identical across process and thread
  backends; wall-clock metrics (refresh latency, fsync latency) are
  not.  Each instrument carries a ``deterministic`` flag so
  ``to_json(deterministic_only=True)`` dumps exactly the comparable
  subset -- the surface the ``bench_obs`` CI gate diffs across
  backends.

Export surfaces are :meth:`MetricsRegistry.render_prometheus` (text
exposition format) and :meth:`MetricsRegistry.to_json` (plain dict).
Everything here is stdlib only.
"""

from __future__ import annotations

import json
import os
import threading
from bisect import bisect_left
from collections import deque
from typing import Iterable

__all__ = [
    "DEFAULT_NS_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "enabled",
    "set_enabled",
    "global_registry",
    "registry_if_enabled",
    "reset_global_registry",
    "merge_row_sets",
    "rows_to_json",
]

# Powers of four from ~1us to ~4.3s: 12 exact integer-nanosecond bounds
# plus the overflow bucket.  Coarse on purpose -- latency histograms are
# for "which stage ate the milliseconds", not microbenchmarking -- and
# identical in every process, which is what keeps merges deterministic.
DEFAULT_NS_BUCKETS: tuple[int, ...] = tuple(4**k for k in range(5, 17))

# Batch sizes, queue depths, replay counts: small-integer magnitudes.
COUNT_BUCKETS: tuple[int, ...] = tuple(4**k for k in range(0, 10))

# Bounded structured-event buffer per registry (lifecycle spans).
EVENT_CAPACITY = 4096

_ENV_VAR = "REPRO_OBS"
_TRUTHY = frozenset({"1", "true", "yes", "on"})

_enabled = os.environ.get(_ENV_VAR, "").strip().lower() in _TRUTHY


def enabled() -> bool:
    """Whether telemetry is on for this process (``REPRO_OBS`` or
    :func:`set_enabled`)."""
    return _enabled


def set_enabled(flag: bool) -> bool:
    """Flip telemetry for this process; returns the previous setting.

    Components bind their instrument bundle (or ``None``) at
    construction, so flipping affects objects built *afterwards* --
    exactly the property the disabled-overhead benchmark needs: a fleet
    constructed under ``set_enabled(False)`` carries no instruments at
    all, not instruments that check a flag.
    """
    global _enabled
    previous = _enabled
    _enabled = bool(flag)
    return previous


def _label_key(labels: object) -> tuple[tuple[str, str], ...]:
    if isinstance(labels, dict):
        items: Iterable = labels.items()
    else:
        items = labels or ()
    return tuple(sorted((str(k), str(v)) for k, v in items))


class Counter:
    """A monotone integer counter."""

    kind = "counter"
    __slots__ = ("name", "labels", "deterministic", "help", "value")

    def __init__(
        self,
        name: str,
        labels: tuple[tuple[str, str], ...] = (),
        *,
        deterministic: bool = True,
        help: str = "",
    ) -> None:
        self.name = name
        self.labels = labels
        self.deterministic = deterministic
        self.help = help
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n

    def _payload(self) -> int:
        return self.value

    def _merge_payload(self, payload: int) -> None:
        self.value += payload


class Gauge:
    """A last-written numeric level (queue depth, window occupancy).

    Merging *sums* gauges: per-worker levels combine into the fleet
    level (total queue depth, total in-flight), which is the only
    order-independent choice.
    """

    kind = "gauge"
    __slots__ = ("name", "labels", "deterministic", "help", "value")

    def __init__(
        self,
        name: str,
        labels: tuple[tuple[str, str], ...] = (),
        *,
        deterministic: bool = False,
        help: str = "",
    ) -> None:
        self.name = name
        self.labels = labels
        self.deterministic = deterministic
        self.help = help
        self.value = 0

    def set(self, value: float) -> None:
        self.value = value

    def inc(self, n: float = 1) -> None:
        self.value += n

    def dec(self, n: float = 1) -> None:
        self.value -= n

    def _payload(self) -> float:
        return self.value

    def _merge_payload(self, payload: float) -> None:
        self.value += payload


class Histogram:
    """A fixed-bound histogram over non-negative integers.

    ``bounds[i]`` is the inclusive upper edge of bucket ``i``; one
    overflow bucket follows the last bound.  ``sum`` and ``count`` are
    exact integers, so merged histograms are bit-identical regardless
    of merge order.
    """

    kind = "histogram"
    __slots__ = (
        "name",
        "labels",
        "deterministic",
        "help",
        "bounds",
        "counts",
        "count",
        "sum",
    )

    def __init__(
        self,
        name: str,
        labels: tuple[tuple[str, str], ...] = (),
        *,
        deterministic: bool = False,
        help: str = "",
        bounds: tuple[int, ...] = DEFAULT_NS_BUCKETS,
    ) -> None:
        self.name = name
        self.labels = labels
        self.deterministic = deterministic
        self.help = help
        self.bounds = tuple(bounds)
        self.counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.sum = 0

    def observe(self, value: int) -> None:
        # bisect_left: a value equal to a bound lands in that bound's
        # bucket (Prometheus ``le`` is inclusive).
        self.counts[bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.sum += value

    def _payload(self) -> tuple:
        return (self.bounds, tuple(self.counts), self.count, self.sum)

    def _merge_payload(self, payload: tuple) -> None:
        bounds, counts, count, total = payload
        if tuple(bounds) != self.bounds:
            raise ValueError(
                f"histogram {self.name!r}: bucket bounds differ "
                "(cannot merge histograms with mismatched buckets)"
            )
        own = self.counts
        for i, c in enumerate(counts):
            own[i] += c
        self.count += count
        self.sum += total


_INSTRUMENTS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class MetricsRegistry:
    """A process- or worker-local set of named instruments.

    Each :class:`~repro.runtime.shard.ShardGroup` (hence each parallel
    worker) owns its own registry so thread-backend workers never share
    instruments; the dispatcher pulls per-worker rows over the reply
    protocol and merges them here.  Instrument creation is idempotent
    and locked; increments are single-writer by construction (one
    worker, one registry).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._instruments: dict[tuple, Counter | Gauge | Histogram] = {}
        self.events: deque[tuple] = deque(maxlen=EVENT_CAPACITY)

    # -- instrument creation (idempotent) ---------------------------------

    def _get(self, kind: str, name: str, labels: object, kwargs: dict):
        key = (kind, name, _label_key(labels))
        instrument = self._instruments.get(key)
        if instrument is None:
            with self._lock:
                instrument = self._instruments.get(key)
                if instrument is None:
                    instrument = _INSTRUMENTS[kind](key[1], key[2], **kwargs)
                    self._instruments[key] = instrument
        return instrument

    def counter(
        self,
        name: str,
        labels: object = (),
        *,
        deterministic: bool = True,
        help: str = "",
    ) -> Counter:
        return self._get(
            "counter", name, labels, {"deterministic": deterministic, "help": help}
        )

    def gauge(
        self,
        name: str,
        labels: object = (),
        *,
        deterministic: bool = False,
        help: str = "",
    ) -> Gauge:
        return self._get(
            "gauge", name, labels, {"deterministic": deterministic, "help": help}
        )

    def histogram(
        self,
        name: str,
        labels: object = (),
        *,
        deterministic: bool = False,
        help: str = "",
        bounds: tuple[int, ...] = DEFAULT_NS_BUCKETS,
    ) -> Histogram:
        return self._get(
            "histogram",
            name,
            labels,
            {"deterministic": deterministic, "help": help, "bounds": bounds},
        )

    # -- structured lifecycle events --------------------------------------

    def record_event(self, ctx_id: str, stage: str, duration_ns: int) -> None:
        """Append one span event ``(ctx_id, stage, duration_ns)`` to the
        bounded buffer (oldest events fall off)."""
        self.events.append((ctx_id, stage, duration_ns))

    def drain_events(self) -> tuple[tuple, ...]:
        """Pop and return all buffered span events."""
        drained = tuple(self.events)
        self.events.clear()
        return drained

    # -- wire rows and merging --------------------------------------------

    def to_rows(self) -> tuple[tuple, ...]:
        """Serialize to plain tuples, sorted by (name, labels, kind).

        Row shape: exactly ``(kind, name, labels, deterministic,
        payload)``; :meth:`merge_rows` rejects any other.
        """
        rows = []
        for (kind, name, labels), instrument in self._instruments.items():
            rows.append(
                (
                    kind,
                    name,
                    labels,
                    1 if instrument.deterministic else 0,
                    instrument._payload(),
                )
            )
        rows.sort(key=lambda row: (row[1], row[2], row[0]))
        return tuple(rows)

    def merge_rows(self, rows: Iterable[tuple]) -> None:
        """Fold serialized rows into this registry (integer sums).

        A row of another length, or of an unknown instrument kind,
        raises ``ValueError``.
        """
        for row in rows:
            kind, name, labels, deterministic, payload = row
            if kind == "histogram":
                instrument = self.histogram(
                    name,
                    labels,
                    deterministic=bool(deterministic),
                    bounds=tuple(payload[0]),
                )
            elif kind == "gauge":
                instrument = self.gauge(
                    name, labels, deterministic=bool(deterministic)
                )
            elif kind == "counter":
                instrument = self.counter(
                    name, labels, deterministic=bool(deterministic)
                )
            else:
                raise ValueError(f"unknown instrument kind {kind!r}")
            instrument._merge_payload(payload)

    # -- export surfaces ---------------------------------------------------

    def _sorted(self):
        return sorted(
            self._instruments.values(), key=lambda i: (i.name, i.labels)
        )

    def to_json(self, *, deterministic_only: bool = False) -> dict:
        """A JSON-able dict keyed by ``name{label="v",...}``.

        With ``deterministic_only`` the dump is restricted to
        instruments declared deterministic -- the cross-backend
        comparable subset the ``bench_obs`` gate compares bit for bit.
        """
        out: dict[str, dict] = {}
        for instrument in self._sorted():
            if deterministic_only and not instrument.deterministic:
                continue
            entry: dict = {
                "kind": instrument.kind,
                "deterministic": instrument.deterministic,
            }
            if instrument.kind == "histogram":
                entry["buckets"] = [
                    [bound, count]
                    for bound, count in zip(
                        instrument.bounds, instrument.counts
                    )
                ]
                entry["overflow"] = instrument.counts[-1]
                entry["count"] = instrument.count
                entry["sum"] = instrument.sum
            else:
                entry["value"] = instrument.value
            out[_render_key(instrument.name, instrument.labels)] = entry
        return out

    def dump_json(self, *, deterministic_only: bool = False) -> str:
        """Canonical string form of :meth:`to_json` (sorted keys)."""
        return json.dumps(
            self.to_json(deterministic_only=deterministic_only),
            sort_keys=True,
            separators=(",", ":"),
        )

    def render_prometheus(self) -> str:
        """Prometheus text exposition format, deterministically ordered."""
        lines: list[str] = []
        typed: set[str] = set()
        for instrument in self._sorted():
            if instrument.name not in typed:
                typed.add(instrument.name)
                if instrument.help:
                    lines.append(f"# HELP {instrument.name} {instrument.help}")
                lines.append(f"# TYPE {instrument.name} {instrument.kind}")
            if instrument.kind == "histogram":
                cumulative = 0
                for bound, count in zip(instrument.bounds, instrument.counts):
                    cumulative += count
                    lines.append(
                        _render_sample(
                            instrument.name + "_bucket",
                            instrument.labels + (("le", str(bound)),),
                            cumulative,
                        )
                    )
                lines.append(
                    _render_sample(
                        instrument.name + "_bucket",
                        instrument.labels + (("le", "+Inf"),),
                        instrument.count,
                    )
                )
                lines.append(
                    _render_sample(
                        instrument.name + "_sum",
                        instrument.labels,
                        instrument.sum,
                    )
                )
                lines.append(
                    _render_sample(
                        instrument.name + "_count",
                        instrument.labels,
                        instrument.count,
                    )
                )
            else:
                lines.append(
                    _render_sample(
                        instrument.name, instrument.labels, instrument.value
                    )
                )
        return "\n".join(lines) + ("\n" if lines else "")


def _render_key(name: str, labels: tuple[tuple[str, str], ...]) -> str:
    if not labels:
        return name
    inner = ",".join(f'{k}="{v}"' for k, v in labels)
    return f"{name}{{{inner}}}"


def _render_sample(
    name: str, labels: tuple[tuple[str, str], ...], value: float
) -> str:
    return f"{_render_key(name, labels)} {value}"


# -- the process-global registry (standalone components) -------------------

_global: MetricsRegistry | None = None
_global_lock = threading.Lock()


def global_registry() -> MetricsRegistry:
    """The process-wide registry standalone components attach to.

    Shard groups (hence parallel workers) carry their *own* registries;
    this one serves components with no group to belong to -- standalone
    monitors, producer clients, the ingest server's accept loop.
    """
    global _global
    if _global is None:
        with _global_lock:
            if _global is None:
                _global = MetricsRegistry()
    return _global


def registry_if_enabled() -> MetricsRegistry | None:
    """``global_registry()`` when telemetry is on, else ``None`` -- the
    one-line construction-time guard components use."""
    return global_registry() if _enabled else None


def reset_global_registry() -> None:
    """Drop the process-global registry (tests, bench A/B runs)."""
    global _global
    with _global_lock:
        _global = None


def merge_row_sets(row_sets: Iterable[Iterable[tuple]]) -> tuple[tuple, ...]:
    """Merge many serialized row sets into one, order-independently."""
    merged = MetricsRegistry()
    for rows in row_sets:
        merged.merge_rows(rows)
    return merged.to_rows()


def rows_to_json(
    rows: Iterable[tuple], *, deterministic_only: bool = False
) -> dict:
    """Decode serialized rows straight to the :meth:`to_json` shape."""
    registry = MetricsRegistry()
    registry.merge_rows(rows)
    return registry.to_json(deterministic_only=deterministic_only)
