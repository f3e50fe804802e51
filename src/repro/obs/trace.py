"""Record-lifecycle tracing: spans over the ingest pipeline stages.

A :class:`TraceContext` names one producer-side stream of record
batches (``ctx_id`` is unique per process); each pipeline stage opens a
:class:`Span` around its work and closing the span does two things:

* observes the duration in the stage's latency histogram
  (``repro_stage_ns{stage=...}`` in the owning registry), and
* appends a structured event ``(ctx_id, stage, duration_ns)`` to the
  registry's bounded event buffer.

The canonical stages, in record order: ``client_encode`` (producer
builds the wire frame), ``front_accept`` (the server checks the shape
of a produce frame's rows, up to the fleet's ingest),
``dispatch_route`` (dispatcher shards and ships),
``worker_absorb`` (worker decodes and buffers/flushes), and
``kernel_sweep`` (the monitor's incremental ratio refresh).  Stage
histograms aggregate across contexts; the event buffer keeps the
per-context trail.

Disabled mode: :func:`new_context` returns ``None`` when telemetry is
off, and call sites hold ``NULL_SPAN`` / ``None`` so the per-call cost
is one attribute load and an ``is None`` test.
"""

from __future__ import annotations

import itertools
import os
import time
from typing import Optional

from repro.obs import metrics as _metrics
from repro.obs.metrics import MetricsRegistry

__all__ = [
    "STAGE_METRIC",
    "STAGES",
    "Span",
    "TraceContext",
    "NULL_SPAN",
    "new_context",
]

STAGE_METRIC = "repro_stage_ns"

STAGES = (
    "client_encode",
    "front_accept",
    "dispatch_route",
    "worker_absorb",
    "kernel_sweep",
)

_ctx_ids = itertools.count(1)


class Span:
    """One timed stage; use as a context manager or call :meth:`end`."""

    __slots__ = ("_ctx", "stage", "start_ns")

    def __init__(self, ctx: "TraceContext", stage: str) -> None:
        self._ctx = ctx
        self.stage = stage
        self.start_ns = time.perf_counter_ns()

    def end(self) -> int:
        """Close the span; returns the duration in nanoseconds."""
        duration = time.perf_counter_ns() - self.start_ns
        ctx = self._ctx
        ctx.observe(self.stage, duration)
        return duration

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, *exc) -> None:
        self.end()


class _NullSpan:
    """The disabled-mode span: every operation is a no-op."""

    __slots__ = ()

    def end(self) -> int:
        return 0

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> None:
        return None


NULL_SPAN = _NullSpan()


class TraceContext:
    """A named span source bound to one registry.

    Caches one histogram instrument per stage so closing a span is a
    dict hit plus two integer adds.  The ``ctx_id`` stamps produce
    frames on the wire (see :mod:`repro.runtime.net.client`) so a
    dashboard can tie a producer's events back to its stream.
    """

    __slots__ = ("ctx_id", "registry", "_stage_hists")

    def __init__(self, ctx_id: str, registry: MetricsRegistry) -> None:
        self.ctx_id = ctx_id
        self.registry = registry
        self._stage_hists: dict = {}

    def span(self, stage: str) -> Span:
        return Span(self, stage)

    def observe(self, stage: str, duration_ns: int) -> None:
        """Record one finished stage duration (span-free form)."""
        hist = self._stage_hists.get(stage)
        if hist is None:
            hist = self.registry.histogram(
                STAGE_METRIC,
                (("stage", stage),),
                help="per-stage record-lifecycle latency",
            )
            self._stage_hists[stage] = hist
        hist.observe(duration_ns)
        self.registry.record_event(self.ctx_id, stage, duration_ns)

    def stamp(self) -> tuple:
        """The wire stamp appended to produce frames: ``(ctx_id,)``."""
        return (self.ctx_id,)


def new_context(
    registry: Optional[MetricsRegistry] = None, *, name: str = ""
) -> Optional[TraceContext]:
    """A fresh context on ``registry`` (default: the global registry),
    or ``None`` when telemetry is disabled."""
    if not _metrics.enabled():
        return None
    if registry is None:
        registry = _metrics.global_registry()
    suffix = f"-{name}" if name else ""
    return TraceContext(f"{os.getpid():x}.{next(_ctx_ids)}{suffix}", registry)
