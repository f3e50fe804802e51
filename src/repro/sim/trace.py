"""Recorded executions and their conversion to execution graphs.

A :class:`Trace` is the timed record of one simulated admissible
execution: one :class:`ReceiveRecord` per receive event, in global
delivery order, each carrying the triggering message's origin and the
sends the step performed.  Outside the simulator a record travels as a
flat tuple of plain values, its *row* (:data:`RECORD_ROW`,
:func:`encode_record`, :func:`decode_record`).

:func:`build_execution_graph` converts a trace into the paper's
space-time digraph (Definition 1).  Per Section 2, every message sent by
a faulty process is dropped.  The receive-event *nodes* of dropped
messages stay in the receiving process's timeline (connected through
local edges) because their computing steps may have sent messages that
remain in the graph; only the message *edge* disappears, so dropped
messages can never participate in (relevant) cycles.  This is the
graph-consistent reading of the paper's "drop every message sent by a
faulty process (along with both its send step and its receive event +
step)".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

from repro.core.events import Event, ProcessId
from repro.core.execution_graph import ExecutionGraph, MessageEdge

__all__ = [
    "RECORD_ROW",
    "SendRecord",
    "ReceiveRecord",
    "Trace",
    "build_execution_graph",
    "decode_record",
    "encode_record",
    "message_kept",
]


@dataclass(frozen=True)
class SendRecord:
    """One message sent during a computing step."""

    dest: ProcessId
    payload: Any
    delay: float
    deliver_time: float


@dataclass(frozen=True)
class ReceiveRecord:
    """One receive event, plus the computing step it triggered (if any).

    Attributes:
        event: the event's identity ``(process, local index)``.
        time: occurrence time on the simulator's virtual clock.
        sender: origin of the triggering message; ``None`` for the
            external wake-up.
        send_event: the sender's step that sent the message (``None`` for
            wake-ups).
        send_time: when the triggering message was sent.
        payload: the message content.
        processed: ``False`` when the receiver was crashed, in which case
            the reception occurred (it is under the network's control)
            but no computing step was executed.
        sends: the messages sent by the triggered step.
    """

    event: Event
    time: float
    sender: ProcessId | None
    send_event: Event | None
    send_time: float | None
    payload: Any
    processed: bool
    sends: tuple[SendRecord, ...]


RECORD_ROW: tuple[str, ...] = (
    "process",
    "index",
    "time",
    "sender",
    "send_process",
    "send_index",
    "send_time",
    "payload",
    "processed",
    "sends",
)
"""The field layout of a record row, the one batch format of the runtime.

A row is a flat tuple of these ten plain values: the event identity
``(process, index)``, its time, the triggering message's origin
(``sender`` and the send event's ``(send_process, send_index)``, all
``None`` for a wake-up, with ``send_time``), the step's ``payload`` and
``processed`` flag, and ``sends``, a tuple of ``(dest, payload, delay,
deliver_time)`` rows.  Producers encode records to rows
(:func:`encode_record`); the wire, the journal, shard buffers and
:meth:`~repro.analysis.online.OnlineAbcMonitor.observe_batch` carry
rows unchanged; :func:`decode_record` rebuilds the record.
"""


def encode_record(record: ReceiveRecord) -> tuple:
    """One receive record as a row in the :data:`RECORD_ROW` layout."""
    event = record.event
    send_event = record.send_event
    sends = record.sends
    return (
        event.process,
        event.index,
        record.time,
        record.sender,
        None if send_event is None else send_event.process,
        None if send_event is None else send_event.index,
        record.send_time,
        record.payload,
        record.processed,
        tuple(
            [
                (send.dest, send.payload, send.delay, send.deliver_time)
                for send in sends
            ]
        )
        if sends
        else (),
    )


def decode_record(row: tuple) -> ReceiveRecord:
    """The receive record a :data:`RECORD_ROW` row stands for."""
    (
        process,
        index,
        time,
        sender,
        send_process,
        send_index,
        send_time,
        payload,
        processed,
        sends,
    ) = row
    # Trusted construction: a row only holds values an encoded record
    # held, so the frozen dataclasses' checked ``__init__``s (and
    # Event.__post_init__ validation) are skipped via ``__new__`` and
    # direct ``__dict__`` stores.  Equality and hashing derive from the
    # fields, so they are unchanged.
    event = Event.__new__(Event)
    event.__dict__["process"] = process
    event.__dict__["index"] = index
    if send_process is None:
        send_event = None
    else:
        send_event = Event.__new__(Event)
        send_event.__dict__["process"] = send_process
        send_event.__dict__["index"] = send_index
    decoded_sends = []
    for dest, send_payload, delay, deliver_time in sends:
        send = SendRecord.__new__(SendRecord)
        fields = send.__dict__
        fields["dest"] = dest
        fields["payload"] = send_payload
        fields["delay"] = delay
        fields["deliver_time"] = deliver_time
        decoded_sends.append(send)
    record = ReceiveRecord.__new__(ReceiveRecord)
    fields = record.__dict__
    fields["event"] = event
    fields["time"] = time
    fields["sender"] = sender
    fields["send_event"] = send_event
    fields["send_time"] = send_time
    fields["payload"] = payload
    fields["processed"] = processed
    fields["sends"] = tuple(decoded_sends)
    return record


@dataclass
class Trace:
    """The full record of a simulated execution.

    Per-event and per-process lookups (:meth:`record_of`,
    :meth:`events_of`, :meth:`final_record`) are backed by lazily built
    indexes -- analysis code calls them inside loops, and linear scans of
    ``records`` made those loops quadratic.  The indexes track the record
    list by length plus the identity of the last indexed record: the
    simulator's append-only growth extends them incrementally, while
    truncation -- even when regrown to the old length -- triggers a full
    rebuild on next use.  Replacing *earlier* entries in place without
    touching the tail is not detected; ``records`` is append-only by
    contract everywhere in the library.
    """

    n: int
    faulty: frozenset[ProcessId]
    records: list[ReceiveRecord] = field(default_factory=list)
    _indexed: int = field(default=0, init=False, repr=False, compare=False)
    _last_indexed: ReceiveRecord | None = field(
        default=None, init=False, repr=False, compare=False
    )
    _by_event: dict[Event, ReceiveRecord] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    _by_process: dict[ProcessId, list[ReceiveRecord]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    @property
    def correct(self) -> frozenset[ProcessId]:
        return frozenset(p for p in range(self.n) if p not in self.faulty)

    def _ensure_index(self) -> None:
        size = len(self.records)
        stale = size < self._indexed or (
            self._indexed > 0
            and self.records[self._indexed - 1] is not self._last_indexed
        )
        if stale:
            self._by_event = {}
            self._by_process = {}
            self._indexed = 0
        if size == self._indexed:
            return
        for r in self.records[self._indexed :]:
            self._by_event[r.event] = r
            self._by_process.setdefault(r.event.process, []).append(r)
        self._indexed = size
        self._last_indexed = self.records[size - 1]

    def events_of(self, process: ProcessId) -> list[ReceiveRecord]:
        self._ensure_index()
        return list(self._by_process.get(process, ()))

    def record_of(self, event: Event) -> ReceiveRecord:
        self._ensure_index()
        try:
            return self._by_event[event]
        except KeyError:
            raise KeyError(f"no record for event {event!r}") from None

    def times(self) -> dict[Event, float]:
        """Occurrence time per event (for Mattern real-time cuts)."""
        return {r.event: r.time for r in self.records}

    def payloads(self) -> dict[Event, Any]:
        return {r.event: r.payload for r in self.records}

    def messages_between(
        self, src: ProcessId, dst: ProcessId
    ) -> list[ReceiveRecord]:
        """Receive records at ``dst`` triggered by messages from ``src``."""
        return [
            r
            for r in self.records
            if r.event.process == dst and r.sender == src
        ]

    def delays(self) -> list[tuple[Event, Event, float]]:
        """(send event, receive event, end-to-end delay) per message."""
        out = []
        for r in self.records:
            if r.send_event is not None and r.send_time is not None:
                out.append((r.send_event, r.event, r.time - r.send_time))
        return out

    def final_record(self, process: ProcessId) -> ReceiveRecord | None:
        self._ensure_index()
        events = self._by_process.get(process)
        return events[-1] if events else None

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[ReceiveRecord]:
        return iter(self.records)


def message_kept(
    record: ReceiveRecord,
    faulty: frozenset[ProcessId],
    drop_faulty: bool = True,
    keep_message: Callable[[ReceiveRecord], bool] | None = None,
) -> bool:
    """Whether ``record``'s triggering message edge enters the graph.

    The predicate behind :func:`build_execution_graph`: wake-ups have
    no message, faulty senders are dropped (Section 2) unless
    ``drop_faulty`` is disabled, and ``keep_message`` may exempt
    further messages.  :meth:`~repro.analysis.online.OnlineAbcMonitor.observe_batch`
    applies the first two rules to record rows itself (a monitor takes
    no ``keep_message``); the monitor tests check its graphs against
    this function's.
    """
    if record.sender is None or record.send_event is None:
        return False
    if drop_faulty and record.sender in faulty:
        return False
    if keep_message is not None and not keep_message(record):
        return False
    return True


def build_execution_graph(
    trace: Trace,
    drop_faulty: bool = True,
    keep_message: Callable[[ReceiveRecord], bool] | None = None,
) -> ExecutionGraph:
    """The execution graph of a trace (Definition 1).

    Args:
        trace: the recorded execution.
        drop_faulty: drop message edges whose sender is faulty (the
            paper's default treatment; see the module docstring).
        keep_message: optional extra filter on triggering messages --
            Section 2 notes that message dropping can also exempt chosen
            message types from the ABC synchrony condition, and Section 6
            builds weaker variants from restricted execution graphs.
            Receive records for which it returns ``False`` keep their
            event node but lose the message edge.
    """
    events_by_process: dict[ProcessId, list[Event]] = {
        p: [] for p in range(trace.n)
    }
    for record in trace.records:
        events_by_process[record.event.process].append(record.event)
    for p, events in events_by_process.items():
        for i, ev in enumerate(events):
            if ev.index != i:
                raise ValueError(
                    f"trace records for process {p} are not contiguous: "
                    f"expected index {i}, got {ev!r}"
                )
    messages = [
        MessageEdge(record.send_event, record.event)
        for record in trace.records
        if message_kept(record, trace.faulty, drop_faulty, keep_message)
    ]
    return ExecutionGraph(events_by_process, messages)
