"""ADIOS-style engines (SST streaming, BPFile).

Writer engines follow adios2's shape, ``begin_step / put / end_step``.
The SST stream has one consumer, the endpoint fleet's
:class:`~repro.fleet.coordinator.FleetCoordinator`, which dequeues
through :meth:`SSTBroker.get`; file-staged series replay through
:class:`BPFileReaderEngine`.

SST here is an in-process broker: one bounded queue per writer rank.
``QueueLimit`` and ``QueueFullPolicy`` reproduce the real engine's
backpressure-or-discard behavior — the knob our queue-depth ablation
benchmark sweeps.

Both writer engines stage, marshal and reset through one base
(``_StagingWriterEngine``): a step is one :func:`marshal_step` frame
(RBP2, or RBP3 under an active codec) and the engines differ only in
where the frame goes — a broker queue or a ``.bp`` file.

The SST wire carries the frame as is.  A ``.bp`` file is where bytes
are *stored*, so it is the one place that pays for an entropy stage:
:func:`pack_bp_file` deflates the whole frame into one stdlib ``zlib``
stream behind a fixed header (magic + inflated length), and
:func:`unpack_bp_file` inflates no further than that declared length
and hands :func:`unmarshal_step` nothing but a stream that ends
exactly there.
"""

from __future__ import annotations

import struct
import threading
import zlib
from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path

import numpy as np

from repro.adios.marshal import StepPayload, marshal_step, unmarshal_step
from repro.codec import CodecContext
from repro.faults.errors import (
    CorruptPayloadError,
    EndpointDownError,
    StreamTimeout,
)
from repro.faults.injector import FaultInjector, FaultLog
from repro.faults.retry import RetryPolicy
from repro.observe.session import get_telemetry


class EndOfStream(Exception):
    """The writer closed the stream; no more steps will arrive."""


class StepStatus(Enum):
    OK = "ok"
    END_OF_STREAM = "end-of-stream"


@dataclass
class StreamStats:
    """Per-broker transport accounting."""

    steps_put: int = 0
    steps_got: int = 0
    steps_discarded: int = 0
    steps_corrupt: int = 0
    bytes_put: int = 0
    bytes_got: int = 0
    staged_bytes: int = 0
    staged_bytes_peak: int = 0
    faults: FaultLog = field(default_factory=FaultLog)
    _staged_by_writer: dict = field(default_factory=dict, repr=False)
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def record_put(self, nbytes: int, writer: int = 0) -> int:
        """Account a staged step; returns the writer queue's new level."""
        with self._lock:
            self.steps_put += 1
            self.bytes_put += nbytes
            self.staged_bytes += nbytes
            if self.staged_bytes > self.staged_bytes_peak:
                self.staged_bytes_peak = self.staged_bytes
            level = self._staged_by_writer.get(writer, 0) + nbytes
            self._staged_by_writer[writer] = level
            return level

    def record_get(self, nbytes: int, writer: int = 0) -> None:
        with self._lock:
            self.steps_got += 1
            self.bytes_got += nbytes
            self._drain(writer, nbytes)

    def record_discard(self, nbytes: int = 0, writer: int = 0) -> None:
        with self._lock:
            self.steps_discarded += 1
            self._drain(writer, nbytes)

    def _drain(self, writer: int, nbytes: int) -> None:
        self.staged_bytes = max(0, self.staged_bytes - nbytes)
        self._staged_by_writer[writer] = max(
            0, self._staged_by_writer.get(writer, 0) - nbytes
        )

    def record_corrupt(self) -> None:
        with self._lock:
            self.steps_corrupt += 1


class SSTBroker:
    """Shared staging area between one writer group and the endpoint fleet.

    Create it in the orchestrator, hand it to both sides.  `queue_limit`
    bounds the number of staged steps per writer rank (ADIOS
    ``QueueLimit``); `queue_full_policy` selects Block (writer waits —
    backpressure reaches the simulation) or Discard (oldest staged step
    is dropped, decoupling the simulation from a slow consumer).

    One condition variable guards every stream.  Each change — a step
    staged or dequeued, a stream ended, a side marked down — notifies
    it, so a writer blocked on a full queue, a ``get`` blocked on an
    empty one and an idle fleet member (:meth:`wait`) each wake on the
    event itself; nothing re-checks on a timer.  :attr:`events` counts
    the changes a consumer can act on, and the fleet coordinator adds
    its own (a render step queued, a member gone) through
    :meth:`notify`.
    """

    def __init__(
        self,
        num_writers: int,
        queue_limit: int = 2,
        queue_full_policy: str = "Block",
        timeout: float = 120.0,
        injector: FaultInjector | None = None,
    ):
        if num_writers < 1:
            raise ValueError("num_writers must be >= 1")
        if queue_limit < 1:
            raise ValueError("queue_limit must be >= 1")
        if queue_full_policy not in ("Block", "Discard"):
            raise ValueError("queue_full_policy must be Block or Discard")
        self.num_writers = num_writers
        self.queue_limit = queue_limit
        self.queue_full_policy = queue_full_policy
        self.timeout = timeout
        self.injector = injector
        self.stats = StreamStats()
        if injector is not None:
            # one ledger: injector decisions and stream accounting share it
            self.stats.faults = injector.log
        # the telemetry active here reads the ledger: a shared broker's
        # counters sit on the registry of the rank that built it
        metrics = get_telemetry().metrics
        metrics.counter("repro_sst_steps_put_total",
                        "Steps staged into the SST broker",
                        read=lambda: self.stats.steps_put)
        metrics.counter("repro_sst_bytes_put_total",
                        "Bytes staged into the SST broker",
                        read=lambda: self.stats.bytes_put)
        metrics.counter("repro_sst_steps_got_total",
                        "Steps drained from the SST broker",
                        read=lambda: self.stats.steps_got)
        metrics.counter("repro_sst_bytes_got_total",
                        "Bytes drained from the SST broker",
                        read=lambda: self.stats.bytes_got)
        self._cond = threading.Condition()
        self._staged: list[deque] = [deque() for _ in range(num_writers)]
        self._ended = [False] * num_writers        # close_writer was called
        self._writer_down = [False] * num_writers  # producer declared dead
        self.endpoint_down = False
        self.closed = False
        #: consumer-visible changes so far; see :meth:`wait`
        self.events = 0

    # -- events -----------------------------------------------------------
    def _changed(self) -> None:
        """Count one event and wake every waiter (caller holds the lock)."""
        self.events += 1
        self._cond.notify_all()

    def notify(self) -> None:
        """Count an event raised outside the broker; wake every waiter."""
        with self._cond:
            self._changed()

    def wait(self, since: int, timeout: float | None = None) -> bool:
        """Block until :attr:`events` moves past `since` (a value read
        earlier) or `timeout` seconds pass; returns whether it moved."""
        with self._cond:
            return self._cond.wait_for(lambda: self.events != since, timeout)

    def mark_endpoint_down(self) -> None:
        """Declare the consumer side dead: writers fail fast from now on,
        including one already blocked on a full queue."""
        with self._cond:
            self.endpoint_down = True
            self._changed()

    def mark_writer_down(self, writer_rank: int) -> None:
        """Declare one producer dead: readers of its stream fail fast
        (after draining whatever it already staged)."""
        with self._cond:
            self._writer_down[writer_rank] = True
            self._changed()

    def close(self) -> None:
        """Shut the broker down: every blocked or future get fails fast
        with :class:`EndpointDownError` once its queue is drained,
        instead of burning the full stream timeout."""
        with self._cond:
            self.closed = True
            self._changed()

    # -- views ------------------------------------------------------------
    def staged_steps(self) -> int:
        """Steps staged across every writer queue."""
        with self._cond:
            return sum(len(q) for q in self._staged)

    def ready(self, writer_rank: int) -> bool:
        """Whether a ``get`` on `writer_rank` would return or raise now."""
        with self._cond:
            return self._ready(writer_rank)

    def _ready(self, writer_rank: int) -> bool:
        return bool(
            self._staged[writer_rank] or self._ended[writer_rank]
            or self.closed or self._writer_down[writer_rank]
        )

    # -- writer side ------------------------------------------------------
    def put(
        self,
        writer_rank: int,
        payload_bytes: bytes,
        step: int = -1,
        timeout: float | None = None,
    ) -> None:
        tel = get_telemetry()
        with tel.tracer.span("sst.put", step=step, writer=writer_rank):
            self._put(writer_rank, payload_bytes, step, timeout, tel)

    def _put(self, writer_rank, payload_bytes, step, timeout, tel) -> None:
        if self.endpoint_down:
            raise EndpointDownError(
                f"SST writer {writer_rank}: endpoint marked down"
            )
        inj = self.injector
        if inj is not None:
            stall = inj.maybe("writer_stall", "broker.put", step, key=writer_rank)
            if stall is not None:
                tel.tracer.instant("fault.writer_stall", step=step, writer=writer_rank)
                inj.sleep(stall)
                self.stats.faults.try_resolve("writer_stall", "recovered")
            drop = inj.maybe("drop_step", "broker.put", step, key=writer_rank)
            if drop is not None:
                tel.tracer.instant("fault.drop_step", step=step, writer=writer_rank)
                self.stats.record_discard(writer=writer_rank)
                self.stats.faults.try_resolve("drop_step", "detected")
                return
        q = self._staged[writer_rank]
        limit = self.timeout if timeout is None else timeout
        with self._cond:
            if self.queue_full_policy == "Block" and not self._cond.wait_for(
                lambda: self.endpoint_down or len(q) < self.queue_limit, limit
            ):
                raise StreamTimeout(
                    f"SST writer {writer_rank} blocked > {limit:g}s "
                    "(reader stalled?)"
                )
            if self.endpoint_down:
                raise EndpointDownError(
                    f"SST writer {writer_rank}: endpoint marked down"
                )
            # Discard: drop the oldest staged steps to make room (under
            # Block the wait above already did)
            while len(q) >= self.queue_limit:
                self.stats.record_discard(len(q.popleft()), writer=writer_rank)
            q.append(payload_bytes)
            level = self.stats.record_put(len(payload_bytes), writer=writer_rank)
            self._changed()
        tel.memory.observe("sst.queue", level)

    def close_writer(self, writer_rank: int) -> None:
        """End writer `writer_rank`'s stream: its consumer gets
        :class:`EndOfStream` once it has drained what was staged.  The
        end mark takes no queue slot, so this never blocks."""
        with self._cond:
            self._ended[writer_rank] = True
            self._changed()

    # -- consumer side ----------------------------------------------------
    def get(self, writer_rank: int, step: int = -1, timeout: float | None = None) -> bytes:
        """Dequeue writer `writer_rank`'s next staged step (the only dequeue).

        Waits up to `timeout` seconds (default: the stream timeout) and
        raises :class:`StreamTimeout` when nothing was staged in time —
        a caller that must not block passes ``timeout=0`` or asks
        :meth:`ready` first.  Raises :class:`EndOfStream` once the
        writer closed its stream and :class:`EndpointDownError` when the
        stream is dead (broker closed / producer marked down), both only
        after everything staged was drained.  Fault hooks and ``got``
        accounting run only after a successful dequeue, so injection
        probability is per delivered step, not per call.
        """
        tel = get_telemetry()
        with tel.tracer.span("sst.get", step=step, writer=writer_rank):
            return self._get(writer_rank, step, timeout, tel)

    def _get(self, writer_rank, step, timeout, tel) -> bytes:
        q = self._staged[writer_rank]
        with self._cond:
            if not self._cond.wait_for(
                lambda: self._ready(writer_rank),
                self.timeout if timeout is None else timeout,
            ):
                raise StreamTimeout(
                    f"SST reader timed out waiting on writer {writer_rank}"
                )
            if not q:
                if self._ended[writer_rank]:
                    raise EndOfStream
                raise EndpointDownError(
                    f"SST stream of writer {writer_rank} is down "
                    f"({'broker closed' if self.closed else 'producer dead'})"
                )
            item = q.popleft()
            # room for a writer blocked in put; not an event for consumers
            self._cond.notify_all()
        inj = self.injector
        if inj is not None:
            slow = inj.maybe("slow_consumer", "broker.get", step, key=writer_rank)
            if slow is not None:
                tel.tracer.instant("fault.slow_consumer", step=step, writer=writer_rank)
                inj.sleep(slow)
                self.stats.faults.try_resolve("slow_consumer", "recovered")
            corrupt = inj.maybe("corrupt_payload", "broker.get", step, key=writer_rank)
            if corrupt is not None:
                tel.tracer.instant("fault.corrupt_payload", step=step, writer=writer_rank)
                item = inj.corrupt(item, corrupt)
        self.stats.record_get(len(item), writer=writer_rank)
        return item


class Engine:
    """Common engine surface."""

    def __init__(self, name: str, mode: str):
        self.name = name
        self.mode = mode
        self._in_step = False
        self.closed = False

    def begin_step(self) -> StepStatus:
        if self.closed:
            raise RuntimeError(f"engine {self.name} is closed")
        if self._in_step:
            raise RuntimeError("begin_step called twice without end_step")
        self._in_step = True
        return StepStatus.OK

    def end_step(self) -> None:
        if not self._in_step:
            raise RuntimeError("end_step without begin_step")
        self._in_step = False

    def close(self) -> None:
        self.closed = True


class _StagingWriterEngine(Engine):
    """Writer side shared by the SST and BPFile engines.

    ``put`` stages the open step's arrays; ``end_step`` marshals them
    into one frame (through the engine's codec, if it has one), hands
    the frame to the subclass's ``_ship`` and resets the step state
    even when either fails, so a degraded writer keeps streaming (or
    keeps falling back) on subsequent steps.  Attributes persist from
    step to step.
    """

    def __init__(self, name: str, writer_rank: int, codec) -> None:
        super().__init__(name, "w")
        self.writer_rank = writer_rank
        self.codec = codec
        # one encoder context per directed stream: temporal references
        # plus the raw-vs-wire stats the bench/router read back
        self.codec_context = CodecContext() if codec is not None else None
        self._staged: dict[str, np.ndarray] = {}
        self._attrs: dict[str, str] = {}
        self._step = 0
        self._time = 0.0

    def set_step_info(self, step: int, time: float) -> None:
        self._step = step
        self._time = time

    def put(self, name: str, array: np.ndarray) -> None:
        if not self._in_step:
            raise RuntimeError("put outside begin_step/end_step")
        self._staged[name] = np.asarray(array)

    def put_attribute(self, name: str, value: str) -> None:
        self._attrs[name] = str(value)

    def end_step(self) -> None:
        try:
            with get_telemetry().tracer.span(
                "adios.marshal", step=self._step, stage="marshal",
                stream=self.writer_rank,
            ):
                data = marshal_step(
                    StepPayload(
                        self._step, self._time, self.writer_rank,
                        dict(self._staged), dict(self._attrs),
                    ),
                    codec=self.codec,
                    context=self.codec_context,
                )
            self._ship(data)
        finally:
            self._staged.clear()
            super().end_step()

    def _ship(self, data: bytearray) -> None:
        """Deliver one marshaled step (broker put / file write)."""
        raise NotImplementedError


class SSTWriterEngine(_StagingWriterEngine):
    """One writer rank's end of an SST stream.

    With a :class:`RetryPolicy`, a timed-out put is retried with
    backoff instead of killing the run; exhaustion raises
    :class:`EndpointDownError`.
    """

    def __init__(
        self,
        name: str,
        broker: SSTBroker,
        writer_rank: int,
        retry: RetryPolicy | None = None,
        codec=None,
    ):
        super().__init__(name, writer_rank, codec)
        if not 0 <= writer_rank < broker.num_writers:
            raise ValueError(f"writer rank {writer_rank} out of range")
        self.broker = broker
        self.retry = retry
        # wire-size observables the hybrid router feeds on
        self.last_wire_bytes = 0
        self.wire_bytes_total = 0

    def begin_step(self) -> StepStatus:
        if self.broker.endpoint_down:
            # fail before staging work the transport cannot deliver
            raise EndpointDownError(
                f"SST writer {self.writer_rank}: endpoint marked down"
            )
        return super().begin_step()

    def _ship(self, data: bytearray) -> None:
        self.last_wire_bytes = len(data)
        self.wire_bytes_total += len(data)
        if self.retry is None:
            self.broker.put(self.writer_rank, data, step=self._step)
        else:
            self.retry.call(
                lambda attempt: self.broker.put(
                    self.writer_rank, data,
                    step=self._step,
                    timeout=self.retry.attempt_timeout,
                ),
                on_retry=self._on_retry,
                describe=f"SST put (writer {self.writer_rank}, step {self._step})",
            )
        # put mark: the wire stage opens when the payload lands
        # in the broker and closes at the consumer's got mark
        get_telemetry().live.wire_mark(
            "put", self._step, self.writer_rank, len(data)
        )

    def _on_retry(self, attempt: int, exc: Exception) -> None:
        self.broker.stats.faults.record_retry()
        tel = get_telemetry()
        tel.live.event("retry")
        if tel.enabled:
            tel.tracer.instant(
                "sst.retry", attempt=attempt, writer=self.writer_rank,
                error=type(exc).__name__,
            )
            tel.metrics.counter(
                "repro_sst_retries_total", "SST put attempts retried after a timeout"
            ).inc()

    def close(self) -> None:
        if not self.closed:
            self.broker.close_writer(self.writer_rank)
        super().close()


#: ``.bp`` file header: magic, then the inflated frame's length
_BP_FILE = struct.Struct("<4sQ")
_BP_MAGIC = b"RBPZ"


def pack_bp_file(frame) -> bytes:
    """A ``.bp`` file's bytes: header + the frame as one zlib stream."""
    return _BP_FILE.pack(_BP_MAGIC, len(frame)) + zlib.compress(frame)


def unpack_bp_file(data) -> bytes:
    """Invert :func:`pack_bp_file`; the inflated frame.

    Inflation stops at the declared length, so a hostile file cannot
    inflate past it.  Anything but one whole zlib stream that inflates
    to exactly the declared length and ends the file raises
    :class:`CorruptPayloadError`.
    """
    if len(data) < _BP_FILE.size:
        raise CorruptPayloadError("BP file shorter than its header")
    magic, declared = _BP_FILE.unpack_from(data)
    if magic != _BP_MAGIC:
        raise CorruptPayloadError("not a BP file (bad magic)")
    if not 0 < declared <= len(data) * 1032:
        # deflate's best case is ~1032:1; 0 would mean "no limit" below
        raise CorruptPayloadError(f"BP file declares {declared} B")
    inflater = zlib.decompressobj()
    try:
        frame = inflater.decompress(memoryview(data)[_BP_FILE.size:], declared)
    except zlib.error as exc:
        raise CorruptPayloadError(f"BP file does not inflate: {exc}") from exc
    if not inflater.eof or inflater.unused_data or len(frame) != declared:
        raise CorruptPayloadError(
            "BP file stream does not end at its declared length"
        )
    return frame


class BPFileWriterEngine(_StagingWriterEngine):
    """File-based engine: one deflated BP payload file per (step, rank)."""

    def __init__(self, name: str, directory, writer_rank: int = 0, codec=None):
        super().__init__(name, writer_rank, codec)
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.bytes_written = 0

    def _ship(self, data: bytearray) -> None:
        path = self.directory / f"{self.name}.step{self._step:06d}.rank{self.writer_rank:04d}.bp"
        data = pack_bp_file(data)
        path.write_bytes(data)
        self.bytes_written += len(data)


class BPFileReaderEngine(Engine):
    """Reads BP payload files back in step order for one rank."""

    def __init__(self, name: str, directory, writer_rank: int = 0):
        super().__init__(name, "r")
        self.directory = Path(directory)
        self.writer_rank = writer_rank
        pattern = f"{name}.step*.rank{writer_rank:04d}.bp"
        self._files = sorted(self.directory.glob(pattern))
        self._index = 0
        self._payload: StepPayload | None = None
        # file series decode in step order, so one context carries any
        # temporal references across begin_step calls
        self.codec_context = CodecContext()

    def begin_step(self) -> StepStatus:
        super().begin_step()
        if self._index >= len(self._files):
            self._in_step = False
            return StepStatus.END_OF_STREAM
        self._payload = unmarshal_step(
            unpack_bp_file(self._files[self._index].read_bytes()),
            context=self.codec_context,
        )
        self._index += 1
        return StepStatus.OK

    def get(self) -> StepPayload:
        if not self._in_step or self._payload is None:
            raise RuntimeError("get outside a valid step")
        return self._payload
