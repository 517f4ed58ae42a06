"""ADIOS-style IO objects and engines (SST streaming, BPFile).

The API follows adios2's shape: an :class:`ADIOS` object owns named
:class:`IO` configurations (engine type + parameters); opening an IO
yields an :class:`Engine` driven with ``begin_step / put / end_step``
on the writer and ``begin_step / get / end_step`` on the reader.

SST here is an in-process broker: one bounded queue per writer rank.
``QueueLimit`` and ``QueueFullPolicy`` reproduce the real engine's
backpressure-or-discard behavior — the knob our queue-depth ablation
benchmark sweeps.

Both writer engines stage, marshal and reset through one base
(``_StagingWriterEngine``): a step is one :func:`marshal_step` frame
(RBP2, or RBP3 under an active codec) and the engines differ only in
where the frame goes — a broker queue or a ``.bp`` file.
"""

from __future__ import annotations

import queue
import threading
import time as _time
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
    NOT_READY = "not-ready"


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
    """Shared staging area between one writer group and one reader group.

    Create it in the orchestrator, hand it to both sides.  `queue_limit`
    bounds the number of staged steps per writer rank (ADIOS
    ``QueueLimit``); `queue_full_policy` selects Block (writer waits —
    backpressure reaches the simulation) or Discard (oldest staged step
    is dropped, decoupling the simulation from a slow consumer).
    """

    _SENTINEL = object()

    #: how often a blocked get re-checks for broker close / writer death
    _POLL_S = 0.02

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
        self.queues: list[queue.Queue] = [
            queue.Queue(maxsize=queue_limit) for _ in range(num_writers)
        ]
        self.stats = StreamStats()
        if injector is not None:
            # one ledger: injector decisions and stream accounting share it
            self.stats.faults = injector.log
        self.endpoint_down = threading.Event()
        self.closed = threading.Event()
        self._writer_down: list[threading.Event] = [
            threading.Event() for _ in range(num_writers)
        ]

    def mark_endpoint_down(self) -> None:
        """Declare the consumer side dead: writers fail fast from now on."""
        self.endpoint_down.set()

    def mark_writer_down(self, writer_rank: int) -> None:
        """Declare one producer dead: readers of its stream fail fast
        (after draining whatever it already staged)."""
        self._writer_down[writer_rank].set()

    def close(self) -> None:
        """Shut the broker down: every blocked or future get fails fast
        with :class:`EndpointDownError` once its queue is drained,
        instead of burning the full stream timeout."""
        self.closed.set()

    def _stream_dead(self, writer_rank: int) -> bool:
        return self.closed.is_set() or self._writer_down[writer_rank].is_set()

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
        if self.endpoint_down.is_set():
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
        q = self.queues[writer_rank]
        if self.queue_full_policy == "Block":
            try:
                q.put(payload_bytes, timeout=self.timeout if timeout is None else timeout)
            except queue.Full:
                raise StreamTimeout(
                    f"SST writer {writer_rank} blocked > "
                    f"{self.timeout if timeout is None else timeout:g}s "
                    "(reader stalled?)"
                ) from None
        else:
            # Discard: drop the oldest staged step to make room.  A
            # concurrent reader may drain the queue between our failed
            # put and the drop attempt, so loop until the put lands;
            # record a discard only when we actually removed a step.
            while True:
                try:
                    q.put_nowait(payload_bytes)
                    break
                except queue.Full:
                    try:
                        dropped = q.get_nowait()
                    except queue.Empty:
                        pass  # reader drained it concurrently; retry the put
                    else:
                        nbytes = len(dropped) if isinstance(dropped, (bytes, bytearray)) else 0
                        self.stats.record_discard(nbytes, writer=writer_rank)
        level = self.stats.record_put(len(payload_bytes), writer=writer_rank)
        if tel.enabled:
            tel.metrics.counter(
                "repro_sst_steps_put_total", "Steps staged into the SST broker"
            ).inc()
            tel.metrics.counter(
                "repro_sst_bytes_put_total", "Bytes staged into the SST broker"
            ).inc(len(payload_bytes))
            tel.memory.observe("sst.queue", level)

    def close_writer(self, writer_rank: int) -> None:
        if self.endpoint_down.is_set():
            return  # nobody is listening for the sentinel
        try:
            self.queues[writer_rank].put(self._SENTINEL, timeout=self.timeout)
        except queue.Full:
            raise StreamTimeout(
                f"SST writer {writer_rank} could not deliver end-of-stream "
                f"within {self.timeout:g}s"
            ) from None

    def get(self, writer_rank: int, step: int = -1, timeout: float | None = None) -> bytes:
        """Dequeue writer `writer_rank`'s next staged step (the only dequeue).

        Waits up to `timeout` seconds (default: the stream timeout) and
        raises :class:`StreamTimeout` when nothing was staged in time —
        a polling consumer passes a zero or short timeout and reads that
        as "nothing staged yet".  Raises :class:`EndOfStream` on the
        writer's sentinel and :class:`EndpointDownError` when the stream
        is dead (broker closed / producer marked down) *and* fully
        drained.  Fault hooks and ``got`` accounting run only after a
        successful dequeue, so injection probability is per delivered
        step, not per call.
        """
        tel = get_telemetry()
        with tel.tracer.span("sst.get", step=step, writer=writer_rank):
            return self._get(writer_rank, step, timeout, tel)

    def _get(self, writer_rank, step, timeout, tel) -> bytes:
        # Wait in short slices so a broker close or producer death is
        # noticed within _POLL_S, not after the full stream timeout —
        # staged items are still drained before the stream fails.
        deadline = _time.monotonic() + (self.timeout if timeout is None else timeout)
        q = self.queues[writer_rank]
        while True:
            try:
                item = q.get_nowait()
                break
            except queue.Empty:
                pass
            if self._stream_dead(writer_rank):
                raise EndpointDownError(
                    f"SST stream of writer {writer_rank} is down "
                    f"({'broker closed' if self.closed.is_set() else 'producer dead'})"
                )
            remaining = deadline - _time.monotonic()
            if remaining <= 0:
                raise StreamTimeout(
                    f"SST reader timed out waiting on writer {writer_rank}"
                ) from None
            try:
                item = q.get(timeout=min(self._POLL_S, remaining))
                break
            except queue.Empty:
                continue
        if item is self._SENTINEL:
            raise EndOfStream
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
        if tel.enabled:
            tel.metrics.counter(
                "repro_sst_steps_got_total", "Steps drained from the SST broker"
            ).inc()
            tel.metrics.counter(
                "repro_sst_bytes_got_total", "Bytes drained from the SST broker"
            ).inc(len(item))
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
        if self.broker.endpoint_down.is_set():
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


class SSTReaderEngine(Engine):
    """One reader rank's end: drains an assigned set of writer ranks.

    A payload that fails its CRC check is counted and *skipped* — the
    reader carries on with whatever the other writers delivered (an
    all-corrupt step surfaces as OK with an empty payload set, which
    the endpoint treats as a no-op).
    """

    def __init__(self, name: str, broker: SSTBroker, writer_ranks: list[int]):
        super().__init__(name, "r")
        self.broker = broker
        self.writer_ranks = list(writer_ranks)
        self._current: dict[int, StepPayload] = {}
        self._ended: set[int] = set()
        self._read_step = 0
        self.corrupt_steps = 0
        # per-writer decode contexts: RBP3 temporal deltas reference the
        # previous step of the *same* writer's stream
        self._codec_ctx: dict[int, CodecContext] = {}

    def begin_step(self) -> StepStatus:
        super().begin_step()
        live = get_telemetry().live
        self._current = {}
        for w in self.writer_ranks:
            if w in self._ended:
                continue
            try:
                raw = self.broker.get(w, step=self._read_step)
            except EndOfStream:
                self._ended.add(w)
                continue
            try:
                ctx = self._codec_ctx.setdefault(w, CodecContext())
                payload = self._current[w] = unmarshal_step(raw, context=ctx)
                live.wire_mark("got", payload.step, w, len(raw))
            except CorruptPayloadError:
                self.corrupt_steps += 1
                self.broker.stats.record_corrupt()
                self.broker.stats.faults.try_resolve("corrupt_payload", "detected")
        self._read_step += 1
        if len(self._ended) == len(self.writer_ranks) and not self._current:
            self._in_step = False
            return StepStatus.END_OF_STREAM
        return StepStatus.OK

    def get(self, writer_rank: int) -> StepPayload:
        if not self._in_step:
            raise RuntimeError("get outside begin_step/end_step")
        return self._current[writer_rank]

    def payloads(self) -> dict[int, StepPayload]:
        if not self._in_step:
            raise RuntimeError("payloads outside begin_step/end_step")
        return dict(self._current)


class BPFileWriterEngine(_StagingWriterEngine):
    """File-based engine: one BP payload file per (step, rank)."""

    def __init__(self, name: str, directory, writer_rank: int = 0, codec=None):
        super().__init__(name, writer_rank, codec)
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.bytes_written = 0

    def _ship(self, data: bytearray) -> None:
        path = self.directory / f"{self.name}.step{self._step:06d}.rank{self.writer_rank:04d}.bp"
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
            self._files[self._index].read_bytes(), context=self.codec_context
        )
        self._index += 1
        return StepStatus.OK

    def get(self) -> StepPayload:
        if not self._in_step or self._payload is None:
            raise RuntimeError("get outside a valid step")
        return self._payload


@dataclass
class IO:
    """A named engine configuration (adios2.IO analog)."""

    name: str
    engine_type: str = "SST"
    parameters: dict = field(default_factory=dict)

    def set_engine(self, engine_type: str) -> None:
        if engine_type not in ("SST", "BPFile"):
            raise ValueError(f"unknown engine type {engine_type!r}")
        self.engine_type = engine_type

    def set_parameters(self, params: dict) -> None:
        self.parameters.update(params)

    def open(self, name: str, mode: str, **kwargs) -> Engine:
        """Open an engine. SST needs broker=...; writers need
        writer_rank=..., readers writer_ranks=[...]."""
        if mode not in ("r", "w"):
            raise ValueError("mode must be 'r' or 'w'")
        if self.engine_type == "SST":
            broker = kwargs.get("broker")
            if broker is None:
                raise ValueError("SST engines need a broker")
            if mode == "w":
                return SSTWriterEngine(
                    name, broker, kwargs.get("writer_rank", 0),
                    codec=kwargs.get("codec"),
                )
            return SSTReaderEngine(name, broker, kwargs.get("writer_ranks", [0]))
        directory = kwargs.get("directory", self.parameters.get("directory", "."))
        if mode == "w":
            return BPFileWriterEngine(
                name, directory, kwargs.get("writer_rank", 0),
                codec=kwargs.get("codec"),
            )
        return BPFileReaderEngine(name, directory, kwargs.get("writer_rank", 0))


class ADIOS:
    """Root object holding named IO configurations."""

    def __init__(self) -> None:
        self._ios: dict[str, IO] = {}

    def declare_io(self, name: str) -> IO:
        if name in self._ios:
            raise ValueError(f"IO {name!r} already declared")
        io_obj = IO(name)
        self._ios[name] = io_obj
        return io_obj

    def at_io(self, name: str) -> IO:
        return self._ios[name]
