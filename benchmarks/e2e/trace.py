"""Span tracing from outside the program.

``Tracer.install()`` wraps the public callables listed in
:data:`ENTRYPOINTS` with span recorders; ``uninstall()`` restores them.
Nothing under ``src/`` knows it is being traced.  Spans stay in memory
(per-thread columnar arrays) and are written once, after the run, as a
Chrome trace.

The analysis half (:func:`self_times`, :func:`summarize`) is pure and
works on plain :class:`Span` lists, so it is tested on synthetic spans.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time
from array import array
from typing import NamedTuple

#: layer (= ``repro`` sub-package) -> the public callables timed for it.
#: ``module:function`` is rebound in every loaded ``repro.*`` module that
#: imported it by name; ``module:Class.method`` is rebound on the class.
#: Hot allocators (``WorkspaceArena.borrow``) and ``MeshSession.take``
#: (1 600 calls per frame) are deliberately absent: they are read
#: through ``stats()`` / timed by the driver around the whole sweep.
ENTRYPOINTS: dict[str, list[str]] = {
    "nekrs": [
        "repro.nekrs.solver:NekRSSolver.__init__",
        "repro.nekrs.solver:NekRSSolver.step",
        "repro.nekrs.solver:NekRSSolver.kinetic_energy",
    ],
    "sem": [
        "repro.sem.krylov:cg_solve",
        "repro.sem.gather_scatter:GatherScatter.__call__",
    ],
    "parallel": [
        "repro.parallel.comm:Communicator.allgather",
        "repro.parallel.comm:Communicator.bcast",
        "repro.parallel.comm:Communicator.gather",
        "repro.parallel.comm:Communicator.scatter",
        "repro.parallel.comm:Communicator.alltoall",
        "repro.parallel.comm:Communicator.reduce",
        "repro.parallel.comm:Communicator.allreduce",
        "repro.parallel.thread_comm:ThreadCommunicator.barrier",
        "repro.parallel.thread_comm:ThreadCommunicator.send",
        "repro.parallel.thread_comm:ThreadCommunicator.recv",
        "repro.parallel.thread_comm:ThreadCommunicator.sendrecv",
        "repro.parallel.thread_comm:ThreadCommunicator.split",
    ],
    "occa": [
        "repro.occa.device:DeviceMemory.copy_to_host",
        "repro.occa.device:DeviceMemory.copy_from_host",
    ],
    "insitu": [
        "repro.insitu.bridge:Bridge.__init__",
        "repro.insitu.bridge:Bridge.update",
        "repro.insitu.bridge:Bridge.finalize",
        "repro.insitu.adaptor:NekDataAdaptor.get_mesh",
        "repro.insitu.adaptor:NekDataAdaptor.add_array",
        "repro.insitu.adaptor:NekDataAdaptor.release_data",
        "repro.insitu.streamed:StreamedDataAdaptor.consume",
        "repro.insitu.streamed:StreamedDataAdaptor.get_mesh",
        "repro.insitu.streamed:StreamedDataAdaptor.add_array",
    ],
    "sensei": [
        "repro.sensei.configurable:ConfigurableAnalysis.execute",
        "repro.sensei.analyses.catalyst_adaptor:CatalystAnalysisAdaptor.execute",
        "repro.sensei.analyses.adios_adaptor:ADIOSAnalysisAdaptor.execute",
    ],
    "catalyst": [
        "repro.catalyst.pipeline:RenderPipeline.render",
        "repro.catalyst.contour:marching_tetrahedra",
        "repro.catalyst.slicefilter:axis_slice",
        "repro.catalyst.rasterizer:Rasterizer.draw_mesh",
    ],
    "util": [
        "repro.util.png:encode_png",
        # the adaptor writes PNGs with Path.write_bytes inline; there is
        # no repro callable around the file write to wrap instead
        "pathlib:Path.write_bytes",
    ],
    "adios": [
        "repro.adios.marshal:marshal_step",
        "repro.adios.marshal:unmarshal_step",
        "repro.adios.engine:SSTBroker.put",
        "repro.adios.engine:SSTBroker.get",
        "repro.adios.engine:SSTBroker.close_writer",
    ],
    "codec": [
        "repro.codec.pipeline:encode_field",
        "repro.codec.pipeline:decode_field",
    ],
    "serve": [
        "repro.serve.mesh:ServeMesh.publish",
        "repro.serve.mesh:ServeMesh.connect",
        "repro.serve.mesh:ServeMesh.disconnect",
        "repro.serve.mesh:ServeMesh.relay_replay",
        "repro.serve.framestore:FrameStore.put",
        "repro.serve.pump:SessionPump.pump_once",
    ],
}

#: entry points whose integer return value is kept on the span
#: (``draw_mesh`` returns the triangles it drew).
RESULT_COUNTS = frozenset({"repro.catalyst.rasterizer:Rasterizer.draw_mesh"})

#: entry points that start a new op on their thread: every span recorded
#: on that thread until the next one carries the same op id (solver step
#: number on a rank thread, stream step on the endpoint, frame number on
#: the publisher, service pass on the relay's pump thread).
OP_SOURCES = frozenset({
    "repro.nekrs.solver:NekRSSolver.step",
    "repro.adios.engine:SSTBroker.get",
    "repro.serve.mesh:ServeMesh.publish",
    "repro.serve.pump:SessionPump.pump_once",
})

DRIVER = "driver"
TIMED = "timed"


class Span(NamedTuple):
    name: str
    layer: str
    thread: str
    start: float
    end: float
    parent: int        # index into the same list, -1 for a root
    op: int
    value: int = -1


class _ThreadLog:
    """One thread's spans, columnar; only its owner thread appends."""

    __slots__ = ("thread", "key", "parent", "op", "start", "end", "value",
                 "top", "opid")

    def __init__(self, thread: str):
        self.thread = thread
        self.key = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.value = array("q")
        self.top = -1
        self.opid = 0


class _SpanContext:
    __slots__ = ("_log", "_key", "_index", "_prev")

    def __init__(self, log: _ThreadLog, key: int):
        self._log = log
        self._key = key

    def __enter__(self):
        self._index = _open(self._log, self._key)
        self._prev = self._log.parent[self._index]
        return self

    def __exit__(self, *exc):
        log = self._log
        log.end[self._index] = time.perf_counter()
        log.top = self._prev
        return False


def _open(log: _ThreadLog, key: int) -> int:
    index = len(log.key)
    log.key.append(key)
    log.parent.append(log.top)
    log.op.append(log.opid)
    log.value.append(-1)
    log.end.append(0.0)
    log.start.append(time.perf_counter())
    log.top = index
    return index


class Tracer:
    """Owns the span logs and the patches; create one per traced run."""

    def __init__(self, entrypoints: dict[str, list[str]] | None = None):
        self.entrypoints = ENTRYPOINTS if entrypoints is None else entrypoints
        self._keys: list[tuple[str, str]] = []       # key -> (name, layer)
        self._key_of: dict[tuple[str, str], int] = {}
        self._logs: list[_ThreadLog] = []
        self._tls = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------
    def _key(self, name: str, layer: str) -> int:
        with self._lock:
            key = self._key_of.get((name, layer))
            if key is None:
                key = self._key_of[(name, layer)] = len(self._keys)
                self._keys.append((name, layer))
            return key

    def _log(self) -> _ThreadLog:
        try:
            return self._tls.log
        except AttributeError:
            log = self._tls.log = _ThreadLog(threading.current_thread().name)
            with self._lock:
                self._logs.append(log)
            return log

    def span(self, name: str, layer: str = DRIVER) -> _SpanContext:
        """Context manager recording one span around the driver's own code."""
        return _SpanContext(self._log(), self._key(name, layer))

    def _wrap(self, fn, spec: str, layer: str):
        key = self._key(spec.split(":", 1)[1], layer)
        get_log = self._log
        now = time.perf_counter
        bump_op = spec in OP_SOURCES
        keep_count = spec in RESULT_COUNTS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            log = get_log()
            if bump_op:
                log.opid += 1
            index = _open(log, key)
            prev = log.parent[index]
            try:
                result = fn(*args, **kwargs)
                if keep_count and isinstance(result, int):
                    log.value[index] = result
                return result
            finally:
                log.end[index] = now()
                log.top = prev

        return traced

    # -- patching ----------------------------------------------------------
    def install(self) -> None:
        """Wrap every entry point; raises if one does not resolve."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        try:
            for layer, specs in self.entrypoints.items():
                for spec in specs:
                    self._install_one(spec, layer)
        except Exception:
            self.uninstall()
            raise

    def _install_one(self, spec: str, layer: str) -> None:
        module_name, qualname = spec.split(":", 1)
        module = importlib.import_module(module_name)
        if "." in qualname:
            cls_name, attr = qualname.split(".", 1)
            owner = getattr(module, cls_name)
            original = owner.__dict__.get(attr)
            if not callable(original) or isinstance(
                original, (staticmethod, classmethod, property)
            ):
                raise TypeError(f"{spec} is not a plain method")
            self._patch(owner, attr, original, self._wrap(original, spec, layer))
            return
        original = getattr(module, qualname)
        if not callable(original):
            raise TypeError(f"{spec} is not callable")
        wrapper = self._wrap(original, spec, layer)
        # ``from x import f`` call sites hold their own reference
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "repro" or name.startswith("repro.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, attr, original, wrapper)

    def _patch(self, owner, attr: str, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reading -----------------------------------------------------------
    def spans(self) -> list[Span]:
        """Every closed span, parents as indices into the returned list."""
        out: list[Span] = []
        with self._lock:
            logs = list(self._logs)
            keys = list(self._keys)
        for log in logs:
            base = len(out)
            for i in range(len(log.end)):
                name, layer = keys[log.key[i]]
                parent = log.parent[i]
                # a span still open when the run ended has end == 0:
                # keep it with zero length
                out.append(Span(
                    name, layer, log.thread, log.start[i],
                    max(log.end[i], log.start[i]),
                    base + parent if parent >= 0 else -1, log.op[i],
                    log.value[i],
                ))
        return out


# -- analysis (pure) --------------------------------------------------------

def _union_length(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        elif hi > cur_hi:
            cur_hi = hi
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the union of its children's intervals.

    Children are clipped to the parent and may overlap each other (two
    recorders on one thread can); the union counts covered time once.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent >= 0:
            p = spans[s.parent]
            lo, hi = max(s.start, p.start), min(s.end, p.end)
            if hi > lo:
                children.setdefault(s.parent, []).append((lo, hi))
    return [
        (s.end - s.start) - _union_length(children.get(i, []))
        for i, s in enumerate(spans)
    ]


def timed_windows(spans: list[Span]) -> list[tuple[float, float]]:
    """Merged intervals of the driver's ``timed`` spans."""
    merged: list[tuple[float, float]] = []
    for lo, hi in sorted(
        (s.start, s.end) for s in spans if s.layer == DRIVER and s.name == TIMED
    ):
        if merged and lo <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
        else:
            merged.append((lo, hi))
    return merged


class Summary(NamedTuple):
    self_s: dict[str, float]        # span name -> summed self seconds
    total_s: dict[str, float]       # span name -> summed inclusive seconds
    calls: dict[str, int]           # span name -> count
    values: dict[str, int]          # span name -> summed kept return values
    layer_self_s: dict[str, float]  # layer -> summed self seconds
    thread_layer_self_s: dict[str, dict[str, float]]   # thread -> the same
    layer_roots: dict[str, int]     # layer -> spans whose parent is another layer
    timed_s: float                  # summed duration of the ``timed`` spans
    unattributed_s: float           # their self time
    window_s: float                 # wall covered by the ``timed`` windows


def summarize(spans: list[Span]) -> Summary:
    """Aggregate the spans that start inside a ``timed`` window."""
    windows = timed_windows(spans)
    selfs = self_times(spans)

    def inside(t: float) -> bool:
        return any(lo <= t <= hi for lo, hi in windows)

    self_s: dict[str, float] = {}
    total_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    values: dict[str, int] = {}
    layer_self: dict[str, float] = {}
    thread_layer_self: dict[str, dict[str, float]] = {}
    layer_roots: dict[str, int] = {}
    timed_s = unattributed = 0.0
    for i, s in enumerate(spans):
        if not inside(s.start):
            continue
        if s.layer == DRIVER and s.name == TIMED:
            timed_s += s.end - s.start
            unattributed += selfs[i]
            continue
        self_s[s.name] = self_s.get(s.name, 0.0) + selfs[i]
        total_s[s.name] = total_s.get(s.name, 0.0) + (s.end - s.start)
        calls[s.name] = calls.get(s.name, 0) + 1
        if s.value >= 0:
            values[s.name] = values.get(s.name, 0) + s.value
        layer_self[s.layer] = layer_self.get(s.layer, 0.0) + selfs[i]
        per_thread = thread_layer_self.setdefault(s.thread, {})
        per_thread[s.layer] = per_thread.get(s.layer, 0.0) + selfs[i]
        if s.parent < 0 or spans[s.parent].layer != s.layer:
            layer_roots[s.layer] = layer_roots.get(s.layer, 0) + 1
    return Summary(self_s, total_s, calls, values, layer_self,
                   thread_layer_self, layer_roots, timed_s, unattributed,
                   sum(hi - lo for lo, hi in windows))


def write_chrome_trace(spans: list[Span], path) -> None:
    """Write the spans as Chrome-trace complete events (``ph: X``)."""
    if not spans:
        t0 = 0.0
    else:
        t0 = min(s.start for s in spans)
    tids: dict[str, int] = {}
    events = []
    for s in spans:
        tid = tids.setdefault(s.thread, len(tids) + 1)
        events.append({
            "name": s.name, "cat": s.layer, "ph": "X", "pid": 1, "tid": tid,
            "ts": round((s.start - t0) * 1e6, 1),
            "dur": round((s.end - s.start) * 1e6, 1),
            "args": {"op": s.op} if s.value < 0 else {"op": s.op, "count": s.value},
        })
    for thread, tid in tids.items():
        events.append({"name": "thread_name", "ph": "M", "pid": 1, "tid": tid,
                       "args": {"name": thread}})
    with open(path, "w") as fh:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)
