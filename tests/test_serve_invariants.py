"""Semantic invariants of serving, checked at every drain.

``golden_serve_sequences.json`` pins one recorded history byte for
byte; these tests pin what *every* history must satisfy, over the same
``_golden_scenario`` script and over a seeded Hypothesis script of
connect / publish / drain / close / clock steps:

- **ordering** — per session, delivered frames follow publish order
  (``Frame.seq`` strictly increasing), so each stream's steps strictly
  increase;
- **drop-to-latest** — a depth-``d`` queue drained after ``n`` offers
  hands over the newest ``min(d, n)`` of them, oldest first;
- **max_fps newest-wins** — a frame offered inside the interval parks
  in the single deferred slot, a newer one replaces it, and the parked
  frame is enqueued once the interval has elapsed (at the next take,
  or at the next offer, which it then loses to);
- **conservation** — ``offered == delivered + dropped + rate_limited``
  plus whatever is still queued or parked, ``offered`` counts exactly
  the wanted frames published while connected (plus the backfill), and
  ``delivered`` / ``bytes_out`` / ``steps`` agree with the frames taken.

A :class:`Watched` session carries the reference model of one client
(a bounded queue and a deferred slot); the hub under test runs without
threads (``start=False``), so ``settle()`` fans out on the caller's
thread and the fake clock is the only clock.
"""

import json
from collections import deque

import pytest
from hypothesis import given, settings, strategies as st

from repro.serve import HubFull
from test_serve_mesh import GOLDEN, FakeClock, _golden_scenario, _quiet_mesh

pytestmark = [pytest.mark.timeout(120)]


class Watched:
    """A hub session plus the model of what it must deliver."""

    def __init__(self, session, clock, depth, max_fps=None, streams=None):
        self.session = session
        self.stats = session.stats
        self.clock = clock
        self.depth = depth
        self.interval = 1.0 / max_fps if max_fps else 0.0
        self.streams = tuple(streams) if streams else None
        self.queue: deque = deque()
        self.deferred = None
        self.last_enqueue = -float("inf")
        self.offered = 0
        self.taken: list = []
        self.closed = False

    # -- the model ---------------------------------------------------------
    def offer(self, frame, now: float) -> None:
        if self.closed or (self.streams and frame.stream not in self.streams):
            return
        self.offered += 1
        if self.interval and now - self.last_enqueue < self.interval:
            self.deferred = frame           # newest wins
        else:
            self._enqueue(frame, now)

    def _enqueue(self, frame, now: float) -> None:
        self.deferred = None
        self.queue.append(frame)
        while len(self.queue) > self.depth:
            self.queue.popleft()            # drop-to-latest: oldest goes
        self.last_enqueue = now

    # -- what the script calls ---------------------------------------------
    def drain(self) -> list:
        got = self.session.drain()
        now = self.clock()
        if self.deferred is not None and now - self.last_enqueue >= self.interval:
            self._enqueue(self.deferred, now)
        expected, self.queue = list(self.queue), deque()
        label = self.session.label
        assert [f.seq for f in got] == [f.seq for f in expected], (
            f"{label}: drained {[(f.stream, f.step) for f in got]}, the "
            f"{'max_fps' if self.interval else 'drop-to-latest'} model says "
            f"{[(f.stream, f.step) for f in expected]}"
        )
        self.taken.extend(got)
        self.check()
        return got

    def close(self) -> None:
        self.session.close()
        self.closed = True

    def check(self) -> None:
        label, stats = self.session.label, self.session.stats
        seqs = [f.seq for f in self.taken]
        assert all(a < b for a, b in zip(seqs, seqs[1:])), (label, seqs)
        for stream in {f.stream for f in self.taken}:
            steps = [f.step for f in self.taken if f.stream == stream]
            assert all(a < b for a, b in zip(steps, steps[1:])), (label, steps)
        held = len(self.queue) + (self.deferred is not None)
        assert stats.offered == self.offered, label
        assert (
            stats.delivered + stats.dropped + stats.rate_limited + held
            == stats.offered
        ), (label, stats.as_dict(), held)
        assert stats.delivered == len(self.taken), label
        assert stats.bytes_out == sum(f.nbytes for f in self.taken), label
        assert stats.steps == [f.step for f in self.taken], label


class Recorder:
    """The hub surface the scripts drive, feeding every open model."""

    def __init__(self, hub, clock):
        self.hub = hub
        self.clock = clock
        self.watched: list[Watched] = []

    def connect(self, depth=None, max_fps=None, streams=None,
                backfill=False, **kw) -> Watched:
        session = self.hub.connect(depth=depth, max_fps=max_fps,
                                   streams=streams, backfill=backfill, **kw)
        w = Watched(session, self.clock,
                    depth if depth is not None else self.hub.default_depth,
                    max_fps=max_fps, streams=streams)
        if backfill:
            # a late joiner is offered the retained window in publish order
            retained = [f for s in self.hub.store.streams()
                        for f in self.hub.store.frames(s)]
            for frame in sorted(retained, key=lambda f: f.seq):
                w.offer(frame, self.clock())
        self.watched.append(w)
        return w

    def disconnect(self, w: Watched) -> None:
        self.hub.disconnect(w.session)
        w.closed = True

    def publish(self, stream, step, time, data):
        frame = self.hub.publish(stream, step, time, data)
        self.hub.settle()
        now = self.clock()
        for w in self.watched:
            w.offer(frame, now)
        return frame

    def settle(self) -> None:
        """Already settled by :meth:`publish`."""

    def finish(self) -> None:
        self.clock.now += 1.0       # let every deferred slot promote
        for w in self.watched:
            w.drain()
            assert w.deferred is None and not w.queue


class TestGoldenScenarioInvariants:
    def test_every_drain_of_the_golden_script_holds_the_invariants(self):
        clock = FakeClock()
        hub = _quiet_mesh(history=8, default_depth=2, max_clients=6,
                          clock=clock)
        recorder = Recorder(hub, clock)
        out = _golden_scenario(recorder, clock, recorder.settle)
        recorder.finish()
        # the invariants hold on the very history the golden records
        assert out == json.loads(GOLDEN.read_text())
        assert {w.session.label for w in recorder.watched} == set(out)


# -- a seeded random script --------------------------------------------------

_MAX_CLIENTS = 5

_connect = st.fixed_dictionaries({
    "op": st.just("connect"),
    "depth": st.sampled_from([None, 1, 2, 4]),
    "max_fps": st.sampled_from([None, None, 10.0, 25.0]),
    "streams": st.sampled_from([None, None, ("a",), ("b",)]),
    "backfill": st.booleans(),
})
_publish = st.fixed_dictionaries({
    "op": st.just("publish"),
    "stream": st.sampled_from(["a", "a", "b"]),
    "payload": st.integers(0, 3),       # few payloads: interning hits
})
_drain = st.fixed_dictionaries({"op": st.just("drain"),
                                "who": st.integers(0, 63)})
_close = st.fixed_dictionaries({"op": st.just("close"),
                                "who": st.integers(0, 63),
                                "self": st.booleans()})
_tick = st.fixed_dictionaries({"op": st.just("tick"),
                               "dt": st.sampled_from([0.0, 0.02, 0.05, 0.15])})
_script = st.lists(st.one_of(_connect, _publish, _publish, _drain, _close,
                             _tick), max_size=60)


class TestScriptedInvariants:
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(script=_script)
    def test_random_scripts_hold_the_invariants(self, script):
        clock = FakeClock()
        hub = _quiet_mesh(history=4, default_depth=2,
                          max_clients=_MAX_CLIENTS, clock=clock)
        rec = Recorder(hub, clock)
        steps = {"a": 0, "b": 0}
        for op in script:
            live = [w for w in rec.watched if not w.closed]
            kind = op["op"]
            if kind == "connect":
                kw = {k: op[k] for k in ("depth", "max_fps", "streams",
                                         "backfill")}
                if len(live) >= _MAX_CLIENTS:
                    with pytest.raises(HubFull):
                        hub.connect(**kw)
                else:
                    rec.connect(**kw)
            elif kind == "publish":
                stream = op["stream"]
                rec.publish(stream, steps[stream], clock(),
                            bytes([op["payload"]]) * 40)
                steps[stream] += 1
            elif kind == "tick":
                clock.now += op["dt"]
            elif rec.watched:
                w = rec.watched[op["who"] % len(rec.watched)]
                if kind == "drain":
                    w.drain()
                elif op["self"]:
                    w.close()
                else:
                    rec.disconnect(w)
        rec.finish()
        assert hub.clients == len([w for w in rec.watched if not w.closed])
