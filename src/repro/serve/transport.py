"""Transports: in-process loopback and the asyncio HTTP frame server.

Two transports share the :class:`~repro.serve.pump.MeshSession` layer:

- :class:`LoopbackClient` — a deterministic in-process client for
  tests and the CLI smoke path.  No sockets, no
  event loop; pulls are explicit, so tests control interleaving.
- :class:`HttpFrameServer` — a real ``asyncio`` TCP server (own event
  loop on a daemon thread, so it coexists with the threaded SPMD
  simulation).  Dependency-free HTTP/1.1:

  - ``GET /status`` — JSON hub/session/steering stats;
  - ``GET /frame/<stream>`` — the latest PNG;
  - ``GET /stream/<stream>`` — an MJPEG-style
    ``multipart/x-mixed-replace`` PNG stream (drop-to-latest
    backpressure per client; ``?max_fps=&depth=`` knobs);
  - ``GET /replay/<stream>`` — the history ring as a self-playing APNG
    (streamed through :class:`repro.util.apng.ApngWriter`, no
    re-encode);
  - ``POST /steer`` — submit a :class:`~repro.serve.steering.SteerCommand`
    as JSON ``{"kind": ..., "value": ...}``;
  - ``GET /metrics`` / ``/healthz`` / ``/slo`` / ``/timeline?step=N``
    — the live telemetry plane (Prometheus text, liveness, SLO burn,
    reconstructed step timelines) when a
    :class:`~repro.observe.live.plane.LivePlane` is attached.
    ``/healthz`` answers without one; the rest 404.

Every server registers in a module-level set so the test suite's
teardown guard (``tests/conftest.py``) can prove no event loop outlives
its test.
"""

from __future__ import annotations

import asyncio
import io
import json
import threading
import weakref
from urllib.parse import parse_qsl, urlsplit

from repro.serve.framestore import Frame
from repro.serve.mesh import HubFull, ServeMesh
from repro.serve.steering import SteerCommand, SteeringBus
from repro.util.logging import get_logger

__all__ = ["LoopbackClient", "HttpFrameServer", "shutdown_all"]

#: live servers, for the conftest leak guard
_ACTIVE: "weakref.WeakSet[HttpFrameServer]" = weakref.WeakSet()


def shutdown_all() -> list[str]:
    """Stop every live server; returns names of any that would not die."""
    leaked = []
    for server in list(_ACTIVE):
        if not server.stop(timeout=5.0):
            leaked.append(str(server))
    return leaked


class LoopbackClient:
    """Deterministic in-process client over a mesh session."""

    def __init__(self, hub: ServeMesh, bus: SteeringBus | None = None, **session_kw):
        self.hub = hub
        self.bus = bus
        self.session = hub.connect(**session_kw)
        self.frames: list[Frame] = []

    def poll(self, timeout: float = 0.0) -> Frame | None:
        """Take one frame (non-blocking when timeout == 0)."""
        frame = (
            self.session.take(block=False)
            if timeout == 0.0
            else self.session.take(timeout=timeout)
        )
        if frame is not None:
            self.frames.append(frame)
        return frame

    def drain(self) -> list[Frame]:
        got = self.session.drain()
        self.frames.extend(got)
        return got

    @property
    def steps(self) -> list[int]:
        return [f.step for f in self.frames]

    def close(self) -> None:
        self.hub.disconnect(self.session)


# ---------------------------------------------------------------------------
# HTTP transport
# ---------------------------------------------------------------------------

_BOUNDARY = b"repro-frame"

#: how long a ``/stream`` client's session take waits for a frame
#: before it rechecks for shutdown [s]
_FRAME_POLL_S = 0.25
#: the ``/replay`` APNG's frame delay when no ``?delay_ms=`` is given
_REPLAY_DELAY_MS = 100
#: how long :meth:`HttpFrameServer.start` waits for the bind [s]
_START_TIMEOUT_S = 10.0


class HttpFrameServer:
    """Asyncio TCP/HTTP server streaming hub frames to many clients."""

    def __init__(
        self,
        hub: ServeMesh,
        bus: SteeringBus | None = None,
        host: str = "127.0.0.1",
        port: int = 0,
        live=None,
        router=None,
    ):
        self.hub = hub
        self.bus = bus
        #: attached :class:`~repro.observe.live.plane.LivePlane`; serves
        #: /metrics, /slo and /timeline (``/healthz`` works without one)
        self.live = live
        #: attached :class:`~repro.insitu.router.HybridRouter`; serves
        #: the ``GET /routes`` debug view of recent routing decisions
        self.router = router
        self.host = host
        self._requested_port = port
        self.port: int | None = None
        self.requests = 0
        self._log = get_logger("repro.serve.http")
        self._thread: threading.Thread | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._shutdown: asyncio.Event | None = None
        self._started = threading.Event()
        self._stopped = threading.Event()
        self._start_error: BaseException | None = None
        self._tasks: set[asyncio.Task] = set()

    def __str__(self) -> str:
        return f"HttpFrameServer({self.host}:{self.port or self._requested_port})"

    # -- lifecycle ---------------------------------------------------------
    def start(self) -> int:
        """Bind and serve on a daemon thread; returns the bound port."""
        if self._thread is not None:
            raise RuntimeError("server already started")
        self._thread = threading.Thread(
            target=self._run, name="repro-serve-http", daemon=True
        )
        self._thread.start()
        if not self._started.wait(_START_TIMEOUT_S):
            raise TimeoutError("HTTP frame server failed to start in time")
        if self._start_error is not None:
            raise self._start_error
        _ACTIVE.add(self)
        return self.port

    def _run(self) -> None:
        try:
            asyncio.run(self._serve())
        except BaseException as exc:  # noqa: BLE001 - surfaced to start()
            self._start_error = exc
            self._started.set()
        finally:
            self._stopped.set()

    async def _serve(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._shutdown = asyncio.Event()
        server = await asyncio.start_server(
            self._handle_connection, self.host, self._requested_port
        )
        self.port = server.sockets[0].getsockname()[1]
        self._started.set()
        try:
            async with server:
                await self._shutdown.wait()
        finally:
            for task in list(self._tasks):
                task.cancel()
            if self._tasks:
                await asyncio.gather(*self._tasks, return_exceptions=True)

    def stop(self, timeout: float = 5.0) -> bool:
        """Signal shutdown and join the server thread; True on success."""
        if self._thread is None:
            return True
        if self._loop is not None and self._shutdown is not None:
            try:
                self._loop.call_soon_threadsafe(self._shutdown.set)
            except RuntimeError:
                pass  # loop already closed
        self._thread.join(timeout)
        alive = self._thread.is_alive()
        if not alive:
            _ACTIVE.discard(self)
        return not alive

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    # -- request handling --------------------------------------------------
    async def _handle_connection(self, reader, writer) -> None:
        task = asyncio.current_task()
        self._tasks.add(task)
        try:
            await self._handle(reader, writer)
        except (asyncio.CancelledError, ConnectionError, BrokenPipeError):
            pass
        finally:
            self._tasks.discard(task)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, BrokenPipeError):
                pass

    async def _handle(self, reader, writer) -> None:
        request = await reader.readline()
        if not request:
            return
        try:
            method, target, _version = request.decode("latin-1").split()
        except ValueError:
            await self._respond(writer, 400, {"error": "malformed request line"})
            return
        headers = {}
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        body = b""
        length = int(headers.get("content-length", "0") or "0")
        if length:
            body = await reader.readexactly(length)
        self.requests += 1

        split = urlsplit(target)
        path = split.path.rstrip("/") or "/"
        query = dict(parse_qsl(split.query))
        if method == "GET" and path == "/status":
            await self._respond(writer, 200, self._status())
        elif method == "GET" and path == "/healthz":
            await self._serve_healthz(writer)
        elif method == "GET" and path == "/metrics":
            await self._serve_metrics(writer)
        elif method == "GET" and path == "/slo":
            await self._serve_slo(writer)
        elif method == "GET" and path == "/timeline":
            await self._serve_timeline(writer, query)
        elif method == "GET" and path == "/routes":
            await self._serve_routes(writer)
        elif method == "GET" and path.startswith("/frame/"):
            await self._serve_latest(writer, path.removeprefix("/frame/"))
        elif method == "GET" and path.startswith("/stream/"):
            await self._serve_stream(writer, path.removeprefix("/stream/"), query)
        elif method == "GET" and path.startswith("/replay/"):
            await self._serve_replay(writer, path.removeprefix("/replay/"), query)
        elif method == "POST" and path == "/steer":
            await self._serve_steer(writer, body)
        else:
            await self._respond(
                writer, 404, {"error": f"no route for {method} {path}"}
            )

    def _status(self) -> dict:
        status = {"hub": self.hub.stats(), "requests": self.requests}
        if self.bus is not None:
            status["steering"] = {
                "submitted": self.bus.submitted,
                "pending": self.bus.pending,
                "applied": len(self.bus.applied),
            }
        return status

    async def _serve_latest(self, writer, stream: str) -> None:
        frame = self.hub.store.latest(stream)
        if frame is None:
            await self._respond(writer, 404, {"error": f"no frames for {stream!r}"})
            return
        await self._respond_bytes(writer, frame.data, "image/png",
                                  extra={"X-Step": str(frame.step)})

    async def _serve_replay(self, writer, stream: str, query: dict) -> None:
        from repro.util.apng import ApngWriter

        frames = self.hub.store.frames(stream)
        if not frames:
            await self._respond(writer, 404, {"error": f"no frames for {stream!r}"})
            return
        delay = int(query.get("delay_ms", _REPLAY_DELAY_MS))
        buf = io.BytesIO()
        apng = ApngWriter(buf, delay_ms=delay)
        for frame in frames:
            apng.add_encoded(frame.data)
        apng.close()
        await self._respond_bytes(writer, buf.getvalue(), "image/apng",
                                  extra={"X-Frames": str(len(frames))})

    async def _serve_stream(self, writer, stream: str, query: dict) -> None:
        try:
            session = self.hub.connect(
                streams=(stream,),
                depth=int(query["depth"]) if "depth" in query else None,
                max_fps=float(query["max_fps"]) if "max_fps" in query else None,
                label=f"http-{stream}",
            )
        except HubFull as exc:
            await self._respond(writer, 503, {"error": str(exc)})
            return
        loop = asyncio.get_running_loop()
        try:
            writer.write(
                b"HTTP/1.1 200 OK\r\n"
                b"Content-Type: multipart/x-mixed-replace; "
                b"boundary=" + _BOUNDARY + b"\r\n"
                b"Cache-Control: no-store\r\n\r\n"
            )
            await writer.drain()
            # seed with the latest frame so a new client paints at once
            latest = self.hub.store.latest(stream)
            if latest is not None:
                await self._write_part(writer, latest)
            while not (self.hub.closed or session.closed or self._shutdown.is_set()):
                frame = await loop.run_in_executor(
                    None, session.take, _FRAME_POLL_S
                )
                if frame is None:
                    continue
                await self._write_part(writer, frame)
        finally:
            self.hub.disconnect(session)

    async def _write_part(self, writer, frame: Frame) -> None:
        head = (
            b"--" + _BOUNDARY + b"\r\n"
            b"Content-Type: image/png\r\n"
            + f"Content-Length: {frame.nbytes}\r\n".encode()
            + f"X-Step: {frame.step}\r\n".encode()
            + f"X-Time: {frame.time:.9g}\r\n\r\n".encode()
        )
        writer.write(head + frame.data + b"\r\n")
        await writer.drain()

    async def _serve_steer(self, writer, body: bytes) -> None:
        if self.bus is None:
            await self._respond(writer, 404, {"error": "steering not enabled"})
            return
        try:
            payload = json.loads(body.decode() or "{}")
            command = SteerCommand(
                kind=payload["kind"],
                value=payload.get("value"),
                client=str(payload.get("client", "http")),
            )
        except (ValueError, KeyError) as exc:
            await self._respond(writer, 400, {"error": f"bad steer payload: {exc}"})
            return
        self.bus.submit(command)
        await self._respond(writer, 200, {"ok": True, "pending": self.bus.pending})

    # -- live telemetry routes ---------------------------------------------
    async def _serve_healthz(self, writer) -> None:
        if self.live is None:
            # liveness without a plane: the server answering IS the signal
            await self._respond(
                writer, 200, {"status": "ok", "run_id": None, "live": False}
            )
            return
        from repro.observe.live.export import healthz_payload

        await self._respond(writer, 200, healthz_payload(self.live))

    async def _serve_metrics(self, writer) -> None:
        if self.live is None:
            await self._respond(writer, 404, {"error": "no live plane attached"})
            return
        from repro.observe.live.export import prometheus_text

        await self._respond_bytes(
            writer, prometheus_text(self.live).encode(),
            "text/plain; version=0.0.4",
        )

    async def _serve_slo(self, writer) -> None:
        if self.live is None:
            await self._respond(writer, 404, {"error": "no live plane attached"})
            return
        from repro.observe.live.export import slo_payload

        await self._respond(writer, 200, slo_payload(self.live))

    async def _serve_routes(self, writer) -> None:
        if self.router is None:
            await self._respond(writer, 404, {"error": "no router attached"})
            return
        await self._respond(writer, 200, self.router.stats())

    async def _serve_timeline(self, writer, query: dict) -> None:
        if self.live is None:
            await self._respond(writer, 404, {"error": "no live plane attached"})
            return
        from repro.observe.live.export import timeline_payload

        try:
            step = int(query["step"]) if "step" in query else None
        except ValueError:
            await self._respond(
                writer, 400, {"error": f"bad step {query['step']!r}"}
            )
            return
        code, payload = timeline_payload(self.live, step)
        await self._respond(writer, code, payload)

    # -- plumbing ----------------------------------------------------------
    _REASONS = {200: "OK", 400: "Bad Request", 404: "Not Found",
                503: "Service Unavailable"}

    async def _respond(self, writer, code: int, obj: dict) -> None:
        data = json.dumps(obj, sort_keys=True).encode()
        await self._respond_bytes(writer, data, "application/json", code=code)

    async def _respond_bytes(
        self, writer, data: bytes, ctype: str, code: int = 200, extra=None,
    ) -> None:
        head = [
            f"HTTP/1.1 {code} {self._REASONS.get(code, 'OK')}",
            f"Content-Type: {ctype}",
            f"Content-Length: {len(data)}",
            "Connection: close",
        ]
        for name, value in (extra or {}).items():
            head.append(f"{name}: {value}")
        writer.write(("\r\n".join(head) + "\r\n\r\n").encode() + data)
        await writer.drain()
