"""HTTP transport tests: the asyncio frame server end to end.

Exercises every route of :class:`repro.serve.transport.HttpFrameServer`
over real sockets with the stdlib ``http.client`` — no external HTTP
library.  Marked ``serve`` so the asyncio-heavy tests can be selected
or excluded as a group; the conftest guard asserts no event loop
outlives its test.  The hub behind the server runs no pump thread
(``start=False``): ``settle()`` fans out on the test's thread, so the
only concurrency under test is the server's own.
"""

import http.client
import json

import numpy as np
import pytest

from repro.serve import HttpFrameServer, ServeMesh, SteeringBus
from repro.util.apng import apng_info
from repro.util.png import encode_png

pytestmark = [pytest.mark.serve, pytest.mark.timeout(60)]


def _png(tag: int = 0) -> bytes:
    img = np.full((6, 6, 3), tag % 256, dtype=np.uint8)
    return encode_png(img)


def _hub(**kw) -> ServeMesh:
    return ServeMesh(relays=1, start=False, **kw)


@pytest.fixture
def served_hub():
    """A hub with three published frames behind a running HTTP server."""
    hub = _hub(history=8)
    bus = SteeringBus()
    for i in range(3):
        hub.publish("flow", step=i, time=i * 0.1, data=_png(i))
    hub.settle()
    server = HttpFrameServer(hub, bus)
    server.start()
    yield hub, bus, server
    assert server.stop()


def _get(server, path):
    conn = http.client.HTTPConnection(server.host, server.port, timeout=10)
    try:
        conn.request("GET", path)
        resp = conn.getresponse()
        return resp.status, dict(resp.getheaders()), resp.read()
    finally:
        conn.close()


def _post(server, path, obj):
    conn = http.client.HTTPConnection(server.host, server.port, timeout=10)
    try:
        conn.request("POST", path, body=json.dumps(obj).encode(),
                     headers={"Content-Type": "application/json"})
        resp = conn.getresponse()
        return resp.status, json.loads(resp.read())
    finally:
        conn.close()


class TestRoutes:
    def test_status(self, served_hub):
        hub, _bus, server = served_hub
        status, headers, body = _get(server, "/status")
        assert status == 200
        assert headers["Content-Type"] == "application/json"
        doc = json.loads(body)
        assert doc["hub"]["frames_published"] == 3
        assert doc["hub"]["stalls"] == 0
        assert doc["steering"] == {"submitted": 0, "pending": 0, "applied": 0}

    def test_status_provider_is_merged(self):
        hub = _hub()
        server = HttpFrameServer(hub, status_provider=lambda: {"extra": 7})
        server.start()
        try:
            _status, _headers, body = _get(server, "/status")
            assert json.loads(body)["extra"] == 7
        finally:
            assert server.stop()

    def test_latest_frame_bytes(self, served_hub):
        hub, _bus, server = served_hub
        status, headers, body = _get(server, "/frame/flow")
        assert status == 200
        assert headers["Content-Type"] == "image/png"
        assert headers["X-Step"] == "2"
        assert body == hub.store.latest("flow").data

    def test_frame_404_for_unknown_stream(self, served_hub):
        _hub, _bus, server = served_hub
        status, _headers, body = _get(server, "/frame/nope")
        assert status == 404
        assert "nope" in json.loads(body)["error"]

    def test_replay_is_a_valid_apng_of_the_ring(self, served_hub):
        hub, _bus, server = served_hub
        status, headers, body = _get(server, "/replay/flow?delay_ms=50")
        assert status == 200
        assert headers["Content-Type"] == "image/apng"
        assert headers["X-Frames"] == "3"
        info = apng_info(body)
        assert info["frames"] == 3
        assert (info["width"], info["height"]) == (6, 6)

    def test_steer_round_trip(self, served_hub):
        _hub, bus, server = served_hub
        status, doc = _post(server, "/steer",
                            {"kind": "isovalue", "value": 0.3, "client": "t"})
        assert status == 200 and doc["ok"] is True and doc["pending"] == 1
        cmds = bus.drain()
        assert len(cmds) == 1
        assert (cmds[0].kind, cmds[0].value, cmds[0].client) == \
            ("isovalue", 0.3, "t")

    def test_steer_rejects_bad_kind(self, served_hub):
        _hub, _bus, server = served_hub
        status, doc = _post(server, "/steer", {"kind": "warp"})
        assert status == 400
        assert "bad steer payload" in doc["error"]

    def test_steer_without_bus_is_404(self):
        server = HttpFrameServer(_hub())
        server.start()
        try:
            status, doc = _post(server, "/steer", {"kind": "stop"})
            assert status == 404
            assert "steering not enabled" in doc["error"]
        finally:
            assert server.stop()

    def test_unknown_route_is_404(self, served_hub):
        _hub, _bus, server = served_hub
        status, _headers, _body = _get(server, "/teapot")
        assert status == 404


class TestMultipartStream:
    def _read_part(self, resp):
        """Read one multipart part: boundary, headers, payload."""
        line = resp.fp.readline()
        while line in (b"\r\n", b"\n"):            # inter-part padding
            line = resp.fp.readline()
        assert line.rstrip() == b"--repro-frame"
        headers = {}
        while True:
            line = resp.fp.readline()
            if line in (b"\r\n", b"\n"):
                break
            name, _, value = line.decode().partition(":")
            headers[name.strip()] = value.strip()
        return headers, resp.fp.read(int(headers["Content-Length"]))

    def test_stream_delivers_published_frames(self, served_hub):
        hub, _bus, server = served_hub
        conn = http.client.HTTPConnection(server.host, server.port, timeout=10)
        try:
            conn.request("GET", "/stream/flow?depth=8")
            resp = conn.getresponse()
            assert resp.status == 200
            assert "multipart/x-mixed-replace" in resp.getheader("Content-Type")
            # part 1 seeds with the current latest frame (step 2) ...
            headers, payload = self._read_part(resp)
            assert headers["X-Step"] == "2"
            assert payload == hub.store.latest("flow").data
            # ... then live publishes flow through
            published = hub.publish("flow", step=3, time=0.3, data=_png(9))
            hub.settle()
            headers, payload = self._read_part(resp)
            assert headers["X-Step"] == "3"
            assert payload == published.data
        finally:
            conn.close()

    def test_hub_full_maps_to_503(self):
        hub = _hub(max_clients=0)
        server = HttpFrameServer(hub)
        server.start()
        try:
            status, _headers, body = _get(server, "/stream/flow")
            assert status == 503
            assert "max_clients" in json.loads(body)["error"]
        finally:
            assert server.stop()

    def test_stream_session_is_reaped_on_disconnect(self, served_hub):
        import time

        hub, _bus, server = served_hub
        conn = http.client.HTTPConnection(server.host, server.port, timeout=10)
        conn.request("GET", "/stream/flow")
        resp = conn.getresponse()
        self._read_part(resp)                      # handshake completed
        assert hub.clients == 1
        resp.close()                               # client walks away
        conn.close()
        # the server notices on the next failed write and frees the slot
        deadline = time.monotonic() + 10
        step = 90
        while hub.clients and time.monotonic() < deadline:
            hub.publish("flow", step=step, time=9.9, data=_png(step))
            hub.settle()
            step += 1
            time.sleep(0.05)               # the server's turn to notice
        assert hub.clients == 0


class TestLifecycle:
    def test_stop_is_idempotent(self):
        server = HttpFrameServer(_hub())
        server.start()
        assert server.stop()
        assert server.stop()                       # second stop: no-op True

    def test_double_start_rejected(self):
        server = HttpFrameServer(_hub())
        server.start()
        try:
            with pytest.raises(RuntimeError):
                server.start()
        finally:
            assert server.stop()

    def test_url_reports_bound_port(self):
        server = HttpFrameServer(_hub())
        port = server.start()
        try:
            assert server.url == f"http://127.0.0.1:{port}"
            assert port > 0
        finally:
            assert server.stop()
