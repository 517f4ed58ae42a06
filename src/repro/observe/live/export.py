"""Live export payloads: HTTP endpoints and the `observe top` screen.

Pure functions from a :class:`~repro.observe.live.plane.LivePlane` to
wire payloads, served by the :class:`~repro.serve.transport.
HttpFrameServer` routes, and the one renderer of the
``python -m repro observe top`` terminal dashboard over them:

- :func:`prometheus_text` — ``GET /metrics``: the session's per-rank
  registries merged with the plane's ``repro_live_*`` extras, text
  exposition format 0.0.4;
- :func:`healthz_payload` — ``GET /healthz``: liveness + degradation,
  plus the run's live counters, per-stage p50/p99, and the PCIe and
  serving totals;
- :func:`slo_payload` — ``GET /slo``: specs, burn rates, active and
  historical alerts;
- :func:`timeline_payload` — ``GET /timeline?step=N``: one step's
  reconstructed :class:`StepTimeline` (the newest complete one when
  no step is given) plus the retained step index;
- :func:`render_top` — the one-screen text dashboard, from those
  three payloads whether they came over HTTP or from a local plane.
"""

from __future__ import annotations

from repro.observe.live.correlate import STAGES
from repro.util.sizes import format_bytes

__all__ = [
    "prometheus_text",
    "healthz_payload",
    "slo_payload",
    "timeline_payload",
    "render_top",
]


def prometheus_text(plane) -> str:
    plane.flush_all()
    return plane.prometheus()


def _pcie_payload(metrics) -> dict | None:
    """The modeled PCIe traffic, when any rank has charged the link."""
    h2d = metrics.get("repro_pcie_h2d_bytes_total")
    d2h = metrics.get("repro_pcie_d2h_bytes_total")
    if h2d is None and d2h is None:
        return None
    return {
        "h2d_bytes": h2d.value if h2d else 0,
        "d2h_bytes": d2h.value if d2h else 0,
    }


def _serve_payload(metrics) -> dict | None:
    """The serving hub, once it has registered its metrics."""
    hits = metrics.get("repro_serve_cache_hits_total")
    misses = metrics.get("repro_serve_cache_misses_total")
    clients = metrics.get("repro_serve_clients")
    if hits is None and misses is None and clients is None:
        return None
    return {
        "cache_hits": int(hits.value) if hits else 0,
        "cache_misses": int(misses.value) if misses else 0,
        "clients": int(clients.value) if clients is not None else None,
    }


def healthz_payload(plane) -> dict:
    plane.flush_all()
    metrics = plane.merged_metrics()
    active = len(plane.watchdog.active)
    return {
        "status": "degraded" if active else "ok",
        "uptime_s": plane.uptime_s,
        "alerts_active": active,
        **plane.aggregator.summary(),
        "pcie": _pcie_payload(metrics),
        "serve": _serve_payload(metrics),
    }


def slo_payload(plane) -> dict:
    plane.flush_all()
    payload = plane.watchdog.to_json()
    payload["run_id"] = plane.run_id
    return payload


def timeline_payload(plane, step: int | None = None) -> tuple[int, dict]:
    """(http_status, payload) for /timeline[?step=N]."""
    plane.flush_all()
    steps = plane.aggregator.steps()
    if step is None:
        timeline = plane.aggregator.latest_timeline()
        if timeline is None:
            return 404, {"error": "no steps observed yet", "steps": steps}
    else:
        timeline = plane.timeline(step)
        if timeline is None:
            return 404, {"error": f"step {step} not retained", "steps": steps}
    payload = timeline.to_json()
    payload["steps"] = steps
    return 200, payload


def _ms(seconds: float) -> str:
    return f"{seconds * 1e3:.2f}"


def _pcie_line(pcie: dict) -> str:
    return (
        f"pcie: h2d {format_bytes(pcie['h2d_bytes'])}  "
        f"d2h {format_bytes(pcie['d2h_bytes'])}"
    )


def _serve_line(serve: dict) -> str:
    h, m = serve["cache_hits"], serve["cache_misses"]
    rate = f"{h / (h + m):.0%}" if h + m else "-"
    line = f"serve: cache {h} hit / {m} miss ({rate})"
    if serve["clients"] is not None:
        line += f"  clients {serve['clients']}"
    return line


def render_top(health: dict, slo: dict, timeline: dict | None = None) -> str:
    """One dashboard frame from the /healthz, /slo and /timeline payloads."""
    lines = [
        f"repro observe top — run {health['run_id']} "
        f"(uptime {health['uptime_s']:.1f}s)",
        (
            f"status {health['status']}  ranks {health['ranks']}  "
            f"snapshots {health['snapshots']}  events {health['events']}  "
            f"dropped {health['dropped_events']}  "
            f"bytes on wire {health['bytes_on_wire']}"
        ),
    ]
    if health["pcie"]:
        lines.append(_pcie_line(health["pcie"]))
    if health["serve"]:
        lines.append(_serve_line(health["serve"]))
    lines += [
        "",
        f"{'stage':<10} {'p50 ms':>9} {'p99 ms':>9} {'max ms':>9} {'count':>7}",
    ]
    for stage in STAGES:
        stats = health["stages"].get(stage)
        if stats is None:
            lines.append(f"{stage:<10} {'-':>9} {'-':>9} {'-':>9} {0:>7}")
            continue
        lines.append(
            f"{stage:<10} {_ms(stats['p50_s']):>9} {_ms(stats['p99_s']):>9} "
            f"{_ms(stats['max_s']):>9} {stats['count']:>7}"
        )
    lines += ["", f"{'SLO':<18} {'burn':>7}  state"]
    active_names = {a["slo"] for a in slo["active"]}
    for spec in slo["specs"]:
        burn = slo["burn_rates"].get(spec["name"], 0.0)
        state = "FIRING" if spec["name"] in active_names else "ok"
        lines.append(f"{spec['name']:<18} {burn:>7.2f}  {state}")
    lines.append(
        f"alerts: {len(slo['active'])} active / {slo['fired']} fired"
    )
    for alert in slo["active"][-3:]:
        lines.append(f"  ! {alert['message']}")
    if timeline and timeline["events"]:
        att = timeline["attributed_seconds"]
        parts = " | ".join(
            f"{s} {_ms(att[s])}ms" for s in STAGES if s in att
        )
        lines += [
            "",
            (
                f"step {timeline['step']} "
                f"({'complete' if timeline['complete'] else 'partial'}, "
                f"wall {_ms(timeline['wall_seconds'])}ms): {parts}"
            ),
        ]
    staleness = health["frame_staleness_s"]
    if staleness:
        worst = max(staleness.items(), key=lambda kv: kv[1])
        lines.append(
            f"frames: {len(staleness)} stream(s), stalest "
            f"{worst[0]!r} at {worst[1]:.2f}s"
        )
    return "\n".join(lines)
