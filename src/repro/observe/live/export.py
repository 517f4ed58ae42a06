"""Live export payloads: HTTP endpoints and the `observe top` screen.

Pure functions from a :class:`~repro.observe.live.plane.LivePlane` to
wire payloads, shared by the :class:`~repro.serve.transport.
HttpFrameServer` routes and the ``python -m repro observe top``
terminal dashboard:

- :func:`prometheus_text` — ``GET /metrics``: the session's per-rank
  registries merged with the plane's ``repro_live_*`` extras, text
  exposition format 0.0.4;
- :func:`healthz_payload` — ``GET /healthz``: liveness + degradation;
- :func:`slo_payload` — ``GET /slo``: specs, burn rates, active and
  historical alerts;
- :func:`timeline_payload` — ``GET /timeline?step=N``: one step's
  reconstructed :class:`StepTimeline` (the newest complete one when
  no step is given) plus the retained step index;
- :func:`render_top` — the one-screen text dashboard.
"""

from __future__ import annotations

from repro.observe.live.correlate import STAGES

__all__ = [
    "prometheus_text",
    "healthz_payload",
    "slo_payload",
    "timeline_payload",
    "render_top",
    "render_remote_top",
]


def prometheus_text(plane) -> str:
    plane.flush_all()
    return plane.prometheus()


def healthz_payload(plane) -> dict:
    return plane.healthz()


def slo_payload(plane) -> dict:
    plane.flush_all()
    payload = plane.watchdog.to_json()
    payload["run_id"] = plane.run_id
    payload["sampler"] = plane.sampler.as_dict()
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


def _pcie_line(plane) -> str | None:
    """The modeled PCIe traffic, when any rank has charged the link."""
    from repro.util.sizes import format_bytes

    metrics = plane.merged_metrics()
    h2d = metrics.get("repro_pcie_h2d_bytes_total")
    d2h = metrics.get("repro_pcie_d2h_bytes_total")
    if h2d is None and d2h is None:
        return None
    return (
        f"pcie: h2d {format_bytes(h2d.value if h2d else 0)}  "
        f"d2h {format_bytes(d2h.value if d2h else 0)}"
    )


def _serve_line(plane) -> str | None:
    """The serving hub, once it has registered its metrics."""
    metrics = plane.merged_metrics()
    hits = metrics.get("repro_serve_cache_hits_total")
    misses = metrics.get("repro_serve_cache_misses_total")
    clients = metrics.get("repro_serve_clients")
    if hits is None and misses is None and clients is None:
        return None
    h = int(hits.value) if hits else 0
    m = int(misses.value) if misses else 0
    total = h + m
    rate = f"{h / total:.0%}" if total else "-"
    line = f"serve: cache {h} hit / {m} miss ({rate})"
    if clients is not None:
        line += f"  clients {int(clients.value)}"
    return line


def render_top(plane, now: float | None = None) -> str:
    """One dashboard frame: stages, SLOs, alerts, the latest timeline."""
    plane.flush_all()
    agg = plane.aggregator
    summary = agg.summary(now)
    sampler = plane.sampler
    health = plane.healthz()
    lines = [
        f"repro observe top — run {plane.run_id}",
        (
            f"status {health['status']}  sampler {sampler.level_name} "
            f"(cost {sampler.last_ratio * 100:.2f}% of "
            f"{sampler.budget * 100:.0f}% budget, "
            f"{sampler.downgrades} downgrades)"
        ),
        (
            f"ranks {summary['ranks']}  snapshots {summary['snapshots']}  "
            f"events {summary['events']}  dropped {summary['dropped_events']}  "
            f"bytes on wire {summary['bytes_on_wire']}"
        ),
    ]
    pcie = _pcie_line(plane)
    if pcie:
        lines.append(pcie)
    serve = _serve_line(plane)
    if serve:
        lines.append(serve)
    lines += [
        "",
        f"{'stage':<10} {'p50 ms':>9} {'p99 ms':>9} {'max ms':>9} {'count':>7}",
    ]
    for stage in STAGES:
        stats = summary["stages"].get(stage)
        if stats is None:
            lines.append(f"{stage:<10} {'-':>9} {'-':>9} {'-':>9} {0:>7}")
            continue
        lines.append(
            f"{stage:<10} {_ms(stats['p50_s']):>9} {_ms(stats['p99_s']):>9} "
            f"{_ms(stats['max_s']):>9} {stats['count']:>7}"
        )
    slo = plane.watchdog.to_json()
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
    timeline = agg.latest_timeline()
    if timeline is not None and timeline.events:
        att = timeline.attributed_seconds
        parts = " | ".join(
            f"{s} {_ms(att[s])}ms" for s in STAGES if s in att
        )
        lines += [
            "",
            (
                f"step {timeline.step} "
                f"({'complete' if timeline.complete else 'partial'}, "
                f"wall {_ms(timeline.wall_seconds)}ms): {parts}"
            ),
        ]
    staleness = summary["frame_staleness_s"]
    if staleness:
        worst = max(staleness.items(), key=lambda kv: kv[1])
        lines.append(
            f"frames: {len(staleness)} stream(s), stalest "
            f"{worst[0]!r} at {worst[1]:.2f}s"
        )
    return "\n".join(lines)


def render_remote_top(
    health: dict, slo: dict, timeline: dict | None = None
) -> str:
    """Dashboard frame from /healthz + /slo (+ /timeline) payloads.

    The ``--url`` path of ``repro observe top``: same screen shape as
    :func:`render_top`, built from wire payloads instead of a local
    plane.
    """
    sampler = slo.get("sampler", {})
    lines = [
        f"repro observe top — run {health.get('run_id')} "
        f"(remote, uptime {health.get('uptime_s', 0.0):.1f}s)",
        (
            f"status {health.get('status', '?')}  "
            f"sampler {sampler.get('level_name', '?')} "
            f"({sampler.get('downgrades', 0)} downgrades)  "
            f"ranks {health.get('ranks', [])}  "
            f"steps retained {health.get('steps_retained', 0)}"
        ),
        "",
        f"{'SLO':<18} {'burn':>7}  state",
    ]
    active_names = {a["slo"] for a in slo.get("active", [])}
    for spec in slo.get("specs", []):
        burn = slo.get("burn_rates", {}).get(spec["name"], 0.0)
        state = "FIRING" if spec["name"] in active_names else "ok"
        lines.append(f"{spec['name']:<18} {burn:>7.2f}  {state}")
    lines.append(
        f"alerts: {len(slo.get('active', []))} active / "
        f"{slo.get('fired', 0)} fired"
    )
    for alert in slo.get("active", [])[-3:]:
        lines.append(f"  ! {alert['message']}")
    if timeline and "attributed_seconds" in timeline:
        att = timeline["attributed_seconds"]
        parts = " | ".join(
            f"{s} {_ms(att[s])}ms" for s in STAGES if s in att
        )
        lines += [
            "",
            (
                f"step {timeline['step']} "
                f"({'complete' if timeline.get('complete') else 'partial'}, "
                f"wall {_ms(timeline.get('wall_seconds', 0.0))}ms): {parts}"
            ),
        ]
    return "\n".join(lines)
