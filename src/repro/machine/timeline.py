"""Phase timelines and text Gantt charts for predicted runs.

Turns a cost breakdown (category -> seconds) into a proportional text
Gantt so a terminal user can see *where* a configuration spends its
time — the visual the paper's stacked-bar figures give.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Span:
    category: str
    start: float
    duration: float

    @property
    def end(self) -> float:
        return self.start + self.duration


@dataclass
class Timeline:
    """An ordered sequence of non-overlapping phase spans."""

    spans: list[Span] = field(default_factory=list)

    @classmethod
    def from_breakdown(cls, seconds: dict[str, float]) -> "Timeline":
        """Lay the categories out back-to-back (serialized phases),
        largest first."""
        keys = sorted(seconds, key=seconds.get, reverse=True)
        spans = []
        t = 0.0
        for key in keys:
            dur = seconds.get(key, 0.0)
            if dur < 0:
                raise ValueError(f"negative duration for {key!r}")
            if dur == 0.0:
                continue
            spans.append(Span(key, t, dur))
            t += dur
        return cls(spans)

    @property
    def total(self) -> float:
        return self.spans[-1].end if self.spans else 0.0

    def render(self, width: int = 60) -> str:
        """Proportional text Gantt, one row per span.

        Every nonzero span gets at least one cell so rare-but-present
        phases never disappear from the chart.
        """
        if not self.spans:
            return "(empty timeline)"
        if width < 10:
            raise ValueError("width too small to render")
        label_w = max(len(s.category) for s in self.spans)
        lines = []
        for s in self.spans:
            cells = max(1, round(width * s.duration / self.total))
            offset = round(width * s.start / self.total)
            offset = min(offset, width - 1)
            bar = " " * offset + "#" * min(cells, width - offset)
            pct = 100.0 * s.duration / self.total
            lines.append(
                f"{s.category.ljust(label_w)} |{bar.ljust(width)}| "
                f"{s.duration:.3g}s ({pct:.1f}%)"
            )
        lines.append(f"{'total'.ljust(label_w)}  {self.total:.4g}s")
        return "\n".join(lines)
