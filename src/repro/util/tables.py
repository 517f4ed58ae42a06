"""Plain-text table rendering for benchmark reports.

Every figure/table driver in ``repro.bench`` prints its series through
``Table`` so the regenerated rows are easy to diff against the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class Table:
    """A fixed-column ASCII table.

    >>> t = Table(["ranks", "time [s]"], title="Fig. 2")
    >>> t.add_row([280, 123.4])
    >>> print(t.render())  # doctest: +ELLIPSIS
    Fig. 2
    ...
    """

    columns: list[str]
    title: str | None = None
    rows: list[list] = field(default_factory=list, init=False)
    float_format: str = "{:.3f}"

    def add_row(self, row: list) -> None:
        if len(row) != len(self.columns):
            raise ValueError(
                f"row has {len(row)} cells, table has {len(self.columns)} columns"
            )
        self.rows.append(list(row))

    def _fmt(self, cell) -> str:
        if isinstance(cell, bool):
            return str(cell)
        if isinstance(cell, float):
            return self.float_format.format(cell)
        return str(cell)

    def render(self) -> str:
        cells = [[self._fmt(c) for c in row] for row in self.rows]
        widths = [
            max(len(self.columns[i]), *(len(r[i]) for r in cells)) if cells else len(self.columns[i])
            for i in range(len(self.columns))
        ]
        sep = "-+-".join("-" * w for w in widths)
        header = " | ".join(c.ljust(w) for c, w in zip(self.columns, widths))
        lines = []
        if self.title:
            lines.append(self.title)
        lines.append(header)
        lines.append(sep)
        for row in cells:
            lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
        return "\n".join(lines)

    def as_dicts(self) -> list[dict]:
        return [dict(zip(self.columns, row)) for row in self.rows]
