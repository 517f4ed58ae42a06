"""Every ``repro.*`` name the documentation puts in backticks must resolve.

A deleted or renamed module, function or method otherwise lives on in
README.md, DESIGN.md, EXPERIMENTS.md and ``docs/*.md`` as a pointer to
nothing.  A dotted name resolves when its longest importable prefix is
a module and the rest are attributes of it.
"""

from __future__ import annotations

import importlib
import re
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]

#: names the docs keep on purpose, each in a sentence saying it was removed
HISTORICAL = {
    "repro.sem.pointeval": "DESIGN.md lists it among the deleted modules "
    "only their own tests reached",
    "repro.posthoc": "DESIGN.md lists it among the deleted modules only "
    "their own tests reached",
    "repro.bench.fleet": "fault_tolerance.md's history of the deleted load driver",
    "repro.bench.robustness": "fault_tolerance.md's history of the deleted "
    "robustness table",
    "repro.bench.serving": "serving.md's history of the deleted load driver",
}


def _documented_names() -> dict[str, list[str]]:
    """dotted name -> the ``file:line`` places that backtick it."""
    files = [REPO / "README.md", REPO / "DESIGN.md", REPO / "EXPERIMENTS.md",
             *sorted((REPO / "docs").glob("*.md"))]
    names: dict[str, list[str]] = {}
    for path in files:
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            for code in re.findall(r"`([^`]+)`", line):
                for name in re.findall(r"(?<![\w.])repro(?:\.\w+)+", code):
                    names.setdefault(name, []).append(f"{path.name}:{lineno}")
    return names


def _resolves(name: str) -> bool:
    parts = name.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:]:
            if not hasattr(obj, attr):
                return False
            obj = getattr(obj, attr)
        return True
    return False


def test_documented_repro_names_resolve():
    names = _documented_names()
    assert len(names) > 50, "the scan found almost nothing: check its regex"
    broken = sorted(f"{name} ({', '.join(where)})" for name, where in names.items()
                    if name not in HISTORICAL and not _resolves(name))
    assert not broken, "documented but gone:\n" + "\n".join(broken)
    revived = sorted(n for n in HISTORICAL if _resolves(n) or n not in names)
    assert not revived, "resolves again or no longer documented: drop from HISTORICAL"
