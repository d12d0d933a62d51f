"""In-memory span recording for the traced (per-layer) run.

Spans are recorded by the benchmark around its own calls into the
program's modules — nothing is instrumented inside ``src/``.  They stay
in memory and are written once, when the run ends.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Iterator, Optional


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float = 0.0
    parent: Optional[int] = None
    items: int = 0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Nested spans on one thread; ``span()`` is a context manager."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[Span] = []

    @contextmanager
    def span(self, name: str, items: int = 0, **attrs) -> Iterator[Span]:
        parent = self._stack[-1].id if self._stack else None
        record = Span(len(self.spans), name, time.perf_counter(), parent=parent,
                      items=items, attrs=attrs)
        self.spans.append(record)
        self._stack.append(record)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._stack.pop()

    def children(self, span: Span) -> list[Span]:
        return [s for s in self.spans if s.parent == span.id]

    def self_time(self, span: Span) -> float:
        """The span's duration minus the part of it its children cover."""
        covered = 0.0
        reach = span.start
        for child in sorted(self.children(span), key=lambda s: s.start):
            start, end = max(child.start, reach), min(child.end, span.end)
            if end > start:
                covered += end - start
                reach = end
        return span.duration - covered

    def per_item(self, span: Span) -> float:
        """Self time per item counted at the span's boundary (seconds)."""
        return self.self_time(span) / span.items if span.items else self.self_time(span)

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        rows = [
            {**asdict(s), "self": self.self_time(s)} for s in self.spans
        ]
        path.write_text(json.dumps(rows, indent=1) + "\n")
