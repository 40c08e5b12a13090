"""In-memory spans recorded around the benchmark's calls into mj2ml.

A span is one timed call: its name (`<module>.<stage>`), start and end
(`time.perf_counter` seconds), the span that was open when it began, and
a trace id (the program name).  Spans stay in memory and are written out
once the run ends, so recording costs two clock reads and a list append.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path


@dataclass
class Span:
    id: int
    parent: int | None
    trace: str
    name: str
    start: float
    end: float = 0.0


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[Span] = []

    @contextmanager
    def span(self, name: str, trace: str | None = None):
        parent = self._open[-1] if self._open else None
        record = Span(len(self.spans), parent.id if parent else None,
                      trace if trace is not None else parent.trace, name,
                      time.perf_counter())
        self.spans.append(record)
        self._open.append(record)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._open.pop()

    def self_times(self) -> dict[str, float]:
        """Seconds per span name, each span less the time its children cover.

        Children run one after another inside their parent, so the part of
        the parent they cover is the sum of their durations.
        """
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child_time[s.parent] += s.end - s.start
        totals: dict[str, float] = {}
        for s in self.spans:
            totals[s.name] = totals.get(s.name, 0.0) + (s.end - s.start) - child_time[s.id]
        return totals

    def durations(self, name: str) -> dict[str, float]:
        """Duration of each span called `name`, keyed by its trace id."""
        return {s.trace: s.end - s.start for s in self.spans if s.name == name}


def write_spans(path: Path, tracers: list[Tracer]) -> None:
    """One list of spans per traced pass, as JSON."""
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(
        {"passes": [[asdict(s) for s in t.spans] for t in tracers]}))
