"""Span recorder for the traced run.

Spans are recorded from the benchmark's own files, around the calls into
each layer; nothing inside ``src/repro`` is instrumented. They are kept
in memory and written out once, when the run ends.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import time
from dataclasses import asdict, dataclass

__all__ = ["Span", "Tracer", "self_times", "misnested"]


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    #: Id of the span that caused this one (None for a request's root).
    parent: int | None
    #: Spans of one request share this identifier.
    request: int


class Tracer:
    """Collects spans; a disabled tracer records nothing and costs one branch."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[Span] = []
        self._ids = itertools.count()

    @contextlib.contextmanager
    def span(self, name: str, request: int, parent: Span | None = None):
        """Time the enclosed block; yields the open span (None when disabled)."""
        if not self.enabled:
            yield None
            return
        span = Span(
            id=next(self._ids),
            name=name,
            start=time.perf_counter(),
            end=0.0,
            parent=parent.id if parent is not None else None,
            request=request,
        )
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            # list.append is atomic under the GIL; worker threads share it.
            self.spans.append(span)

    def durations_ms(self, name: str, requests: set[int] | None = None) -> list[float]:
        """Durations of every finished span called ``name``, in ms."""
        return [
            (s.end - s.start) * 1e3
            for s in self.spans
            if s.name == name and (requests is None or s.request in requests)
        ]

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump([asdict(s) for s in self.spans], handle)


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> its duration minus the part its children cover, seconds."""
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    result = {}
    for span in spans:
        covered = 0.0
        cursor = span.start
        for child in sorted(children.get(span.id, ()), key=lambda c: c.start):
            lo = max(child.start, cursor)
            hi = min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result[span.id] = (span.end - span.start) - covered
    return result


def misnested(spans: list[Span]) -> list[Span]:
    """Children that start before or end after their parent."""
    by_id = {s.id: s for s in spans}
    return [
        s
        for s in spans
        if s.parent is not None
        and not (by_id[s.parent].start <= s.start and s.end <= by_id[s.parent].end)
    ]
