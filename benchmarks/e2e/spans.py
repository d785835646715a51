"""In-memory spans recorded around public layer calls.

The traced benchmark run wraps every call into a layer (``Importer.run``,
``Derivator.derive``, ...) in a :class:`Recorder` span from the
benchmark's own code; nothing inside ``src/`` is instrumented.  Spans
stay in memory and leave the job process as JSON when the job ends.

A layer's **self time** is its span's duration minus the part of that
interval its child spans cover, so the self times of one span tree add
up exactly to the root span's duration: the root's own self time is the
path's glue (rendering, hashing, argument plumbing).
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Tuple


@dataclass
class Span:
    name: str
    start: float
    end: float
    #: Index of the enclosing span in the recorder's list, or None.
    parent: Optional[int]
    #: ``<workload>/<path>`` — spans of one job share it.
    run: str

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Collects the spans of one job; records nothing when disabled."""

    def __init__(self, run: str, enabled: bool = True) -> None:
        self.run = run
        self.enabled = enabled
        self.spans: List[Span] = []
        self._open: List[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        if not self.enabled:
            yield
            return
        parent = self._open[-1] if self._open else None
        index = len(self.spans)
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.run))
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index].end = time.perf_counter()

    def timed_iter(self, name: str, iterable: Iterable) -> Iterator:
        """Yield from *iterable*, charging the time spent producing each
        item to one child span *name* of the span open at the first item.

        Used for the lazy trace decoder that feeds ``Importer.run``: its
        work interleaves with the importer's, so it is recorded as one
        child whose duration is the sum of the producer's slices, placed
        at the start of the parent interval.
        """
        if not self.enabled:
            yield from iterable
            return
        clock = time.perf_counter
        iterator = iter(iterable)
        spent = 0.0
        parent = self._open[-1] if self._open else None
        try:
            while True:
                t0 = clock()
                try:
                    item = next(iterator)
                except StopIteration:
                    spent += clock() - t0
                    return
                spent += clock() - t0
                yield item
        finally:
            base = self.spans[parent].start if parent is not None else 0.0
            self.spans.append(Span(name, base, base + spent, parent, self.run))

    def to_json(self) -> List[dict]:
        return [asdict(span) for span in self.spans]


def spans_from_json(rows: Iterable[dict]) -> List[Span]:
    return [Span(**row) for row in rows]


def _covered(intervals: List[Tuple[float, float]]) -> float:
    """Total length of the union of *intervals*."""
    total = 0.0
    cursor = float("-inf")
    for start, end in sorted(intervals):
        if end <= cursor:
            continue
        total += end - max(start, cursor)
        cursor = end
    return total


def self_times(spans: List[Span]) -> List[float]:
    """Each span's duration minus the union of its children, clipped to
    the span's own interval."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    result = []
    for index, span in enumerate(spans):
        clipped = [
            (max(start, span.start), min(end, span.end))
            for start, end in children.get(index, ())
            if end > span.start and start < span.end
        ]
        result.append(span.duration - _covered(clipped))
    return result


def self_time_by_name(spans: List[Span]) -> Dict[str, float]:
    """Summed self time per span name."""
    totals: Dict[str, float] = {}
    for span, own in zip(spans, self_times(spans)):
        totals[span.name] = totals.get(span.name, 0.0) + own
    return totals
