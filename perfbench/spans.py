"""In-memory span recording and self-time arithmetic for the traced run."""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field
from typing import Callable


@dataclass
class Span:
    name: str
    parent: int | None  # index of the enclosing span, None for the root
    start: float = 0.0
    end: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Collects nested spans around wrapped calls, in call order.

    Spans stay in memory until the caller writes them out; the wrappers
    do no I/O of their own.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[Span] = []
        self._open: list[int] = []

    def wrap(self, name: str, fn: Callable, count: Callable | None = None) -> Callable:
        """Return `fn` wrapped in a span called `name`.

        `count(span, args, kwargs, result, error)` runs after the span has
        closed and may fill `span.counts`; `result` is None when the call
        raised `error`.
        """

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(name, self._open[-1] if self._open else None)
            self.spans.append(span)
            self._open.append(len(self.spans) - 1)
            span.start = self.clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as error:
                span.end = self.clock()
                self._open.pop()
                if count is not None:
                    count(span, args, kwargs, None, error)
                raise
            span.end = self.clock()
            self._open.pop()
            if count is not None:
                count(span, args, kwargs, result, None)
            return result

        return wrapper


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    The pipeline is single-threaded, so children of one span never
    overlap and their durations add up to the part of the parent they
    cover.
    """
    times = [span.duration for span in spans]
    for span in spans:
        if span.parent is not None:
            times[span.parent] -= span.duration
    return times


def check_spans(spans: list[Span], tolerance: float = 1e-6) -> None:
    """Raise ValueError unless spans nest and self times add up to the root.

    There must be exactly one root, every child must lie inside its
    parent, and the sum of all self times must equal the root's duration.
    """
    roots = [span for span in spans if span.parent is None]
    if len(roots) != 1:
        raise ValueError(f"expected one root span, found {len(roots)}")
    for index, span in enumerate(spans):
        if span.end < span.start:
            raise ValueError(f"span {index} ({span.name}) ends before it starts")
        if span.parent is None:
            continue
        if not 0 <= span.parent < index:
            raise ValueError(f"span {index} ({span.name}) has parent {span.parent} out of order")
        outer = spans[span.parent]
        if span.start < outer.start or span.end > outer.end:
            raise ValueError(f"span {index} ({span.name}) lies outside its parent {outer.name}")
    own = self_times(spans)
    total, root = sum(own), roots[0].duration
    if abs(total - root) > tolerance * max(1.0, root):
        raise ValueError(f"self times add up to {total!r}, root span lasts {root!r}")
    for index, value in enumerate(own):
        if value < -tolerance:
            raise ValueError(f"span {index} ({spans[index].name}) has negative self time {value!r}")


def to_rows(spans: list[Span]) -> list[list]:
    return [[s.name, s.parent, s.start, s.end, s.counts] for s in spans]


def from_rows(rows: list[list]) -> list[Span]:
    return [Span(name, parent, start, end, counts) for name, parent, start, end, counts in rows]
