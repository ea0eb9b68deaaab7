"""Spans recorded by the benchmark around its own calls into the program.

A span is ``(name, start, end, parent)``: the dotted name of the call
(``layer.function``), ``time.perf_counter`` stamps, and the index of the
enclosing span or ``None``.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import statistics
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._stack: list = []

    def call(self, name: str, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            self.spans[index] = (name, start, time.perf_counter(), parent)
            self._stack.pop()


class NullTracer:
    """Same interface, records nothing: the timed runs use this one."""

    def call(self, name: str, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    @contextmanager
    def span(self, name: str):
        yield


def self_times(spans) -> list:
    """Each span's duration minus the time its children cover.  Children
    of one parent never overlap: every call is made from one thread."""
    child_time = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent is not None:
            child_time[parent] += end - start
    return [end - start - child_time[i] for i, (_, start, end, _) in enumerate(spans)]


def totals(spans) -> dict:
    """Summed self time in seconds per span name."""
    out: dict = {}
    for (name, *_), own in zip(spans, self_times(spans)):
        out[name] = out.get(name, 0.0) + own
    return out


def durations(spans, name: str) -> list:
    return [end - start for span_name, start, end, _ in spans if span_name == name]


def median_ms(values) -> float:
    return 1000 * statistics.median(values)


def mean_ms(values) -> float:
    return 1000 * sum(values) / len(values)
