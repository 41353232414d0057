"""Spans and peak memory recorded by wrapping a program's functions in place.

A boundary is a function replaced at the name its callers look up, so the
program keeps running its own composition and only gains a wrapper at each
boundary. A boundary the program no longer has is listed as missing and
skipped, never an error: a later change may fuse or remove stages.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
import tracemalloc
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Iterable

MIB = float(1 << 20)

#: observe(recorder, args, kwargs, result) -> None, run after the call returns.
Observer = Callable[["Tracer", tuple, dict, object], None]


@dataclass(frozen=True, slots=True)
class Boundary:
    """A function to wrap: ``module.attr`` as its callers look it up."""

    module: str
    attr: str
    span: str
    observe: Observer | None = None


class Patches:
    """Installs wrappers at boundaries and puts the originals back on exit."""

    def __init__(self, package: str, boundaries: Iterable[Boundary], make_wrapper) -> None:
        self._package = package
        self._boundaries = list(boundaries)
        self._make_wrapper = make_wrapper
        self._saved: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    def __enter__(self) -> "Patches":
        for boundary in self._boundaries:
            try:
                owner = importlib.import_module(f"{self._package}.{boundary.module}")
            except ImportError:
                owner = None
            original = getattr(owner, boundary.attr, None)
            if not callable(original):
                self.missing.append(f"{boundary.module}.{boundary.attr}")
                continue
            self._saved.append((owner, boundary.attr, original))
            wrapper = functools.wraps(original)(self._make_wrapper(boundary, original))
            setattr(owner, boundary.attr, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span in the same list, -1 for a root


class Tracer:
    """Records a span per boundary call, plus counts that observers add.

    Spans stay in memory; ``spans`` is read and written out by the caller
    once the traced work is over.
    """

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        """Start over for the next traced run."""
        self.spans: list[Span] = []
        self.counts: Counter[str] = Counter()
        self.distinct: dict[str, set] = {}
        self._open: list[int] = []

    def add(self, key: str, amount: float = 1) -> None:
        self.counts[key] += amount

    def see(self, key: str, value: object) -> None:
        self.distinct.setdefault(key, set()).add(value)

    def enter(self, name: str) -> int:
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent))
        self._open.append(index)
        return index

    def leave(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self._open.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        index = self.enter(name)
        try:
            yield
        finally:
            self.leave(index)

    def wrapper(self, boundary: Boundary, original):
        tracer = self

        def traced(*args, **kwargs):
            index = tracer.enter(boundary.span)  # inline, not span(): this wraps hot functions
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.leave(index)
            if boundary.observe is not None:
                boundary.observe(tracer, args, kwargs, result)
            return result

        return traced


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    own = [s.end - s.start for s in spans]
    for span in spans:
        if span.parent >= 0:
            own[span.parent] -= span.end - span.start
    return own


class PeakMeter:
    """Peak traced memory overall and per boundary call.

    The peak is reset on entry to and exit from every wrapped boundary; each
    segment's peak is folded into the overall peak and into every boundary
    call still open, so nested boundaries keep their parents' peaks whole.
    A boundary's peak is reported above the traced memory at its entry.
    Requires ``tracemalloc`` to be tracing.
    """

    def __init__(self) -> None:
        self.overall = 0
        self.stage_peaks: dict[str, list[int]] = {}
        self._open: list[list[int]] = []  # [traced bytes at entry, peak so far]

    def _close_segment(self) -> None:
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        self.overall = max(self.overall, peak)
        for entry in self._open:
            entry[1] = max(entry[1], peak)

    def finish(self) -> float:
        """Overall peak in MiB, including the segment still open."""
        self._close_segment()
        return self.overall / MIB

    def wrapper(self, boundary: Boundary, original):
        meter = self

        def measured(*args, **kwargs):
            meter._close_segment()
            entry = [tracemalloc.get_traced_memory()[0], 0]
            meter._open.append(entry)
            try:
                return original(*args, **kwargs)
            finally:
                meter._close_segment()
                meter._open.pop()
                meter.stage_peaks.setdefault(boundary.span, []).append(entry[1] - entry[0])

        return measured
