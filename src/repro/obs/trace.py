"""Process-safe tracing/metrics runtime: spans, counters, histograms.

Design constraints, in order:

1. **Zero-cost when off.**  Every instrumentation point in the repo calls
   :func:`span` / :func:`count` / :func:`observe` unconditionally, including
   the dynamic-evaluation hot path, so the disabled path must be a couple of
   attribute reads and a ``None`` check (measured well under 2% of a single
   cost-store :meth:`DynamicEvaluator.evaluate` miss — asserted in
   ``tests/test_obs.py``).
2. **No effect on results.**  The runtime never touches an RNG, never
   reorders work, and never raises into instrumented code; recording a trace
   is bit-identical to not recording one.
3. **Process-safe.**  A :class:`Recorder` is plain data (events list +
   counter/histogram dicts); worker processes run under their own recorder
   and ship :meth:`Recorder.export_payload` home through the executor result
   channel, where :meth:`Recorder.merge` folds it into the parent's recorder
   (see ``obs/collect.py``).  Span ids are disambiguated by ``(pid, id)``.

Activation is layered: :func:`install` sets a process-global default
recorder (what the ``--trace`` CLI flags use); :func:`recording` overrides
it for the current thread only (what worker-side wrappers and tests use, so
concurrent threads never write into each other's recorders).  :func:`active`
consults the thread-local override first, then the global default.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from contextlib import contextmanager
from typing import Any, Iterator

#: Histograms keep at most this many raw samples (count/sum/min/max keep
#: exact totals past the cap); enough for honest p95s without unbounded
#: memory on million-event serving runs.
HISTOGRAM_SAMPLE_CAP = 4096


class Histogram:
    """Streaming value distribution: exact moments, capped raw samples."""

    __slots__ = ("count", "total", "min", "max", "samples")

    def __init__(self):
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")
        self.samples: list[float] = []

    def add(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        if len(self.samples) < HISTOGRAM_SAMPLE_CAP:
            self.samples.append(value)

    def percentile(self, q: float) -> float:
        """Nearest-rank percentile over the retained samples (0 when empty)."""
        if not self.samples:
            return 0.0
        ordered = sorted(self.samples)
        rank = min(len(ordered) - 1, max(0, int(round(q * (len(ordered) - 1)))))
        return ordered[rank]

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def as_payload(self) -> dict:
        return {
            "count": self.count,
            "total": self.total,
            "min": self.min if self.count else 0.0,
            "max": self.max if self.count else 0.0,
            "samples": list(self.samples),
        }

    def merge_payload(self, payload: dict) -> None:
        if not payload.get("count"):
            return
        self.count += int(payload["count"])
        self.total += float(payload["total"])
        self.min = min(self.min, float(payload["min"]))
        self.max = max(self.max, float(payload["max"]))
        room = HISTOGRAM_SAMPLE_CAP - len(self.samples)
        if room > 0:
            self.samples.extend(float(v) for v in payload.get("samples", [])[:room])


class Recorder:
    """Collects span events, counters and histograms for one run.

    Thread-safe: span completion and metric updates take a lock (recording
    is the slow path by definition); each thread keeps its own span stack so
    parent/child links never cross threads.
    """

    def __init__(self):
        self.events: list[dict] = []
        self.counters: dict[str, float] = {}
        self.histograms: dict[str, Histogram] = {}
        self.pid = os.getpid()
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._stacks = threading.local()

    # ---------------------------------------------------------------- spans
    def _stack(self) -> list[int]:
        stack = getattr(self._stacks, "stack", None)
        if stack is None:
            stack = self._stacks.stack = []
        return stack

    def span(self, name: str, **attrs: Any) -> "Span":
        return Span(self, name, attrs)

    def _finish_span(self, event: dict) -> None:
        with self._lock:
            self.events.append(event)

    # -------------------------------------------------------------- metrics
    def count(self, name: str, value: float = 1) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + value

    def observe(self, name: str, value: float) -> None:
        with self._lock:
            hist = self.histograms.get(name)
            if hist is None:
                hist = self.histograms[name] = Histogram()
            hist.add(value)

    # ------------------------------------------------------------ transport
    def export_payload(self) -> dict:
        """Plain-data snapshot for shipping across a process boundary."""
        with self._lock:
            return {
                "pid": self.pid,
                "events": [dict(event) for event in self.events],
                "counters": dict(self.counters),
                "histograms": {
                    name: hist.as_payload() for name, hist in self.histograms.items()
                },
            }

    def merge(self, payload: dict) -> None:
        """Fold a worker recorder's :meth:`export_payload` into this one."""
        with self._lock:
            self.events.extend(payload.get("events", ()))
            for name, value in payload.get("counters", {}).items():
                self.counters[name] = self.counters.get(name, 0) + value
            for name, data in payload.get("histograms", {}).items():
                hist = self.histograms.get(name)
                if hist is None:
                    hist = self.histograms[name] = Histogram()
                hist.merge_payload(data)


class Span:
    """One timed region; records wall + thread-CPU time on exit.

    Exceptions propagate untouched (the event still lands, flagged with
    ``error`` so a trace of a failed run shows where it died).
    """

    __slots__ = ("_recorder", "name", "attrs", "span_id", "parent_id",
                 "_ts", "_wall0", "_cpu0")

    def __init__(self, recorder: Recorder, name: str, attrs: dict):
        self._recorder = recorder
        self.name = name
        self.attrs = attrs

    def __enter__(self) -> "Span":
        recorder = self._recorder
        stack = recorder._stack()
        self.parent_id = stack[-1] if stack else None
        self.span_id = next(recorder._ids)
        stack.append(self.span_id)
        self._ts = time.time()
        self._cpu0 = time.thread_time()
        self._wall0 = time.perf_counter()
        return self

    def set(self, **attrs: Any) -> "Span":
        """Attach attributes discovered mid-span (e.g. batch sizes)."""
        self.attrs.update(attrs)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        wall = time.perf_counter() - self._wall0
        cpu = time.thread_time() - self._cpu0
        recorder = self._recorder
        stack = recorder._stack()
        if stack and stack[-1] == self.span_id:
            stack.pop()
        event = {
            "name": self.name,
            "ts": self._ts,
            "wall_s": wall,
            "cpu_s": cpu,
            "pid": recorder.pid,
            "tid": threading.get_ident(),
            "id": self.span_id,
            "parent": self.parent_id,
        }
        if self.attrs:
            event["attrs"] = dict(self.attrs)
        if exc_type is not None:
            event["error"] = exc_type.__name__
        recorder._finish_span(event)
        return False


class _NoopSpan:
    """Shared do-nothing span returned by :func:`span` when tracing is off."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def set(self, **attrs: Any) -> "_NoopSpan":
        return self


_NOOP_SPAN = _NoopSpan()

_default: Recorder | None = None
_tls = threading.local()


def active() -> Recorder | None:
    """The recorder in effect for this thread (``None`` when tracing is off)."""
    recorder = getattr(_tls, "recorder", None)
    return recorder if recorder is not None else _default


def install(recorder: Recorder | None) -> None:
    """Set the process-global default recorder (``None`` disables tracing)."""
    global _default
    _default = recorder


def uninstall() -> None:
    install(None)


@contextmanager
def recording(recorder: Recorder) -> Iterator[Recorder]:
    """Route this thread's events to ``recorder`` for the duration.

    Thread-local, so concurrent pool workers each recording their own task
    never interleave; nested use restores the outer recorder on exit.
    """
    previous = getattr(_tls, "recorder", None)
    _tls.recorder = recorder
    try:
        yield recorder
    finally:
        _tls.recorder = previous


def span(name: str, **attrs: Any):
    """Open a span under the active recorder; a shared no-op when tracing is off."""
    recorder = active()
    if recorder is None:
        return _NOOP_SPAN
    return Span(recorder, name, attrs)


def count(name: str, value: float = 1) -> None:
    """Bump a counter on the active recorder (no-op when tracing is off)."""
    recorder = active()
    if recorder is not None:
        recorder.count(name, value)


def observe(name: str, value: float) -> None:
    """Add a histogram sample on the active recorder (no-op when tracing is off)."""
    recorder = active()
    if recorder is not None:
        recorder.observe(name, value)
