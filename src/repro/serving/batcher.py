"""Batching and admission policies, and the span batcher.

Serving batches by the standard two-trigger policy: dispatch a batch when
it is *full* (``max_batch`` requests) or when the oldest queued request has
waited ``timeout_s`` — whichever comes first.  While the device is busy,
arrivals keep accumulating and may top the next batch up to ``max_batch``
("opportunistic fill"), which is what makes micro-batching pay off exactly
when the system is under pressure.

:class:`ArrayBatcher` serves queue-free input (no admission control, one
SLO class): batches are then contiguous index ranges over the sorted
arrival array, so forming one is two bisections and a pointer bump —
bit-identical dispatch decisions to the original object/deque batcher
(kept as a frozen reference in ``tests/oracles/serving.py``) at a fraction
of the cost.  Input with an :class:`AdmissionPolicy` or latency-critical
requests needs a queue and runs on the lane loop
(:func:`~repro.serving.simulator.serve_lanes`): critical-first dispatch,
and arrivals beyond the queue cap are dropped or deferred instead of
ballooning the backlog.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

from repro.serving.workload import Trace
from repro.utils.validation import check_nonneg, check_positive

#: Admission modes: ``drop`` rejects over-cap arrivals outright, ``defer``
#: parks them and re-admits (FIFO) as soon as dispatches free queue space.
ADMISSION_MODES = ("drop", "defer")


@dataclass(frozen=True)
class BatchPolicy:
    """Micro-batching knobs: size cap and head-of-line timeout."""

    max_batch: int = 8
    timeout_s: float = 0.004

    def __post_init__(self):
        check_positive("max_batch", self.max_batch)
        check_nonneg("timeout_s", self.timeout_s)


@dataclass(frozen=True)
class AdmissionPolicy:
    """Queue-depth admission control: backpressure for the serving queue.

    ``max_queue`` caps the number of admitted-but-undispatched requests.
    Arrivals beyond it are *dropped* (never served, tracked first-class in
    telemetry) or *deferred* (parked in a side queue and re-admitted FIFO as
    dispatches free space — they serve late rather than never).  With
    ``critical_bypass`` latency-critical requests are always admitted; the
    cap sheds best-effort traffic first.
    """

    max_queue: int
    mode: str = "drop"
    critical_bypass: bool = True

    def __post_init__(self):
        check_positive("max_queue", self.max_queue)
        if self.mode not in ADMISSION_MODES:
            raise ValueError(
                f"unknown admission mode {self.mode!r}; valid: {ADMISSION_MODES}"
            )


class ArrayBatcher:
    """Index-arithmetic micro-batcher over a trace's arrival array.

    For queue-free input only (no admission policy, no latency-critical
    requests): the queue is then implicit — a head pointer into the sorted
    arrival array.  The deque batcher provably drains its queue completely
    on every dispatch (admission is capped at ``max_batch`` and every pop
    takes ``min(max_batch, len)``), so batches are always contiguous index
    ranges and :meth:`next_span` reduces to two bisections.  Bit-identical
    to the deque batcher.  Queued input runs on the lane loop instead
    (:func:`~repro.serving.simulator.serve_lanes`).
    """

    def __init__(self, trace: Trace, policy: BatchPolicy):
        self.policy = policy
        # Python-float arrival list: the per-batch lookups (``next_span``/
        # ``backlog_at``) are a few elements each, where ``bisect_right``
        # over a list beats an ndarray ``searchsorted`` call by its fixed
        # per-call overhead.  Same doubles, same ``side="right"`` semantics.
        self._times_list: list[float] = trace.arrival_s.tolist()
        self._n = len(self._times_list)
        self._head = 0  # first undispatched arrival

    def backlog_at(self, now_s: float) -> int:
        """Arrived-but-undispatched requests at ``now_s``."""
        return max(bisect_right(self._times_list, now_s) - self._head, 0)

    def next_span(self, device_free_s: float) -> tuple[float, int, int] | None:
        """Form the next batch as a contiguous ``[lo, hi)`` index range.

        The two-trigger policy collapses to index arithmetic: the
        head-of-line expiry and full-batch fill are both bisections over
        the sorted arrival array.  ``None`` once the trace is exhausted.
        """
        head = self._head
        if head >= self._n:
            return None
        times = self._times_list
        max_batch = self.policy.max_batch
        cap = head + max_batch
        if cap > self._n:
            cap = self._n
        expiry = times[head] + self.policy.timeout_s
        # Both lookups only matter within [head, head + max_batch): bounding
        # the bisection there makes each one a couple of comparisons.
        admitted = bisect_right(times, expiry, head, cap) - head
        if admitted >= max_batch:
            trigger = times[head + max_batch - 1]
        else:
            trigger = expiry
        start = device_free_s if device_free_s > trigger else trigger
        hi = bisect_right(times, start, head, cap)
        self._head = hi
        return float(start), head, hi
