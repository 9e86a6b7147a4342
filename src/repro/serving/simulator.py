"""The serving core: the compiled executor, the lane loop, one device.

Feeds a timestamped request :class:`~repro.serving.workload.Trace` through
micro-batching onto simulated edge devices.  Per decision window the
serving policy picks a :class:`~repro.serving.governor.RuntimeConfig`
(entropy thresholds + DVFS); per batch the *real* entropy controller decides
each request's exit, the hardware model prices the batch (busy time
serialises, dispatch overhead is shared —
:func:`repro.hardware.energy.batched_execution`), and the
:class:`~repro.runtime.governor.DvfsGovernor` charges frequency-switch
energy across the intra-batch exit sequence.  Thermal and battery state
evolve alongside and feed back into the governor's observation.

A per-config compiled executor (:class:`_CompiledConfig`) precomputes
full-stream exit decisions, correctness and per-path cost tables once, so
the per-batch work is a few table lookups.  Two event loops drive it:

* the **span path** (:class:`ServingSimulator` on queue-free input: no
  admission control, no latency-critical requests).  Batches are then
  contiguous index ranges over the arrival array, which
  :class:`~repro.serving.batcher.ArrayBatcher` forms by index arithmetic.
  Reports are bit-identical to the original per-request loop over
  :class:`~repro.serving.workload.Request` objects, kept as a frozen
  reference in ``tests/oracles/serving.py``.
* the **lane loop** (:func:`serve_lanes`), the one queue model: every
  input that needs a queue.  Each :class:`Lane` holds one FIFO per SLO
  class.  A batch starts at the head-of-line expiry or at the arrival of
  the ``max_batch``-th queued request, whichever comes first (never before
  the device is free), and takes the queued latency-critical requests that
  arrived by its start, then best-effort ones, up to ``max_batch``.  With
  an :class:`~repro.serving.batcher.AdmissionPolicy`, arrivals beyond the
  queue cap are dropped or, in ``defer`` mode, parked and re-admitted FIFO
  ahead of any later arrival as dispatches free space.  The fleet
  (:mod:`repro.serving.fleet`) runs it over N routed lanes;
  :class:`ServingSimulator` runs it over one lane for admission-gated or
  SLO-class input, so a one-lane fleet and the single device serve the
  same schedule.

Dropped requests never complete (NaN completion) and latency statistics
cover *served* requests only.  Everything is deterministic: the trace, the
logits stream and every policy decision are pure functions of the seed and
configuration.
"""

from __future__ import annotations

import gc
from bisect import bisect_left, bisect_right
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from heapq import heappop, heappush
from itertools import islice

import numpy as np

from repro.eval.dynamic import DynamicEvaluator
from repro.exits.placement import ExitPlacement
from repro.hardware.energy import PathProfile
from repro.nn.functional import entropy_np
from repro.obs import trace as tracing
from repro.serving.batcher import AdmissionPolicy, ArrayBatcher, BatchPolicy
from repro.serving.governor import (
    GovernorObservation,
    RuntimeConfig,
    ServingPolicy,
    _profiles_for,
)
from repro.serving.router import BlockLaneState, FleetRouter
from repro.serving.scenarios import Scenario, ThermalState
from repro.serving.stream import ServingStream
from repro.serving.telemetry import ServingReport, class_latency_stats, percentile_ms
from repro.serving.workload import LATENCY_CRITICAL, SLO_CLASSES, Trace
from repro.utils.validation import check_positive

@dataclass(frozen=True)
class CompiledStream:
    """Per-request quantities of a :class:`ServingStream`, precomputed once.

    The entropy controller and the correctness check are row-independent
    (softmax/entropy/argmax act per request), so evaluating them over the
    full stream up front yields bit-identical values to evaluating them
    batch by batch — which is what lets the simulator replace the
    per-batch controller with table lookups.
    """

    num_exits: int
    entropy: np.ndarray  # (num_exits, n) normalized entropy per exit head
    head_correct: np.ndarray  # (num_exits + 1, n) argmax == label per head


#: Rows per chunk when compiling a stream.  Entropy and argmax act per
#: row, so chunking changes nothing numerically — it only keeps the
#: softmax temporaries cache-sized instead of materializing multiple
#: (n, classes) float64 scratch arrays at million-request scale.
_COMPILE_CHUNK = 65536


def compile_stream(stream: ServingStream) -> CompiledStream:
    """Precompute per-head entropies and correctness for the whole stream."""
    num_exits = stream.num_exits
    labels = stream.labels
    n = len(labels)
    entropy = np.empty((num_exits, n))
    head_correct = np.empty((num_exits + 1, n), dtype=bool)
    for i in range(num_exits):
        logits = stream.exit_logits[i]
        for lo in range(0, n, _COMPILE_CHUNK):
            hi = min(lo + _COMPILE_CHUNK, n)
            entropy[i, lo:hi] = entropy_np(logits[lo:hi], axis=-1)
            head_correct[i, lo:hi] = logits[lo:hi].argmax(axis=-1) == labels[lo:hi]
    final = stream.final_logits
    for lo in range(0, n, _COMPILE_CHUNK):
        hi = min(lo + _COMPILE_CHUNK, n)
        head_correct[num_exits, lo:hi] = final[lo:hi].argmax(axis=-1) == labels[lo:hi]
    return CompiledStream(num_exits=num_exits, entropy=entropy, head_correct=head_correct)


class _CompiledConfig:
    """One ladder rung compiled against a stream: decisions + cost tables.

    ``decisions`` replicates :meth:`EntropyThresholdController.decide` over
    the full stream (first exit whose entropy clears its threshold);
    :meth:`price_span` and :meth:`price_indices` replicate
    :func:`~repro.hardware.energy.batched_execution` +
    :meth:`DvfsGovernor.switching_energy` for a batch of those decisions.
    Sums add left to right over Python floats (NOT ``np.sum``, whose
    pairwise reduction associates differently, nor Python ≥ 3.12's
    compensated builtin ``sum``) and the shared-overhead path is the
    *first* maximum, exactly like ``max(..., key=...)`` — this is what keeps
    the compiled executor bit-identical to the per-batch reference.
    """

    __slots__ = (
        "decisions",
        "correct",
        "_busy",
        "_over",
        "_passive",
        "_unit",
        "_sid",
        "_switch_cost_j",
        "_dec_req",
        "_lat_one",
        "_energy_one",
    )

    def __init__(
        self,
        config: RuntimeConfig,
        profiles: list[PathProfile],
        cstream: CompiledStream,
        switch_cost_j: float,
    ):
        n = cstream.head_correct.shape[1]
        decisions = np.full(n, cstream.num_exits, dtype=np.int64)
        undecided = np.ones(n, dtype=bool)
        for i, threshold in enumerate(config.thresholds):
            takes = undecided & (cstream.entropy[i] <= threshold)
            decisions[takes] = i
            undecided &= ~takes
        self.decisions = decisions
        self.correct = cstream.head_correct[decisions, np.arange(n)]
        # Per-exit Python float tables.  ``_lat_one`` and ``_energy_one``
        # pre-fold the single-request batch: ``busy + over`` and
        # ``unit + passive * over`` associate identically to the batch
        # formulas at size one.
        self._busy = [p.busy_s for p in profiles]
        self._over = [p.overhead_s for p in profiles]
        self._passive = [p.passive_power_w for p in profiles]
        self._unit = [
            p.dynamic_energy_j + p.passive_power_w * p.busy_s for p in profiles
        ]
        self._lat_one = [b + o for b, o in zip(self._busy, self._over)]
        self._energy_one = [
            u + p * o for u, p, o in zip(self._unit, self._passive, self._over)
        ]
        # DVFS settings collapsed to equality-class ids so intra-batch
        # transitions are an integer comparison instead of dataclass !=.
        governor = config.dvfs_governor(switch_cost_j)
        seen: list = []
        sid = []
        for path in range(len(profiles)):
            setting = governor.setting_for(path)
            for class_id, other in enumerate(seen):
                if setting == other:
                    sid.append(class_id)
                    break
            else:
                sid.append(len(seen))
                seen.append(setting)
        self._sid = sid
        self._switch_cost_j = switch_cost_j
        self._dec_req = None  # per-request decision list, built on first price

    def ensure_tables(self) -> None:
        """Materialize the per-request decision list, once per (config, stream).

        Batches average a handful of requests, so pricing works off one
        Python list of per-request exit decisions (small ints, so ``tolist``
        is cheap — unlike converting per-request float gathers) indexing
        the per-exit float tables.  Built on first use, so configs the
        governor never picks cost nothing.
        """
        if self._dec_req is None:
            self._dec_req = self.decisions.tolist()

    def price_span(self, lo: int, hi: int) -> tuple[float, float, float]:
        """(latency_s, energy_j incl. switching, switching_j) for the
        contiguous batch ``[lo, hi)`` (span mode)."""
        dec = self._dec_req
        if hi - lo == 1:
            d = dec[lo]
            return self._lat_one[d], self._energy_one[d], 0.0
        busy = self._busy
        over = self._over
        unit = self._unit
        busy_sum = 0.0
        energy = 0.0
        peak = -1.0
        longest = lo
        for j in range(lo, hi):
            d = dec[j]
            busy_sum += busy[d]
            energy += unit[d]
            o = over[d]
            if o > peak:  # strict: keeps the first maximum, like argmax
                peak = o
                longest = j
        latency = busy_sum + peak
        energy += self._passive[dec[longest]] * peak
        switch = 0.0
        if self._switch_cost_j:
            sids = self._sid
            prev = sids[dec[lo]]
            transitions = 0
            for j in range(lo + 1, hi):
                cur = sids[dec[j]]
                if cur != prev:
                    transitions += 1
                    prev = cur
            switch = transitions * self._switch_cost_j
        return latency, energy + switch, switch

    def price_indices(
        self, indices: list[int], counts: list[int]
    ) -> tuple[float, float, float]:
        """:meth:`price_span` for an explicit request-index batch.

        Lane-loop batches are not contiguous, so this is :meth:`price_span`
        generalised to an index list, off the same Python-float tables:
        sequential left-to-right sums and a strict first-maximum.  It also
        tallies the batch's per-exit decisions into ``counts`` (the exit
        usage meters).  Call :meth:`ensure_tables` first.
        """
        dec = self._dec_req
        if len(indices) == 1:
            d = dec[indices[0]]
            counts[d] += 1
            return self._lat_one[d], self._energy_one[d], 0.0
        busy = self._busy
        over = self._over
        unit = self._unit
        busy_sum = 0.0
        energy = 0.0
        peak = -1.0
        longest = indices[0]
        for t in indices:
            d = dec[t]
            counts[d] += 1
            busy_sum += busy[d]
            energy += unit[d]
            o = over[d]
            if o > peak:  # strict: keeps the first maximum, like argmax
                peak = o
                longest = t
        latency = busy_sum + peak
        energy += self._passive[dec[longest]] * peak
        switch = 0.0
        if self._switch_cost_j:
            sids = self._sid
            prev = sids[dec[indices[0]]]
            transitions = 0
            for t in indices[1:]:
                cur = sids[dec[t]]
                if cur != prev:
                    transitions += 1
                    prev = cur
            switch = transitions * self._switch_cost_j
        return latency, energy + switch, switch


@dataclass
class _RunState:
    """Accumulated telemetry of one serving loop."""

    completion: np.ndarray  # NaN = never served (dropped at admission)
    correct: np.ndarray
    exit_counts: np.ndarray
    total_energy: float = 0.0
    switching_energy: float = 0.0
    battery_spent: float = 0.0
    battery_exhausted: bool = False
    num_batches: int = 0
    throttled: int = 0
    governor_decisions: int = 0
    num_dropped: int = 0
    num_deferred: int = 0
    config_usage: dict[str, int] = field(default_factory=dict)
    peak_temperature_c: float = 0.0


@contextmanager
def gc_paused():
    """Pause the cyclic collector around an event loop.

    The loops allocate acyclically (flat books, batch lists freed as they
    are priced), so cycle collection has nothing to find — but generational
    collections still traverse the ever-growing books, costing seconds per
    million requests.
    """
    was_enabled = gc.isenabled()
    if was_enabled:
        gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def _arrived(arrivals: deque[float], now_s: float) -> int:
    """How many of the arrival-sorted ``arrivals`` came at or before ``now_s``."""
    if not arrivals or arrivals[-1] <= now_s:
        return len(arrivals)
    return bisect_right(arrivals, now_s)


def _nth_arrival(crit: deque[float], best: deque[float], n: int) -> float:
    """The ``n``-th earliest arrival across two arrival-sorted class queues."""
    if not crit:
        return best[n - 1]
    if not best:
        return crit[n - 1]
    return sorted([*islice(crit, n), *islice(best, n)])[n - 1]


def _take(
    queue: deque[int], arrivals: deque[float], start: float, room: int, batch: list[int]
) -> int:
    """Move up to ``room`` requests that arrived by ``start`` off the front
    of one class queue onto ``batch``; returns how many moved."""
    k = 0
    for t in arrivals:
        if k >= room or t > start:
            break
        k += 1
    for _ in range(k):
        arrivals.popleft()
        batch.append(queue.popleft())
    return k


class Lane:
    """One simulated device of the lane loop: queues, governor state, meters.

    The queue is one FIFO per SLO class of admitted-but-undispatched request
    indices, each with a parallel deque of arrival times, plus — under a
    ``defer`` admission gate — a FIFO of parked ``(index, arrival,
    critical)`` entries.  Each class queue stays arrival-sorted: parked
    requests re-enter before any later arrival is admitted.

    Routers read ``index``, ``t_free``, :attr:`queue_depth` and
    ``reference_capacity_rps``, which only fleet lanes
    (:class:`~repro.serving.fleet.DeviceLane`) carry.  ``rate_share`` is
    the share of the trace's mean rate this lane expects, the governor's
    rate before any arrival.
    """

    reference_capacity_rps: float | None = None

    def __init__(
        self,
        index: int,
        policy: ServingPolicy,
        evaluator: DynamicEvaluator,
        placement: ExitPlacement,
        ladder: list[RuntimeConfig],
        batch_policy: BatchPolicy,
        name: str = "device",
    ):
        self.index = index
        self.policy = policy
        self.evaluator = evaluator
        self.placement = placement
        self.batch_policy = batch_policy
        self.name = name
        self.coolest = min(ladder, key=lambda c: c.expected_power_w)
        self.max_power_w = max(c.expected_power_w for c in ladder)
        self.rate_share = 1.0
        # Queues.
        self._crit: deque[int] = deque()
        self._crit_arrivals: deque[float] = deque()
        self._be: deque[int] = deque()
        self._be_arrivals: deque[float] = deque()
        self._deferred: deque[tuple[int, float, bool]] = deque()
        self._routed_times: list[float] = []  # every routed arrival (rate window)
        self._rate_cursor = 0  # left bisect bound for the trailing rate window
        # Device clocks and governor state.
        self.t_free = 0.0
        self.clock = 0.0
        self.next_decision = 0.0
        self.config: RuntimeConfig | None = None
        self.thermal: ThermalState | None = None
        # Caches shared across batches.
        self._profiles: dict[str, list[PathProfile]] = {}
        self._compiled: dict[str, _CompiledConfig] = {}
        # Meters.
        self.request_indices: list[int] = []  # admitted here
        self.busy_s = 0.0
        self.energy_j = 0.0
        self.switching_energy_j = 0.0
        self.num_batches = 0
        self.throttled = 0
        self.governor_decisions = 0
        self.critical_requests = 0
        self.num_dropped = 0
        self.num_deferred = 0
        self.config_usage: dict[str, int] = {}
        self.exit_counts = np.zeros(placement.num_exits + 1, dtype=np.int64)

    # ------------------------------------------------------------- the queue
    @property
    def queue_depth(self) -> int:
        """Admitted requests not yet dispatched (parked ones excluded)."""
        return len(self._crit) + len(self._be)

    def backlog_at(self, now_s: float) -> int:
        """Queued and parked requests that arrived by ``now_s``."""
        parked = sum(1 for _, arrival, _ in self._deferred if arrival <= now_s)
        return (
            _arrived(self._crit_arrivals, now_s)
            + _arrived(self._be_arrivals, now_s)
            + parked
        )

    def critical_backlog_at(self, now_s: float) -> int:
        """Queued latency-critical requests that arrived by ``now_s``."""
        return _arrived(self._crit_arrivals, now_s)

    def arrival_rate_hz(self, now_s: float, window_s: float, fallback: float) -> float:
        """Routed arrivals/second (admitted or not) over the trailing window."""
        if now_s <= 0:
            return fallback
        window_start = max(0.0, now_s - window_s)
        routed = self._routed_times
        n = len(routed)
        # Observation instants are monotone per lane, so the window's left
        # edge only moves right: resume the bisect at the last cursor.
        lo = bisect_left(routed, window_start, self._rate_cursor)
        self._rate_cursor = lo
        if n and routed[n - 1] <= now_s:
            hi = n
        else:
            hi = bisect_right(routed, now_s)
        return (hi - lo) / max(now_s - window_start, 1e-9)

    # ---------------------------------------------------------- config state
    def profiles_of(self, config: RuntimeConfig) -> list[PathProfile]:
        if config.name not in self._profiles:
            self._profiles[config.name] = _profiles_for(
                self.evaluator, self.placement, config.dvfs_governor()
            )
        return self._profiles[config.name]

    def compiled_of(
        self, config: RuntimeConfig, cstream: CompiledStream, switch_cost_j: float
    ) -> _CompiledConfig:
        if config.name not in self._compiled:
            self._compiled[config.name] = _CompiledConfig(
                config, self.profiles_of(config), cstream, switch_cost_j
            )
        return self._compiled[config.name]

    def begin(
        self, scenario: Scenario, rate_hz: float, window_s: float, slo_s: float
    ) -> None:
        """Start the run: thermal state and the t=0 governor decision.

        The t=0 observation is minimal (no caps, no backlog) at the lane's
        expected arrival rate ``rate_hz``.
        """
        self.thermal = (
            ThermalState(scenario.thermal, self.max_power_w)
            if scenario.thermal is not None
            else None
        )
        self.config = self.policy.select(
            GovernorObservation(
                now_s=0.0,
                window_s=window_s,
                arrival_rate_hz=rate_hz,
                backlog=0,
                slo_s=slo_s,
            )
        )
        self.governor_decisions += 1
        self.next_decision = window_s

    def observe(
        self,
        now_s: float,
        trace: Trace,
        window_s: float,
        slo_s: float,
        battery_budget_j: float | None,
        battery_spent_j: float,
    ) -> GovernorObservation:
        """What this lane's governor sees at ``now_s``."""
        rate = self.arrival_rate_hz(
            now_s, window_s, fallback=trace.mean_rate_hz * self.rate_share
        )
        thermal = self.thermal
        energy_cap = None
        if battery_budget_j is not None:
            remaining_j = max(battery_budget_j - battery_spent_j, 0.0)
            remaining_requests = max(
                trace.mean_rate_hz * max(trace.duration_s - now_s, 0.0), 1.0
            )
            energy_cap = remaining_j / remaining_requests
        return GovernorObservation(
            now_s=now_s,
            window_s=window_s,
            arrival_rate_hz=rate,
            backlog=self.backlog_at(now_s),
            slo_s=slo_s,
            temperature_c=thermal.temperature_c if thermal else 0.0,
            power_cap_w=thermal.power_cap_w(self.max_power_w) if thermal else None,
            energy_cap_j=energy_cap,
            critical_backlog=self.critical_backlog_at(now_s),
        )


def serve_lanes(
    lanes: list[Lane],
    trace: Trace,
    cstream: CompiledStream,
    completion: np.ndarray,
    correct: np.ndarray,
    *,
    window_s: float,
    slo_s: float,
    emergency_backlog: float,
    switch_cost_j: float = 0.0,
    battery_budget_j: float | None = None,
    admission: AdmissionPolicy | None = None,
    router: FleetRouter | None = None,
) -> tuple[float, bool]:
    """The lane loop: serve ``trace`` on ``lanes``, one arrival at a time.

    Each arrival joins the lane ``router.route_block`` picks (lane 0 without
    a router) and passes that lane's admission gate,
    :meth:`~repro.serving.router.BlockLaneState.admit`.  The loop then
    drains every batch that dispatches before the next arrival through a
    **lazy min-heap** of (pending start, lane) entries instead of scanning
    every lane per request: a lane's entry is re-pushed only when its
    pending start changes, and entries that no longer match the lane's
    pending start are skipped on pop.  The heap's tuple order — ascending
    start, ties on lane index — is the order a per-request scan over the
    lanes would dispatch in.  A batch forms only once the loop has routed
    every arrival up to its start, so no later arrival could still join it
    and every governor observation sees exactly the arrivals up to its
    instant.

    Lanes must have been started (:meth:`Lane.begin`).  Batches price
    through :meth:`_CompiledConfig.price_indices`; ``completion`` and
    ``correct`` are scattered once at the end and the lane meters are
    filled in place.  Routed runs trace under ``fleet.*``, single lanes
    under ``serving.*``.  Returns ``(battery_spent_j, battery_exhausted)``.
    """
    n = trace.num_requests
    num_lanes = len(lanes)
    state = BlockLaneState(
        lanes,
        max_queue=admission.max_queue if admission is not None else None,
        critical_bypass=admission.critical_bypass if admission is not None else True,
    )
    max_queue = admission.max_queue if admission is not None else 0
    defer = admission is not None and admission.mode == "defer"
    t_free = state.t_free
    depth = state.depth
    admit = state.admit
    routed = router is not None
    route_block = router.route_block if routed else None

    times_np = trace.arrival_s
    difficulty_np = trace.difficulty
    slo_class_np = trace.slo_class

    recorder = tracing.active()
    meter = "fleet" if routed else "serving"
    decisions_name = f"{meter}.governor_decisions"
    throttled_name = f"{meter}.throttled_batches"
    batches_name = f"{meter}.batches"
    size_name = f"{meter}.batch_size"
    battery_spent = 0.0
    battery_exhausted = False
    has_battery = battery_budget_j is not None

    heap: list[tuple[float, int]] = []
    heap_push = heappush
    heap_pop = heappop
    inf = float("inf")
    # The start each lane's newest heap entry carries (inf: empty queue).
    pend = [inf] * num_lanes

    # Per-lane hot state as parallel lists indexed by lane: one list
    # lookup replaces two attribute hops everywhere the per-request
    # loop touches a lane, and pure-accumulator meters fold back into
    # the lane objects once at the end (same per-lane accumulation
    # order, hence bit-identical sums).
    cqs = [lane._crit for lane in lanes]
    cas = [lane._crit_arrivals for lane in lanes]
    bqs = [lane._be for lane in lanes]
    bas = [lane._be_arrivals for lane in lanes]
    parked = [lane._deferred for lane in lanes]
    routed_append = [lane._routed_times.append for lane in lanes]
    ridx_append = [lane.request_indices.append for lane in lanes]
    max_batch = [lane.batch_policy.max_batch for lane in lanes]
    timeout = [lane.batch_policy.timeout_s for lane in lanes]
    policies = [lane.policy for lane in lanes]
    thermals = [lane.thermal for lane in lanes]
    usages = [lane.config_usage for lane in lanes]
    compiled_maps = [lane._compiled for lane in lanes]
    configs = [lane.config for lane in lanes]
    last_active: list[RuntimeConfig | None] = [None] * num_lanes
    last_compiled: list[_CompiledConfig | None] = [None] * num_lanes
    last_count = [0] * num_lanes
    next_decision = [lane.next_decision for lane in lanes]
    clocks = [lane.clock for lane in lanes]
    energy_acc = [lane.energy_j for lane in lanes]
    busy_acc = [lane.busy_s for lane in lanes]
    switch_acc = [lane.switching_energy_j for lane in lanes]
    nbatch_acc = [lane.num_batches for lane in lanes]
    ndecision_acc = [lane.governor_decisions for lane in lanes]
    nthrottle_acc = [lane.throttled for lane in lanes]
    lane_counter = [f"fleet.lane.{lane.name}.batches" for lane in lanes]

    # Dispatch log: per-batch index lists and completion times, scattered
    # into the report arrays once at the end (a numpy fancy write per
    # two-request batch costs more than the batch itself).
    # Served requests accumulate *flat* (indices + per-batch sizes), not
    # as retained batch lists: a million retained small lists keeps the
    # GC-tracked heap growing all run and generational collections go
    # quadratic.  Flat int/float lists are opaque to the GC.
    served_flat: list[int] = []
    served_sizes: list[int] = []
    served_ends: list[float] = []
    sf_extend = served_flat.extend
    ss_append = served_sizes.append
    se_append = served_ends.append
    # Correctness groups by compiled config (correct[i] depends on which
    # config served request i).
    correct_groups: dict[int, tuple[_CompiledConfig, list[int]]] = {}
    # Exit tallies as plain int lists; folded into the numpy meters once.
    exit_lists = [[0] * len(lane.exit_counts) for lane in lanes]

    def dispatch(li: int, start: float, batch: list[int]) -> None:
        nonlocal battery_spent, battery_exhausted
        lane = lanes[li]
        thermal = thermals[li]
        ca = cas[li]
        ba = bas[li]
        waiting = parked[li]
        if thermal is not None and start > clocks[li]:
            thermal.advance(0.0, start - clocks[li])  # idle: device cools
        size = len(batch)
        # Spike check counts the in-flight batch: it was popped already but
        # it is still unserved work.  Every queued or parked request has
        # arrived by ``start`` (see above), so the backlog is their count.
        spike = len(ca) + len(ba) + len(waiting) + size > emergency_backlog
        if start >= next_decision[li] or spike:
            obs = lane.observe(
                start, trace, window_s, slo_s, battery_budget_j, battery_spent
            )
            configs[li] = policies[li].select(obs)
            ndecision_acc[li] += 1
            if recorder is not None:
                recorder.count(decisions_name)
            next_decision[li] = start + window_s
        active = configs[li]
        if thermal is not None and thermal.throttled:
            active = lane.coolest  # hardware throttle overrides the policy
            nthrottle_acc[li] += 1
            if recorder is not None:
                recorder.count(throttled_name)
        if recorder is not None:
            recorder.count(batches_name)
            if routed:
                recorder.count(lane_counter[li])
            recorder.observe(size_name, size)

        # The active config changes only at governor decisions, so the
        # usage tally and compiled lookup run cached between changes and
        # flush on switch (and once at fold-back).
        if active is last_active[li]:
            last_count[li] += 1
            compiled = last_compiled[li]
        else:
            prev = last_active[li]
            if prev is not None:
                usage = usages[li]
                usage[prev.name] = usage.get(prev.name, 0) + last_count[li]
            last_active[li] = active
            last_count[li] = 1
            compiled = compiled_maps[li].get(active.name)
            if compiled is None:
                compiled = lane.compiled_of(active, cstream, switch_cost_j)
            if compiled._dec_req is None:
                compiled.ensure_tables()
            last_compiled[li] = compiled
        latency, energy, switch = compiled.price_indices(batch, exit_lists[li])
        switch_acc[li] += switch

        end = start + latency
        sf_extend(batch)
        ss_append(size)
        se_append(end)
        group = correct_groups.get(id(compiled))
        if group is None:
            correct_groups[id(compiled)] = (compiled, list(batch))
        else:
            group[1].extend(batch)

        energy_acc[li] += energy
        busy_acc[li] += latency
        battery_spent += energy
        if has_battery and battery_spent > battery_budget_j:
            battery_exhausted = True
        if thermal is not None and latency > 0:
            thermal.advance(energy / latency, latency)
        clocks[li] = end
        t_free[li] = end
        nbatch_acc[li] += 1
        # Freed space re-admits parked requests first, ahead of any later
        # arrival.
        if waiting:
            space = max_queue - len(ca) - len(ba)
            while space > 0 and waiting:
                i, arrival, critical = waiting.popleft()
                if critical:
                    cqs[li].append(i)
                    ca.append(arrival)
                    lane.critical_requests += 1
                else:
                    bqs[li].append(i)
                    ba.append(arrival)
                ridx_append[li](i)
                space -= 1
        depth[li] = len(ca) + len(ba)
        # The popped heap entry is spent: always push the new pending.
        if ca or ba:
            expiry = (ca[0] if ca and (not ba or ca[0] <= ba[0]) else ba[0]) + timeout[li]
            mb = max_batch[li]
            if len(ca) + len(ba) >= mb:
                t = _nth_arrival(ca, ba, mb)
                trigger = t if t <= expiry else expiry
            else:
                trigger = expiry
            nxt = end if end > trigger else trigger
            pend[li] = nxt
            heap_push(heap, (nxt, li))
        else:
            pend[li] = inf

    # Arrival columns convert lazily per chunk: same Python floats as a
    # full .tolist(), without ~24 MB of boxed floats resident at 10⁶.
    chunk = 65536
    li = 0
    for lo in range(0, n, chunk):
        hi = min(lo + chunk, n)
        a_chunk = times_np[lo:hi].tolist()
        d_chunk = difficulty_np[lo:hi].tolist() if routed else None
        c_chunk = slo_class_np[lo:hi].tolist()
        last = hi - lo - 1
        for k in range(hi - lo):
            arrival = a_chunk[k]
            slo_class = c_chunk[k]
            if routed:
                li = route_block(d_chunk[k], slo_class, arrival, state)
                if recorder is not None:
                    # One routing call per arrival: the perfbench catalog
                    # reads these as blocks of size one.
                    recorder.count("fleet.blocks")
                    recorder.observe("fleet.block_size", 1)
            routed_append[li](arrival)
            critical = slo_class == LATENCY_CRITICAL
            if admit(li, critical):
                i = lo + k
                ridx_append[li](i)
                ca = cas[li]
                ba = bas[li]
                if critical:
                    cqs[li].append(i)
                    ca.append(arrival)
                    lanes[li].critical_requests += 1
                else:
                    bqs[li].append(i)
                    ba.append(arrival)
                # A push moves the pending start only when it seeds an
                # empty queue (timeout trigger) or fills a full batch — the
                # newest arrival is then the max_batch-th queued one.
                size = len(ca) + len(ba)
                mb = max_batch[li]
                if size == 1 or size == mb:
                    expiry = (
                        ca[0] if ca and (not ba or ca[0] <= ba[0]) else ba[0]
                    ) + timeout[li]
                    trigger = arrival if size == mb and arrival <= expiry else expiry
                    tf = t_free[li]
                    start = tf if tf > trigger else trigger
                    if start != pend[li]:
                        pend[li] = start
                        heap_push(heap, (start, li))
            elif defer:
                parked[li].append((lo + k, arrival, critical))
                lanes[li].num_deferred += 1
            else:
                lanes[li].num_dropped += 1

            if k < last:
                until = a_chunk[k + 1]
            elif hi < n:
                until = float(times_np[hi])
            else:
                until = inf
            # Drain: dispatch every batch that starts before the next
            # arrival, skipping entries whose lane pending has moved.
            while heap:
                start, lj = heap[0]
                if start >= until:
                    break
                heap_pop(heap)
                if pend[lj] != start:
                    continue
                # Form the batch at its dispatch instant: queued criticals
                # that arrived by the start, then best-effort ones.
                batch: list[int] = []
                room = max_batch[lj]
                if cas[lj]:
                    room -= _take(cqs[lj], cas[lj], start, room, batch)
                _take(bqs[lj], bas[lj], start, room, batch)
                dispatch(lj, start, batch)

    # Fold the hot-state accumulators back into the lane objects.
    for li, lane in enumerate(lanes):
        prev = last_active[li]
        if prev is not None and last_count[li]:
            usage = usages[li]
            usage[prev.name] = usage.get(prev.name, 0) + last_count[li]
        lane.config = configs[li]
        lane.next_decision = next_decision[li]
        lane.clock = clocks[li]
        lane.t_free = t_free[li]
        lane.energy_j = energy_acc[li]
        lane.busy_s = busy_acc[li]
        lane.switching_energy_j = switch_acc[li]
        lane.num_batches = nbatch_acc[li]
        lane.governor_decisions = ndecision_acc[li]
        lane.throttled = nthrottle_acc[li]
        lane.exit_counts += np.asarray(exit_lists[li], dtype=np.int64)

    # One scatter for completion/correctness instead of per-batch writes.
    if served_ends:
        flat = np.asarray(served_flat, dtype=np.int64)
        sizes = np.asarray(served_sizes, dtype=np.int64)
        completion[flat] = np.repeat(np.asarray(served_ends), sizes)
    for compiled, idx_list in correct_groups.values():
        idx = np.asarray(idx_list, dtype=np.int64)
        correct[idx] = compiled.correct[idx]
    return battery_spent, battery_exhausted


class ServingSimulator:
    """Replays one trace through one policy on one simulated device.

    Queue-free input (no ``admission`` policy, no latency-critical
    requests) runs on the span path.  Any other input needs a queue and runs
    on the lane loop with one lane and no router (:func:`serve_lanes`):
    latency-critical requests dispatch first within each batch window, and
    the admission gate drops or defers.  A one-lane
    :class:`~repro.serving.fleet.FleetSimulator` serves the same schedule.

    Parameters
    ----------
    evaluator, placement:
        The deployed DyNN (supplies per-path hardware profiles).
    policy:
        Static or adaptive serving policy.
    ladder:
        The full config menu — used for scenario scaling (hottest config
        anchors the thermal model) and as the throttle fallback, even when
        the policy itself is static.
    scenario:
        Environment (thermal cap / battery budget).
    slo_s:
        Per-request completion deadline.
    window_s:
        Governor decision period.  Backlog spikes (more than
        ``emergency_backlog_batches`` full batches in the system, counting
        the batch being formed) trigger an immediate re-decision instead of
        waiting out the window — burst onsets are reacted to at batch
        granularity.
    battery_budget_j:
        Absolute energy allowance (None = unconstrained); the harness
        derives it from the scenario's ``battery_scale``.
    admission:
        Optional queue-depth admission policy.
    """

    def __init__(
        self,
        evaluator: DynamicEvaluator,
        placement: ExitPlacement,
        policy: ServingPolicy,
        ladder: list[RuntimeConfig],
        scenario: Scenario,
        slo_s: float,
        batch_policy: BatchPolicy | None = None,
        window_s: float = 0.5,
        switch_cost_j: float = 0.0,
        battery_budget_j: float | None = None,
        emergency_backlog_batches: float = 2.0,
        admission: AdmissionPolicy | None = None,
    ):
        check_positive("slo_s", slo_s)
        check_positive("window_s", window_s)
        self.evaluator = evaluator
        self.placement = placement
        self.policy = policy
        self.ladder = list(ladder)
        self.scenario = scenario
        self.slo_s = slo_s
        self.batch_policy = batch_policy or BatchPolicy()
        self.window_s = window_s
        self.switch_cost_j = switch_cost_j
        self.battery_budget_j = battery_budget_j
        self.admission = admission
        self.emergency_backlog = emergency_backlog_batches * self.batch_policy.max_batch
        self._max_power_w = max(c.expected_power_w for c in self.ladder)
        self._coolest = min(self.ladder, key=lambda c: c.expected_power_w)
        self._profiles: dict[str, list[PathProfile]] = {}

    # ------------------------------------------------------------- internals
    def _profiles_of(self, config: RuntimeConfig) -> list[PathProfile]:
        if config.name not in self._profiles:
            self._profiles[config.name] = _profiles_for(
                self.evaluator, self.placement, config.dvfs_governor()
            )
        return self._profiles[config.name]

    def _observe(
        self,
        now_s: float,
        trace: Trace,
        arrivals: np.ndarray,
        batcher,
        thermal: ThermalState | None,
        battery_spent_j: float,
    ) -> GovernorObservation:
        window_start = max(0.0, now_s - self.window_s)
        lo = int(np.searchsorted(arrivals, window_start, side="left"))
        hi = int(np.searchsorted(arrivals, now_s, side="right"))
        span = max(now_s - window_start, 1e-9)
        rate = (hi - lo) / span if now_s > 0 else trace.mean_rate_hz
        power_cap = thermal.power_cap_w(self._max_power_w) if thermal else None
        energy_cap = None
        if self.battery_budget_j is not None:
            remaining_j = max(self.battery_budget_j - battery_spent_j, 0.0)
            remaining_requests = max(
                trace.mean_rate_hz * max(trace.duration_s - now_s, 0.0), 1.0
            )
            energy_cap = remaining_j / remaining_requests
        return GovernorObservation(
            now_s=now_s,
            window_s=self.window_s,
            arrival_rate_hz=rate,
            backlog=batcher.backlog_at(now_s),
            slo_s=self.slo_s,
            temperature_c=thermal.temperature_c if thermal else 0.0,
            power_cap_w=power_cap,
            energy_cap_j=energy_cap,
        )

    def _initial_config(self, trace: Trace) -> RuntimeConfig:
        return self.policy.select(
            GovernorObservation(
                now_s=0.0,
                window_s=self.window_s,
                arrival_rate_hz=trace.mean_rate_hz,
                backlog=0,
                slo_s=self.slo_s,
            )
        )

    # -------------------------------------------------------------- main loop
    def run(
        self,
        trace: Trace,
        stream: ServingStream,
        platform: str = "?",
        model: str = "?",
        seed: int = 0,
    ) -> ServingReport:
        """Serve the whole trace and aggregate telemetry."""
        with tracing.span(
            "serving.run",
            pattern=trace.pattern,
            scenario=self.scenario.name,
            policy=self.policy.name,
            requests=trace.num_requests,
        ):
            return self._run(trace, stream, platform, model, seed)

    def _run(
        self,
        trace: Trace,
        stream: ServingStream,
        platform: str,
        model: str,
        seed: int,
    ) -> ServingReport:
        n = trace.num_requests
        if stream.final_logits.shape[0] != n:
            raise ValueError(
                f"stream carries {stream.final_logits.shape[0]} requests, trace has {n}"
            )
        if stream.num_exits != self.placement.num_exits:
            raise ValueError(
                f"stream carries {stream.num_exits} exit heads but the deployed "
                f"placement expects {self.placement.num_exits}; the mounted "
                "logits stream and exit placement must describe the same DyNN"
            )
        if self.admission is not None or trace.num_critical:
            thermal, state = self._serve_lane(trace, stream)
        else:
            thermal = (
                ThermalState(self.scenario.thermal, self._max_power_w)
                if self.scenario.thermal is not None
                else None
            )
            state = self._serve(trace, stream, thermal)
        return self._build_report(trace, thermal, state, platform, model, seed)

    def _serve_lane(
        self, trace: Trace, stream: ServingStream
    ) -> tuple[ThermalState | None, _RunState]:
        """Queued input: the lane loop over one lane, without a router."""
        lane = Lane(
            0, self.policy, self.evaluator, self.placement, self.ladder, self.batch_policy
        )
        lane.begin(self.scenario, trace.mean_rate_hz, self.window_s, self.slo_s)
        tracing.count("serving.governor_decisions")
        n = trace.num_requests
        completion = np.full(n, np.nan)
        correct = np.zeros(n, dtype=bool)
        with gc_paused():
            battery_spent, battery_exhausted = serve_lanes(
                [lane],
                trace,
                compile_stream(stream),
                completion,
                correct,
                window_s=self.window_s,
                slo_s=self.slo_s,
                emergency_backlog=self.emergency_backlog,
                switch_cost_j=self.switch_cost_j,
                battery_budget_j=self.battery_budget_j,
                admission=self.admission,
            )
        return lane.thermal, _RunState(
            completion=completion,
            correct=correct,
            exit_counts=lane.exit_counts,
            total_energy=lane.energy_j,
            switching_energy=lane.switching_energy_j,
            battery_spent=battery_spent,
            battery_exhausted=battery_exhausted,
            num_batches=lane.num_batches,
            throttled=lane.throttled,
            governor_decisions=lane.governor_decisions,
            num_dropped=lane.num_dropped,
            num_deferred=lane.num_deferred,
            config_usage=lane.config_usage,
        )

    def _serve(
        self, trace: Trace, stream: ServingStream, thermal: ThermalState | None
    ) -> _RunState:
        """The span path: ArrayBatcher ranges + compiled executor."""
        n = trace.num_requests
        arrivals = trace.arrival_s
        batcher = ArrayBatcher(trace, self.batch_policy)
        cstream = compile_stream(stream)
        compiled: dict[str, _CompiledConfig] = {}

        def compiled_of(config: RuntimeConfig) -> _CompiledConfig:
            cc = compiled.get(config.name)
            if cc is None:
                cc = _CompiledConfig(
                    config, self._profiles_of(config), cstream, self.switch_cost_j
                )
                compiled[config.name] = cc
            return cc

        state = _RunState(
            completion=np.full(n, np.nan),
            correct=np.zeros(n, dtype=bool),
            exit_counts=np.zeros(self.placement.num_exits + 1, dtype=np.int64),
        )
        completion = state.completion
        correct = state.correct
        exit_counts = state.exit_counts
        clock = 0.0
        t_free = 0.0
        config = self._initial_config(trace)
        state.governor_decisions += 1
        tracing.count("serving.governor_decisions")
        next_decision = self.window_s

        # Hot-loop locals: at 10⁶ requests the attribute chases and no-op
        # tracing shims are real costs, so the loop binds everything once
        # (the recorder cannot change mid-run — it is thread-scoped and this
        # loop is synchronous) and writes the meters back at the end.
        recorder = tracing.active()
        policy_select = self.policy.select
        window_s = self.window_s
        emergency_backlog = self.emergency_backlog
        battery_budget = self.battery_budget_j
        config_usage = state.config_usage
        backlog_at = batcher.backlog_at
        next_span = batcher.next_span
        num_batches = 0
        total_energy = 0.0
        battery_spent = 0.0
        switching_energy = 0.0
        # Writes of `correct`/`exit_counts` are flushed per *run* of
        # consecutive batches priced by the same compiled config — one
        # slice copy and one bincount per config stretch instead of per
        # batch (a static nominal run flushes exactly once).
        run_cc: _CompiledConfig | None = None
        run_lo = run_hi = 0

        def flush_run() -> None:
            if run_cc is not None and run_hi > run_lo:
                correct[run_lo:run_hi] = run_cc.correct[run_lo:run_hi]
                counts = np.bincount(
                    run_cc.decisions[run_lo:run_hi], minlength=len(exit_counts)
                )
                np.add(exit_counts, counts, out=exit_counts)

        while (formed := next_span(t_free)) is not None:
            start, lo, hi = formed
            size = hi - lo
            if thermal is not None and start > clock:
                thermal.advance(0.0, start - clock)  # idle: device cools
            # Spike check counts the in-flight batch: the batcher already
            # popped it, but it is still unserved work.
            spike = backlog_at(start) + size > emergency_backlog
            if start >= next_decision or spike:
                state.battery_spent = battery_spent
                obs = self._observe(
                    start, trace, arrivals, batcher, thermal, battery_spent
                )
                config = policy_select(obs)
                state.governor_decisions += 1
                if recorder is not None:
                    recorder.count("serving.governor_decisions", 1)
                next_decision = start + window_s

            active = config
            if thermal is not None and thermal.throttled:
                active = self._coolest
                state.throttled += 1
                if recorder is not None:
                    recorder.count("serving.throttled_batches", 1)
            name = active.name
            config_usage[name] = config_usage.get(name, 0) + 1
            if recorder is not None:
                recorder.count("serving.batches", 1)
                recorder.observe("serving.batch_size", size)

            cc = compiled_of(active)
            if cc._dec_req is None:
                cc.ensure_tables()
            latency, energy, switch = cc.price_span(lo, hi)
            if cc is run_cc and lo == run_hi:
                run_hi = hi
            else:
                flush_run()
                run_cc, run_lo, run_hi = cc, lo, hi
            completion[lo:hi] = start + latency
            switching_energy += switch

            end = start + latency
            total_energy += energy
            battery_spent += energy
            if battery_budget is not None and battery_spent > battery_budget:
                state.battery_exhausted = True
            if thermal is not None and latency > 0:
                thermal.advance(energy / latency, latency)
            clock = end
            t_free = end
            num_batches += 1

        flush_run()
        state.num_batches = num_batches
        state.total_energy = total_energy
        state.battery_spent = battery_spent
        state.switching_energy = switching_energy
        return state

    def _build_report(
        self,
        trace: Trace,
        thermal: ThermalState | None,
        state: _RunState,
        platform: str,
        model: str,
        seed: int,
    ) -> ServingReport:
        n = trace.num_requests
        arrivals = trace.arrival_s
        completion = state.completion
        served = ~np.isnan(completion)
        num_served = int(served.sum())
        latencies = completion[served] - arrivals[served]
        makespan = max(
            float(np.max(completion[served])) if num_served else 0.0, trace.duration_s
        )
        num_batches = state.num_batches
        return ServingReport(
            pattern=trace.pattern,
            scenario=self.scenario.name,
            policy=self.policy.name,
            platform=platform,
            model=model,
            seed=seed,
            slo_ms=self.slo_s * 1e3,
            num_requests=n,
            duration_s=trace.duration_s,
            offered_rate_rps=trace.mean_rate_hz,
            throughput_rps=num_served / makespan if makespan > 0 else 0.0,
            num_batches=num_batches,
            mean_batch_size=num_served / num_batches if num_batches else 0.0,
            latency_ms_mean=float(latencies.mean() * 1e3) if num_served else 0.0,
            latency_ms_p50=percentile_ms(latencies, 50),
            latency_ms_p95=percentile_ms(latencies, 95),
            latency_ms_p99=percentile_ms(latencies, 99),
            deadline_miss_rate=float((latencies > self.slo_s).mean())
            if num_served
            else 0.0,
            energy_per_request_j=state.total_energy / num_served if num_served else 0.0,
            total_energy_j=state.total_energy,
            switching_energy_j=state.switching_energy,
            accuracy=float(state.correct[served].mean()) if num_served else 0.0,
            exit_usage=[
                float(c) / num_served if num_served else 0.0 for c in state.exit_counts
            ],
            config_usage=state.config_usage,
            governor_decisions=state.governor_decisions,
            throttled_batches=state.throttled,
            peak_temperature_c=thermal.peak_c if thermal is not None else 0.0,
            battery_budget_j=self.battery_budget_j or 0.0,
            battery_spent_j=state.battery_spent
            if self.battery_budget_j is not None
            else 0.0,
            battery_exhausted=state.battery_exhausted,
            num_served=num_served,
            num_dropped=state.num_dropped,
            num_deferred=state.num_deferred,
            drop_rate=state.num_dropped / n if n else 0.0,
            class_stats=class_latency_stats(
                trace.slo_class, SLO_CLASSES, arrivals, completion, self.slo_s
            ),
        )
