"""Frozen reference serving engines.

The single-device object loop (a deque :class:`MicroBatcher` feeding a
per-batch :func:`execute_batch`), the fleet's per-request scalar loop with
its lane queue, and the routers' scalar ``route`` methods are the
executable specification the production serving engines in
``src/repro/serving`` were derived from.  Their bodies are kept here
verbatim, with three changes: the batch sums add left to right (Python
3.12's builtin ``sum`` compensates float rounding, which would make these
references depend on the interpreter), the difficulty-aware router's
band cache is gone (a router serves the one fleet it was built for), and
a fleet lane's batch takes its arrived latency-critical requests first
(the single device's rule, which the fleet adopted when both moved onto
one queue model).  The fleet lane keeps its own FIFO queue and arrival
books, which the production lane replaced with one queue per class.

The serving tests and ``benchmarks/bench_fleet_scale.py`` compare
production against this code, and ``tests/test_oracles.py`` pins its
reports with golden digests, so an edit here fails a test even when
production drifts along with it.

Both simulators keep the production set-up, validation and reporting and
replace only the serving loop::

    ReferenceServingSimulator(evaluator=..., placement=..., ...).run(trace, stream)
    run_fleet_cell_reference(FleetSpec(...))
"""

from __future__ import annotations

from bisect import bisect_right
from collections import deque
from dataclasses import dataclass
from typing import Protocol, Sequence

import numpy as np

from repro.hardware.energy import PathProfile
from repro.obs import trace as tracing
from repro.serving.batcher import BatchPolicy
from repro.serving.fleet import (
    DeviceLane,
    FleetReport,
    FleetSimulator,
    FleetSpec,
    build_fleet_stacks,
    build_fleet_trace_and_stream,
)
from repro.serving.router import (
    DifficultyAwareRouter,
    FleetRouter,
    LeastBacklogRouter,
    RoundRobinRouter,
)
from repro.serving.scenarios import ThermalState
from repro.serving.simulator import (
    CompiledStream,
    ServingSimulator,
    _CompiledConfig,
    _RunState,
)
from repro.serving.stream import ServingStream
from repro.serving.workload import LATENCY_CRITICAL, Request, Trace

__all__ = [
    "BatchOutcome",
    "LaneState",
    "MicroBatcher",
    "ReferenceDeviceLane",
    "ReferenceFleetSimulator",
    "ReferenceServingSimulator",
    "batched_execution_reference",
    "execute_batch",
    "price_reference",
    "run_fleet_cell_reference",
    "scalar_router",
]


# ------------------------------------------------------------ single device
class MicroBatcher:
    """Deterministically forms micro-batches from a timestamped trace.

    Drive it with the device's next-free time: each :meth:`next_batch` call
    returns ``(start_s, batch)`` — the dispatch timestamp and the requests in
    it — or ``None`` when the trace is exhausted.  ``ArrayBatcher`` must stay
    bit-identical to it on the default (no admission, single class) path.
    """

    def __init__(self, trace: Trace, policy: BatchPolicy):
        self.policy = policy
        self._arrivals: tuple[Request, ...] = trace.requests
        self._times: list[float] = trace.arrival_s.tolist()
        self._next = 0  # index of the next not-yet-queued arrival
        self._queue: deque[Request] = deque()

    @property
    def pending(self) -> int:
        """Requests currently queued (admitted but not dispatched)."""
        return len(self._queue)

    def backlog_at(self, now_s: float) -> int:
        """Requests that have *arrived* but not been dispatched by ``now_s``."""
        arrived = bisect_right(self._times, now_s)
        return len(self._queue) + max(arrived - self._next, 0)

    def critical_backlog_at(self, now_s: float) -> int:
        """The reference batcher is class-agnostic: no critical accounting."""
        return 0

    def _admit_until(self, cutoff_s: float) -> None:
        while (
            len(self._queue) < self.policy.max_batch
            and self._next < len(self._arrivals)
            and self._arrivals[self._next].arrival_s <= cutoff_s
        ):
            self._queue.append(self._arrivals[self._next])
            self._next += 1

    def next_batch(self, device_free_s: float) -> tuple[float, list[Request]] | None:
        """Form the next batch given when the device frees up.

        Dispatch time is ``max(device_free_s, trigger)`` where the trigger is
        either the arrival of the batch-filling request or the head-of-line
        timeout expiry.  Requests arriving while the batch waits for the
        device join it up to ``max_batch``.
        """
        if not self._queue:
            if self._next >= len(self._arrivals):
                return None
            self._queue.append(self._arrivals[self._next])
            self._next += 1
        head = self._queue[0]
        expiry = head.arrival_s + self.policy.timeout_s
        self._admit_until(expiry)
        if len(self._queue) >= self.policy.max_batch:
            trigger = self._queue[self.policy.max_batch - 1].arrival_s
        else:
            trigger = expiry
        start = max(device_free_s, trigger)
        self._admit_until(start)  # opportunistic fill while waiting for the device
        size = min(self.policy.max_batch, len(self._queue))
        batch = [self._queue.popleft() for _ in range(size)]
        return start, batch


def batched_execution_reference(profiles: Sequence[PathProfile]) -> tuple[float, float]:
    """(latency, energy) of one micro-batch, summed left to right."""
    if not profiles:
        return 0.0, 0.0
    longest = max(profiles, key=lambda p: p.overhead_s)
    busy = 0.0
    energy = 0.0
    for p in profiles:
        busy += p.busy_s
        energy += p.dynamic_energy_j + p.passive_power_w * p.busy_s
    return (
        busy + longest.overhead_s,
        energy + longest.passive_power_w * longest.overhead_s,
    )


@dataclass(frozen=True)
class BatchOutcome:
    """Result of pricing one micro-batch through the deployed DyNN."""

    decisions: object  # per-request exit index (num_exits = full network)
    latency_s: float
    energy_j: float  # includes switching energy
    switching_j: float
    correct: np.ndarray  # per-request correctness flags


def execute_batch(controller, profiles, dvfs_governor, stream, indices) -> BatchOutcome:
    """Run one micro-batch: real exit decisions + physical batch pricing."""
    exit_logits, final_logits, labels = stream.batch(indices)
    decisions = controller.decide(exit_logits)
    latency, energy = batched_execution_reference([profiles[d] for d in decisions])
    switch = dvfs_governor.switching_energy(decisions)
    num_exits = stream.num_exits
    correct = np.empty(len(indices), dtype=bool)
    for j, d in enumerate(decisions):
        if d < num_exits:
            correct[j] = exit_logits[d, j].argmax() == labels[j]
        else:
            correct[j] = final_logits[j].argmax() == labels[j]
    return BatchOutcome(
        decisions=decisions,
        latency_s=latency,
        energy_j=energy + switch,
        switching_j=switch,
        correct=correct,
    )


class ReferenceServingSimulator(ServingSimulator):
    """:class:`ServingSimulator` serving through the original object loop.

    Class-agnostic and without admission control: it predates both, so it
    refuses an ``AdmissionPolicy`` and SLO-tagged traces.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        if self.admission is not None:
            raise ValueError("the reference engine predates admission control")
        self._controllers: dict[str, object] = {}

    def _controller_of(self, config):
        if config.name not in self._controllers:
            self._controllers[config.name] = config.controller()
        return self._controllers[config.name]

    def _serve(
        self, trace: Trace, stream: ServingStream, thermal: ThermalState | None
    ) -> _RunState:
        """The original object loop: MicroBatcher + per-batch controller."""
        if trace.num_critical:
            raise ValueError("the reference engine is class-agnostic")
        n = trace.num_requests
        arrivals = trace.arrival_s
        batcher = MicroBatcher(trace, self.batch_policy)
        state = _RunState(
            completion=np.full(n, np.nan),
            correct=np.zeros(n, dtype=bool),
            exit_counts=np.zeros(self.placement.num_exits + 1, dtype=np.int64),
        )
        clock = 0.0  # last simulated instant (for thermal integration)
        t_free = 0.0
        config = self._initial_config(trace)
        state.governor_decisions += 1
        tracing.count("serving.governor_decisions")
        next_decision = self.window_s

        while (formed := batcher.next_batch(t_free)) is not None:
            start, batch = formed
            if thermal is not None and start > clock:
                thermal.advance(0.0, start - clock)  # idle: device cools
            # Spike check counts the in-flight batch: next_batch already
            # popped it off the queue, but it is still unserved work.
            spike = batcher.backlog_at(start) + len(batch) > self.emergency_backlog
            if start >= next_decision or spike:
                obs = self._observe(
                    start, trace, arrivals, batcher, thermal, state.battery_spent
                )
                config = self.policy.select(obs)
                state.governor_decisions += 1
                tracing.count("serving.governor_decisions")
                next_decision = start + self.window_s

            active = config
            if thermal is not None and thermal.throttled:
                active = self._coolest  # hardware throttle overrides the policy
                state.throttled += 1
                tracing.count("serving.throttled_batches")
            state.config_usage[active.name] = state.config_usage.get(active.name, 0) + 1
            tracing.count("serving.batches")
            tracing.observe("serving.batch_size", len(batch))

            indices = np.asarray([r.index for r in batch], dtype=np.int64)
            outcome = execute_batch(
                self._controller_of(active),
                self._profiles_of(active),
                active.dvfs_governor(self.switch_cost_j),
                stream,
                indices,
            )
            state.switching_energy += outcome.switching_j

            end = start + outcome.latency_s
            state.completion[indices] = end
            state.correct[indices] = outcome.correct
            for d in outcome.decisions:
                state.exit_counts[d] += 1

            state.total_energy += outcome.energy_j
            state.battery_spent += outcome.energy_j
            if (
                self.battery_budget_j is not None
                and state.battery_spent > self.battery_budget_j
            ):
                state.battery_exhausted = True
            if thermal is not None and outcome.latency_s > 0:
                thermal.advance(outcome.energy_j / outcome.latency_s, outcome.latency_s)
            clock = end
            t_free = end
            state.num_batches += 1
        return state


# -------------------------------------------------------------------- fleet
def price_reference(
    compiled: _CompiledConfig, decisions: np.ndarray
) -> tuple[float, float, float]:
    """(latency_s, energy_j incl. switching, switching_j) for one batch.

    The shared-overhead path is the *first* maximum, like
    ``max(..., key=...)``.
    """
    busy = np.asarray(compiled._busy)[decisions]
    over = np.asarray(compiled._over)[decisions]
    busy_sum = 0.0
    for value in busy.tolist():
        busy_sum += value
    longest = int(np.argmax(over))  # first occurrence, like max(key=...)
    latency = busy_sum + float(over[longest])
    energy = 0.0
    for value in np.asarray(compiled._unit)[decisions].tolist():
        energy += value
    energy += float(np.asarray(compiled._passive)[decisions[longest]] * over[longest])
    switch = 0.0
    if compiled._switch_cost_j and len(decisions) >= 2:
        sids = np.asarray(compiled._sid, dtype=np.int64)[decisions]
        transitions = int(np.count_nonzero(sids[1:] != sids[:-1]))
        switch = transitions * compiled._switch_cost_j
    return latency, energy + switch, switch


class LaneState(Protocol):
    """What a scalar router may observe about one device lane."""

    index: int
    t_free: float

    @property
    def queue_depth(self) -> int: ...

    @property
    def reference_capacity_rps(self) -> float: ...

    def estimated_wait_s(self, now_s: float) -> float: ...


class ReferenceRoundRobinRouter(RoundRobinRouter):
    def route(
        self,
        difficulty: float,
        slo_class: int,
        now_s: float,
        lanes: Sequence[LaneState],
    ) -> int:
        index = self._next % len(lanes)
        self._next += 1
        return index


class ReferenceLeastBacklogRouter(LeastBacklogRouter):
    def route(
        self,
        difficulty: float,
        slo_class: int,
        now_s: float,
        lanes: Sequence[LaneState],
    ) -> int:
        return min(lanes, key=lambda lane: (lane.estimated_wait_s(now_s), lane.index)).index


class ReferenceDifficultyAwareRouter(DifficultyAwareRouter):
    def route(
        self,
        difficulty: float,
        slo_class: int,
        now_s: float,
        lanes: Sequence[LaneState],
    ) -> int:
        chosen = self.banded_lane(difficulty)
        threshold = self.spill_fraction * self.slo_s
        if slo_class == LATENCY_CRITICAL:
            threshold *= 0.5  # criticals abandon a backlogged band early
        if lanes[chosen].estimated_wait_s(now_s) > threshold:
            spill = min(
                lanes, key=lambda lane: (lane.estimated_wait_s(now_s), lane.index)
            )
            return spill.index
        return chosen


_SCALAR_ROUTERS: dict[type, type] = {
    RoundRobinRouter: ReferenceRoundRobinRouter,
    LeastBacklogRouter: ReferenceLeastBacklogRouter,
    DifficultyAwareRouter: ReferenceDifficultyAwareRouter,
}


def scalar_router(router: FleetRouter) -> FleetRouter:
    """Re-class a production router in place so it gains the scalar
    ``route(difficulty, slo_class, now_s, lanes)`` method; returns it."""
    router.__class__ = _SCALAR_ROUTERS[type(router)]
    return router


class ReferenceDeviceLane(DeviceLane):
    """:class:`DeviceLane` with the reference loop's explicit queue methods
    and the scalar routers' wait estimate.

    The queue holds request *indices* in one FIFO by arrival, with each
    one's class; arrival bookkeeping is an append-only sorted list plus pop
    counters, so :meth:`backlog_at` is a bisect.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._reset_queue()

    def _reset_queue(self) -> None:
        # Live queue: routed-but-undispatched request indices, FIFO by arrival.
        self._queue: deque[int] = deque()
        self._queue_arrivals: deque[float] = deque()
        self._queue_critical: deque[bool] = deque()
        # Append-only arrival books (sorted: requests route in arrival order).
        self._admitted_times: list[float] = []  # admitted arrivals ever
        self._crit_times: list[float] = []  # admitted latency-critical arrivals
        self._popped = 0  # dispatched prefix of _admitted_times
        self._crit_popped = 0  # dispatched prefix of _crit_times

    @property
    def queue_depth(self) -> int:
        return len(self._queue)

    def backlog_at(self, now_s: float) -> int:
        """Routed requests that have arrived but not dispatched by ``now_s``.

        Dispatch pops only arrivals ≤ the dispatch instant, so at any
        observation time the simulator uses (a batch start or later) the
        count is exactly (admitted arrivals ≤ now) − (popped); querying an
        earlier instant clamps at zero.
        """
        popped = self._popped
        return max(bisect_right(self._admitted_times, now_s, popped) - popped, 0)

    def critical_backlog_at(self, now_s: float) -> int:
        """Latency-critical share of :meth:`backlog_at`."""
        if not self._crit_times:
            return 0
        popped = self._crit_popped
        return max(bisect_right(self._crit_times, now_s, popped) - popped, 0)

    def estimated_wait_s(self, now_s: float) -> float:
        """Residual busy time plus queued work at reference capacity."""
        residual = max(self.t_free - now_s, 0.0)
        return residual + self.queue_depth / self.reference_capacity_rps

    def push(self, index: int, arrival_s: float, critical: bool) -> None:
        self._queue.append(index)
        self._queue_arrivals.append(arrival_s)
        self._queue_critical.append(critical)
        self._admitted_times.append(arrival_s)
        self._routed_times.append(arrival_s)
        self.request_indices.append(index)
        if critical:
            self._crit_times.append(arrival_s)
            self.critical_requests += 1

    def reject(self, arrival_s: float) -> None:
        """Record an admission drop at this lane's door.

        The offered arrival still counts toward the governor's rate window —
        demand the lane sheds is still demand it saw.
        """
        self._routed_times.append(arrival_s)
        self.num_dropped += 1

    def pending_start_s(self) -> float | None:
        """Dispatch instant of the next batch, were it formed now.

        Re-derives the :class:`MicroBatcher` trigger (full-batch fill or
        head-of-line timeout, whichever comes first, floored by the
        device-free time) for a queue that only knows arrivals routed so
        far.  ``None`` when the queue is empty.
        """
        if not self._queue:
            return None
        policy = self.stack.batch_policy
        expiry = self._queue_arrivals[0] + policy.timeout_s
        if (
            len(self._queue) >= policy.max_batch
            and self._queue_arrivals[policy.max_batch - 1] <= expiry
        ):
            trigger = self._queue_arrivals[policy.max_batch - 1]
        else:
            trigger = expiry
        return max(self.t_free, trigger)

    def next_ready_batch(self, until_s: float) -> tuple[float, list[int]] | None:
        """Form the next batch, but only once the fleet clock reaches it.

        A batch is returned only when it dispatches before the next fleet
        arrival (``until_s``), so no future arrival could still join it
        (opportunistic fill up to the dispatch instant, as in the
        single-device batcher) and — just as important — the governor
        observations made at dispatch see every arrival up to the dispatch
        instant, exactly like the single-device simulator's.
        """
        start = self.pending_start_s()
        if start is None or start >= until_s:
            return None  # empty, or the fleet clock has not reached it yet
        policy = self.stack.batch_policy
        arrived = 0
        for arrival in self._queue_arrivals:
            if arrival > start:
                break
            arrived += 1
        # Critical-first: the arrived latency-critical requests, then the
        # arrived best-effort ones, each in arrival order, up to max_batch.
        entries = list(zip(self._queue, self._queue_arrivals, self._queue_critical))
        order = [k for k in range(arrived) if entries[k][2]]
        order += [k for k in range(arrived) if not entries[k][2]]
        chosen = order[: policy.max_batch]
        batch = [entries[k][0] for k in chosen]
        taken = set(chosen)
        rest = [entry for k, entry in enumerate(entries) if k not in taken]
        self._queue = deque(index for index, _, _ in rest)
        self._queue_arrivals = deque(arrival for _, arrival, _ in rest)
        self._queue_critical = deque(critical for _, _, critical in rest)
        self._popped += len(chosen)
        self._crit_popped += sum(1 for k in chosen if entries[k][2])
        return start, batch


class ReferenceFleetSimulator(FleetSimulator):
    """:class:`FleetSimulator` serving through the original per-request loop."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        for lane in self.lanes:
            lane.__class__ = ReferenceDeviceLane
            lane._reset_queue()

    def _serve(
        self,
        trace: Trace,
        router: FleetRouter,
        cstream: CompiledStream,
        completion: np.ndarray,
        correct: np.ndarray,
        battery_budget: float | None,
    ) -> FleetReport:
        """The original per-request loop — the executable specification.

        Every routing, admission, batching and governor decision here is
        the contract the production loop must reproduce bit-for-bit.
        Arrival columns convert to Python floats lazily, one chunk at a
        time, instead of materialising three full million-entry lists
        upfront.
        """
        router = scalar_router(router)
        n = trace.num_requests
        battery_spent = 0.0
        battery_exhausted = False

        def dispatch(lane: DeviceLane, start: float, batch: list[int]) -> None:
            nonlocal battery_spent, battery_exhausted
            if lane.thermal is not None and start > lane.clock:
                lane.thermal.advance(0.0, start - lane.clock)  # idle: device cools
            # Spike check counts the in-flight batch: next_ready_batch
            # already popped it, but it is still unserved work.
            spike = lane.backlog_at(start) + len(batch) > self.emergency_backlog
            if start >= lane.next_decision or spike:
                obs = self._observe(lane, start, trace, battery_budget, battery_spent)
                lane.config = lane.policy.select(obs)
                lane.governor_decisions += 1
                tracing.count("fleet.governor_decisions")
                lane.next_decision = start + self.window_s
            active = lane.config
            if lane.thermal is not None and lane.thermal.throttled:
                active = lane.coolest  # hardware throttle overrides the policy
                lane.throttled += 1
            lane.config_usage[active.name] = lane.config_usage.get(active.name, 0) + 1
            tracing.count("fleet.batches")
            tracing.count(f"fleet.lane.{lane.stack.spec.platform}.batches")
            tracing.observe("fleet.batch_size", len(batch))

            indices = np.asarray(batch, dtype=np.int64)
            compiled = lane.compiled_of(active, cstream, self.switch_cost_j)
            decisions = compiled.decisions[indices]
            latency, energy, switch = price_reference(compiled, decisions)
            lane.switching_energy_j += switch

            end = start + latency
            completion[indices] = end
            correct[indices] = compiled.correct[indices]
            lane.exit_counts += np.bincount(decisions, minlength=len(lane.exit_counts))

            lane.energy_j += energy
            lane.busy_s += latency
            battery_spent += energy
            if battery_budget is not None and battery_spent > battery_budget:
                battery_exhausted = True
            if lane.thermal is not None and latency > 0:
                lane.thermal.advance(energy / latency, latency)
            lane.clock = end
            lane.t_free = end
            lane.num_batches += 1

        def drain(until: float) -> None:
            # Dispatch ready batches across lanes in ascending start time
            # (ties break on lane index): governors observing shared fleet
            # state (the battery meter) always see it as of a simulated
            # instant no later than their own decision time.
            while True:
                best: DeviceLane | None = None
                best_start = float("inf")
                for lane in self.lanes:
                    start = lane.pending_start_s()
                    if start is not None and start < until and start < best_start:
                        best, best_start = lane, start
                if best is None:
                    break
                formed = best.next_ready_batch(until)
                dispatch(best, *formed)

        admission = self.admission
        lanes = self.lanes
        # Arrival columns convert lazily per chunk: same Python floats as a
        # full .tolist(), without ~24 MB of boxed floats resident at 10⁶.
        chunk = 65536
        for lo in range(0, n, chunk):
            hi = min(lo + chunk, n)
            times = trace.arrival_s[lo:hi].tolist()
            difficulties = trace.difficulty[lo:hi].tolist()
            classes = trace.slo_class[lo:hi].tolist()
            for k in range(hi - lo):
                i = lo + k
                arrival = times[k]
                slo_class = classes[k]
                lane = lanes[router.route(difficulties[k], slo_class, arrival, lanes)]
                critical = slo_class == LATENCY_CRITICAL
                if (
                    admission is not None
                    and lane.queue_depth >= admission.max_queue
                    and not (critical and admission.critical_bypass)
                ):
                    lane.reject(arrival)
                else:
                    lane.push(i, arrival, critical)
                if k + 1 < hi - lo:
                    drain(times[k + 1])
                elif hi < n:
                    drain(float(trace.arrival_s[hi]))
                else:
                    drain(float("inf"))
        drain(float("inf"))

        return self._report(trace, completion, correct, battery_budget,
                            battery_spent, battery_exhausted)


def run_fleet_cell_reference(spec: FleetSpec) -> FleetReport:
    """``run_fleet_cell`` through the reference loop."""
    stacks = build_fleet_stacks(spec)
    trace, stream = build_fleet_trace_and_stream(spec, stacks)
    return ReferenceFleetSimulator(spec, stacks).run(trace, stream)
