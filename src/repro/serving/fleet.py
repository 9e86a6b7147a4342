"""Heterogeneous multi-device fleet serving behind one shared queue.

A fleet is N simulated edge devices from the platform registry — a TX2
GPU next to an AGX Xavier next to a Denver CPU — all mounting the *same*
dynamic network (default spread or a searched
:class:`~repro.serving.deploy.DeployedDesign`), each with its own runtime
config ladder, micro-batcher, governor and thermal state (all reused from
the single-device stack).  One trace arrives at a shared front door; a
pluggable :class:`~repro.serving.router.FleetRouter` assigns every request
to a device lane at arrival time (latency-critical requests spill off
backlogged lanes earlier than best-effort ones), and each lane then
batches and serves its share.

The lanes run on the lane loop, :func:`~repro.serving.simulator.serve_lanes`
— the one queue model the single-device simulator also uses for admission-
gated or SLO-class input.  Each lane keeps one FIFO per SLO class and
dispatches latency-critical requests first within each batch window, so
a one-lane fleet serves exactly the single device's schedule.

With an :class:`~repro.serving.batcher.AdmissionPolicy` the fleet applies
queue-depth admission at the lane door: a request routed to a full lane is
dropped (fleet admission is drop-only — "defer" would amount to
re-routing, which the router spill guard already does at arrival time).
Dropped requests never complete (NaN completion); latency statistics cover
served requests only.

The frozen per-request reference loop this engine reproduces bit for bit
lives in ``tests/oracles/serving.py``.

:func:`run_fleet_cell` is the pure cell function; :func:`fleet_sweep` fans
grids through the :class:`~repro.engine.service.EvaluationService` with
results persisted under the ``fleet`` cache namespace.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import numpy as np

from repro.engine.cache import ResultCache
from repro.engine.service import EvaluationService
from repro.engine.tasks import spec_task, task_spec
from repro.hardware.platform import resolve_platform_keys
from repro.serving.batcher import AdmissionPolicy
from repro.serving.deploy import DeployedDesign
from repro.serving.governor import (
    AdaptiveGovernor,
    GovernorObservation,
    ServingPolicy,
    StaticPolicy,
    static_config_for,
)
from repro.serving.harness import (
    ServingSpec,
    ServingStack,
    build_serving_stack,
    reference_config,
)
from repro.serving.router import ROUTER_NAMES, FleetRouter, make_router
from repro.serving.scenarios import Scenario, get_scenario
from repro.serving.simulator import (
    CompiledStream,
    Lane,
    compile_stream,
    gc_paused,
    serve_lanes,
)
from repro.serving.stream import ServingStream
from repro.serving.telemetry import class_latency_stats, percentile_ms
from repro.serving.workload import SLO_CLASSES, Trace, make_trace
from repro.utils.validation import check_positive

#: Bump when fleet-cell semantics change; orphans persisted fleet entries.
FLEET_CELL_VERSION = "5"


@dataclass(frozen=True)
class FleetSpec:
    """Everything one fleet serving run depends on, as plain data.

    ``platforms`` accepts registry keys or aliases ("tx2", "xavier"); they
    are canonicalised at construction so cache keys do not fork on
    spelling.  The same model (named AttentiveNAS mount or searched
    ``design``) is deployed on every device — the paper's premise is one
    dynamic network scaling across heterogeneous hardware.
    """

    platforms: tuple[str, ...] = ("tx2-gpu", "agx-gpu")
    model: str = "a3"
    pattern: str = "poisson"
    scenario: str = "nominal"
    policy: str = "adaptive"
    router: str = "difficulty_aware"
    slo_ms: float = 75.0
    utilization: float = 0.7  # offered load relative to fleet reference capacity
    rate_hz: float | None = None  # explicit fleet arrival rate overrides utilization
    duration_s: float = 20.0
    num_exits: int = 3
    seed: int = 7
    max_batch: int = 6
    batch_timeout_ms: float = 4.0
    window_ms: float = 400.0
    num_classes: int = 10
    calibration_samples: int = 512
    design: DeployedDesign | None = None
    critical_fraction: float = 0.0  # share of latency-critical arrivals
    admission_max_queue: int | None = None  # per-lane cap; None = unbounded
    admission_critical_bypass: bool = True

    def __post_init__(self):
        if not self.platforms:
            raise ValueError("a fleet needs at least one platform")
        object.__setattr__(
            self, "platforms", tuple(resolve_platform_keys(self.platforms))
        )
        if self.router not in ROUTER_NAMES:
            raise ValueError(f"unknown router {self.router!r}; valid: {ROUTER_NAMES}")
        # Every member is built from a device spec: apply the single-device
        # rules here, so a bad spec fails at construction (and the CLI
        # through ``parser.error``) instead of inside the sweep.
        self.device_spec(self.platforms[0], self.rate_hz)
        if not 0.0 <= self.critical_fraction <= 1.0:
            raise ValueError("critical_fraction must lie in [0, 1]")
        if self.admission_max_queue is not None:
            check_positive("admission_max_queue", self.admission_max_queue)

    def device_spec(self, platform: str, rate_hz: float | None = None) -> ServingSpec:
        """The single-device spec a fleet member is built from."""
        return ServingSpec(
            platform=platform,
            model=self.model,
            pattern=self.pattern,
            scenario=self.scenario,
            policy=self.policy,
            slo_ms=self.slo_ms,
            utilization=self.utilization,
            rate_hz=rate_hz,
            duration_s=self.duration_s,
            num_exits=self.num_exits,
            seed=self.seed,
            max_batch=self.max_batch,
            batch_timeout_ms=self.batch_timeout_ms,
            window_ms=self.window_ms,
            num_classes=self.num_classes,
            calibration_samples=self.calibration_samples,
            design=self.design,
        )

    def admission_policy(self) -> AdmissionPolicy | None:
        if self.admission_max_queue is None:
            return None
        return AdmissionPolicy(
            max_queue=self.admission_max_queue,
            mode="drop",
            critical_bypass=self.admission_critical_bypass,
        )

    @property
    def model_label(self) -> str:
        if self.design is not None:
            return f"{self.design.label}:{self.design.backbone.key}"
        return self.model


@dataclass(frozen=True)
class DeviceTelemetry:
    """Per-device slice of a fleet run (plain data, cache-safe)."""

    platform: str
    requests: int
    share: float  # fraction of fleet requests served here (lane drops excluded)
    batches: int
    mean_batch_size: float
    utilization: float  # busy seconds / fleet makespan
    latency_ms_p50: float
    latency_ms_p95: float
    latency_ms_p99: float
    deadline_miss_rate: float
    energy_j: float
    energy_per_request_j: float
    switching_energy_j: float
    accuracy: float
    exit_usage: list[float] = field(default_factory=list)
    config_usage: dict[str, int] = field(default_factory=dict)
    governor_decisions: int = 0
    throttled_batches: int = 0
    peak_temperature_c: float = 0.0
    critical_requests: int = 0  # latency-critical requests served here
    num_dropped: int = 0  # admission drops at this lane's door


@dataclass(frozen=True)
class FleetReport:
    """Aggregate outcome of one fleet run (one trace × one router)."""

    # Identity
    pattern: str
    scenario: str
    policy: str
    router: str
    model: str
    seed: int
    slo_ms: float
    platforms: list[str] = field(default_factory=list)
    # Traffic
    num_requests: int = 0
    duration_s: float = 0.0
    offered_rate_rps: float = 0.0
    throughput_rps: float = 0.0
    # Latency / SLO (cross-device, served requests only)
    latency_ms_mean: float = 0.0
    latency_ms_p50: float = 0.0
    latency_ms_p95: float = 0.0
    latency_ms_p99: float = 0.0
    deadline_miss_rate: float = 0.0
    # Energy / accuracy (fleet totals)
    energy_per_request_j: float = 0.0
    total_energy_j: float = 0.0
    switching_energy_j: float = 0.0
    accuracy: float = 0.0
    exit_usage: list[float] = field(default_factory=list)
    governor_decisions: int = 0
    peak_temperature_c: float = 0.0
    battery_budget_j: float = 0.0
    battery_spent_j: float = 0.0
    battery_exhausted: bool = False
    # Per-device split
    devices: list[DeviceTelemetry] = field(default_factory=list)
    # Admission control / SLO classes (PR 8)
    num_served: int = 0
    num_dropped: int = 0
    num_deferred: int = 0  # always 0: fleet admission is drop-only
    drop_rate: float = 0.0
    class_stats: dict[str, dict] = field(default_factory=dict)  # per SLO class

    @property
    def met_slo_rate(self) -> float:
        return 1.0 - self.deadline_miss_rate


class DeviceLane(Lane):
    """One fleet member: a lane built from a serving stack.

    Adds what routers weigh lanes by: the reference capacity, a pure
    function of the (frozen) mid-rate reference config and batch policy,
    computed once instead of chasing the config property chain per routing
    decision.
    """

    def __init__(self, index: int, stack: ServingStack, policy: ServingPolicy):
        super().__init__(
            index,
            policy,
            stack.evaluator,
            stack.placement,
            stack.ladder,
            stack.batch_policy,
            stack.spec.platform,
        )
        self.stack = stack
        self.reference_capacity_rps = reference_config(stack.ladder).capacity_rps(
            stack.batch_policy
        )


def build_fleet_stacks(spec: FleetSpec) -> list[ServingStack]:
    """One serving stack per platform, provisioned for its share of load.

    With ``rate_hz`` unset every device is loaded at ``utilization`` × its
    own reference capacity (the fleet rate is the sum); with an explicit
    fleet rate, load splits proportionally to reference capacity and each
    static config is re-provisioned for its share.
    """
    stacks = [build_serving_stack(spec.device_spec(p)) for p in spec.platforms]
    if spec.rate_hz is not None:
        capacities = [reference_config(s.ladder).capacity_rps(s.batch_policy) for s in stacks]
        total = sum(capacities)
        for stack, capacity in zip(stacks, capacities):
            share = spec.rate_hz * capacity / total
            stack.rate_hz = share
            stack.static_config = static_config_for(
                stack.ladder, share, spec.slo_ms / 1e3, stack.batch_policy
            )
    return stacks


def build_fleet_trace_and_stream(
    spec: FleetSpec, stacks: list[ServingStack]
) -> tuple[Trace, ServingStream]:
    """The shared (trace, logits) inputs every router is compared on.

    Every stack mounts the same model, so the synthesizers are identical;
    the stream comes from the first and is valid for all lanes.
    """
    fleet_rate = sum(stack.rate_hz for stack in stacks)
    trace = make_trace(
        spec.pattern,
        fleet_rate,
        spec.duration_s,
        seed=spec.seed,
        critical_fraction=spec.critical_fraction,
    )
    stream = stacks[0].synthesizer.synthesize(trace.difficulties())
    return trace, stream


class FleetSimulator:
    """Replays one trace through a router onto N heterogeneous lanes.

    Every lane dispatches latency-critical requests first within each batch
    window, like :class:`~repro.serving.simulator.ServingSimulator`: both
    run the lane loop, so a one-lane fleet matches the single device.
    """

    def __init__(
        self,
        spec: FleetSpec,
        stacks: list[ServingStack],
        switch_cost_j: float = 0.0,
        emergency_backlog_batches: float = 2.0,
        admission: AdmissionPolicy | None = None,
    ):
        self.spec = spec
        self.scenario: Scenario = get_scenario(spec.scenario)
        self.slo_s = spec.slo_ms / 1e3
        self.window_s = spec.window_ms / 1e3
        self.switch_cost_j = switch_cost_j
        self.emergency_backlog = emergency_backlog_batches * spec.max_batch
        if admission is None:
            admission = spec.admission_policy()
        if admission is not None and admission.mode != "drop":
            raise ValueError(
                "fleet admission is drop-only: deferral at the fleet door is "
                "re-routing, which the router spill guard already performs"
            )
        self.admission = admission
        self.lanes = [
            DeviceLane(i, stack, self._policy_for(stack)) for i, stack in enumerate(stacks)
        ]
        self._total_capacity_rps = sum(
            lane.reference_capacity_rps for lane in self.lanes
        )
        for lane in self.lanes:
            lane.rate_share = lane.reference_capacity_rps / self._total_capacity_rps

    def _policy_for(self, stack: ServingStack) -> ServingPolicy:
        if self.spec.policy == "static":
            return StaticPolicy(stack.static_config)
        return AdaptiveGovernor(stack.ladder, stack.batch_policy)

    def _battery_budget_j(self, trace: Trace) -> float | None:
        """Fleet allowance: scenario scale × capacity-weighted static spend."""
        if self.scenario.battery_scale is None:
            return None
        capacities = [lane.reference_capacity_rps for lane in self.lanes]
        total = sum(capacities)
        per_request = sum(
            lane.stack.static_config.expected_energy_j * capacity / total
            for lane, capacity in zip(self.lanes, capacities)
        )
        return self.scenario.battery_scale * per_request * max(trace.num_requests, 1)

    def _observe(
        self,
        lane: DeviceLane,
        now_s: float,
        trace: Trace,
        battery_budget_j: float | None,
        battery_spent_j: float,
    ) -> GovernorObservation:
        return lane.observe(
            now_s, trace, self.window_s, self.slo_s, battery_budget_j, battery_spent_j
        )

    # -------------------------------------------------------------- main loop
    def run(self, trace: Trace, stream: ServingStream) -> FleetReport:
        n = trace.num_requests
        if stream.final_logits.shape[0] != n:
            raise ValueError(
                f"stream carries {stream.final_logits.shape[0]} requests, trace has {n}"
            )
        placement = self.lanes[0].placement
        if stream.num_exits != placement.num_exits:
            raise ValueError(
                f"stream carries {stream.num_exits} exit heads but the deployed "
                f"placement expects {placement.num_exits}; the mounted logits "
                "stream and exit placement must describe the same DyNN"
            )
        router: FleetRouter = make_router(self.spec.router, self.lanes, self.slo_s)
        cstream = compile_stream(stream)

        completion = np.full(n, np.nan)
        correct = np.zeros(n, dtype=bool)
        battery_budget = self._battery_budget_j(trace)

        for lane in self.lanes:
            # The lane's capacity share of the mean rate; a fleet of one
            # starts from the single device's t=0 observation.
            lane.begin(
                self.scenario,
                trace.mean_rate_hz * lane.reference_capacity_rps / self._total_capacity_rps,
                self.window_s,
                self.slo_s,
            )
        with gc_paused():
            return self._serve(
                trace, router, cstream, completion, correct, battery_budget
            )

    def _serve(
        self,
        trace: Trace,
        router: FleetRouter,
        cstream: CompiledStream,
        completion: np.ndarray,
        correct: np.ndarray,
        battery_budget: float | None,
    ) -> FleetReport:
        """The lane loop over the fleet's lanes, then the report."""
        battery_spent, battery_exhausted = serve_lanes(
            self.lanes,
            trace,
            cstream,
            completion,
            correct,
            window_s=self.window_s,
            slo_s=self.slo_s,
            emergency_backlog=self.emergency_backlog,
            switch_cost_j=self.switch_cost_j,
            battery_budget_j=battery_budget,
            admission=self.admission,
            router=router,
        )
        return self._report(trace, completion, correct, battery_budget,
                            battery_spent, battery_exhausted)

    # -------------------------------------------------------------- telemetry
    def _report(
        self,
        trace: Trace,
        completion: np.ndarray,
        correct: np.ndarray,
        battery_budget: float | None,
        battery_spent: float,
        battery_exhausted: bool,
    ) -> FleetReport:
        n = trace.num_requests
        arrivals = trace.arrival_s
        served = ~np.isnan(completion)
        num_served = int(served.sum())
        num_dropped = n - num_served
        latencies = completion[served] - arrivals[served]
        makespan = max(
            float(np.max(completion[served])) if num_served else 0.0, trace.duration_s
        )

        devices = []
        for lane in self.lanes:
            idx = np.asarray(lane.request_indices, dtype=np.int64)
            lane_lat = (completion[idx] - arrivals[idx]) if len(idx) else np.zeros(0)
            lane_served = len(idx)
            devices.append(
                DeviceTelemetry(
                    platform=lane.name,
                    requests=lane_served,
                    share=lane_served / n if n else 0.0,
                    batches=lane.num_batches,
                    mean_batch_size=lane_served / lane.num_batches if lane.num_batches else 0.0,
                    utilization=lane.busy_s / makespan if makespan > 0 else 0.0,
                    latency_ms_p50=percentile_ms(lane_lat, 50),
                    latency_ms_p95=percentile_ms(lane_lat, 95),
                    latency_ms_p99=percentile_ms(lane_lat, 99),
                    deadline_miss_rate=float((lane_lat > self.slo_s).mean()) if lane_served else 0.0,
                    energy_j=lane.energy_j,
                    energy_per_request_j=lane.energy_j / lane_served if lane_served else 0.0,
                    switching_energy_j=lane.switching_energy_j,
                    accuracy=float(correct[idx].mean()) if lane_served else 0.0,
                    exit_usage=[float(c) / lane_served if lane_served else 0.0 for c in lane.exit_counts],
                    config_usage=dict(lane.config_usage),
                    governor_decisions=lane.governor_decisions,
                    throttled_batches=lane.throttled,
                    peak_temperature_c=lane.thermal.peak_c if lane.thermal is not None else 0.0,
                    critical_requests=lane.critical_requests,
                    num_dropped=lane.num_dropped,
                )
            )

        exit_counts = np.sum([lane.exit_counts for lane in self.lanes], axis=0)
        total_energy = sum(lane.energy_j for lane in self.lanes)
        return FleetReport(
            pattern=trace.pattern,
            scenario=self.scenario.name,
            policy=self.spec.policy,
            router=self.spec.router,
            model=self.spec.model_label,
            seed=self.spec.seed,
            slo_ms=self.slo_s * 1e3,
            platforms=list(self.spec.platforms),
            num_requests=n,
            duration_s=trace.duration_s,
            offered_rate_rps=trace.mean_rate_hz,
            throughput_rps=num_served / makespan if makespan > 0 else 0.0,
            latency_ms_mean=float(latencies.mean() * 1e3) if num_served else 0.0,
            latency_ms_p50=percentile_ms(latencies, 50),
            latency_ms_p95=percentile_ms(latencies, 95),
            latency_ms_p99=percentile_ms(latencies, 99),
            deadline_miss_rate=float((latencies > self.slo_s).mean())
            if num_served
            else 0.0,
            energy_per_request_j=total_energy / num_served if num_served else 0.0,
            total_energy_j=total_energy,
            switching_energy_j=sum(lane.switching_energy_j for lane in self.lanes),
            accuracy=float(correct[served].mean()) if num_served else 0.0,
            exit_usage=[
                float(c) / num_served if num_served else 0.0 for c in exit_counts
            ],
            governor_decisions=sum(lane.governor_decisions for lane in self.lanes),
            peak_temperature_c=max(
                (lane.thermal.peak_c for lane in self.lanes if lane.thermal is not None),
                default=0.0,
            ),
            battery_budget_j=battery_budget or 0.0,
            battery_spent_j=battery_spent if battery_budget is not None else 0.0,
            battery_exhausted=battery_exhausted,
            devices=devices,
            num_served=num_served,
            num_dropped=num_dropped,
            num_deferred=0,
            drop_rate=num_dropped / n if n else 0.0,
            class_stats=class_latency_stats(
                trace.slo_class, SLO_CLASSES, arrivals, completion, self.slo_s
            ),
        )


def run_fleet_cell(spec: FleetSpec) -> FleetReport:
    """Evaluate one fleet grid cell: pure function of the spec (cache-safe)."""
    stacks = build_fleet_stacks(spec)
    trace, stream = build_fleet_trace_and_stream(spec, stacks)
    return FleetSimulator(spec, stacks).run(trace, stream)


def fleet_cache_key(cache: ResultCache, spec: FleetSpec):
    """Content address of one fleet cell in the persistent cache."""
    return cache.key(
        "fleet",
        version=FLEET_CELL_VERSION,
        spec=dataclasses.asdict(spec),
    )


def fleet_sweep(
    specs: list[FleetSpec],
    service: EvaluationService | None = None,
    workers: int = 1,
    executor: str = "auto",
    cache_dir: str | None = None,
) -> list[FleetReport]:
    """Run a grid of fleet cells concurrently through the engine.

    Results come back in submission order; cells sharing a spec are
    deduplicated within the batch and, with ``cache_dir`` set, persist
    across runs under the ``fleet`` cache namespace.
    """
    owned = service is None
    if service is None:
        cache = ResultCache(cache_dir) if cache_dir is not None else None
        service = EvaluationService(executor=executor, workers=workers, cache=cache)
    try:
        # Codec-backed: a FleetSpec *is* the slim task payload, so the
        # multi-worker ``auto`` executor runs the grid on its process pool.
        tasks = [
            spec_task(
                task_spec("fleet-cell", spec=spec),
                key=fleet_cache_key(service.cache, spec)
                if service.cache is not None
                else None,
                cls=FleetReport,
            )
            for spec in specs
        ]
        return service.evaluate_batch(tasks)
    except BaseException:
        if owned:
            service.close(cancel=True)  # drop queued cells; leak no workers
        raise
    finally:
        if owned:
            service.close()
