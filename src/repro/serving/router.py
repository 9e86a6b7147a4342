"""Request routers for the heterogeneous serving fleet.

A :class:`FleetRouter` picks, per arriving request, which device lane the
request joins.  Routers see a :class:`BlockLaneState` — the live per-lane
device-free times, queue depths and reference capacities — and the
request's scalar features: ``difficulty`` (standing in for a cheap
upstream difficulty predictor; HADAS's premise is exactly that easy inputs
early-exit, so difficulty is observable-enough to estimate) and its SLO
class (``latency_critical`` or ``best_effort``).

Three policies:

* ``round_robin`` — cyclic assignment, the classic oblivious baseline;
* ``least_backlog`` — join the lane with the shortest *estimated drain
  time* (queued work divided by the lane's capacity, plus residual device
  busy time), i.e. join-the-shortest-queue corrected for heterogeneity;
* ``difficulty_aware`` — lanes are ordered by capacity and each takes the
  difficulty band matching its share of fleet capacity: cheap, weak
  devices absorb easy requests (which early-exit and are fast anywhere),
  hard requests go to high-headroom devices whose deep paths still meet
  the SLO.  A spill guard reroutes to the least-loaded lane whenever the
  banded choice's estimated wait would blow the deadline — bursty arrivals
  degrade into least-backlog instead of queueing behind a weak device.
  Latency-critical requests spill at *half* the wait threshold: best-effort
  traffic rides out moderate backlog in its band while criticals move to
  the least-loaded lane early enough to keep their deadline headroom.

Each router has one routing method, :meth:`FleetRouter.route_block`, which
the fleet loop calls once per arrival; the lane-door admission check is
:meth:`BlockLaneState.admit`.

Everything is deterministic: ties break on lane index.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Sequence

from repro.serving.workload import LATENCY_CRITICAL

#: Router names accepted by :func:`make_router` (CLI/bench vocabulary).
ROUTER_NAMES = ("round_robin", "least_backlog", "difficulty_aware")


class BlockLaneState:
    """Live per-lane state the routers read and the fleet loop keeps current.

    ``t_free`` and ``depth`` are the per-lane device-free times and queue
    depths (the owning simulator updates them on every dispatch),
    ``capacity`` the per-lane reference capacity in requests/second.  The
    lanes it is built from expose ``t_free``, ``queue_depth`` and
    ``reference_capacity_rps``.  A lane's wait estimate is
    ``max(t_free - now, 0) + depth / capacity``: residual busy time plus
    queued work at reference capacity.
    """

    __slots__ = ("t_free", "depth", "capacity", "max_queue", "critical_bypass")

    def __init__(
        self,
        lanes: Sequence,
        max_queue: int | None = None,
        critical_bypass: bool = True,
    ):
        self.t_free = [lane.t_free for lane in lanes]
        self.depth = [lane.queue_depth for lane in lanes]
        self.capacity = [lane.reference_capacity_rps for lane in lanes]
        self.max_queue = max_queue
        self.critical_bypass = critical_bypass

    def admit(self, lane: int, critical: bool) -> bool:
        """Queue-depth admission at ``lane``'s door; grows its depth if admitted.

        Unbounded fleets admit everything; with a cap, a latency-critical
        request under ``critical_bypass`` is admitted even to a full lane.
        """
        depth = self.depth
        max_queue = self.max_queue
        if (
            max_queue is None
            or depth[lane] < max_queue
            or (critical and self.critical_bypass)
        ):
            depth[lane] += 1
            return True
        return False

    def least_loaded(self, now_s: float) -> int:
        """The lane with the least estimated wait at ``now_s``.

        Strict ``<`` keeps the first minimum, so ties go to the lowest lane
        index.
        """
        t_free = self.t_free
        depth = self.depth
        capacity = self.capacity
        r = t_free[0] - now_s
        best_w = (r if r > 0.0 else 0.0) + depth[0] / capacity[0]
        best = 0
        for lane in range(1, len(depth)):
            r = t_free[lane] - now_s
            w = (r if r > 0.0 else 0.0) + depth[lane] / capacity[lane]
            if w < best_w:
                best_w = w
                best = lane
        return best


class FleetRouter:
    """Base: maps an arriving request's (difficulty, class) to a lane index."""

    name = "router"

    def route_block(
        self,
        difficulty: float,
        slo_class: int,
        now_s: float,
        state: BlockLaneState,
    ) -> int:
        """The lane index one request arriving at ``now_s`` joins."""
        raise NotImplementedError


class RoundRobinRouter(FleetRouter):
    """Cyclic assignment, blind to state, difficulty and class."""

    name = "round_robin"

    def __init__(self):
        self._next = 0

    def route_block(self, difficulty, slo_class, now_s, state):
        index = self._next % len(state.depth)
        self._next += 1
        return index


class LeastBacklogRouter(FleetRouter):
    """Join the lane that will drain its queued work soonest."""

    name = "least_backlog"

    def route_block(self, difficulty, slo_class, now_s, state):
        return state.least_loaded(now_s)


class DifficultyAwareRouter(FleetRouter):
    """Difficulty-banded assignment with a class-aware SLO spill guard.

    Lanes sorted by reference capacity partition the difficulty axis into
    bands proportional to their capacity share — the weakest (and usually
    cheapest) lane owns the easiest band.  When the banded lane's estimated
    wait exceeds ``spill_fraction``·SLO, the request spills to the lane
    with the least estimated wait instead; latency-critical requests use
    half that threshold, so they leave a backlogged band before best-effort
    traffic does.  The bands are built once, for the lanes the router is
    constructed with.
    """

    name = "difficulty_aware"

    def __init__(self, lanes: Sequence, slo_s: float, spill_fraction: float = 0.5):
        if not lanes:
            raise ValueError("difficulty-aware router needs at least one lane")
        self.slo_s = slo_s
        self.spill_fraction = spill_fraction
        ordered = sorted(
            lanes, key=lambda lane: (lane.reference_capacity_rps, lane.index)
        )
        total = sum(lane.reference_capacity_rps for lane in ordered)
        # Each band is [its lower edge, the next band's lower edge).
        self._edges: list[float] = []
        lo = 0.0
        for lane in ordered:
            self._edges.append(lo)
            lo += lane.reference_capacity_rps / total if total > 0 else 1.0 / len(ordered)
        self._band_lanes = [lane.index for lane in ordered]

    def banded_lane(self, difficulty: float) -> int:
        """The lane whose band contains ``difficulty`` (no spill logic).

        Difficulties past the last edge land in the last band; a difficulty
        below 0 gives slot -1, which is the last band too.
        """
        return self._band_lanes[bisect_right(self._edges, difficulty) - 1]

    def route_block(self, difficulty, slo_class, now_s, state):
        chosen = self._band_lanes[bisect_right(self._edges, difficulty) - 1]
        threshold = self.spill_fraction * self.slo_s
        if slo_class == LATENCY_CRITICAL:
            threshold *= 0.5  # criticals abandon a backlogged band early
        r = state.t_free[chosen] - now_s
        if (r if r > 0.0 else 0.0) + state.depth[chosen] / state.capacity[chosen] > threshold:
            return state.least_loaded(now_s)
        return chosen


def make_router(name: str, lanes: Sequence, slo_s: float) -> FleetRouter:
    """Build a router by name (the CLI/bench entry point)."""
    if name == "round_robin":
        return RoundRobinRouter()
    if name == "least_backlog":
        return LeastBacklogRouter()
    if name == "difficulty_aware":
        return DifficultyAwareRouter(lanes, slo_s)
    raise ValueError(f"unknown router {name!r}; expected one of {ROUTER_NAMES}")
