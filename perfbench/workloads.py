"""The five workloads: inputs from a seed, the timed operation, the checks.

A workload builds its inputs in :meth:`setup` (counted in ``setup_s``),
then runs its timed operation once per *item* -- a board for
``ioe-paper``, one of six searches for ``hadas-bilevel``, the single run
otherwise.  :meth:`inspect` looks at
an operation's output from outside the program: it returns a digest of the
output (equal digests across repetitions and processes prove determinism,
and across traced and untraced processes prove tracing changed nothing),
the exact simulated figures of the output (``report.*``, additive over
items) and a list of failed checks.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math

import numpy as np

from repro.accuracy.surrogate import AccuracySurrogate
from repro.arch.space import BackboneSpace, miniature_space
from repro.baselines.attentivenas import attentivenas_model
from repro.data import SyntheticVisionDataset
from repro.eval.static import StaticEvaluator
from repro.exits import training
from repro.exits.multi_exit import MultiExitNetwork
from repro.exits.placement import ExitPlacement
from repro.hardware.platform import get_platform
from repro.metrics.hypervolume import hypervolume
from repro.search.hadas import HadasConfig, HadasSearch
from repro.search.ioe import InnerEngine
from repro.search.nsga2 import Nsga2Config
from repro.serving import fleet, harness, simulator, workload
from repro.serving.governor import AdaptiveGovernor
from repro.supernet import pretrain
from repro.supernet.supernet import MiniSupernet

#: Fixed hypervolume boxes (reference point, ideal point); ``front_hv`` is
#: a front's hypervolume over its box volume.  IOE objectives are
#: (accuracy-side score, energy gain, latency gain), all maximised; the
#: bi-level dynamic archive holds (dynamic accuracy, -energy J, -latency s).
IOE_HV_BOX = (np.array([0.0, -1.0, -1.0]), np.array([1.0, 1.0, 1.0]))
HADAS_HV_BOX = (np.array([0.0, -0.5, -0.1]), np.array([1.0, 0.0, 0.0]))

#: Relative tolerance of the energy conservation check (float summation).
ENERGY_RTOL = 1e-9


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(np.ascontiguousarray(part).tobytes())
            h.update(repr(part.shape).encode())
        else:
            h.update(repr(part).encode())
    return h.hexdigest()[:16]


def _hv_fraction(points: np.ndarray, box) -> float:
    reference, ideal = box
    return hypervolume(points, reference) / float(np.prod(ideal - reference))


def _finite_check(name: str, values) -> list[str]:
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        return [f"{name}: empty"]
    if not np.all(np.isfinite(values)):
        return [f"{name}: non-finite values"]
    return []


class Workload:
    items: tuple[str, ...] = ("run",)

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self) -> None:
        """Build the inputs every timed operation reuses."""

    def prepare(self, item: str):
        """Untimed per-operation preparation; the result goes to :meth:`run`."""
        return None

    def run(self, item: str, prepared):
        raise NotImplementedError

    def inspect(self, item: str, result) -> dict:
        raise NotImplementedError


# ------------------------------------------------------------------ search
class IoePaper(Workload):
    items = ("tx2-gpu", "agx-gpu", "carmel-cpu", "denver-cpu")

    def run(self, item, prepared):
        surrogate = AccuracySurrogate(BackboneSpace(), seed=self.seed)
        backbone = attentivenas_model("a3")
        engine = InnerEngine(
            backbone,
            StaticEvaluator(get_platform(item), surrogate, seed=self.seed),
            surrogate.accuracy_fraction(backbone),
            nsga=Nsga2Config(population=50, generations=70),
            seed=self.seed,
        )
        return engine.run()

    def inspect(self, item, result):
        objectives = result.pareto.objectives()
        genomes = np.stack([ind.genome for ind in result.pareto])
        return {
            "digest": _digest(objectives, genomes, result.num_evaluations),
            "report": {
                "report.fronts": 1,
                "report.front_hv": _hv_fraction(objectives, IOE_HV_BOX),
            },
            "errors": _finite_check(f"{item} archive objectives", objectives),
            "detail": f"{result.num_evaluations} evaluations, "
            f"{len(result.pareto)} Pareto members",
        }


class HadasBilevel(Workload):
    """Six independent searches per --seed, so that one seed's luck in
    backbone repeats (which decides how many inner runs a search needs)
    does not set the run's figures on its own."""

    searches = 6

    def __init__(self, seed: int):
        super().__init__(seed)
        self.items = tuple(
            f"seed-{self.searches * seed + k}" for k in range(self.searches)
        )

    def run(self, item, prepared):
        config = HadasConfig(
            platform="tx2-gpu",
            seed=int(item.removeprefix("seed-")),
            outer_population=30,
            outer_generations=15,
            ioe_candidates=5,
            inner_population=16,
            inner_generations=6,
            workers=1,
        )
        search = HadasSearch(config)
        try:
            return search.run()
        finally:
            search.close()

    def inspect(self, item, result):
        dynamic = result.outer.dynamic_archive.objectives()
        static = result.outer.static_archive.objectives()
        genomes = [ind.genome.tolist() for ind in result.outer.dynamic_archive]
        static_n, dynamic_n = result.num_evaluations
        return {
            "digest": _digest(dynamic, static, genomes, static_n, dynamic_n),
            "report": {
                "report.fronts": 1,
                "report.front_hv": _hv_fraction(dynamic, HADAS_HV_BOX),
            },
            "errors": _finite_check("dynamic archive objectives", dynamic)
            + _finite_check("static archive objectives", static),
            "detail": f"{static_n} static + {dynamic_n} dynamic evaluations, "
            f"{len(dynamic)} dynamic Pareto members",
        }


# ----------------------------------------------------------------- serving
def _serving_checks(report, label: str) -> list[str]:
    errors = []
    if report.num_served + report.num_dropped != report.num_requests:
        errors.append(f"{label}: served + dropped != offered")
    for name, cls in report.class_stats.items():
        if cls["num_served"] + cls["num_dropped"] != cls["num_requests"]:
            errors.append(f"{label} class {name}: served + dropped != offered")
    if report.num_served and abs(sum(report.exit_usage) - 1.0) > 1e-9:
        errors.append(f"{label}: exit usage sums to {sum(report.exit_usage)!r}")
    return errors


def _serving_outcome(report, label: str, errors: list[str]) -> dict:
    return {
        "digest": _digest(repr(dataclasses.asdict(report))),
        "report": {
            # Served within the SLO; the latency statistics cover served
            # requests only, so drops count as misses against "offered".
            "report.met_slo": report.num_served * (1.0 - report.deadline_miss_rate),
            "report.offered": report.num_requests,
            "report.served": report.num_served,
            "report.dropped": report.num_dropped,
            "report.p95_ms": report.latency_ms_p95,
            "report.energy_mj": report.total_energy_j * 1e3,
        },
        "errors": _serving_checks(report, label) + errors,
        "detail": f"{report.num_requests} offered, {report.num_served} served, "
        f"{report.num_dropped} dropped, p95 {report.latency_ms_p95:.3f} ms, "
        f"{report.total_energy_j * 1e3 / max(report.num_served, 1):.4f} mJ/req",
    }


class Serve1M(Workload):
    requests = 1_000_000

    def setup(self):
        self.spec = harness.ServingSpec(
            platform="tx2-gpu", model="a3", num_exits=3, policy="adaptive",
            pattern="poisson", utilization=0.7, seed=self.seed,
        )
        self.stack = harness.build_serving_stack(self.spec)
        duration_s = self.requests / self.stack.rate_hz
        self.trace = workload.make_trace(
            "poisson", self.stack.rate_hz, duration_s, seed=self.seed
        )
        self.stream = self.stack.synthesizer.synthesize(self.trace.difficulties())

    def prepare(self, item):
        stack, spec = self.stack, self.spec
        return simulator.ServingSimulator(
            evaluator=stack.evaluator,
            placement=stack.placement,
            policy=AdaptiveGovernor(stack.ladder, stack.batch_policy),
            ladder=stack.ladder,
            scenario=stack.scenario,
            slo_s=spec.slo_ms / 1e3,
            batch_policy=stack.batch_policy,
            window_s=spec.window_ms / 1e3,
        )

    def run(self, item, prepared):
        return prepared.run(
            self.trace, self.stream, platform=self.spec.platform,
            model=self.spec.model_label, seed=self.seed,
        )

    def inspect(self, item, result):
        return _serving_outcome(result, "device", [])


class FleetBursty(Workload):
    requests = 200_000
    platforms = ("agx-gpu", "carmel-cpu", "tx2-gpu", "denver-cpu")

    def setup(self):
        spec = fleet.FleetSpec(
            platforms=self.platforms, pattern="bursty", utilization=0.95,
            router="difficulty_aware", policy="adaptive", critical_fraction=0.2,
            admission_max_queue=32, seed=self.seed,
        )
        self.stacks = fleet.build_fleet_stacks(spec)
        # Stacks do not depend on the simulated duration; size it so the
        # trace offers ~`requests` arrivals at the fleet's provisioned rate.
        fleet_rate = sum(stack.rate_hz for stack in self.stacks)
        self.spec = dataclasses.replace(spec, duration_s=self.requests / fleet_rate)
        self.trace, self.stream = fleet.build_fleet_trace_and_stream(
            self.spec, self.stacks
        )

    def prepare(self, item):
        return fleet.FleetSimulator(self.spec, self.stacks)

    def run(self, item, prepared):
        return prepared.run(self.trace, self.stream)

    def inspect(self, item, result):
        errors = []
        device_energy = sum(device.energy_j for device in result.devices)
        if not math.isclose(device_energy, result.total_energy_j, rel_tol=ENERGY_RTOL):
            errors.append(
                f"device energies sum to {device_energy!r}, "
                f"fleet total {result.total_energy_j!r}"
            )
        for device in result.devices:
            if device.requests and abs(sum(device.exit_usage) - 1.0) > 1e-9:
                errors.append(f"{device.platform}: exit usage does not sum to 1")
        return _serving_outcome(result, "fleet", errors)


# ---------------------------------------------------------------- training
class TrainExits(Workload):
    pretrain_steps = 5
    exit_steps = 15
    train_samples = 512
    eval_samples = 256

    def setup(self):
        self.space = miniature_space(num_classes=8)
        dataset = SyntheticVisionDataset(num_classes=8, image_size=32, seed=self.seed)
        self.train_x, self.train_y, _ = dataset.generate(self.train_samples, split="train")
        self.eval_x, self.eval_y, _ = dataset.generate(self.eval_samples, split="val")

    def run(self, item, prepared):
        supernet = MiniSupernet(self.space, seed=self.seed)
        pre = pretrain.pretrain_supernet(
            supernet, self.train_x, self.train_y, steps=self.pretrain_steps,
            batch_size=32, seed=self.seed,
        )
        backbone = self.space.decode(self.space.max_genome())
        total = backbone.total_mbconv_layers
        placement = ExitPlacement(total, tuple(range(5, total)))
        network = MultiExitNetwork(
            supernet, backbone, placement, freeze_backbone=True, seed=self.seed + 1
        )
        result = training.train_exits(
            network, self.train_x, self.train_y, self.eval_x, self.eval_y,
            steps=self.exit_steps, batch_size=32, kd_weight=1.0, temperature=4.0,
            seed=self.seed + 2,
        )
        return pre, result

    def inspect(self, item, result):
        pre, exits = result
        stats = exits.evaluation
        losses = list(pre.losses) + list(exits.losses)
        return {
            "digest": _digest(losses, stats.n_i, stats.usage, stats.dynamic_accuracy,
                              pre.min_subnet_accuracy, pre.max_subnet_accuracy),
            "report": {"report.exit_dyn_acc": float(stats.dynamic_accuracy)},
            "errors": _finite_check("training losses", losses)
            + _finite_check("held-out statistics", [stats.dynamic_accuracy]),
            "detail": f"loss {pre.losses[0]:.4f} -> {exits.final_loss:.4f}, "
            f"union accuracy {stats.dynamic_accuracy:.4f}",
        }


WORKLOAD_CLASSES: dict[str, type[Workload]] = {
    "ioe-paper": IoePaper,
    "hadas-bilevel": HadasBilevel,
    "serve-1m": Serve1M,
    "fleet-bursty": FleetBursty,
    "train-exits": TrainExits,
}
