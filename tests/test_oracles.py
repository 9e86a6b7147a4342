"""Golden digests of the frozen reference oracles in ``tests/oracles``.

The oracles are the fixed point every bit-identity test and the
dynamic-eval bench compare production against, so they must never change.
Each test hashes an oracle's full output on seeded inputs with blake2b and
compares it to a digest recorded while these loops still ran inside
``src/repro`` behind constructor flags.  An edit to an oracle body then
fails here even when production and oracle drift together.

The evaluator digests are per platform, not per mode: every reference mode
is bit-identical to the production kernels, so all three modes must hash to
the same value.  The serving digests cover whole reports of the reference
single-device and fleet loops.
"""

from __future__ import annotations

import ast
import dataclasses
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from oracles.arch import estimate_cost_reference, exit_branch_cost_reference
from oracles.search import (
    non_dominated_mask_reference,
    non_dominated_sort_reference,
    profiles_for_reference,
    reference,
)
from oracles.serving import ReferenceServingSimulator, run_fleet_cell_reference
from repro.accuracy.exit_model import BackboneExitOracle
from repro.arch.cost import estimate_cost
from repro.arch.space import BackboneSpace, miniature_space
from repro.baselines.attentivenas import attentivenas_model
from repro.eval.dynamic import DynamicEvaluator
from repro.exits.placement import MIN_EXIT_POSITION, ExitPlacement
from repro.hardware.dvfs import DvfsSpace
from repro.hardware.energy import EnergyModel
from repro.hardware.platform import get_platform
from repro.runtime.governor import DvfsGovernor
from repro.search.ioe import InnerEngine
from repro.search.nsga2 import Nsga2Config
from repro.serving import AdaptiveGovernor, ServingSpec, StaticPolicy, make_trace
from repro.serving.fleet import FleetSpec
from repro.serving.harness import build_serving_stack

MODES = {
    "tables-off": dict(tables=False),
    "population-off": dict(population=False),
    "oracle-and-objectives-off": dict(batched_oracle=False, fused_objectives=False),
}

EVALUATOR_DIGESTS = {
    "tx2-gpu": "0de64aeff30d055c3c5a9092da819ee2",
    "carmel-cpu": "91bc5968fd854032264087793f04cb45",
}
PROFILES_DIGEST = "6883632780f013175de190bfbdc812af"
SORT_DIGEST = "a6a3309d3780ce2fc9f71ae402f268d1"
MASK_DIGEST = "926ac597561775642aa10874e0bd0476"
ENGINE_DIGEST = "40ffe09ee4e2d195d4929478c7cd47fb"
LOWERING_DIGEST = "9272e1c56f571eb0a1f8f07147695d60"
SERVING_DIGESTS = {
    ("poisson", "static"): "e3107011e025c9a0a5ae97513f36b768",
    ("poisson", "adaptive"): "10e970509bbe204fa7e74877f75f6404",
    ("bursty", "static"): "e816e9ed42decf64b5bb176f722066ca",
    ("bursty", "adaptive"): "15b027271ddb718c45a9e4f3f5061e29",
}
#: (router, admission cap, critical bypass, critical fraction) -> digest.
FLEET_DIGESTS = {
    ("round_robin", None, True, 0.0): "6f03a1c51477cacd6fb9d084aac1976a",
    ("round_robin", 2, False, 1.0): "1b89c53b5b753811700d1f1911f224f2",
    ("least_backlog", 6, True, 0.3): "28deb1a4d1365a2b3001c5ebf6e9a3b4",
    ("least_backlog", None, True, 1.0): "6f4df3e21cff3a3f845d6cd1f4eddc45",
    ("difficulty_aware", None, True, 0.0): "ad8d87210365befb0be8d2ec867d7999",
    ("difficulty_aware", 6, True, 0.3): "7a01f0bea80301fb896e449f8035abcd",
    ("difficulty_aware", 2, False, 1.0): "1fb04b94d633f4f20efbb82cfd278e3a",
}

#: Names that must never reappear in ``src/repro``: the search-kernel
#: flags, the reference bodies they selected, the per-part cost lowering,
#: the serving reference engines with their ``engine=`` option, which
#: live only here, the per-setting cost tables the stacked cost store
#: replaced, and the single-device queue mode the lane loop replaced.
RETIRED_NAMES = frozenset({
    "use_tables",
    "use_population_kernel",
    "use_batched_oracle",
    "use_fused_objectives",
    "use_batched_stats",
    "_accumulate_reference",
    "composite_report_reference",
    "non_dominated_mask_reference",
    "non_dominated_sort_reference",
    "_exit_path_report",
    "_full_path_report",
    "_conv_cost",
    "_merge",
    "estimate_cost_reference",
    "exit_branch_cost_reference",
    "ENGINE_NAMES",
    "route",  # routers keep one routing method, route_block
    "price",  # compiled configs keep price_span and price_indices
    "_controller_of",
    "MicroBatcher",
    "BatchOutcome",
    "execute_batch",
    "batched_execution_reference",
    "price_reference",
    "_serve_reference",
    "_run_reference",
    "LaneState",
    "next_ready_batch",
    "pending_start_s",
    "begin_block",
    "_ensure_bands",
    "scalar_router",
    "ReferenceServingSimulator",
    "ReferenceFleetSimulator",
    "ReferenceDeviceLane",
    "run_fleet_cell_reference",
    "SettingCostTable",
    "CostTableBank",
    "BranchTerms",
    "branch_provider",
    "repro.hardware.cost_table",
    "admit_prefix",
    "_gate",
    "_fill_arrival",
    "_next_batch_queued",
})

SRC_ROOT = Path(__file__).resolve().parents[1] / "src" / "repro"


class _Digest:
    """blake2b over length-prefixed float64 / int64 buffers."""

    def __init__(self):
        self._hash = hashlib.blake2b(digest_size=16)

    def _update(self, array: np.ndarray) -> None:
        self._hash.update(np.int64(array.size).tobytes())
        self._hash.update(array.tobytes())

    def floats(self, values) -> None:
        self._update(np.asarray(values, dtype=np.float64).ravel())

    def ints(self, values) -> None:
        self._update(np.asarray(values, dtype=np.int64).ravel())

    def hexdigest(self) -> str:
        return self._hash.hexdigest()


def _evaluator(platform_key: str) -> DynamicEvaluator:
    """A fresh a3 evaluator with its own oracle, caches and table bank."""
    platform = get_platform(platform_key)
    model = EnergyModel(platform)
    config = attentivenas_model("a3")
    cost = estimate_cost(config)
    base = model.network_report(cost, DvfsSpace(platform).default_setting())
    oracle = BackboneExitOracle(
        config.key, config.total_mbconv_layers, 0.87, seed=0, n_samples=512
    )
    return DynamicEvaluator(
        config=config,
        cost=cost,
        oracle=oracle,
        energy_model=model,
        baseline_energy_j=base.energy_j,
        baseline_latency_s=base.latency_s,
    )


def _pairs(evaluator: DynamicEvaluator) -> list:
    """64 seeded (placement, setting) pairs: widths 1-10 (crossing the
    8-column reduction fallback), four exact duplicates and four repeated
    placements at new settings."""
    total = evaluator.config.total_mbconv_layers
    dvfs = DvfsSpace(evaluator.energy_model.platform)
    rng = np.random.default_rng(64)
    slots = np.arange(MIN_EXIT_POSITION, total)
    pairs = []
    for _ in range(56):
        width = int(rng.integers(1, 11))
        positions = tuple(sorted(rng.choice(slots, size=width, replace=False).tolist()))
        pairs.append((ExitPlacement(total, positions), dvfs.sample(rng)))
    pairs.extend(pairs[:4])
    pairs.extend((placement, dvfs.sample(rng)) for placement, _ in pairs[4:8])
    return pairs


def _evaluator_digest(evaluator: DynamicEvaluator, pairs) -> str:
    digest = _Digest()
    for evaluation in evaluator.evaluate_generation(pairs):
        stats = evaluation.exit_stats
        digest.ints(evaluation.placement.positions)
        digest.floats([evaluation.setting.core_ghz, evaluation.setting.emc_ghz])
        for array in (stats.n_i, stats.usage, stats.dissimilarity):
            digest.floats(array)
        for array in (
            evaluation.exit_energy_j,
            evaluation.exit_latency_s,
            evaluation.scores,
        ):
            digest.floats(array)
        digest.floats([
            stats.final_accuracy,
            stats.dynamic_accuracy,
            evaluation.dynamic_energy_j,
            evaluation.dynamic_latency_s,
            evaluation.energy_gain,
            evaluation.latency_gain,
            evaluation.d_score,
        ])
        digest.floats(evaluator.objectives(evaluation))
    for placement, setting in pairs:
        exit_energy, exit_latency, full_energy, full_latency = evaluator.path_costs(
            placement.positions, setting
        )
        digest.floats(exit_energy)
        digest.floats(exit_latency)
        digest.floats([full_energy, full_latency])
        digest.floats(evaluator.full_path_cost(placement.positions, setting))
    return digest.hexdigest()


def _point_clouds() -> list[np.ndarray]:
    """Seeded clouds: small-integer grids (ties and duplicate rows
    everywhere) plus a continuous cloud with five rows repeated."""
    rng = np.random.default_rng(5)
    clouds = [
        rng.integers(0, 4, size=(n, m)).astype(float)
        for n, m in ((1, 2), (2, 2), (7, 2), (16, 3), (33, 3), (60, 2))
    ]
    base = rng.normal(size=(20, 3))
    clouds.append(np.vstack([base, base[:5]]))
    clouds.append(np.ones((6, 3)))
    return clouds


class TestEvaluatorOracle:
    @pytest.mark.parametrize("mode", sorted(MODES))
    @pytest.mark.parametrize("platform_key", sorted(EVALUATOR_DIGESTS))
    def test_golden_digest(self, platform_key, mode):
        evaluator = reference(_evaluator(platform_key), **MODES[mode])
        got = _evaluator_digest(evaluator, _pairs(evaluator))
        assert got == EVALUATOR_DIGESTS[platform_key]


class TestServingProfileOracle:
    def test_golden_digest(self):
        evaluator = _evaluator("tx2-gpu")
        dvfs = DvfsSpace(evaluator.energy_model.platform)
        rng = np.random.default_rng(9)
        digest = _Digest()
        for placement, _ in _pairs(evaluator)[:16]:
            per_exit = {
                index: dvfs.sample(rng) for index in range(placement.num_exits + 1)
            }
            governor = DvfsGovernor(dvfs.default_setting(), per_exit=per_exit)
            for profile in profiles_for_reference(evaluator, placement, governor):
                digest.floats([
                    profile.busy_s,
                    profile.overhead_s,
                    profile.dynamic_energy_j,
                    profile.passive_power_w,
                ])
        assert digest.hexdigest() == PROFILES_DIGEST


class TestParetoOracles:
    def test_sort_golden_digest(self):
        digest = _Digest()
        for points in _point_clouds():
            fronts = non_dominated_sort_reference(points)
            digest.ints([len(fronts)])
            for front in fronts:
                digest.ints(front)
        assert digest.hexdigest() == SORT_DIGEST

    def test_mask_golden_digest(self):
        digest = _Digest()
        for points in _point_clouds():
            digest.ints(non_dominated_mask_reference(points))
        assert digest.hexdigest() == MASK_DIGEST


class TestInnerEngineOracle:
    def test_all_reference_modes_golden_digest(self, static_evaluator, surrogate):
        backbone = attentivenas_model("a0")
        engine = InnerEngine(
            backbone,
            static_evaluator,
            surrogate.accuracy_fraction(backbone),
            nsga=Nsga2Config(population=8, generations=3),
            seed=11,
        )
        reference(
            engine,
            tables=False,
            population=False,
            batched_oracle=False,
            fused_objectives=False,
        )
        digest = _Digest()
        for individual in engine.run().explored:
            digest.ints(individual.key())
            digest.floats(individual.objectives)
        assert digest.hexdigest() == ENGINE_DIGEST


def _lowering_digest(lower, branch) -> str:
    """Every field of ``lower`` over seeded configs of both spaces, with and
    without SE, plus ``branch`` at a few attachment points.

    The byte widths keep every per-field sum exact, so the digest does not
    depend on how the interpreter's ``sum`` rounds float totals.
    """
    digest = _Digest()
    rng = np.random.default_rng(15)
    for space in (BackboneSpace(), miniature_space()):
        for _ in range(40):
            config = space.sample(rng)
            for include_se in (True, False):
                for bytes_per_element in (4.0, 1.0, 0.5):
                    cost = lower(config, include_se, bytes_per_element)
                    digest.ints([layer.index for layer in cost.layers])
                    digest.floats([
                        (layer.macs, layer.params, layer.input_bytes,
                         layer.output_bytes, layer.weight_bytes)
                        for layer in cost.layers
                    ])
    for in_channels, resolution, width in ((32, 14, None), (128, 7, 16), (24, 28, 48)):
        for num_classes in (10, 100):
            layer = branch(in_channels, resolution, num_classes, width, 0.5)
            digest.floats([layer.macs, layer.params, layer.input_bytes,
                           layer.output_bytes, layer.weight_bytes])
    return digest.hexdigest()


class TestLoweringOracle:
    def test_golden_digest(self):
        got = _lowering_digest(estimate_cost_reference, exit_branch_cost_reference)
        assert got == LOWERING_DIGEST


def _plain(value):
    """JSON fallback for the NumPy scalars a report may carry."""
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.bool_):
        return bool(value)
    raise TypeError(f"cannot digest {type(value).__name__}")


def _report_digest(report) -> str:
    """blake2b of a report's fields as JSON (floats in shortest round-trip
    form, so the digest is exact)."""
    text = json.dumps(dataclasses.asdict(report), default=_plain)
    return hashlib.blake2b(text.encode(), digest_size=16).hexdigest()


@pytest.fixture(scope="module")
def serving_stack():
    return build_serving_stack(ServingSpec(duration_s=6.0))


class TestServingEngineOracle:
    @pytest.mark.parametrize("pattern,policy_name", sorted(SERVING_DIGESTS))
    def test_single_device_golden_digest(self, serving_stack, pattern, policy_name):
        stack = serving_stack
        trace = make_trace(pattern, stack.rate_hz, 5.0, seed=3)
        stream = stack.synthesizer.synthesize(trace.difficulties())
        policy = (
            StaticPolicy(stack.static_config)
            if policy_name == "static"
            else AdaptiveGovernor(stack.ladder, stack.batch_policy)
        )
        report = ReferenceServingSimulator(
            evaluator=stack.evaluator,
            placement=stack.placement,
            policy=policy,
            ladder=stack.ladder,
            scenario=stack.scenario,
            slo_s=stack.spec.slo_ms / 1e3,
            batch_policy=stack.batch_policy,
        ).run(trace, stream)
        assert _report_digest(report) == SERVING_DIGESTS[pattern, policy_name]

    @pytest.mark.parametrize(
        "router,max_queue,bypass,crit", list(FLEET_DIGESTS), ids=str
    )
    def test_fleet_golden_digest(self, router, max_queue, bypass, crit):
        report = run_fleet_cell_reference(
            FleetSpec(
                platforms=("tx2-gpu", "agx-gpu"),
                pattern="bursty",
                router=router,
                duration_s=3.0,
                critical_fraction=crit,
                admission_max_queue=max_queue,
                admission_critical_bypass=bypass,
            )
        )
        key = (router, max_queue, bypass, crit)
        assert _report_digest(report) == FLEET_DIGESTS[key]


def _identifiers(tree: ast.AST):
    """Every name a module binds, reads, passes, defines or imports from."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.lineno, node.id
        elif isinstance(node, ast.Attribute):
            yield node.lineno, node.attr
        elif isinstance(node, ast.arg):
            yield node.lineno, node.arg
        elif isinstance(node, ast.keyword) and node.arg is not None:
            yield node.lineno, node.arg
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.lineno, node.name
        elif isinstance(node, ast.alias):
            yield node.lineno, node.asname or node.name
        elif isinstance(node, ast.ImportFrom) and node.module is not None:
            yield node.lineno, node.module


class TestNoReferencePathsInSrc:
    """One evaluation path per computation: the retired flags and reference
    bodies must not grow back into ``src/repro``."""

    def test_retired_names_absent(self):
        sources = sorted(SRC_ROOT.rglob("*.py"))
        assert sources
        found = [
            f"{path.relative_to(SRC_ROOT)}:{lineno}: {name}"
            for path in sources
            for lineno, name in _identifiers(ast.parse(path.read_text(), str(path)))
            if name in RETIRED_NAMES
        ]
        assert not found, "retired names in src/repro:\n" + "\n".join(found)
