"""Population-vectorized dynamic evaluation: stacked kernel bit-identity.

``DynamicEvaluator.evaluate_population`` lowers N placements at one DVFS
setting to a single padded gather over the evaluator's stacked cost store.
Its contract is the same absolute one the store carries: every field of
every returned :class:`DynamicEvaluation` equals the per-placement
``evaluate`` loop (the store's one-row gather) *bit for bit*, across
population sizes (including N=1 and duplicate genomes), random placements
and random settings — so search trajectories, caches and golden artifacts
are unchanged no matter which gather produced them.  Alongside it: the
thread-safety of the store's row growth, the store-backed runtime
planner/serving-profile paths with a golden digest of the serving ladder,
and the ``population-eval`` task codec that shards exhaustive DVFS grids.
"""

from __future__ import annotations

import hashlib
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles.search import profiles_for_reference, reference
from repro.accuracy.exit_model import BackboneExitOracle
from repro.arch.cost import estimate_cost
from repro.baselines.attentivenas import attentivenas_model
from repro.eval.dynamic import DynamicEvaluator
from repro.exits.placement import MIN_EXIT_POSITION, ExitPlacement
from repro.hardware.dvfs import DvfsSpace
from repro.hardware.energy import EnergyModel
from repro.hardware.platform import get_platform
from repro.hardware.population_kernel import PopulationPathCosts

PLATFORM_KEYS = ("tx2-gpu", "carmel-cpu")

#: blake2b of the planner's plans and the serving ladder on an a3 backbone
#: (see ``TestRuntimePathsViaBank.test_serving_setup_golden_digest``).
LADDER_DIGESTS = {
    "tx2-gpu": "611bdac985c3230e4bfb8fb95cd651a9",
    "carmel-cpu": "a983e499cc3e83e55f8e03d8fd287081",
}

_CONTEXTS: dict[str, dict] = {}


def _context(platform_key: str) -> dict:
    """Session-lazy heavy objects per platform.

    Three evaluators share one oracle (accuracy statistics are identical by
    construction), so each comparison isolates exactly one cost path: the
    stacked population gather, the per-call one-row gather, and the
    per-layer reference loop.
    """
    if platform_key not in _CONTEXTS:
        platform = get_platform(platform_key)
        model = EnergyModel(platform)
        config = attentivenas_model("a3")
        cost = estimate_cost(config)
        dvfs = DvfsSpace(platform)
        oracle = BackboneExitOracle(
            config.key, config.total_mbconv_layers, 0.87, seed=0, n_samples=512
        )
        base = model.network_report(cost, dvfs.default_setting())
        kwargs = dict(
            config=config,
            cost=cost,
            oracle=oracle,
            energy_model=model,
            baseline_energy_j=base.energy_j,
            baseline_latency_s=base.latency_s,
        )
        _CONTEXTS[platform_key] = {
            "platform": platform,
            "model": model,
            "config": config,
            "cost": cost,
            "dvfs": dvfs,
            "settings": DvfsSpace(platform).all_settings(),
            "kwargs": kwargs,
            "population": DynamicEvaluator(**kwargs),
            "per_call": reference(DynamicEvaluator(**kwargs), population=False),
            "reference": reference(DynamicEvaluator(**kwargs), tables=False),
        }
    return _CONTEXTS[platform_key]


def _assert_evaluations_identical(got, want):
    """Every field of a DynamicEvaluation, compared bit for bit."""
    assert got.placement == want.placement
    assert got.setting == want.setting
    assert got.exit_stats is want.exit_stats or np.array_equal(
        got.exit_stats.n_i, want.exit_stats.n_i
    )
    assert np.array_equal(got.exit_energy_j, want.exit_energy_j)
    assert np.array_equal(got.exit_latency_s, want.exit_latency_s)
    assert np.array_equal(got.scores, want.scores)
    assert got.dynamic_energy_j == want.dynamic_energy_j
    assert got.dynamic_latency_s == want.dynamic_latency_s
    assert got.energy_gain == want.energy_gain
    assert got.latency_gain == want.latency_gain
    assert got.d_score == want.d_score


def _placement_strategy(total_layers: int):
    return st.sets(
        st.integers(min_value=MIN_EXIT_POSITION, max_value=total_layers - 1),
        min_size=1,
        max_size=6,
    ).map(lambda s: tuple(sorted(s)))


class _LoopedRows:
    """A population gather priced pair by pair through an evaluator's
    ``path_costs`` (the per-layer loop on a ``tables=False`` reference)."""

    def __init__(self, evaluator):
        self._evaluator = evaluator

    def path_costs(self, position_lists, settings) -> PopulationPathCosts:
        rows = [
            self._evaluator.path_costs(positions, setting)
            for positions, setting in zip(position_lists, settings)
        ]
        return PopulationPathCosts(
            widths=np.array([len(positions) for positions in position_lists]),
            exit_energy_j=np.stack([row[0] for row in rows]),
            exit_latency_s=np.stack([row[1] for row in rows]),
            full_energy_j=np.array([row[2] for row in rows]),
            full_latency_s=np.array([row[3] for row in rows]),
        )


class TestPopulationBitIdentity:
    """evaluate_population == [evaluate(p) for p in placements], bitwise."""

    @pytest.mark.parametrize("platform_key", PLATFORM_KEYS)
    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_matches_per_placement_loop(self, platform_key, data):
        ctx = _context(platform_key)
        total_layers = ctx["config"].total_mbconv_layers
        pool = data.draw(
            st.lists(
                _placement_strategy(total_layers), min_size=1, max_size=4, unique=True
            )
        )
        # Population indices into the pool: duplicates allowed, N from 1 up.
        indices = data.draw(
            st.lists(
                st.integers(min_value=0, max_value=len(pool) - 1),
                min_size=1,
                max_size=8,
            )
        )
        setting = ctx["settings"][
            data.draw(st.integers(min_value=0, max_value=len(ctx["settings"]) - 1))
        ]
        placements = [
            ExitPlacement(total_layers, pool[i]) for i in indices
        ]
        batch = ctx["population"].evaluate_population(placements, setting)
        assert len(batch) == len(placements)
        for placement, got in zip(placements, batch):
            want = ctx["per_call"].evaluate(placement, setting)
            _assert_evaluations_identical(got, want)
            reference = ctx["reference"].evaluate(placement, setting)
            _assert_evaluations_identical(got, reference)

    @pytest.mark.parametrize("platform_key", PLATFORM_KEYS)
    def test_singleton_and_duplicates(self, platform_key):
        """Explicit N=1 and duplicate-heavy populations (not left to
        hypothesis's whims): duplicates must come back as the same cached
        evaluation, and a singleton batch must equal the scalar call."""
        ctx = _context(platform_key)
        total_layers = ctx["config"].total_mbconv_layers
        setting = ctx["dvfs"].default_setting()
        single = ExitPlacement(total_layers, (MIN_EXIT_POSITION, total_layers - 1))
        (only,) = ctx["population"].evaluate_population([single], setting)
        _assert_evaluations_identical(only, ctx["per_call"].evaluate(single, setting))

        other = ExitPlacement(total_layers, (total_layers // 2,))
        batch = ctx["population"].evaluate_population(
            [single, other, single, single, other], setting
        )
        assert batch[0] is batch[2] is batch[3]
        assert batch[1] is batch[4]
        _assert_evaluations_identical(batch[1], ctx["per_call"].evaluate(other, setting))

    @pytest.mark.parametrize("platform_key", PLATFORM_KEYS)
    def test_wide_population_crosses_vector_width(self, platform_key):
        """Mixed widths spanning the 8-exit pairwise-summation boundary —
        the d_score reduction switches strategy there, and both branches
        must stay bit-identical to the reference ``mean()``."""
        ctx = _context(platform_key)
        total_layers = ctx["config"].total_mbconv_layers
        rng = np.random.default_rng(7)
        slots = list(range(MIN_EXIT_POSITION, total_layers))
        placements = [
            ExitPlacement(
                total_layers,
                tuple(sorted(rng.choice(slots, size=size, replace=False).tolist())),
            )
            for size in (1, 3, 8, 10, min(11, len(slots)))
        ]
        setting = ctx["dvfs"].sample(rng)
        batch = ctx["population"].evaluate_population(placements, setting)
        for placement, got in zip(placements, batch):
            _assert_evaluations_identical(
                got, ctx["reference"].evaluate(placement, setting)
            )

    @pytest.mark.parametrize("platform_key", PLATFORM_KEYS)
    def test_fallback_without_population_kernel(self, platform_key):
        """population=False routes through the per-placement
        path but keeps the batched signature and result order."""
        ctx = _context(platform_key)
        total_layers = ctx["config"].total_mbconv_layers
        setting = ctx["dvfs"].default_setting()
        placements = [
            ExitPlacement(total_layers, (MIN_EXIT_POSITION,)),
            ExitPlacement(total_layers, (MIN_EXIT_POSITION + 2, total_layers - 1)),
        ]
        batch = ctx["per_call"].evaluate_population(placements, setting)
        for placement, got in zip(placements, batch):
            _assert_evaluations_identical(got, ctx["per_call"].evaluate(placement, setting))


class TestCostTableBankThreadSafety:
    """Racing threads grow the cost store by exactly one row per setting."""

    @staticmethod
    def _race(kernel, positions, settings_for_slot, n_threads=8):
        barrier = threading.Barrier(n_threads)
        results = [None] * n_threads

        def gather(slot):
            barrier.wait()
            results[slot] = kernel.row_costs(positions, settings_for_slot(slot))

        threads = [
            threading.Thread(target=gather, args=(slot,)) for slot in range(n_threads)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # let the threads interleave inside the growth
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        return results

    @staticmethod
    def _bytes(costs):
        exit_energy, exit_latency, full_energy, full_latency = costs
        return (
            exit_energy.tobytes(),
            exit_latency.tobytes(),
            np.float64(full_energy).tobytes(),
            np.float64(full_latency).tobytes(),
        )

    @staticmethod
    def _fresh(ctx):
        """An empty store over its own energy model, so the timing-kernel
        call counter counts exactly this store's row builds."""
        model = EnergyModel(ctx["platform"])
        kernel = DynamicEvaluator(**{**ctx["kwargs"], "energy_model": model}).population
        return kernel, model.latency

    def test_racing_builders_share_one_table(self):
        ctx = _context("tx2-gpu")
        kernel, latency = self._fresh(ctx)
        setting = ctx["dvfs"].default_setting()
        positions = (MIN_EXIT_POSITION, 9, ctx["config"].total_mbconv_layers - 1)
        results = self._race(kernel, positions, lambda slot: setting)
        assert len(kernel) == latency.batch_timing_calls == 1
        assert all(self._bytes(got) == self._bytes(results[0]) for got in results)

    def test_distinct_settings_race_to_distinct_tables(self):
        ctx = _context("tx2-gpu")
        kernel, latency = self._fresh(ctx)
        rng = np.random.default_rng(3)
        settings_pair = [ctx["dvfs"].default_setting(), ctx["dvfs"].sample(rng)]
        assert settings_pair[0] != settings_pair[1]
        positions = (MIN_EXIT_POSITION + 1, 12)
        results = self._race(kernel, positions, lambda slot: settings_pair[slot % 2])
        assert len(kernel) == latency.batch_timing_calls == 2
        for slot, got in enumerate(results):
            assert self._bytes(got) == self._bytes(results[slot % 2])


class TestStackedStoreThreadSafety:
    def test_racing_mixed_settings_match_single_thread(self):
        """Eight threads grow one kernel's stacked store with fresh, mixed
        settings at once; each result equals a single-threaded kernel's,
        bit for bit."""
        ctx = _context("tx2-gpu")
        total_layers = ctx["config"].total_mbconv_layers
        rng = np.random.default_rng(11)
        slots = list(range(MIN_EXIT_POSITION, total_layers))
        n_threads = 8
        jobs = []
        for _ in range(n_threads):
            rows = int(rng.integers(4, 12))
            positions = [
                tuple(sorted(rng.choice(slots, size=size, replace=False).tolist()))
                for size in rng.integers(1, 9, size=rows).tolist()
            ]
            picks = rng.integers(0, len(ctx["settings"]), size=rows)
            jobs.append((positions, [ctx["settings"][i] for i in picks]))
        shared = DynamicEvaluator(**ctx["kwargs"]).population
        barrier = threading.Barrier(n_threads)
        results = [None] * n_threads

        def run(slot):
            barrier.wait()
            results[slot] = shared.path_costs(*jobs[slot])

        threads = [
            threading.Thread(target=run, args=(slot,)) for slot in range(n_threads)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # force interleaving inside path_costs
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        single = DynamicEvaluator(**ctx["kwargs"]).population
        for job, got in zip(jobs, results):
            want = single.path_costs(*job)
            for name in (
                "widths",
                "exit_energy_j",
                "exit_latency_s",
                "full_energy_j",
                "full_latency_s",
            ):
                assert getattr(got, name).tobytes() == getattr(want, name).tobytes()


class TestRuntimePathsViaBank:
    """Runtime planners and serving profiles through the cost store."""

    def test_per_exit_plan_identical_to_reference(self):
        from repro.runtime.planner import plan_per_exit_dvfs

        ctx = _context("tx2-gpu")
        placement = ExitPlacement(
            ctx["config"].total_mbconv_layers, (6, 10, ctx["config"].total_mbconv_layers - 1)
        )
        table_plan = plan_per_exit_dvfs(ctx["population"], placement, ctx["dvfs"])
        # The planner prices its grid through ``evaluator.population``; here
        # that gather is replaced by the per-layer reference loop, row by row.
        looped = reference(DynamicEvaluator(**ctx["kwargs"]), tables=False)
        looped.population = _LoopedRows(looped)
        reference_plan = plan_per_exit_dvfs(looped, placement, ctx["dvfs"])
        assert table_plan.settings == reference_plan.settings
        assert table_plan.single_setting_energy_j == reference_plan.single_setting_energy_j
        assert table_plan.per_exit_energy_j == reference_plan.per_exit_energy_j

    def test_serving_profiles_identical_to_reference(self):
        from repro.runtime.governor import DvfsGovernor
        from repro.serving.governor import _profiles_for

        ctx = _context("tx2-gpu")
        rng = np.random.default_rng(11)
        placement = ExitPlacement(ctx["config"].total_mbconv_layers, (7, 12))
        per_exit = {
            0: ctx["dvfs"].sample(rng),
            1: ctx["dvfs"].sample(rng),
            2: ctx["dvfs"].default_setting(),
        }
        governor = DvfsGovernor(ctx["dvfs"].default_setting(), per_exit=per_exit)
        table_profiles = _profiles_for(ctx["population"], placement, governor)
        reference_profiles = profiles_for_reference(
            ctx["reference"], placement, governor
        )
        assert len(table_profiles) == len(placement.positions) + 1
        for got, want in zip(table_profiles, reference_profiles):
            assert got.busy_s == want.busy_s
            assert got.overhead_s == want.overhead_s
            assert got.dynamic_energy_j == want.dynamic_energy_j
            assert got.passive_power_w == want.passive_power_w

    def test_path_costs_match_reference(self):
        ctx = _context("carmel-cpu")
        rng = np.random.default_rng(5)
        positions = (8, 13)
        setting = ctx["dvfs"].sample(rng)
        got = ctx["population"].path_costs(positions, setting)
        want = ctx["reference"].path_costs(positions, setting)
        assert np.array_equal(got[0], want[0])
        assert np.array_equal(got[1], want[1])
        assert got[2] == want[2]
        assert got[3] == want[3]


    @pytest.mark.parametrize("platform_key", sorted(LADDER_DIGESTS))
    def test_serving_setup_golden_digest(self, platform_key):
        """Planner plans at three slacks and the whole serving ladder —
        settings, energies, thresholds, expected usage and every rung's path
        profiles — hash to a digest recorded before the cost tables became
        rows of the stacked store."""
        from repro.runtime.planner import plan_per_exit_dvfs
        from repro.serving.governor import _profiles_for, plan_config_ladder
        from repro.serving.stream import LogitsSynthesizer

        ctx = _context(platform_key)
        evaluator = DynamicEvaluator(**ctx["kwargs"])
        total = ctx["config"].total_mbconv_layers
        placement = ExitPlacement(total, (6, 10, total - 1))
        digest = hashlib.blake2b(digest_size=16)

        def floats(values):
            array = np.asarray(values, dtype=np.float64).ravel()
            digest.update(np.int64(array.size).tobytes())
            digest.update(array.tobytes())

        def clocks(settings):
            return [(s.core_ghz, s.emc_ghz) for s in settings]

        for slack in (1.0, 1.5, 3.0):
            plan = plan_per_exit_dvfs(
                evaluator, placement, ctx["dvfs"], latency_slack=slack
            )
            floats(clocks(plan.settings.values()))
            floats([plan.single_setting_energy_j, plan.per_exit_energy_j])
        calibration = LogitsSynthesizer(
            placement, backbone_accuracy=0.87, num_classes=100, seed=0
        ).calibration_stream(256)
        for rung in plan_config_ladder(evaluator, placement, ctx["dvfs"], calibration):
            floats(clocks([rung.setting] + [s for _, s in rung.per_exit or ()]))
            floats(rung.thresholds)
            floats(rung.expected_usage)
            floats([
                rung.exit_rate,
                rung.expected_accuracy,
                rung.expected_busy_s,
                rung.expected_latency_s,
                rung.expected_energy_j,
            ])
            floats(rung.path_overheads_s)
            floats(rung.path_latencies_s)
            for profile in _profiles_for(evaluator, placement, rung.dvfs_governor()):
                floats([
                    profile.busy_s,
                    profile.overhead_s,
                    profile.dynamic_energy_j,
                    profile.passive_power_w,
                ])
        assert digest.hexdigest() == LADDER_DIGESTS[platform_key]

    @pytest.mark.parametrize(
        "entry", ["evaluate", "path_costs", "fused_batch", "planner", "profiles"]
    )
    def test_fresh_setting_builds_one_row(self, entry):
        """Whichever path first reaches a setting, its row costs one
        batched timing pass and one ``cost_table.builds`` count, and a
        second entry point at that setting costs neither."""
        from repro.obs.trace import Recorder, recording
        from repro.runtime.governor import DvfsGovernor
        from repro.runtime.planner import plan_per_exit_dvfs
        from repro.serving.governor import _profiles_for

        ctx = _context("tx2-gpu")
        model = EnergyModel(ctx["platform"])
        evaluator = DynamicEvaluator(**{**ctx["kwargs"], "energy_model": model})
        total = ctx["config"].total_mbconv_layers
        placement = ExitPlacement(total, (6, 11, total - 1))
        setting = ctx["dvfs"].default_setting()
        enter = {
            "evaluate": lambda: evaluator.evaluate(placement, setting),
            "path_costs": lambda: evaluator.path_costs(placement.positions, setting),
            "fused_batch": lambda: evaluator.population.fused_batch(
                [placement], [setting], evaluator.oracle
            ),
            "planner": lambda: plan_per_exit_dvfs(evaluator, placement, ctx["dvfs"]),
            "profiles": lambda: _profiles_for(
                evaluator, placement, DvfsGovernor(setting)
            ),
        }
        recorder = Recorder()
        with recording(recorder):
            enter[entry]()
        rows = len(evaluator.population)
        assert model.latency.batch_timing_calls == rows
        assert recorder.counters["cost_table.builds"] == rows
        for other in ("evaluate", "path_costs", "fused_batch", "profiles"):
            enter[other]()
        assert model.latency.batch_timing_calls == rows == len(evaluator.population)


class TestPopulationEvalCodec:
    """The population-eval TaskSpec and the DVFS-grid artifacts it shards."""

    def test_spec_round_trip_matches_inline(self):
        from repro.engine.tasks import _dynamic_context, run_spec, task_spec

        backbone = attentivenas_model("a3")
        placements = ((5, 9), (6,), (5, 9))  # duplicates survive the codec
        setting_kwargs = dict(core_ghz=1.11, emc_ghz=1.062)
        spec = task_spec(
            "population-eval",
            platform="tx2-gpu",
            num_classes=100,
            seed=0,
            backbone=backbone,
            placements=placements,
            oracle_samples=512,
            **setting_kwargs,
        )
        rows = run_spec(spec)
        assert [tuple(r["positions"]) for r in rows] == list(placements)
        evaluator = _dynamic_context(
            "tx2-gpu", 100, 0, backbone, 1.0, 512, False, None, None
        )
        from repro.hardware.dvfs import DvfsSetting

        decoded = [
            ExitPlacement(backbone.total_mbconv_layers, p) for p in placements
        ]
        inline = evaluator.evaluate_population(
            decoded, DvfsSetting(**setting_kwargs)
        )
        for row, evaluation in zip(rows, inline):
            assert row["dynamic_energy_j"] == evaluation.dynamic_energy_j
            assert row["dynamic_latency_s"] == evaluation.dynamic_latency_s
            assert row["d_score"] == evaluation.d_score
            assert row["energy_gain"] == evaluation.energy_gain
            assert row["latency_gain"] == evaluation.latency_gain

    def test_sharded_grid_matches_compute_grid(self):
        from repro.engine.tasks import _dynamic_context
        from repro.experiments.dvfs_grid import compute_grid, sharded_grid

        backbone = attentivenas_model("a3")
        decoded = [
            ExitPlacement(backbone.total_mbconv_layers, p)
            for p in [(5, 9, 14), (7,)]
        ]
        sharded = sharded_grid(
            "tx2-gpu",
            backbone,
            decoded,
            workers=1,
            executor="serial",
            oracle_samples=512,
        )
        evaluator = _dynamic_context(
            "tx2-gpu", 100, 0, backbone, 1.0, 512, False, None, None
        )
        space = DvfsSpace(get_platform("tx2-gpu"))
        inline = compute_grid(evaluator, space, decoded)
        assert sharded.placements == inline.placements
        assert sharded.core_ghz == inline.core_ghz
        assert sharded.emc_ghz == inline.emc_ghz
        assert np.array_equal(sharded.dynamic_energy_j, inline.dynamic_energy_j)
        assert np.array_equal(sharded.dynamic_latency_s, inline.dynamic_latency_s)
        assert np.array_equal(sharded.d_score, inline.d_score)
        assert sharded.num_settings == space.cardinality
        # The artifact's argmin helpers address the assembled arrays.
        best = sharded.best_energy_setting()
        assert sharded.min_energy_j() == min(
            sharded.dynamic_energy_j[0, ci, ei]
            for ci in range(len(sharded.core_ghz))
            for ei in range(len(sharded.emc_ghz))
        )
        assert best in space.all_settings()

    def test_reference_placement_is_deterministic(self):
        from repro.experiments.table2 import reference_placement

        assert reference_placement(21) == reference_placement(21)
        placement = reference_placement(21)
        assert placement.positions[0] == MIN_EXIT_POSITION
        assert all(
            MIN_EXIT_POSITION <= p <= 20 for p in placement.positions
        )
