"""Frozen reference implementations of the search-side evaluation kernels.

Every function and method body below is the pre-optimisation code the
production kernels in ``src/repro`` replaced, kept verbatim: the per-layer
energy loop the cost store reproduces, the per-pair and per-placement
evaluation loops the population kernels reproduce, the scalar objective
computation the fused objectives reproduce, and the scalar Pareto sorts the
dominance-matrix sorts reproduce.  The bit-identity tests and
``benchmarks/bench_dynamic_eval.py`` compare production against this code,
and ``tests/test_oracles.py`` pins its outputs with golden digests, so an
edit here fails a test even when production drifts along with it.

:func:`reference` switches an already-built evaluator, exit oracle or
``InnerEngine`` into any combination of the reference modes::

    reference(evaluator, tables=False)                 # per-layer cost loop
    reference(evaluator, population=False)             # per-pair evaluate()
    reference(engine, batched_oracle=False, fused_objectives=False)
"""

from __future__ import annotations

import numpy as np

from repro.accuracy.exit_model import BackboneExitOracle
from repro.arch.cost import LayerCost
from repro.eval.dynamic import DynamicEvaluation, DynamicEvaluator
from repro.exits.evaluation import ExitEvaluation, PopulationExitStats
from repro.exits.placement import ExitPlacement
from repro.hardware.dvfs import DvfsSetting
from repro.hardware.energy import (
    EnergyModel,
    EnergyReport,
    PathProfile,
    interleaved_cumsum,
)
from repro.hardware.population_kernel import PopulationPathCosts
from repro.metrics.pareto import dominates
from repro.obs import trace
from repro.runtime.governor import DvfsGovernor
from repro.search.ioe import InnerEngine

__all__ = [
    "ReferenceDynamicEvaluator",
    "ReferenceExitOracle",
    "accumulate_reference",
    "non_dominated_mask_reference",
    "non_dominated_sort_reference",
    "path_profile",
    "profiles_for_reference",
    "reference",
]


def accumulate_reference(
    model: EnergyModel, layers: list[LayerCost], setting: DvfsSetting
) -> EnergyReport:
    """The pre-cost-table per-layer Python loop, kept verbatim.

    This is the bit-identity oracle: the vectorized kernel
    (:meth:`_accumulate`, the cost store) must reproduce it exactly.
    The dynamic-eval bench times it as the "before" baseline, and the
    hypothesis property tests diff the two paths bit for bit.
    """
    p_static = model.power.static_power(setting)
    p_mem_bg = model.power.mem_background_power(setting)
    core_j = mem_j = static_j = 0.0
    latency_s = 0.0
    for layer in layers:
        timing = model.latency.layer_timing(layer, setting)
        busy = timing.total_s - timing.overhead_s
        core_j += model.power.core_dynamic_power(setting, 1.0) * busy * timing.core_activity
        mem_j += model.power.mem_dynamic_power(setting, 1.0) * busy * timing.mem_activity
        mem_j += p_mem_bg * timing.total_s
        static_j += p_static * timing.total_s
        latency_s += timing.total_s
    return EnergyReport(
        latency_s=latency_s,
        energy_j=core_j + mem_j + static_j,
        core_energy_j=core_j,
        mem_energy_j=mem_j,
        static_energy_j=static_j,
    )


def path_profile(
    model: EnergyModel, layers: list[LayerCost], setting: DvfsSetting
) -> PathProfile:
    """Batch-decomposable profile of a layer sequence at one setting.

    Consistent with :meth:`composite_report`: the profile's stand-alone
    ``latency_s``/``energy_j`` equal the report's.  Routed through the
    same vectorized batch-timing kernel (bit-identical to the original
    per-layer loop; the dynamic-rail accumulator's two per-layer terms
    are interleaved to preserve its addition order).
    """
    p_passive = model.power.static_power(setting) + model.power.mem_background_power(setting)
    if not layers:
        return PathProfile(0.0, 0.0, 0.0, p_passive)
    timing = model.latency.batch_timing(layers, setting)
    core, mem_dyn, _, _ = model.layer_energy_terms(timing, setting)
    return PathProfile(
        busy_s=float(np.cumsum(timing.busy_s)[-1]),
        overhead_s=float(np.cumsum(timing.overhead_s)[-1]),
        dynamic_energy_j=float(interleaved_cumsum(core, mem_dyn)[-1]),
        passive_power_w=p_passive,
    )


def profiles_for_reference(
    evaluator: DynamicEvaluator,
    placement: ExitPlacement,
    governor: DvfsGovernor,
) -> list[PathProfile]:
    """Serving-ladder path profiles by a :func:`path_profile` walk over each
    path's layers (what ``serving.governor._profiles_for`` reads from the
    cost store)."""
    positions = placement.positions
    profiles = []
    for index in range(len(positions) + 1):
        setting = governor.setting_for(index)
        if index < len(positions):
            layers = list(evaluator.cost.prefix(positions[index]))
            layers.extend(evaluator.branch_cost(p) for p in positions[: index + 1])
        else:
            layers = list(evaluator.cost.layers)
            layers.extend(evaluator.branch_cost(p) for p in positions)
        profiles.append(path_profile(evaluator.energy_model, layers, setting))
    return profiles


def non_dominated_mask_reference(points: np.ndarray) -> np.ndarray:
    """Pre-vectorization :func:`non_dominated_mask` (the equivalence oracle)."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    n = len(points)
    mask = np.ones(n, dtype=bool)
    for i in range(n):
        if not mask[i]:
            continue
        ge = np.all(points >= points[i], axis=1)
        gt = np.any(points > points[i], axis=1)
        dominated_by = ge & gt
        if dominated_by.any():
            mask[i] = False
    return mask


def non_dominated_sort_reference(points: np.ndarray) -> list[np.ndarray]:
    """Pre-vectorization :func:`non_dominated_sort` (the equivalence oracle)."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    n = len(points)
    dominated_by: list[list[int]] = [[] for _ in range(n)]
    domination_count = np.zeros(n, dtype=int)
    for i in range(n):
        for j in range(i + 1, n):
            if dominates(points[i], points[j]):
                dominated_by[i].append(j)
                domination_count[j] += 1
            elif dominates(points[j], points[i]):
                dominated_by[j].append(i)
                domination_count[i] += 1
    fronts: list[np.ndarray] = []
    current = np.flatnonzero(domination_count == 0)
    while len(current):
        fronts.append(current)
        next_front: list[int] = []
        for i in current:
            for j in dominated_by[i]:
                domination_count[j] -= 1
                if domination_count[j] == 0:
                    next_front.append(j)
        current = np.asarray(sorted(next_front), dtype=int)
    return fronts


class ReferenceDynamicEvaluator(DynamicEvaluator):
    """:class:`DynamicEvaluator` with its pre-optimisation code paths.

    The mode attributes select, per call, between the production kernels
    and the reference loops exactly as the original constructor flags did;
    :func:`reference` sets them.
    """

    use_tables = True
    use_population_kernel = True
    use_fused_objectives = True

    def _exit_path_report(self, positions: tuple[int, ...], upto: int, setting: DvfsSetting):
        """Reference energy report of executing to exit index ``upto``.

        Pre-cost-table implementation (per-layer Python loop), retained as
        the bit-identity oracle for the vectorized kernel and as the
        dynamic-eval bench's "before" baseline.
        """
        layers = list(self.cost.prefix(positions[upto]))
        layers.extend(self.branch_cost(p) for p in positions[: upto + 1])
        return accumulate_reference(self.energy_model, layers, setting)

    def _full_path_report(self, positions: tuple[int, ...], setting: DvfsSetting):
        """Reference energy report of the full network plus all branches."""
        layers = list(self.cost.layers)
        layers.extend(self.branch_cost(p) for p in positions)
        return accumulate_reference(self.energy_model, layers, setting)

    def evaluate(self, placement: ExitPlacement, setting: DvfsSetting) -> DynamicEvaluation:
        """Full dynamic evaluation of (x, f | b) (cached)."""
        key = (placement.key, setting.core_ghz, setting.emc_ghz)
        if key in self._eval_cache:
            trace.count("dyneval.memo_hits")
            return self._eval_cache[key]
        trace.count("dyneval.evaluations")
        trace.count(
            "dyneval.table_path" if self.use_tables else "dyneval.reference_path"
        )

        stats = self.oracle.evaluate_placement(placement)
        positions = placement.positions
        if self.use_tables:
            exit_energy, exit_latency, full_energy, full_latency = super().path_costs(
                positions, setting
            )
        else:
            exit_reports = [
                self._exit_path_report(positions, i, setting)
                for i in range(len(positions))
            ]
            full_report = self._full_path_report(positions, setting)
            exit_energy = np.asarray([r.energy_j for r in exit_reports])
            exit_latency = np.asarray([r.latency_s for r in exit_reports])
            full_energy = full_report.energy_j
            full_latency = full_report.latency_s

        usage = stats.usage
        dynamic_energy = float(usage[:-1] @ exit_energy + usage[-1] * full_energy)
        dynamic_latency = float(usage[:-1] @ exit_latency + usage[-1] * full_latency)

        energy_ratio = exit_energy / self.baseline_energy_j
        latency_ratio = exit_latency / self.baseline_latency_s
        if self.literal_ratios:
            energy_term = energy_ratio
            latency_term = latency_ratio
        else:
            energy_term = np.clip(1.0 - energy_ratio, 0.0, None)
            latency_term = np.clip(1.0 - latency_ratio, 0.0, None)
        dissim = stats.dissimilarity
        scores = stats.n_i * energy_term * latency_term * dissim**self.gamma

        evaluation = DynamicEvaluation(
            placement=placement,
            setting=setting,
            exit_stats=stats,
            exit_energy_j=exit_energy,
            exit_latency_s=exit_latency,
            dynamic_energy_j=dynamic_energy,
            dynamic_latency_s=dynamic_latency,
            energy_gain=float(1.0 - dynamic_energy / self.baseline_energy_j),
            latency_gain=float(1.0 - dynamic_latency / self.baseline_latency_s),
            scores=scores,
            d_score=float(scores.mean()),
        )
        self._eval_cache[key] = evaluation
        return evaluation

    def evaluate_generation(
        self, decoded: list[tuple[ExitPlacement, DvfsSetting]]
    ) -> list[DynamicEvaluation]:
        """Evaluate a mixed-setting generation as one stacked kernel call.

        The entry point the NSGA-II/IOE batch hook, random search, the DVFS
        grids and the ``population-eval`` task kind all lower to: the
        distinct unseen (placement, setting) pairs make one fused
        accuracy+cost call (oracle statistics are DVFS-independent; costs
        gather per row from the stacked setting tables) and one finalize
        pass, with order-preserving results.

        Bit-identical to ``[self.evaluate(p, s) for p, s in decoded]``
        (asserted by the population property tests and the bench): the
        stacked kernel performs exactly the per-pair elementwise work, and
        every reduction (usage-weighted dots, score means) runs per row on
        operand slices identical to the per-call arrays.  Shares
        :meth:`evaluate`'s cache — duplicates and previously seen pairs
        cost a dict read, mixed call patterns stay coherent — and falls back
        to the per-pair loop when either kernel flag is off.
        """
        if not (self.use_tables and self.use_population_kernel):
            trace.count("dyneval.population_fallbacks")
            trace.count("dyneval.population_fallback_rows", len(decoded))
            return [self.evaluate(p, setting) for p, setting in decoded]
        trace.count("dyneval.generation_calls")
        trace.count("dyneval.generation_rows", len(decoded))
        cache = self._eval_cache
        keys = [(p.key, setting.core_ghz, setting.emc_ghz) for p, setting in decoded]
        pending: dict[tuple, tuple[ExitPlacement, DvfsSetting]] = {}
        for key, pair in zip(keys, decoded):
            if key not in cache and key not in pending:
                pending[key] = pair
        if pending:
            fused = self.population.fused_batch(
                [p for p, _ in pending.values()],
                [setting for _, setting in pending.values()],
                self.oracle,
            )
            cache.update(
                zip(pending, self._finalize_population(pending, fused.stats, fused.costs))
            )
        return [cache[key] for key in keys]

    def _finalize_population(
        self,
        pending: dict[tuple, tuple[ExitPlacement, DvfsSetting]],
        stats: PopulationExitStats,
        costs: PopulationPathCosts,
    ) -> list[DynamicEvaluation]:
        """Stacked eq. 5–7 tail: ratios, clamps and scores as fixed-shape
        matrix ops; reductions per row (see :meth:`evaluate_generation`).

        The accuracy matrices arrive pre-stacked from the oracle's
        population kernel — fused with the cost matrices here — and with
        ``use_fused_objectives`` the per-row IOE objective vectors are
        computed in the same pass (guarded stacked reductions) and memoised
        under ``pending``'s cache keys so :meth:`objectives` never
        recomputes them."""
        exit_energy = costs.exit_energy_j
        exit_latency = costs.exit_latency_s
        energy_ratio = exit_energy / self.baseline_energy_j
        latency_ratio = exit_latency / self.baseline_latency_s
        if self.literal_ratios:
            energy_term = energy_ratio
            latency_term = latency_ratio
        else:
            energy_term = np.clip(1.0 - energy_ratio, 0.0, None)
            latency_term = np.clip(1.0 - latency_ratio, 0.0, None)
        n_i = stats.n_i
        dissim_pow = stats.dissimilarity**self.gamma
        scores = n_i * energy_term * latency_term * dissim_pow

        widths = costs.widths.tolist()
        full_energies = costs.full_energy_j.tolist()
        full_latencies = costs.full_latency_s.tolist()
        baseline_energy = self.baseline_energy_j
        baseline_latency = self.baseline_latency_s
        # d_score = scores[:width].mean() per row.  Below numpy's pairwise
        # 8-element unroll every row reduction is the strict left-to-right
        # sum ``mean`` performs, pad columns are exactly ±0.0 (n_i pads are
        # zero), and trailing ±0.0 adds are bitwise no-ops on the
        # non-negative scores — so one stacked reduction divided by the true
        # widths gives ``mean``'s bits for the whole batch.  At eight or
        # more columns the padded and unpadded accumulation orders can
        # differ, so fall back to per-row sums of the exact slices.
        if scores.shape[1] < 8:
            d_scores = (np.add.reduce(scores, axis=1) / costs.widths).tolist()
        else:
            d_scores = [
                float(np.add.reduce(scores[row, :widths[row]]) / widths[row])
                for row in range(len(widths))
            ]
        objective_rows = (
            self._fused_objectives(n_i, dissim_pow, energy_term, latency_term, costs)
            if self.use_fused_objectives
            else None
        )
        # One gather turns the padded matrices into flat concatenations of
        # the valid row prefixes; each evaluation's arrays are contiguous
        # slices of those buffers (read-only by convention, like
        # ``ExitEvaluation.dissimilarity``) — same values as per-row copies
        # without N allocations.  The frozen record is built via __new__ +
        # __dict__ (frozen dataclasses pay one guarded ``object.__setattr__``
        # per field in ``__init__``; this builds the identical object).
        valid = np.arange(scores.shape[1]) < costs.widths[:, None]
        flat_energy = exit_energy[valid]
        flat_latency = exit_latency[valid]
        flat_scores = scores[valid]
        bounds = np.concatenate(([0], np.cumsum(costs.widths))).tolist()
        new = DynamicEvaluation.__new__
        cls = DynamicEvaluation
        objectives_cache = self._objectives_cache
        evaluations = []
        for row, ((key, (placement, setting)), exit_stats) in enumerate(
            zip(pending.items(), stats.evaluations)
        ):
            start = bounds[row]
            end = bounds[row + 1]
            row_energy = flat_energy[start:end]
            row_latency = flat_latency[start:end]
            full_energy = full_energies[row]
            full_latency = full_latencies[row]
            head, tail = exit_stats.usage_split
            dynamic_energy = float(head @ row_energy + tail * full_energy)
            dynamic_latency = float(head @ row_latency + tail * full_latency)
            evaluation = new(cls)
            evaluation.__dict__.update({
                "placement": placement,
                "setting": setting,
                "exit_stats": exit_stats,
                "exit_energy_j": row_energy,
                "exit_latency_s": row_latency,
                "dynamic_energy_j": dynamic_energy,
                "dynamic_latency_s": dynamic_latency,
                "energy_gain": 1.0 - dynamic_energy / baseline_energy,
                "latency_gain": 1.0 - dynamic_latency / baseline_latency,
                "scores": flat_scores[start:end],
                "d_score": d_scores[row],
            })
            evaluations.append(evaluation)
            if objective_rows is not None:
                objectives_cache[key] = objective_rows[row]
        return evaluations

    def path_costs(self, positions: tuple[int, ...], setting: DvfsSetting):
        """Public ``(exit_energy, exit_latency, full_energy, full_latency)``.

        Routed through the active kernel: the cost-store gather when
        ``use_tables`` (the runtime planners' fast path) or the reference
        per-layer loop otherwise — identical bits either way.
        """
        positions = tuple(positions)
        if self.use_tables:
            return super().path_costs(positions, setting)
        exit_reports = [
            self._exit_path_report(positions, i, setting)
            for i in range(len(positions))
        ]
        full_report = self._full_path_report(positions, setting)
        return (
            np.asarray([r.energy_j for r in exit_reports]),
            np.asarray([r.latency_s for r in exit_reports]),
            full_report.energy_j,
            full_report.latency_s,
        )

    def full_path_cost(
        self, positions: tuple[int, ...], setting: DvfsSetting
    ) -> tuple[float, float]:
        """``(energy_j, latency_s)`` of the full network plus all branches."""
        positions = tuple(positions)
        if self.use_tables:
            return super().full_path_cost(positions, setting)
        report = self._full_path_report(positions, setting)
        return report.energy_j, report.latency_s

    def objectives(self, evaluation: DynamicEvaluation) -> tuple[float, float, float]:
        """IOE maximisation vector for one evaluation (paper eqs. 5-6).

        All three components are *per-exit proxy averages*, exactly as the
        paper's D formulation: the accuracy side folds the dissimilarity
        regulariser in (mean of N_i * dissim_i^gamma), and the energy/
        latency sides average the per-exit normalised savings.  None of them
        is an ideal-mapping aggregate — which is precisely why, without the
        dissimilarity term, the search degenerates to clustered exits (the
        proxies do not punish redundancy; the paper's Fig. 7 ablation shows
        the same failure).  Deployment metrics (``energy_gain`` etc.) are
        still the physical ideal-mapping aggregates.

        With ``use_fused_objectives`` the vector was already computed (and
        memoised) inside the fused population finalisation, so the search
        hot path lands on a dict read; the scalar computation below serves
        cold keys (per-placement :meth:`evaluate` callers, fallback modes)
        and is the bit-identity reference for the fused reductions.
        """
        fused = self.use_fused_objectives
        if fused:
            key = (
                evaluation.placement.key,
                evaluation.setting.core_ghz,
                evaluation.setting.emc_ghz,
            )
            cached = self._objectives_cache.get(key)
            if cached is not None:
                return cached
        stats = evaluation.exit_stats
        dissim = stats.dissimilarity**self.gamma
        d_acc = float(np.mean(stats.n_i * dissim))
        energy_ratio = evaluation.exit_energy_j / self.baseline_energy_j
        latency_ratio = evaluation.exit_latency_s / self.baseline_latency_s
        if self.literal_ratios:
            d_energy = float(np.mean(energy_ratio))
            d_latency = float(np.mean(latency_ratio))
        else:
            d_energy = float(np.mean(np.clip(1.0 - energy_ratio, 0.0, None)))
            d_latency = float(np.mean(np.clip(1.0 - latency_ratio, 0.0, None)))
        result = (d_acc, d_energy, d_latency)
        if fused:
            self._objectives_cache[key] = result
        return result


class ReferenceExitOracle(BackboneExitOracle):
    """:class:`BackboneExitOracle` whose population statistics can run as
    the per-placement popcount loop (``use_batched_stats = False``)."""

    use_batched_stats = True

    def evaluate_placements(
        self, placements: list[ExitPlacement]
    ) -> list[ExitEvaluation]:
        """Statistics for a whole population (order-preserving).

        The population kernel's accuracy side.  With ``use_batched_stats``
        (the default) every distinct unmemoised placement goes through
        :meth:`_batched_stats` — one stacked pass over the bit-packed
        column matrix with shared-prefix reuse — and only memo reads remain
        per placement.  Bit-identical to calling :meth:`evaluate_placement`
        in a loop (hypothesis-asserted): both produce the same integer
        counts divided by the same ``n``, and duplicates resolve to the
        same memoised instance.  With the flag off this *is* that loop
        (columns warmed up front), retained as the reference comparator.
        """
        for placement in placements:
            if placement.total_layers != self.total_layers:
                raise ValueError(
                    f"placement assumes {placement.total_layers} layers, oracle "
                    f"has {self.total_layers}"
                )
        if not self.use_batched_stats:
            distinct = sorted(
                {p for placement in placements for p in placement.positions}
            )
            for position in distinct:
                self.exit_column(position)
            self.final_column()
            return [self.evaluate_placement(placement) for placement in placements]
        trace.count("oracle.batch_calls")
        trace.count("oracle.batch_rows", len(placements))
        memo = self._stats
        pending: dict[tuple[int, ...], None] = {}
        for placement in placements:
            positions = placement.positions
            if positions not in pending and memo.get(positions) is None:
                pending[positions] = None
        if pending:
            self._batched_stats(list(pending))
        results = []
        for placement in placements:
            stats = memo.peek(placement.positions)
            if stats is None:  # evicted mid-gather: batch larger than the memo cap
                stats = self.evaluate_placement(placement)
            results.append(stats)
        return results


def reference(
    obj,
    *,
    tables: bool = True,
    population: bool = True,
    batched_oracle: bool = True,
    fused_objectives: bool = True,
):
    """Switch ``obj`` into the reference modes whose keyword is ``False``.

    ``obj`` is a :class:`DynamicEvaluator`, a :class:`BackboneExitOracle` or
    an :class:`InnerEngine` (whose evaluator and oracle are switched).  The
    object is re-classed in place and returned:

    * ``tables=False`` prices every path with the per-layer loop;
    * ``population=False`` evaluates generations pair by pair;
    * ``batched_oracle=False`` computes oracle statistics placement by
      placement;
    * ``fused_objectives=False`` computes objective vectors per evaluation.

    An oracle shared by several evaluators is only touched when
    ``batched_oracle=False``, so switching one evaluator's cost modes never
    changes its siblings.
    """
    if isinstance(obj, InnerEngine):
        reference(
            obj.evaluator,
            tables=tables,
            population=population,
            batched_oracle=batched_oracle,
            fused_objectives=fused_objectives,
        )
        return obj
    if isinstance(obj, BackboneExitOracle):
        if not batched_oracle:
            obj.__class__ = ReferenceExitOracle
            obj.use_batched_stats = False
        return obj
    if not (tables and population and fused_objectives):
        obj.__class__ = ReferenceDynamicEvaluator
        obj.use_tables = tables
        obj.use_population_kernel = population
        obj.use_fused_objectives = fused_objectives
    reference(obj.oracle, batched_oracle=batched_oracle)
    return obj
