"""Per-(network, DVFS setting) cost tables: the vectorized dynamic-eval kernel.

A paper-budget inner run performs thousands of dynamic evaluations, and each
one used to re-walk the backbone prefix layer by layer in Python for every
exit — an O(layers × exits) loop whose per-layer terms depend only on
``(layer, setting)``.  A :class:`SettingCostTable` precomputes those terms
once: per-layer vectors of roofline time, busy time, dispatch overhead and
the four rail-energy contributions, plus their cumulative sums.  A backbone
prefix report then becomes a cumsum lookup at the prefix index, and an
early-exit path costs one cached scalar per traversed exit branch — O(exits)
array work per candidate.

Bit-identity contract: every number a table produces equals the reference
per-layer loop (``accumulate_reference`` in ``tests/oracles/search.py``)
bit for bit.
``np.cumsum`` sums strictly left to right (matching the loop's accumulator),
the memory rail's two per-layer terms are interleaved before summation to
preserve their in-loop addition order (float addition is not associative),
and branch scalars are added to the gathered prefix values in the exact
sequence the loop appends branch layers.

A :class:`CostTableBank` lazily materialises one table per setting over the
finite core × EMC grid and is shared across a whole inner run: every
placement evaluated at a seen setting reuses the same table and the same
cached branch scalars.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.arch.cost import LayerCost, NetworkCost
from repro.hardware.dvfs import DvfsSetting
from repro.obs import trace
from repro.hardware.energy import (
    EnergyModel,
    EnergyReport,
    PathProfile,
    interleaved_cumsum,
)


@dataclass(frozen=True)
class BranchTerms:
    """Scalar cost terms of one exit branch at one DVFS setting."""

    total_s: float
    busy_s: float
    overhead_s: float
    core_j: float
    mem_dyn_j: float
    mem_bg_j: float
    static_j: float


class SettingCostTable:
    """Precomputed per-layer cost vectors of one network at one setting.

    Cumulative arrays are indexed like ``cost.layers``; ``cum_*[i]`` is the
    reference loop's accumulator value after processing layer ``i``.  Exit
    branches are cached as per-position scalars — one branch profile per
    position, which holds by construction (the evaluator derives the branch
    from the backbone's channels at that position).

    ``branch_items`` — optional ``(position, branch LayerCost)`` pairs —
    lets the whole table (backbone vectors *and* every branch scalar) come
    out of a single batched timing pass: the branch layers are appended to
    the backbone for one kernel invocation, then split off.  Elementwise
    kernels make this bit-identical to timing them separately.
    """

    def __init__(
        self,
        model: EnergyModel,
        cost: NetworkCost,
        setting: DvfsSetting,
        branch_items: Sequence[tuple[int, LayerCost]] = (),
        layer_arrays: tuple[np.ndarray, np.ndarray] | None = None,
    ):
        self.setting = setting
        self.cost = cost
        self._model = model
        branch_items = list(branch_items)
        if layer_arrays is None:
            layers = cost.layers + [layer for _, layer in branch_items]
            timing = model.latency.batch_timing(layers, setting)
        else:
            # Bank-precomputed (macs, traffic) over layers + branches: the
            # attribute walk happens once per bank, not once per setting.
            timing = model.latency.batch_timing_arrays(*layer_arrays, setting)
        core, mem_dyn, mem_bg, static = model.layer_energy_terms(timing, setting)
        n = len(cost.layers)
        self.cum_total = np.cumsum(timing.total_s[:n])
        self.cum_core = np.cumsum(core[:n])
        self.cum_mem = interleaved_cumsum(mem_dyn[:n], mem_bg[:n])
        self.cum_static = np.cumsum(static[:n])
        # Path-profile accumulators (see :class:`~repro.hardware.energy.
        # PathProfile`): busy/overhead split and the dynamic-rail energy
        # (core and mem_dyn interleaved, matching the reference profile's
        # per-layer addition order).  Serving-ladder construction reads
        # these instead of re-walking layers through the timing kernel.
        self.cum_busy = np.cumsum(timing.busy_s[:n])
        self.cum_overhead = np.cumsum(timing.overhead_s[:n])
        self.cum_dynamic = interleaved_cumsum(core[:n], mem_dyn[:n])
        self.passive_power_w = model.power.static_power(
            setting
        ) + model.power.mem_background_power(setting)
        self._branch: dict[int, BranchTerms] = {}
        if branch_items:
            columns = zip(
                timing.total_s[n:].tolist(),
                timing.busy_s[n:].tolist(),
                timing.overhead_s[n:].tolist(),
                core[n:].tolist(),
                mem_dyn[n:].tolist(),
                mem_bg[n:].tolist(),
                static[n:].tolist(),
            )
            for (position, _), values in zip(branch_items, columns):
                self._branch[position] = BranchTerms(*values)

    # ------------------------------------------------------------- indexing
    def prefix_end(self, position: int) -> int:
        """Cumulative-array index of the prefix ending at MBConv ``position``."""
        return self.cost.prefix_end(position)

    # -------------------------------------------------------- branch scalars
    def _terms(self, layer: LayerCost) -> BranchTerms:
        timing = self._model.latency.batch_timing([layer], self.setting)
        core, mem_dyn, mem_bg, static = self._model.layer_energy_terms(
            timing, self.setting
        )
        return BranchTerms(
            total_s=float(timing.total_s[0]),
            busy_s=float(timing.busy_s[0]),
            overhead_s=float(timing.overhead_s[0]),
            core_j=float(core[0]),
            mem_dyn_j=float(mem_dyn[0]),
            mem_bg_j=float(mem_bg[0]),
            static_j=float(static[0]),
        )

    def branch_terms(self, position: int, layer: LayerCost) -> BranchTerms:
        """Cached scalar costs of the exit branch attached at ``position``.

        ``setdefault`` keeps the write idempotent under concurrent callers
        (thread-executor runs sharing a bank): racing threads compute the
        same deterministic terms and exactly one value is kept.
        """
        terms = self._branch.get(position)
        if terms is None:
            terms = self._branch.setdefault(position, self._terms(layer))
        return terms

    # ------------------------------------------------------------ path costs
    def exit_path_costs(
        self, positions: Sequence[int], branch_layers: Sequence[LayerCost]
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(energy_j, latency_s)`` arrays of a placement's early-exit paths.

        Element ``i`` covers the backbone prefix up to ``positions[i]`` plus
        the branches at ``positions[: i + 1]`` — gathered from the
        cumulative arrays, then branch scalars added in exactly the order
        the reference loop appends branch layers (branch ``j`` lands on
        every exit ``i >= j`` before branch ``j + 1`` does).
        """
        count = len(positions)
        indices = np.fromiter(
            (self.prefix_end(p) for p in positions), dtype=np.intp, count=count
        )
        latency = self.cum_total[indices]
        core = self.cum_core[indices]
        mem = self.cum_mem[indices]
        static = self.cum_static[indices]
        for j, (position, layer) in enumerate(zip(positions, branch_layers)):
            terms = self.branch_terms(position, layer)
            latency[j:] += terms.total_s
            core[j:] += terms.core_j
            mem[j:] += terms.mem_dyn_j
            mem[j:] += terms.mem_bg_j
            static[j:] += terms.static_j
        return core + mem + static, latency

    def full_path_cost(
        self, positions: Sequence[int], branch_layers: Sequence[LayerCost]
    ) -> tuple[float, float]:
        """``(energy_j, latency_s)`` of the full network plus every branch."""
        latency = float(self.cum_total[-1])
        core = float(self.cum_core[-1])
        mem = float(self.cum_mem[-1])
        static = float(self.cum_static[-1])
        for position, layer in zip(positions, branch_layers):
            terms = self.branch_terms(position, layer)
            latency += terms.total_s
            core += terms.core_j
            mem += terms.mem_dyn_j
            mem += terms.mem_bg_j
            static += terms.static_j
        return (core + mem + static), latency

    # ---------------------------------------------------------- path profiles
    def exit_path_profile(
        self,
        positions: Sequence[int],
        branch_layers: Sequence[LayerCost],
        index: int,
    ) -> PathProfile:
        """Batch-decomposable profile of the path leaving at exit ``index``.

        Bit-identical to a ``path_profile`` walk (``tests/oracles/search.py``)
        over the prefix up to ``positions[index]`` plus the branches at
        ``positions[: index+1]``: the gathered cumulative values continue the
        reference cumsums, and branch scalars are added in the loop's append
        order (core before mem_dyn per branch, preserving the dynamic rail's
        interleave).
        """
        end = self.prefix_end(positions[index])
        busy = float(self.cum_busy[end])
        overhead = float(self.cum_overhead[end])
        dynamic = float(self.cum_dynamic[end])
        for position, layer in zip(positions[: index + 1], branch_layers[: index + 1]):
            terms = self.branch_terms(position, layer)
            busy += terms.busy_s
            overhead += terms.overhead_s
            dynamic += terms.core_j
            dynamic += terms.mem_dyn_j
        return PathProfile(
            busy_s=busy,
            overhead_s=overhead,
            dynamic_energy_j=dynamic,
            passive_power_w=self.passive_power_w,
        )

    def full_path_profile(
        self, positions: Sequence[int], branch_layers: Sequence[LayerCost]
    ) -> PathProfile:
        """Profile of the full network plus every branch (the final path)."""
        busy = float(self.cum_busy[-1])
        overhead = float(self.cum_overhead[-1])
        dynamic = float(self.cum_dynamic[-1])
        for position, layer in zip(positions, branch_layers):
            terms = self.branch_terms(position, layer)
            busy += terms.busy_s
            overhead += terms.overhead_s
            dynamic += terms.core_j
            dynamic += terms.mem_dyn_j
        return PathProfile(
            busy_s=busy,
            overhead_s=overhead,
            dynamic_energy_j=dynamic,
            passive_power_w=self.passive_power_w,
        )

    # --------------------------------------------------------------- reports
    def _report_at(self, index: int) -> tuple[float, float, float, float]:
        """(latency, core, mem, static) accumulator values after ``index``."""
        return (
            float(self.cum_total[index]),
            float(self.cum_core[index]),
            float(self.cum_mem[index]),
            float(self.cum_static[index]),
        )

    def prefix_report(
        self, position: int, exit_layer: LayerCost | None = None
    ) -> EnergyReport:
        """Cumsum-lookup equivalent of :meth:`EnergyModel.prefix_report`.

        Bit-identical to accumulating ``cost.prefix(position)`` (plus the
        optional exit branch) through the reference loop.  The branch terms
        are computed fresh here — ``exit_layer`` need not be the canonical
        branch for ``position``.
        """
        latency, core, mem, static = self._report_at(self.prefix_end(position))
        if exit_layer is not None:
            terms = self._terms(exit_layer)
            latency += terms.total_s
            core += terms.core_j
            mem += terms.mem_dyn_j
            mem += terms.mem_bg_j
            static += terms.static_j
        return EnergyReport(
            latency_s=latency,
            energy_j=core + mem + static,
            core_energy_j=core,
            mem_energy_j=mem,
            static_energy_j=static,
        )

    def network_report(self) -> EnergyReport:
        """Full-network report (all layers, no branches) from the tables."""
        latency, core, mem, static = self._report_at(len(self.cost.layers) - 1)
        return EnergyReport(
            latency_s=latency,
            energy_j=core + mem + static,
            core_energy_j=core,
            mem_energy_j=mem,
            static_energy_j=static,
        )


class CostTableBank:
    """Lazy per-setting :class:`SettingCostTable` store for one network.

    One bank lives for a whole inner run (it hangs off the run's
    :class:`~repro.eval.dynamic.DynamicEvaluator`), so the thousands of
    (placement, setting) evaluations share tables: a seen setting costs one
    dict lookup, and the finite core × EMC grid bounds the bank's size.

    ``branch_items`` (static) or ``branch_provider`` (lazy callable) hands
    every table its exit-branch layers up front, so a fresh setting costs
    exactly one batched kernel pass for the backbone *and* all branches.
    """

    def __init__(
        self,
        model: EnergyModel,
        cost: NetworkCost,
        branch_items: Sequence[tuple[int, LayerCost]] = (),
        branch_provider=None,
    ):
        self.model = model
        self.cost = cost
        self._branch_items = list(branch_items)
        self._branch_provider = branch_provider
        self._layer_arrays: tuple[np.ndarray, np.ndarray] | None = None
        self._tables: dict[tuple[float, float], SettingCostTable] = {}
        self._lock = threading.Lock()

    def table(self, setting: DvfsSetting) -> SettingCostTable:
        """The (lazily built) table for ``setting``.

        Thread-safe: the hot path is a lock-free dict read (a seen setting
        costs one lookup); misses take a lock with a double-checked read, so
        thread-executor inner runs sharing a bank neither race on the
        branch-provider resolution nor build duplicate tables.
        """
        key = (setting.core_ghz, setting.emc_ghz)
        table = self._tables.get(key)
        if table is None:
            # Timed only on the miss path, so the lock-free hit costs nothing
            # extra; when tracing is off the clock reads are skipped too.
            timing = trace.active() is not None
            wait_start = time.perf_counter() if timing else 0.0
            with self._lock:
                if timing:
                    trace.observe(
                        "cost_table.lock_wait_s", time.perf_counter() - wait_start
                    )
                table = self._tables.get(key)
                if table is None:
                    with trace.span(
                        "cost_table.build", core=key[0], emc=key[1]
                    ):
                        table = self._build_table(setting)
                    trace.count("cost_table.builds")
                    self._tables[key] = table
                else:
                    trace.count("cost_table.build_races")
        return table

    def _build_table(self, setting: DvfsSetting) -> SettingCostTable:
        """Materialise one table (caller holds the lock)."""
        if self._branch_provider is not None:
            self._branch_items = list(self._branch_provider())
            self._branch_provider = None
        if self._layer_arrays is None:
            layers = self.cost.layers + [layer for _, layer in self._branch_items]
            self._layer_arrays = (
                np.fromiter(
                    (layer.macs for layer in layers),
                    dtype=np.float64,
                    count=len(layers),
                ),
                np.fromiter(
                    (layer.traffic_bytes for layer in layers),
                    dtype=np.float64,
                    count=len(layers),
                ),
            )
        return SettingCostTable(
            self.model,
            self.cost,
            setting,
            branch_items=self._branch_items,
            layer_arrays=self._layer_arrays,
        )

    def __len__(self) -> int:
        """Number of settings materialised so far."""
        return len(self._tables)
