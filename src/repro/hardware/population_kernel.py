"""Population-batched path costs: one stacked gather per mixed-setting population.

The PR-5 cost tables made a *single* dynamic evaluation an O(exits) cumsum
gather, but an NSGA-II generation (or an exhaustive DVFS sweep) still pays
full Python per-call overhead per individual: index arrays, branch-scalar
loops and small-array arithmetic are re-dispatched N times.
:class:`PopulationKernel` amortises that across a whole population — N exit
placements, each at its own :class:`~repro.hardware.dvfs.DvfsSetting`,
become one padded ``(N, E_max)`` gather over every seen setting's
:class:`~repro.hardware.cost_table.SettingCostTable` cumsums stacked as
(settings × layers) rows, indexed by (setting row, prefix end), plus
``E_max`` broadcast column additions — independent of N and of how many
settings the population mixes.

Bit-identity contract (same as every kernel in this repo): the stacked path
costs equal :meth:`SettingCostTable.exit_path_costs` /
:meth:`~SettingCostTable.full_path_cost` — and therefore the reference
per-layer loop in ``tests/oracles/search.py`` — bit for bit, for every row:

* Row ``n``'s gathered prefix values are the same cumulative-array elements
  the per-placement kernel reads at that row's setting (stacking copies
  them verbatim).
* Branch scalars are added as broadcast *column* operations in ascending
  exit order (``M[:, j:] += B[:, j:j+1]``): each matrix element receives
  exactly the per-placement sequence of scalar float64 additions, in the
  same left-to-right association — elementwise ops carry no cross-element
  reduction, so stacking cannot reorder anything.
* Rows are padded to ``E_max`` with a sentinel position whose branch terms
  are ``0.0``; for the full-path accumulators the pad contributes trailing
  ``x + 0.0`` no-ops (bitwise identity for the strictly positive costs
  involved), and padded exit columns are never read.

Reductions (usage-weighted dots, score means) deliberately stay *per-row* in
the evaluator: a matrix reduction would change BLAS/pairwise summation order
and drift by ULPs.  What gets stacked is exactly the elementwise work.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from operator import attrgetter
from typing import Callable, NamedTuple, Sequence

import numpy as np

from repro.arch.cost import LayerCost
from repro.exits.evaluation import PopulationExitStats
from repro.hardware.cost_table import CostTableBank, SettingCostTable
from repro.hardware.dvfs import DvfsSetting


@dataclass(frozen=True)
class PopulationPathCosts:
    """Stacked path costs of N placements, each at its own DVFS setting.

    ``exit_energy_j`` / ``exit_latency_s`` are ``(N, E_max)`` matrices; row
    ``n`` is valid through ``widths[n]`` columns (the rest is padding and
    must not be read).  ``full_energy_j`` / ``full_latency_s`` are ``(N,)``
    full-path (every-branch) costs.
    """

    widths: np.ndarray
    exit_energy_j: np.ndarray
    exit_latency_s: np.ndarray
    full_energy_j: np.ndarray
    full_latency_s: np.ndarray

    def row(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """(energy, latency) views of row ``n``'s valid exit-path costs."""
        w = int(self.widths[n])
        return self.exit_energy_j[n, :w], self.exit_latency_s[n, :w]


@dataclass(frozen=True)
class FusedPopulationBatch:
    """Accuracy and cost matrices of one population, one setting per row.

    The fusion of the two population kernels: ``stats`` is the oracle's
    stacked accuracy side (N_i, usage, dissimilarity, union accuracies) and
    ``costs`` the cost-table side (exit/full path energies and latencies),
    aligned row for row and padded to the same ``E_max`` — widths are
    asserted equal at construction.  One :meth:`PopulationKernel.fused_batch`
    call produces everything eq. 5–7 needs for a whole population.
    """

    stats: PopulationExitStats
    costs: PopulationPathCosts

    def __post_init__(self):
        if not np.array_equal(self.stats.widths, self.costs.widths):
            raise ValueError("accuracy and cost batches disagree on exit widths")

    @property
    def widths(self) -> np.ndarray:
        return self.costs.widths

    def __len__(self) -> int:
        return len(self.costs.widths)


class _StackedTables(NamedTuple):
    """Gather operands of every seen setting, stacked setting-major.

    ``cum`` holds each table's ``cum_total/core/mem/static`` as a
    ``(4, settings · layers)`` array and ``branch`` the branch terms
    ``total_s, core_j, mem_dyn_j, mem_bg_j, static_j`` as
    ``(5, settings · positions)`` — one flat index per (setting row, prefix
    end) or (setting row, position) gathers every operand.  Branch slots
    hold NaN until filled; position ``0`` is the padding sentinel (prefix
    index 0, all-zero branch terms).  A snapshot never changes shape: fills
    only write slots no reader has been handed, and growth builds a new
    snapshot, so readers need no lock.
    """

    rows: dict[tuple[float, float], int]  # (core_ghz, emc_ghz) -> row
    tables: tuple[SettingCostTable, ...]
    cum: np.ndarray
    branch: np.ndarray


_setting_key = attrgetter("core_ghz", "emc_ghz")
_branch_values = attrgetter("total_s", "core_j", "mem_dyn_j", "mem_bg_j", "static_j")


class PopulationKernel:
    """Batched analysis surface over a :class:`CostTableBank`.

    One kernel hangs off a :class:`~repro.eval.dynamic.DynamicEvaluator`
    (same lifetime as its bank); :meth:`path_costs` is the stable entry
    point the evaluator, the IOE batch hook and the exhaustive-grid sweeps
    all call.
    """

    def __init__(
        self,
        bank: CostTableBank,
        branch_cost: Callable[[int], LayerCost],
        max_position: int,
    ):
        self._bank = bank
        self._branch_cost = branch_cost
        self._layers = len(bank.cost.layers)
        self._positions = max_position + 1
        self._prefix_index = np.zeros(self._positions, dtype=np.intp)
        for position in range(1, self._positions):
            self._prefix_index[position] = bank.cost.prefix_end(position)
        self._store = _StackedTables({}, (), np.empty((4, 0)), np.empty((5, 0)))
        self._lock = threading.Lock()

    def _rows(
        self, settings: Sequence[DvfsSetting], positions: np.ndarray
    ) -> tuple[_StackedTables, np.ndarray, np.ndarray]:
        """A store snapshot holding every operand a gather reads, the rows'
        setting indices into it and their flat branch slots.

        Growth (new settings append rows) and branch fills run under the
        lock; the returned snapshot is then read lock-free, which keeps
        thread-executor runs sharing one evaluator consistent.
        """
        keys = list(map(_setting_key, settings))
        distinct = dict(zip(keys, settings))
        size = self._positions
        with self._lock:
            store = self._store
            fresh = [self._bank.table(distinct[k]) for k in distinct if k not in store.rows]
            if fresh:
                rows = dict(store.rows)
                for table in fresh:
                    rows[_setting_key(table.setting)] = len(rows)
                cum = [(t.cum_total, t.cum_core, t.cum_mem, t.cum_static) for t in fresh]
                branch = np.full((5, len(fresh), size), np.nan)
                branch[:, :, 0] = 0.0  # the padding sentinel
                store = self._store = _StackedTables(
                    rows,
                    store.tables + tuple(fresh),
                    np.hstack((store.cum, np.stack(cum, axis=1).reshape(4, -1))),
                    np.hstack((store.branch, branch.reshape(5, -1))),
                )
            rows = np.fromiter(
                map(store.rows.__getitem__, keys), dtype=np.intp, count=len(keys)
            )
            slots = rows[:, None] * size + positions
            missing = np.unique(slots[np.isnan(store.branch[0, slots])]).tolist()
            if missing:
                store.branch[:, missing] = np.array([
                    _branch_values(
                        store.tables[slot // size].branch_terms(
                            slot % size, self._branch_cost(slot % size)
                        )
                    )
                    for slot in missing
                ]).T
        return store, rows, slots

    def path_costs(
        self,
        position_lists: Sequence[Sequence[int]],
        settings: Sequence[DvfsSetting],
    ) -> PopulationPathCosts:
        """Exit-path and full-path costs of N placements, row ``n`` at
        ``settings[n]``.

        One ``(N, E_max)`` gather over the stacked cumulative arrays,
        indexed by (setting row, prefix end), then one broadcast column
        addition per exit slot — total work O(N · E_max) array elements with
        no per-placement or per-setting Python loop over branches.
        """
        count = len(position_lists)
        widths = np.fromiter(
            (len(positions) for positions in position_lists),
            dtype=np.intp,
            count=count,
        )
        e_max = int(widths.max()) if count else 0
        positions = np.zeros((count, e_max), dtype=np.intp)
        for row, row_positions in enumerate(position_lists):
            positions[row, : len(row_positions)] = row_positions
        store, rows, slots = self._rows(settings, positions)

        layers = self._layers
        prefix = rows[:, None] * layers + self._prefix_index[positions]
        latency, core, mem, static = store.cum.take(prefix, axis=1)
        branch_total, branch_core, branch_mem_dyn, branch_mem_bg, branch_static = (
            store.branch.take(slots, axis=1)
        )
        full_latency, full_core, full_mem, full_static = store.cum.take(
            rows * layers + (layers - 1), axis=1
        )

        # Ascending exit order mirrors the per-placement kernel: branch j
        # lands on every exit i >= j before branch j+1 does, and the memory
        # rail adds its two terms per branch in the reference order.
        for j in range(e_max):
            latency[:, j:] += branch_total[:, j : j + 1]
            core[:, j:] += branch_core[:, j : j + 1]
            mem[:, j:] += branch_mem_dyn[:, j : j + 1]
            mem[:, j:] += branch_mem_bg[:, j : j + 1]
            static[:, j:] += branch_static[:, j : j + 1]
            full_latency += branch_total[:, j]
            full_core += branch_core[:, j]
            full_mem += branch_mem_dyn[:, j]
            full_mem += branch_mem_bg[:, j]
            full_static += branch_static[:, j]

        return PopulationPathCosts(
            widths=widths,
            exit_energy_j=core + mem + static,
            exit_latency_s=latency,
            full_energy_j=(full_core + full_mem) + full_static,
            full_latency_s=full_latency,
        )

    def fused_batch(
        self, placements, settings: Sequence[DvfsSetting], oracle
    ) -> FusedPopulationBatch:
        """Accuracy + cost matrices of N placements in one fused call, row
        ``n`` costed at ``settings[n]``.

        ``oracle`` is any provider exposing ``population_stats(placements)``
        (a :class:`~repro.accuracy.exit_model.BackboneExitOracle`); its
        stacked statistics — DVFS-independent, so one pass covers every
        setting — and this kernel's path costs come back aligned and
        width-checked.  This is the surface
        :meth:`DynamicEvaluator.evaluate_generation` drives.
        """
        stats = oracle.population_stats(placements)
        costs = self.path_costs([p.positions for p in placements], settings)
        return FusedPopulationBatch(stats=stats, costs=costs)
