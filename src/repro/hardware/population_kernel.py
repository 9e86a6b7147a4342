"""The cost store: every path cost of one network, stacked per DVFS setting.

HADAS's inner engine prices exit placements x at DVFS settings f (paper
eqs. 5–7), and every per-layer term of those prices depends only on
``(layer, setting)``.  :class:`PopulationKernel` is the one place they are
kept: per seen setting, one *row* of cumulative per-layer sums and the
scalar costs of every legal exit branch, stacked setting-major so any mix
of settings is one gather.

A fresh setting's row costs one batched timing pass
(:meth:`~repro.hardware.latency.LatencyModel.batch_timing_arrays` over the
backbone layers plus every legal exit branch), whose per-layer terms are
summed into seven rails at once — the four path rails (total time, core,
memory and static energy) and the three serving-profile rails (busy time,
dispatch overhead, dynamic energy) — next to the branch columns.  Rows are
written whole under a lock into a new snapshot, so a snapshot never
changes after it is published and readers need no lock.

Two gathers read the store:

* :meth:`PopulationKernel.path_costs` (and :meth:`fused_batch`, which pairs
  it with the oracle's accuracy matrices) — N placements, each at its own
  setting, as one padded ``(N, E_max)`` gather indexed by (setting row,
  prefix end) plus ``E_max`` broadcast column additions;
* :meth:`PopulationKernel.row_costs` / :meth:`path_profiles` — one
  placement at one setting, the per-pair API of
  :class:`~repro.eval.dynamic.DynamicEvaluator` and the serving ladder,
  without the population path's padding.

Bit-identity contract: every gathered value equals the reference per-layer
loop (``accumulate_reference`` / ``path_profile`` in
``tests/oracles/search.py``) bit for bit.

* ``np.cumsum`` sums strictly left to right like the loop's accumulator;
  the rails that take two terms per layer (memory: dynamic then
  background; serving dynamic energy: core then memory) are interleaved
  before summation to keep the loop's order.
* Branch scalars are added as column operations in ascending exit order
  (``M[..., j:] += B[..., j:j+1]``): each path receives exactly the loop's
  sequence of float64 additions, branch ``j`` landing on every exit
  ``i >= j`` — and on the full path, kept as one extra column — before
  branch ``j + 1`` does.  Elementwise ops carry no cross-element
  reduction, so stacking cannot reorder anything.
* Population rows are padded to ``E_max`` with a sentinel position whose
  branch terms are ``0.0``; the full-path column takes trailing
  ``x + 0.0`` no-ops (bitwise identity for the strictly positive costs
  involved), and padded exit columns are never read.

Reductions (usage-weighted dots, score means) deliberately stay *per-row* in
the evaluator: a matrix reduction would change BLAS/pairwise summation order
and drift by ULPs.  What gets stacked is exactly the elementwise work.
"""

from __future__ import annotations

import threading
from itertools import chain
from dataclasses import dataclass
from operator import attrgetter
from typing import Callable, NamedTuple, Sequence

import numpy as np

from repro.arch.cost import LayerCost, NetworkCost
from repro.exits.evaluation import PopulationExitStats
from repro.exits.placement import MIN_EXIT_POSITION
from repro.hardware.dvfs import DvfsSetting
from repro.hardware.energy import EnergyModel, PathProfile, interleaved_cumsum
from repro.obs import trace


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
    ``costs`` the cost-store side (exit/full path energies and latencies),
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


class _Store(NamedTuple):
    """One immutable snapshot of the stacked rows.

    ``cum`` is ``(7, settings · layers)``: per row, the cumulative sums of
    the rails ``total_s, core_j, mem_j, static_j`` (path costs) and
    ``busy_s, overhead_s, dynamic_j`` (serving profiles).  ``branch`` is
    ``(9, settings · positions)``: per row and exit position, the branch
    terms each rail group adds — ``total_s, core_j, mem_dyn_j, static_j``
    then the memory rail's second term ``mem_bg_j``; ``busy_s,
    overhead_s, core_j`` then the dynamic rail's second term
    ``mem_dyn_j``.  Position ``0`` is the padding sentinel (prefix index 0,
    all-zero branch terms); positions that cannot host an exit hold NaN.
    """

    rows: dict[tuple[float, float], int]  # (core_ghz, emc_ghz) -> row
    cum: np.ndarray
    branch: np.ndarray


#: (cumulative rails, branch terms) of the two rail groups.  The last
#: branch term of a group is the second per-layer term of its rail 2.
_COSTS = (slice(0, 4), slice(0, 5))
_PROFILES = (slice(4, 7), slice(5, 9))

_setting_key = attrgetter("core_ghz", "emc_ghz")


class PopulationKernel:
    """The stacked cost store of one network on one platform.

    One kernel hangs off a :class:`~repro.eval.dynamic.DynamicEvaluator`
    (one per inner run), so every placement priced at a seen setting reads
    the same row; the finite core × EMC grid bounds the store's size.
    ``branch_cost(p)`` gives the exit branch attached at MBConv position
    ``p``; branches are costed for every legal position up to
    ``max_position`` in each row's timing pass.
    """

    def __init__(
        self,
        model: EnergyModel,
        cost: NetworkCost,
        branch_cost: Callable[[int], LayerCost],
        max_position: int,
    ):
        self._model = model
        self._cost = cost
        self._branch_cost = branch_cost
        self._layers = len(cost.layers)
        self._positions = max_position + 1
        # Cumulative-array index of each position's prefix end; the extra
        # last slot (``max_position + 1``) names the full path.
        self._path_index = np.zeros(self._positions + 1, dtype=np.intp)
        for position in range(1, self._positions):
            self._path_index[position] = cost.prefix_end(position)
        self._path_index[-1] = self._layers - 1
        self._layer_arrays: tuple[np.ndarray, np.ndarray] | None = None
        self._store = _Store({}, np.empty((7, 0)), np.empty((9, 0)))
        self._lock = threading.Lock()

    def __len__(self) -> int:
        """Number of settings stored so far."""
        return len(self._store.rows)

    # ----------------------------------------------------------------- rows
    def _grow(self, settings: Sequence[DvfsSetting]) -> _Store:
        """The snapshot after adding a row for every unseen setting.

        Runs under the lock with a re-check, so racing threads build each
        row exactly once; the new snapshot is published whole.
        """
        with self._lock:
            store = self._store
            fresh = {
                key: setting
                for key, setting in zip(map(_setting_key, settings), settings)
                if key not in store.rows
            }
            if not fresh:
                return store
            if self._layer_arrays is None:
                exits = range(MIN_EXIT_POSITION, self._positions)
                layers = self._cost.layers + [self._branch_cost(p) for p in exits]
                self._layer_arrays = (
                    np.array([layer.macs for layer in layers], dtype=np.float64),
                    np.array([layer.traffic_bytes for layer in layers], dtype=np.float64),
                )
            rows = dict(store.rows)
            cum, branch = [store.cum], [store.branch]
            for key, setting in fresh.items():
                with trace.span("cost_table.build", core=key[0], emc=key[1]):
                    row_cum, row_branch = self._build_row(setting)
                trace.count("cost_table.builds")
                rows[key] = len(rows)
                cum.append(row_cum)
                branch.append(row_branch)
            store = self._store = _Store(rows, np.hstack(cum), np.hstack(branch))
        return store

    def _build_row(self, setting: DvfsSetting) -> tuple[np.ndarray, np.ndarray]:
        """One setting's cumulative rails and branch columns, from a single
        batched timing pass over the layers and every legal exit branch
        (elementwise kernels make this bit-identical to timing them apart)."""
        model = self._model
        timing = model.latency.batch_timing_arrays(*self._layer_arrays, setting)
        core, mem_dyn, mem_bg, static = model.layer_energy_terms(timing, setting)
        n = self._layers
        cum = np.empty((7, n))
        np.cumsum(timing.total_s[:n], out=cum[0])
        np.cumsum(core[:n], out=cum[1])
        cum[2] = interleaved_cumsum(mem_dyn[:n], mem_bg[:n])
        np.cumsum(static[:n], out=cum[3])
        np.cumsum(timing.busy_s[:n], out=cum[4])
        np.cumsum(timing.overhead_s[:n], out=cum[5])
        cum[6] = interleaved_cumsum(core[:n], mem_dyn[:n])
        branch = np.full((9, self._positions), np.nan)
        branch[:, 0] = 0.0  # the padding sentinel
        exits = branch[:, MIN_EXIT_POSITION:]
        for rail, values in enumerate((
            timing.total_s, core, mem_dyn, static, mem_bg,
            timing.busy_s, timing.overhead_s, core, mem_dyn,
        )):
            exits[rail] = values[n:]
        return cum, branch

    def _gather(self, store: _Store, rows, positions: np.ndarray, group) -> np.ndarray:
        """One rail group's ``(rails, ..., E + 1)`` path values.

        ``positions`` (``(..., E + 1)``) holds each placement's exit
        positions, then the full-path slot; ``rows`` is the matching store
        row, a scalar for one placement or a column for a population.  The
        prefix sums are gathered, then branch ``j``'s terms land on path
        columns ``j..`` in ascending ``j``: each rail takes its own term,
        then rail 2 takes the group's second term — the reference loop's
        per-branch addition order.
        """
        rails, terms = group
        paths = store.cum[rails].take(
            self._path_index[positions] + rows * self._layers, axis=1
        )
        slots = positions[..., :-1] + rows * self._positions
        branch = store.branch[terms].take(slots, axis=1)
        first, second = branch[:-1], branch[-1]
        for j in range(slots.shape[-1]):
            paths[..., j:] += first[..., j : j + 1]
            paths[2, ..., j:] += second[..., j : j + 1]
        return paths

    def _gather_one(self, positions: Sequence[int], setting: DvfsSetting, group):
        """:meth:`_gather` for one placement at one setting."""
        key = _setting_key(setting)
        store = self._store
        row = store.rows.get(key)
        if row is None:
            store = self._grow((setting,))
            row = store.rows[key]
        return self._gather(store, row, np.array([*positions, self._positions]), group)

    # ---------------------------------------------------------- one placement
    def row_costs(
        self, positions: Sequence[int], setting: DvfsSetting
    ) -> tuple[np.ndarray, np.ndarray, float, float]:
        """``(exit_energy, exit_latency, full_energy, full_latency)`` of one
        placement at one setting (the per-pair gather)."""
        latency, core, mem, static = self._gather_one(positions, setting, _COSTS)
        energy = core + mem + static
        return energy[:-1], latency[:-1], float(energy[-1]), float(latency[-1])

    def path_profiles(
        self, positions: Sequence[int], setting: DvfsSetting
    ) -> list[PathProfile]:
        """Serving profiles of every path of one placement at one setting:
        each exit path, then the full network plus every branch."""
        busy, overhead, dynamic = self._gather_one(positions, setting, _PROFILES)
        power = self._model.power
        passive = power.static_power(setting) + power.mem_background_power(setting)
        return [
            PathProfile(b, o, d, passive)
            for b, o, d in zip(busy.tolist(), overhead.tolist(), dynamic.tolist())
        ]

    # ------------------------------------------------------------ populations
    def path_costs(
        self,
        position_lists: Sequence[Sequence[int]],
        settings: Sequence[DvfsSetting],
    ) -> PopulationPathCosts:
        """Exit-path and full-path costs of N placements, row ``n`` at
        ``settings[n]``.

        One ``(N, E_max + 1)`` gather over the stacked cumulative arrays,
        indexed by (setting row, prefix end), then one broadcast column
        addition per exit slot — total work O(N · E_max) array elements with
        no per-placement or per-setting Python loop over branches.
        """
        count = len(position_lists)
        widths = np.fromiter(map(len, position_lists), dtype=np.intp, count=count)
        e_max = int(widths.max()) if count else 0
        # Exit positions padded with the sentinel 0, then the full-path slot.
        positions = np.zeros((count, e_max + 1), dtype=np.intp)
        positions[:, -1] = self._positions
        positions[:, :-1][np.arange(e_max) < widths[:, None]] = np.fromiter(
            chain.from_iterable(position_lists), dtype=np.intp, count=int(widths.sum())
        )
        keys = list(map(_setting_key, settings))
        store = self._store
        if not store.rows.keys() >= set(keys):
            store = self._grow(settings)
        rows = np.fromiter(
            map(store.rows.__getitem__, keys), dtype=np.intp, count=count
        )[:, None]
        latency, core, mem, static = self._gather(store, rows, positions, _COSTS)
        energy = core + mem + static
        return PopulationPathCosts(
            widths=widths,
            exit_energy_j=energy[:, :-1],
            exit_latency_s=latency[:, :-1],
            full_energy_j=energy[:, -1],
            full_latency_s=latency[:, -1],
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
