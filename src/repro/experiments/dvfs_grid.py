"""Exhaustive core × EMC DVFS grids as first-class cached artifacts.

HADAS's inner search samples the (X, F) space; deployment questions
("what is the true energy-optimal operating point for *this* DyNN?",
"how flat is the energy landscape around the searched setting?") want the
*whole* grid.  With the population kernel one grid column — every placement
at one setting — is a single fused kernel call, so an exhaustive sweep
costs O(settings) kernel calls instead of O(settings × placements) Python
evaluations.

Two computation paths, bit-identical by construction:

* :func:`compute_grid` — inline, one
  :meth:`~repro.eval.dynamic.DynamicEvaluator.evaluate_population` call
  (one stacked gather) per setting.
* :func:`sharded_grid` — lowers the sweep to ``population-eval`` task specs
  (one per (placement-chunk, setting)) and runs them on an
  :class:`~repro.engine.service.EvaluationService`; with a cache attached,
  every (chunk, setting) cell persists under its spec fingerprint, making
  repeat sweeps pure cache reads.

Both fill the same (P, C, E) arrays: placement × core-index × emc-index.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.eval.dynamic import DynamicEvaluator
from repro.exits.placement import ExitPlacement
from repro.hardware.dvfs import DvfsSetting, DvfsSpace


@dataclass(frozen=True)
class DvfsGridArtifact:
    """One exhaustive sweep: every placement at every grid setting.

    Arrays are shaped ``(P, C, E)`` — placement index × core-frequency
    index × EMC-frequency index, matching ``core_ghz``/``emc_ghz`` order.
    """

    platform: str
    backbone_key: str
    placements: tuple[tuple[int, ...], ...]
    core_ghz: tuple[float, ...]
    emc_ghz: tuple[float, ...]
    dynamic_energy_j: np.ndarray
    dynamic_latency_s: np.ndarray
    d_score: np.ndarray

    @property
    def num_settings(self) -> int:
        return len(self.core_ghz) * len(self.emc_ghz)

    def min_energy_j(self, placement_index: int = 0) -> float:
        """Lowest dynamic energy over the grid for one placement.

        Exact minimum of the same float set an explicit candidate loop
        would compare, hence order-independent and bit-identical to it.
        """
        return float(self.dynamic_energy_j[placement_index].min())

    def best_energy_setting(self, placement_index: int = 0) -> DvfsSetting:
        """The setting achieving :meth:`min_energy_j` (first in grid order)."""
        grid = self.dynamic_energy_j[placement_index]
        ci, ei = np.unravel_index(int(np.argmin(grid)), grid.shape)
        return DvfsSetting(self.core_ghz[int(ci)], self.emc_ghz[int(ei)])

    def to_jsonable(self) -> dict:
        """Slim JSON form (for report files; arrays become nested lists)."""
        return {
            "platform": self.platform,
            "backbone_key": self.backbone_key,
            "placements": [list(p) for p in self.placements],
            "core_ghz": list(self.core_ghz),
            "emc_ghz": list(self.emc_ghz),
            "dynamic_energy_j": self.dynamic_energy_j.tolist(),
            "dynamic_latency_s": self.dynamic_latency_s.tolist(),
            "d_score": self.d_score.tolist(),
        }


def _empty_arrays(shape: tuple[int, int, int]):
    return (np.zeros(shape), np.zeros(shape), np.zeros(shape))


def compute_grid(
    evaluator: DynamicEvaluator,
    dvfs_space: DvfsSpace,
    placements: list[ExitPlacement],
) -> DvfsGridArtifact:
    """Inline exhaustive sweep: one stacked kernel call per grid setting."""
    shape = (len(placements), len(dvfs_space.core_freqs), len(dvfs_space.emc_freqs))
    energy, latency, score = _empty_arrays(shape)
    for ci in range(len(dvfs_space.core_freqs)):
        for ei in range(len(dvfs_space.emc_freqs)):
            evaluations = evaluator.evaluate_population(
                placements, dvfs_space.decode(ci, ei)
            )
            for pi, evaluation in enumerate(evaluations):
                energy[pi, ci, ei] = evaluation.dynamic_energy_j
                latency[pi, ci, ei] = evaluation.dynamic_latency_s
                score[pi, ci, ei] = evaluation.d_score
    return DvfsGridArtifact(
        platform=dvfs_space.platform.key,
        backbone_key=evaluator.config.key,
        placements=tuple(p.positions for p in placements),
        core_ghz=tuple(dvfs_space.core_freqs),
        emc_ghz=tuple(dvfs_space.emc_freqs),
        dynamic_energy_j=energy,
        dynamic_latency_s=latency,
        d_score=score,
    )


def grid_specs(
    platform: str,
    backbone,
    placements: list[ExitPlacement],
    dvfs_space: DvfsSpace,
    *,
    num_classes: int = 100,
    seed: int = 0,
    gamma: float = 1.0,
    oracle_samples: int = 2048,
    literal_ratios: bool = False,
    capability_model=None,
    cache_dir: str | None = None,
    chunk_size: int = 256,
) -> list:
    """One ``population-eval`` spec per (placement-chunk, grid setting).

    Settings iterate in grid order (core-major, matching
    :meth:`DvfsSpace.all_settings`); chunks preserve placement order, so
    :func:`assemble_grid` can rebuild the (P, C, E) arrays positionally.
    """
    from repro.engine.tasks import task_spec

    chunks = [
        [list(p.positions) for p in placements[start : start + chunk_size]]
        for start in range(0, len(placements), chunk_size)
    ]
    return [
        task_spec(
            "population-eval",
            platform=platform,
            num_classes=num_classes,
            seed=seed,
            backbone=backbone,
            placements=chunk,
            core_ghz=core,
            emc_ghz=emc,
            gamma=gamma,
            oracle_samples=oracle_samples,
            literal_ratios=literal_ratios,
            capability_model=capability_model,
            cache_dir=cache_dir,
        )
        for core in dvfs_space.core_freqs
        for emc in dvfs_space.emc_freqs
        for chunk in chunks
    ]


def assemble_grid(
    platform: str,
    backbone_key: str,
    placements: list[ExitPlacement],
    dvfs_space: DvfsSpace,
    results: list,
    chunk_size: int = 256,
) -> DvfsGridArtifact:
    """Rebuild the (P, C, E) artifact from :func:`grid_specs` results.

    ``results`` must be in the spec order :func:`grid_specs` produced.
    """
    shape = (len(placements), len(dvfs_space.core_freqs), len(dvfs_space.emc_freqs))
    energy, latency, score = _empty_arrays(shape)
    num_chunks = max(1, -(-len(placements) // chunk_size))
    cursor = 0
    for ci in range(len(dvfs_space.core_freqs)):
        for ei in range(len(dvfs_space.emc_freqs)):
            offset = 0
            for _ in range(num_chunks):
                for row in results[cursor]:
                    energy[offset, ci, ei] = row["dynamic_energy_j"]
                    latency[offset, ci, ei] = row["dynamic_latency_s"]
                    score[offset, ci, ei] = row["d_score"]
                    offset += 1
                cursor += 1
            if offset != len(placements):
                raise ValueError(
                    f"grid cell ({ci}, {ei}) assembled {offset} rows, "
                    f"expected {len(placements)}"
                )
    return DvfsGridArtifact(
        platform=platform,
        backbone_key=backbone_key,
        placements=tuple(p.positions for p in placements),
        core_ghz=tuple(dvfs_space.core_freqs),
        emc_ghz=tuple(dvfs_space.emc_freqs),
        dynamic_energy_j=energy,
        dynamic_latency_s=latency,
        d_score=score,
    )


def sharded_grid(
    platform: str,
    backbone,
    placements: list[ExitPlacement],
    *,
    workers: int = 1,
    executor: str = "auto",
    cache_dir: str | None = None,
    service=None,
    **spec_kwargs,
) -> DvfsGridArtifact:
    """Exhaustive sweep via ``population-eval`` specs on a service.

    Each (chunk, setting) cell caches under its spec fingerprint when a
    ``cache_dir`` is given, so regenerating a grid is a batch of cache
    reads.  Pass an open ``service`` to reuse one pool across platforms.
    Bit-identical to :func:`compute_grid` on the same inputs — the worker
    context derives the identical oracle/evaluator stack from the spec.
    """
    from repro.engine.cache import ResultCache
    from repro.engine.service import EvaluationService
    from repro.engine.tasks import spec_task
    from repro.hardware.platform import get_platform

    dvfs_space = DvfsSpace(get_platform(platform))
    chunk_size = spec_kwargs.pop("chunk_size", 256)
    specs = grid_specs(
        platform,
        backbone,
        placements,
        dvfs_space,
        cache_dir=cache_dir,
        chunk_size=chunk_size,
        **spec_kwargs,
    )
    cache = ResultCache(cache_dir) if cache_dir is not None else None
    tasks = [spec_task(spec, cache=cache) for spec in specs]
    if service is not None:
        results = service.evaluate_batch(tasks)
    else:
        with EvaluationService(
            executor=executor, workers=workers, cache=cache
        ) as opened:
            results = opened.evaluate_batch(tasks)
    return assemble_grid(
        platform, backbone.key, placements, dvfs_space, results, chunk_size=chunk_size
    )
