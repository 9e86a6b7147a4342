"""Pareto dominance primitives (maximisation convention).

These back both the NSGA-II engines and the evaluation metrics.  The
non-dominated sort is the O(M N²) fast-non-dominated-sort of Deb et al.;
the pairwise dominance tests run as one broadcast comparison matrix
(row-blocked so huge archives never materialise an (N, N, M) tensor)
instead of N² Python-level :func:`dominates` calls — at paper-budget IOE
scale the scalar loop was the single largest line in the profile.

Bit-identity contract: dominance is pure float comparison (no arithmetic),
so the matrix path partitions points into *exactly* the fronts of the
scalar reference implementation, in the same within-front index order
(``np.flatnonzero`` is ascending, as was the reference's ``sorted``).  The
original loops live on in ``tests/oracles/search.py`` as the equivalence
oracle for the property tests and the dynamic-eval bench's baseline mode.
"""

from __future__ import annotations

import numpy as np


def dominates(a: np.ndarray, b: np.ndarray) -> bool:
    """True iff ``a`` Pareto-dominates ``b`` (>= everywhere, > somewhere)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"objective vectors differ in shape: {a.shape} vs {b.shape}")
    return bool(np.all(a >= b) and np.any(a > b))


def _pairwise_ge(points: np.ndarray) -> np.ndarray:
    """``ge[i, j] = all(points[i] >= points[j])`` as one blocked broadcast.

    Row blocks bound the (block, N, M) comparison temporary to a few MB no
    matter how large the point set grows (archive-scale calls pass
    thousands of rows).
    """
    n, m = points.shape
    ge = np.empty((n, n), dtype=bool)
    step = max(1, 4_000_000 // max(1, n * m))
    for start in range(0, n, step):
        block = points[start : start + step]
        ge[start : start + step] = (block[:, None, :] >= points[None, :, :]).all(axis=2)
    return ge


def dominance_matrix(points: np.ndarray) -> np.ndarray:
    """Boolean ``D[i, j]`` — row ``i`` Pareto-dominates row ``j``.

    ``any(a > b)`` is equivalent to ``not all(b >= a)``, so one >= matrix
    serves both halves of the dominance test: ``D = ge & ~ge.T``.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    ge = _pairwise_ge(points)
    return ge & ~ge.T


def non_dominated_mask(points: np.ndarray) -> np.ndarray:
    """Boolean mask of Pareto-optimal rows of ``points`` (n, m).

    Duplicates of a Pareto point are all retained (none strictly dominates
    the others).
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if len(points) == 0:
        return np.zeros(0, dtype=bool)
    return ~dominance_matrix(points).any(axis=0)


def pareto_front(points: np.ndarray) -> np.ndarray:
    """The Pareto-optimal subset of ``points``."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    return points[non_dominated_mask(points)]


def non_dominated_sort(points: np.ndarray) -> list[np.ndarray]:
    """Deb's fast non-dominated sort: list of index arrays, best front first.

    One dominance matrix replaces the N² scalar :func:`dominates` calls;
    the front peel then works on integer domination counts — subtracting
    each assigned front's column sums uncovers the next front, exactly the
    reference decrement loop in matrix form.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    n = len(points)
    if n == 0:
        return []
    matrix = dominance_matrix(points)
    domination_count = matrix.sum(axis=0)
    fronts: list[np.ndarray] = []
    assigned = np.zeros(n, dtype=bool)
    current = domination_count == 0
    while current.any():
        front = np.flatnonzero(current)
        fronts.append(front)
        assigned |= current
        domination_count = domination_count - matrix[front].sum(axis=0)
        current = (domination_count == 0) & ~assigned
    return fronts


def crowding_distance(points: np.ndarray) -> np.ndarray:
    """NSGA-II crowding distance of each row (inf at objective extremes)."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    n, m = points.shape
    distance = np.zeros(n)
    if n <= 2:
        return np.full(n, np.inf)
    for k in range(m):
        order = np.argsort(points[:, k], kind="stable")
        lo, hi = points[order[0], k], points[order[-1], k]
        distance[order[0]] = distance[order[-1]] = np.inf
        span = hi - lo
        if span <= 0:
            continue
        gaps = (points[order[2:], k] - points[order[:-2], k]) / span
        distance[order[1:-1]] += gaps
    return distance
