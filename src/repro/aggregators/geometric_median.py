"""Geometric median and geometric median-of-means.

The geometric median minimizes ``sum_i ||z - g_i||`` and is the robust core
of the GMoM filter of Chen, Su & Xu (reference [14]).  Computed with the
Weiszfeld fixed-point iteration; iterates that land on an input point are
handled by the Vardi–Zhang correction (Vardi & Zhang, PNAS 2000), which
keeps the update well-defined without biasing the iterate — the historical
"nudge by a constant" trick shifts every coordinate identically and can
itself land on another input point.
"""

from __future__ import annotations

import numpy as np

from ..health import all_moderate, hostile_rows
from .base import GradientAggregator, validate_gradient_batch, validate_gradients

__all__ = [
    "geometric_median",
    "geometric_median_batch",
    "GeometricMedianAggregator",
    "MedianOfMeansAggregator",
]

#: distance below which an iterate counts as sitting on an input point
_COINCIDENCE_TOL = 1e-14


def _snap_to_best_input(arr: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Return the input point that beats the iterate ``z``, if any.

    Weiszfeld converges sublinearly when the geometric median sits *at* an
    input point of multiplicity ``eta`` with ``||R|| ~ eta`` (the boundary of
    the Vardi–Zhang optimality condition): the iterate crawls toward the
    point and the step-size stopping rule can fire while still measurably
    away from the optimum.  Since in every such case the optimum *is* an
    input point, comparing the objective at ``z`` against the objective at
    each input point and keeping the argmin guarantees the result is never
    worse than the best input point.
    """
    return _snap_to_best_input_batch(arr[None, :, :], z[None, :])[0]


def _input_point_objectives(arr: np.ndarray) -> np.ndarray:
    """``sum_i ||x_i - x_j||`` per input point ``j`` of each stack: ``(S, n)``.

    Uses the Gram identity ``||a - b||^2 = ||a||^2 + ||b||^2 - 2 a.b`` (as
    the Krum kernel does) so no ``(S, n, n, d)`` difference tensor is ever
    materialized.  The stack is centered first: the objective only depends
    on differences, and the raw identity cancels catastrophically when the
    points share a large common offset (``eps * ||x||^2`` absolute error).
    """
    arr = arr - arr.mean(axis=1, keepdims=True)
    squares = np.einsum("snd,snd->sn", arr, arr)
    gram = np.einsum("sid,sjd->sij", arr, arr)
    distances_sq = np.maximum(
        squares[:, :, None] + squares[:, None, :] - 2.0 * gram, 0.0
    )
    return np.sqrt(distances_sq).sum(axis=1)


def geometric_median(
    points: np.ndarray, tolerance: float = 1e-14, max_iterations: int = 20_000
) -> np.ndarray:
    """Weiszfeld iteration for the geometric median of row-stacked points.

    When the iterate coincides with one or more input points, the plain
    Weiszfeld map is undefined; the Vardi–Zhang correction blends the
    weighted mean of the *other* points with the current iterate:
    ``z' = (1 - eta/r) T(z) + (eta/r) z`` where ``eta`` is the multiplicity
    of the coincident point and ``r = ||sum_i (x_i - z)/||x_i - z||||``.
    If ``r <= eta`` the coincident point *is* the geometric median.

    Hostile rows (NaN/±Inf or overflow-scale, which would poison the
    Weiszfeld weights or overflow the snap objective's squared
    distances) are excluded — weight zero — and the median is taken over
    the moderate rows.  A stack with *no* moderate row returns all-NaN,
    which the engines' candidate screen turns into a quarantine.
    """
    arr = validate_gradients(points, allow_nonfinite=True)
    if not all_moderate(arr):
        moderate = ~hostile_rows(arr)
        if not moderate.any():
            return np.full(arr.shape[1], np.nan)
        arr = arr[moderate]
    if arr.shape[0] == 1:
        return arr[0].copy()
    return _snap_to_best_input(arr, _weiszfeld(arr, tolerance, max_iterations))


def _weiszfeld(
    arr: np.ndarray, tolerance: float, max_iterations: int
) -> np.ndarray:
    z = arr.mean(axis=0)
    for _ in range(max_iterations):
        diffs = arr - z
        dists = np.linalg.norm(diffs, axis=1)
        at_point = dists < _COINCIDENCE_TOL
        weights = np.where(at_point, 0.0, 1.0 / np.where(at_point, 1.0, dists))
        total = weights.sum()
        if total == 0.0:
            return z  # every input coincides with the iterate
        t_z = (weights[:, None] * arr).sum(axis=0) / total
        if at_point.any():
            r_vec = (weights[:, None] * diffs).sum(axis=0)
            r = float(np.linalg.norm(r_vec))
            eta = float(at_point.sum())
            if r <= eta:
                return z  # optimality condition: z is the geometric median
            step = eta / r
            new_z = (1.0 - step) * t_z + step * z
        else:
            new_z = t_z
        if np.linalg.norm(new_z - z) <= tolerance * (1.0 + np.linalg.norm(z)):
            return new_z
        z = new_z
    return z


def geometric_median_batch(
    stacks: np.ndarray, tolerance: float = 1e-14, max_iterations: int = 20_000
) -> np.ndarray:
    """Batched Weiszfeld: geometric median of each ``(n, d)`` stack.

    Runs the same iteration as :func:`geometric_median` on all ``S`` stacks
    in lockstep; trials that converge are frozen while the rest continue, so
    the per-trial results match the scalar routine.

    Trials containing hostile rows drop to the scalar routine (which
    excludes those rows); the remaining trials keep the lockstep path.
    """
    arr = validate_gradient_batch(stacks, allow_nonfinite=True)
    n = arr.shape[1]
    if n == 1:
        return arr[:, 0, :].copy()
    if all_moderate(arr):
        return _snap_to_best_input_batch(
            arr, _weiszfeld_batch(arr, tolerance, max_iterations)
        )
    bad_trials = hostile_rows(arr).any(axis=1)
    out = np.empty((arr.shape[0], arr.shape[2]))
    good = ~bad_trials
    if good.any():
        out[good] = _snap_to_best_input_batch(
            arr[good], _weiszfeld_batch(arr[good], tolerance, max_iterations)
        )
    for s in np.nonzero(bad_trials)[0]:
        out[s] = geometric_median(
            arr[s], tolerance=tolerance, max_iterations=max_iterations
        )
    return out


def _snap_to_best_input_batch(arr: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Vectorized :func:`_snap_to_best_input` over ``S`` stacks."""
    objectives = _input_point_objectives(arr)
    best = objectives.argmin(axis=1)
    rows = np.arange(arr.shape[0])
    z_objectives = np.linalg.norm(arr - out[:, None, :], axis=2).sum(axis=1)
    snap = objectives[rows, best] < z_objectives
    return np.where(snap[:, None], arr[rows, best], out)


def _weiszfeld_batch(
    arr: np.ndarray, tolerance: float, max_iterations: int
) -> np.ndarray:
    out = arr.mean(axis=1)
    # Iterate on compact copies of the unconverged trials; converged rows
    # are scattered back and dropped, so the steady-state inner iteration
    # pays no masking or gather cost.
    order = np.arange(arr.shape[0])  # original index of each compact row
    a = arr
    za = out.copy()
    for _ in range(max_iterations):
        diffs = a - za[:, None, :]
        dists = np.linalg.norm(diffs, axis=2)
        at_point = dists < _COINCIDENCE_TOL
        if at_point.any():
            weights = np.where(
                at_point, 0.0, 1.0 / np.where(at_point, 1.0, dists)
            )
            totals = weights.sum(axis=1)
            degenerate = totals == 0.0
            t_z = (weights[:, :, None] * a).sum(axis=1) / np.where(
                degenerate, 1.0, totals
            )[:, None]
            eta = at_point.sum(axis=1).astype(float)
            r_vec = (weights[:, :, None] * diffs).sum(axis=1)
            r = np.linalg.norm(r_vec, axis=1)
            coincident = eta > 0.0
            stalled = degenerate | (coincident & (r <= eta))
            step = np.where(
                coincident & ~stalled, eta / np.where(r == 0.0, 1.0, r), 0.0
            )
            new_z = (1.0 - step)[:, None] * t_z + step[:, None] * za
            new_z = np.where(stalled[:, None], za, new_z)
        else:
            weights = 1.0 / dists
            t_z = (weights[:, :, None] * a).sum(axis=1)
            t_z /= weights.sum(axis=1)[:, None]
            stalled = np.zeros(a.shape[0], dtype=bool)
            new_z = t_z
        converged = np.linalg.norm(new_z - za, axis=1) <= tolerance * (
            1.0 + np.linalg.norm(za, axis=1)
        )
        finished = stalled | converged
        if finished.any():
            out[order[finished]] = new_z[finished]
            keep = ~finished
            if not keep.any():
                return out
            a = a[keep]
            order = order[keep]
            za = new_z[keep]
        else:
            za = new_z
    out[order] = za
    return out


class GeometricMedianAggregator(GradientAggregator):
    """Geometric median of all received gradients."""

    name = "geomedian"

    def __init__(self, tolerance: float = 1e-14, max_iterations: int = 20_000):
        self.tolerance = float(tolerance)
        self.max_iterations = int(max_iterations)

    def aggregate(self, gradients: np.ndarray) -> np.ndarray:
        return geometric_median(
            gradients, tolerance=self.tolerance, max_iterations=self.max_iterations
        )

    def aggregate_batch(self, stacks: np.ndarray) -> np.ndarray:
        return geometric_median_batch(
            stacks, tolerance=self.tolerance, max_iterations=self.max_iterations
        )


class MedianOfMeansAggregator(GradientAggregator):
    """Geometric median of means (GMoM, reference [14]).

    Gradients are partitioned (by agent index) into ``groups`` buckets whose
    means are combined by geometric median.  With ``groups == n`` this
    reduces to the plain geometric median.
    """

    name = "gmom"

    def __init__(self, groups: int):
        if groups < 1:
            raise ValueError("groups must be at least 1")
        self.groups = int(groups)

    def aggregate(self, gradients: np.ndarray) -> np.ndarray:
        arr = validate_gradients(gradients, allow_nonfinite=True)
        n = arr.shape[0]
        if self.groups > n:
            raise ValueError(f"cannot split {n} gradients into {self.groups} groups")
        buckets = np.array_split(np.arange(n), self.groups)
        # A hostile row poisons only its own bucket's mean; the errstate
        # keeps the poisoned means silent (±Inf sums go NaN) and the
        # geometric median then excludes those buckets as hostile rows.
        with np.errstate(invalid="ignore", over="ignore"):
            means = np.vstack([arr[idx].mean(axis=0) for idx in buckets])
        return geometric_median(means)

    def aggregate_batch(self, stacks: np.ndarray) -> np.ndarray:
        arr = validate_gradient_batch(stacks, allow_nonfinite=True)
        n = arr.shape[1]
        if self.groups > n:
            raise ValueError(f"cannot split {n} gradients into {self.groups} groups")
        buckets = np.array_split(np.arange(n), self.groups)
        with np.errstate(invalid="ignore", over="ignore"):
            means = np.stack(
                [arr[:, idx, :].mean(axis=1) for idx in buckets], axis=1
            )
        return geometric_median_batch(means)
