"""Krum and Multi-Krum (Blanchard et al., NeurIPS 2017 — reference [6]).

Krum scores each received gradient by the sum of its squared distances to its
``n - f - 2`` nearest neighbours and outputs the gradient with the lowest
score; Multi-Krum averages the ``m`` best-scored gradients.  Included as the
best-known baseline filter the paper cites in Section 2.2.
"""

from __future__ import annotations

import numpy as np

from ..health import all_moderate, hostile_rows
from .base import (
    GradientAggregator,
    require_fault_capacity,
    validate_gradient_batch,
    validate_gradients,
)

__all__ = [
    "KrumAggregator",
    "MultiKrumAggregator",
    "krum_scores",
    "krum_scores_batch",
]


def _neighbour_count(n: int, f: int, allow_zero_neighbours: bool) -> int:
    minimum = 2 if allow_zero_neighbours else 3
    require_fault_capacity(n, f, minimum_honest=minimum)
    return n - f - 2


def _clean(arr: np.ndarray) -> bool:
    """Whether the exact gram-identity path is safe: finite and moderate."""
    return all_moderate(arr)


def krum_scores(
    gradients: np.ndarray, f: int, allow_zero_neighbours: bool = False
) -> np.ndarray:
    """Krum score of each gradient (lower is more trustworthy).

    The score of gradient ``i`` is the sum of squared Euclidean distances to
    its ``n - f - 2`` closest other gradients.  ``allow_zero_neighbours``
    permits ``n - f - 2 == 0`` (all scores zero) — needed by Bulyan's
    recursive selection, whose final rounds shrink the candidate pool to
    ``2f + 1`` gradients.

    Pairwise distances come from the gram-matrix identity
    ``||a - b||^2 = ||a||^2 + ||b||^2 - 2 a·b`` — O(n^2 d) work and O(n^2)
    memory instead of the O(n^2 d) broadcasted differences tensor — and the
    nearest-neighbour sum uses a partial ``np.partition`` rather than a full
    sort of every row.

    Hostile rows (NaN/±Inf or overflow-scale, whose squared distances
    would poison or overflow the gram identity) are ranked last: every
    distance to them is ``+Inf`` and their own score is ``+Inf``, so with
    at most ``f`` hostile rows the selection never touches them and the
    moderate rows' distances stay exact.
    """
    arr = validate_gradients(gradients, allow_nonfinite=True)
    n = arr.shape[0]
    neighbours = _neighbour_count(n, f, allow_zero_neighbours)
    clean = _clean(arr)
    if neighbours == 0:
        scores = np.zeros(n)
        if not clean:
            scores[hostile_rows(arr)] = np.inf
        return scores
    if clean:
        safe = arr
        hostile = None
    else:
        hostile = hostile_rows(arr)
        safe = np.where(hostile[:, None], 0.0, arr)
    sq_norms = np.einsum("id,id->i", safe, safe)
    sq_dists = sq_norms[:, None] + sq_norms[None, :] - 2.0 * (safe @ safe.T)
    np.maximum(sq_dists, 0.0, out=sq_dists)  # clamp cancellation noise
    if hostile is not None:
        sq_dists[hostile, :] = np.inf
        sq_dists[:, hostile] = np.inf
    np.fill_diagonal(sq_dists, np.inf)
    nearest = np.partition(sq_dists, neighbours - 1, axis=1)[:, :neighbours]
    return nearest.sum(axis=1)


def krum_scores_batch(
    stacks: np.ndarray, f: int, allow_zero_neighbours: bool = False
) -> np.ndarray:
    """Batched :func:`krum_scores`: ``(S, n, d) -> (S, n)``.

    Trials without hostile rows score identically on either path (their
    ``np.where`` pass-through leaves every value bit-unchanged), so one
    hostile trial never perturbs its batch neighbours.
    """
    arr = validate_gradient_batch(stacks, allow_nonfinite=True)
    n = arr.shape[1]
    neighbours = _neighbour_count(n, f, allow_zero_neighbours)
    clean = _clean(arr)
    if neighbours == 0:
        scores = np.zeros(arr.shape[:2])
        if not clean:
            scores[hostile_rows(arr)] = np.inf
        return scores
    if clean:
        safe = arr
        hostile = None
    else:
        hostile = hostile_rows(arr)
        safe = np.where(hostile[:, :, None], 0.0, arr)
    sq_norms = np.einsum("snd,snd->sn", safe, safe)
    grams = np.einsum("snd,smd->snm", safe, safe)
    sq_dists = sq_norms[:, :, None] + sq_norms[:, None, :] - 2.0 * grams
    np.maximum(sq_dists, 0.0, out=sq_dists)
    if hostile is not None:
        sq_dists[hostile[:, :, None] | hostile[:, None, :]] = np.inf
    diag = np.arange(n)
    sq_dists[:, diag, diag] = np.inf
    nearest = np.partition(sq_dists, neighbours - 1, axis=2)[:, :, :neighbours]
    return nearest.sum(axis=2)


class KrumAggregator(GradientAggregator):
    """Select the single gradient with the smallest Krum score."""

    name = "krum"

    def __init__(self, f: int):
        if f < 0:
            raise ValueError("f must be non-negative")
        self.f = int(f)

    def aggregate(self, gradients: np.ndarray) -> np.ndarray:
        arr = validate_gradients(gradients, allow_nonfinite=True)
        scores = krum_scores(arr, self.f)
        return arr[int(np.argmin(scores))].copy()

    def aggregate_batch(self, stacks: np.ndarray) -> np.ndarray:
        arr = validate_gradient_batch(stacks, allow_nonfinite=True)
        scores = krum_scores_batch(arr, self.f)
        winners = scores.argmin(axis=1)
        return arr[np.arange(arr.shape[0]), winners].copy()


class MultiKrumAggregator(GradientAggregator):
    """Average the ``m`` gradients with the smallest Krum scores."""

    name = "multikrum"

    def __init__(self, f: int, m: int = 1):
        if f < 0:
            raise ValueError("f must be non-negative")
        if m < 1:
            raise ValueError("m must be at least 1")
        self.f = int(f)
        self.m = int(m)

    def aggregate(self, gradients: np.ndarray) -> np.ndarray:
        arr = validate_gradients(gradients, allow_nonfinite=True)
        if self.m > arr.shape[0]:
            raise ValueError(
                f"cannot select m={self.m} from {arr.shape[0]} gradients"
            )
        scores = krum_scores(arr, self.f)
        best = np.argsort(scores, kind="stable")[: self.m]
        # Past the breakdown point (> f hostile rows) a hostile row can
        # score into the best m; keep even that mean warning-free.
        with np.errstate(invalid="ignore", over="ignore"):
            return arr[best].mean(axis=0)

    def aggregate_batch(self, stacks: np.ndarray) -> np.ndarray:
        arr = validate_gradient_batch(stacks, allow_nonfinite=True)
        if self.m > arr.shape[1]:
            raise ValueError(
                f"cannot select m={self.m} from {arr.shape[1]} gradients"
            )
        scores = krum_scores_batch(arr, self.f)
        best = np.argsort(scores, axis=1, kind="stable")[:, : self.m]
        chosen = np.take_along_axis(arr, best[:, :, None], axis=1)
        with np.errstate(invalid="ignore", over="ignore"):
            return chosen.mean(axis=1)
