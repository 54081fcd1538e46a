"""Clipping-based aggregators.

``CenteredClipAggregator`` implements the iterative centered-clipping rule of
Karimireddy, He & Jaggi (reference [28] — "Learning from history for
Byzantine robust optimization"); ``NormClipAggregator`` is the simpler
clip-to-radius-then-average rule.  Both serve as modern baselines alongside
CGE/CWTM in the ablation benchmarks.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..health import all_moderate, hostile_rows, overflow_safe_norms
from .base import GradientAggregator, validate_gradient_batch, validate_gradients
from .trimmed_mean import _partition_median, nan_last_median

__all__ = ["CenteredClipAggregator", "NormClipAggregator"]


class CenteredClipAggregator(GradientAggregator):
    """Iterative centered clipping around a running center.

    Each inner iteration moves the center by the average of the *clipped*
    deviations ``(g_i - c) * min(1, radius / ||g_i - c||)``.
    """

    name = "centered_clip"

    def __init__(self, radius: float = 1.0, iterations: int = 3):
        if radius <= 0:
            raise ValueError("radius must be positive")
        if iterations < 1:
            raise ValueError("iterations must be at least 1")
        self.radius = float(radius)
        self.iterations = int(iterations)

    def aggregate(self, gradients: np.ndarray) -> np.ndarray:
        arr = validate_gradients(gradients, allow_nonfinite=True)
        if all_moderate(arr):
            center = _partition_median(arr, axis=0)  # robust warm start
            for _ in range(self.iterations):
                deltas = arr - center
                norms = np.linalg.norm(deltas, axis=1)
                scales = np.ones_like(norms)
                big = norms > self.radius
                scales[big] = self.radius / norms[big]
                center = center + (deltas * scales[:, None]).mean(axis=0)
            return center
        # A hostile row sits at an (effectively) infinite distance with an
        # undefined direction, so its clipped deviation is taken as zero;
        # the divisor stays n, matching the exact rule's mass.
        hostile = hostile_rows(arr)
        safe = np.where(hostile[:, None], 0.0, arr)
        center = nan_last_median(arr, axis=0)
        if not np.isfinite(center).all():  # past the breakdown point
            return center
        for _ in range(self.iterations):
            deltas = safe - center
            norms = np.linalg.norm(deltas, axis=1)
            scales = np.ones_like(norms)
            big = norms > self.radius
            scales[big] = self.radius / norms[big]
            scales[hostile] = 0.0
            center = center + (deltas * scales[:, None]).mean(axis=0)
        return center

    def aggregate_batch(self, stacks: np.ndarray) -> np.ndarray:
        arr = validate_gradient_batch(stacks, allow_nonfinite=True)
        if all_moderate(arr):
            hostile = None
            safe = arr
            centers = _partition_median(arr, axis=1)
        else:
            hostile = hostile_rows(arr)
            safe = np.where(hostile[:, :, None], 0.0, arr)
            centers = nan_last_median(arr, axis=1)
            # Trials past the breakdown point keep a non-finite center;
            # zero it inside the loop so the arithmetic stays silent and
            # restore it afterwards for the engines' screen to catch.
            broken = ~np.isfinite(centers).all(axis=1)
            broken_centers = centers[broken]
            centers = np.where(broken[:, None], 0.0, centers)
        for _ in range(self.iterations):
            deltas = safe - centers[:, None, :]
            norms = np.linalg.norm(deltas, axis=2)
            scales = np.where(
                norms > self.radius,
                self.radius / np.maximum(norms, 1e-300),
                1.0,
            )
            if hostile is not None:
                scales = np.where(hostile, 0.0, scales)
            centers = centers + (deltas * scales[:, :, None]).mean(axis=1)
        if hostile is not None and broken.any():
            centers[broken] = broken_centers
        return centers


class NormClipAggregator(GradientAggregator):
    """Clip every gradient to ``radius`` and average.

    ``radius=None`` auto-selects the median norm of the received gradients,
    a common heuristic that bounds the influence of large Byzantine vectors.
    """

    name = "norm_clip"

    def __init__(self, radius: Optional[float] = None):
        if radius is not None and radius <= 0:
            raise ValueError("radius must be positive when given")
        self.radius = radius

    def aggregate(self, gradients: np.ndarray) -> np.ndarray:
        arr = validate_gradients(gradients, allow_nonfinite=True)
        if all_moderate(arr):
            norms = np.linalg.norm(arr, axis=1)
            hostile = None
        else:
            # Hostile rows rank with norm +Inf and, their direction being
            # undefined, contribute zero instead of a radius-length step.
            norms = overflow_safe_norms(arr)
            hostile = np.isinf(norms)
            arr = np.where(hostile[:, None], 0.0, arr)
        radius = (
            self.radius
            if self.radius is not None
            else float(_partition_median(norms, axis=0))
        )
        if radius == 0.0:
            return np.zeros(arr.shape[1])
        with np.errstate(invalid="ignore"):
            scales = np.minimum(1.0, radius / np.maximum(norms, 1e-300))
        if hostile is not None:
            scales = np.where(hostile, 0.0, scales)
        return (arr * scales[:, None]).mean(axis=0)

    def aggregate_batch(self, stacks: np.ndarray) -> np.ndarray:
        arr = validate_gradient_batch(stacks, allow_nonfinite=True)
        if all_moderate(arr):
            norms = np.linalg.norm(arr, axis=2)
            hostile = None
        else:
            norms = overflow_safe_norms(arr)
            hostile = np.isinf(norms)
            arr = np.where(hostile[:, :, None], 0.0, arr)
        if self.radius is not None:
            radii = np.full(arr.shape[0], float(self.radius))
        else:
            radii = _partition_median(norms, axis=1)
        with np.errstate(invalid="ignore"):
            scales = np.minimum(
                1.0, radii[:, None] / np.maximum(norms, 1e-300)
            )
        if hostile is not None:
            scales = np.where(hostile, 0.0, scales)
        out = (arr * scales[:, :, None]).mean(axis=1)
        out[radii == 0.0] = 0.0
        return out
