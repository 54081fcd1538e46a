"""Mean-around-median and sign-majority aggregators.

Two more baselines from works the paper cites:

* MeaMed (Xie, Koyejo & Gupta — "Generalized Byzantine-tolerant SGD",
  reference [53]): per coordinate, average the ``n − f`` received entries
  closest to the coordinate median — a cheaper cousin of the trimmed mean
  that keeps exactly n − f values.
* signSGD with majority vote (Bernstein et al., reference [3]): the server
  outputs the coordinate-wise majority of gradient *signs*; magnitude
  information is discarded, which makes the rule inherently bounded and
  fault-tolerant at the cost of scale-free updates (pair with small
  constant steps).
"""

from __future__ import annotations

import numpy as np

from .base import (
    GradientAggregator,
    require_fault_capacity,
    validate_gradient_batch,
    validate_gradients,
)
from .trimmed_mean import nan_last_median

__all__ = ["MeaMedAggregator", "SignMajorityAggregator"]


class MeaMedAggregator(GradientAggregator):
    """Coordinate-wise mean of the ``n − f`` entries nearest the median."""

    name = "meamed"

    def __init__(self, f: int):
        if f < 0:
            raise ValueError("f must be non-negative")
        self.f = int(f)

    def aggregate(self, gradients: np.ndarray) -> np.ndarray:
        arr = validate_gradients(gradients, allow_nonfinite=True)
        n = arr.shape[0]
        require_fault_capacity(n, self.f, minimum_honest=1)
        keep = n - self.f
        if np.isfinite(arr).all():
            median = np.median(arr, axis=0)
            gaps = np.abs(arr - median)
            order = np.argsort(gaps, axis=0, kind="stable")[:keep]
            nearest = np.take_along_axis(arr, order, axis=0)
            return nearest.mean(axis=0)
        # Hostile entries have gap +Inf (or NaN, which argsort places even
        # later), so with at most f hostile rows the kept n − f entries of
        # every coordinate are finite.
        median = nan_last_median(arr, axis=0)
        with np.errstate(invalid="ignore", over="ignore"):
            gaps = np.abs(arr - median)
            order = np.argsort(gaps, axis=0, kind="stable")[:keep]
            nearest = np.take_along_axis(arr, order, axis=0)
            return nearest.mean(axis=0)

    def aggregate_batch(self, stacks: np.ndarray) -> np.ndarray:
        arr = validate_gradient_batch(stacks, allow_nonfinite=True)
        n = arr.shape[1]
        require_fault_capacity(n, self.f, minimum_honest=1)
        keep = n - self.f
        if np.isfinite(arr).all():
            median = np.median(arr, axis=1)
            gaps = np.abs(arr - median[:, None, :])
        else:
            median = nan_last_median(arr, axis=1)
            with np.errstate(invalid="ignore", over="ignore"):
                gaps = np.abs(arr - median[:, None, :])
        order = np.argsort(gaps, axis=1, kind="stable")[:, :keep, :]
        nearest = np.take_along_axis(arr, order, axis=1)
        with np.errstate(invalid="ignore", over="ignore"):
            return nearest.mean(axis=1)


class SignMajorityAggregator(GradientAggregator):
    """Coordinate-wise sign of the sum of signs (majority vote).

    Output entries are in {−1, 0, +1}; ties vote 0.  ``scale`` sets the
    magnitude of the emitted step direction.
    """

    name = "sign_majority"

    def __init__(self, scale: float = 1.0):
        if scale <= 0:
            raise ValueError("scale must be positive")
        self.scale = float(scale)

    def aggregate(self, gradients: np.ndarray) -> np.ndarray:
        arr = validate_gradients(gradients, allow_nonfinite=True)
        votes = self._votes(arr).sum(axis=0)
        return self.scale * np.sign(votes)

    def aggregate_batch(self, stacks: np.ndarray) -> np.ndarray:
        arr = validate_gradient_batch(stacks, allow_nonfinite=True)
        votes = self._votes(arr).sum(axis=1)
        return self.scale * np.sign(votes)

    @staticmethod
    def _votes(arr: np.ndarray) -> np.ndarray:
        """Per-entry votes in {−1, 0, +1}: ``±Inf`` votes its sign, NaN abstains."""
        if np.isfinite(arr).all():
            return np.sign(arr)
        with np.errstate(invalid="ignore"):
            signs = np.sign(arr)
        return np.where(np.isnan(signs), 0.0, signs)
