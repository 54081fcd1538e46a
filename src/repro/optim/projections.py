"""Projections onto compact convex sets.

The DGD update (21) constrains iterates to a compact convex set ``W`` via the
Euclidean projection of equation (20); the paper's experiments use the
hypercube ``[-1000, 1000]^2``.  Projections here are exact, idempotent and
non-expansive — properties the convergence proof of Theorem 3 relies on and
the test suite verifies.
"""

from __future__ import annotations

import abc
from typing import Sequence, Union

import numpy as np

__all__ = ["ConvexSet", "BoxSet", "BallConstraint", "UnconstrainedSet"]


class ConvexSet(abc.ABC):
    """A closed convex subset of R^d with an exact Euclidean projection."""

    @abc.abstractmethod
    def project(self, x: np.ndarray) -> np.ndarray:
        """``[x]_W`` of equation (20): the closest point of the set."""

    def project_batch(self, points: np.ndarray) -> np.ndarray:
        """Row-wise projection of an ``(S, d)`` batch of points.

        The base implementation loops; sets with closed-form projections
        override it so the batch simulator projects all trials at once.
        """
        arr = np.asarray(points, dtype=float)
        if arr.ndim != 2:
            raise ValueError(f"expected an (S, d) batch, got shape {arr.shape}")
        return np.stack([self.project(p) for p in arr])

    @abc.abstractmethod
    def contains(self, x: np.ndarray, tol: float = 1e-9) -> bool:
        """Membership test up to tolerance."""

    @abc.abstractmethod
    def diameter_bound(self) -> float:
        """An upper bound on ``max_{x,y in W} ||x - y||`` (inf if unbounded)."""


class BoxSet(ConvexSet):
    """Axis-aligned box ``prod_k [low_k, high_k]``.

    ``BoxSet.symmetric(1000.0, dim=2)`` reproduces the paper's ``W``.
    Bounds may be infinite (an open side) but not NaN.  ``lower`` and
    ``upper`` are read-only copies of the arguments, so the clip bounds
    chosen at construction cannot go stale.
    """

    def __init__(self, lower: Sequence[float], upper: Sequence[float]):
        low = np.array(lower, dtype=float)
        high = np.array(upper, dtype=float)
        if low.shape != high.shape or low.ndim != 1:
            raise ValueError("lower/upper must be 1-D arrays of equal shape")
        for name, bound in (("lower", low), ("upper", high)):
            if np.isnan(bound).any():
                raise ValueError(f"{name} bound must not be NaN, got {bound}")
        if np.any(low > high):
            raise ValueError("lower bound exceeds upper bound")
        low.setflags(write=False)
        high.setflags(write=False)
        self.lower = low
        self.upper = high
        self.dim = low.shape[0]
        # A box with one nonzero lower and one nonzero upper bound clips
        # against two scalars: NumPy's scalar-bound clip loop runs over
        # whole rows instead of d-wide ones (about 12x faster on an
        # (S * n, 2) batch) and gives the same bits.  A zero bound keeps
        # the array bounds, because the scalar loop resolves -0.0/0.0
        # ties the other way.
        if _scalar_bound(low) and _scalar_bound(high):
            self._clip_bounds = (float(low[0]), float(high[0]))
        else:
            self._clip_bounds = (low, high)

    @classmethod
    def symmetric(cls, half_width: float, dim: int) -> "BoxSet":
        """The hypercube ``[-half_width, half_width]^dim``."""
        if not half_width > 0:
            raise ValueError(f"half_width must be positive, got {half_width}")
        bound = np.full(dim, float(half_width))
        return cls(-bound, bound)

    def project(self, x: np.ndarray) -> np.ndarray:
        return np.clip(np.asarray(x, dtype=float), *self._clip_bounds)

    def project_batch(self, points: np.ndarray) -> np.ndarray:
        return np.clip(np.asarray(points, dtype=float), *self._clip_bounds)

    def contains(self, x: np.ndarray, tol: float = 1e-9) -> bool:
        xv = np.asarray(x, dtype=float)
        return bool(
            np.all(xv >= self.lower - tol) and np.all(xv <= self.upper + tol)
        )

    def diameter_bound(self) -> float:
        return float(np.linalg.norm(self.upper - self.lower))

    def __repr__(self) -> str:
        return f"BoxSet(dim={self.dim})"


def _scalar_bound(bound: np.ndarray) -> bool:
    """Whether ``bound`` holds one nonzero value in every entry."""
    return bound.size > 0 and bound[0] != 0.0 and bool((bound == bound[0]).all())


class BallConstraint(ConvexSet):
    """Euclidean ball ``{x : ||x - center|| <= radius}``."""

    def __init__(self, center: Sequence[float], radius: float):
        if not radius > 0:
            raise ValueError(f"radius must be positive, got {radius}")
        self.center = np.asarray(center, dtype=float)
        if not np.isfinite(self.center).all():
            # An infinite centre would project every point to NaN.
            raise ValueError(f"center must be finite, got {self.center}")
        self.radius = float(radius)
        self.dim = self.center.shape[0]

    def project(self, x: np.ndarray) -> np.ndarray:
        xv = np.asarray(x, dtype=float)
        offset = xv - self.center
        norm = float(np.linalg.norm(offset))
        if norm <= self.radius:
            return xv.copy()
        if np.isinf(norm) and np.isfinite(offset).all():
            return self.project_batch(xv[None, :])[0]  # overflowed norm
        return self.center + offset * (self.radius / norm)

    def project_batch(self, points: np.ndarray) -> np.ndarray:
        arr = np.asarray(points, dtype=float)
        offsets = arr - self.center
        norms = np.linalg.norm(offsets, axis=1)
        scales = np.where(
            norms <= self.radius, 1.0, self.radius / np.maximum(norms, 1e-300)
        )
        out = self.center + offsets * scales[:, None]
        # A finite offset whose norm overflows would scale by radius / inf
        # = 0, onto the centre: take its norm after dividing it by its
        # largest entry instead.  Every other row keeps its floats.
        overflow = np.isinf(norms) & ~(norms <= self.radius)
        if overflow.any():
            overflow &= np.isfinite(offsets).all(axis=1)
            units = offsets[overflow]
            units /= np.abs(units).max(axis=1, keepdims=True)
            lengths = np.linalg.norm(units, axis=1, keepdims=True)
            out[overflow] = self.center + units * (self.radius / lengths)
        return out

    def contains(self, x: np.ndarray, tol: float = 1e-9) -> bool:
        xv = np.asarray(x, dtype=float)
        return float(np.linalg.norm(xv - self.center)) <= self.radius + tol

    def diameter_bound(self) -> float:
        return 2.0 * self.radius

    def __repr__(self) -> str:
        return f"BallConstraint(radius={self.radius:g}, dim={self.dim})"


class UnconstrainedSet(ConvexSet):
    """All of R^d — the identity projection.

    Strictly outside the paper's Theorem-3 hypotheses (W must be compact),
    provided for fault-free baselines and quick experiments.
    """

    def __init__(self, dim: int):
        self.dim = int(dim)

    def project(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(x, dtype=float).copy()

    def project_batch(self, points: np.ndarray) -> np.ndarray:
        return np.asarray(points, dtype=float).copy()

    def contains(self, x: np.ndarray, tol: float = 1e-9) -> bool:
        return True

    def diameter_bound(self) -> float:
        return float("inf")

    def __repr__(self) -> str:
        return f"UnconstrainedSet(dim={self.dim})"
