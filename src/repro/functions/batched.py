"""Batched multi-agent cost evaluation — the tensor front-end of the sweep engine.

The batch simulator (:mod:`repro.distsys.batch`) runs ``S`` independent DGD
trials in lockstep, so every iteration needs the gradients of *all n agents'*
costs at *all S current estimates* — an ``(S, n, d)`` tensor.  Evaluating that
through ``CostFunction.gradient`` costs ``S * n`` Python calls per iteration;
a :class:`CostStack` instead stacks the agents' cost coefficients once and
computes the whole tensor in one einsum.

``stack_costs`` picks the tightest representation available:

* all agents hold :class:`~repro.functions.least_squares.LeastSquaresCost`
  with the same row count (the paper's regression workload) →
  :class:`LeastSquaresCostStack`,
* all agents hold :class:`~repro.functions.quadratic.QuadraticCost`
  (robust-mean instances built from ``SquaredDistanceCost``) →
  :class:`QuadraticCostStack`,
* anything else → :class:`LoopCostStack`, which still amortizes the batch
  axis through each cost's ``gradient_batch``.
"""

from __future__ import annotations

import abc
from typing import Sequence

import numpy as np

from .base import CostFunction
from .least_squares import LeastSquaresCost
from .quadratic import QuadraticCost

__all__ = [
    "CostStack",
    "QuadraticCostStack",
    "LeastSquaresCostStack",
    "LoopCostStack",
    "stack_costs",
    "gather_view_points",
]


def gather_view_points(
    trajectory: np.ndarray, views: np.ndarray, fallback: np.ndarray
) -> np.ndarray:
    """Stale-iterate gather: each agent's *view* point, batched over trials.

    ``trajectory`` is the iterate history ``x_0 .. x_t`` stacked as
    ``(t + 1, S, d)``; ``views`` is ``(S, n)`` holding the round whose
    iterate each agent's usable message was evaluated at (negative = no
    usable message); ``fallback`` is the ``(S, d)`` current estimates used
    for the view-less agents (their gradients are computed but never
    aggregated, keeping the batched evaluation loop-free).  Returns the
    ``(S, n, d)`` per-agent points ready for
    :meth:`CostStack.gradients_each` — one fancy-indexed gather instead of
    ``S * n`` Python-level history lookups.
    """
    trajectory = np.asarray(trajectory, dtype=float)
    views = np.asarray(views)
    if trajectory.ndim != 3:
        raise ValueError(
            f"expected a (T+1, S, d) trajectory, got shape {trajectory.shape}"
        )
    if views.ndim != 2 or views.shape[0] != trajectory.shape[1]:
        raise ValueError(
            f"views shape {views.shape} does not match trajectory trials "
            f"{trajectory.shape[1]}"
        )
    if views.max(initial=-1) >= trajectory.shape[0]:
        raise ValueError("views index past the end of the trajectory")
    usable = views >= 0
    trials = np.arange(views.shape[0])[:, None]
    points = trajectory[np.where(usable, views, 0), trials, :]
    return np.where(usable[:, :, None], points, fallback[:, None, :])


class CostStack(abc.ABC):
    """``n`` agent costs evaluated jointly over a batch of estimates."""

    #: number of stacked agent costs
    n: int
    #: dimension of the optimization variable
    dim: int

    @abc.abstractmethod
    def gradients(self, points: np.ndarray) -> np.ndarray:
        """All agents' gradients at each point: ``(S, d) -> (S, n, d)``."""

    @abc.abstractmethod
    def values(self, points: np.ndarray) -> np.ndarray:
        """All agents' cost values at each point: ``(S, d) -> (S, n)``."""

    def gradients_each(self, points: np.ndarray) -> np.ndarray:
        """Each agent's gradient at *its own* point: ``(S, n, d) -> (S, n, d)``.

        The decentralized engine's observation: agent ``i`` evaluates
        ``grad Q_i`` at its own iterate ``points[:, i]`` rather than at one
        shared estimate.  Coefficient-stacked subclasses compute the whole
        diagonal in one einsum.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not implement per-agent-point "
            "gradients; use one of the coefficient-stacked or loop stacks"
        )

    def _check_each(self, points: np.ndarray) -> np.ndarray:
        arr = np.asarray(points, dtype=float)
        if arr.ndim != 3 or arr.shape[1] != self.n or arr.shape[2] != self.dim:
            raise ValueError(
                f"expected per-agent points of shape (S, {self.n}, "
                f"{self.dim}), got {arr.shape}"
            )
        return arr

    def _check_batch(self, points: np.ndarray) -> np.ndarray:
        arr = np.asarray(points, dtype=float)
        if arr.ndim != 2 or arr.shape[1] != self.dim:
            raise ValueError(
                f"expected a batch of shape (S, {self.dim}), got {arr.shape}"
            )
        return arr

    def __repr__(self) -> str:
        return f"{type(self).__name__}(n={self.n}, dim={self.dim})"


class QuadraticCostStack(CostStack):
    """Stacked ``Q_i(x) = 0.5 x' P_i x + q_i' x + c_i`` coefficients."""

    def __init__(self, costs: Sequence[QuadraticCost]):
        if not costs:
            raise ValueError("cannot stack zero costs")
        dims = {c.dim for c in costs}
        if len(dims) != 1:
            raise ValueError(f"costs disagree on dimension: {sorted(dims)}")
        self.matrices = np.stack([c.matrix for c in costs])   # (n, d, d)
        self.linears = np.stack([c.linear for c in costs])    # (n, d)
        self.constants = np.array([c.constant for c in costs])
        self.n = len(costs)
        self.dim = int(dims.pop())

    def gradients(self, points: np.ndarray) -> np.ndarray:
        pts = self._check_batch(points)
        return (
            np.einsum("nij,sj->sni", self.matrices, pts)
            + self.linears[None, :, :]
        )

    def gradients_each(self, points: np.ndarray) -> np.ndarray:
        pts = self._check_each(points)
        return (
            np.einsum("nij,snj->sni", self.matrices, pts)
            + self.linears[None, :, :]
        )

    def values(self, points: np.ndarray) -> np.ndarray:
        pts = self._check_batch(points)
        px = np.einsum("nij,sj->sni", self.matrices, pts)
        quad = 0.5 * np.einsum("sni,si->sn", px, pts)
        return quad + pts @ self.linears.T + self.constants[None, :]


class LeastSquaresCostStack(CostStack):
    """Stacked ``Q_i(x) = ||b_i - A_i x||^2`` with uniform row counts."""

    def __init__(self, costs: Sequence[LeastSquaresCost]):
        if not costs:
            raise ValueError("cannot stack zero costs")
        dims = {c.dim for c in costs}
        rows = {c.n_rows for c in costs}
        if len(dims) != 1:
            raise ValueError(f"costs disagree on dimension: {sorted(dims)}")
        if len(rows) != 1:
            raise ValueError(
                f"costs disagree on row count: {sorted(rows)}; "
                "use LoopCostStack for ragged designs"
            )
        self.designs = np.stack([c.design for c in costs])     # (n, m, d)
        self.responses = np.stack([c.response for c in costs])  # (n, m)
        self.n = len(costs)
        self.dim = int(dims.pop())

    def _residuals(self, pts: np.ndarray) -> np.ndarray:
        return self.responses[None, :, :] - np.einsum(
            "nmd,sd->snm", self.designs, pts
        )

    def gradients(self, points: np.ndarray) -> np.ndarray:
        residuals = self._residuals(self._check_batch(points))
        return -2.0 * np.einsum("snm,nmd->snd", residuals, self.designs)

    def gradients_each(self, points: np.ndarray) -> np.ndarray:
        pts = self._check_each(points)
        residuals = self.responses[None, :, :] - np.einsum(
            "nmd,snd->snm", self.designs, pts
        )
        return -2.0 * np.einsum("snm,nmd->snd", residuals, self.designs)

    def values(self, points: np.ndarray) -> np.ndarray:
        residuals = self._residuals(self._check_batch(points))
        return np.einsum("snm,snm->sn", residuals, residuals)


class LoopCostStack(CostStack):
    """Fallback stack for heterogeneous costs.

    Loops over the ``n`` agents but keeps the batch axis vectorized through
    each cost's ``gradient_batch`` / ``value_batch`` — ``n`` Python calls per
    iteration instead of ``S * n``.
    """

    def __init__(self, costs: Sequence[CostFunction]):
        if not costs:
            raise ValueError("cannot stack zero costs")
        dims = {c.dim for c in costs}
        if len(dims) != 1:
            raise ValueError(f"costs disagree on dimension: {sorted(dims)}")
        self.costs = list(costs)
        self.n = len(costs)
        self.dim = int(dims.pop())

    def gradients(self, points: np.ndarray) -> np.ndarray:
        pts = self._check_batch(points)
        return np.stack([c.gradient_batch(pts) for c in self.costs], axis=1)

    def gradients_each(self, points: np.ndarray) -> np.ndarray:
        pts = self._check_each(points)
        return np.stack(
            [c.gradient_batch(pts[:, i, :]) for i, c in enumerate(self.costs)],
            axis=1,
        )

    def values(self, points: np.ndarray) -> np.ndarray:
        pts = self._check_batch(points)
        return np.stack([c.value_batch(pts) for c in self.costs], axis=1)


def stack_costs(costs: Sequence[CostFunction]) -> CostStack:
    """Build the tightest :class:`CostStack` the cost types allow."""
    costs = list(costs)
    if costs and all(type(c) is LeastSquaresCost for c in costs):
        rows = {c.n_rows for c in costs}
        if len(rows) == 1:
            return LeastSquaresCostStack(costs)
    if costs and all(isinstance(c, QuadraticCost) for c in costs):
        return QuadraticCostStack(costs)
    return LoopCostStack(costs)
