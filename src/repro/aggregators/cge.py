"""Comparative Gradient Elimination (CGE) — equation (23).

The server sorts the n received gradients by Euclidean norm (ties broken by
agent index, matching "ties broken arbitrarily") and outputs the *vector sum*
of the n − f gradients with smallest norms.  Theorems 4 and 5 give its
(f, O(ε))-resilience under (2f, ε)-redundancy.

``AveragedCGE`` divides by n − f; the direction is identical, so resilience
properties transfer with rescaled step sizes.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..health import all_moderate, overflow_safe_norms
from .base import (
    GradientAggregator,
    _gather_rows,
    check_attendance,
    require_fault_capacity,
    validate_gradient_batch,
    validate_gradients,
)

__all__ = ["CGEAggregator", "AveragedCGE", "cge_selection", "cge_selection_batch"]


def _norm_keys(arr: np.ndarray) -> np.ndarray:
    """Row-norm sort keys over the trailing axis, hostile-input safe.

    All-finite moderate stacks take the exact ``np.linalg.norm`` path;
    stacks containing NaN/±Inf or overflow-scale rows switch to
    :func:`~repro.health.overflow_safe_norms`, which ranks every hostile
    row ``+Inf`` (ties broken by agent index as usual) without squaring
    anything that would overflow.
    """
    if all_moderate(arr):
        return np.linalg.norm(arr, axis=-1)
    return overflow_safe_norms(arr)


def cge_selection(gradients: np.ndarray, f: int) -> np.ndarray:
    """Indices of the ``n - f`` smallest-norm gradients in sorted order.

    Sorting is by ``(norm, agent index)`` so the rule is deterministic — the
    paper allows arbitrary tie-breaking and determinism is required for the
    deterministic-algorithm framework of Section 1.2.  Hostile rows sort
    last (norm key ``+Inf``), so at most ``f`` of them are eliminated
    exactly like any other largest-norm gradients.
    """
    arr = validate_gradients(gradients, allow_nonfinite=True)
    n = arr.shape[0]
    require_fault_capacity(n, f, minimum_honest=1)
    norms = _norm_keys(arr)
    order = np.lexsort((np.arange(n), norms))
    return order[: n - f]


def cge_selection_batch(stacks: np.ndarray, f: int) -> np.ndarray:
    """Batched :func:`cge_selection`: ``(S, n, d) -> (S, n - f)`` indices.

    A stable argsort on the norms reproduces the (norm, agent index)
    lexicographic order of the per-item rule for every trial at once.
    """
    arr = validate_gradient_batch(stacks, allow_nonfinite=True)
    n = arr.shape[1]
    require_fault_capacity(n, f, minimum_honest=1)
    norms = _norm_keys(arr)
    order = np.argsort(norms, axis=1, kind="stable")
    return order[:, : n - f]


def _cge_gather(stacks: np.ndarray, f: int) -> np.ndarray:
    """Retained gradients per trial, norm-sorted: ``(S, n - f, d)``."""
    return _gather_rows(stacks, cge_selection_batch(stacks, f))


class CGEAggregator(GradientAggregator):
    """Sum of the ``n - f`` smallest-norm gradients (equation (23)).

    ``expected_n`` (set by the registry) makes attendance explicit: the
    rule always eliminates ``f`` of whatever arrived, but when fewer than
    ``expected_n`` gradients are received the shortfall is named in the
    capacity error instead of being conflated with a mis-shaped stack, and
    receiving *more* than ``expected_n`` is rejected outright.
    """

    name = "cge"

    def __init__(self, f: int, expected_n: Optional[int] = None):
        if f < 0:
            raise ValueError("f must be non-negative")
        self.f = int(f)
        self.expected_n = None if expected_n is None else int(expected_n)

    def _check_attendance(self, n_received: int) -> None:
        if self.expected_n is not None:
            check_attendance(
                n_received, self.expected_n, self.f,
                removed=self.f, minimum_honest=1,
            )

    def aggregate(self, gradients: np.ndarray) -> np.ndarray:
        arr = validate_gradients(gradients, allow_nonfinite=True)
        self._check_attendance(arr.shape[0])
        selected = cge_selection(arr, self.f)
        # Hostile rows beyond the f eliminated ones (past the rule's
        # breakdown point) may survive into the sum; the errstate keeps
        # even that case warning-free — the engines' candidate screen is
        # what turns a non-finite aggregate into a quarantine.
        with np.errstate(invalid="ignore", over="ignore"):
            return arr[selected].sum(axis=0)

    def aggregate_batch(self, stacks: np.ndarray) -> np.ndarray:
        arr = validate_gradient_batch(stacks, allow_nonfinite=True)
        self._check_attendance(arr.shape[1])
        with np.errstate(invalid="ignore", over="ignore"):
            return _cge_gather(arr, self.f).sum(axis=1)


class AveragedCGE(CGEAggregator):
    """CGE normalized by the number of retained gradients.

    Useful when comparing against mean-style rules at a common step size
    (e.g. in the Appendix-K learning experiments).
    """

    name = "cge_mean"

    def aggregate(self, gradients: np.ndarray) -> np.ndarray:
        arr = validate_gradients(gradients, allow_nonfinite=True)
        self._check_attendance(arr.shape[0])
        selected = cge_selection(arr, self.f)
        with np.errstate(invalid="ignore", over="ignore"):
            return arr[selected].mean(axis=0)

    def aggregate_batch(self, stacks: np.ndarray) -> np.ndarray:
        arr = validate_gradient_batch(stacks, allow_nonfinite=True)
        self._check_attendance(arr.shape[1])
        with np.errstate(invalid="ignore", over="ignore"):
            return _cge_gather(arr, self.f).mean(axis=1)
