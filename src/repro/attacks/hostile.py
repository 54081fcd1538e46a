"""Non-finite and overflow-scale hostile payloads.

Section 4's adversary "may send arbitrary incorrect vectors" — which
includes vectors no real computation produces: ``NaN``, ``±Inf``, and
magnitudes large enough that a squared distance overflows double
precision (any coordinate beyond ~1e154).  These attacks exercise that
corner of the threat model directly; the aggregator front-doors and the
engines' quarantine layer (:mod:`repro.health`) define what
every filter does when they land.

All three behaviours are deterministic and consume no randomness, so the
per-trial, batched and per-edge fabrication paths agree bit-for-bit by
construction.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from .base import AttackContext, BatchAttackContext, ByzantineAttack

__all__ = ["NaNAttack", "InfinityAttack", "OverflowAttack"]


class NaNAttack(ByzantineAttack):
    """Send all-``NaN`` vectors — the pure poison payload.

    Order-statistic filters sort ``NaN`` past ``+Inf`` and trim it away;
    distance-based filters rank ``NaN`` candidates last; strict filters
    (mean/sum) refuse with a :class:`~repro.health.QuarantineError`.
    """

    name = "nan"

    def fabricate(self, context: AttackContext) -> Dict[int, np.ndarray]:
        return {
            i: np.full(context.dim, np.nan) for i in context.faulty_ids
        }

    def fabricate_batch(self, context: BatchAttackContext) -> np.ndarray:
        return np.full_like(context.true_gradients, np.nan)


class InfinityAttack(ByzantineAttack):
    """Send ``±Inf`` vectors, mixing both tails.

    The sign alternates with the faulty column *and* the coordinate
    (``(-1)**(j + k) * Inf``), so even a scalar problem with two faulty
    agents serves both ``+Inf`` and ``-Inf`` — the combination whose sum
    is ``NaN`` and which stresses both trim tails of CWTM/CGE.
    """

    name = "inf"

    def _payload(self, columns: int, dim: int) -> np.ndarray:
        parity = (np.arange(columns)[:, None] + np.arange(dim)[None, :]) % 2
        return np.where(parity == 0, np.inf, -np.inf)

    def fabricate(self, context: AttackContext) -> Dict[int, np.ndarray]:
        payload = self._payload(len(context.faulty_ids), context.dim)
        return {
            fid: payload[j].copy()
            for j, fid in enumerate(context.faulty_ids)
        }

    def fabricate_batch(self, context: BatchAttackContext) -> np.ndarray:
        payload = self._payload(len(context.faulty_ids), context.dim)
        shape = (context.trials,) + payload.shape
        return np.broadcast_to(payload, shape).copy()


class OverflowAttack(ByzantineAttack):
    """Send ``±magnitude`` following the true gradient's signs.

    The default magnitude 1e300 is finite, so it sails through any
    naive ``isfinite`` check — but one squared distance against it
    overflows to ``Inf`` (doubles overflow near 1e154 squared), which is
    exactly the failure mode the overflow-safe distance kernels must
    absorb.  Zero coordinates map to ``+magnitude`` so the payload never
    hides a coordinate.
    """

    name = "overflow"

    def __init__(self, magnitude: float = 1e300):
        if not np.isfinite(magnitude) or magnitude <= 0:
            raise ValueError("magnitude must be positive and finite")
        self.magnitude = float(magnitude)

    def fabricate(self, context: AttackContext) -> Dict[int, np.ndarray]:
        return {
            i: self.magnitude
            * np.where(context.true_gradients[i] < 0, -1.0, 1.0)
            for i in context.faulty_ids
        }

    def fabricate_batch(self, context: BatchAttackContext) -> np.ndarray:
        g = context.true_gradients
        return self.magnitude * np.where(g < 0, -1.0, 1.0)
