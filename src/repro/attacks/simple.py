"""The paper's fault behaviours and other non-colluding attacks.

Section 5 / Appendix J simulate two behaviours:

* ``gradient-reverse`` — the faulty agent sends ``-s_t`` where ``s_t`` is its
  correct gradient, and
* ``random`` — an i.i.d. Gaussian vector with zero mean and isotropic
  covariance (standard deviation 200 in the paper).

This module also provides the standard zero, constant, sign-flip and
large-norm behaviours used in the wider literature and in our ablations.
"""

from __future__ import annotations

from typing import Dict, Sequence

import numpy as np

from .base import AttackContext, BatchAttackContext, ByzantineAttack

__all__ = [
    "GradientReverseAttack",
    "RandomGaussianAttack",
    "ZeroGradientAttack",
    "ConstantVectorAttack",
    "SignFlipAttack",
    "LargeNormAttack",
]


class GradientReverseAttack(ByzantineAttack):
    """Send ``-scale * true_gradient`` (paper's *gradient-reverse*, scale 1)."""

    name = "gradient_reverse"

    def __init__(self, scale: float = 1.0):
        if scale <= 0:
            raise ValueError("scale must be positive")
        self.scale = float(scale)

    def fabricate(self, context: AttackContext) -> Dict[int, np.ndarray]:
        return {
            i: -self.scale * context.true_gradients[i]
            for i in context.faulty_ids
        }

    def fabricate_batch(self, context: BatchAttackContext) -> np.ndarray:
        return -self.scale * context.true_gradients


class RandomGaussianAttack(ByzantineAttack):
    """Send an isotropic Gaussian vector (paper's *random*, sigma = 200)."""

    name = "random"

    def __init__(self, standard_deviation: float = 200.0):
        if standard_deviation <= 0:
            raise ValueError("standard deviation must be positive")
        self.standard_deviation = float(standard_deviation)

    def fabricate(self, context: AttackContext) -> Dict[int, np.ndarray]:
        return {
            i: context.rng.normal(0.0, self.standard_deviation, size=context.dim)
            for i in context.faulty_ids
        }

    def fabricate_batch(self, context: BatchAttackContext) -> np.ndarray:
        # One (F, d) fill per trial consumes each generator's stream exactly
        # like the per-trial path's F sequential size-(d,) draws, and
        # ``z * sd + 0.0`` is ``Generator.normal``'s own ``loc + scale * z``
        # at loc = 0.0 (which turns a -0.0 draw into 0.0), bit for bit.
        out = np.empty((len(context.rngs), len(context.faulty_ids), context.dim))
        for rng, row in zip(context.rngs, out):
            rng.standard_normal(out=row)
        out *= self.standard_deviation
        out += 0.0
        return out


class ZeroGradientAttack(ByzantineAttack):
    """Send the zero vector — a stealthy do-nothing fault.

    Against CGE this is a *strong* attack: zero has the smallest possible
    norm, so it is always retained and dilutes the honest update.
    """

    name = "zero"

    def fabricate(self, context: AttackContext) -> Dict[int, np.ndarray]:
        return {i: np.zeros(context.dim) for i in context.faulty_ids}

    def fabricate_batch(self, context: BatchAttackContext) -> np.ndarray:
        return np.zeros_like(context.true_gradients)


class ConstantVectorAttack(ByzantineAttack):
    """Send a fixed vector every iteration (e.g. to drag the estimate)."""

    name = "constant"

    def __init__(self, vector: Sequence[float]):
        self.vector = np.asarray(vector, dtype=float)
        if self.vector.ndim != 1:
            raise ValueError("vector must be 1-D")

    def fabricate(self, context: AttackContext) -> Dict[int, np.ndarray]:
        if self.vector.shape[0] != context.dim:
            raise ValueError(
                f"attack vector has dim {self.vector.shape[0]}, "
                f"system has dim {context.dim}"
            )
        return {i: self.vector.copy() for i in context.faulty_ids}

    def fabricate_batch(self, context: BatchAttackContext) -> np.ndarray:
        if self.vector.shape[0] != context.dim:
            raise ValueError(
                f"attack vector has dim {self.vector.shape[0]}, "
                f"system has dim {context.dim}"
            )
        shape = (context.trials, len(context.faulty_ids), context.dim)
        return np.broadcast_to(self.vector, shape).copy()


class SignFlipAttack(ByzantineAttack):
    """Flip the sign of every coordinate of the true gradient.

    Identical to gradient-reverse with scale 1; kept as a separate name
    because the learning literature tunes the two independently — here the
    flip applies coordinate-wise magnitudes ``|g|`` times ``-sign(g)``.
    """

    name = "sign_flip"

    def __init__(self, magnitude: float = 1.0):
        if magnitude <= 0:
            raise ValueError("magnitude must be positive")
        self.magnitude = float(magnitude)

    def fabricate(self, context: AttackContext) -> Dict[int, np.ndarray]:
        out = {}
        for i in context.faulty_ids:
            g = context.true_gradients[i]
            out[i] = -self.magnitude * np.sign(g) * np.abs(g)
        return out

    def fabricate_batch(self, context: BatchAttackContext) -> np.ndarray:
        g = context.true_gradients
        return -self.magnitude * np.sign(g) * np.abs(g)


class LargeNormAttack(ByzantineAttack):
    """Send the true gradient scaled by a huge factor.

    Easily filtered by CGE (largest norms are eliminated) but devastating to
    plain averaging — useful for sanity-checking filters.
    """

    name = "large_norm"

    def __init__(self, factor: float = 1e6):
        if factor <= 0:
            raise ValueError("factor must be positive")
        self.factor = float(factor)

    def fabricate(self, context: AttackContext) -> Dict[int, np.ndarray]:
        return {
            i: self.factor * context.true_gradients[i]
            for i in context.faulty_ids
        }

    def fabricate_batch(self, context: BatchAttackContext) -> np.ndarray:
        return self.factor * context.true_gradients
