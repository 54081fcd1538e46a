"""Colluding omniscient attacks from the Byzantine-ML literature.

These go beyond the paper's two behaviours and stress-test the filters in
the ablation benchmarks:

* ALIE — "A Little Is Enough" (Baruch et al., 2019): all faulty agents send
  the honest mean shifted by ``z`` honest standard deviations, staying inside
  the honest spread so distance-based filters struggle.
* IPM — inner-product manipulation (Xie et al., 2020): faulty agents send a
  negatively scaled honest mean, flipping the descent direction while keeping
  a plausible magnitude.
* Mimic: all faulty agents replay one honest agent's gradient, starving the
  aggregate of diversity.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from .base import AttackContext, BatchAttackContext, ByzantineAttack

__all__ = ["ALIEAttack", "InnerProductManipulationAttack", "MimicAttack"]


def _tile_faulty(poisoned: np.ndarray, context: BatchAttackContext) -> np.ndarray:
    """Broadcast one ``(S, d)`` poisoned vector to all faulty columns."""
    return np.broadcast_to(
        poisoned[:, None, :],
        (context.trials, len(context.faulty_ids), context.dim),
    ).copy()


class ALIEAttack(ByzantineAttack):
    """Honest mean minus ``z_max`` honest standard deviations, per coordinate."""

    name = "alie"
    requires_omniscience = True

    def __init__(self, z_max: float = 1.0):
        if z_max <= 0:
            raise ValueError("z_max must be positive")
        self.z_max = float(z_max)

    def fabricate(self, context: AttackContext) -> Dict[int, np.ndarray]:
        honest = context.honest_stack()
        mean = honest.mean(axis=0)
        std = honest.std(axis=0)
        poisoned = mean - self.z_max * std
        return {i: poisoned.copy() for i in context.faulty_ids}

    def fabricate_batch(self, context: BatchAttackContext) -> np.ndarray:
        honest = context.honest_stacks()
        poisoned = honest.mean(axis=1) - self.z_max * honest.std(axis=1)
        return _tile_faulty(poisoned, context)


class InnerProductManipulationAttack(ByzantineAttack):
    """Send ``-epsilon *`` (honest mean), reversing the descent direction."""

    name = "ipm"
    requires_omniscience = True

    def __init__(self, epsilon: float = 0.5):
        if epsilon <= 0:
            raise ValueError("epsilon must be positive")
        self.epsilon = float(epsilon)

    def fabricate(self, context: AttackContext) -> Dict[int, np.ndarray]:
        honest_mean = context.honest_stack().mean(axis=0)
        poisoned = -self.epsilon * honest_mean
        return {i: poisoned.copy() for i in context.faulty_ids}

    def fabricate_batch(self, context: BatchAttackContext) -> np.ndarray:
        poisoned = -self.epsilon * context.honest_stacks().mean(axis=1)
        return _tile_faulty(poisoned, context)


class MimicAttack(ByzantineAttack):
    """Every faulty agent replays the gradient of one fixed honest agent."""

    name = "mimic"
    requires_omniscience = True

    def __init__(self, target_rank: int = 0):
        if target_rank < 0:
            raise ValueError("target_rank must be non-negative")
        self.target_rank = int(target_rank)

    def fabricate(self, context: AttackContext) -> Dict[int, np.ndarray]:
        honest = context.honest_stack()
        copied = honest[self.target_rank % honest.shape[0]]
        return {i: copied.copy() for i in context.faulty_ids}

    def fabricate_batch(self, context: BatchAttackContext) -> np.ndarray:
        honest = context.honest_stacks()
        victim_column = self.target_rank % honest.shape[1]
        return _tile_faulty(honest[:, victim_column, :], context)
