"""Gradient-filter abstraction.

Section 4 defines a gradient-filter as a map ``GradFilter : R^{d x n} -> R^d``
applied by the server in step S2 of each iteration.  All filters in this
package consume a row-stacked ``(n, d)`` array of received gradients (one row
per agent, Byzantine rows included) and return a single ``(d,)`` vector.

Filters are deterministic and stateless; the tolerated fault count ``f`` is a
constructor argument where the rule needs it.

A Byzantine row may be *hostile*: ``NaN``, ``±Inf`` or overflow-scale.
Filters with defined non-finite semantics (the order-statistic and
distance-based rules) validate with ``allow_nonfinite=True`` and absorb
such rows; *strict* filters (plain mean/sum, which cannot) declare
``quarantines_on_nonfinite`` and refuse with a typed
:class:`~repro.health.QuarantineError` naming the offending agent rows —
the engines convert that refusal into a per-trial quarantine.
"""

from __future__ import annotations

import abc

import numpy as np

from ..health import nonfinite_rows, refusal

__all__ = [
    "GradientAggregator",
    "validate_gradients",
    "validate_gradient_batch",
    "require_fault_capacity",
    "check_attendance",
]


def validate_gradients(
    gradients: np.ndarray, allow_nonfinite: bool = False
) -> np.ndarray:
    """Coerce and validate a stack of gradients to an ``(n, d)`` array."""
    arr = np.asarray(gradients, dtype=float)
    if arr.ndim != 2:
        raise ValueError(
            f"expected an (n, d) stack of gradients, got shape {arr.shape}"
        )
    if arr.shape[0] == 0:
        raise ValueError("cannot aggregate zero gradients")
    if not allow_nonfinite and not np.all(np.isfinite(arr)):
        raise refusal(np.nonzero(nonfinite_rows(arr))[0])
    return arr


def validate_gradient_batch(
    stacks: np.ndarray, allow_nonfinite: bool = False
) -> np.ndarray:
    """Coerce and validate a batch of gradient stacks to ``(S, n, d)``."""
    arr = np.asarray(stacks, dtype=float)
    if arr.ndim != 3:
        raise ValueError(
            f"expected an (S, n, d) batch of gradient stacks, got shape {arr.shape}"
        )
    if arr.shape[0] == 0 or arr.shape[1] == 0:
        raise ValueError("cannot aggregate an empty batch")
    if not allow_nonfinite and not bool(np.isfinite(arr).all()):
        bad = nonfinite_rows(arr)  # (S, n)
        raise refusal(
            np.nonzero(bad.any(axis=0))[0],
            trial_indices=np.nonzero(bad.any(axis=1))[0],
        )
    return arr


def _gather_rows(stacks: np.ndarray, order: np.ndarray) -> np.ndarray:
    """Rows ``order`` of every stack: ``(S, n, d), (S, k) -> (S, k, d)``.

    ``np.take_along_axis(stacks, order[:, :, None], axis=1)`` as one
    gather from the flat ``(S·n, d)`` rows, with the same values.
    """
    s, n, d = stacks.shape
    rows = order + (np.arange(s) * n)[:, None]
    return stacks.reshape(s * n, d)[rows]


def require_fault_capacity(n: int, f: int, minimum_honest: int) -> None:
    """Raise unless ``n`` agents leave ``minimum_honest`` after removing f."""
    if n - f < minimum_honest:
        raise ValueError(
            f"{n} agents cannot tolerate f={f}: "
            f"at least {minimum_honest} honest inputs are required"
        )


def check_attendance(
    n_received: int, expected_n: int, f: int, removed: int, minimum_honest: int
) -> None:
    """Make partial attendance explicit for the elimination-style filters.

    An elimination rule built for a system of ``expected_n`` agents may
    legitimately see fewer inputs — asynchronous rounds aggregate whichever
    messages arrived — but never more, and the ones that did arrive must
    still cover its ``removed`` discarded entries.  The errors name the
    attendance (``n_received`` of ``expected_n``) so a thin asynchronous
    round fails loudly instead of masquerading as a mis-shaped stack.
    """
    if n_received > expected_n:
        raise ValueError(
            f"received {n_received} gradients for a system declared with "
            f"n={expected_n}"
        )
    if n_received < expected_n and n_received - removed < minimum_honest:
        raise ValueError(
            f"partial attendance: received {n_received} of {expected_n} "
            f"declared inputs, not enough to remove {removed} with f={f}"
        )


class GradientAggregator(abc.ABC):
    """A Byzantine-robust gradient aggregation rule (gradient-filter)."""

    #: short registry name, e.g. ``"cge"``
    name: str = "abstract"

    #: True for strict filters with no defined non-finite semantics: they
    #: raise :class:`~repro.health.QuarantineError` on NaN/±Inf rows and
    #: the engines quarantine the affected trial (reason
    #: ``aggregator_refused``).  Filters left at False absorb up to ``f``
    #: hostile rows and still return a finite aggregate.
    quarantines_on_nonfinite: bool = False

    @abc.abstractmethod
    def aggregate(self, gradients: np.ndarray) -> np.ndarray:
        """Aggregate an ``(n, d)`` stack into a single ``(d,)`` vector."""

    def aggregate_batch(self, stacks: np.ndarray) -> np.ndarray:
        """Aggregate ``S`` independent stacks: ``(S, n, d) -> (S, d)``.

        Every trial of a batched sweep applies the *same* filter to its own
        ``(n, d)`` stack; filters with vectorized kernels override this to
        process the whole batch in one tensor expression.  The base
        implementation is the per-item reference fallback, so any registered
        filter works under :class:`~repro.distsys.batch.BatchSimulator`.

        ``stacks`` is read-only: the engines hand a filter group a slice
        view of the round's gradients, so a kernel must never write into
        its input (every registered filter is tested for it).
        """
        arr = validate_gradient_batch(
            stacks, allow_nonfinite=not self.quarantines_on_nonfinite
        )
        return np.stack([self.aggregate(item) for item in arr])

    def __call__(self, gradients: np.ndarray) -> np.ndarray:
        return self.aggregate(gradients)

    def __repr__(self) -> str:
        params = {
            k: v for k, v in vars(self).items() if not k.startswith("_")
        }
        inner = ", ".join(f"{k}={v!r}" for k, v in params.items())
        return f"{type(self).__name__}({inner})"
