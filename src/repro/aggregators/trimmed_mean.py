"""Coordinate-wise trimmed mean (CWTM) — equation (24) — and relatives.

For each coordinate ``k`` the server discards the ``f`` largest and ``f``
smallest of the received k-th entries and averages the remaining ``n - 2f``.
Theorem 6 gives its (f, D'ε)-resilience under (2f, ε)-redundancy and the
gradient-dissimilarity Assumption 5.

``CoordinateWiseMedian`` is the ``f = floor((n-1)/2)`` limiting relative used
widely in the robust-learning literature (e.g. Yin et al., reference [55]).
"""

from __future__ import annotations

from functools import lru_cache
from typing import Optional, Tuple

import numpy as np

from .base import (
    GradientAggregator,
    check_attendance,
    require_fault_capacity,
    validate_gradient_batch,
    validate_gradients,
)

__all__ = [
    "CWTMAggregator",
    "CoordinateWiseMedian",
    "nan_last_median",
    "trimmed_mean",
    "trimmed_mean_batch",
]


#: Crossover between the two batched selection paths, measured with NumPy
#: 2.4 on a 2-core Xeon.  A stack with at most ``NETWORK_MAX_SLOTS`` slots
#: and at least ``NETWORK_MIN_COLUMNS`` columns (``S * d``) runs the
#: compare-exchange network over slot-major rows; every other stack sorts
#: along its slot axis.  Each comparator costs two ufunc calls whatever the
#: width, so the network loses on narrow stacks (1.4-2.4x the sort's time
#: at 128 columns) and wins on wide ones (0.2-0.4x at 32768 columns, the
#: width of a 4-regular graph's neighbourhoods at n = 4096).  With the
#: record-view slot-major copy (``_network_trimmed_mean``) the two tie near
#: 256-384 columns at 5 slots and 512-768 at 8, and at 768 columns the
#: network takes 0.5-0.9x the sort's time for 5-8 slots (d = 2).  The
#: crossover stays at 768 because no workload has many stacks between 384
#: and 768 columns.  Past 8 slots Batcher's network grows faster (28
#: comparators at 9 slots, 63 at 16) and ties only from about 1024 columns
#: at 9 slots and 8192 at 16, so those stacks sort.
NETWORK_MAX_SLOTS = 8
NETWORK_MIN_COLUMNS = 768


def trimmed_mean(values: np.ndarray, trim: int) -> np.ndarray:
    """Column-wise mean after dropping ``trim`` high and low entries.

    ``values`` is ``(n, d)``; returns the ``(d,)`` vector whose k-th entry is
    the average of the middle ``n - 2 trim`` order statistics of column k.
    For ``trim >= 1`` the kept order statistics are summed left to right in
    ascending order and the sum is divided by ``n - 2 trim``.  Floating-point
    addition is not associative, so fixing the summation order is what makes
    the result equal (``==``, NaN where NaN) under any permutation of the
    rows.  Only the sign of a zero result can still depend on the order:
    ``-0.0`` and ``0.0`` tie, and which of them is kept depends on where
    each arrived.  ``trim = 0`` is the plain mean, summed in row order.

    Hostile entries trim naturally: ``np.sort`` orders ``-Inf`` first and
    ``NaN`` past ``+Inf``, so with at most ``trim`` hostile rows every
    non-finite (or overflow-scale) entry lands in a discarded tail and the
    kept middle stays finite.
    """
    arr = validate_gradients(values, allow_nonfinite=True)
    n = arr.shape[0]
    if trim < 0:
        raise ValueError("trim must be non-negative")
    require_fault_capacity(n, 2 * trim, minimum_honest=1)
    if trim == 0:
        return arr.mean(axis=0)
    kept = np.sort(arr, axis=0)[trim : n - trim]
    kept.cumsum(axis=0, out=kept)  # running sums, ascending, in place
    return kept[-1] / (n - 2 * trim)


def trimmed_mean_batch(stacks: np.ndarray, trim: int) -> np.ndarray:
    """Batched :func:`trimmed_mean`: ``(S, n, d) -> (S, d)``.

    Equal (``==``, NaN where NaN) to :func:`trimmed_mean` on every stack,
    whichever of the two selection paths (see :data:`NETWORK_MIN_COLUMNS`)
    runs; as there, only the sign of a zero result can differ.
    """
    arr = validate_gradient_batch(stacks, allow_nonfinite=True)
    s, n, d = arr.shape
    if trim < 0:
        raise ValueError("trim must be non-negative")
    require_fault_capacity(n, 2 * trim, minimum_honest=1)
    if trim == 0:
        return arr.mean(axis=1)
    if n <= NETWORK_MAX_SLOTS and s * d >= NETWORK_MIN_COLUMNS:
        return _network_trimmed_mean(arr, trim)
    kept = np.sort(arr, axis=1)[:, trim : n - trim]
    kept.cumsum(axis=1, out=kept)  # running sums, ascending, in place
    return kept[:, -1] / (n - 2 * trim)


def _network_trimmed_mean(arr: np.ndarray, trim: int) -> np.ndarray:
    """:func:`trimmed_mean_batch` through a compare-exchange network.

    One copy puts the ``(S, n, d)`` stack into slot-major rows (row j holds
    slot j of all ``W = S * d`` columns, contiguous), and a network of
    in-place ``np.minimum``/``np.maximum`` calls on whole rows sorts every
    column at once.  The copy moves bytes only: when ``d >= 2`` and the
    coordinate axis is contiguous, each row's d coordinates travel as one
    ``itemsize * d``-byte record, so the transpose's inner loop runs over
    the ``S`` stacks instead of over ``d`` floats; other layouts (and
    ``d = 1``, whose plain transpose is already the faster copy) take
    ``transpose(1, 0, 2).copy()``.  Both give the same slab, byte for
    byte.  The output doubles as the network's spare row, so the kernel
    allocates nothing beyond the copy and its output.
    ``NaN`` must order past ``+Inf`` as it does under a sort, while min/max
    would propagate it: when the ``isnan`` screen on the copy's total fires,
    ``NaN`` runs the network as ``+Inf`` and is restored afterwards into the
    top ``count`` ranks of each column.
    """
    s, n, d = arr.shape
    if d > 1 and arr.strides[2] == arr.itemsize:
        record = np.dtype((np.void, arr.itemsize * d))
        slab = arr.view(record).reshape(s, n).T.copy().view(arr.dtype)
    else:
        slab = arr.transpose(1, 0, 2).copy().reshape(n, s * d)
    out = np.empty((s, d), dtype=slab.dtype)
    total = out.reshape(s * d)
    nan_count = None
    with np.errstate(invalid="ignore", over="ignore"):
        screen = slab.sum()
    if np.isnan(screen):
        nan = np.isnan(slab)
        nan_count = nan.sum(axis=0)
        slab[nan] = np.inf
    rows = list(slab)
    spare = total
    minimum, maximum = np.minimum, np.maximum
    for lo, hi in _sorting_network(n):
        a, b = rows[lo], rows[hi]
        minimum(a, b, out=spare)
        maximum(a, b, out=b)
        rows[lo], spare = spare, a
    kept = rows[trim : n - trim]
    if any(row is total for row in kept):
        # ``total`` holds a kept rank: move it to the free row, then sum.
        spare[...] = total
        kept = [spare if row is total else row for row in kept]
    if nan_count is not None:
        for rank, row in enumerate(kept, start=trim):
            row[nan_count >= n - rank] = np.nan
    total[...] = kept[0]
    for row in kept[1:]:
        total += row
    total /= len(kept)
    return out


@lru_cache(maxsize=None)
def _sorting_network(n: int) -> Tuple[Tuple[int, int], ...]:
    """Comparators ``(lo, hi)`` of Batcher's odd-even merge sort on ``n``
    wires, in order; each leaves the smaller value on wire ``lo``."""
    network = []
    p = 1
    while p < n:
        k = p
        while k >= 1:
            for j in range(k % p, n - k, 2 * k):
                for i in range(min(k, n - j - k)):
                    if (i + j) // (2 * p) == (i + j + k) // (2 * p):
                        network.append((i + j, i + j + k))
            k //= 2
        p *= 2
    return tuple(network)


class CWTMAggregator(GradientAggregator):
    """Coordinate-wise trimmed mean with trim level ``f`` (equation (24)).

    ``expected_n`` (set by the registry) makes attendance explicit, as for
    :class:`~repro.aggregators.cge.CGEAggregator`: the rule trims ``f``
    from both sides of whatever arrived, rejecting over-attendance and
    naming the shortfall when a thin round cannot support the trim.
    """

    name = "cwtm"

    def __init__(self, f: int, expected_n: Optional[int] = None):
        if f < 0:
            raise ValueError("f must be non-negative")
        self.f = int(f)
        self.expected_n = None if expected_n is None else int(expected_n)

    def _check_attendance(self, n_received: int) -> None:
        if self.expected_n is not None:
            check_attendance(
                n_received, self.expected_n, self.f,
                removed=2 * self.f, minimum_honest=1,
            )

    def aggregate(self, gradients: np.ndarray) -> np.ndarray:
        arr = validate_gradients(gradients, allow_nonfinite=True)
        self._check_attendance(arr.shape[0])
        return trimmed_mean(arr, self.f)

    def aggregate_batch(self, stacks: np.ndarray) -> np.ndarray:
        arr = validate_gradient_batch(stacks, allow_nonfinite=True)
        self._check_attendance(arr.shape[1])
        return trimmed_mean_batch(arr, self.f)


def nan_last_median(arr: np.ndarray, axis: int) -> np.ndarray:
    """Median under the sort order that places ``NaN`` past ``+Inf``.

    ``np.median`` propagates any NaN; this variant instead treats NaN as
    the largest order statistic (exactly where ``np.sort`` places it), so
    a minority of hostile rows is pushed to the tails and the middle
    stays finite.  The even-``n`` midpoint ``(lo + hi) / 2`` can only be
    non-finite when half the entries are hostile — past any filter's
    breakdown point — and the ``errstate`` keeps even that case silent.
    """
    ordered = np.sort(arr, axis=axis)
    n = arr.shape[axis]
    mid = n // 2
    if n % 2 == 1:
        return np.take(ordered, mid, axis=axis)
    lo = np.take(ordered, mid - 1, axis=axis)
    hi = np.take(ordered, mid, axis=axis)
    with np.errstate(invalid="ignore", over="ignore"):
        return 0.5 * (lo + hi)


class CoordinateWiseMedian(GradientAggregator):
    """Coordinate-wise median of the received gradients.

    All-finite stacks take the exact ``np.median`` path; stacks with
    hostile rows fall back to the NaN-last :func:`nan_last_median`.
    """

    name = "median"

    def aggregate(self, gradients: np.ndarray) -> np.ndarray:
        arr = validate_gradients(gradients, allow_nonfinite=True)
        if np.isfinite(arr).all():
            return np.median(arr, axis=0)
        return nan_last_median(arr, axis=0)

    def aggregate_batch(self, stacks: np.ndarray) -> np.ndarray:
        arr = validate_gradient_batch(stacks, allow_nonfinite=True)
        if np.isfinite(arr).all():
            return np.median(arr, axis=1)
        return nan_last_median(arr, axis=1)
