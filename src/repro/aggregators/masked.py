"""Masked (neighborhood-wise) variants of the batched gradient filters.

The decentralized graph engine hands every agent the messages of its closed
in-neighborhood.  On a *regular* topology those neighborhoods all have the
same size ``k`` and the standard ``aggregate_batch`` kernels apply after
folding agents into the batch axis (``(S, n, k, d) -> (S * n, k, d)``).  On
an *irregular* graph (e.g. Erdős–Rényi) neighborhood sizes differ, so the
engine pads every neighborhood to ``k = max closed in-degree`` and the
kernels here aggregate under a validity mask — one tensor expression per
filter, no per-agent Python loop.

Conventions shared by every kernel:

* ``values`` has shape ``(S, n, k, d)``: ``S`` lockstep trials, ``n``
  receiving agents, ``k`` padded neighborhood slots, dimension ``d``;
* ``mask`` has shape ``(n, k)``: ``mask[i, s]`` marks slot ``s`` of agent
  ``i``'s neighborhood valid.  Slot order is ascending sender id, which
  makes the deterministic tie-breaking of the masked kernels coincide with
  the unmasked ones on full masks;
* invalid slots are ignored entirely — they carry no NaN poison and never
  influence the trim/selection order statistics.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from ..health import (
    OVERFLOW_LIMIT,
    QuarantineError,
    current_round_context,
)
from ..telemetry.recorder import current_recorder

__all__ = [
    "aggregator_label",
    "masked_mean_batch",
    "masked_trimmed_mean_batch",
    "masked_median_batch",
    "masked_cge_batch",
    "masked_kernel_for",
    "masked_partial_kernel_for",
    "front_packed_counts",
    "degree_grouped_kernel_for",
    "masked_min_attendance",
    "masked_min_attendance_for_tolerance",
    "aggregate_batch_masked",
]


def _count_kernel(kernel: str) -> None:
    """Count one masked-kernel invocation on the ambient recorder.

    A single attribute check when recording is off, so the kernels stay
    on the zero-overhead contract of :mod:`repro.telemetry.recorder`.
    """
    recorder = current_recorder()
    if recorder.enabled:
        recorder.count("masked_kernel_calls", kernel=kernel)


def _check_masked(
    values: np.ndarray,
    mask: np.ndarray,
    allow_nonfinite: bool = False,
    label: Optional[str] = None,
):
    """Validate a masked stack; returns ``(values, mask, counts, finite_ok)``.

    ``finite_ok`` reports whether every *valid* slot is finite.  Strict
    callers (``allow_nonfinite=False``) instead get a typed
    :class:`~repro.health.QuarantineError` naming the receiving agents,
    the affected trials, the ambient round, and the aggregator ``label``.
    """
    values = np.asarray(values, dtype=float)
    if values.ndim != 4:
        raise ValueError(
            f"expected (S, n, k, d) neighborhood stacks, got shape {values.shape}"
        )
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != values.shape[1:3]:
        raise ValueError(
            f"mask shape {mask.shape} does not match neighborhoods "
            f"{values.shape[1:3]}"
        )
    counts = mask.sum(axis=1)  # (n,) valid messages per receiving agent
    if counts.min() < 1:
        raise ValueError("every agent needs at least one valid message")
    # Finite check on the valid slots only — invalid slots may hold
    # arbitrary padding.  OR-ing the inverted mask beats the boolean
    # fancy-index gather the engines would otherwise pay per kernel call.
    finite_ok = bool((np.isfinite(values) | ~mask[None, :, :, None]).all())
    if not finite_ok and not allow_nonfinite:
        bad = ~np.isfinite(values) & mask[None, :, :, None]
        receivers = np.nonzero(bad.any(axis=(0, 2, 3)))[0]
        trials = np.nonzero(bad.any(axis=(1, 2, 3)))[0]
        round_index, context_label = current_round_context()
        label = label if label is not None else context_label
        parts = [
            "gradients contain non-finite entries in the neighborhoods of "
            f"agents {[int(i) for i in receivers]}",
            f"in trials {[int(s) for s in trials]}",
        ]
        if round_index is not None:
            parts.append(f"at round {round_index}")
        if label is not None:
            parts.append(f"(aggregator {label})")
        raise QuarantineError(
            " ".join(parts),
            agent_indices=receivers,
            trial_indices=trials,
            round_index=round_index,
            aggregator=label,
        )
    return values, mask, counts, finite_ok


def _take_slot(csum: np.ndarray, slot: np.ndarray) -> np.ndarray:
    """Per-agent gather along the slot axis: ``csum[s, i, slot[i], :]``."""
    s, n, k, d = csum.shape
    flat = np.ascontiguousarray(csum).reshape(s, n * k, d)
    return flat[:, np.arange(n) * k + slot, :]


def masked_mean_batch(
    values: np.ndarray, mask: np.ndarray, label: Optional[str] = None
) -> np.ndarray:
    """Mean of the valid neighborhood messages: ``(S, n, k, d) -> (S, n, d)``.

    The mean has no defense against a single hostile entry, so this kernel
    keeps the strict finite check (it ``quarantines_on_nonfinite``): a
    hostile valid slot raises :class:`~repro.health.QuarantineError` naming
    the receivers, trials, round, and ``label``.
    """
    _count_kernel("mean")
    values, mask, counts, _ = _check_masked(values, mask, label=label)
    weighted = np.where(mask[None, :, :, None], values, 0.0)
    return weighted.sum(axis=2) / counts[None, :, None]


def _per_receiver_tolerance(
    tolerance, counts: np.ndarray, name: str
) -> np.ndarray:
    """Broadcast a scalar or per-receiver tolerance to ``counts``' shape."""
    arr = np.asarray(tolerance, dtype=int)
    if arr.ndim == 0:
        arr = np.broadcast_to(arr, counts.shape)
    elif arr.shape != counts.shape:
        raise ValueError(
            f"per-receiver {name} has shape {arr.shape}, expected scalar "
            f"or {counts.shape}"
        )
    if (arr < 0).any():
        raise ValueError(f"{name} must be non-negative")
    return arr


def masked_trimmed_mean_batch(
    values: np.ndarray, mask: np.ndarray, trim
) -> np.ndarray:
    """Neighborhood-wise coordinate trimmed mean under a validity mask.

    For every agent and coordinate, drops the ``trim`` largest and ``trim``
    smallest of its *valid* entries and averages the rest — the CWTM rule of
    equation (24) applied per in-neighborhood.  ``trim`` is a scalar or a
    per-receiver ``(n,)`` array (the delay-tolerant engines shrink the trim
    per agent with its round's attendance).  Implemented with one sort
    (+inf padding pushes invalid slots past every valid order statistic) and
    a prefix-sum gather, so ragged neighborhoods cost no Python loop.

    Hostile valid entries (non-finite or overflow-scale) rank with the
    extremes — NaN sorts past the +Inf padding, ±Inf sorts outermost — so
    with at most ``trim`` of them per tail they land in the trimmed region.
    In a trial with such inputs the trimmed slots are zeroed before the
    prefix sum: the zeros cancel exactly in the upper−lower subtraction, so
    a ±Inf tail can no longer poison the cumulative sum and a ±1e300 tail
    can no longer cancel the kept entries catastrophically.  Past the
    breakdown point a hostile entry survives inside the kept range and the
    output goes non-finite — honestly, for the engines' screen to
    quarantine.  The choice is made per receiver row, from its own
    neighbourhood, so no row's floats depend on the other rows of the
    stack (``aggregate_batch_masked`` puts whole trials on that axis).
    """
    _count_kernel("trimmed_mean")
    values, mask, counts, _ = _check_masked(
        values, mask, allow_nonfinite=True
    )
    trim = _per_receiver_tolerance(trim, counts, "trim")
    kept = counts - 2 * trim
    if kept.min() < 1:
        worst = int(kept.argmin())
        raise ValueError(
            f"agent {worst} has {int(counts[worst])} messages, cannot trim "
            f"{int(trim[worst])} from both sides"
        )
    padded = np.where(mask[None, :, :, None], values, np.inf)
    ordered = np.sort(padded, axis=2)
    # Screen each receiver row: a hostile valid entry is always one of the
    # extreme order statistics of its valid region (a NaN leaves +Inf,
    # padding or its own, in the last valid slot), so two slot gathers
    # replace a full pass over the stack.  NaN fails the ``<=`` test.
    smallest = _take_slot(ordered, np.zeros_like(counts))
    largest = _take_slot(ordered, counts - 1)
    moderate = (np.abs(smallest) <= OVERFLOW_LIMIT) & (
        np.abs(largest) <= OVERFLOW_LIMIT
    )  # (S, n, d)
    if not moderate.all():
        hostile = ~moderate.all(axis=2)  # (S, n)
        slots = np.arange(ordered.shape[2])
        trimmed_slot = (slots[None, :] < trim[:, None]) | (
            slots[None, :] > (counts - trim - 1)[:, None]
        )  # (n, k): the slots the upper−lower subtraction cancels
        ordered = np.where(
            hostile[:, :, None, None] & trimmed_slot[None, :, :, None],
            0.0,
            ordered,
        )
        with np.errstate(invalid="ignore", over="ignore"):
            csum = np.cumsum(ordered, axis=2)
    else:
        csum = np.cumsum(ordered, axis=2)
    upper = _take_slot(csum, counts - trim - 1)
    if trim.any():
        lower = _take_slot(csum, np.maximum(trim - 1, 0))
        upper = upper - np.where((trim > 0)[None, :, None], lower, 0.0)
    return upper / kept[None, :, None]


def masked_median_batch(values: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Neighborhood-wise coordinate median under a validity mask.

    Hostile valid entries rank with the extremes (NaN past the +Inf
    padding), so with fewer than half of a neighborhood hostile the median
    slots stay finite; past that the blend goes non-finite — silently, via
    the errstate — for the engines' screen to quarantine.
    """
    _count_kernel("median")
    values, mask, counts, finite_ok = _check_masked(
        values, mask, allow_nonfinite=True
    )
    padded = np.where(mask[None, :, :, None], values, np.inf)
    ordered = np.sort(padded, axis=2)
    low = _take_slot(ordered, (counts - 1) // 2)
    high = _take_slot(ordered, counts // 2)
    if finite_ok:
        return 0.5 * (low + high)
    with np.errstate(invalid="ignore", over="ignore"):
        return 0.5 * (low + high)


def masked_cge_batch(
    values: np.ndarray, mask: np.ndarray, f, average: bool = False
) -> np.ndarray:
    """Neighborhood-wise Comparative Gradient Elimination under a mask.

    Each agent keeps the ``c_i - f`` smallest-norm messages of its ``c_i``
    valid ones (ties broken by slot order — ascending sender id) and outputs
    their vector sum (equation (23)), or their mean when ``average``.
    ``f`` is a scalar or a per-receiver ``(n,)`` array.

    Hostile valid messages (whose norm is NaN or overflows to +Inf) rank
    last with norm +Inf — the overflow-safe semantics of the unmasked CGE
    kernel — so with at most ``f`` of them per neighborhood they are always
    eliminated; more than ``f`` drives the affected receiver rows to NaN
    for the engines' screen to quarantine.
    """
    _count_kernel("cge")
    values, mask, counts, _ = _check_masked(values, mask, allow_nonfinite=True)
    f = _per_receiver_tolerance(f, counts, "f")
    kept = counts - f
    if kept.min() < 1:
        worst = int(kept.argmin())
        raise ValueError(
            f"agent {worst} has {int(counts[worst])} messages, cannot "
            f"eliminate f={int(f[worst])}"
        )
    # Zero out invalid slots before the norm: they may hold arbitrary junk
    # (padding), and norming junk can overflow even though it is never kept.
    safe = np.where(mask[None, :, :, None], values, 0.0)
    with np.errstate(over="ignore", invalid="ignore"):
        raw = np.linalg.norm(safe, axis=3)
    norms = np.where(mask[None, :, :] & np.isfinite(raw), raw, np.inf)
    hostile = not bool((np.isfinite(raw) | ~mask[None, :, :]).all())
    order = np.argsort(norms, axis=2, kind="stable")
    gathered = np.take_along_axis(values, order[:, :, :, None], axis=2)
    if hostile:
        # Every +Inf-ranked slot (invalid padding or hostile message) sits
        # past the kept prefix when at most f messages are hostile; zeroing
        # them keeps the prefix sums exact and warning-free.  Receivers
        # past the breakdown point — fewer finite-norm messages than they
        # must keep — are forced to NaN instead of a silently wrong sum.
        dropped = np.take_along_axis(np.isinf(norms), order, axis=2)
        gathered = np.where(dropped[:, :, :, None], 0.0, gathered)
        with np.errstate(invalid="ignore", over="ignore"):
            csum = np.cumsum(gathered, axis=2)
    else:
        csum = np.cumsum(gathered, axis=2)
    total = _take_slot(csum, kept - 1)
    if hostile:
        finite_counts = np.isfinite(norms).sum(axis=2)  # (S, n)
        broken = kept[None, :] > finite_counts
        if broken.any():
            total = np.where(broken[:, :, None], np.nan, total)
    if average:
        return total / kept[None, :, None]
    return total


def aggregator_label(aggregator) -> str:
    """The filter's registry name when it has one, else its class name.

    Rejection messages must *name* the offending filter — ``"krum"`` reads
    better in a traceback than ``KrumAggregator`` alone, so both appear.
    """
    name = getattr(aggregator, "name", None)
    type_name = type(aggregator).__name__
    if isinstance(name, str) and name and name != "abstract":
        return f"{name!r} ({type_name})"
    return type_name


def masked_kernel_for(
    aggregator,
) -> Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]]:
    """The masked kernel matching a registered aggregator, if one exists.

    Returns a ``(values, mask) -> (S, n, d)`` callable for the filters with
    neighborhood-wise variants (mean, CWTM, coordinate median, CGE), or
    ``None`` — callers fall back to regular-topology folding or reject the
    configuration with a clear error.  It is
    :func:`masked_partial_kernel_for`'s kernel at the filter's declared
    tolerance ``f``.
    """
    kernel = masked_partial_kernel_for(aggregator)
    if kernel is None:
        return None
    tolerance = getattr(aggregator, "f", 0)
    return lambda values, mask: kernel(values, mask, tolerance)


def front_packed_counts(mask: np.ndarray) -> Optional[np.ndarray]:
    """Per-row valid counts when ``mask`` rows are front-packed, else ``None``.

    A mask is *front-packed* when every row lists its valid slots as a
    contiguous prefix — the layout
    :meth:`repro.distsys.topology.CommunicationTopology.neighborhoods`
    produces (ascending sender id, padding at the tail).  Degree-grouped
    dispatch requires it: slicing a bucket's prefix then yields a dense
    stack with no invalid slots.
    """
    mask = np.asarray(mask, dtype=bool)
    if mask.ndim != 2:
        raise ValueError(f"expected an (n, k) mask, got shape {mask.shape}")
    counts = mask.sum(axis=1)
    slots = np.arange(mask.shape[1])
    if bool((mask == (slots[None, :] < counts[:, None])).all()):
        return counts
    return None


def degree_grouped_kernel_for(
    aggregator, mask: np.ndarray
) -> Optional[Callable[[np.ndarray], np.ndarray]]:
    """Degree-bucketed dense dispatch over a *static* validity mask.

    The masked kernels pad every neighborhood to the widest degree ``k``
    and drag that padding through every sort and prefix sum.  When the
    mask is static (a topology's closed in-neighborhoods) and
    front-packed, receivers can instead be bucketed by valid count: each
    bucket's prefix slice ``values[:, ids, :degree, :]`` is dense, so the
    plain ``aggregate_batch`` kernel applies per bucket — no mask
    machinery, no widest-pad work, and on a mostly-regular graph the
    ragged cost is paid only by the odd-degree buckets.  Agrees with the
    one-shot masked kernel to float rounding (the masked kernels reduce
    the same valid slots in the same order).

    Returns a ``(S, n, k, d) -> (S, n, d)`` callable closed over the
    bucket plan, or ``None`` when the aggregator has no masked kernel or
    the mask is not front-packed — callers fall back to the masked
    kernel.
    """
    if masked_kernel_for(aggregator) is None:
        return None
    counts = front_packed_counts(mask)
    if counts is None:
        return None
    buckets = [
        (int(degree), np.flatnonzero(counts == degree))
        for degree in np.unique(counts)
    ]
    n = int(counts.shape[0])

    def dispatch(values: np.ndarray) -> np.ndarray:
        _count_kernel("degree_grouped")
        values = np.asarray(values, dtype=float)
        if values.ndim != 4 or values.shape[1] != n:
            raise ValueError(
                f"expected (S, {n}, k, d) neighborhood stacks, got shape "
                f"{values.shape}"
            )
        s, d = values.shape[0], values.shape[3]
        out = np.empty((s, n, d))
        for degree, ids in buckets:
            dense = values[:, ids, :degree, :].reshape(
                s * ids.size, degree, d
            )
            out[:, ids] = aggregator.aggregate_batch(dense).reshape(
                s, ids.size, d
            )
        return out

    return dispatch


def aggregate_batch_masked(
    aggregator, values: np.ndarray, mask: np.ndarray
) -> np.ndarray:
    """Apply an aggregator's masked kernel to ``S`` partially-attended stacks.

    ``values`` is ``(S, n, d)`` — one padded gradient stack per trial — and
    ``mask`` is ``(S, n)`` marking the slots that actually hold a received
    message; returns the ``(S, d)`` aggregates.  The trials ride the masked
    kernels' *receiver* axis (each receiver row carries its own validity
    mask), so a whole asynchronous batch with per-trial attendance patterns
    is one kernel invocation.  Entries at invalid slots are ignored entirely
    but must be finite (the kernels validate valid slots only, so callers
    may leave true-gradient padding in place).  Raises for aggregators
    without a masked kernel.
    """
    kernel = masked_kernel_for(aggregator)
    if kernel is None:
        raise ValueError(
            f"aggregator {aggregator_label(aggregator)} has no masked kernel"
        )
    values = np.asarray(values, dtype=float)
    if values.ndim != 3:
        raise ValueError(
            f"expected (S, n, d) gradient stacks, got shape {values.shape}"
        )
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != values.shape[:2]:
        raise ValueError(
            f"mask shape {mask.shape} does not match stacks "
            f"{values.shape[:2]}"
        )
    return kernel(values[None], mask)[0]


def masked_min_attendance(aggregator) -> int:
    """Fewest valid messages the matching masked kernel can aggregate.

    The asynchronous engine's ``"masked"`` missing-value policy keeps the
    filter's declared tolerance ``f`` even under partial attendance, so a
    round with fewer valid messages than this cannot produce a safe update
    and must stall.  Raises for aggregators without a masked kernel (use
    :func:`masked_kernel_for` to detect those first).
    """
    return int(
        masked_min_attendance_for_tolerance(
            aggregator, getattr(aggregator, "f", 0)
        )
    )


def masked_partial_kernel_for(
    aggregator,
) -> Optional[Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]]:
    """The *tolerance-parameterized* masked kernel matching an aggregator.

    Returns a ``(values, mask, tolerance) -> (S, n, d)`` callable where
    ``tolerance`` is a per-receiver ``(n,)`` int array overriding the
    filter's declared ``f``/trim — the hook the delay-tolerant engines use
    to shrink the tolerance per agent with its round's attendance (filters
    without a tolerance parameter — mean, coordinate median — ignore it).
    Returns ``None`` for filters without a masked kernel.
    """
    from .cge import AveragedCGE, CGEAggregator
    from .mean import MeanAggregator
    from .trimmed_mean import CoordinateWiseMedian, CWTMAggregator

    if isinstance(aggregator, AveragedCGE):
        return lambda values, mask, tolerance: masked_cge_batch(
            values, mask, tolerance, average=True
        )
    if isinstance(aggregator, CGEAggregator):
        return lambda values, mask, tolerance: masked_cge_batch(
            values, mask, tolerance
        )
    if isinstance(aggregator, CWTMAggregator):
        return lambda values, mask, tolerance: masked_trimmed_mean_batch(
            values, mask, tolerance
        )
    if isinstance(aggregator, CoordinateWiseMedian):
        return lambda values, mask, tolerance: masked_median_batch(
            values, mask
        )
    if isinstance(aggregator, MeanAggregator):
        return lambda values, mask, tolerance: masked_mean_batch(
            values, mask, label=aggregator_label(aggregator)
        )
    return None


def masked_min_attendance_for_tolerance(aggregator, tolerance) -> np.ndarray:
    """Per-receiver attendance floor of the tolerance-parameterized kernel.

    The fewest valid messages each receiver needs for
    :func:`masked_partial_kernel_for`'s kernel to produce a defined output
    at the given per-receiver ``tolerance``: ``2·trim + 1`` for CWTM,
    ``f + 1`` for CGE, ``1`` for mean / coordinate median.
    """
    from .cge import CGEAggregator
    from .trimmed_mean import CWTMAggregator

    tolerance = np.asarray(tolerance, dtype=int)
    if isinstance(aggregator, CGEAggregator):  # includes AveragedCGE
        return tolerance + 1
    if isinstance(aggregator, CWTMAggregator):
        return 2 * tolerance + 1
    if masked_partial_kernel_for(aggregator) is not None:
        return np.ones_like(tolerance)
    raise ValueError(
        f"aggregator {aggregator_label(aggregator)} has no masked kernel"
    )
