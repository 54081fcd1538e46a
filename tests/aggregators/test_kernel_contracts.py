"""Contracts the batched server engine relies on when it calls a kernel.

The engine hands each filter group a *slice view* of the round's
``(S, n, d)`` gradients instead of a copy, so every registered filter's
``aggregate_batch`` must leave its input's bytes alone.  The order-
statistic kernels share a partition median that must equal
``np.median`` bit for bit on NaN-free input, and a flat row gather that
must equal ``np.take_along_axis``.
"""

import warnings

import numpy as np
import pytest

from repro.aggregators.base import _gather_rows
from repro.aggregators.registry import available_aggregators, make_aggregator
from repro.aggregators.trimmed_mean import _partition_median
from repro.health import QuarantineError

#: n = 7 with f = 1 meets Bulyan's n >= 4f + 3, so every filter runs
N, F, D = 7, 1, 3

#: entries that stress the median's arithmetic: signed zeros, infinities,
#: subnormals and overflow-scale magnitudes
SPECIAL = np.array(
    [0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324, 2.2e-308, -2.2e-308,
     1e308, -1e308, 1.0, -1.5]
)


def _finite_batch(rng):
    return rng.normal(size=(9, N, D)) * 3.0


def _hostile_batch(rng):
    batch = _finite_batch(rng)
    batch[1, 2] = np.nan
    batch[3, 0] = np.inf
    batch[4, 5] = -np.inf
    batch[5, 6] = 1e300
    batch[6, 3] = -0.0
    batch[7, 1, 0] = np.nan
    return batch


@pytest.mark.parametrize("make_batch", [_finite_batch, _hostile_batch],
                         ids=["finite", "hostile"])
@pytest.mark.parametrize("name", available_aggregators())
def test_aggregate_batch_leaves_a_slice_view_unchanged(name, make_batch):
    batch = make_batch(np.random.default_rng(7))
    before = batch.tobytes()
    aggregator = make_aggregator(name, N, F)
    view = batch[2:8]
    assert view.base is batch
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        try:
            out = aggregator.aggregate_batch(view)
        except QuarantineError:
            assert aggregator.quarantines_on_nonfinite
        else:
            assert out.shape == (6, D)
    assert batch.tobytes() == before


def _median_inputs(rng, n):
    """NaN-free stacks of ``n`` rows: special values, wide magnitudes, mixes."""
    yield rng.choice(SPECIAL, size=(n, 4))
    yield rng.normal(size=(n, 4)) * 10.0 ** rng.integers(-300, 300)
    mixed = rng.normal(size=(n, 4))
    pick = rng.random((n, 4)) < 0.5
    yield np.where(pick, rng.choice(SPECIAL, size=(n, 4)), mixed)
    yield np.full((n, 4), -0.0)


@pytest.mark.parametrize("n", range(1, 10))
def test_partition_median_equals_np_median_bit_for_bit(n):
    rng = np.random.default_rng(n)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for _ in range(200):
            for stack in _median_inputs(rng, n):
                for arr, axis in (
                    (stack, 0), (stack.T, 1), (stack[None], 1),
                    (stack.T.copy(), 1),
                ):
                    expected = np.median(arr, axis=axis)
                    got = _partition_median(arr, axis=axis)
                    assert got.dtype == expected.dtype
                    assert got.tobytes() == expected.tobytes()
                column = stack[:, 0]
                assert (
                    np.asarray(_partition_median(column, axis=0)).tobytes()
                    == np.asarray(np.median(column)).tobytes()
                )


@pytest.mark.parametrize("shape", [(1, 1, 1), (5, 6, 2), (4, 7, 3)])
def test_flat_gather_equals_take_along_axis(shape):
    rng = np.random.default_rng(sum(shape))
    stacks = rng.normal(size=shape)
    s, n, _ = shape
    for k in range(1, n + 1):
        order = np.argsort(rng.random((s, n)), axis=1)[:, :k]
        expected = np.take_along_axis(stacks, order[:, :, None], axis=1)
        got = _gather_rows(stacks, order)
        assert got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()
    # A slice view of a larger batch gathers from its own rows only.
    view = stacks[1:]
    order = np.zeros((s - 1, 1), dtype=int)
    assert np.array_equal(_gather_rows(view, order), view[:, :1])
