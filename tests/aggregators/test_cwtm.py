"""Tests for CWTM (equation (24), Theorem 6) and coordinate-wise median."""

import importlib
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.aggregators import (
    CoordinateWiseMedian,
    CWTMAggregator,
    trimmed_mean,
    trimmed_mean_batch,
)
from repro.experiments import paper_problem, run_regression

kernel = importlib.import_module("repro.aggregators.trimmed_mean")

finite = st.floats(-100.0, 100.0, allow_nan=False, allow_infinity=False)


def stacks(n=7, d=3):
    return arrays(np.float64, (n, d), elements=finite)


def partition_mean(stacks, trim):
    """The kernel before ascending summation: a two-sided ``np.partition``
    along the slot axis, then ``.mean`` of the kept slice.  NumPy 2.4 leaves
    that slice ascending for at most 6 slots, where the two must agree."""
    n = stacks.shape[1]
    if trim == 0:
        return stacks.mean(axis=1)
    partitioned = np.partition(stacks, (trim, n - trim - 1), axis=1)
    return partitioned[:, trim : n - trim].mean(axis=1)


def ascending_sum_mean(stacks, trim):
    """Reference CWTM in plain Python floats: sort each column (NaN last),
    add the kept order statistics left to right, divide by their count."""
    s, n, d = stacks.shape
    ordered = np.sort(stacks, axis=1).tolist()
    out = np.empty((s, d))
    for i in range(s):
        for j in range(d):
            total = ordered[i][trim][j]
            for rank in range(trim + 1, n - trim):
                total += ordered[i][rank][j]
            out[i, j] = total / (n - 2 * trim)
    return out


#: Entries rich in ties, signed zeros, infinities and magnitudes far apart
#: (so the summation order shows in the last bit).
PALETTE = np.array(
    [0.0, -0.0, 1.0, -1.0, 0.1, 3.0, 1e16, -1e16, 1e300, -1e300,
     np.inf, -np.inf]
)


@st.composite
def cwtm_batches(draw, max_slots=10):
    """``(stacks, trim)``: a seeded ``(S, n, d)`` batch whose width falls on
    either side of the kernel's network crossover, with per-column NaN
    counts from 0 to past the trim."""
    n = draw(st.integers(3, max_slots))
    trim = draw(st.integers(1, (n - 1) // 2))
    s = draw(st.sampled_from([1, 4, 40, 300, 700]))
    d = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = rng.normal(size=(s, n, d)) * 10.0 ** rng.integers(-8, 9, (s, n, d))
    special = rng.random((s, n, d)) < draw(st.sampled_from([0.0, 0.2, 0.6]))
    values[special] = rng.choice(PALETTE, size=int(special.sum()))
    nan_share = draw(st.sampled_from([0.0, 0.1, 0.4, 0.8]))
    values[rng.random((s, n, d)) < nan_share] = np.nan
    return values, trim


def _slot_slice(values):
    # A slot slice of a wider buffer, as in the fused engine's fold.
    s, n, d = values.shape
    wide = np.full((s, n + 2, d), 7.0)
    wide[:, :n] = values
    return wide[:, :n], wide


def _reversed_coordinates(values):
    flipped = values[:, :, ::-1].copy()
    return flipped[:, :, ::-1], flipped


def _broadcast_trials(values):
    # A stride-0 trial axis: every trial reads trial 0's rows.
    row = values[:1].copy()
    return np.broadcast_to(row, values.shape), row


#: ``(S, n, d)`` stack layouts of one set of values: each maps the values
#: to ``(stacks, buffer)``, the kernel's input and the memory it views.
LAYOUTS = {
    "contiguous": lambda values: (values, values),
    "slot_slice": _slot_slice,
    "fortran": lambda values: (np.asfortranarray(values),) * 2,
    "reversed_coordinates": _reversed_coordinates,
    "broadcast_trials": _broadcast_trials,
}


def network_path(stacks, trim, monkeypatch):
    monkeypatch.setattr(kernel, "NETWORK_MIN_COLUMNS", 0)
    monkeypatch.setattr(kernel, "NETWORK_MAX_SLOTS", stacks.shape[1])
    return trimmed_mean_batch(stacks, trim)


def sort_path(stacks, trim, monkeypatch):
    monkeypatch.setattr(kernel, "NETWORK_MAX_SLOTS", 0)
    return trimmed_mean_batch(stacks, trim)


class TestTrimmedMean:
    def test_trims_extremes_per_coordinate(self):
        values = np.array([[0.0], [1.0], [2.0], [3.0], [100.0]])
        assert trimmed_mean(values, trim=1)[0] == pytest.approx(2.0)

    def test_trim_zero_is_mean(self, rng):
        values = rng.normal(size=(5, 3))
        assert np.allclose(trimmed_mean(values, 0), values.mean(axis=0))

    def test_coordinates_trimmed_independently(self):
        values = np.array(
            [
                [100.0, 0.0],
                [0.0, 100.0],
                [1.0, 1.0],
                [2.0, 2.0],
                [3.0, 3.0],
            ]
        )
        out = trimmed_mean(values, trim=1)
        # Column 0 keeps {1, 2, 3}; column 1 keeps {1, 2, 3}.
        assert np.allclose(out, [2.0, 2.0])

    def test_over_trimming_rejected(self):
        with pytest.raises(ValueError):
            trimmed_mean(np.ones((4, 2)), trim=2)

    def test_negative_trim_rejected(self):
        with pytest.raises(ValueError):
            trimmed_mean(np.ones((4, 2)), trim=-1)


class TestAscendingSummation:
    """Both batched paths sum the kept order statistics in ascending order."""

    @given(case=cwtm_batches())
    @settings(max_examples=60, deadline=None)
    def test_both_paths_equal_ascending_reference(self, case):
        stacks, trim = case
        with pytest.MonkeyPatch.context() as mp, np.errstate(
            invalid="ignore", over="ignore"
        ):
            expected = ascending_sum_mean(stacks, trim)
            for path in (network_path, sort_path):
                got = path(stacks, trim, mp)
                assert np.array_equal(got, expected, equal_nan=True), path
            per_trial = np.stack([trimmed_mean(stack, trim) for stack in stacks])
        assert np.array_equal(per_trial, expected, equal_nan=True)

    @given(case=cwtm_batches(max_slots=6), keep_mean=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_equals_partition_mean_up_to_six_slots(self, case, keep_mean):
        stacks, trim = case
        trim = 0 if keep_mean else trim
        with pytest.MonkeyPatch.context() as mp, np.errstate(
            invalid="ignore", over="ignore"
        ):
            expected = partition_mean(stacks, trim)
            for path in (network_path, sort_path):
                got = path(stacks, trim, mp)
                assert np.array_equal(got, expected, equal_nan=True), path
            per_trial = np.stack([trimmed_mean(stack, trim) for stack in stacks])
        assert np.array_equal(per_trial, expected, equal_nan=True)

    @pytest.mark.parametrize("n", [5, 8])
    def test_nan_count_sweep_on_the_network(self, n):
        # Column c carries c NaNs (c = 0..n) on a stack wide enough for the
        # network: the kept ranks go NaN exactly when c passes the trim.
        rng = np.random.default_rng(n)
        stacks = rng.normal(size=(600, n, n + 1))
        for count in range(n + 1):
            stacks[:, :count, count] = np.nan
        trim = (n - 1) // 2
        assert stacks.shape[0] * stacks.shape[2] >= kernel.NETWORK_MIN_COLUMNS
        with np.errstate(invalid="ignore"):
            got = trimmed_mean_batch(stacks, trim)
        assert np.array_equal(
            got, ascending_sum_mean(stacks, trim), equal_nan=True
        )
        assert np.isfinite(got[:, : trim + 1]).all()
        assert np.isnan(got[:, trim + 1 :]).all()

    def test_hostile_tails_on_the_network_stay_silent(self):
        # The containment contract of the hostile-payload suite, on a stack
        # wide enough for the network: at most ``trim`` hostile entries per
        # column give a finite output and no RuntimeWarning, even though
        # the NaN screen's total overflows.
        rng = np.random.default_rng(3)
        stacks = rng.normal(size=(700, 7, 2))
        stacks[:, 0] = np.where(rng.random((700, 2)) < 0.5, np.nan, 1e300)
        stacks[:, 3] = np.where(rng.random((700, 2)) < 0.5, -np.inf, np.inf)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = trimmed_mean_batch(stacks, 2)
        assert np.isfinite(got).all()
        assert np.array_equal(got, ascending_sum_mean(stacks, 2))

    @pytest.mark.parametrize("n", range(2, kernel.NETWORK_MAX_SLOTS + 1))
    def test_sorting_networks_sort(self, n):
        # 0-1 principle: a comparator network that sorts every 0/1 input
        # sorts every input.
        inputs = (np.arange(2**n)[:, None] >> np.arange(n)) & 1
        wires = inputs.T.copy()
        for lo, hi in kernel._sorting_network(n):
            wires[lo], wires[hi] = (
                np.minimum(wires[lo], wires[hi]),
                np.maximum(wires[lo], wires[hi]),
            )
        assert np.array_equal(wires, np.sort(inputs, axis=1).T)

    @pytest.mark.parametrize("layout", sorted(LAYOUTS))
    @pytest.mark.parametrize("d", range(1, 6))
    def test_network_reads_every_layout(self, d, layout, monkeypatch):
        # The network's slot-major copy moves d-coordinate records when the
        # coordinate axis is contiguous and transposes floats otherwise;
        # every layout must give the contiguous stack's bits and leave the
        # input (and the buffer it lives in) untouched.
        rng = np.random.default_rng(10 * d + sorted(LAYOUTS).index(layout))
        values = rng.normal(size=(40, 6, d)) * 10.0 ** rng.integers(-8, 9, (40, 6, d))
        special = rng.random(values.shape) < 0.3
        values[special] = rng.choice(PALETTE, size=int(special.sum()))
        values[rng.random(values.shape) < 0.2] = np.nan
        stacks, buffer = LAYOUTS[layout](values)
        before = buffer.copy()
        contiguous = np.ascontiguousarray(stacks)
        with np.errstate(invalid="ignore", over="ignore"):
            got = network_path(stacks, 2, monkeypatch)
            expected = network_path(contiguous, 2, monkeypatch)
            reference = ascending_sum_mean(contiguous, 2)
        assert np.array_equal(got.view(np.int64), expected.view(np.int64))
        assert np.array_equal(got, reference, equal_nan=True)
        assert np.array_equal(buffer.view(np.int64), before.view(np.int64))

    @pytest.mark.parametrize("path", [network_path, sort_path])
    def test_batched_output_owns_its_data(self, path, monkeypatch):
        # The result must not be a view that keeps the kernel's working
        # copy of the whole stack alive.
        stacks = np.random.default_rng(5).normal(size=(40, 5, 2))
        assert path(stacks, 1, monkeypatch).base is None

    def test_per_trial_output_owns_its_data(self):
        values = np.random.default_rng(6).normal(size=(7, 3))
        assert trimmed_mean(values, 2).base is None
        # ...so a per-trial trace record keeps d floats, not the sorted stack.
        result = run_regression(
            paper_problem(), "cwtm", "gradient_reverse", iterations=3
        )
        assert all(record.aggregate.base is None for record in result.trace)


class TestCWTMKernelPaths:
    """At the default crossover, 3 stacks sort and 800 take the
    compare-exchange network; both give the reference's bits."""

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("stacks", [3, 800])
    def test_path_matches_ascending_reference(self, stacks, d):
        # d = 1 takes the network's plain transposed copy, d >= 2 its
        # record-view copy.
        rng = np.random.default_rng(stacks + d)
        values = rng.normal(size=(stacks, 5, d))
        values[::7, 1, 0] = np.nan  # fires the network's NaN screen
        values[::5, 2, -1] = -np.inf
        on_network = stacks * d >= kernel.NETWORK_MIN_COLUMNS
        assert on_network == (stacks == 800)
        got = trimmed_mean_batch(values, 1)
        expected = ascending_sum_mean(values, 1)
        assert np.array_equal(got.view(np.int64), expected.view(np.int64))


class TestPermutationInvariance:
    """CWTM returns equal results (``==``) under any reordering of the
    messages; only the sign of a zero result could differ, and these
    stacks have no zeros."""

    @given(
        n=st.integers(3, 16),
        d=st.integers(1, 3),
        s=st.sampled_from([1, 3, 300]),
        seed=st.integers(0, 2**32 - 1),
        data=st.data(),
    )
    @settings(max_examples=80, deadline=None)
    def test_row_shuffle_keeps_the_result(self, n, d, s, seed, data):
        trim = data.draw(st.integers(1, (n - 1) // 2))
        rng = np.random.default_rng(seed)
        stacks = rng.normal(size=(s, n, d)) * 10.0 ** rng.integers(-6, 7, (s, n, d))
        order = rng.permuted(np.tile(np.arange(n), (s, 1)), axis=1)
        shuffled = np.take_along_axis(stacks, order[..., None], axis=1)
        assert np.array_equal(
            trimmed_mean_batch(shuffled, trim), trimmed_mean_batch(stacks, trim)
        )
        assert np.array_equal(
            trimmed_mean(shuffled[0], trim), trimmed_mean(stacks[0], trim)
        )


class TestCWTMAggregator:
    def test_paper_formula(self):
        # n=5, f=1 -> average the middle 3 order statistics per coordinate.
        grads = np.array([[0.0], [10.0], [20.0], [30.0], [1000.0]])
        out = CWTMAggregator(f=1).aggregate(grads)
        assert out[0] == pytest.approx(20.0)

    def test_bounded_by_honest_range_with_f_outliers(self, rng):
        # With at most f arbitrary rows, each output coordinate lies within
        # the honest min/max of that coordinate (the property behind (119)).
        honest = rng.normal(size=(5, 3))
        byzantine = 1e9 * np.ones((2, 3))
        stacked = np.vstack([honest, byzantine])
        out = CWTMAggregator(f=2).aggregate(stacked)
        assert np.all(out >= honest.min(axis=0) - 1e-9)
        assert np.all(out <= honest.max(axis=0) + 1e-9)

    @given(stacks())
    @settings(max_examples=60, deadline=None)
    def test_permutation_invariant(self, grads):
        agg = CWTMAggregator(f=2)
        rng = np.random.default_rng(1)
        perm = rng.permutation(grads.shape[0])
        assert np.allclose(agg.aggregate(grads), agg.aggregate(grads[perm]))

    @given(stacks())
    @settings(max_examples=60, deadline=None)
    def test_within_coordinate_hull(self, grads):
        out = CWTMAggregator(f=2).aggregate(grads)
        assert np.all(out >= grads.min(axis=0) - 1e-9)
        assert np.all(out <= grads.max(axis=0) + 1e-9)

    @given(stacks())
    @settings(max_examples=40, deadline=None)
    def test_translation_equivariant(self, grads):
        shift = np.array([1.0, -2.0, 3.0])
        agg = CWTMAggregator(f=2)
        assert np.allclose(
            agg.aggregate(grads + shift),
            agg.aggregate(grads) + shift,
            atol=1e-8,
        )

    def test_identical_inputs_fixed_point(self):
        grads = np.tile(np.array([2.0, -1.0]), (6, 1))
        assert np.allclose(CWTMAggregator(f=2).aggregate(grads), [2.0, -1.0])


class TestCoordinateWiseMedian:
    def test_median_per_coordinate(self):
        grads = np.array([[0.0, 5.0], [1.0, 6.0], [100.0, 7.0]])
        assert np.allclose(
            CoordinateWiseMedian().aggregate(grads), [1.0, 6.0]
        )

    @given(stacks())
    @settings(max_examples=40, deadline=None)
    def test_matches_numpy_median(self, grads):
        assert np.allclose(
            CoordinateWiseMedian().aggregate(grads), np.median(grads, axis=0)
        )


class TestExplicitAttendance:
    def test_partial_attendance_allowed_when_trim_holds(self):
        agg = CWTMAggregator(f=1, expected_n=6)
        assert agg.aggregate(np.ones((4, 2))).shape == (2,)

    def test_over_attendance_rejected(self):
        agg = CWTMAggregator(f=1, expected_n=4)
        with pytest.raises(ValueError, match="declared with n=4"):
            agg.aggregate(np.ones((5, 2)))

    def test_thin_attendance_names_the_shortfall(self):
        agg = CWTMAggregator(f=1, expected_n=6)
        with pytest.raises(ValueError, match="received 2 of 6"):
            agg.aggregate(np.ones((2, 2)))

    def test_registry_declares_expected_n(self):
        from repro.aggregators import make_aggregator

        assert make_aggregator("cwtm", 6, 1).expected_n == 6
