"""Masked neighborhood kernels vs. the unmasked filters they generalize."""

import numpy as np
import pytest

from repro.aggregators import (
    AveragedCGE,
    CGEAggregator,
    CoordinateWiseMedian,
    CWTMAggregator,
    GeometricMedianAggregator,
    MeanAggregator,
    degree_grouped_kernel_for,
    front_packed_counts,
    make_aggregator,
    masked_cge_batch,
    masked_kernel_for,
    masked_mean_batch,
    masked_median_batch,
    masked_trimmed_mean_batch,
)
from repro.health import QuarantineError

S, N, K, D = 3, 5, 6, 2


@pytest.fixture()
def ragged(rng):
    """Random neighborhood stacks with ragged validity (>= 3 valid each)."""
    values = rng.normal(size=(S, N, K, D))
    mask = np.zeros((N, K), dtype=bool)
    counts = rng.integers(3, K + 1, size=N)
    for i, c in enumerate(counts):
        mask[i, :c] = True
    return values, mask


def per_node_reference(values, mask, aggregate):
    """Apply a per-stack reference rule node by node."""
    out = np.empty((values.shape[0], values.shape[1], values.shape[3]))
    for s in range(values.shape[0]):
        for i in range(values.shape[1]):
            out[s, i] = aggregate(values[s, i, mask[i]])
    return out


class TestAgainstPerNodeReference:
    def test_mean(self, ragged):
        values, mask = ragged
        expected = per_node_reference(values, mask, lambda v: v.mean(axis=0))
        np.testing.assert_allclose(
            masked_mean_batch(values, mask), expected, atol=1e-12
        )

    def test_trimmed_mean(self, ragged):
        values, mask = ragged
        cwtm = CWTMAggregator(1)
        expected = per_node_reference(values, mask, cwtm.aggregate)
        np.testing.assert_allclose(
            masked_trimmed_mean_batch(values, mask, 1), expected, atol=1e-12
        )

    def test_median(self, ragged):
        values, mask = ragged
        expected = per_node_reference(values, mask, lambda v: np.median(v, axis=0))
        np.testing.assert_allclose(
            masked_median_batch(values, mask), expected, atol=1e-12
        )

    def test_cge(self, ragged):
        values, mask = ragged
        cge = CGEAggregator(1)
        expected = per_node_reference(values, mask, cge.aggregate)
        np.testing.assert_allclose(
            masked_cge_batch(values, mask, 1), expected, atol=1e-12
        )

    def test_cge_average(self, ragged):
        values, mask = ragged
        cge_mean = AveragedCGE(2)
        expected = per_node_reference(values, mask, cge_mean.aggregate)
        np.testing.assert_allclose(
            masked_cge_batch(values, mask, 2, average=True), expected, atol=1e-12
        )


class TestFullMaskEqualsUnmasked:
    """With every slot valid, the masked kernels are the standard kernels."""

    @pytest.mark.parametrize("name", ["mean", "cwtm", "median", "cge", "cge_mean"])
    def test_matches_aggregate_batch(self, rng, name):
        values = rng.normal(size=(S, N, K, D))
        mask = np.ones((N, K), dtype=bool)
        aggregator = make_aggregator(name, K, 1)
        kernel = masked_kernel_for(aggregator)
        assert kernel is not None
        folded = values.reshape(S * N, K, D)
        expected = aggregator.aggregate_batch(folded).reshape(S, N, D)
        np.testing.assert_allclose(kernel(values, mask), expected, atol=1e-12)


class TestDegreeGroupedDispatch:
    """Degree-bucketed dense dispatch agrees with the one-shot masked kernel."""

    @pytest.mark.parametrize("name", ["mean", "cwtm", "median", "cge", "cge_mean"])
    def test_matches_masked_kernel_on_ragged_stacks(self, rng, name):
        values = rng.normal(size=(S, N, K, D))
        mask = np.zeros((N, K), dtype=bool)
        counts = rng.integers(4, K + 1, size=N)
        for i, c in enumerate(counts):
            mask[i, :c] = True
        aggregator = make_aggregator(name, K, 1)
        grouped = degree_grouped_kernel_for(aggregator, mask)
        assert grouped is not None
        expected = masked_kernel_for(aggregator)(values, mask)
        np.testing.assert_allclose(grouped(values), expected, atol=1e-12)

    def test_requires_front_packed_mask(self, rng):
        mask = np.ones((N, K), dtype=bool)
        mask[0, 0] = False  # valid slots no longer a contiguous prefix
        assert front_packed_counts(mask) is None
        aggregator = make_aggregator("cwtm", K, 1)
        assert degree_grouped_kernel_for(aggregator, mask) is None

    def test_front_packed_counts(self):
        mask = np.array([[True, True, False], [True, False, False]])
        counts = front_packed_counts(mask)
        assert counts is not None and counts.tolist() == [2, 1]

    def test_no_masked_kernel_means_no_dispatch(self):
        mask = np.ones((N, K), dtype=bool)
        assert degree_grouped_kernel_for(GeometricMedianAggregator(), mask) is None

    def test_undersized_bucket_raises(self):
        # One receiver with 2 messages cannot trim 1 from both sides; the
        # probe the engine runs at construction must surface that.
        mask = np.zeros((2, K), dtype=bool)
        mask[0, :K] = True
        mask[1, :2] = True
        grouped = degree_grouped_kernel_for(CWTMAggregator(1), mask)
        with pytest.raises(ValueError):
            grouped(np.zeros((1, 2, K, D)))


class TestPerReceiverTolerance:
    """Scalar and per-receiver tolerance vectors must agree rule by rule."""

    def test_vector_trim_matches_per_node_reference(self, ragged):
        values, mask = ragged
        trims = np.array([0, 1, 0, 1, 1])
        expected = np.empty((S, N, D))
        for i, trim in enumerate(trims):
            rule = (
                CWTMAggregator(int(trim)).aggregate
                if trim
                else (lambda v: v.mean(axis=0))
            )
            for s in range(S):
                expected[s, i] = rule(values[s, i, mask[i]])
        np.testing.assert_allclose(
            masked_trimmed_mean_batch(values, mask, trims),
            expected,
            atol=1e-12,
        )

    def test_vector_f_matches_per_node_reference(self, ragged):
        values, mask = ragged
        fs = np.array([0, 1, 2, 0, 1])
        expected = np.empty((S, N, D))
        for i, f in enumerate(fs):
            rule = CGEAggregator(int(f)).aggregate
            for s in range(S):
                expected[s, i] = rule(values[s, i, mask[i]])
        np.testing.assert_allclose(
            masked_cge_batch(values, mask, fs), expected, atol=1e-12
        )

    def test_uniform_vector_equals_scalar(self, ragged):
        values, mask = ragged
        np.testing.assert_array_equal(
            masked_trimmed_mean_batch(values, mask, np.full(N, 1)),
            masked_trimmed_mean_batch(values, mask, 1),
        )
        np.testing.assert_array_equal(
            masked_cge_batch(values, mask, np.full(N, 1)),
            masked_cge_batch(values, mask, 1),
        )

    def test_vector_overtrim_names_agent_and_its_tolerance(self):
        mask = np.ones((N, K), dtype=bool)
        mask[3, 2:] = False  # agent 3 keeps 2 messages
        trims = np.array([0, 0, 0, 1, 0])
        with pytest.raises(ValueError, match="agent 3 has 2 messages"):
            masked_trimmed_mean_batch(np.zeros((S, N, K, D)), mask, trims)

    def test_wrong_length_vector_rejected(self):
        mask = np.ones((N, K), dtype=bool)
        with pytest.raises(ValueError, match="per-receiver"):
            masked_cge_batch(np.zeros((S, N, K, D)), mask, np.zeros(N + 1))

    def test_negative_tolerance_rejected(self):
        mask = np.ones((N, K), dtype=bool)
        with pytest.raises(ValueError, match="non-negative"):
            masked_trimmed_mean_batch(
                np.zeros((S, N, K, D)), mask, np.array([0, 0, -1, 0, 0])
            )


class TestPartialKernelDispatch:
    def test_known_filters_dispatch(self):
        from repro.aggregators.masked import masked_partial_kernel_for

        for aggregator in (
            MeanAggregator(),
            CWTMAggregator(1),
            CoordinateWiseMedian(),
            CGEAggregator(1),
            AveragedCGE(1),
        ):
            assert masked_partial_kernel_for(aggregator) is not None
        assert masked_partial_kernel_for(GeometricMedianAggregator()) is None

    def test_tolerance_floors(self):
        from repro.aggregators.masked import (
            masked_min_attendance_for_tolerance,
        )

        tol = np.array([0, 1, 2])
        np.testing.assert_array_equal(
            masked_min_attendance_for_tolerance(CWTMAggregator(1), tol),
            [1, 3, 5],
        )
        np.testing.assert_array_equal(
            masked_min_attendance_for_tolerance(CGEAggregator(1), tol),
            [1, 2, 3],
        )
        np.testing.assert_array_equal(
            masked_min_attendance_for_tolerance(MeanAggregator(), tol),
            [1, 1, 1],
        )

    def test_rejection_names_the_offending_filter(self):
        from repro.aggregators.masked import (
            aggregate_batch_masked,
            masked_min_attendance,
            masked_min_attendance_for_tolerance,
        )

        offender = GeometricMedianAggregator()
        for call in (
            lambda: aggregate_batch_masked(
                offender, np.zeros((1, 3, 2)), np.ones((1, 3), dtype=bool)
            ),
            lambda: masked_min_attendance(offender),
            lambda: masked_min_attendance_for_tolerance(offender, 0),
        ):
            with pytest.raises(ValueError, match="'geomedian'"):
                call()


class TestValidation:
    def test_bad_rank(self):
        with pytest.raises(ValueError, match=r"\(S, n, k, d\)"):
            masked_mean_batch(np.zeros((2, 3, 4)), np.ones((3, 4), dtype=bool))

    def test_mask_shape_mismatch(self):
        with pytest.raises(ValueError, match="mask shape"):
            masked_mean_batch(np.zeros((2, 3, 4, 1)), np.ones((3, 5), dtype=bool))

    def test_empty_neighborhood_rejected(self):
        mask = np.ones((N, K), dtype=bool)
        mask[2] = False
        with pytest.raises(ValueError, match="at least one valid message"):
            masked_mean_batch(np.zeros((S, N, K, D)), mask)

    def test_overtrimming_names_the_agent(self):
        mask = np.ones((N, K), dtype=bool)
        mask[3, 2:] = False  # agent 3 keeps 2 messages
        with pytest.raises(ValueError, match="agent 3"):
            masked_trimmed_mean_batch(np.zeros((S, N, K, D)), mask, 1)

    def test_cge_overelimination_rejected(self):
        mask = np.ones((N, K), dtype=bool)
        mask[1, 1:] = False
        with pytest.raises(ValueError, match="agent 1"):
            masked_cge_batch(np.zeros((S, N, K, D)), mask, 1)

    def test_invalid_slots_may_hold_junk(self, rng):
        # Garbage in masked-out slots must not leak into the result.
        values = rng.normal(size=(S, N, K, D))
        mask = np.ones((N, K), dtype=bool)
        mask[:, -1] = False
        junk = values.copy()
        junk[:, :, -1, :] = 1e300
        np.testing.assert_array_equal(
            masked_mean_batch(values, mask), masked_mean_batch(junk, mask)
        )
        np.testing.assert_array_equal(
            masked_cge_batch(values, mask, 1), masked_cge_batch(junk, mask, 1)
        )

    def test_strict_mean_kernel_names_receivers_and_aggregator(self):
        values = np.zeros((S, N, K, D))
        values[1, 2, 0, 0] = np.nan
        with pytest.raises(QuarantineError) as excinfo:
            masked_mean_batch(
                values, np.ones((N, K), dtype=bool), label="'mean' (MeanAggregator)"
            )
        message = str(excinfo.value)
        assert "non-finite" in message
        assert "agents [2]" in message
        assert "trials [1]" in message
        assert "'mean' (MeanAggregator)" in message
        assert excinfo.value.agent_indices == (2,)
        assert excinfo.value.trial_indices == (1,)

    def test_order_statistic_kernels_tolerate_hostile_valid_entries(self):
        # The tolerant kernels rank NaN/±Inf with the extremes instead of
        # refusing, so one hostile message per neighborhood is trimmed away.
        values = np.zeros((S, N, K, D))
        values[:, :, 0, :] = np.nan
        mask = np.ones((N, K), dtype=bool)
        assert np.isfinite(masked_median_batch(values, mask)).all()
        assert np.isfinite(masked_trimmed_mean_batch(values, mask, 1)).all()
        assert np.isfinite(masked_cge_batch(values, mask, 1)).all()

    @pytest.mark.parametrize("hostile", [np.nan, np.inf, -np.inf, 1e300])
    def test_hostile_entry_leaves_other_rows_bitwise_unchanged(
        self, ragged, hostile
    ):
        # aggregate_batch_masked puts whole trials on the receiver axis, so
        # one row's hostile message must not move another row's floats.
        values, mask = ragged
        clean = masked_trimmed_mean_batch(values, mask, 1)
        for row in ((0, 0), (1, 2)):
            spiked = values.copy()
            spiked[row][0, :] = hostile
            out = masked_trimmed_mean_batch(spiked, mask, 1)
            others = np.ones(out.shape[:2], dtype=bool)
            others[row] = False
            assert np.array_equal(out[others], clean[others])


class TestDispatch:
    def test_known_filters_dispatch(self):
        assert masked_kernel_for(MeanAggregator()) is not None
        assert masked_kernel_for(CWTMAggregator(1)) is not None
        assert masked_kernel_for(CoordinateWiseMedian()) is not None
        assert masked_kernel_for(CGEAggregator(1)) is not None
        assert masked_kernel_for(AveragedCGE(1)) is not None

    def test_unsupported_filter_returns_none(self):
        assert masked_kernel_for(GeometricMedianAggregator()) is None

    def test_averaged_cge_takes_priority_over_parent(self, rng):
        # AveragedCGE subclasses CGEAggregator; the dispatch must pick the
        # mean-normalized kernel, not the parent's sum.
        values = rng.normal(size=(1, 1, 4, 2))
        mask = np.ones((1, 4), dtype=bool)
        kernel = masked_kernel_for(AveragedCGE(1))
        expected = AveragedCGE(1).aggregate(values[0, 0])
        np.testing.assert_allclose(kernel(values, mask)[0, 0], expected)
