"""Tests for projections onto convex sets (equation (20))."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.optim import BallConstraint, BoxSet, UnconstrainedSet

finite = st.floats(-1e4, 1e4, allow_nan=False, allow_infinity=False)


def vec(dim=3):
    return arrays(np.float64, (dim,), elements=finite)


class TestBoxSet:
    def test_inside_unchanged(self):
        box = BoxSet.symmetric(10.0, dim=2)
        x = np.array([1.0, -2.0])
        assert np.array_equal(box.project(x), x)

    def test_outside_clipped(self):
        box = BoxSet.symmetric(1.0, dim=2)
        assert np.array_equal(box.project(np.array([5.0, -3.0])), [1.0, -1.0])

    def test_paper_w(self):
        # The paper's W = [-1000, 1000]^2.
        box = BoxSet.symmetric(1000.0, dim=2)
        assert box.contains(np.array([1000.0, -1000.0]))
        assert not box.contains(np.array([1000.1, 0.0]))

    def test_asymmetric_bounds(self):
        box = BoxSet([0.0, -1.0], [2.0, 1.0])
        assert np.array_equal(box.project(np.array([-1.0, 3.0])), [0.0, 1.0])

    def test_invalid_bounds(self):
        with pytest.raises(ValueError):
            BoxSet([1.0], [0.0])
        with pytest.raises(ValueError):
            BoxSet.symmetric(0.0, dim=2)

    def test_nan_bounds_rejected(self):
        with pytest.raises(ValueError, match="lower"):
            BoxSet([np.nan, 0.0], [1.0, 1.0])
        with pytest.raises(ValueError, match="upper"):
            BoxSet([0.0, 0.0], [1.0, np.nan])
        with pytest.raises(ValueError, match="half_width"):
            BoxSet.symmetric(float("nan"), dim=2)

    def test_infinite_bounds_allowed(self):
        box = BoxSet([-np.inf, 0.0], [np.inf, np.inf])
        points = np.array([[-1e300, -2.0], [5.0, 1e300]])
        assert np.array_equal(box.project_batch(points), [[-1e300, 0.0], [5.0, 1e300]])
        assert BoxSet.symmetric(np.inf, dim=2).diameter_bound() == np.inf

    def test_bounds_are_read_only_copies(self):
        low, high = np.zeros(2), np.ones(2)
        box = BoxSet(low, high)
        with pytest.raises(ValueError, match="read-only"):
            box.lower[0] = -1.0
        with pytest.raises(ValueError, match="read-only"):
            box.upper[...] = 2.0
        low[0] = 0.5  # the caller's arrays stay theirs, and writable
        assert box.lower[0] == 0.0

    def test_diameter(self):
        box = BoxSet.symmetric(1.0, dim=4)
        assert box.diameter_bound() == pytest.approx(2.0 * 2.0)  # ||(2,2,2,2)||

    @given(vec())
    @settings(max_examples=60, deadline=None)
    def test_idempotent(self, x):
        box = BoxSet.symmetric(7.0, dim=3)
        once = box.project(x)
        assert np.array_equal(box.project(once), once)
        assert box.contains(once)

    @given(vec(), vec())
    @settings(max_examples=60, deadline=None)
    def test_non_expansive(self, x, y):
        # The property the Theorem-3 proof leans on.
        box = BoxSet.symmetric(5.0, dim=3)
        lhs = np.linalg.norm(box.project(x) - box.project(y))
        rhs = np.linalg.norm(x - y)
        assert lhs <= rhs + 1e-9

    @given(vec())
    @settings(max_examples=60, deadline=None)
    def test_projection_is_closest_point(self, x):
        box = BoxSet.symmetric(2.0, dim=3)
        proj = box.project(x)
        # Any random feasible point is no closer.
        rng = np.random.default_rng(0)
        for _ in range(5):
            candidate = rng.uniform(-2.0, 2.0, size=3)
            assert np.linalg.norm(x - proj) <= np.linalg.norm(x - candidate) + 1e-9


#: Boxes on both sides of ``project_batch``'s scalar-bound choice: uniform
#: nonzero bounds clip against scalars, the rest against the arrays.
BOXES = {
    "paper": lambda: BoxSet.symmetric(1000.0, 5),
    "symmetric": lambda: BoxSet.symmetric(3.0, 2),
    "asymmetric": lambda: BoxSet([0.0, -1.0], [2.0, 1.0]),
    "zero_lower": lambda: BoxSet(np.zeros(3), np.ones(3)),
    "negative_zero_upper": lambda: BoxSet(np.full(2, -1.0), np.full(2, -0.0)),
    "half_open": lambda: BoxSet(np.full(2, -np.inf), np.full(2, 4.0)),
}


class TestBoxClip:
    """Whatever bounds ``project_batch`` clips against, it gives the bits
    of ``np.clip`` against the bound arrays."""

    @pytest.mark.parametrize("name", sorted(BOXES))
    def test_project_batch_is_the_array_clip(self, name):
        box = BOXES[name]()
        rng = np.random.default_rng(sorted(BOXES).index(name))
        edges = np.concatenate(
            [box.lower, box.upper, -box.lower, -box.upper, box.lower * 0.5,
             [np.nan, -np.nan, np.inf, -np.inf, 0.0, -0.0, 1e300, -1e300]]
        )
        points = rng.normal(size=(4, 512, box.dim)) * 10.0 ** rng.integers(
            -3, 5, (4, 512, box.dim)
        )
        special = rng.random(points.shape) < 0.5
        points[special] = rng.choice(edges, size=int(special.sum()))
        with np.errstate(invalid="ignore"):
            expected = np.clip(points, box.lower, box.upper)
            for batch in (points, points.reshape(-1, box.dim)):
                got = box.project_batch(batch).reshape(points.shape)
                assert np.array_equal(got.view(np.int64), expected.view(np.int64))
            rows = [box.project(x) for x in points.reshape(-1, box.dim)[:64]]
        assert np.array_equal(
            np.stack(rows).view(np.int64),
            expected.reshape(-1, box.dim)[:64].view(np.int64),
        )


class TestBallConstraint:
    def test_inside_unchanged(self):
        ball = BallConstraint([0.0, 0.0], 2.0)
        x = np.array([1.0, 0.0])
        assert np.array_equal(ball.project(x), x)

    def test_outside_lands_on_sphere(self):
        ball = BallConstraint([1.0, 1.0], 1.0)
        proj = ball.project(np.array([5.0, 1.0]))
        assert np.allclose(proj, [2.0, 1.0])

    def test_diameter(self):
        assert BallConstraint([0.0], 3.0).diameter_bound() == 6.0

    def test_invalid_radius(self):
        with pytest.raises(ValueError):
            BallConstraint([0.0], 0.0)

    def test_nan_radius_and_non_finite_center_rejected(self):
        with pytest.raises(ValueError, match="radius"):
            BallConstraint([0.0, 0.0], float("nan"))
        with pytest.raises(ValueError, match="center"):
            BallConstraint([np.nan, 0.0], 1.0)
        with pytest.raises(ValueError, match="center"):
            BallConstraint([np.inf, 0.0], 1.0)

    def test_overflowing_norm_lands_on_the_sphere(self):
        # ||x|| overflows to inf for entries past ~1e154: the point still
        # projects onto the sphere, not onto the centre.
        ball = BallConstraint([0.0, 0.0], 1.0)
        points = np.array([[1e300, 0.0], [1e200, 1e200], [3.0, 4.0]])
        expected = np.array(
            [[1.0, 0.0], [np.sqrt(0.5), np.sqrt(0.5)], [0.6, 0.8]]
        )
        with np.errstate(over="ignore"):
            batch = ball.project_batch(points)
            single = [ball.project(p) for p in points]
        assert np.allclose(batch, expected, rtol=1e-15, atol=0.0)
        assert np.allclose(single, expected, rtol=1e-15, atol=0.0)
        shifted = BallConstraint([5.0, -5.0], 2.0)
        with np.errstate(over="ignore"):
            got = shifted.project(np.array([-1e300, -1e300]))
        assert np.allclose(got, [5.0 - np.sqrt(2.0), -5.0 - np.sqrt(2.0)])

    def test_overflow_fix_leaves_other_rows_bitwise(self):
        ball = BallConstraint([0.25, -0.5], 1.5)
        rng = np.random.default_rng(0)
        plain = rng.normal(scale=3.0, size=(64, 2))
        mixed = np.vstack([plain, [[1e300, -1e300]], [[np.inf, 0.0]]])
        with np.errstate(over="ignore", invalid="ignore"):
            got = ball.project_batch(mixed)
        # rows without an overflowing norm keep the plain formula's floats
        offsets = plain - ball.center
        norms = np.linalg.norm(offsets, axis=1)
        scales = np.where(norms <= 1.5, 1.0, 1.5 / norms)
        want = ball.center + offsets * scales[:, None]
        assert np.array_equal(got[:64].view(np.int64), want.view(np.int64))
        assert np.isnan(got[-1, 0])  # an infinite offset stays as before
        for point in plain:
            inside = np.linalg.norm(point - ball.center) <= 1.5
            if inside:
                assert np.array_equal(ball.project(point), point)

    def test_infinite_radius_is_the_whole_space(self):
        ball = BallConstraint([0.0, 0.0], np.inf)
        points = np.array([[5.0, -1e6], [0.0, 3.0]])
        assert np.array_equal(ball.project_batch(points), points)
        assert np.array_equal(ball.project(points[0]), points[0])

    @given(vec(), vec())
    @settings(max_examples=60, deadline=None)
    def test_non_expansive(self, x, y):
        ball = BallConstraint(np.zeros(3), 4.0)
        lhs = np.linalg.norm(ball.project(x) - ball.project(y))
        assert lhs <= np.linalg.norm(x - y) + 1e-9

    @given(vec())
    @settings(max_examples=60, deadline=None)
    def test_idempotent(self, x):
        ball = BallConstraint(np.ones(3), 2.5)
        once = ball.project(x)
        assert np.allclose(ball.project(once), once, atol=1e-12)


class TestUnconstrainedSet:
    def test_identity(self, rng):
        free = UnconstrainedSet(4)
        x = rng.normal(size=4)
        assert np.array_equal(free.project(x), x)
        assert free.contains(x)
        assert free.diameter_bound() == float("inf")
