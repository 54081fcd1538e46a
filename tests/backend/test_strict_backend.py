"""The strict backend: bit-identical math, loud stray-``np.`` alarms."""

import importlib

import numpy as np
import pytest

from repro.aggregators import trimmed_mean_batch
from repro.backend import BackendBypassError, get_backend, use_backend, xp
from repro.backend.strict import StrictArray

cwtm_kernel = importlib.import_module("repro.aggregators.trimmed_mean")


@pytest.fixture()
def strict():
    with use_backend("strict") as backend:
        yield backend


class TestStrictArray:
    def test_dispatched_numpy_call_trips_the_alarm(self, strict):
        a = xp.asarray([[3.0, 1.0], [2.0, 4.0]])
        assert isinstance(a, StrictArray)
        with pytest.raises(BackendBypassError, match="np.sort"):
            np.sort(a, axis=1)

    def test_alarm_is_an_assertion_error(self):
        # pytest reports bypasses as failures, not errors.
        assert issubclass(BackendBypassError, AssertionError)

    def test_shim_ops_compute_and_stay_strict(self, strict):
        a = xp.asarray([[3.0, 1.0], [2.0, 4.0]])
        ordered = xp.sort(a, axis=1)
        assert isinstance(ordered, StrictArray)
        assert ordered.view(np.ndarray).tolist() == [[1.0, 3.0], [2.0, 4.0]]

    def test_ufuncs_and_methods_preserve_strictness(self, strict):
        a = xp.asarray([1.0, -2.0, 3.0])
        assert isinstance(a + a, StrictArray)
        assert isinstance(np.abs(a), StrictArray)  # ufunc: allowed
        assert float(a.sum()) == 2.0  # method: allowed

    def test_results_match_numpy_bit_for_bit(self, strict):
        rng = np.random.default_rng(7)
        values = rng.normal(size=(4, 6, 3))
        expected = np.sort(values, axis=1)
        got = xp.sort(xp.asarray(values), axis=1)
        assert np.array_equal(got.view(np.ndarray), expected)

    def test_to_numpy_exits_strictness(self, strict):
        a = xp.asarray([1.0, 2.0])
        out = xp.to_numpy(a)
        assert type(out) is np.ndarray
        np.sort(out)  # no alarm on the base view

    def test_norm_routed(self, strict):
        a = xp.asarray([[3.0, 4.0]])
        assert float(xp.norm(a, axis=1)[0]) == 5.0

    def test_nested_containers_unwrap(self, strict):
        parts = [xp.asarray([1.0]), xp.asarray([2.0])]
        stacked = xp.concatenate(parts)
        assert isinstance(stacked, StrictArray)
        assert stacked.view(np.ndarray).tolist() == [1.0, 2.0]


class TestBackendInstance:
    def test_registered_and_cached(self):
        assert get_backend("strict") is get_backend("strict")
        assert get_backend("strict").name == "strict"


class TestCWTMKernelPaths:
    """Both CWTM selection paths (sort and compare-exchange network) run
    under strictness and compute bit-identically to NumPy."""

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("stacks", [3, 800])
    def test_path_is_strict_clean(self, stacks, d):
        # d = 1 takes the network's plain transposed copy, d >= 2 its
        # record-view copy.
        rng = np.random.default_rng(stacks + d)
        values = rng.normal(size=(stacks, 5, d))
        values[::7, 1, 0] = np.nan  # fires the network's NaN screen
        values[::5, 2, -1] = -np.inf
        on_network = stacks * d >= cwtm_kernel.NETWORK_MIN_COLUMNS
        assert on_network == (stacks == 800)
        expected = trimmed_mean_batch(values, 1)
        with use_backend("strict"):
            got = trimmed_mean_batch(xp.asarray(values), 1)
        assert isinstance(got, StrictArray)
        # Same operations in the same order: every bit matches, NaN included.
        bits = got.view(np.ndarray).view(np.int64)
        assert np.array_equal(bits, expected.view(np.int64))
