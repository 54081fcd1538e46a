"""Unit contract of the ``repro.backend`` shim and its selection."""

import numpy as np
import pytest

from repro.backend import (
    ARRAY_OPS,
    active_backend,
    get_backend,
    use_backend,
    xp,
)


class TestNumpyBackend:
    def test_ops_are_the_numpy_functions(self):
        backend = get_backend("numpy")
        # Zero-overhead contract: no wrappers, the attributes ARE np.*,
        # so routing through the shim cannot perturb a single float.
        assert backend.sort is np.sort
        assert backend.einsum is np.einsum
        assert backend.where is np.where
        assert backend.norm is np.linalg.norm

    def test_every_declared_op_is_present(self):
        backend = get_backend("numpy")
        for op in ARRAY_OPS:
            assert callable(getattr(backend, op)), op

    def test_rng_and_dtype_rules(self):
        backend = get_backend("numpy")
        assert backend.default_rng is np.random.default_rng
        assert backend.float_dtype is np.float64
        assert backend.errstate is np.errstate

    def test_to_numpy_is_zero_copy(self):
        backend = get_backend("numpy")
        a = np.arange(3.0)
        assert backend.to_numpy(a) is a


class TestProxyAndScoping:
    def test_default_is_numpy(self):
        assert active_backend().name == "numpy"
        assert xp.sort is np.sort

    def test_use_backend_scopes_and_nests(self):
        with use_backend("strict"):
            assert active_backend().name == "strict"
            with use_backend("numpy"):
                assert active_backend().name == "numpy"
            assert active_backend().name == "strict"
        assert active_backend().name == "numpy"

    def test_use_backend_accepts_instances(self):
        instance = get_backend("strict")
        with use_backend(instance) as scoped:
            assert scoped is instance
            assert active_backend() is instance


class TestRegistry:
    def test_unknown_backend_names_the_registered_ones(self):
        with pytest.raises(KeyError, match="unknown array backend"):
            get_backend("jax")
