"""Pluggable array backend for the tensor programs — the ``xp`` shim.

Every batched engine in this repository is a lockstep tensor program: one
einsum per observation, one sort/cumsum kernel per aggregation, one fused
update per projection.  Those programs used to be hard-wired to NumPy; this
package puts a thin, explicit seam between them and the array library, so
a test can run the same einsum programs on a guarded backend that catches
any hot-path call bypassing the shim.

The seam is the module-level :data:`xp` proxy::

    from repro.backend import xp

    ordered = xp.sort(padded, axis=2)       # resolved on the active backend
    total = xp.einsum("snm,nmd->snd", r, d)

``xp`` forwards every attribute access to the *active*
:class:`ArrayBackend` — by default the NumPy backend, whose ops **are** the
``numpy`` functions themselves, so routing through the shim changes no
float anywhere and costs one attribute indirection per call.

Contract (DESIGN.md, "Array backend" / invariant 14):

* **Backend choice never perturbs results.**  The NumPy and strict
  backends are bit-identical by construction.
* **float64 everywhere.**  The engines' dtype rule is double precision
  (``ArrayBackend.float_dtype`` names it).
* **RNG stays NumPy.**  Every seeded stream (trial attack streams, network
  pre-sampling, topology generators) is a ``numpy.random.Generator`` on
  every backend, so seeds mean the same thing everywhere; draws cross into
  backend-land through ordinary arithmetic or :meth:`ArrayBackend.asarray`.
* **``to_numpy`` is the boundary.**  Public traces, attack contexts,
  projection sets and schedules are NumPy-facing; engines convert with
  ``xp.to_numpy(...)`` (a zero-copy view on the NumPy backend) before
  crossing, and re-enter with ``xp.asarray(...)``.

The :func:`use_backend` context manager selects a backend by name (it
wins while active; ``numpy`` otherwise).  The two backends:

* ``numpy`` — the default; ops are the NumPy functions themselves.
* ``strict`` — NumPy semantics on a guarded ``ndarray`` subclass whose
  ``__array_function__`` raises :class:`~repro.backend.strict.BackendBypassError`
  for any dispatched ``np.*`` call that did not come through the shim.
  The backend-contract test suite runs the engines under it to prove the
  hot paths have no stray ``np.`` calls.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Union

import numpy as np

__all__ = [
    "ArrayBackend",
    "BackendBypassError",
    "xp",
    "active_backend",
    "get_backend",
    "use_backend",
]


#: NumPy-named ops every backend must expose.  These are exactly the
#: dispatched / creation calls the hot tensor paths make; element-wise
#: arithmetic goes through operators (ufuncs), which every array type
#: implements natively and the shim deliberately does not wrap.
ARRAY_OPS = (
    # creation / coercion
    "asarray",
    "ascontiguousarray",
    "array",
    "zeros",
    "zeros_like",
    "empty",
    "empty_like",
    "ones",
    "ones_like",
    "full",
    "full_like",
    "arange",
    "eye",
    # structure
    "where",
    "stack",
    "concatenate",
    "broadcast_to",
    "repeat",
    "tile",
    "reshape",
    "moveaxis",
    "expand_dims",
    "atleast_1d",
    "squeeze",
    # selection / ordering
    "sort",
    "argsort",
    "lexsort",
    "partition",
    "argpartition",
    "median",
    "take",
    "take_along_axis",
    "nonzero",
    "flatnonzero",
    "isin",
    "unique",
    "searchsorted",
    # accumulation / reduction
    "cumsum",
    "sum",
    "prod",
    "mean",
    "max",
    "min",
    "argmax",
    "argmin",
    "all",
    "any",
    # element-wise (function-call form; also available as ufuncs)
    "abs",
    "sqrt",
    "sign",
    "maximum",
    "minimum",
    "clip",
    "isfinite",
    "isinf",
    "isnan",
    "diff",
    "linspace",
    "einsum",
)


class ArrayBackend:
    """A named namespace of array operations (NumPy-compatible signatures).

    Instances are built by registered factories and cached; ops are plain
    attributes, so ``backend.sort`` on the NumPy backend *is* ``np.sort``.
    Beyond :data:`ARRAY_OPS`, every backend carries:

    * ``norm`` — ``linalg.norm`` equivalent;
    * ``errstate`` — floating-point error-state context manager;
    * ``to_numpy(a)`` — materialize as a plain ``numpy.ndarray`` (the
      engine↔plugin boundary; zero-copy where possible);
    * ``from_numpy(a)`` / ``asarray(a)`` — enter backend-land;
    * ``default_rng(seed)`` — always a ``numpy.random.Generator`` (the
      repo-wide RNG rule: seeds mean the same thing on every backend);
    * ``float_dtype`` / ``int_dtype`` / ``bool_dtype`` — the dtype rule.
    """

    def __init__(self, name: str):
        self.name = str(name)
        self.float_dtype = np.float64
        self.int_dtype = np.int64
        self.bool_dtype = np.bool_
        self.default_rng = np.random.default_rng
        self.errstate = np.errstate

    def __repr__(self) -> str:
        return f"ArrayBackend({self.name!r})"


# -- built-in backend factories ------------------------------------------------


def _numpy_backend() -> ArrayBackend:
    """The default backend: ops are the NumPy functions themselves."""
    backend = ArrayBackend("numpy")
    for op in ARRAY_OPS:
        setattr(backend, op, getattr(np, op))
    backend.norm = np.linalg.norm
    backend.to_numpy = np.asarray
    backend.from_numpy = np.asarray
    return backend


def _strict_backend() -> ArrayBackend:
    from .strict import build_strict_backend

    return build_strict_backend(ArrayBackend, ARRAY_OPS)


# -- selection ----------------------------------------------------------------

_FACTORIES: Dict[str, Callable[[], ArrayBackend]] = {
    "numpy": _numpy_backend,
    "strict": _strict_backend,
}
_INSTANCES: Dict[str, ArrayBackend] = {}
#: explicit activation stack (``use_backend``); top wins over ``numpy``.
_ACTIVE: List[ArrayBackend] = []


def get_backend(name: Optional[str] = None) -> ArrayBackend:
    """The cached backend instance for ``name`` (default: the active one)."""
    if name is None:
        return active_backend()
    try:
        factory = _FACTORIES[name]
    except KeyError:
        raise KeyError(
            f"unknown array backend {name!r}; known: "
            f"{', '.join(sorted(_FACTORIES))}"
        ) from None
    instance = _INSTANCES.get(name)
    if instance is None:
        instance = factory()
        _INSTANCES[name] = instance
    return instance


#: the default backend, resolved once (``xp`` reads it on every access)
_NUMPY = get_backend("numpy")


def active_backend() -> ArrayBackend:
    """The backend ``xp`` currently resolves to: the innermost
    :func:`use_backend` scope, else ``numpy``."""
    return _ACTIVE[-1] if _ACTIVE else _NUMPY


@contextmanager
def use_backend(backend: Union[str, ArrayBackend]) -> Iterator[ArrayBackend]:
    """Scope ``xp`` to ``backend`` for the duration of the ``with`` block.

    Nests: the innermost scope wins; leaving restores the previous one.
    Engines resolve ops per call through :data:`xp`, so a backend switch
    between runs (never mid-run) is safe.
    """
    instance = backend if isinstance(backend, ArrayBackend) else get_backend(backend)
    _ACTIVE.append(instance)
    try:
        yield instance
    finally:
        _ACTIVE.pop()


class _ActiveBackendProxy:
    """Forwards attribute access to the active backend — the ``xp`` object."""

    __slots__ = ()

    def __getattr__(self, item: str):
        return getattr(active_backend(), item)

    def __repr__(self) -> str:
        return f"<xp -> {active_backend()!r}>"


#: the array namespace the tensor programs resolve every dispatched op
#: through; forwards to :func:`active_backend` per access.
xp = _ActiveBackendProxy()


# Re-exported for isinstance checks / except clauses without importing the
# submodule (the strict backend itself is only built on first use).
from .strict import BackendBypassError  # noqa: E402
