"""Pluggable execution backends: the filter, verify and estimator kernels.

``make_backend`` is the registry entry point used by the join engine and
the candidate stages::

    backend = make_backend("numpy", collection, threshold)

The backend chooses *how* the kernels run, never which candidates a join
generates — every join has one candidate walk, whatever the backend.  Two
backends ship with the reproduction:

* ``"numpy"`` — :class:`~repro.backend.numpy_backend.NumpyBackend`, block
  kernels over CSR-packed token arrays (the default).
* ``"python"`` — :class:`~repro.backend.python_backend.PythonBackend`, the
  per-pair scalar oracle the numpy kernels are tested against.

Both produce identical verified pair sets and statistics; they differ only
in throughput.  See ``tests/backend`` for the equivalence suite.
"""

from __future__ import annotations

from typing import Dict, Optional, Type, Union

from repro.backend.base import ExecutionBackend
from repro.backend.numpy_backend import NumpyBackend
from repro.backend.python_backend import PythonBackend
from repro.core.preprocess import PreprocessedCollection
from repro.similarity.measures import Measure

__all__ = [
    "BACKEND_NAMES",
    "DEFAULT_BACKEND",
    "ExecutionBackend",
    "NumpyBackend",
    "PythonBackend",
    "make_backend",
]

_REGISTRY: Dict[str, Type[ExecutionBackend]] = {
    PythonBackend.name: PythonBackend,
    NumpyBackend.name: NumpyBackend,
}

BACKEND_NAMES = tuple(sorted(_REGISTRY))
"""Names accepted by ``backend=`` arguments throughout the library."""

DEFAULT_BACKEND = NumpyBackend.name
"""Backend used when none is requested."""


def make_backend(
    backend: Union[str, ExecutionBackend, None],
    collection: PreprocessedCollection,
    threshold: float,
    measure: Optional[Union[str, Measure]] = None,
) -> ExecutionBackend:
    """Resolve a backend name (or pass through an instance) for a collection.

    Parameters
    ----------
    backend:
        A registered backend name (``"python"`` / ``"numpy"``), an already
        constructed :class:`ExecutionBackend` (returned as-is), or ``None``
        for :data:`DEFAULT_BACKEND`.
    collection, threshold:
        The preprocessed collection and similarity threshold the kernels
        bind to.
    measure:
        Similarity measure (name, :class:`~repro.similarity.measures.Measure`
        or ``None`` for Jaccard) the verification kernels score under.
        Ignored when ``backend`` is an already constructed instance.
    """
    if isinstance(backend, ExecutionBackend):
        return backend
    name = DEFAULT_BACKEND if backend is None else str(backend).lower()
    if name not in _REGISTRY:
        raise ValueError(f"unknown backend {backend!r}; expected one of {BACKEND_NAMES}")
    return _REGISTRY[name](collection, threshold, measure)
