"""Adapters between datasets and streams.

Section II-B: "it is clearly disadvantageous to put the spectra on the
stream in a systematic order; instead they should be randomized for best
results" — :func:`shuffled` provides exactly that, and
:class:`VectorStream` is the common currency handed to stream sources.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

import numpy as np

__all__ = ["shuffled", "repeat_epochs", "stack_rows", "VectorStream"]


def stack_rows(rows: list, dim: int) -> np.ndarray:
    """The float64 ``(len(rows), dim)`` stack of ``rows``: a row that is
    not a ``dim``-vector raises ``ValueError``.

    One ``np.array`` call builds the block; the rows' shapes are only
    scanned, to name the bad row, when that call raises or gives
    another shape.
    """
    try:
        block = np.array(rows, dtype=np.float64)
    except (TypeError, ValueError):
        block = None
    if block is not None and block.shape == (len(rows), dim):
        return block
    want = (dim,)
    for shape in map(np.shape, rows):
        if len(shape) != 1:
            raise ValueError(f"expected a vector, got shape {shape}")
        if shape != want:
            raise ValueError(f"row dim changed from {dim} to {shape[0]}")
    return np.array(rows, dtype=np.float64).reshape(len(rows), dim)


def shuffled(
    x: np.ndarray, rng: np.random.Generator
) -> Iterator[np.ndarray]:
    """Yield the rows of ``x`` in a random order (a fresh permutation)."""
    x = np.asarray(x)
    if x.ndim != 2:
        raise ValueError(f"expected (n, d) data, got shape {x.shape}")
    for i in rng.permutation(x.shape[0]):
        yield x[i]


def repeat_epochs(
    x: np.ndarray,
    n_epochs: int,
    rng: np.random.Generator,
) -> Iterator[np.ndarray]:
    """Stream the dataset ``n_epochs`` times, reshuffled each epoch.

    Finite archives are commonly replayed to let a streaming solution
    converge further; each pass uses a fresh permutation so the forgetting
    factor never sees a systematic order.
    """
    if n_epochs < 1:
        raise ValueError(f"n_epochs must be >= 1, got {n_epochs}")
    for _ in range(n_epochs):
        yield from shuffled(x, rng)


@dataclass
class VectorStream:
    """A sized, dimension-annotated stream of vectors.

    Thin wrapper pairing an iterator with the metadata that stream sources
    and the simulator need up front (dimensionality, nominal length).
    It has two faces over one cursor: iterating yields one row at a
    time, :meth:`blocks` yields ``(k, d)`` arrays.

    Attributes
    ----------
    dim:
        Vector dimensionality.
    length:
        Number of vectors the stream will yield (``None`` = unknown /
        unbounded).
    """

    dim: int
    length: int | None
    _iterator: Iterator[np.ndarray] | None = None
    #: The ``(n, d)`` array behind a :meth:`from_array` stream and the
    #: index of its next row; both faces advance it.
    _array: np.ndarray | None = None
    _next: int = 0

    def __iter__(self) -> Iterator[np.ndarray]:
        if self._array is None:
            return self._iterator
        return self._array_rows()

    @property
    def array_backed(self) -> bool:
        """Whether the rows are sliced from one ``(n, d)`` array, so
        every row has width ``dim`` and :meth:`blocks` cannot raise."""
        return self._array is not None

    def _array_rows(self) -> Iterator[np.ndarray]:
        x = self._array
        while self._next < x.shape[0]:
            self._next += 1
            yield x[self._next - 1]

    def blocks(self, k: int) -> Iterator[np.ndarray]:
        """The remaining rows as float64 ``(k, d)`` blocks (the last one
        short), each a fresh array the caller owns.

        An array-backed stream copies one slice per block.  An
        iterator-backed one pulls ``k`` rows and stacks them with
        :func:`stack_rows`: a row that is not a ``dim``-vector raises
        ``ValueError`` before it enters a block.
        """
        if k < 1:
            raise ValueError(f"block size must be >= 1, got {k}")
        x = self._array
        if x is not None:
            while self._next < x.shape[0]:
                lo = self._next
                self._next = min(lo + k, x.shape[0])
                yield x[lo : self._next].astype(np.float64)
            return
        while rows := list(itertools.islice(self._iterator, k)):
            yield stack_rows(rows, self.dim)

    @classmethod
    def from_array(cls, x: np.ndarray) -> "VectorStream":
        """Stream the rows of an ``(n, d)`` array in order."""
        x = np.asarray(x)
        if x.ndim != 2:
            raise ValueError(f"expected (n, d) data, got shape {x.shape}")
        return cls(dim=x.shape[1], length=x.shape[0], _array=x)

    @classmethod
    def from_iterable(
        cls,
        it: Iterable[np.ndarray],
        dim: int,
        length: int | None = None,
    ) -> "VectorStream":
        """Wrap any iterable of vectors."""
        return cls(dim=dim, length=length, _iterator=iter(it))

    @classmethod
    def from_sampler(
        cls,
        sampler: Callable[[], np.ndarray],
        dim: int,
        length: int | None = None,
    ) -> "VectorStream":
        """Wrap a zero-argument sampler (unbounded unless ``length`` set)."""

        def gen() -> Iterator[np.ndarray]:
            n = 0
            while length is None or n < length:
                yield sampler()
                n += 1

        return cls(dim=dim, length=length, _iterator=gen())

    def take(self, n: int) -> np.ndarray:
        """Materialize the next ``n`` vectors as an ``(m, d)`` array
        (``m < n`` if the stream ends early)."""
        empty = np.zeros((0, self.dim))
        return next(self.blocks(n), empty) if n > 0 else empty
