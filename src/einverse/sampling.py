"""Seeded, portable pseudo-random tensor generation.

The generator is SplitMix64 so that identical seeds reproduce identical
tensors across languages and platforms:

    state += 0x9E3779B97F4A7C15                     (mod 2^64)
    z = state
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9        (mod 2^64)
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB        (mod 2^64)
    z = z ^ (z >> 31)

Doubles in [0, 1) take the top 53 bits: ``(z >> 11) * 2**-53``.  Tensor
entries are drawn in canonical linearization order, real part first, then
(for complex tensors) imaginary part, each mapped to [-1, 1).
"""

from __future__ import annotations

import numpy as np

from .tensor import Tensor, TensorShape

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def _u64_stream(seed: int, count: int) -> np.ndarray:
    """The first ``count`` outputs of the stream seeded with ``seed``, all at once.

    The generator is counter-based: output ``i`` (from 0) mixes
    ``seed + (i + 1) * gamma``, so the stream is one ``uint64`` array
    expression, wrapping mod 2^64 as the scalar arithmetic does.
    """
    z = np.arange(1, count + 1, dtype=np.uint64)
    z *= np.uint64(_GAMMA)
    z += np.uint64(seed & _MASK)
    z ^= z >> np.uint64(30)
    z *= np.uint64(_MIX1)
    z ^= z >> np.uint64(27)
    z *= np.uint64(_MIX2)
    z ^= z >> np.uint64(31)
    return z


def random_tensor(extents, split: int, seed: int, complex_entries: bool = True) -> Tensor:
    """Seeded tensor with entries uniform in [-1, 1) (plus i*[-1, 1) if complex).

    Matches the scalar reference generator in ``tests/test_sampling.py`` bit for bit.
    """
    extents = TensorShape(extents, split).extents
    n = int(np.prod(extents))
    draws = _u64_stream(seed, 2 * n if complex_entries else n)
    draws >>= np.uint64(11)
    parts = draws * 2.0**-53
    parts *= 2.0
    parts -= 1.0
    entries = parts.view(np.complex128) if complex_entries else parts  # re, im alternate
    return Tensor.from_flat(extents, split, entries)
