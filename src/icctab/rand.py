"""Seedable random-stream plumbing.

Every randomized operation in this package accepts an ``rng`` argument that
may be ``None`` (fresh OS entropy), an integer seed, a
``numpy.random.SeedSequence``, or a ready ``numpy.random.Generator``.
Integer seeds are always bound to a PCG64 bit generator, so seeded results
are stable across numpy versions and platforms.
"""

import numpy as np

from . import _EXPORTS

__all__ = _EXPORTS["rand"].split()


def as_generator(rng=None) -> np.random.Generator:
    """Coerce ``rng`` to a ``numpy.random.Generator`` (PCG64 for seeds)."""
    if isinstance(rng, np.random.Generator):
        return rng
    return np.random.Generator(np.random.PCG64(rng))


def split_seed(seed, n: int) -> list[np.random.SeedSequence]:
    """Derive ``n`` independent child seed sequences from one master seed."""
    return np.random.SeedSequence(seed).spawn(n)
