"""Deterministic random-number plumbing.

One experiment seed fans out into fixed named sub-streams so every component
(dataset noise, sketch basis, reconstruction-set subsample, ...) is
independently reproducible.  The underlying generator is PCG64; normal
variates are produced by the Box-Muller transform on raw uniform doubles, so
the streams do not depend on any platform distribution implementation.
"""

from __future__ import annotations

import numpy as np

# Fixed stream indices for the per-component fan-out.  Adding a stream is
# backward compatible; renumbering is not.
STREAMS = {
    "structure": 0,
    "noise": 1,
    "mixing": 2,
    "sketch": 3,
    "init": 4,
    "supports": 5,
    "bootstrap": 6,
    "reference": 7,
}


class Rng:
    """Seeded random stream.

    A root stream is ``Rng(seed)``; component streams come from
    ``Rng(seed).stream(name)`` which derives a child PCG64 state via
    ``SeedSequence(seed, spawn_key=(STREAMS[name],))``.  A component stream
    has no children of its own: the key depends on the seed and name only,
    so a nested call would return the root's stream of that name.
    """

    def __init__(self, seed: int, _seq: np.random.SeedSequence | None = None):
        if _seq is None:
            if not (0 <= int(seed) < 2**64):
                raise ValueError("seed must fit in 64 unsigned bits")
            _seq = np.random.SeedSequence(int(seed))
        self.seed = int(seed)
        self._seq = _seq
        self._gen = np.random.Generator(np.random.PCG64(_seq))

    def stream(self, name: str) -> "Rng":
        """Derive the fixed child stream for a named component.

        Raises:
            ValueError: this is itself a component stream.
        """
        if self._seq.spawn_key:
            raise ValueError(f"stream {name!r} must be derived from the root Rng, "
                             "not from a component stream")
        key = STREAMS[name]
        child = np.random.SeedSequence(self.seed, spawn_key=(key,))
        return Rng(self.seed, _seq=child)

    def random(self, size=None) -> np.ndarray:
        """Uniform doubles in [0, 1)."""
        return self._gen.random(size)

    def uniform(self, low: float, high: float, size=None) -> np.ndarray:
        return low + (high - low) * self._gen.random(size)

    def standard_normal(self, size) -> np.ndarray:
        """N(0,1) variates via Box-Muller on uniform doubles."""
        n = int(np.prod(size))
        half = (n + 1) // 2
        # 1 - U keeps the log argument in (0, 1].
        u1 = 1.0 - self._gen.random(half)
        u2 = self._gen.random(half)
        r = np.sqrt(-2.0 * np.log(u1))
        z = np.concatenate([r * np.cos(2.0 * np.pi * u2), r * np.sin(2.0 * np.pi * u2)])
        return z[:n].reshape(size)

    def subsample(self, n: int, k: int) -> np.ndarray:
        """k distinct indices out of range(n), in increasing order.

        Implemented as an argsort of uniform keys so the draw depends only on
        the raw uniform stream.
        """
        if not 0 < k <= n:
            raise ValueError(f"cannot draw {k} distinct indices from {n}")
        keys = self._gen.random(n)
        idx = np.argsort(keys, kind="stable")[:k]
        return np.sort(idx)
