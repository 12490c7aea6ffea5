"""Named, splittable random streams.

Every stochastic operation in the package draws from an explicit stream.
Streams are derived by name from a root seed, so the same (seed, name
path) always yields the same values regardless of call order elsewhere.
"""

from __future__ import annotations

import zlib
from functools import cached_property

import numpy as np


class RngStream:
    """Deterministic PCG64 stream addressable by a path of names."""

    def __init__(self, seed: int, _path: tuple[int, ...] = ()):
        self.seed = int(seed)
        self.path = _path

    @cached_property
    def _gen(self) -> np.random.Generator:
        """Built on the first draw, so a stream that is only split builds no generator."""
        return np.random.Generator(np.random.PCG64(np.random.SeedSequence(self.seed, spawn_key=self.path)))

    def split(self, name: str | int) -> "RngStream":
        """Derive an independent child stream identified by ``name``."""
        key = zlib.crc32(str(name).encode("utf-8"))
        return RngStream(self.seed, self.path + (key,))

    def normal(self, shape, std: float = 1.0, dtype=np.float32) -> np.ndarray:
        return (self._gen.standard_normal(shape) * std).astype(dtype)

    def uniform(self, shape, low: float = 0.0, high: float = 1.0, dtype=np.float32) -> np.ndarray:
        return self._gen.uniform(low, high, shape).astype(dtype)

    def integers(self, low: int, high: int, size=None):
        return self._gen.integers(low, high, size=size)

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)

    def choice_weighted(self, weights: np.ndarray) -> int:
        """Index drawn proportionally to non-negative weights."""
        w = np.asarray(weights, dtype=np.float64)
        return int(self._gen.choice(len(w), p=w / w.sum()))

    def __repr__(self) -> str:
        return f"RngStream(seed={self.seed}, path={self.path})"
