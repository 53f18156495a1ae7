"""YCSB-style key generators (Cooper et al., SoCC'10).

The paper drives UPC and TC with YCSB workloads C and E under *uniform*
access distributions (section 7); the Zipfian generator is included for
sensitivity exploration beyond the paper (locality is exactly what the
caching baseline's performance hinges on).
"""

from __future__ import annotations

import random
from typing import List


class UniformKeyGenerator:
    """Uniform choice over a key population."""

    def __init__(self, keys: List[int], seed: int = 0):
        if not keys:
            raise ValueError("key population is empty")
        self._keys = list(keys)
        self._rng = random.Random(seed)

    def next_key(self) -> int:
        return self._rng.choice(self._keys)


#: Zipfian skew, YCSB's default
THETA = 0.99


class ZipfianKeyGenerator:
    """Zipfian choice with skew :data:`THETA` (YCSB's default).

    Uses the Gray et al. rejection-free method with precomputed zeta
    constants, like the reference YCSB implementation.
    """

    def __init__(self, keys: List[int], seed: int = 0):
        if not keys:
            raise ValueError("key population is empty")
        self._keys = list(keys)
        self._rng = random.Random(seed)
        n = len(keys)
        self._zetan = sum(1.0 / (i ** THETA) for i in range(1, n + 1))
        self._zeta2 = 1.0 + 0.5 ** THETA
        self._alpha = 1.0 / (1.0 - THETA)
        self._eta = ((1.0 - (2.0 / n) ** (1.0 - THETA))
                     / (1.0 - self._zeta2 / self._zetan))

    def next_key(self) -> int:
        n = len(self._keys)
        u = self._rng.random()
        uz = u * self._zetan
        if uz < 1.0:
            rank = 0
        elif uz < self._zeta2:
            rank = 1
        else:
            rank = int(n * ((self._eta * u - self._eta + 1.0)
                            ** self._alpha))
            rank = min(rank, n - 1)
        return self._keys[rank]
