"""Zipfian key-choice generators, as used by YCSB.

The paper's client transactions "follow a uniform Zipfian distribution"
(§4) — i.e. the standard YCSB request distributions.  This module
implements the YCSB generators:

* :class:`ZipfianGenerator` — the Gray et al. rejection-free algorithm
  YCSB uses, with the default skew constant θ = 0.99.
* :class:`ScrambledZipfianGenerator` — Zipfian popularity spread over the
  key space by hashing, so hot keys are not clustered at low ids.
* :class:`UniformGenerator` — uniform choice, for comparison runs.

All generators draw from an injected :class:`random.Random` so workloads
are reproducible per experiment seed.
"""

from __future__ import annotations

import random
from typing import Dict, Tuple

from ..errors import WorkloadError

DEFAULT_ZIPFIAN_CONSTANT = 0.99

# zeta(n, theta) is O(n) to compute; memoize per (n, theta) since every
# client of an experiment shares the same key space.
_zeta_cache: Dict[Tuple[int, float], float] = {}


def zeta(n: int, theta: float) -> float:
    """The generalized harmonic number ``sum_{i=1..n} 1/i^theta``."""
    key = (n, theta)
    cached = _zeta_cache.get(key)
    if cached is not None:
        return cached
    value = sum(1.0 / i ** theta for i in range(1, n + 1))
    _zeta_cache[key] = value
    return value


class UniformGenerator:
    """Uniform key choice over ``[0, item_count)``."""

    def __init__(self, item_count: int, rng: random.Random):
        if item_count < 1:
            raise WorkloadError(f"item_count must be >= 1, got {item_count}")
        self._item_count = item_count
        self._rng = rng

    @property
    def item_count(self) -> int:
        """Size of the key space."""
        return self._item_count

    def next(self) -> int:
        """Draw the next key."""
        return self._rng.randrange(self._item_count)


class ZipfianGenerator:
    """YCSB's Zipfian generator (Gray et al., "Quickly generating
    billion-record synthetic databases").

    Key 0 is the most popular; popularity decays as ``1/rank^theta``.
    """

    def __init__(self, item_count: int, rng: random.Random,
                 theta: float = DEFAULT_ZIPFIAN_CONSTANT):
        if item_count < 1:
            raise WorkloadError(f"item_count must be >= 1, got {item_count}")
        if not 0.0 < theta < 1.0:
            raise WorkloadError(f"theta must be in (0, 1), got {theta}")
        self._item_count = item_count
        self._theta = theta
        self._rng = rng
        self._zetan = zeta(item_count, theta)
        self._zeta2 = zeta(2, theta)
        self._alpha = 1.0 / (1.0 - theta)
        if item_count > 2:
            self._eta = (
                (1.0 - (2.0 / item_count) ** (1.0 - theta))
                / (1.0 - self._zeta2 / self._zetan)
            )
        else:
            # With one or two items the first two branches of next()
            # are exhaustive (u * zetan < 1 + 0.5^theta always), so eta
            # is never used — and its formula divides by zero at n = 2.
            self._eta = 0.0

    @property
    def item_count(self) -> int:
        """Size of the key space."""
        return self._item_count

    @property
    def theta(self) -> float:
        """Skew constant (YCSB default 0.99)."""
        return self._theta

    def next(self) -> int:
        """Draw the next key, skewed toward low ranks."""
        u = self._rng.random()
        uz = u * self._zetan
        if uz < 1.0:
            return 0
        if uz < 1.0 + 0.5 ** self._theta:
            return min(1, self._item_count - 1)
        rank = int(
            self._item_count
            * (self._eta * u - self._eta + 1.0) ** self._alpha
        )
        # The closed-form can land exactly on item_count as u -> 1.
        return min(rank, self._item_count - 1)


def _fnv1a_64(value: int) -> int:
    """64-bit FNV-1a hash of an integer, for key scrambling."""
    data = value.to_bytes(8, "little")
    h = 0xCBF29CE484222325
    for byte in data:
        h ^= byte
        h = (h * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h


class ScrambledZipfianGenerator:
    """Zipfian popularity, scattered across the key space by hashing.

    This is YCSB's default "zipfian" request distribution: the rank
    drawn from the Zipfian generator is hashed so that popular keys are
    spread over the table instead of being the lowest ids.
    """

    def __init__(self, item_count: int, rng: random.Random,
                 theta: float = DEFAULT_ZIPFIAN_CONSTANT):
        self._item_count = item_count
        self._zipfian = ZipfianGenerator(item_count, rng, theta)

    @property
    def item_count(self) -> int:
        """Size of the key space."""
        return self._item_count

    def next(self) -> int:
        """Draw the next key."""
        rank = self._zipfian.next()
        return _fnv1a_64(rank) % self._item_count


#: The names :func:`make_generator` accepts.
DISTRIBUTIONS = ("uniform", "zipfian", "scrambled_zipfian")


def make_generator(distribution: str, item_count: int, rng: random.Random):
    """Factory: one of :data:`DISTRIBUTIONS`."""
    if distribution == "uniform":
        return UniformGenerator(item_count, rng)
    if distribution == "zipfian":
        return ZipfianGenerator(item_count, rng)
    if distribution == "scrambled_zipfian":
        return ScrambledZipfianGenerator(item_count, rng)
    raise WorkloadError(f"unknown distribution {distribution!r}")
