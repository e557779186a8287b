"""Keyed per-node random streams.

A :class:`~repro.congest.network.Network` owns one :class:`NodeStreams`: a
64-bit key from its seed and one draw counter per node rank. Draw ``k`` of
rank ``r`` is ``(mix(key ^ mix(r*G + 1) + k*G) >> 11) * 2**-53`` (mod
2**64; ``mix`` is the SplitMix64 finalizer, ``G`` the golden ratio), read
by scalar hooks through ``ctx.rng`` (:class:`NodeRandom`, python ints) and
by vector kernels and population start hooks through
:meth:`NodeStreams.take` (numpy ``uint64``). Both bump the same counters,
so scalar and vectorized rounds interleave freely.
"""

from __future__ import annotations

import math

import numpy as np

_G = 0x9E3779B97F4A7C15
_MASK = (1 << 64) - 1


def _mix(z):
    """SplitMix64 finalizer of a python int or a ``uint64`` array."""
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & _MASK
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK
    return z ^ (z >> 31)


class NodeStreams:
    """Every node's stream: one key (from ``np.random.SeedSequence(seed)``,
    which also validates the seed) and one ``uint64`` counter per rank."""

    __slots__ = ("key", "counters")

    def __init__(self, seed, n: int):
        state = np.random.SeedSequence(seed).generate_state(1, np.uint64)
        self.key = int(state[0])
        self.counters = np.zeros(n, dtype=np.uint64)

    def take(self, ranks: np.ndarray) -> np.ndarray:
        """One uniform in [0, 1) for each (distinct) rank in ``ranks``."""
        drawn = self.counters[ranks]
        self.counters[ranks] = drawn + 1
        z = _mix(ranks.astype(np.uint64) * _G + 1) ^ self.key
        z += drawn * _G
        return (_mix(z) >> 11).astype(np.float64) * 2.0**-53

    def geometric(self, ranks: np.ndarray, p: float) -> np.ndarray:
        """:meth:`NodeRandom.geometric` for each (distinct) rank, as
        float64 trial counts (``p >= 1`` draws nothing).

        The logarithm is ``math.log1p`` per uniform, as in the scalar
        form: ``np.log1p`` differs from it in the last bit on some inputs,
        which would move a node's sampled round.
        """
        if p >= 1.0:
            return np.ones(ranks.size)
        if not p > 0.0:
            raise ValueError(f"geometric needs 0 < p <= 1, got {p}")
        negated = (-self.take(ranks)).tolist()
        logs = np.fromiter(
            map(math.log1p, negated), dtype=np.float64, count=len(negated)
        )
        return 1.0 + np.floor(logs / math.log1p(-p))


class NodeRandom:
    """One node's stream as a scalar generator: ``ctx.rng``."""

    __slots__ = ("_counters", "_rank", "_base")

    def __init__(self, streams: NodeStreams, rank: int):
        self._counters = streams.counters
        self._rank = rank
        self._base = streams.key ^ _mix((rank * _G + 1) & _MASK)

    def random(self) -> float:
        """The next uniform in [0, 1)."""
        counters, rank = self._counters, self._rank
        drawn = counters.item(rank)
        counters[rank] = drawn + 1
        return (_mix((self._base + drawn * _G) & _MASK) >> 11) * 2.0**-53

    def geometric(self, p: float) -> int:
        """Trials up to the first heads of a ``p``-coin, by inverse CDF
        (``p >= 1`` draws nothing)."""
        if p >= 1.0:
            return 1
        if not p > 0.0:
            raise ValueError(f"geometric needs 0 < p <= 1, got {p}")
        return 1 + math.floor(math.log1p(-self.random()) / math.log1p(-p))

    def integers(self, low: int, high: int) -> int:
        """A uniform integer in [low, high)."""
        return low + math.floor(self.random() * (high - low))
