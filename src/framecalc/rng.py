"""Deterministic random streams.

Counter-based SplitMix64. The t-th raw output of a stream with seed s is

    mix64(s + t * GOLDEN)   for t = 1, 2, ...

where GOLDEN = 0x9E3779B97F4A7C15 and mix64 is the standard finalizer

    z ^= z >> 30;  z *= 0xBF58476D1CE4E5B9
    z ^= z >> 27;  z *= 0x94D049BB133111EB
    z ^= z >> 31

with all arithmetic mod 2^64. Because the output is a pure function of
(seed, t), blocks of any size can be produced vectorized and a stream can
be re-created mid-sequence. Child streams for independent trials come from
derive(index): the child seed is mix64(parent_seed + (index + 1) * GOLDEN),
which does not touch the parent's position.

Uniform doubles take the top 53 bits: (x >> 11) * 2**-53, giving values in
[0, 1). Gaussians use the Box-Muller transform on consecutive uniform
pairs (u1, u2): r = sqrt(-2 log(1 - u1)), theta = 2 pi u2, yielding
r cos(theta) then r sin(theta); drawing an odd count consumes a full pair
and discards the last sine. Complex standard-normal entries are
(g[2k] + i g[2k+1]) / sqrt(2) from consecutive gaussians. Every random
vector and matrix in the package is drawn through normals(count, field),
which picks one of the two by field, and random unit vectors through
unit_vector(dim, field).

The uint64 sequence is bit-reproducible everywhere; floating-point outputs
are deterministic for a given platform's libm.
"""

from __future__ import annotations

import numpy as np

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_MASK64 = (1 << 64) - 1
_INV_2_53 = float(2.0**-53)


def mix64(z: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer, elementwise on uint64 arrays (wraps mod 2^64)."""
    z = (z ^ (z >> np.uint64(30))) * _MIX1
    z = (z ^ (z >> np.uint64(27))) * _MIX2
    return z ^ (z >> np.uint64(31))


def mix64_int(z: int) -> int:
    """Scalar reference of mix64 on Python ints; agrees bit for bit."""
    z &= _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


class SplitMix64:
    """One deterministic stream; all draws advance an integer position."""

    def __init__(self, seed: int):
        self._seed = np.uint64(int(seed) & _MASK64)
        self._pos = 0

    @property
    def seed(self) -> int:
        return int(self._seed)

    def derive(self, index: int) -> "SplitMix64":
        """Child stream index >= 0, independent of this stream's position."""
        if index < 0:
            raise ValueError("derive index must be >= 0")
        child = (int(self._seed) + (index + 1) * 0x9E3779B97F4A7C15) & _MASK64
        return SplitMix64(mix64_int(child))

    def raw(self, count: int) -> np.ndarray:
        """Next `count` raw uint64 outputs."""
        if count < 0:
            raise ValueError("count must be >= 0")
        idx = np.arange(self._pos + 1, self._pos + count + 1, dtype=np.uint64)
        self._pos += count
        # uint64 array arithmetic wraps mod 2^64 without a warning, as mix64 needs
        return mix64(self._seed + idx * _GOLDEN)

    def uniforms(self, count: int) -> np.ndarray:
        """float64 in [0, 1), top 53 bits of each raw output."""
        return (self.raw(count) >> np.uint64(11)).astype(np.float64) * _INV_2_53

    def gaussians(self, count: int) -> np.ndarray:
        """Standard normal float64 via Box-Muller on uniform pairs."""
        if count < 0:
            raise ValueError("count must be >= 0")
        pairs = (count + 1) // 2
        u = self.uniforms(2 * pairs)
        u1 = u[0::2]
        u2 = u[1::2]
        # 1 - u1 is in (0, 1], so the log is finite
        r = np.sqrt(-2.0 * np.log1p(-u1))
        theta = (2.0 * np.pi) * u2
        out = np.empty(2 * pairs)
        out[0::2] = r * np.cos(theta)
        out[1::2] = r * np.sin(theta)
        return out[:count]

    def complex_gaussians(self, count: int) -> np.ndarray:
        """Standard complex normal: (x + iy)/sqrt(2) with x, y standard normal."""
        g = self.gaussians(2 * count)
        return (g[0::2] + 1j * g[1::2]) / np.sqrt(2.0)

    def normals(self, count: int, field: str) -> np.ndarray:
        """`count` normals as complex128: gaussians with zero imaginary part
        for field "real", complex_gaussians otherwise."""
        if field == "real":
            return self.gaussians(count).astype(np.complex128)
        return self.complex_gaussians(count)

    def unit_vector(self, dim: int, field: str) -> np.ndarray:
        """normals(dim, field) scaled to unit norm; a draw with norm <= 1e-12
        is discarded and drawn again."""
        if dim < 1:
            raise ValueError("dim must be >= 1")
        while True:
            g = self.normals(dim, field)
            norm = float(np.linalg.norm(g))
            if norm > 1e-12:
                return g / norm

    def integers(self, count: int, bound: int) -> np.ndarray:
        """Integers in [0, bound) by modulo reduction (bias < 2**-50 for bound <= 2**14)."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        return (self.raw(count) % np.uint64(bound)).astype(np.int64)

    def subset(self, n: int) -> list[int]:
        """Each index of range(n) kept independently with probability 1/2."""
        keep = self.uniforms(n) < 0.5
        return [i for i in range(n) if keep[i]]

    def sample(self, n: int, k: int) -> list[int]:
        """k distinct indices from range(n), by sorting uniform keys."""
        if not 0 <= k <= n:
            raise ValueError("need 0 <= k <= n")
        keys = self.uniforms(n)
        order = np.argsort(keys, kind="stable")
        return sorted(int(i) for i in order[:k])
