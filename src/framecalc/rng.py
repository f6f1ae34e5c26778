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
[0, 1). next_raw() and uniform() are raw(1)[0] and uniforms(1)[0] as Python
numbers, bitwise, at the same stream position. Gaussians use the Box-Muller
transform on consecutive uniform pairs (u1, u2): r = sqrt(-2 log(1 - u1)),
theta = 2 pi u2, yielding r cos(theta) then r sin(theta); drawing an odd
count consumes a full pair and discards the last sine. Complex
standard-normal entries are (g[2k] + i g[2k+1]) / sqrt(2) from consecutive
gaussians. Every random vector and matrix in the package is drawn through
normals(count, field), which picks one of the two by field, or its group
form, and random unit vectors through unit_vector(dim, field), which is
group_unit_vectors on one stream.

Group draws. Each group_* function takes a list of streams, each at its own
position, and makes one draw step for all of them at once: one mix64
evaluation, one uniform conversion and one Box-Muller over the
concatenation of their segments, with the single-stream methods' own
helpers. The result of stream k is bitwise the result of the same
single-stream call on streams[k], and every stream advances exactly as
that call advances it. A real segment keeps an even length (an odd count
still consumes a full pair), so every segment starts a fresh Box-Muller
pair. A count of zero draws nothing and moves nothing. group_normals and
group_unit_vectors take one field per stream, so one draw step covers real
and complex streams alike: a real segment is its gaussians, a complex one
pairs its gaussians into complex normals. The sweeps draw each step for a
whole d group of trials, of both fields, this way, and so too the draws
each trial makes from fresh streams of its own seeds (probes, isometries,
Gaussian frames); the library's single-family draws are those same group
draws on one stream, and group_normals hands a group of one stream to
normals itself.

The uint64 sequence is bit-reproducible everywhere; floating-point outputs
are deterministic for a given platform's libm.
"""

import numpy as np

_GOLDEN = 0x9E3779B97F4A7C15
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


def _raw_at(seeds, positions: np.ndarray) -> np.ndarray:
    """The raw output at each uint64 stream position of each seed."""
    # uint64 array arithmetic wraps mod 2^64 without a warning, as mix64 needs
    return mix64(seeds + positions * _GOLDEN)


def _to_uniforms(raw: np.ndarray) -> np.ndarray:
    """float64 in [0, 1): the top 53 bits of each raw output."""
    return (raw >> np.uint64(11)).astype(np.float64) * _INV_2_53


def _box_muller(u: np.ndarray) -> np.ndarray:
    """Gaussians from the consecutive uniform pairs (u1, u2) of an
    even-length array: r cos(theta), then r sin(theta)."""
    # 1 - u1 is in (0, 1], so the log is finite
    r = np.sqrt(-2.0 * np.log1p(-u[0::2]))
    theta = (2.0 * np.pi) * u[1::2]
    out = np.empty(u.size)
    out[0::2] = r * np.cos(theta)
    out[1::2] = r * np.sin(theta)
    return out


def _pair_complex(g: np.ndarray) -> np.ndarray:
    """Complex normals (g[2k] + i g[2k+1]) / sqrt(2) of an even-length array."""
    return (g[0::2] + 1j * g[1::2]) / np.sqrt(2.0)


class SplitMix64:
    """One deterministic stream; all draws advance an integer position."""

    def __init__(self, seed: int):
        self._seed = int(seed) & _MASK64
        self._pos = 0

    @property
    def seed(self) -> int:
        return self._seed

    def derive(self, index: int) -> "SplitMix64":
        """Child stream index >= 0, independent of this stream's position."""
        if index < 0:
            raise ValueError("derive index must be >= 0")
        return SplitMix64(mix64_int(self._seed + (index + 1) * _GOLDEN))

    def raw(self, count: int) -> np.ndarray:
        """Next `count` raw uint64 outputs."""
        if count < 0:
            raise ValueError("count must be >= 0")
        idx = np.arange(self._pos + 1, self._pos + count + 1, dtype=np.uint64)
        self._pos += count
        return _raw_at(self._seed, idx)

    def next_raw(self) -> int:
        """raw(1)[0] as a Python int."""
        self._pos += 1
        return mix64_int(self._seed + self._pos * _GOLDEN)

    def uniform(self) -> float:
        """uniforms(1)[0] as a Python float."""
        return (self.next_raw() >> 11) * _INV_2_53

    def uniforms(self, count: int) -> np.ndarray:
        """float64 in [0, 1), top 53 bits of each raw output."""
        return _to_uniforms(self.raw(count))

    def gaussians(self, count: int) -> np.ndarray:
        """Standard normal float64 via Box-Muller on uniform pairs."""
        if count < 0:
            raise ValueError("count must be >= 0")
        return _box_muller(self.uniforms(count + count % 2))[:count]

    def complex_gaussians(self, count: int) -> np.ndarray:
        """Standard complex normal: (x + iy)/sqrt(2) with x, y standard normal."""
        return _pair_complex(self.gaussians(2 * count))

    def normals(self, count: int, field: str) -> np.ndarray:
        """`count` normals as complex128: gaussians with zero imaginary part
        for field "real", complex_gaussians otherwise."""
        if field == "real":
            return self.gaussians(count).astype(np.complex128)
        return self.complex_gaussians(count)

    def unit_vector(self, dim: int, field: str) -> np.ndarray:
        """normals(dim, field) scaled to unit norm; a draw with norm <= 1e-12
        is discarded and drawn again."""
        return group_unit_vectors([self], dim, [field])[0]

    def integers(self, count: int, bound: int) -> np.ndarray:
        """Integers in [0, bound) by modulo reduction (bias < 2**-50 for bound <= 2**14)."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        return (self.raw(count) % np.uint64(bound)).astype(np.int64)

    def subset(self, n: int) -> list[int]:
        """Each index of range(n) kept independently with probability 1/2."""
        return np.flatnonzero(self.uniforms(n) < 0.5).tolist()

    def sample(self, n: int, k: int) -> list[int]:
        """k distinct indices from range(n), by sorting uniform keys."""
        if not 0 <= k <= n:
            raise ValueError("need 0 <= k <= n")
        keys = self.uniforms(n)
        order = np.argsort(keys, kind="stable")
        return sorted(int(i) for i in order[:k])


# ---------------------------------------------------------------------------
# group draws: one draw step for many streams at once (see the module docstring)


def group_raw(streams: list[SplitMix64], counts: list[int]) -> np.ndarray:
    """streams[k].raw(counts[k]) for each k, concatenated in stream order;
    each stream advances by its count."""
    if any(count < 0 for count in counts):
        raise ValueError("count must be >= 0")
    # the j-th output of stream k sits at position pos_k + 1 + j, which is the
    # output's index in the concatenation plus (pos_k + 1 - its segment's offset)
    shifts, offset = [], 0
    for stream, count in zip(streams, counts):
        shifts.append((stream._pos + 1 - offset) & _MASK64)
        offset += count
        stream._pos += count
    repeats = np.array(counts, dtype=np.int64)
    positions = np.arange(offset, dtype=np.uint64) + np.repeat(
        np.array(shifts, dtype=np.uint64), repeats)
    seeds = np.repeat(np.array([stream._seed for stream in streams], dtype=np.uint64), repeats)
    return _raw_at(seeds, positions)


def _segments(flat: np.ndarray, widths: list[int], counts: list[int]) -> list[np.ndarray]:
    """The first counts[k] entries of each consecutive segment of width widths[k]."""
    out, start = [], 0
    for width, count in zip(widths, counts):
        out.append(flat[start:start + count])
        start += width
    return out


def group_uniforms(streams: list[SplitMix64], counts: list[int]) -> list[np.ndarray]:
    """streams[k].uniforms(counts[k]) for each k."""
    return _segments(_to_uniforms(group_raw(streams, counts)), counts, counts)


def _group_normals(streams: list[SplitMix64], counts: list[int],
                   fields: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """The concatenated normals of group_normals, each stream's segment
    padded to its width, and those widths: a real segment holds the
    gaussians of count + count % 2 raw outputs, a complex one the pairs of
    the gaussians of 2 * count."""
    real = np.array([field == "real" for field in fields], dtype=bool)
    widths = np.array(counts, dtype=np.int64)
    widths += real * (widths % 2)
    sizes = np.where(real, 1, 2) * widths  # raw outputs per segment
    g = _box_muller(_to_uniforms(group_raw(streams, sizes.tolist())))
    from_real, to_real = np.repeat(real, sizes), np.repeat(real, widths)
    out = np.empty(to_real.size, dtype=np.complex128)
    out[to_real] = g[from_real]
    out[~to_real] = _pair_complex(g[~from_real])
    return out, widths


def group_normals(streams: list[SplitMix64], counts: list[int],
                  fields: list[str]) -> list[np.ndarray]:
    """streams[k].normals(counts[k], fields[k]) for each k. A group of one
    stream is that call itself, which skips the group's fixed cost."""
    if len(streams) == 1:
        return [streams[0].normals(counts[0], fields[0])]
    flat, widths = _group_normals(streams, counts, fields)
    return _segments(flat, widths.tolist(), counts)


def group_unit_vectors(streams: list[SplitMix64], dim: int, fields: list[str]) -> np.ndarray:
    """streams[k].unit_vector(dim, fields[k]) for each k, as the rows of one array.

    The row norms are the vecdot form of np.linalg.norm's own dot. A row
    with norm <= 1e-12 is drawn again by its stream's unit_vector, from
    the position this draw left it at."""
    if dim < 1:
        raise ValueError("dim must be >= 1")
    flat, widths = _group_normals(streams, [dim] * len(streams), fields)
    g = flat[(np.cumsum(widths) - widths)[:, None] + np.arange(dim)]
    norms = np.sqrt(np.vecdot(g.real, g.real) + np.vecdot(g.imag, g.imag))
    ok = norms > 1e-12
    out = g / np.where(ok, norms, 1.0)[:, None]
    for k in np.flatnonzero(~ok):
        out[k] = streams[k].unit_vector(dim, fields[k])
    return out


def group_subsets(streams: list[SplitMix64], counts: list[int]) -> list[list[int]]:
    """streams[k].subset(counts[k]) for each k."""
    kept = np.flatnonzero(_to_uniforms(group_raw(streams, counts)) < 0.5)
    sizes = np.array(counts, dtype=np.int64)
    ends = np.cumsum(sizes)
    cuts = np.searchsorted(kept, ends)  # kept indices before each segment's end
    local = (kept - np.repeat(ends - sizes, np.diff(cuts, prepend=0))).tolist()
    cuts = cuts.tolist()
    return [local[a:b] for a, b in zip([0] + cuts, cuts)]
