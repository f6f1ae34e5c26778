"""Finite vector families and their frame-theoretic operations.

A frame here is a finite family of vectors f_1, ..., f_n in C^d (or R^d,
tagged by `field`), stored row-wise. The frame operator

    S f = sum_i <f, f_i> f_i

is cached on construction and its eigendecomposition on first use
(`Frame.spectrum`), so every check that is a function of the spectrum of S
shares one factorization; inner products are linear in the first argument
and conjugate-linear in the second, so the coefficient vector is
c_i = <f, f_i> = sum_j f[j] * conj(f_i[j]).

Partial sums over an index subset J give the partial frame operator S_J,
the object every identity in `identities` is built from. The remaining
operations derive standard companions: canonical dual (S^{-1} f_i),
Parseval conversion (S^{-1/2} f_i), subspace embeddings through isometries,
and completion to a tight frame by appending columns of sqrt(lam*I - S).

Real-tagged frames keep exactly zero imaginary parts; derived operations
strip sub-tolerance imaginary roundoff so the tag survives duals and
completions.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field as dc_field
from functools import cached_property

import numpy as np

from .errors import (
    BadParams,
    DimensionMismatch,
    IndexOutOfRange,
    LambdaTooSmall,
    NotAFrame,
    NotIsometry,
)
from .linalg import (
    TAU_EIG,
    TAU_PSD_COEFF,
    EigenDecomposition,
    frobenius,
    hermitian_eig,
    hermitize,
    spectral_apply,
)
from .rng import SplitMix64

TAU_ID = 1e-9
TAU_FRAME_COEFF = 1e-10

_FIELDS = ("real", "complex")


def as_vector(f, dim: int) -> np.ndarray:
    """Coerce to a finite complex128 vector of length dim."""
    v = np.asarray(f, dtype=np.complex128)
    if v.shape != (dim,):
        raise DimensionMismatch(f"expected a vector of length {dim}, got shape {v.shape}")
    if not np.isfinite(v).all():
        raise BadParams("vector has non-finite entries")
    return v


def as_tolerance(value) -> float:
    """Coerce a check tolerance to a finite float > 0."""
    tol = float(value)
    if not 0.0 < tol < np.inf:
        raise BadParams(f"tolerance must be a finite number > 0, got {value!r}")
    return tol


def norm_sq(v: np.ndarray) -> float:
    return float(np.vdot(v, v).real)


@dataclass(frozen=True, eq=False)
class Frame:
    """Immutable vector family with its cached frame operator and spectrum.

    dim:      ambient dimension d >= 1
    vectors:  (n, d) complex128, row i is f_i; n = 0 is allowed and means
              the empty Bessel family (operator 0)
    field:    "real" or "complex"; real requires exactly zero imaginary parts
    """

    dim: int
    vectors: np.ndarray
    field: str = "complex"
    operator: np.ndarray = dc_field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not isinstance(self.dim, (int, np.integer)) or self.dim < 1:
            raise BadParams(f"dim must be a positive integer, got {self.dim!r}")
        object.__setattr__(self, "dim", int(self.dim))
        a = np.array(self.vectors, dtype=np.complex128, copy=True)
        if a.size == 0:
            a = a.reshape(0, self.dim)
        if a.ndim != 2 or a.shape[1] != self.dim:
            raise DimensionMismatch(
                f"vectors must have shape (n, {self.dim}), got {a.shape}"
            )
        if not np.isfinite(a).all():
            raise BadParams("vectors have non-finite entries")
        if self.field not in _FIELDS:
            raise BadParams(f"field must be one of {_FIELDS}, got {self.field!r}")
        if self.field == "real" and a.imag.any():
            raise BadParams("field tag 'real' but vectors have nonzero imaginary parts")
        a.setflags(write=False)
        s = hermitize(a.T @ a.conj()) if a.shape[0] else np.zeros(
            (self.dim, self.dim), dtype=np.complex128
        )
        s.setflags(write=False)
        object.__setattr__(self, "vectors", a)
        object.__setattr__(self, "operator", s)

    @cached_property
    def spectrum(self) -> EigenDecomposition:
        """Eigendecomposition of the frame operator, computed once on first use.

        Its arrays are read-only, like `vectors` and `operator`.
        """
        return hermitian_eig(self.operator)

    @property
    def count(self) -> int:
        return self.vectors.shape[0]

    def scaled(self, factor: float) -> "Frame":
        """Every vector multiplied by factor (frame operator scales by factor^2)."""
        return Frame(self.dim, self.vectors * float(factor), self.field)


def _as_indices(values) -> list[int]:
    # operator.index accepts Python and numpy integers and rejects floats
    try:
        return list(map(operator.index, values))
    except TypeError:
        raise BadParams("indices must be integers") from None


@dataclass(frozen=True)
class IndexSubset:
    """Strictly increasing tuple of vector indices; complement is computed."""

    indices: tuple[int, ...]

    def __post_init__(self):
        idx = tuple(_as_indices(self.indices))
        for a, b in zip(idx, idx[1:]):
            if a >= b:
                raise BadParams("indices must be strictly increasing with no duplicates")
        if idx and idx[0] < 0:
            raise IndexOutOfRange(f"negative index {idx[0]}")
        object.__setattr__(self, "indices", idx)

    @classmethod
    def coerce(cls, value) -> "IndexSubset":
        if isinstance(value, IndexSubset):
            return value
        idx = sorted(_as_indices(value))
        for a, b in zip(idx, idx[1:]):
            if a == b:
                raise BadParams(f"duplicate index {a}")
        return cls(tuple(idx))

    def validate_for(self, n: int) -> "IndexSubset":
        if self.indices and self.indices[-1] >= n:
            raise IndexOutOfRange(f"index {self.indices[-1]} outside [0, {n})")
        return self

    def complement(self, n: int) -> "IndexSubset":
        self.validate_for(n)
        members = set(self.indices)
        return IndexSubset(tuple(i for i in range(n) if i not in members))

    def as_array(self) -> np.ndarray:
        return np.asarray(self.indices, dtype=np.int64)

    def __len__(self) -> int:
        return len(self.indices)


@dataclass(frozen=True)
class FrameBounds:
    """Extreme eigenvalues of the frame operator plus derived flags.

    lower/upper are clamped at zero (Gram roundoff can dip a hair below).
    is_frame:    lower > 1e-10 * upper
    is_parseval: every eigenvalue within TAU_ID of 1
    is_tight:    every eigenvalue within TAU_ID * mean of the mean
    tight_value: the mean eigenvalue when is_tight, else None
    """

    lower: float
    upper: float
    is_frame: bool
    is_parseval: bool
    is_tight: bool
    tight_value: float | None


def frame_bounds(frame: Frame) -> FrameBounds:
    w = frame.spectrum.eigenvalues
    lower = max(float(w[0]), 0.0)
    upper = max(float(w[-1]), 0.0)
    is_frame = lower > TAU_FRAME_COEFF * upper
    is_parseval = bool(np.max(np.abs(w - 1.0)) <= TAU_ID)
    mean = float(np.mean(w))
    is_tight = mean > 0.0 and bool(np.max(np.abs(w - mean)) <= TAU_ID * mean)
    return FrameBounds(
        lower=lower,
        upper=upper,
        is_frame=is_frame,
        is_parseval=is_parseval,
        is_tight=is_tight,
        tight_value=mean if is_tight else None,
    )


def tight_deviation(frame: Frame, lam: float) -> float:
    """max_i |lambda_i(S) - lam|, the distance from being lam-tight."""
    w = frame.spectrum.eigenvalues
    return float(np.max(np.abs(w - lam)))


def _match_field(vectors: np.ndarray, field: str) -> np.ndarray:
    # complex spectral factors of a real matrix can leave per-column phase fuzz
    if field != "real":
        return vectors
    fuzz = float(np.max(np.abs(vectors.imag))) if vectors.size else 0.0
    scale = max(1.0, float(np.max(np.abs(vectors.real))) if vectors.size else 0.0)
    if fuzz > 1e-8 * scale:
        raise BadParams(f"real-tagged result has imaginary residue {fuzz:.3e}")
    return vectors.real.astype(np.complex128)


def canonical_dual(frame: Frame) -> Frame:
    """Dual family S^{-1} f_i; reconstruction sum <f, dual_i> f_i = f.

    Raises NotAFrame when the lower frame bound is numerically zero.
    """
    if not frame_bounds(frame).is_frame:
        raise NotAFrame("lower frame bound is numerically zero")
    s_inv = spectral_apply(frame.spectrum, "inverse")
    rows = frame.vectors @ s_inv.T
    return Frame(frame.dim, _match_field(rows, frame.field), frame.field)


def parsevalize(frame: Frame) -> Frame:
    """Canonical Parseval companion S^{-1/2} f_i (same spans, operator I)."""
    if not frame_bounds(frame).is_frame:
        raise NotAFrame("lower frame bound is numerically zero")
    t = spectral_apply(frame.spectrum, "inv_sqrt")
    rows = frame.vectors @ t.T
    return Frame(frame.dim, _match_field(rows, frame.field), frame.field)


def coefficients(frame: Frame, f) -> np.ndarray:
    """Analysis coefficients c_i = <f, f_i>, length n."""
    v = as_vector(f, frame.dim)
    return frame.vectors.conj() @ v


def subset_energy(frame: Frame, subset: IndexSubset, f) -> float:
    """sum over i in J of |<f, f_i>|^2."""
    j = IndexSubset.coerce(subset).validate_for(frame.count)
    c = coefficients(frame, f)
    return float(np.sum(np.abs(c[j.as_array()]) ** 2))


def partial_apply(frame: Frame, subset: IndexSubset, f) -> np.ndarray:
    """S_J f = sum over i in J of <f, f_i> f_i."""
    j = IndexSubset.coerce(subset).validate_for(frame.count)
    c = coefficients(frame, f)
    idx = j.as_array()
    return c[idx] @ frame.vectors[idx]


def partial_operator_matrix(frame: Frame, subset: IndexSubset) -> np.ndarray:
    """Dense d x d matrix of S_J (Hermitian, PSD)."""
    j = IndexSubset.coerce(subset).validate_for(frame.count)
    rows = frame.vectors[j.as_array()]
    if rows.shape[0] == 0:
        return np.zeros((frame.dim, frame.dim), dtype=np.complex128)
    return hermitize(rows.T @ rows.conj())


@dataclass(frozen=True)
class BesselCheck:
    """Operator-norm sandwich for the coefficient energy.

    lhs1 <= rhs1:  ||S f||^2 <= ||S|| * sum |<f, f_i>|^2
    lhs2 <= rhs2:  sum |<f, f_i>|^2 <= ||S^{-1}|| * ||S f||^2
    """

    lhs1: float
    rhs1: float
    lhs2: float
    rhs2: float
    passed: bool


def bessel_inequality_check(frame: Frame, f) -> BesselCheck:
    """Check both energy inequalities; needs a frame for the inverse side."""
    bounds = frame_bounds(frame)
    if not bounds.is_frame:
        raise NotAFrame("inverse-norm inequality needs a nonzero lower bound")
    v = as_vector(f, frame.dim)
    c = coefficients(frame, v)
    energy = float(np.sum(np.abs(c) ** 2))
    sf = c @ frame.vectors
    sf_sq = norm_sq(sf)
    lhs1, rhs1 = sf_sq, bounds.upper * energy
    lhs2, rhs2 = energy, (1.0 / bounds.lower) * sf_sq
    ok1 = lhs1 <= rhs1 + TAU_ID * max(1.0, lhs1, rhs1)
    ok2 = lhs2 <= rhs2 + TAU_ID * max(1.0, lhs2, rhs2)
    return BesselCheck(lhs1=lhs1, rhs1=rhs1, lhs2=lhs2, rhs2=rhs2, passed=ok1 and ok2)


@dataclass(frozen=True, eq=False)
class SubspaceFrame:
    """A frame for a subspace, carried inside a larger ambient space.

    frame:     the embedded vectors, ambient-dimensional rows
    projector: orthogonal projector onto the embedded subspace
    """

    ambient_dim: int
    frame: Frame
    projector: np.ndarray


def embed_subspace_frame(frame: Frame, ambient_dim: int, isometry) -> SubspaceFrame:
    """Push a frame through an isometry U (ambient_dim x dim, U*U = I).

    The embedded family U f_i is a frame for the range of U; coefficients
    against any ambient vector g equal those against the projection P g,
    P = U U*.
    """
    u = np.asarray(isometry, dtype=np.complex128)
    if u.shape != (ambient_dim, frame.dim):
        raise DimensionMismatch(
            f"isometry must be {ambient_dim} x {frame.dim}, got {u.shape}"
        )
    defect = frobenius(u.conj().T @ u - np.eye(frame.dim))
    if defect > TAU_EIG:
        raise NotIsometry(f"columns not orthonormal: defect {defect:.3e}")
    rows = frame.vectors @ u.T
    proj = hermitize(u @ u.conj().T)
    proj.setflags(write=False)
    field = "real" if frame.field == "real" and not np.any(u.imag != 0.0) else "complex"
    emb = Frame(ambient_dim, _match_field(rows, field), field)
    return SubspaceFrame(ambient_dim=ambient_dim, frame=emb, projector=proj)


def union(first: Frame, second: Frame) -> Frame:
    """Concatenate two families in the same space (operators add)."""
    if first.dim != second.dim:
        raise DimensionMismatch(f"dims differ: {first.dim} vs {second.dim}")
    rows = np.vstack([first.vectors, second.vectors])
    field = "real" if first.field == "real" and second.field == "real" else "complex"
    return Frame(first.dim, rows, field)


def complete_to_tight(frame: Frame, lam: float | None = None, mix_seed: int | None = None) -> Frame:
    """Vectors G making frame + G lam-tight; empty when already lam-tight.

    With lam omitted, the smallest possible value lam = lambda_max(S) is
    used. The canonical completion takes the columns of sqrt(lam*I - S),
    dropping numerically zero columns; mix_seed applies a seeded random
    unitary to the kept columns, producing a different family with the
    same added operator and span.

    Raises LambdaTooSmall when lam < lambda_max(S) beyond roundoff.
    """
    dec = frame.spectrum
    w = dec.eigenvalues
    lam_max = float(w[-1])
    if lam is None:
        lam = lam_max
    lam = float(lam)
    tau = TAU_PSD_COEFF * max(1.0, lam_max, abs(lam))
    if lam < lam_max - tau:
        raise LambdaTooSmall(f"lam {lam:.6g} below lambda_max {lam_max:.6g}")
    wt = lam - w
    wt = np.where(np.abs(wt) <= tau, 0.0, np.maximum(wt, 0.0))
    v = dec.eigenvectors
    root = hermitize((v * np.sqrt(wt)) @ v.conj().T)
    col_energy = np.sum(np.abs(root) ** 2, axis=0)
    keep = col_energy > tau
    cols = root[:, keep]
    if mix_seed is not None and cols.shape[1] > 0:
        k = cols.shape[1]
        cols = cols @ random_isometry(k, k, mix_seed, frame.field)
    return Frame(frame.dim, _match_field(cols.T, frame.field), frame.field)


def random_isometry(ambient_dim: int, dim: int, seed: int, field: str = "complex") -> np.ndarray:
    """Seeded ambient_dim x dim matrix with orthonormal columns, via QR.

    With ambient_dim == dim it is a Haar-style unitary (orthogonal for
    field "real").
    """
    if not 1 <= dim <= ambient_dim:
        raise BadParams(f"need 1 <= dim <= ambient_dim, got {dim}, {ambient_dim}")
    g = SplitMix64(seed).normals(ambient_dim * dim, field).reshape(ambient_dim, dim)
    q, r = np.linalg.qr(g)
    d = np.diagonal(r).copy()
    d[np.abs(d) == 0.0] = 1.0
    return q * (d / np.abs(d))


# ---------------------------------------------------------------------------
# generators


def onb(dim: int) -> Frame:
    """Standard orthonormal basis of R^dim."""
    if dim < 1:
        raise BadParams("dim must be >= 1")
    return Frame(dim, np.eye(dim, dtype=np.complex128), "real")


def doubled_onb(dim: int) -> Frame:
    """Each basis vector twice, scaled 1/sqrt(2): Parseval with 2*dim vectors."""
    if dim < 1:
        raise BadParams("dim must be >= 1")
    rows = np.repeat(np.eye(dim, dtype=np.complex128), 2, axis=0) / np.sqrt(2.0)
    return Frame(dim, rows, "real")


def mercedes() -> Frame:
    """Three equiangular unit-norm-sqrt(2/3) vectors in R^2 (Parseval)."""
    r = np.sqrt(2.0 / 3.0)
    h = np.sqrt(3.0) / 2.0
    rows = np.array(
        [[1.0, 0.0], [-0.5, h], [-0.5, -h]], dtype=np.complex128
    ) * r
    return Frame(2, rows, "real")


def harmonic(dim: int, count: int) -> Frame:
    """Rows of the count-point DFT matrix restricted to dim columns, over sqrt(count)."""
    if dim < 1 or count < dim:
        raise BadParams(f"need count >= dim >= 1, got dim={dim}, count={count}")
    k = np.arange(count).reshape(-1, 1)
    j = np.arange(dim).reshape(1, -1)
    rows = np.exp((2j * np.pi / count) * (k * j)) / np.sqrt(count)
    return Frame(dim, rows, "complex")


def random_gaussian(dim: int, count: int, seed: int, field: str = "real") -> Frame:
    """Independent standard normal entries (complex normal for field "complex")."""
    if dim < 1 or count < 1:
        raise BadParams(f"need dim >= 1 and count >= 1, got dim={dim}, count={count}")
    if field not in _FIELDS:
        raise BadParams(f"field must be one of {_FIELDS}, got {field!r}")
    rows = SplitMix64(seed).normals(count * dim, field).reshape(count, dim)
    return Frame(dim, rows, field)


def random_parseval(dim: int, count: int, seed: int, field: str = "real") -> Frame:
    """Parseval conversion of a seeded Gaussian frame; needs count >= dim.

    Ill-conditioned draws are rejected and redrawn from a seed-derived
    stream: the inverse square root loses about cond(S) * eps of accuracy,
    so past cond ~1e6 the converted operator would miss the identity by
    more than TAU_ID. The first attempt uses the seed itself, so
    well-conditioned seeds give the same frame as a direct conversion.
    """
    if count < dim:
        raise BadParams(f"need count >= dim, got dim={dim}, count={count}")
    stream = SplitMix64(seed)
    attempt_seed = int(seed)
    for _ in range(100):
        frame = random_gaussian(dim, count, attempt_seed, field)
        bounds = frame_bounds(frame)
        if bounds.is_frame and bounds.upper <= 1.0e3 * bounds.lower:
            return parsevalize(frame)
        attempt_seed = int(stream.raw(1)[0])
    raise RuntimeError("no well-conditioned Gaussian draw found")  # pragma: no cover


_GENERATORS = {
    "onb": onb,
    "doubled_onb": doubled_onb,
    "mercedes": mercedes,
    "harmonic": harmonic,
    "random_gaussian": random_gaussian,
    "random_parseval": random_parseval,
}


def generate(kind: str, **params) -> Frame:
    """Dispatch to a named generator ('doubled-onb' and 'doubled_onb' both work)."""
    key = kind.replace("-", "_")
    try:
        gen = _GENERATORS[key]
    except KeyError:
        raise BadParams(
            f"unknown kind {kind!r}; expected one of {sorted(_GENERATORS)}"
        ) from None
    try:
        return gen(**params)
    except TypeError as exc:
        raise BadParams(f"bad parameters for {kind!r}: {exc}") from None
