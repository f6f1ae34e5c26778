"""Finite vector families and their frame-theoretic operations.

A frame here is a finite family of vectors f_1, ..., f_n in C^d (or R^d,
tagged by `field`), stored row-wise. The frame operator

    S f = sum_i <f, f_i> f_i

is cached on construction and its eigendecomposition on first use
(`Frame.spectrum`), so every check that is a function of the spectrum of S
shares one factorization. The Parseval deviation max_i |lambda_i(S) - 1|,
the canonical dual, the Parseval companion and the projector onto the span
are derived from that spectrum once per frame too, on first use; inner
products are linear in the first argument and conjugate-linear in the
second, so the coefficient vector is c_i = <f, f_i> = sum_j f[j] * conj(f_i[j]).

Partial sums over an index subset J give the partial frame operator S_J,
the object every identity in `identities` is built from. The remaining
operations derive standard companions: canonical dual (S^{-1} f_i),
Parseval conversion (S^{-1/2} f_i), subspace embeddings through isometries,
and completion to a tight frame by appending columns of sqrt(lam*I - S).

The kernels behind the frame operator, the analysis coefficients, S_J,
the canonical dual and Parseval conversion, the Bessel sandwich and the
tight completion also take zero-padded stacks of families, shape
(..., n, d); a zero row adds nothing to any of them. The public functions
validate their inputs and call the same kernels on one family.

Each seeded draw has one definition, a stacked one: random_parseval is
`_parseval_stack` of one family and random_isometry is `_isometries` of
one seed, so a family drawn in a stack is bitwise the single call. A
conditioned Gaussian frame, one with cond(S) <= MAX_COND, is accepted in
one place: `_conditioned_stack` draws a stack of first attempts and tests
them with one stacked eigendecomposition, and a rejected family goes on
alone through `_first_conditioned`, the one redraw loop. Every family
gives up with NoConvergence after _RESAMPLE_LIMIT attempts in all.

Real-tagged frames keep exactly zero imaginary parts; derived operations
strip sub-tolerance imaginary roundoff so the tag survives duals and
completions. A stack may hold real and complex families side by side;
each family is checked and stripped by its own tag.
"""

import numbers
import operator
from dataclasses import dataclass, field as dc_field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import (
    BadParams,
    DimensionMismatch,
    IndexOutOfRange,
    LambdaTooSmall,
    NoConvergence,
    NotAFrame,
    NotIsometry,
)
from .linalg import (
    TAU_EIG,
    TAU_PSD_COEFF,
    EigenDecomposition,
    _adjoint,
    _first_failure,
    _scale,
    frobenius,
    hermitian_eig,
    hermitize,
    spectral_apply,
)
from .rng import SplitMix64, group_normals

TAU_ID = 1e-9
TAU_FRAME_COEFF = 1e-10
MAX_COND = 1.0e3  # largest cond(S) a random Parseval or conditioned Gaussian draw accepts
_RESAMPLE_LIMIT = 1000  # Gaussian attempts a conditioned draw makes before it gives up

_FIELDS = ("real", "complex")


def as_vector(f, dim: int) -> np.ndarray:
    """Coerce to a finite complex128 vector of length dim."""
    try:
        v = np.asarray(f, dtype=np.complex128)
    except (TypeError, ValueError, OverflowError) as exc:
        raise BadParams(f"vector does not convert to complex numbers: {exc}") from None
    if v.shape != (dim,):
        raise DimensionMismatch(f"expected a vector of length {dim}, got shape {v.shape}")
    if not np.isfinite(v).all():
        raise BadParams("vector has non-finite entries")
    return v


def as_tolerance(value) -> float:
    """Coerce a check tolerance, a real number but not a bool, to a finite float > 0."""
    tol = np.nan
    # float and int come first only for speed: they skip the ABC's instance check
    if isinstance(value, (float, int, numbers.Real)) and not isinstance(value, bool):
        try:
            tol = float(value)
        except OverflowError:  # an integer beyond float range
            pass
    if not 0.0 < tol < np.inf:
        raise BadParams(f"tolerance must be a finite number > 0, got {value!r}")
    return tol


def as_integer(value, what: str) -> int:
    """Coerce an int or a numpy integer, but not a bool, to an int; `what`
    names the value in the BadParams that anything else raises."""
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return int(value)
    raise BadParams(f"{what} must be an integer, got {value!r}")


def norm_sq(v: np.ndarray):
    """||v||^2 as a float; over a stack (..., d), an array of one per vector."""
    sq = np.vecdot(v, v).real
    return float(sq) if v.ndim == 1 else sq


@dataclass(frozen=True, eq=False)
class Frame:
    """Immutable vector family with its cached frame operator and spectrum.

    dim:      ambient dimension d >= 1
    vectors:  (n, d) complex128, row i is f_i; n = 0 is allowed and means
              the empty Bessel family (operator 0)
    field:    "real" or "complex"; real requires exactly zero imaginary parts

    What is a function of the frame alone is computed once, on first use:
    the spectrum, the Parseval deviation max_i |lambda_i(S) - 1| (a float,
    read by frame_bounds and by every Parseval-only report), the canonical
    dual and the Parseval companion (so a repeat canonical_dual or
    parsevalize call returns the same Frame) and the span projector. A
    derivation that raises, as NotAFrame does, caches nothing and raises
    again on the next call.
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
        s = _finite_operator(a)
        s.setflags(write=False)
        object.__setattr__(self, "vectors", a)
        object.__setattr__(self, "operator", s)

    @cached_property
    def spectrum(self) -> EigenDecomposition:
        """Eigendecomposition of the frame operator, computed once on first use.

        Its arrays are read-only, like `vectors` and `operator`.
        """
        return hermitian_eig(self.operator)

    @cached_property
    def _parseval_dev(self) -> float:
        return float(np.abs(self.spectrum.eigenvalues - 1.0).max())

    @cached_property
    def _dual(self) -> "Frame":
        return _converted(self, "inverse")

    @cached_property
    def _parseval(self) -> "Frame":
        return _converted(self, "inv_sqrt")

    @cached_property
    def _span(self) -> np.ndarray:
        p = _span_projector(self.spectrum)
        p.setflags(write=False)
        return p

    @property
    def count(self) -> int:
        return self.vectors.shape[0]

    def scaled(self, factor: float) -> "Frame":
        """Every vector multiplied by factor (frame operator scales by factor^2)."""
        return Frame(self.dim, self.vectors * float(factor), self.field)


def _operator(rows: np.ndarray) -> np.ndarray:
    """sum_i f_i f_i^*, hermitized, of the rows f_i in the last two axes."""
    return hermitize(rows.swapaxes(-1, -2) @ rows.conj())


def _finite_operator(rows: np.ndarray) -> np.ndarray:
    """_operator of finite rows, raising BadParams for the first family whose
    operator overflows."""
    with np.errstate(over="ignore", invalid="ignore"):  # finite vectors can overflow S
        return _require_finite(_operator(rows))


def _require_finite(s: np.ndarray) -> np.ndarray:
    """The frame operators s, raising BadParams if any entry overflowed."""
    if not np.isfinite(s).all():
        raise BadParams("frame operator overflows: vectors are too large")
    return s


def _partial_operator(vectors: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """S_J of each family in a stack, (..., n, d) with J's mask (..., n)."""
    return _operator(np.where(mask[..., None], vectors, 0.0))


def _analysis(vectors: np.ndarray, f: np.ndarray) -> np.ndarray:
    """c_i = <f, f_i> for each family and vector in a stack: (..., n), from
    vectors (..., n, d) and f (..., d)."""
    return (vectors.conj() @ f[..., None])[..., 0]


def _synthesis(vectors: np.ndarray, c: np.ndarray) -> np.ndarray:
    """sum_i c_i f_i, shape (..., d)."""
    return (c[..., None, :] @ vectors)[..., 0, :]


def _energy(c: np.ndarray):
    """sum_i |c_i|^2 over the last axis."""
    return np.sum(np.abs(c) ** 2, axis=-1)


def subset_mask(subset, n: int) -> np.ndarray:
    """Boolean membership mask of an index subset J of range(n).

    The one place a subset is checked. Indices must be Python or numpy
    integers (floats are rejected), distinct, and inside [0, n); the
    first failing check, in that order, raises.
    """
    try:
        idx = sorted(map(operator.index, subset))
    except TypeError:
        raise BadParams("indices must be integers") from None
    for a, b in zip(idx, idx[1:]):
        if a == b:
            raise BadParams(f"duplicate index {a}")
    if idx and idx[0] < 0:
        raise IndexOutOfRange(f"negative index {idx[0]}")
    if idx and idx[-1] >= n:
        raise IndexOutOfRange(f"index {idx[-1]} outside [0, {n})")
    mask = np.zeros(n, dtype=bool)
    mask[idx] = True
    return mask


class FrameBounds(NamedTuple):
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
    is_parseval = frame._parseval_dev <= TAU_ID
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


def _match_field(vectors: np.ndarray, real) -> np.ndarray:
    """vectors with exactly zero imaginary parts in each real family; `real`
    is one bool, or a mask over the families of a stack. Complex spectral
    factors of a real matrix can leave per-column phase fuzz; BadParams
    names the first real family whose fuzz is not roundoff."""
    if real is False:
        return vectors
    fuzz = np.abs(vectors.imag).max(axis=(-2, -1), initial=0.0)
    scale = _scale([np.abs(vectors.real).max(axis=(-2, -1), initial=0.0)])
    if (failure := _first_failure(real & (fuzz > 1e-8 * scale), fuzz)) is not None:
        raise BadParams(f"real-tagged result has imaginary residue {failure[0]:.3e}")
    if real is True:
        return vectors.real.astype(np.complex128)
    return np.where(real[..., None, None], vectors.real, vectors)


def _spectral_rows(vectors: np.ndarray, dec: EigenDecomposition, fn: str, real) -> np.ndarray:
    """The rows g(S) f_i of each family in a stack, (..., n, d), where dec is
    the spectrum of its S, g the spectral function fn and `real` the real
    flag or mask of _match_field."""
    return _match_field(vectors @ spectral_apply(dec, fn).swapaxes(-1, -2), real)


def _converted(frame: Frame, fn: str) -> Frame:
    """The frame of rows g(S) f_i, g the spectral function fn; NotAFrame
    when the lower frame bound is numerically zero."""
    if not frame_bounds(frame).is_frame:
        raise NotAFrame("lower frame bound is numerically zero")
    return Frame(frame.dim, _spectral_rows(frame.vectors, frame.spectrum, fn,
                                            frame.field == "real"),
                 frame.field)


def canonical_dual(frame: Frame) -> Frame:
    """Dual family S^{-1} f_i; reconstruction sum <f, dual_i> f_i = f.

    Computed once per frame: a repeat call returns the same Frame. Raises
    NotAFrame, on every call, when the lower frame bound is numerically zero.
    """
    return frame._dual


def parsevalize(frame: Frame) -> Frame:
    """Canonical Parseval companion S^{-1/2} f_i (same spans, operator I);
    computed once per frame and raising on every call, as canonical_dual."""
    return frame._parseval


def _span_projector(dec: EigenDecomposition) -> np.ndarray:
    """Orthogonal projector onto the range of each PSD matrix with spectrum
    dec: its eigenvectors for eigenvalues above TAU_FRAME_COEFF * the top one."""
    w = dec.eigenvalues
    # with a top eigenvalue <= 0 no eigenvalue is > 0, so the range is {0}
    keep = w > TAU_FRAME_COEFF * np.maximum(w[..., -1:], 0.0)
    v = dec.eigenvectors * keep[..., None, :]
    return hermitize(v @ _adjoint(v))


def coefficients(frame: Frame, f) -> np.ndarray:
    """Analysis coefficients c_i = <f, f_i>, length n."""
    return _analysis(frame.vectors, as_vector(f, frame.dim))


def partial_operator_matrix(frame: Frame, subset) -> np.ndarray:
    """Dense d x d matrix of S_J (Hermitian, PSD; zero for the empty J)."""
    return _partial_operator(frame.vectors, subset_mask(subset, frame.count))


class BesselCheck(NamedTuple):
    """Operator-norm sandwich for the coefficient energy.

    lhs1 <= rhs1:  ||S f||^2 <= ||S|| * sum |<f, f_i>|^2
    lhs2 <= rhs2:  sum |<f, f_i>|^2 <= ||S^{-1}|| * ||S f||^2
    """

    lhs1: float
    rhs1: float
    lhs2: float
    rhs2: float
    passed: bool


def _bessel(vectors: np.ndarray, c: np.ndarray, lower, upper) -> tuple:
    """The BesselCheck fields of each family in a stack, from its coefficients
    c (..., n) and its frame bounds; lhs2 is the coefficient energy."""
    energy = _energy(c)
    sf_sq = norm_sq(_synthesis(vectors, c))
    lhs1, rhs1 = sf_sq, upper * energy
    lhs2, rhs2 = energy, (1.0 / lower) * sf_sq
    ok1 = lhs1 <= rhs1 + TAU_ID * _scale([lhs1, rhs1])
    ok2 = lhs2 <= rhs2 + TAU_ID * _scale([lhs2, rhs2])
    return lhs1, rhs1, lhs2, rhs2, ok1 & ok2


def bessel_inequality_check(frame: Frame, f) -> BesselCheck:
    """Check both energy inequalities; needs a frame for the inverse side."""
    bounds = frame_bounds(frame)
    if not bounds.is_frame:
        raise NotAFrame("inverse-norm inequality needs a nonzero lower bound")
    c = coefficients(frame, f)
    *sides, passed = map(float, _bessel(frame.vectors, c, bounds.lower, bounds.upper))
    return BesselCheck(*sides, passed=bool(passed))


class SubspaceFrame(NamedTuple):
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
    emb = Frame(ambient_dim, _match_field(rows, field == "real"), field)
    return SubspaceFrame(ambient_dim=ambient_dim, frame=emb, projector=proj)


def union(first: Frame, second: Frame) -> Frame:
    """Concatenate two families in the same space (operators add)."""
    if first.dim != second.dim:
        raise DimensionMismatch(f"dims differ: {first.dim} vs {second.dim}")
    rows = np.vstack([first.vectors, second.vectors])
    field = "real" if first.field == "real" and second.field == "real" else "complex"
    return Frame(first.dim, rows, field)


def _union_operator(s: np.ndarray, added: np.ndarray) -> np.ndarray:
    """The frame operators of the unions of families with operators s and added,
    broadcast over stacks, as hermitized sums; BadParams where union() overflows."""
    with np.errstate(over="ignore", invalid="ignore"):  # finite operators can overflow their sum
        return _require_finite(hermitize(s + added))


def complete_to_tight(frame: Frame, lam: float | None = None, mix_seed: int | None = None) -> Frame:
    """Vectors G making frame + G lam-tight; empty when already lam-tight.

    With lam omitted, the smallest possible value lam = lambda_max(S) is
    used. The canonical completion takes the columns of sqrt(lam*I - S),
    dropping numerically zero columns; mix_seed applies a seeded random
    unitary to the kept columns, producing a different family with the
    same added operator and span.

    Raises LambdaTooSmall when lam < lambda_max(S) beyond roundoff, and
    BadParams when lam is NaN or +inf or mix_seed is not None or an integer.
    """
    if mix_seed is not None:
        mix_seed = as_integer(mix_seed, "mix_seed")
    dec = frame.spectrum
    root, keep = _completion(dec, dec.eigenvalues[-1] if lam is None else float(lam))
    cols = root[:, keep]
    if mix_seed is not None and cols.shape[1]:
        cols = cols @ random_isometry(cols.shape[1], cols.shape[1], mix_seed, frame.field)
    return Frame(frame.dim, _match_field(cols.T, frame.field == "real"), frame.field)


def _completion(dec: EigenDecomposition, lam) -> tuple[np.ndarray, np.ndarray]:
    """sqrt(lam*I - S) for each spectrum dec of S in a stack and its lam,
    (..., d, d), and the mask (..., d) of its columns that are not
    numerically zero. Raises BadParams for the first lam that is NaN or
    +inf, then LambdaTooSmall for the first lam below its lambda_max beyond
    roundoff (tau grows with lam only when lam is positive, so -inf fails)."""
    w = dec.eigenvalues
    lam = np.asarray(lam, dtype=np.float64)
    if (failure := _first_failure(~(lam < np.inf), lam)) is not None:
        raise BadParams(f"lam {failure[0]:.6g} is not finite")
    lam_max = w[..., -1]
    tau = TAU_PSD_COEFF * _scale([np.maximum(lam_max, 0.0), np.maximum(lam, 0.0)])
    if (failure := _first_failure(lam < lam_max - tau, lam, lam_max)) is not None:
        raise LambdaTooSmall(f"lam {failure[0]:.6g} below lambda_max {failure[1]:.6g}")
    wt = lam[..., None] - w
    wt = np.where(np.abs(wt) <= tau[..., None], 0.0, np.maximum(wt, 0.0))
    v = dec.eigenvectors
    root = hermitize((v * np.sqrt(wt)[..., None, :]) @ _adjoint(v))
    return root, np.sum(np.abs(root) ** 2, axis=-2) > tau[..., None]


def random_isometry(ambient_dim: int, dim: int, seed: int, field: str = "complex") -> np.ndarray:
    """Seeded ambient_dim x dim matrix with orthonormal columns, via QR.

    With ambient_dim == dim it is a Haar-style unitary (orthogonal for
    field "real").
    """
    if not 1 <= dim <= ambient_dim:
        raise BadParams(f"need 1 <= dim <= ambient_dim, got {dim}, {ambient_dim}")
    if field not in _FIELDS:
        raise BadParams(f"field must be one of {_FIELDS}, got {field!r}")
    return _isometries(ambient_dim, dim, [as_integer(seed, "seed")], [field])[0]


def _isometries(ambient: int, dim: int, seeds: list[int], fields: list[str]) -> np.ndarray:
    """random_isometry(ambient, dim, seed, field) of each (seed, field), as one
    (len(seeds), ambient, dim) stack from one group draw and one stacked QR:
    the Q factors, their columns rotated so that R has a positive real
    diagonal (a zero entry counts as 1)."""
    g = group_normals([SplitMix64(seed) for seed in seeds], [ambient * dim] * len(seeds), fields)
    # one seed's draw is the whole stack; a stack of none still needs an array
    flat = g[0] if len(g) == 1 else np.concatenate([np.empty(0, np.complex128), *g])
    q, r = np.linalg.qr(flat.reshape(len(seeds), ambient, dim))
    d = np.diagonal(r, axis1=-2, axis2=-1).copy()
    d[np.abs(d) == 0.0] = 1.0
    return q * (d / np.abs(d))[..., None, :]


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


def _gaussian_group(dim: int, counts: list[int], seeds: list[int],
                    fields: list[str]) -> tuple[np.ndarray, np.ndarray, EigenDecomposition]:
    """random_gaussian(dim, n, seed, field).vectors for each (n, seed, field),
    zero-padded into one (len(counts), max(counts), dim) stack, their frame
    operators and the spectra of those, from one stacked eigendecomposition.
    The rows are drawn in one group draw over the streams of the seeds."""
    gauss = np.zeros((len(counts), max(counts), dim), dtype=np.complex128)
    rows = group_normals([SplitMix64(seed) for seed in seeds], [n * dim for n in counts], fields)
    for k, (n, g) in enumerate(zip(counts, rows)):
        gauss[k, :n] = g.reshape(n, dim)
    s = _operator(gauss)
    return gauss, s, hermitian_eig(s)


def _require_gaussian(dim: int, count: int, field: str) -> None:
    """BadParams unless dim >= 1, count >= 1 and field is known, checked in that order."""
    if dim < 1 or count < 1:
        raise BadParams(f"need dim >= 1 and count >= 1, got dim={dim}, count={count}")
    if field not in _FIELDS:
        raise BadParams(f"field must be one of {_FIELDS}, got {field!r}")


def random_gaussian(dim: int, count: int, seed: int, field: str = "real") -> Frame:
    """Independent standard normal entries (complex normal for field "complex")."""
    _require_gaussian(dim, count, field)
    rows = SplitMix64(as_integer(seed, "seed")).normals(count * dim, field)
    return Frame(dim, rows.reshape(count, dim), field)


def _conditioning(eigenvalues: np.ndarray) -> tuple:
    """(accepted, cond(S)) of each ascending spectrum of S in (..., d): a draw
    is accepted when it is a frame (lower bound above TAU_FRAME_COEFF *
    upper, both clamped at zero) with cond(S) = upper / lower <= MAX_COND."""
    lower = np.maximum(eigenvalues[..., 0], 0.0)
    upper = np.maximum(eigenvalues[..., -1], 0.0)
    is_frame = lower > TAU_FRAME_COEFF * upper
    # divide only where lower > 0; cond < 1e10 there, so nothing overflows
    cond = upper / np.where(is_frame, lower, 1.0)
    return is_frame & (cond <= MAX_COND), cond


def _first_conditioned(dim: int, count: int, rng: SplitMix64, field: str) -> tuple[Frame, float]:
    """The first random_gaussian(dim, count, rng.next_raw(), field) that
    _conditioning accepts, with its cond(S): the redraws of a rejected first
    attempt. NoConvergence once _RESAMPLE_LIMIT attempts in all, that first
    one included, are rejected."""
    for _ in range(_RESAMPLE_LIMIT - 1):
        frame = random_gaussian(dim, count, rng.next_raw(), field)
        accepted, cond = _conditioning(frame.spectrum.eigenvalues)
        if accepted:
            return frame, float(cond)
    raise NoConvergence(f"no {count} x {dim} Gaussian draw with cond(S) <= {MAX_COND:g} found")


def random_parseval(dim: int, count: int, seed: int, field: str = "real") -> Frame:
    """Parseval conversion of a seeded Gaussian frame; needs count >= dim.

    Ill-conditioned draws are rejected and redrawn from a seed-derived
    stream: the inverse square root loses about cond(S) * eps of accuracy,
    so past cond ~1e6 the converted operator would miss the identity by
    more than TAU_ID. The first attempt uses the seed itself, so
    well-conditioned seeds give the same frame as a direct conversion.
    It is _parseval_stack of one family.
    """
    if count < dim:
        raise BadParams(f"need count >= dim, got dim={dim}, count={count}")
    _require_gaussian(dim, count, field)
    rows = _parseval_stack(dim, [count], [as_integer(seed, "seed")], [field])[0]
    return Frame(dim, rows, field)


def _conditioned_stack(dim: int, counts: list[int], seeds: list[int], fields: list[str],
                       later: list[SplitMix64]) -> tuple:
    """For each (n, seed, field), the first Gaussian frame that _conditioning
    accepts, zero-padded into one (len(counts), max(counts), dim) stack,
    with the frame operators, their spectra and cond(S).

    The first attempts, seeded by `seeds`, are drawn and tested together,
    with one stacked eigendecomposition. A rejected family k goes on through
    _first_conditioned, each further attempt seeded by later[k].next_raw();
    its accepted frame replaces the first attempt in every array.
    """
    vectors, s, dec = _gaussian_group(dim, counts, seeds, fields)
    w, v = dec.eigenvalues.copy(), dec.eigenvectors.copy()
    accepted, cond = _conditioning(w)
    for k in np.flatnonzero(~accepted):
        frame, cond[k] = _first_conditioned(dim, counts[k], later[k], fields[k])
        vectors[k, :counts[k]] = frame.vectors
        s[k], w[k], v[k] = frame.operator, frame.spectrum.eigenvalues, frame.spectrum.eigenvectors
    return vectors, s, EigenDecomposition(w, v), cond


def _parseval_stack(dim: int, counts: list[int], seeds: list[int],
                    fields: list[str]) -> np.ndarray:
    """random_parseval(dim, n, seed, field).vectors for each (n, seed, field),
    zero-padded into one (len(counts), max(counts), dim) stack: the
    conditioned stack, each rejected family going on from SplitMix64(seed),
    then one S^{-1/2} for the whole stack.
    """
    vectors, _, dec, _ = _conditioned_stack(dim, counts, seeds, fields,
                                            [SplitMix64(seed) for seed in seeds])
    return _spectral_rows(vectors, dec, "inv_sqrt", np.array([field == "real" for field in fields]))


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
