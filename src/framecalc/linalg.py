"""Hermitian eigendecomposition and spectral functions.

Everything downstream (frame bounds, duals, Parseval conversion, tight
completion) reduces to the eigendecomposition of a Hermitian matrix and to
applying a scalar function to its spectrum. Inputs are validated as
Hermitian up to a relative tolerance before any factorization runs, and
spectral functions clamp tiny negative eigenvalues (inevitable when the
matrix is a Gram-type product) to zero instead of letting them poison a
square root. A matrix that is bitwise its Hermitian part H = (M + M*)/2, as
every one the package builds is, skips the defect test, which it could not
fail: each entry is within one ulp of its mirror, so ||M - M*||_F ~ eps ||M||_F.
An overflow in H makes H differ from M and takes the test; H is factorized.

Every function here except as_matrix also takes a stack of matrices,
shape (..., d, d), and works matrix by matrix along the leading axes: one
call factorizes a whole stack, and a failed check raises for the first
failing matrix in C order. A stacked eigendecomposition is bitwise the
per-matrix one.

Where only a spectrum's values are used, hermitian_eigvals gives them
with hermitian_eig's checks and computes no eigenvectors.

Tolerances:
    TAU_HERM  relative Hermitian-defect bound, ||M - M*||_F <= TAU_HERM * max(1, ||M||_F)
    TAU_EIG   absolute isometry-defect bound, ||U*U - I||_F <= TAU_EIG (embed_subspace_frame)
    psd clamp eigenvalues in [-tau, 0] with tau = TAU_PSD_COEFF * max(1, lambda_max)
    _scale    max(1, |v|, ...), the one scale floor of every relative check in the package
"""

from typing import NamedTuple

import numpy as np

from .errors import NoConvergence, NotHermitian, NotPSD, SingularMatrix

TAU_HERM = 1e-10
TAU_EIG = 1e-10
TAU_PSD_COEFF = 1e-12

_SPECTRAL_FUNCTIONS = ("inverse", "sqrt", "inv_sqrt")


def _as_matrices(m) -> np.ndarray:
    """Coerce to a finite complex128 stack (..., d, d) of square matrices."""
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise NotHermitian(f"expected a square matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise NotHermitian("matrix has non-finite entries")
    return a


def as_matrix(m) -> np.ndarray:
    """Coerce to a finite square complex128 matrix."""
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim != 2:
        raise NotHermitian(f"expected a square matrix, got shape {a.shape}")
    return _as_matrices(a)


def _adjoint(m: np.ndarray) -> np.ndarray:
    """M* of each matrix in the last two axes."""
    return m.conj().swapaxes(-1, -2)


def _first_failure(flags, *values) -> tuple | None:
    """None when a boolean array holds no True; else the entries of `values`,
    each broadcast to the shape of `flags`, at its first True in C order."""
    if not flags.any():
        return None
    k = np.flatnonzero(flags)[0]
    return tuple(np.broadcast_to(v, flags.shape).flat[k] for v in values)


def frobenius(m: np.ndarray):
    """||M||_F as a float; over a stack, an array of one norm per matrix.

    The stacked form sums squared real and imaginary parts of each
    C-ordered matrix with vecdot, the dot that np.linalg.norm itself
    reduces to, so each entry is bitwise the norm of that matrix alone. A
    single matrix keeps np.linalg.norm, the faster of the two on one matrix.
    """
    if m.ndim == 2:
        return float(np.linalg.norm(m))
    flat = np.ascontiguousarray(m).reshape(*m.shape[:-2], -1)
    return np.sqrt(np.vecdot(flat.real, flat.real) + np.vecdot(flat.imag, flat.imag))


def hermitian_defect(m: np.ndarray):
    """||M - M*||_F, zero exactly when M is Hermitian."""
    return frobenius(m - _adjoint(m))


def _scale(values):
    """max(1, |v| for v in values) per entry, values a sequence of same-shaped
    arrays or numbers; fmax, like Python's max(1.0, ...), never takes a NaN for
    the scale. A signed x floored at max(1, x) passes np.maximum(x, 0.0)."""
    return np.fmax.reduce(np.abs(values), axis=0, initial=1.0)


def require_hermitian(m) -> np.ndarray:
    a = _as_matrices(m)
    defect = hermitian_defect(a)
    scale = _scale([frobenius(a)])
    if (failure := _first_failure(defect > TAU_HERM * scale, defect, scale)) is not None:
        raise NotHermitian(
            f"Hermitian defect {failure[0]:.3e} exceeds {TAU_HERM:.1e} * {failure[1]:.3e}")
    return a


def hermitize(m: np.ndarray) -> np.ndarray:
    """Nearest Hermitian matrix, (M + M*)/2."""
    return (m + _adjoint(m)) / 2.0


class EigenDecomposition(NamedTuple):
    """Spectral factorization M = V diag(w) V* with w ascending.

    eigenvalues:  real float64, sorted ascending, shape (..., d)
    eigenvectors: complex128, columns orthonormal, column k pairs with w[k],
                  shape (..., d, d)
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def reconstruct(self) -> np.ndarray:
        v = self.eigenvectors
        return (v * self.eigenvalues[..., None, :]) @ _adjoint(v)


def _factor(m, solver):
    """solver(hermitize(m)) with hermitian_eig's checks; a LinAlgError is NoConvergence."""
    a = _as_matrices(m)
    h = hermitize(a)
    if not (a == h).all():  # an exact Hermitian part skips the defect test
        require_hermitian(a)
    try:
        return solver(h)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(str(exc)) from exc


def hermitian_eig(m) -> EigenDecomposition:
    """Eigendecomposition of a matrix that is Hermitian within TAU_HERM (relative).

    Its Hermitian part is factorized, so roundoff asymmetry cannot produce
    complex eigenvalues. Raises NotHermitian or, from the backend, NoConvergence.
    """
    w, v = _factor(m, np.linalg.eigh)
    w.setflags(write=False)
    v.setflags(write=False)
    return EigenDecomposition(eigenvalues=w, eigenvectors=v)


def hermitian_eigvals(m) -> np.ndarray:
    """The eigenvalues of hermitian_eig(m), shape (..., d), ascending, with
    its checks and errors (NotHermitian, NoConvergence) but no eigenvectors."""
    return _factor(m, np.linalg.eigvalsh)


def psd_apply(m, fn: str) -> np.ndarray:
    """Apply a spectral function to a positive semidefinite Hermitian matrix.

    Same as spectral_apply(hermitian_eig(m), fn).
    """
    return spectral_apply(hermitian_eig(m), fn)


def spectral_apply(dec: EigenDecomposition, fn: str) -> np.ndarray:
    """Apply a spectral function to the PSD matrix with spectrum dec.

    fn is one of "inverse", "sqrt", "inv_sqrt". Eigenvalues in
    [-tau_psd, 0] are clamped to zero, tau_psd = 1e-12 * max(1, lambda_max).

    Raises:
        NotPSD: some eigenvalue is below -tau_psd.
        SingularMatrix: fn needs an inverse but lambda_min <= tau_psd.
    """
    if fn not in _SPECTRAL_FUNCTIONS:
        raise ValueError(f"fn must be one of {_SPECTRAL_FUNCTIONS}, got {fn!r}")
    w = dec.eigenvalues.copy()
    if w.shape[-1]:
        lam_min, lam_max = w[..., 0], w[..., -1]
    else:  # a 0 x 0 matrix
        lam_min = lam_max = np.zeros(w.shape[:-1])
    tau = TAU_PSD_COEFF * _scale([np.maximum(lam_max, 0.0)])
    # the inverse family also fails on lambda_min in [-tau, tau]
    flags = lam_min <= tau if fn != "sqrt" else lam_min < -tau
    if (failure := _first_failure(flags, lam_min, tau)) is not None:
        lam_k, tau_k = failure
        if lam_k < -tau_k:
            raise NotPSD(f"eigenvalue {lam_k:.3e} below -{tau_k:.1e}")
        raise SingularMatrix(f"eigenvalue {lam_k:.3e} within {tau_k:.1e} of zero")
    np.clip(w, 0.0, None, out=w)
    if fn == "inverse":
        fw = 1.0 / w
    elif fn == "sqrt":
        fw = np.sqrt(w)
    else:
        fw = 1.0 / np.sqrt(w)
    v = dec.eigenvectors
    return hermitize((v * fw[..., None, :]) @ _adjoint(v))
