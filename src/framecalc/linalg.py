"""Hermitian eigendecomposition and spectral functions.

Everything downstream (frame bounds, duals, Parseval conversion, tight
completion) reduces to the eigendecomposition of a Hermitian matrix and to
applying a scalar function to its spectrum. Inputs are validated as
Hermitian up to a relative tolerance before any factorization runs, and
spectral functions clamp tiny negative eigenvalues (inevitable when the
matrix is a Gram-type product) to zero instead of letting them poison a
square root.

Tolerances:
    TAU_HERM  relative Hermitian-defect bound, ||M - M*||_F <= TAU_HERM * max(1, ||M||_F)
    TAU_EIG   relative reconstruction bound for the factorization
    psd clamp eigenvalues in [-tau, 0] with tau = TAU_PSD_COEFF * max(1, lambda_max)
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NoConvergence, NotHermitian, NotPSD, SingularMatrix

TAU_HERM = 1e-10
TAU_EIG = 1e-10
TAU_PSD_COEFF = 1e-12

_SPECTRAL_FUNCTIONS = ("inverse", "sqrt", "inv_sqrt")


def as_matrix(m) -> np.ndarray:
    """Coerce to a finite square complex128 array."""
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise NotHermitian(f"expected a square matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise NotHermitian("matrix has non-finite entries")
    return a


def frobenius(m: np.ndarray) -> float:
    return float(np.linalg.norm(m))


def hermitian_defect(m: np.ndarray) -> float:
    """||M - M*||_F, zero exactly when M is Hermitian."""
    return float(np.linalg.norm(m - m.conj().T))


def require_hermitian(m: np.ndarray, tol: float = TAU_HERM) -> np.ndarray:
    a = as_matrix(m)
    defect = hermitian_defect(a)
    scale = max(1.0, frobenius(a))
    if defect > tol * scale:
        raise NotHermitian(
            f"Hermitian defect {defect:.3e} exceeds {tol:.1e} * {scale:.3e}"
        )
    return a


def hermitize(m: np.ndarray) -> np.ndarray:
    """Nearest Hermitian matrix, (M + M*)/2."""
    return (m + m.conj().T) / 2.0


@dataclass(frozen=True, eq=False)
class EigenDecomposition:
    """Spectral factorization M = V diag(w) V* with w ascending.

    eigenvalues:  real float64, sorted ascending
    eigenvectors: complex128, columns orthonormal, column k pairs with w[k]
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def reconstruct(self) -> np.ndarray:
        v = self.eigenvectors
        return (v * self.eigenvalues) @ v.conj().T


def hermitian_eig(m) -> EigenDecomposition:
    """Eigendecomposition of a Hermitian matrix.

    The input must be Hermitian within TAU_HERM (relative); it is projected
    to its Hermitian part before factorization so roundoff asymmetry cannot
    produce complex eigenvalues.

    Raises:
        NotHermitian: input fails the symmetry check.
        NoConvergence: the factorization backend did not converge.
    """
    a = require_hermitian(m)
    try:
        w, v = np.linalg.eigh(hermitize(a))
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(str(exc)) from exc
    w = np.asarray(w, dtype=np.float64)
    v = np.asarray(v, dtype=np.complex128)
    w.setflags(write=False)
    v.setflags(write=False)
    return EigenDecomposition(eigenvalues=w, eigenvectors=v)


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
    lam_max = float(w[-1]) if w.size else 0.0
    tau = TAU_PSD_COEFF * max(1.0, lam_max)
    lam_min = float(w[0]) if w.size else 0.0
    if lam_min < -tau:
        raise NotPSD(f"eigenvalue {lam_min:.3e} below -{tau:.1e}")
    if fn in ("inverse", "inv_sqrt") and lam_min <= tau:
        raise SingularMatrix(f"eigenvalue {lam_min:.3e} within {tau:.1e} of zero")
    np.clip(w, 0.0, None, out=w)
    if fn == "inverse":
        fw = 1.0 / w
    elif fn == "sqrt":
        fw = np.sqrt(w)
    else:
        fw = 1.0 / np.sqrt(w)
    v = dec.eigenvectors
    return hermitize((v * fw) @ v.conj().T)
