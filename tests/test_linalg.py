"""Spectral factorization against hand eigensystems, plus the PSD functions."""

import numpy as np
import pytest

from framecalc.errors import NotHermitian, NotPSD, SingularMatrix
from framecalc.linalg import (
    frobenius,
    hermitian_defect,
    hermitian_eig,
    hermitize,
    psd_apply,
    require_hermitian,
    spectral_apply,
)
from framecalc.rng import SplitMix64


def test_identity_eigensystem():
    dec = hermitian_eig(np.eye(2))
    np.testing.assert_allclose(dec.eigenvalues, [1.0, 1.0])
    np.testing.assert_allclose(dec.reconstruct(), np.eye(2))


def test_eigenvalues_sorted_ascending():
    dec = hermitian_eig(np.diag([2.0, 1.0]))
    np.testing.assert_allclose(dec.eigenvalues, [1.0, 2.0])


def test_rank_one_ones_matrix():
    dec = hermitian_eig(np.ones((2, 2)))
    np.testing.assert_allclose(dec.eigenvalues, [0.0, 2.0], atol=1e-14)
    np.testing.assert_allclose(dec.reconstruct(), np.ones((2, 2)), atol=1e-14)


def test_complex_hermitian_hand_case():
    # eigenvalues of [[2, i], [-i, 2]] are 1 and 3
    m = np.array([[2.0, 1.0j], [-1.0j, 2.0]])
    dec = hermitian_eig(m)
    np.testing.assert_allclose(dec.eigenvalues, [1.0, 3.0], atol=1e-12)


def test_random_hermitian_reconstructs():
    rng = SplitMix64(11)
    for trial in range(20):
        d = 2 + trial % 7
        g = rng.complex_gaussians(d * d).reshape(d, d)
        m = hermitize(g)
        dec = hermitian_eig(m)
        assert frobenius(dec.reconstruct() - m) <= 1e-10 * max(1.0, frobenius(m))
        v = dec.eigenvectors
        assert frobenius(v.conj().T @ v - np.eye(d)) <= 1e-10


def test_not_hermitian_raises():
    with pytest.raises(NotHermitian):
        hermitian_eig([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(NotHermitian):
        hermitian_eig(np.zeros((2, 3)))
    with pytest.raises(NotHermitian):
        require_hermitian([[np.inf, 0.0], [0.0, 1.0]])


def test_hermitian_defect():
    m = np.array([[1.0, 2.0 + 1.0j], [2.0 - 1.0j, 3.0]])
    assert hermitian_defect(m) == 0.0
    assert hermitian_defect(np.array([[0.0, 1.0], [0.0, 0.0]])) == np.sqrt(2.0)


def test_sqrt_hand_case():
    root = psd_apply(np.diag([2.0, 0.0]), "sqrt")
    np.testing.assert_allclose(root, np.diag([np.sqrt(2.0), 0.0]), atol=1e-14)


def test_sqrt_squares_back():
    rng = SplitMix64(12)
    for trial in range(10):
        d = 2 + trial % 5
        g = rng.complex_gaussians(d * d).reshape(d, d)
        m = hermitize(g @ g.conj().T)
        root = psd_apply(m, "sqrt")
        assert frobenius(root @ root - m) <= 1e-9 * max(1.0, frobenius(m))


def test_inverse_and_inv_sqrt_hand_cases():
    m = np.diag([4.0, 1.0])
    np.testing.assert_allclose(psd_apply(m, "inverse"), np.diag([0.25, 1.0]), atol=1e-14)
    np.testing.assert_allclose(psd_apply(m, "inv_sqrt"), np.diag([0.5, 1.0]), atol=1e-14)


def test_inverse_family_rejects_singular():
    with pytest.raises(SingularMatrix):
        psd_apply(np.diag([1.0, 0.0]), "inverse")
    with pytest.raises(SingularMatrix):
        psd_apply(np.diag([1.0, 0.0]), "inv_sqrt")


def test_negative_eigenvalue_rejected():
    with pytest.raises(NotPSD):
        psd_apply(np.diag([1.0, -1.0]), "sqrt")


def test_roundoff_negative_clamped_to_zero():
    root = psd_apply(np.diag([1.0, -1e-15]), "sqrt")
    assert root[1, 1].real == 0.0


def test_unknown_spectral_function():
    with pytest.raises(ValueError):
        psd_apply(np.eye(2), "log")


def _stack(seed: int, k: int, d: int) -> np.ndarray:
    return SplitMix64(seed).complex_gaussians(k * d * d).reshape(k, d, d)


def test_stacked_norms_are_bitwise_the_per_matrix_norms():
    for d in range(1, 17):
        for k in (1, 2, 7, 20):
            for m in (_stack(100 * d + k, k, d), _stack(100 * d + k, k, d).real):
                want = np.array([np.linalg.norm(x) for x in m])
                assert frobenius(m).tobytes() == want.tobytes()
                want = np.array([np.linalg.norm(x - x.conj().T) for x in m])
                assert hermitian_defect(m).tobytes() == want.tobytes()


def test_stacked_spectral_calls_are_bitwise_the_per_matrix_calls():
    for d in (1, 3, 8, 16):
        g = _stack(d, 5, d)
        m = hermitize(g @ g.conj().swapaxes(-1, -2)) + np.eye(d)
        dec = hermitian_eig(m)
        for fn in ("inverse", "sqrt", "inv_sqrt"):
            stacked = spectral_apply(dec, fn)
            for k in range(len(m)):
                single = hermitian_eig(m[k])
                assert single.eigenvalues.tobytes() == dec.eigenvalues[k].tobytes()
                assert single.eigenvectors.tobytes() == dec.eigenvectors[k].tobytes()
                assert spectral_apply(single, fn).tobytes() == stacked[k].tobytes()


def test_stacked_checks_name_the_first_failing_matrix():
    singular = np.stack([np.eye(2), np.diag([3.0, 1e-13]), np.diag([1.0, 0.0])])
    with pytest.raises(SingularMatrix, match="eigenvalue 1.000e-13 within 3.0e-12"):
        psd_apply(singular, "inverse")
    negative = np.stack([np.eye(2), np.diag([1.0, -1.0]), np.diag([2.0, -1.0])])
    with pytest.raises(NotPSD, match="eigenvalue -1.000e\\+00 below -1.0e-12"):
        psd_apply(negative, "sqrt")
    # each matrix fails its own first check: the singular one comes first
    with pytest.raises(SingularMatrix, match="eigenvalue 1.000e-13 within 3.0e-12"):
        psd_apply(np.concatenate([singular, negative]), "inv_sqrt")
    skew = np.stack([np.eye(2), [[0.0, 1.0], [0.0, 0.0]]])
    with pytest.raises(NotHermitian, match="defect 1.414e\\+00"):
        hermitian_eig(skew)
