"""Spectral factorization against hand eigensystems, plus the PSD functions."""

import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from framecalc.errors import FrameError, NoConvergence, NotHermitian, NotPSD, SingularMatrix
from framecalc.linalg import (
    TAU_HERM,
    EigenDecomposition,
    frobenius,
    hermitian_defect,
    hermitian_eig,
    hermitian_eigvals,
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
    # lambda_max = -5 < -1: tau is floored at 1e-12 * max(1, lambda_max), not |lambda_max|
    with pytest.raises(NotPSD, match=r"^eigenvalue -5\.000e\+00 below -1\.0e-12$"):
        psd_apply(-5 * np.eye(2), "sqrt")


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


# eigvalsh and eigh run different LAPACK drivers, each backward stable: their
# eigenvalues agree to a few d * eps * ||M||; 1.22 was the worst seen over
# 3,000 stacks of these kinds
_EIGVALS_AGREEMENT = 4.0


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(d=st.integers(1, 16), k=st.integers(1, 20), field=st.sampled_from(["real", "complex"]),
       kind=st.sampled_from(["random", "near_identity", "repeated"]),
       scale=st.sampled_from([1e-3, 1.0, 1e3]), seed=st.integers(0, 2**32 - 1))
def test_eigvals_are_eigh_eigenvalues_without_eigenvectors(d, k, field, kind, scale, seed):
    g = _stack(seed, k, d)
    if field == "real":
        g = g.real.astype(np.complex128)
    if kind == "random":
        m = scale * hermitize(g)
    elif kind == "near_identity":
        m = scale * (np.eye(d) + 1e-9 * hermitize(g))
    else:  # the values 1 and 2, each repeated, in a random basis
        q = np.linalg.qr(g)[0]
        m = scale * hermitize((q * (1.0 + np.arange(d) % 2)) @ q.conj().swapaxes(-1, -2))
    w = hermitian_eigvals(m)
    assert w.shape == (k, d) and w.dtype == np.float64
    assert (np.diff(w, axis=-1) >= 0.0).all()
    bound = _EIGVALS_AGREEMENT * d * np.finfo(np.float64).eps * np.maximum(1.0, frobenius(m))
    assert (np.abs(w - hermitian_eig(m).eigenvalues).max(axis=-1) <= bound).all()
    # a non-Hermitian or non-finite matrix anywhere in the stack: the same error
    bad = m.copy()
    bad[-1, 0, -1] += 1.0 if d > 1 else np.inf
    for wrong in (bad, bad[-1], np.where(np.arange(d) == 0, np.nan, m)):
        with pytest.raises(NotHermitian) as eig_error:
            hermitian_eig(wrong)
        with pytest.raises(NotHermitian, match=f"^{re.escape(str(eig_error.value))}$"):
            hermitian_eigvals(wrong)


def _parent_factor(solver, m):
    """The factorization before exact-Hermitian inputs skipped the defect test."""
    try:
        return solver(hermitize(require_hermitian(m)))
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(str(exc)) from exc


def _outcome(call, m):
    """The bytes of every array call(m) returns, or the type and message it raises."""
    try:
        out = call(m)
    except FrameError as exc:
        return type(exc), str(exc)
    if isinstance(out, EigenDecomposition):
        out = (out.eigenvalues, out.eigenvectors)
    return [(x.dtype, x.shape, x.tobytes()) for x in (out if isinstance(out, tuple) else (out,))]


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(d=st.integers(1, 16), k=st.integers(1, 3), field=st.sampled_from(["real", "complex"]),
       defect=st.sampled_from([None, *range(-8, 3)]),
       exponent=st.sampled_from([0, -500, 500, -1070, 1022]),
       poison=st.sampled_from([None] * 5 + [np.nan, np.inf, complex(0.0, -np.inf)]),
       seed=st.integers(0, 2**32 - 1))
def test_the_exact_hermitian_skip_keeps_every_output_and_error(
        d, k, field, defect, exponent, poison, seed):
    g = _stack(seed, k, d)
    m = hermitize(g.real.astype(np.complex128) if field == "real" else g)
    if defect is not None:  # a skew part of size 10^defect * TAU_HERM * ||M||_F in one matrix
        skew = _stack(seed + 1, 1, d)[0]
        skew -= skew.conj().T
        m[seed % k] += 10.0**defect * TAU_HERM * frobenius(m[seed % k]) / frobenius(skew) * skew
    # 2^-1070 makes subnormals; at 2^1022 the Hermitian part overflows, or an entry does
    with np.errstate(all="ignore"):
        m *= 2.0**exponent
    if poison is not None:  # a non-finite entry, mirrored as a Hermitian matrix would be
        i, j = seed % d, (seed // d) % d
        m[seed % k, i, j] = poison
        m[seed % k, j, i] = np.conj(poison)
    with np.errstate(all="ignore"):
        for solver, public in ((np.linalg.eigh, hermitian_eig),
                               (np.linalg.eigvalsh, hermitian_eigvals)):
            want = _outcome(lambda x: _parent_factor(solver, x), m)
            assert _outcome(public, m) == want
            assert _outcome(public, m[seed % k]) == _outcome(
                lambda x: _parent_factor(solver, x), m[seed % k])
            if not np.isfinite(m).all():
                assert want == (NotHermitian, "matrix has non-finite entries")
