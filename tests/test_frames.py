"""Frame construction, derived families, subsets, completion, and file IO."""

import dataclasses
import json

import numpy as np
import pytest

import framecalc.frames

from framecalc import (
    BadParams,
    DimensionMismatch,
    Frame,
    FrameFormatError,
    IndexOutOfRange,
    IndexSubset,
    LambdaTooSmall,
    NotAFrame,
    NotHermitian,
    NotIsometry,
    bessel_inequality_check,
    canonical_dual,
    coefficients,
    complete_to_tight,
    doubled_onb,
    embed_subspace_frame,
    frame_bounds,
    frame_from_document,
    frame_to_document,
    generate,
    harmonic,
    mercedes,
    onb,
    parsevalize,
    partial_apply,
    partial_operator_matrix,
    random_gaussian,
    random_isometry,
    random_parseval,
    read_frame,
    subset_energy,
    tight_deviation,
    union,
    write_frame,
)
from framecalc.frames import TAU_FRAME_COEFF, TAU_ID, FrameBounds, as_vector, norm_sq
from framecalc.identities import span_equality_check, tight_identity_report
from framecalc.linalg import TAU_PSD_COEFF, as_matrix, hermitian_eig, hermitize, psd_apply
from framecalc.rng import SplitMix64

E1 = [1.0, 0.0]
E2 = [0.0, 1.0]


# ---------------------------------------------------------------------------
# construction and validation


def test_frame_basic_properties():
    fr = Frame(2, [E1, E2], "real")
    assert fr.dim == 2
    assert fr.count == 2
    np.testing.assert_allclose(fr.operator, np.eye(2))


def test_empty_family_allowed():
    fr = Frame(2, np.zeros((0, 2)))
    assert fr.count == 0
    np.testing.assert_allclose(fr.operator, np.zeros((2, 2)))
    assert not frame_bounds(fr).is_frame


def test_frame_rejects_bad_inputs():
    with pytest.raises(BadParams):
        Frame(0, [[1.0]])
    with pytest.raises(DimensionMismatch):
        Frame(2, [[1.0, 0.0, 0.0]])
    with pytest.raises(BadParams):
        Frame(2, [[np.nan, 0.0]])
    with pytest.raises(BadParams):
        Frame(2, [[1.0j, 0.0]], "real")
    with pytest.raises(BadParams):
        Frame(2, [E1], "rational")


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("build, error", [
    (lambda a: Frame(2, a), BadParams),
    (lambda a: as_vector(a[0], 2), BadParams),
    (as_matrix, NotHermitian),
], ids=["Frame", "as_vector", "as_matrix"])
def test_non_finite_imaginary_part_rejected(build, error, bad):
    a = np.eye(2, dtype=np.complex128)
    a[0, 1] = complex(0.0, bad)
    assert np.isfinite(a.real).all()
    with pytest.raises(error, match="non-finite"):
        build(a)


def test_vectors_are_immutable():
    fr = Frame(2, [E1])
    with pytest.raises(ValueError):
        fr.vectors[0, 0] = 5.0


def test_scaled_squares_the_operator():
    fr = Frame(2, [E1, E1, E2]).scaled(2.0)
    np.testing.assert_allclose(fr.operator, np.diag([8.0, 4.0]))


def test_union_adds_operators():
    combined = union(Frame(2, [E1], "real"), Frame(2, [E2], "real"))
    assert combined.count == 2
    assert combined.field == "real"
    np.testing.assert_allclose(combined.operator, np.eye(2))
    mixed = union(Frame(2, [E1], "real"), harmonic(2, 4))
    assert mixed.field == "complex"


def test_union_dim_mismatch():
    with pytest.raises(DimensionMismatch):
        union(onb(2), onb(3))


# ---------------------------------------------------------------------------
# index subsets


def test_subset_coerce_sorts():
    assert IndexSubset.coerce([2, 0]).indices == (0, 2)


def test_subset_rejects_duplicates():
    with pytest.raises(BadParams):
        IndexSubset.coerce([1, 1])
    with pytest.raises(BadParams):
        IndexSubset((0, 0))


def test_subset_rejects_non_integers():
    with pytest.raises(BadParams):
        IndexSubset.coerce([0.7, 2.9])
    with pytest.raises(BadParams):
        IndexSubset.coerce(np.array([1.0]))
    with pytest.raises(BadParams):
        IndexSubset((0.5,))
    assert IndexSubset.coerce(np.array([3, 1])).indices == (1, 3)
    assert IndexSubset.coerce([np.int32(2), 0]).indices == (0, 2)


def test_subset_complement():
    assert IndexSubset((0, 2)).complement(4).indices == (1, 3)
    assert IndexSubset(()).complement(3).indices == (0, 1, 2)


def test_subset_range_checks():
    with pytest.raises(IndexOutOfRange):
        IndexSubset((0, 5)).validate_for(3)
    with pytest.raises(IndexOutOfRange):
        IndexSubset((-1, 2))


# ---------------------------------------------------------------------------
# generators


def test_onb_is_parseval():
    assert frame_bounds(onb(3)).is_parseval


def test_doubled_onb_vectors():
    fr = doubled_onb(2)
    r = 1.0 / np.sqrt(2.0)
    np.testing.assert_allclose(
        fr.vectors, [[r, 0.0], [r, 0.0], [0.0, r], [0.0, r]]
    )
    assert frame_bounds(fr).is_parseval


def test_mercedes_is_parseval():
    fr = mercedes()
    assert fr.count == 3
    assert fr.field == "real"
    assert tight_deviation(fr, 1.0) <= 1e-14
    # every vector has squared norm 2/3
    for row in fr.vectors:
        assert abs(norm_sq(row) - 2.0 / 3.0) <= 1e-14


def test_harmonic_is_parseval():
    fr = harmonic(2, 4)
    assert fr.field == "complex"
    assert tight_deviation(fr, 1.0) <= 1e-14
    np.testing.assert_allclose(fr.vectors[1], [0.5, 0.5j], atol=1e-15)


def test_harmonic_needs_enough_vectors():
    with pytest.raises(BadParams):
        harmonic(3, 2)


def test_random_gaussian_deterministic():
    a = random_gaussian(3, 5, 42)
    b = random_gaussian(3, 5, 42)
    assert np.array_equal(a.vectors, b.vectors)
    c = random_gaussian(3, 5, 43)
    assert not np.array_equal(a.vectors, c.vectors)


def test_random_parseval_is_parseval():
    for field in ("real", "complex"):
        fr = random_parseval(3, 7, 1, field)
        assert tight_deviation(fr, 1.0) <= 1e-12
        assert fr.field == field


def test_generate_dispatch():
    fr = generate("doubled-onb", dim=2)
    assert fr.count == 4
    with pytest.raises(BadParams):
        generate("sombrero")
    with pytest.raises(BadParams):
        generate("onb", count=3)


# ---------------------------------------------------------------------------
# bounds, coefficients, partial operators


def test_bounds_hand_case():
    b = frame_bounds(Frame(2, [E1, E1, E2]))
    assert abs(b.lower - 1.0) <= 1e-14
    assert abs(b.upper - 2.0) <= 1e-14
    assert b.is_frame
    assert not b.is_tight
    t = frame_bounds(Frame(2, [E1, E1, E2, E2]))
    assert t.is_tight
    assert not t.is_parseval
    assert abs(t.tight_value - 2.0) <= 1e-14


def test_coefficients_hand_case():
    r = np.sqrt(2.0 / 3.0)
    c = coefficients(mercedes(), [1.0, 0.0])
    np.testing.assert_allclose(c, [r, -r / 2.0, -r / 2.0], atol=1e-15)


def test_coefficients_conjugate_linear_in_family():
    # <f, f_i> must conjugate the family side
    fr = Frame(1, [[1.0j]])
    c = coefficients(fr, [1.0])
    assert c[0] == pytest.approx(-1.0j)


def test_partial_apply_hand_case():
    got = partial_apply(mercedes(), [0], [1.0, 0.0])
    np.testing.assert_allclose(got, [2.0 / 3.0, 0.0], atol=1e-15)


def test_partial_operator_hand_case():
    s_j = partial_operator_matrix(mercedes(), [0])
    np.testing.assert_allclose(s_j, np.diag([2.0 / 3.0, 0.0]), atol=1e-15)
    empty = partial_operator_matrix(mercedes(), [])
    np.testing.assert_allclose(empty, np.zeros((2, 2)))


def test_partial_operators_add_up():
    rng = SplitMix64(21)
    for trial in range(20):
        d = 2 + trial % 4
        n = d + int(rng.integers(1, 8)[0])
        fr = random_gaussian(d, n, int(rng.raw(1)[0]), "complex")
        j = rng.subset(n)
        jc = [i for i in range(n) if i not in set(j)]
        total = partial_operator_matrix(fr, j) + partial_operator_matrix(fr, jc)
        assert np.linalg.norm(total - fr.operator) <= 1e-12 * max(
            1.0, np.linalg.norm(fr.operator)
        )
        f = rng.complex_gaussians(d)
        e_total = subset_energy(fr, j, f) + subset_energy(fr, jc, f)
        energy = float(np.sum(np.abs(coefficients(fr, f)) ** 2))
        assert abs(e_total - energy) <= 1e-10 * max(1.0, energy)


def test_bessel_sandwich_on_onb():
    chk = bessel_inequality_check(onb(3), [1.0, 2.0, 2.0])
    assert chk.passed
    assert chk.lhs1 == pytest.approx(9.0)


def test_bessel_needs_a_frame():
    with pytest.raises(NotAFrame):
        bessel_inequality_check(Frame(2, [E1]), E1)


# ---------------------------------------------------------------------------
# dual and Parseval conversion


def test_dual_hand_case():
    dual = canonical_dual(Frame(2, [E1, E1, E2]))
    np.testing.assert_allclose(
        dual.vectors, [[0.5, 0.0], [0.5, 0.0], [0.0, 1.0]], atol=1e-14
    )


def test_dual_of_parseval_is_itself():
    fr = mercedes()
    dual = canonical_dual(fr)
    np.testing.assert_allclose(dual.vectors, fr.vectors, atol=1e-13)


def test_dual_reconstructs():
    rng = SplitMix64(22)
    fr = random_gaussian(3, 6, 99, "complex")
    dual = canonical_dual(fr)
    f = rng.complex_gaussians(3)
    recon = coefficients(dual, f) @ fr.vectors
    assert np.linalg.norm(recon - f) <= 1e-10 * max(1.0, float(np.linalg.norm(f)))


def test_dual_needs_a_frame():
    with pytest.raises(NotAFrame):
        canonical_dual(Frame(2, [E1, E1]))


def test_parsevalize_hand_case():
    p = parsevalize(Frame(2, [E1, E1, E2]))
    r = 1.0 / np.sqrt(2.0)
    np.testing.assert_allclose(p.vectors, [[r, 0.0], [r, 0.0], [0.0, 1.0]], atol=1e-14)
    assert tight_deviation(p, 1.0) <= 1e-12


def test_parsevalize_keeps_real_tag():
    p = parsevalize(random_gaussian(3, 5, 17, "real"))
    assert p.field == "real"
    assert not np.any(p.vectors.imag)


# ---------------------------------------------------------------------------
# tight completion


def test_completion_hand_case():
    added = complete_to_tight(Frame(2, [E1, E1, E2], "real"))
    np.testing.assert_allclose(added.vectors, [[0.0, 1.0]], atol=1e-12)
    combined = union(Frame(2, [E1, E1, E2], "real"), added)
    assert tight_deviation(combined, 2.0) <= 1e-12


def test_completion_with_larger_lambda():
    base = Frame(2, [E1, E1, E2], "real")
    added = complete_to_tight(base, 3.0)
    assert added.count == 2
    np.testing.assert_allclose(added.operator, np.diag([1.0, 2.0]), atol=1e-12)
    assert tight_deviation(union(base, added), 3.0) <= 1e-12


def test_completion_of_tight_frame_is_empty():
    assert complete_to_tight(onb(3)).count == 0
    assert complete_to_tight(mercedes(), 1.0).count == 0


def test_completion_rejects_small_lambda():
    with pytest.raises(LambdaTooSmall):
        complete_to_tight(Frame(2, [E1, E1, E2]), 1.5)


def test_mixed_completion_same_operator_different_vectors():
    base = Frame(2, [E1, E1, E2], "real")
    plain = complete_to_tight(base, 3.0)
    mixed = complete_to_tight(base, 3.0, mix_seed=5)
    assert mixed.field == "real"
    assert np.linalg.norm(plain.operator - mixed.operator) <= 1e-12
    assert np.linalg.norm(plain.vectors - mixed.vectors) > 1e-3
    assert tight_deviation(union(base, mixed), 3.0) <= 1e-12


# ---------------------------------------------------------------------------
# cached spectrum

SPECTRUM_FRAMES = [
    Frame(2, [E1, E1, E2], "real"),
    mercedes(),
    harmonic(3, 5),
    random_gaussian(4, 9, 3, "real"),
    random_gaussian(5, 7, 8, "complex"),
]


def test_spectrum_decomposes_once(monkeypatch):
    calls = []

    def counting_eig(m):
        calls.append(m)
        return hermitian_eig(m)

    monkeypatch.setattr(framecalc.frames, "hermitian_eig", counting_eig)
    for k, built in enumerate(SPECTRUM_FRAMES):
        fr = Frame(built.dim, built.vectors, built.field)  # nothing cached yet
        assert len(calls) == k
        lam = 2.0 * frame_bounds(fr).upper
        canonical_dual(fr)
        parsevalize(fr)
        complete_to_tight(fr)
        complete_to_tight(fr, lam, mix_seed=4)
        tight_deviation(fr, 1.0)
        span_equality_check(fr, fr)
        if frame_bounds(fr).is_tight:
            tight_identity_report(fr, [0], np.eye(fr.dim)[0])
        assert fr.spectrum is fr.spectrum
        assert len(calls) == k + 1
        assert calls[-1] is fr.operator


def test_spectrum_is_read_only():
    fr = random_gaussian(3, 5, 1, "complex")
    with pytest.raises(ValueError):
        fr.spectrum.eigenvalues[0] = 0.0
    with pytest.raises(ValueError):
        fr.spectrum.eigenvectors[0, 0] = 0.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        fr.spectrum = hermitian_eig(np.eye(3))


def _match_real(rows, field):
    return rows.real.astype(np.complex128) if field == "real" else rows


def _fresh_bounds(fr):
    w = hermitian_eig(fr.operator).eigenvalues
    lower, upper = max(float(w[0]), 0.0), max(float(w[-1]), 0.0)
    mean = float(np.mean(w))
    is_tight = mean > 0.0 and bool(np.max(np.abs(w - mean)) <= TAU_ID * mean)
    return FrameBounds(lower, upper, lower > TAU_FRAME_COEFF * upper,
                       bool(np.max(np.abs(w - 1.0)) <= TAU_ID), is_tight,
                       mean if is_tight else None)


def _fresh_completion(fr, lam, mix_seed):
    dec = hermitian_eig(fr.operator)
    w = dec.eigenvalues
    lam = float(w[-1]) if lam is None else lam
    tau = TAU_PSD_COEFF * max(1.0, float(w[-1]), abs(lam))
    wt = np.where(np.abs(lam - w) <= tau, 0.0, np.maximum(lam - w, 0.0))
    v = dec.eigenvectors
    root = hermitize((v * np.sqrt(wt)) @ v.conj().T)
    cols = root[:, np.sum(np.abs(root) ** 2, axis=0) > tau]
    if mix_seed is not None and cols.shape[1] > 0:
        cols = cols @ random_isometry(cols.shape[1], cols.shape[1], mix_seed, fr.field)
    return _match_real(cols.T, fr.field)


@pytest.mark.parametrize("fr", SPECTRUM_FRAMES)
def test_spectral_outputs_match_a_fresh_decomposition(fr):
    fr.spectrum  # cached before any of the calls below
    assert frame_bounds(fr) == _fresh_bounds(fr)
    dual = _match_real(fr.vectors @ psd_apply(fr.operator, "inverse").T, fr.field)
    assert canonical_dual(fr).vectors.tobytes() == dual.tobytes()
    companion = _match_real(fr.vectors @ psd_apply(fr.operator, "inv_sqrt").T, fr.field)
    assert parsevalize(fr).vectors.tobytes() == companion.tobytes()
    lam = 1.5 * frame_bounds(fr).upper
    for lam_arg, mix_seed in ((None, None), (lam, None), (lam, 6)):
        got = complete_to_tight(fr, lam_arg, mix_seed=mix_seed)
        assert got.vectors.tobytes() == _fresh_completion(fr, lam_arg, mix_seed).tobytes()


# ---------------------------------------------------------------------------
# unitaries, isometries, embeddings


def test_square_random_isometry_is_unitary():
    for field in ("real", "complex"):
        u = random_isometry(4, 4, 3, field)
        assert np.linalg.norm(u @ u.conj().T - np.eye(4)) <= 1e-12
        if field == "real":
            assert not np.any(u.imag)


def test_random_isometry_columns_orthonormal():
    u = random_isometry(5, 3, 8)
    assert u.shape == (5, 3)
    assert np.linalg.norm(u.conj().T @ u - np.eye(3)) <= 1e-12
    with pytest.raises(BadParams):
        random_isometry(2, 3, 0)


def test_embed_by_inclusion():
    inc = np.zeros((3, 2))
    inc[0, 0] = 1.0
    inc[1, 1] = 1.0
    sub = embed_subspace_frame(mercedes(), 3, inc)
    assert sub.frame.dim == 3
    assert sub.frame.field == "real"
    np.testing.assert_allclose(sub.projector, np.diag([1.0, 1.0, 0.0]), atol=1e-14)
    # ambient coefficients see only the first two components
    c_amb = coefficients(sub.frame, [0.3, -0.7, 5.0])
    c_flat = coefficients(mercedes(), [0.3, -0.7])
    np.testing.assert_allclose(c_amb, c_flat, atol=1e-14)


def test_embed_rejects_non_isometry():
    with pytest.raises(NotIsometry):
        embed_subspace_frame(mercedes(), 3, np.ones((3, 2)))
    with pytest.raises(DimensionMismatch):
        embed_subspace_frame(mercedes(), 3, np.eye(2))


# ---------------------------------------------------------------------------
# file round trips


def test_round_trip_exact(tmp_path):
    path = str(tmp_path / "m.json")
    fr = mercedes()
    write_frame(fr, path)
    back = read_frame(path)
    assert back.dim == fr.dim
    assert back.field == fr.field
    assert np.array_equal(back.vectors, fr.vectors)


def test_round_trip_complex(tmp_path):
    path = str(tmp_path / "h.json")
    fr = harmonic(3, 5)
    write_frame(fr, path)
    assert np.array_equal(read_frame(path).vectors, fr.vectors)


def test_document_round_trip():
    doc = frame_to_document(doubled_onb(2))
    fr = frame_from_document(doc)
    assert fr.count == 4
    assert json.dumps(doc)  # document is plain JSON data


def test_read_rejects_malformed(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("not json at all")
    with pytest.raises(FrameFormatError):
        read_frame(str(path))


def test_document_rejects_bad_shapes():
    good = frame_to_document(onb(2))
    for mutate in (
        lambda d: d.pop("dim"),
        lambda d: d.update(field="rational"),
        lambda d: d.update(vectors=[]),
        lambda d: d.update(vectors=[[[1.0, 0.0]]]),
        lambda d: d.update(dim=True),
    ):
        doc = json.loads(json.dumps(good))
        mutate(doc)
        with pytest.raises(FrameFormatError):
            frame_from_document(doc)


def test_real_document_rejects_imaginary():
    doc = frame_to_document(onb(2))
    doc["vectors"][0][1] = [0.0, 0.5]
    with pytest.raises(FrameFormatError):
        frame_from_document(doc)
