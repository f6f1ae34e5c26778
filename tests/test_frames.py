"""Frame construction, derived families, subsets, completion, and file IO."""

import dataclasses
import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import framecalc.frames

from framecalc import (
    BadParams,
    DimensionMismatch,
    Frame,
    FrameFormatError,
    IndexOutOfRange,
    LambdaTooSmall,
    NotAFrame,
    NotHermitian,
    NotIsometry,
    NotTight,
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
    partial_operator_matrix,
    random_gaussian,
    random_isometry,
    random_parseval,
    read_frame,
    subset_mask,
    tight_deviation,
    union,
    write_frame,
)
from framecalc.frames import (
    TAU_FRAME_COEFF,
    TAU_ID,
    FrameBounds,
    _bounds,
    _gaussian_group,
    _parseval_stack,
    _tightness,
    as_vector,
    norm_sq,
)
from framecalc.identities import (
    equivalence_conditions,
    general_identity_report,
    parseval_identity_report,
    span_equality_check,
    tight_extension_compare,
    tight_identity_report,
)
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


def test_frame_rejects_overflowing_operator():
    # finite vectors whose frame operator overflows to inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(BadParams, match="overflows"):
            Frame(2, [[1e200, 0.0], [0.0, 1e200]], "real")
        with pytest.raises(BadParams, match="overflows"):
            Frame(2, [[1e155, 1e155j]], "complex")
    # entries whose squares stay finite still build
    assert np.isfinite(Frame(2, [[1e150, 0.0]], "real").operator).all()


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


def _members(mask):
    return tuple(np.flatnonzero(mask).tolist())


def test_subset_coerce_sorts():
    mask = subset_mask([2, 0], 3)
    assert mask.dtype == bool and mask.shape == (3,)
    assert _members(mask) == (0, 2)


def test_subset_rejects_duplicates():
    with pytest.raises(BadParams, match="^duplicate index 1$"):
        subset_mask([1, 1], 3)
    with pytest.raises(BadParams, match="^duplicate index 0$"):
        subset_mask((0, 0), 3)
    # the duplicate check comes before the range checks
    with pytest.raises(BadParams, match="^duplicate index 5$"):
        subset_mask([5, 5, -1], 3)


def test_subset_rejects_non_integers():
    with pytest.raises(BadParams, match="^indices must be integers$"):
        subset_mask([0.7, 2.9], 3)
    with pytest.raises(BadParams, match="^indices must be integers$"):
        subset_mask(np.array([1.0]), 3)
    with pytest.raises(BadParams, match="^indices must be integers$"):
        subset_mask((0.5,), 3)
    with pytest.raises(BadParams, match="^indices must be integers$"):
        subset_mask([1, 1, 0.5], 3)
    assert _members(subset_mask(np.array([3, 1]), 4)) == (1, 3)
    assert _members(subset_mask([np.int32(2), 0], 3)) == (0, 2)


def test_subset_complement():
    assert _members(~subset_mask((0, 2), 4)) == (1, 3)
    assert _members(~subset_mask((), 3)) == (0, 1, 2)


def test_subset_range_checks():
    with pytest.raises(IndexOutOfRange, match=r"^index 5 outside \[0, 3\)$"):
        subset_mask((0, 5), 3)
    with pytest.raises(IndexOutOfRange, match="^negative index -1$"):
        subset_mask((-1, 2), 3)
    with pytest.raises(IndexOutOfRange, match="^negative index -3$"):
        subset_mask([7, -3], 3)


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


def test_partial_sum_hand_case():
    # Mercedes frame, J = {0}, f = e_1: S_J f = (2/3, 0) and S_Jc f = (1/3, 0)
    terms = parseval_identity_report(mercedes(), [0], E1).terms
    assert terms["sum_j"] == pytest.approx(2.0 / 3.0, abs=1e-15)
    assert terms["norm_sj_f"] == pytest.approx(4.0 / 9.0, abs=1e-15)
    assert terms["sum_jc"] == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert terms["norm_sjc_f"] == pytest.approx(1.0 / 9.0, abs=1e-15)
    # each condition misses by 2/9, e.g. ||S_J f - S_J^2 f|| = ||(2/3 - 4/9, 0)||
    report = equivalence_conditions(mercedes(), [0], E1)
    for cond in report.conditions:
        assert cond.residual == pytest.approx(2.0 / 9.0, abs=1e-15)


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
        terms = general_identity_report(fr, j, f).terms
        e_total = terms["sum_j"] + terms["sum_jc"]
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


def test_match_field_checks_and_strips_each_real_family_of_a_stack():
    # families: complex, real with roundoff fuzz, real with a residue of 1e-6
    stack = SplitMix64(3).normals(3 * 4 * 2, "complex").reshape(3, 4, 2)
    stack[1:] = stack[1:].real + 1e-17j
    stack[2, 1, 0] += 1e-6j
    real = np.array([False, True, True])
    with pytest.raises(BadParams, match=r"imaginary residue 1\.000e-06"):
        framecalc.frames._match_field(stack, real)
    with pytest.raises(BadParams, match=r"imaginary residue 1\.000e-06"):
        framecalc.frames._match_field(stack[2], True)
    stack[2, 1, 0] -= 1e-6j
    got = framecalc.frames._match_field(stack, real)
    assert not got[real].imag.any()
    assert got[real].real.tobytes() == stack[real].real.tobytes()
    assert got[~real].tobytes() == stack[~real].tobytes()
    family = stack[0]
    assert framecalc.frames._match_field(family, False) is family


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


def test_completion_rejects_a_non_finite_lambda():
    # NaN and +inf make `lam < lambda_max - tau` false, and so did -inf through
    # an infinite tau; the root of each kept no column, an empty completion
    frame = random_gaussian(3, 5, 2, "real")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for lam in (float("nan"), float("inf")):
            with pytest.raises(BadParams, match=f"^lam {lam} is not finite$"):
                complete_to_tight(frame, lam)
        with pytest.raises(LambdaTooSmall, match="^lam -inf below lambda_max "):
            complete_to_tight(frame, float("-inf"))
        # a stack names its first non-finite lam
        with pytest.raises(BadParams, match="^lam inf is not finite$"):
            framecalc.frames._completion(hermitian_eig(np.stack([frame.operator] * 3)),
                                         np.array([10.0, np.inf, np.nan]))


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


def test_dual_and_companion_are_computed_once():
    for built in SPECTRUM_FRAMES:
        fr = Frame(built.dim, built.vectors, built.field)  # nothing derived yet
        for derive in (canonical_dual, parsevalize):
            got = derive(fr)
            assert derive(fr) is got
            fresh = derive(Frame(fr.dim, fr.vectors, fr.field))
            assert (got.field, got.vectors.tobytes()) == (fresh.field, fresh.vectors.tobytes())
            with pytest.raises(ValueError):
                got.vectors[0, 0] = 0.0
        span_equality_check(fr, fr)
        assert not fr._span.flags.writeable


def test_the_parseval_deviation_is_computed_once():
    for built in SPECTRUM_FRAMES:
        fr = Frame(built.dim, built.vectors, built.field)  # nothing derived yet
        assert "_parseval_dev" not in vars(fr)
        dev = fr._parseval_dev
        assert type(dev) is float
        assert np.float64(dev).tobytes() == np.abs(fr.spectrum.eigenvalues - 1).max().tobytes()
        frame_bounds(fr)
        if frame_bounds(fr).is_parseval:
            parseval_identity_report(fr, [0], np.eye(fr.dim)[0])
        assert fr._parseval_dev is dev  # a recomputed float would be a new object


@pytest.mark.parametrize("fr", SPECTRUM_FRAMES)
def test_is_parseval_reads_the_memoized_deviation(fr):
    assert frame_bounds(fr).is_parseval == (fr._parseval_dev <= TAU_ID)


def test_a_non_frame_raises_on_every_call_and_caches_nothing():
    fr = Frame(2, [E1, E1])
    for _ in range(2):
        for call in (canonical_dual, parsevalize,
                     lambda fr: general_identity_report(fr, [0], E1)):
            with pytest.raises(NotAFrame):
                call(fr)
    assert not {"_dual", "_parseval"} & set(vars(fr))


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


def test_random_isometry_rejects_an_unknown_field():
    with pytest.raises(BadParams, match="^field must be one of "):
        random_isometry(3, 2, 1, "quaternion")


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


# |x| <= 1e150 keeps every entry of S = sum_i f_i f_i^* finite at these sizes
_ENTRIES = st.one_of(
    st.sampled_from((0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e150, -1e150)),
    st.floats(min_value=-1e150, max_value=1e150),
)


@st.composite
def _frames(draw):
    field = draw(st.sampled_from(("real", "complex")))
    dim, count = draw(st.integers(1, 4)), draw(st.integers(1, 5))
    size = dim * count
    # a real frame has zero imaginary parts, of either sign
    im_entries = st.sampled_from((0.0, -0.0)) if field == "real" else _ENTRIES
    rows = np.empty(size, dtype=np.complex128)
    rows.real = draw(st.lists(_ENTRIES, min_size=size, max_size=size))
    rows.imag = draw(st.lists(im_entries, min_size=size, max_size=size))
    return Frame(dim, rows.reshape(count, dim), field)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(d=st.integers(1, 16), data=st.data())
def test_a_parseval_stack_row_is_bitwise_random_parseval(d, data):
    # random_parseval is the stack of one family, so this pins that a family
    # does not depend on its stack-mates; the sweeps' orthogonal unions and
    # general reductions rely on this
    families = data.draw(st.lists(st.tuples(st.integers(d, 4 * d), st.integers(0, 2**64 - 1),
                                            st.sampled_from(("real", "complex"))),
                                  min_size=1, max_size=5))
    counts, seeds, fields = (list(column) for column in zip(*families))
    stack = _parseval_stack(d, counts, seeds, fields)
    assert stack.shape == (len(families), max(counts), d)
    for rows, n, seed, field in zip(stack, counts, seeds, fields):
        assert rows[:n].tobytes() == random_parseval(d, n, seed, field).vectors.tobytes()
        assert not rows[n:].any()


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(d=st.integers(1, 16), data=st.data())
def test_a_gaussian_group_family_is_bitwise_random_gaussian(d, data):
    # the stacked first attempts and the redraw loop are two definitions of
    # one seeded draw; a family must not depend on its group-mates
    families = data.draw(st.lists(st.tuples(st.integers(1, 64), st.integers(0, 2**64 - 1),
                                            st.sampled_from(("real", "complex"))),
                                  min_size=1, max_size=5))
    counts, seeds, fields = (list(column) for column in zip(*families))
    stack = _gaussian_group(d, counts, seeds, fields)[0]
    assert stack.shape == (len(families), max(counts), d)
    for rows, n, seed, field in zip(stack, counts, seeds, fields):
        assert rows[:n].tobytes() == random_gaussian(d, n, seed, field).vectors.tobytes()
        assert not rows[n:].any()


_NOT_TIGHT = random_gaussian(3, 5, 1, "complex")
_LAM = 4.0 * frame_bounds(_NOT_TIGHT).upper
_COMPLETIONS = (complete_to_tight(_NOT_TIGHT, _LAM), complete_to_tight(_NOT_TIGHT, _LAM, 2))
# each seeded entry point, as a function of its seed with a comparable result
_SEEDED = {
    "random_parseval": lambda seed: random_parseval(2, 3, seed).vectors.tobytes(),
    "random_gaussian": lambda seed: random_gaussian(3, 4, seed).vectors.tobytes(),
    "random_isometry": lambda seed: random_isometry(4, 2, seed).tobytes(),
    "complete_to_tight": lambda seed: complete_to_tight(_NOT_TIGHT, None, seed).vectors.tobytes(),
    "tight_extension_compare": lambda seed: tight_extension_compare(
        _NOT_TIGHT, *_COMPLETIONS, _LAM, E1 + [0.5], 20, seed),
}


@pytest.mark.parametrize("entry", _SEEDED)
def test_a_seed_must_be_an_integer(entry):
    call = _SEEDED[entry]
    for bad in (1.5, True):
        with pytest.raises(BadParams, match="seed must be an integer"):
            call(bad)
    assert call(np.int64(7)) == call(7)


@pytest.mark.parametrize("d", range(1, 17))
def test_a_gaussian_group_row_is_bitwise_random_gaussian(d):
    # the redraw loop draws through random_gaussian and every stacked first
    # attempt through _gaussian_group: two definitions of one seeded draw
    families = [(n, seed, field) for n in sorted({1, d, 2 * d + 1, 64})
                for seed in (0, 7, 2**64 - 3) for field in ("real", "complex")]
    singles = [random_gaussian(d, n, seed, field).vectors for n, seed, field in families]
    for rows, (n, seed, field) in zip(singles, families):
        alone = _gaussian_group(d, [n], [seed], [field])[0]
        assert alone.shape == (1, n, d)
        assert alone[0].tobytes() == rows.tobytes()
    counts, seeds, fields = (list(column) for column in zip(*families))
    stack = _gaussian_group(d, counts, seeds, fields)[0]
    assert stack.shape == (len(families), 64, d)
    for member, rows, n in zip(stack, singles, counts):
        assert member[:n].tobytes() == rows.tobytes()
        assert not member[n:].any()


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(fr=_frames())
def test_write_read_round_trip_is_bit_exact(tmp_path_factory, fr):
    path = str(tmp_path_factory.mktemp("round_trip") / "f.json")
    write_frame(fr, path)
    back = read_frame(path)
    assert (back.dim, back.field) == (fr.dim, fr.field)
    assert back.vectors.tobytes() == fr.vectors.tobytes()


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


# ---------------------------------------------------------------------------
# the frame-bound and tightness rules, each one stacked kernel

# sizes and counts of every entry point that takes them, each as a function
# of that one argument with a comparable result
_SIZED = {
    "Frame.dim": lambda k: Frame(k, np.eye(3)).vectors.tobytes(),
    "onb": lambda k: onb(k).vectors.tobytes(),
    "doubled_onb": lambda k: doubled_onb(k).vectors.tobytes(),
    "harmonic.dim": lambda k: harmonic(k, 5).vectors.tobytes(),
    "harmonic.count": lambda k: harmonic(2, k).vectors.tobytes(),
    "random_gaussian.dim": lambda k: random_gaussian(k, 4, 1).vectors.tobytes(),
    "random_gaussian.count": lambda k: random_gaussian(2, k, 1).vectors.tobytes(),
    "random_parseval.dim": lambda k: random_parseval(k, 4, 1).vectors.tobytes(),
    "random_parseval.count": lambda k: random_parseval(2, k, 1).vectors.tobytes(),
    "random_isometry.ambient_dim": lambda k: random_isometry(k, 2, 1).tobytes(),
    "random_isometry.dim": lambda k: random_isometry(4, k, 1).tobytes(),
}


@pytest.mark.parametrize("entry", _SIZED)
def test_a_size_must_be_an_integer(entry):
    call = _SIZED[entry]
    for bad in (2.5, True, "3"):
        with pytest.raises(BadParams, match="must be an integer, got"):
            call(bad)
    assert call(np.int64(3)) == call(3)


def test_harmonic_refuses_a_fractional_count():
    # 4.5 used to give 5 vectors over sqrt(4.5), which is not Parseval
    with pytest.raises(BadParams, match="^count must be an integer, got 4.5$"):
        harmonic(2, 4.5)


# ascending spectra of PSD operators: exact zeros, Gram roundoff below zero,
# ordinary values, and values large enough that a mean of 2 of them overflows
_EIGENVALUES = st.one_of(
    st.sampled_from((0.0, -1e-17, 1.0, 8e307)),
    st.floats(min_value=0.0, max_value=1e3),
    st.floats(min_value=0.0, max_value=8e307),
)


@st.composite
def _spectra(draw):
    d, k = draw(st.integers(1, 16)), draw(st.integers(1, 6))
    entries = draw(st.lists(_EIGENVALUES, min_size=d * k, max_size=d * k))
    return np.sort(np.array(entries).reshape(k, d), axis=-1)


def _bits(values) -> list[bytes]:
    return [np.asarray(v).tobytes() for v in values]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(w=_spectra(), data=st.data())
def test_a_stacked_rule_is_each_familys_own(w, data):
    lams = np.array(data.draw(st.lists(_EIGENVALUES, min_size=len(w), max_size=len(w))))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # an overflowing mean must not warn either
        stacked = [_bounds(w), _tightness(w), _tightness(w, lams), _tightness(w, 1.0, 1e-6)]
        for k, row in enumerate(w):
            alone = [_bounds(row), _tightness(row), _tightness(row, lams[k]),
                     _tightness(row, 1.0, 1e-6)]
            for together, single in zip(stacked, alone):
                # a scalar lam comes back as given, once for the whole stack
                assert _bits([np.broadcast_to(v, len(w))[k] for v in together]) == _bits(single)
    lam = stacked[1][0]
    with np.errstate(over="ignore"):
        assert np.array_equal(np.isinf(lam), np.isinf(w.sum(axis=-1) / w.shape[-1]))


@st.composite
def _tightness_frames(draw):
    """Tight frames at scales from 0 to past the mean's overflow, some with one
    vector stretched, and Gaussian frames, which are not tight."""
    d = draw(st.integers(1, 5))
    kind = draw(st.sampled_from(("doubled_onb", "harmonic", "gaussian")))
    if kind == "gaussian":
        return random_gaussian(d, draw(st.integers(1, 8)), draw(st.integers(0, 2**64 - 1)))
    rows = (doubled_onb(d) if kind == "doubled_onb"
            else harmonic(d, draw(st.integers(d, 8)))).vectors.copy()
    rows *= draw(st.sampled_from((0.0, 1e-150, 1.0, 3.0, 1e100, 9e153)))
    rows[0] *= draw(st.sampled_from((1.0, 1.0, 1.0 + 1e-12, 1.0 + 1e-8, 1.1)))
    return Frame(d, rows, "real" if kind == "doubled_onb" else "complex")


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(fr=_tightness_frames())
def test_frame_bounds_and_the_tight_report_agree_on_tightness(fr):
    try:
        tight_identity_report(fr, [], np.zeros(fr.dim))
        reported = True
    except NotTight:
        reported = False
    bounds = frame_bounds(fr)
    assert bounds.is_tight == reported
    assert (bounds.tight_value is None) == (not reported)


def test_an_overflowing_mean_is_not_tight_and_does_not_warn():
    fr = Frame(3, 9e153 * np.eye(3), "real")  # S = 8.1e307 * I
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        bounds = frame_bounds(fr)
        assert (bounds.is_tight, bounds.tight_value) == (False, None)
        assert (bounds.lower, bounds.upper, bounds.is_frame) == (8.1e307, 8.1e307, True)
        with pytest.raises(NotTight, match="^tight value inf is not finite$"):
            tight_identity_report(fr, [], [1.0, 0.0, 0.0])


def test_the_frame_bounds_are_clamped_at_zero():
    lower, upper, is_frame, cond = _bounds(np.array([[-1e-17, 1.0], [-3e-17, -1e-17]]))
    assert lower.tolist() == [0.0, 0.0] and upper.tolist() == [1.0, 0.0]
    assert is_frame.tolist() == [False, False] and cond.tolist() == [1.0, 0.0]
