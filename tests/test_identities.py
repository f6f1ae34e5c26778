"""Hand-derived oracle values and invariants for every identity and check."""

import itertools
import math

import numpy as np
import pytest
from bruteforce import general_sides, overlap_sides, tight_sides

from framecalc import (
    EOverlapsJ,
    Frame,
    NotParseval,
    NotTight,
    PreconditionFailed,
    doubled_onb,
    equivalence_conditions,
    general_identity_report,
    half_bound_check,
    harmonic,
    mercedes,
    onb,
    operator_identity_check,
    overlap_identity_report,
    parseval_identity_report,
    partial_operator_matrix,
    partial_structure_check,
    random_parseval,
    self_adjoint_product_check,
    span_equality_check,
    subspace_identity_report,
    three_quarters_check,
    tight_extension_compare,
    tight_identity_report,
    embed_subspace_frame,
)
from framecalc.frames import (
    TAU_ID,
    coefficients,
    complete_to_tight,
    frame_bounds,
    random_gaussian,
)
from framecalc.linalg import frobenius
from framecalc.rng import SplitMix64

E1 = [1.0, 0.0]
E2 = [0.0, 1.0]
PAIR = Frame(2, [E1, E1, E2], "real")  # operator diag(2, 1), not Parseval


# ---------------------------------------------------------------------------
# Parseval energy split


def test_pfi_mercedes_hand_value():
    # coefficients sqrt(2/3) * (1, -1/2, -1/2); both sides come out 2/9
    rep = parseval_identity_report(mercedes(), [0], E1)
    assert abs(rep.lhs - 2.0 / 9.0) <= 1e-12
    assert abs(rep.rhs - 2.0 / 9.0) <= 1e-12
    assert rep.passed
    assert abs(rep.terms["sum_j"] - 2.0 / 3.0) <= 1e-12
    assert abs(rep.terms["norm_sj_f"] - 4.0 / 9.0) <= 1e-12
    assert abs(rep.terms["sum_jc"] - 1.0 / 3.0) <= 1e-12
    assert abs(rep.terms["norm_sjc_f"] - 1.0 / 9.0) <= 1e-12


def test_pfi_doubled_onb_hand_value():
    rep = parseval_identity_report(doubled_onb(2), [0], E1)
    assert abs(rep.lhs - 0.25) <= 1e-12
    assert abs(rep.rhs - 0.25) <= 1e-12


def test_pfi_empty_and_full_subsets():
    f = [0.3, -1.2]
    for subset in ([], [0, 1, 2]):
        rep = parseval_identity_report(mercedes(), subset, f)
        assert abs(rep.lhs) <= 1e-12
        assert abs(rep.rhs) <= 1e-12


def test_pfi_sides_nonnegative():
    rng = SplitMix64(31)
    for trial in range(50):
        d = 2 + trial % 3
        n = d + 1 + trial % 4
        fr = random_parseval(d, n, int(rng.raw(1)[0]), "complex")
        sub = rng.subset(n)
        f = rng.complex_gaussians(d)
        rep = parseval_identity_report(fr, sub, f)
        assert rep.passed
        assert rep.lhs >= -1e-10
        assert rep.rhs >= -1e-10


def test_pfi_rejects_non_parseval():
    with pytest.raises(NotParseval):
        parseval_identity_report(PAIR, [0], E1)


# ---------------------------------------------------------------------------
# general (dual-weighted) split


def test_general_hand_value():
    # dual of {e1, e1, e2} is {e1/2, e1/2, e2}; both sides come out 1/2
    rep = general_identity_report(PAIR, [0], E1)
    assert abs(rep.lhs - 0.5) <= 1e-12
    assert abs(rep.rhs - 0.5) <= 1e-12
    assert rep.passed


def test_general_reduces_to_pfi_on_parseval():
    f = [0.6, -0.8]
    rep_g = general_identity_report(mercedes(), [0, 2], f)
    rep_p = parseval_identity_report(mercedes(), [0, 2], f)
    assert abs(rep_g.lhs - rep_p.lhs) <= 1e-12
    assert abs(rep_g.rhs - rep_p.rhs) <= 1e-12


def test_general_full_subset_balances():
    rep = general_identity_report(PAIR, [0, 1, 2], [0.5, 2.0])
    assert rep.passed
    assert abs(rep.lhs - rep.rhs) <= 1e-12


# ---------------------------------------------------------------------------
# tight split


def test_tight_hand_value():
    # {e1, e1, e2, e2} is 2-tight; both sides come out 1
    fr = Frame(2, [E1, E1, E2, E2], "real")
    rep = tight_identity_report(fr, [0], E1, lam=2.0)
    assert abs(rep.lhs - 1.0) <= 1e-12
    assert abs(rep.rhs - 1.0) <= 1e-12
    assert rep.passed


def test_tight_lambda_inferred():
    fr = Frame(2, [E1, E1, E2, E2], "real")
    rep = tight_identity_report(fr, [0], E1)
    assert abs(rep.lhs - 1.0) <= 1e-12


def test_tight_reduces_to_pfi_at_lambda_one():
    rep_t = tight_identity_report(mercedes(), [0], E1, lam=1.0)
    rep_p = parseval_identity_report(mercedes(), [0], E1)
    assert abs(rep_t.lhs - rep_p.lhs) <= 1e-14
    assert abs(rep_t.rhs - rep_p.rhs) <= 1e-14


def test_tight_scaling_squares_the_sides():
    # scaling vectors by sqrt(lam) turns Parseval sides s into lam^2 * s
    lam = 1.5
    scaled = mercedes().scaled(np.sqrt(lam))
    rep = tight_identity_report(scaled, [0], E1, lam=lam)
    assert abs(rep.lhs - lam * lam * (2.0 / 9.0)) <= 1e-12
    assert abs(rep.lhs - 0.5) <= 1e-12


def test_tight_rejects_untight():
    with pytest.raises(NotTight):
        tight_identity_report(PAIR, [0], E1, lam=2.0)


@pytest.mark.parametrize("lam", [None, 0.0, -1.0, float("nan")])
def test_tight_rejects_non_positive_lambda(lam):
    # the all-zero family is 0-tight, where a tolerance scaled by lam vanishes
    with pytest.raises(NotTight, match="not positive"):
        tight_identity_report(Frame(2, np.zeros((3, 2)), "real"), [0], E1, lam=lam)


# ---------------------------------------------------------------------------
# disjoint growth of the subset


def test_overlap_hand_value():
    # J = {0}, E = {1} on the equiangular triple: both sides come out 2/3
    rep = overlap_identity_report(mercedes(), [0], [1], E1)
    assert abs(rep.lhs - 2.0 / 3.0) <= 1e-12
    assert abs(rep.rhs - 2.0 / 3.0) <= 1e-12
    assert rep.passed


def test_overlap_empty_growth():
    rep = overlap_identity_report(mercedes(), [0], [], E1)
    assert abs(rep.lhs - rep.rhs) <= 1e-14
    assert abs(rep.terms["twice_energy_e"]) == 0.0


def test_overlap_full_growth():
    # E = complement turns the left side into ||f||^2 - 0
    rep = overlap_identity_report(mercedes(), [0], [1, 2], E1)
    assert abs(rep.lhs - 1.0) <= 1e-12
    assert abs(rep.rhs - 1.0) <= 1e-12


def test_overlap_rejects_intersection():
    with pytest.raises(EOverlapsJ):
        overlap_identity_report(mercedes(), [0, 1], [1], E1)


# ---------------------------------------------------------------------------
# subspace embedding


def _inclusion(ambient, dim):
    u = np.zeros((ambient, dim))
    for k in range(dim):
        u[k, k] = 1.0
    return u


def test_subspace_matches_flat_report():
    sub = embed_subspace_frame(mercedes(), 3, _inclusion(3, 2))
    f_amb = [0.3, -0.7, 5.0]
    rep = subspace_identity_report(sub, [0], f_amb)
    flat = parseval_identity_report(mercedes(), [0], [0.3, -0.7])
    assert rep.passed
    assert abs(rep.lhs - flat.lhs) <= 1e-12
    assert abs(rep.rhs - flat.rhs) <= 1e-12
    assert rep.terms["projection_dev"] <= 1e-12


def test_subspace_orthogonal_vector_gives_zero():
    sub = embed_subspace_frame(mercedes(), 3, _inclusion(3, 2))
    rep = subspace_identity_report(sub, [0, 1], [0.0, 0.0, 4.0])
    assert rep.passed
    assert abs(rep.lhs) <= 1e-12
    assert abs(rep.rhs) <= 1e-12
    assert abs(rep.terms["sum_j"]) <= 1e-12


def test_subspace_rejects_non_parseval_embedding():
    sub = embed_subspace_frame(PAIR, 3, _inclusion(3, 2))
    with pytest.raises(NotParseval):
        subspace_identity_report(sub, [0], [1.0, 0.0, 0.0])


# ---------------------------------------------------------------------------
# lower bounds for the mixed quantity


def test_three_quarters_attained_by_doubled_basis():
    chk = three_quarters_check(doubled_onb(2), [0], E1)
    assert abs(chk.value - 0.75) <= 1e-12
    assert abs(chk.complement_value - 0.75) <= 1e-12
    assert chk.passed


def test_half_bound_trivial_subsets():
    chk = half_bound_check(mercedes(), [], [1.0, 1.0])
    # empty J leaves 0 + ||S f||^2 = ||f||^2
    assert abs(chk.value - 2.0) <= 1e-12
    assert chk.passed


def test_bounds_hold_over_random_splits():
    rng = SplitMix64(32)
    for trial in range(50):
        d = 2 + trial % 3
        n = d + trial % 5
        fr = random_parseval(d, n, int(rng.raw(1)[0]), "real")
        sub = rng.subset(n)
        f = rng.gaussians(d)
        tq = three_quarters_check(fr, sub, f)
        assert tq.passed
        assert tq.value >= 0.75 * float(np.dot(f, f)) - 1e-9
        assert half_bound_check(fr, sub, f).passed


# ---------------------------------------------------------------------------
# operator-level structure of a Parseval split


def test_partial_structure_mercedes():
    chk = partial_structure_check(mercedes(), [0])
    assert chk.passed
    assert chk.residual_identity <= 1e-14
    assert chk.min_eig_product >= -1e-12
    # S_J S_Jc is (2/9) E11 here
    s_j = partial_operator_matrix(mercedes(), [0])
    s_jc = partial_operator_matrix(mercedes(), [1, 2])
    np.testing.assert_allclose(s_j @ s_jc, np.diag([2.0 / 9.0, 0.0]), atol=1e-14)


def test_partial_structure_onb_projector():
    chk = partial_structure_check(onb(3), [0, 2])
    assert chk.passed
    assert chk.residual_identity <= 1e-14
    assert abs(chk.min_eig_product) <= 1e-14


def test_operator_identity_hand_cases():
    assert operator_identity_check(np.eye(2) / 2.0, np.eye(2) / 2.0).residual <= 1e-14
    s = np.diag([2.0 / 3.0, 1.0 / 6.0])
    chk = operator_identity_check(s, np.eye(2) - s)
    assert chk.passed
    assert chk.residual <= 1e-12


def test_operator_identity_without_self_adjointness():
    # the difference identity needs only S + T = I, not symmetry
    s = np.array([[0.5, 1.0], [0.0, 0.5]])
    chk = operator_identity_check(s, np.eye(2) - s)
    assert chk.passed
    assert chk.residual <= 1e-12


def test_operator_identity_requires_resolution():
    with pytest.raises(PreconditionFailed):
        operator_identity_check(np.eye(2), np.eye(2))


def test_self_adjoint_product_hermitian_case():
    h = np.diag([0.3, 0.8])
    chk = self_adjoint_product_check(h, np.eye(2) - h)
    assert chk.s_self_adjoint and chk.t_self_adjoint
    assert chk.product_self_adjoint
    assert chk.equivalence_holds


def test_self_adjoint_product_non_hermitian_case():
    # S* T = [[1/4, -1/2], [1/2, -3/4]] is not symmetric
    s = np.array([[0.5, 1.0], [0.0, 0.5]])
    chk = self_adjoint_product_check(s, np.eye(2) - s)
    assert not chk.s_self_adjoint
    assert not chk.product_self_adjoint
    assert chk.equivalence_holds


# ---------------------------------------------------------------------------
# six-way equivalence


def test_equivalence_onb_all_true():
    rep = equivalence_conditions(onb(3), [0, 1], [1.0, 2.0, 3.0])
    assert all(c.holds for c in rep.conditions)
    assert rep.consistent
    assert not rep.borderline
    assert [c.label for c in rep.conditions] == ["i", "ii", "iii", "iv", "v", "vi"]


def test_equivalence_mercedes_all_false():
    rep = equivalence_conditions(mercedes(), [0], E1)
    assert not any(c.holds for c in rep.conditions)
    assert rep.consistent
    # all six residuals come out exactly 2/9 for this split
    for c in rep.conditions:
        assert abs(c.residual - 2.0 / 9.0) <= 1e-12


def test_equivalence_zero_vector_all_true():
    rep = equivalence_conditions(mercedes(), [0], [0.0, 0.0])
    assert all(c.holds for c in rep.conditions)
    assert rep.consistent


def test_equivalence_borderline_band():
    # residuals sit exactly at tolerance 2/9, inside the factor-10 band
    rep = equivalence_conditions(mercedes(), [0], E1, tolerance=2.0 / 9.0)
    assert rep.borderline


def test_equivalence_harmonic_split():
    rep = equivalence_conditions(harmonic(2, 4), [0, 2], [1.0, 1.0j])
    assert rep.consistent


# ---------------------------------------------------------------------------
# span comparison and tight completion comparison


def test_span_disjoint_spans():
    chk = span_equality_check(Frame(2, [E1]), Frame(2, [E2]))
    assert not chk.operators_equal
    assert not chk.spans_equal
    assert chk.lemma_respected


def test_span_equal_operators_force_equal_spans():
    chk = span_equality_check(Frame(2, [E1]), Frame(2, [[-1.0, 0.0]]))
    assert chk.operators_equal
    assert chk.spans_equal
    assert chk.lemma_respected


def test_span_full_dimension():
    rotated = Frame(2, np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0))
    chk = span_equality_check(onb(2), rotated)
    assert chk.operators_equal
    assert chk.spans_equal


def test_span_dim_mismatch():
    with pytest.raises(PreconditionFailed):
        span_equality_check(onb(2), onb(3))


def test_extension_compare_hand_case():
    # two different completions of {e1, e1, e2} to tight value 2
    base = PAIR
    first = Frame(2, [E2], "real")
    r = 1.0 / np.sqrt(2.0)
    second = Frame(2, [[0.0, r], [0.0, r]], "real")
    chk = tight_extension_compare(base, first, second, 2.0, E1)
    assert chk.passed
    assert chk.energy_equal
    assert chk.operator_equal
    assert chk.span_equal
    assert chk.max_energy_rel_diff <= 1e-12


def test_extension_compare_rejects_untight_union():
    with pytest.raises(NotTight):
        tight_extension_compare(PAIR, Frame(2, [E1], "real"), Frame(2, [E2], "real"), 2.0, E1)


def _extension_compare_reference(base, added_first, added_second, lam, f, trials, seed,
                                 tolerance=TAU_ID):
    """tight_extension_compare with one stream draw per probe, as first written."""
    field = "complex" if "complex" in (
        base.field, added_first.field, added_second.field
    ) else "real"
    rng = SplitMix64(seed)
    probes = [np.asarray(f, dtype=np.complex128)]
    for _ in range(trials):
        if field == "real":
            g = rng.gaussians(base.dim).astype(np.complex128)
        else:
            g = rng.complex_gaussians(base.dim)
        norm = float(np.linalg.norm(g))
        if norm > 0.0:
            g = g / norm
        probes.append(g)
    max_rel = 0.0
    for g in probes:
        e1 = float(np.sum(np.abs(coefficients(added_first, g)) ** 2))
        e2 = float(np.sum(np.abs(coefficients(added_second, g)) ** 2))
        max_rel = max(max_rel, abs(e1 - e2) / max(1.0, e1, e2))
    energy_equal = max_rel <= tolerance
    s1, s2 = added_first.operator, added_second.operator
    operator_equal = frobenius(s1 - s2) <= tolerance * max(1.0, frobenius(s1), frobenius(s2))
    span_equal = span_equality_check(added_first, added_second, tolerance).spans_equal
    return (max_rel, bool(energy_equal), bool(operator_equal), bool(span_equal),
            bool(energy_equal and operator_equal and span_equal))


@pytest.mark.parametrize("field", ["real", "complex"])
@pytest.mark.parametrize("d", [1, 2, 3, 5, 15, 16])
def test_extension_compare_block_probes_match_per_probe_draws(d, field):
    for seed in (0, 11, 2**40 + 3):
        base = random_gaussian(d, d + 3, seed, field)
        lam = 1.5 * frame_bounds(base).upper
        canonical = complete_to_tight(base, lam)
        mixed = complete_to_tight(base, lam, mix_seed=seed + 1)
        f = SplitMix64(seed + 2).gaussians(d)
        for trials in (0, 1, 20, 100):
            got = tight_extension_compare(base, canonical, mixed, lam, f, trials, seed + 3)
            assert (got.max_energy_rel_diff, got.energy_equal, got.operator_equal,
                    got.span_equal, got.passed) == _extension_compare_reference(
                        base, canonical, mixed, lam, f, trials, seed + 3)


# ---------------------------------------------------------------------------
# pure-Python oracle on the small exhaustive corpus

SMALL_CORPUS = [
    mercedes(),
    doubled_onb(2),
    harmonic(2, 4),
    random_parseval(2, 3, 11, "real"),
    random_parseval(2, 4, 12, "complex"),
    random_parseval(2, 5, 13, "real"),
    random_parseval(3, 4, 14, "complex"),
    random_parseval(3, 5, 15, "real"),
]
# general frames that are neither Parseval nor tight, for the dual-weighted form
GAUSSIAN_CORPUS = [
    random_gaussian(2, 3, 21, "real"),
    random_gaussian(2, 5, 22, "complex"),
    random_gaussian(3, 4, 23, "complex"),
    random_gaussian(3, 5, 24, "real"),
]


def _oracle_cases(frames):
    """(frame, its vectors as lists, probe) for e_0 and two seeded unit vectors."""
    for which, fr in enumerate(frames):
        rng = SplitMix64(303).derive(which)
        probes = [np.eye(fr.dim, dtype=np.complex128)[0]]
        probes += [rng.unit_vector(fr.dim, fr.field) for _ in range(2)]
        vecs = [[complex(z) for z in row] for row in fr.vectors]
        for f in probes:
            yield fr, vecs, [complex(z) for z in f]


def _assert_matches_oracle(rep, oracle):
    lhs, rhs, terms = oracle
    assert set(rep.terms) == set(terms)
    for got, want in [(rep.lhs, lhs), (rep.rhs, rhs)] + [(rep.terms[k], terms[k]) for k in terms]:
        assert abs(got - want) <= 1e-10 * max(1.0, abs(want))


def test_tight_report_matches_oracle_on_every_subset():
    lam = 2.5
    for fr, vecs, f in _oracle_cases(SMALL_CORPUS):
        scaled = fr.scaled(np.sqrt(lam))
        svecs = [[z * math.sqrt(lam) for z in row] for row in vecs]
        for subset in itertools.product((False, True), repeat=fr.count):
            j = [i for i in range(fr.count) if subset[i]]
            rep = tight_identity_report(scaled, j, f, lam=lam, tolerance=1e-10)
            _assert_matches_oracle(rep, tight_sides(svecs, j, f, lam))


def test_general_report_matches_oracle_on_every_subset():
    for fr, vecs, f in _oracle_cases(SMALL_CORPUS + GAUSSIAN_CORPUS):
        for subset in itertools.product((False, True), repeat=fr.count):
            j = [i for i in range(fr.count) if subset[i]]
            rep = general_identity_report(fr, j, f, tolerance=1e-10)
            _assert_matches_oracle(rep, general_sides(vecs, j, f))


def test_overlap_report_matches_oracle_on_every_disjoint_pair():
    for fr, vecs, f in _oracle_cases(SMALL_CORPUS):
        # each index lies in J (1), in E (2), or in neither (0)
        for labels in itertools.product((0, 1, 2), repeat=fr.count):
            j = [i for i in range(fr.count) if labels[i] == 1]
            e = [i for i in range(fr.count) if labels[i] == 2]
            rep = overlap_identity_report(fr, j, e, f, tolerance=1e-10)
            _assert_matches_oracle(rep, overlap_sides(vecs, j, e, f))
