"""Hand-derived oracle values and invariants for every identity and check."""

import itertools
import math
import re
import warnings

import numpy as np
import pytest
from bruteforce import general_sides, overlap_sides, tight_sides
from hypothesis import given, settings, strategies as st

from framecalc import (
    BadParams,
    DimensionMismatch,
    EOverlapsJ,
    Frame,
    FrameError,
    IndexOutOfRange,
    NotParseval,
    NotTight,
    PreconditionFailed,
    RunConfig,
    bessel_inequality_check,
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
    random_isometry,
    random_parseval,
    self_adjoint_product_check,
    span_equality_check,
    subspace_identity_report,
    three_quarters_check,
    tight_extension_compare,
    tight_identity_report,
    embed_subspace_frame,
)
from framecalc import frames, identities, linalg
from framecalc.frames import (
    TAU_ID,
    canonical_dual,
    coefficients,
    complete_to_tight,
    frame_bounds,
    random_gaussian,
)
from framecalc.identities import _bound_verdict, _equivalence_verdict, _probe_blocks, _residual
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


# each report that needs a Parseval frame, on one frame
_PARSEVAL_ONLY = {
    "parseval": lambda fr: parseval_identity_report(fr, [0], E1),
    "overlap": lambda fr: overlap_identity_report(fr, [0], [1], E1),
    "half": lambda fr: half_bound_check(fr, [0], E1),
    "three_quarters": lambda fr: three_quarters_check(fr, [0], E1),
    "partial_structure": lambda fr: partial_structure_check(fr, [0]),
    "equivalence": lambda fr: equivalence_conditions(fr, [0], E1),
}


@pytest.mark.parametrize("entry", _PARSEVAL_ONLY)
def test_a_non_parseval_frame_raises_on_every_call(entry):
    # the deviation is memoized on the frame, the check is not: PAIR's
    # operator diag(2, 1) deviates by 1, and every call raises
    fr = Frame(2, PAIR.vectors, "real")
    message = "frame operator deviates from identity by 1.000e+00 (> 1.0e-09)"
    for _ in range(3):
        with pytest.raises(NotParseval) as excinfo:
            _PARSEVAL_ONLY[entry](fr)
        assert str(excinfo.value) == message
    assert fr._parseval_dev == 1.0
    _PARSEVAL_ONLY[entry](mercedes())  # and a Parseval frame passes the check


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


def test_general_report_reads_the_memoized_dual():
    fr = random_gaussian(4, 9, 3, "real")
    f = [0.3, -0.5, 0.7, 0.2]
    first = general_identity_report(fr, [0, 3, 4], f)
    assert general_identity_report(fr, [0, 3, 4], f) == first
    assert general_identity_report(fr, [0, 3, 4], f, dual=canonical_dual(fr)) == first


def test_span_and_extension_checks_repeat_on_one_frame():
    base = random_gaussian(3, 5, 1, "complex")
    lam = 1.5 * frame_bounds(base).upper
    trio = [base, complete_to_tight(base, lam), complete_to_tight(base, lam, 4)]
    copies = [Frame(fr.dim, fr.vectors, fr.field) for fr in trio]  # nothing derived yet
    compare = tight_extension_compare(*trio, lam, [1.0, 0.5, -2.0], 20, 3)
    spans = span_equality_check(*trio[1:])
    for _ in range(2):
        assert tight_extension_compare(*trio, lam, [1.0, 0.5, -2.0], 20, 3) == compare
        assert span_equality_check(*trio[1:]) == spans
    assert tight_extension_compare(*copies, lam, [1.0, 0.5, -2.0], 20, 3) == compare
    assert span_equality_check(*copies[1:]) == spans
    assert compare.passed and spans.spans_equal


def test_extension_compare_rejects_untight_union():
    with pytest.raises(NotTight):
        tight_extension_compare(PAIR, Frame(2, [E1], "real"), Frame(2, [E2], "real"), 2.0, E1)


def test_extension_compare_rejects_an_untight_second_union():
    # the first completion is good; the second adds only half of e2 e2^*, so
    # the scalar lam must broadcast over both unions to name the second's gap
    half = Frame(2, [[0.0, 1.0 / np.sqrt(2.0)]], "real")
    with pytest.raises(NotTight, match="^eigenvalues deviate from 2 by 5.000e-01$"):
        tight_extension_compare(PAIR, Frame(2, [E2], "real"), half, 2.0, E1)


EMPTY = Frame(2, np.zeros((0, 2)), "real")


def test_extension_compare_judges_a_small_lambda_relative_to_it():
    # both unions miss 1e-3-tightness by 1e-10, 100 * tol relative to lam;
    # a tolerance floored at tol * max(1, lam) = 1e-9 would pass them
    base = Frame(2, [[np.sqrt(1e-3), 0.0], [0.0, np.sqrt(1e-3 + 1e-10)]], "real")
    with pytest.raises(NotTight, match="^eigenvalues deviate from 0.001 by 1.000e-10$"):
        tight_extension_compare(base, EMPTY, EMPTY, 1e-3, E1)


def test_extension_compare_rejects_the_zero_tight_value():
    # the all-zero family is 0-tight, as in tight_identity_report
    zero = Frame(2, np.zeros((3, 2)), "real")
    with pytest.raises(NotTight, match="^tight value 0 is not positive$"):
        tight_extension_compare(zero, EMPTY, EMPTY, 0.0, E1)


@pytest.mark.parametrize("trials", [-1, 2.5, "3", True])
def test_extension_compare_rejects_a_bad_trial_count(trials):
    # a count that is not an integer (a bool included) fails frames.as_integer,
    # a negative one the range check after it
    rule = "a non-negative integer" if type(trials) is int else "an integer"
    with pytest.raises(BadParams, match=f"^trials must be {rule}, got {re.escape(repr(trials))}$"):
        tight_extension_compare(PAIR, Frame(2, [E2], "real"), Frame(2, [E2], "real"), 2.0, E1,
                                trials=trials)


def test_extension_compare_takes_a_numpy_integer_trial_count():
    first, second = Frame(2, [E2], "real"), Frame(2, [E2], "real")
    compare = tight_extension_compare(PAIR, first, second, 2.0, E1, trials=3)
    assert tight_extension_compare(PAIR, first, second, 2.0, E1, trials=np.int64(3)) == compare


def test_extension_compare_rejects_mismatched_dims_and_overflowing_unions():
    good, wide = Frame(2, [E2], "real"), Frame(3, [[0.0, 0.0, 1.0]], "real")
    for first, second in ((wide, good), (good, wide)):
        with pytest.raises(DimensionMismatch, match="^dims differ: 2 vs 3$"):
            tight_extension_compare(PAIR, first, second, 2.0, E1)
    # each operator is 0.6e308, but the union's, hermitized, overflows
    big = Frame(1, [[np.sqrt(0.6e308)]], "real")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(BadParams, match="^frame operator overflows: vectors are too large$"):
            tight_extension_compare(big, big, big, 1.2e308, [1.0])


@pytest.mark.parametrize("lam", [float("nan"), float("inf"), float("-inf")])
def test_tight_checks_reject_a_non_finite_lambda(lam):
    # only an explicit guard rejects these: at lam = inf the deviation test
    # reads inf > tol * inf, and a NaN deviation compares false; both checks
    # share that guard, and NaN and -inf are not positive
    r = 1.0 / np.sqrt(2.0)
    second = Frame(2, [[0.0, r], [0.0, r]], "real")
    tight = random_parseval(3, 7, 1, "real").scaled(2.0)
    named = "finite" if lam == float("inf") else "positive"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NotTight, match=f"^tight value {lam:.6g} is not {named}$"):
            tight_extension_compare(PAIR, Frame(2, [E2], "real"), second, lam, E1)
        with pytest.raises(NotTight, match=f"^tight value {lam:.6g} is not {named}$"):
            tight_identity_report(tight, [0, 2], [0.3, -0.5, 0.7], lam)


def _per_probe_draws(f, d, field, trials, seed):
    """The probes of tight_extension_compare drawn one stream call per
    probe and normalized one at a time, as first written."""
    rng = SplitMix64(seed)
    probes = [np.asarray(f, dtype=np.complex128)]
    for _ in range(trials):
        if field == "real":
            g = rng.gaussians(d).astype(np.complex128)
        else:
            g = rng.complex_gaussians(d)
        norm = float(np.linalg.norm(g))
        if norm > 0.0:
            g = g / norm
        probes.append(g)
    return probes


def _extension_compare_reference(base, added_first, added_second, lam, f, trials, seed,
                                 tolerance=TAU_ID):
    """tight_extension_compare with per-probe draws and per-probe energies."""
    field = "complex" if "complex" in (
        base.field, added_first.field, added_second.field
    ) else "real"
    max_rel = 0.0
    for g in _per_probe_draws(f, base.dim, field, trials, seed):
        e1 = float(np.sum(np.abs(coefficients(added_first, g)) ** 2))
        e2 = float(np.sum(np.abs(coefficients(added_second, g)) ** 2))
        max_rel = max(max_rel, abs(e1 - e2) / max(1.0, e1, e2))
    energy_equal = max_rel <= tolerance
    s1, s2 = added_first.operator, added_second.operator
    operator_equal = frobenius(s1 - s2) <= tolerance * max(1.0, frobenius(s1), frobenius(s2))
    span_equal = span_equality_check(added_first, added_second, tolerance).spans_equal
    return (max_rel, bool(energy_equal), bool(operator_equal), bool(span_equal),
            bool(energy_equal and operator_equal and span_equal))


def _assert_matches_reference(got, ref):
    # every verdict is exact; the blocked energies sum in another order than
    # the per-probe ones, so the residual agrees only to roundoff
    assert (got.energy_equal, got.operator_equal, got.span_equal, got.passed) == ref[1:]
    assert abs(got.max_energy_rel_diff - ref[0]) <= 1e-14
    assert got.max_energy_rel_diff <= 1e-12 and ref[0] <= 1e-12


_PROBE_SEEDS = (0, 11, 2**40 + 3)
_PROBE_TRIALS = (0, 1, 20, 100)


@pytest.mark.parametrize("fields", [["real"], ["complex"], ["real", "complex", "real", "complex"]],
                         ids=["real", "complex", "mixed"])
@pytest.mark.parametrize("d", [1, 2, 3, 5, 15, 16])
def test_probe_blocks_are_bitwise_the_per_probe_draws(d, fields):
    # one family, and a stack of families of both fields side by side
    for seed in _PROBE_SEEDS:
        seeds = [seed + 3 + 5 * k for k in range(len(fields))]
        f = np.array([SplitMix64(s - 1).gaussians(d) for s in seeds])
        for trials in _PROBE_TRIALS:
            blocks = _probe_blocks(f, d, fields, trials, seeds)
            assert blocks.shape == (len(fields), trials + 1, d)
            for block, f_k, field, s in zip(blocks, f, fields, seeds):
                ref = np.array(_per_probe_draws(f_k, d, field, trials, s))
                assert block.tobytes() == ref.tobytes()


@pytest.mark.parametrize("field", ["real", "complex"])
@pytest.mark.parametrize("d", [1, 2, 3, 5, 15, 16])
def test_extension_compare_block_probes_match_per_probe_draws(d, field):
    for seed in _PROBE_SEEDS:
        base = random_gaussian(d, d + 3, seed, field)
        lam = 1.5 * frame_bounds(base).upper
        canonical = complete_to_tight(base, lam)
        mixed = complete_to_tight(base, lam, mix_seed=seed + 1)
        f = SplitMix64(seed + 2).gaussians(d)
        for trials in _PROBE_TRIALS:
            got = tight_extension_compare(base, canonical, mixed, lam, f, trials, seed + 3)
            _assert_matches_reference(got, _extension_compare_reference(
                base, canonical, mixed, lam, f, trials, seed + 3))


def test_extension_compare_empty_added_family():
    # onb(3) is already 1-tight: the canonical completion adds no vectors,
    # and a family of zero vectors adds nothing either
    base = onb(3)
    empty = complete_to_tight(base, 1.0)
    zeros = Frame(3, np.zeros((2, 3)), "real")
    assert empty.count == 0
    for first, second in ((empty, empty), (empty, zeros)):
        got = tight_extension_compare(base, first, second, 1.0, [1.0, 2.0, 0.0], 20, 5)
        assert got.passed
        assert got.max_energy_rel_diff == 0.0
        _assert_matches_reference(got, _extension_compare_reference(
            base, first, second, 1.0, [1.0, 2.0, 0.0], 20, 5))


def test_extension_compare_zero_norm_probe_is_left_unnormalized(monkeypatch):
    draw = SplitMix64.normals

    def normals_with_a_zero_row(self, count, field):
        g = draw(self, count, field)
        g[: count // 5] = 0.0  # five probes are drawn: zero the first
        return g

    monkeypatch.setattr(SplitMix64, "normals", normals_with_a_zero_row)
    for field, d in (("real", 3), ("complex", 5)):
        with np.errstate(all="raise"):
            block = _probe_blocks(np.ones((1, d)), d, [field], 5, [1])[0]
        assert not block[1].any()
        assert np.allclose(np.linalg.norm(block[2:], axis=1), 1.0)
    base = PAIR
    first = Frame(2, [E2], "real")
    r = 1.0 / np.sqrt(2.0)
    second = Frame(2, [[0.0, r], [0.0, r]], "real")
    got = tight_extension_compare(base, first, second, 2.0, E1, 5, 1)
    assert got.passed
    assert got.max_energy_rel_diff <= 1e-12


# ---------------------------------------------------------------------------
# the index subset J, checked by every entry that takes one

_BAD_SUBSETS = {
    "duplicate": ([1, 1], BadParams, "duplicate index 1"),
    "too_large": ([0, 3], IndexOutOfRange, "index 3 outside [0, 3)"),
    "negative": ([-1], IndexOutOfRange, "negative index -1"),
    "float": ([0.5], BadParams, "indices must be integers"),
}
_IN_R3 = embed_subspace_frame(mercedes(), 3, np.eye(3)[:, :2])
_SUBSET_ENTRIES = {
    "parseval": lambda j: parseval_identity_report(mercedes(), j, E1),
    "general": lambda j: general_identity_report(mercedes(), j, E1),
    "tight": lambda j: tight_identity_report(mercedes(), j, E1),
    "overlap_j": lambda j: overlap_identity_report(mercedes(), j, [], E1),
    "overlap_e": lambda j: overlap_identity_report(mercedes(), [], j, E1),
    "subspace": lambda j: subspace_identity_report(_IN_R3, j, [1.0, 0.0, 0.0]),
    "half": lambda j: half_bound_check(mercedes(), j, E1),
    "three_quarters": lambda j: three_quarters_check(mercedes(), j, E1),
    "partial_structure": lambda j: partial_structure_check(mercedes(), j),
    "equivalence": lambda j: equivalence_conditions(mercedes(), j, E1),
    "partial_operator_matrix": lambda j: partial_operator_matrix(mercedes(), j),
}


@pytest.mark.parametrize("bad", sorted(_BAD_SUBSETS))
@pytest.mark.parametrize("entry", sorted(_SUBSET_ENTRIES))
def test_every_subset_entry_rejects_a_bad_subset(entry, bad):
    subset, error, message = _BAD_SUBSETS[bad]
    with pytest.raises(FrameError) as excinfo:
        _SUBSET_ENTRIES[entry](subset)
    assert excinfo.type is error
    assert str(excinfo.value) == message


# ---------------------------------------------------------------------------
# the tolerance, checked by every entry that takes one: a value that is not a
# finite number > 0 raises BadParams before any check runs

_UNTIGHT_BASE = Frame(2, [E1, [0.0, 0.5]], "real")  # S = diag(1, 0.25): unions diag(2, 1.25)
_TOLERANCE_ENTRIES = {
    "parseval": lambda tol: parseval_identity_report(PAIR, [0], E1, tol),
    "general": lambda tol: general_identity_report(PAIR, [0], E1, tol),
    "tight": lambda tol: tight_identity_report(PAIR, [0], E1, tolerance=tol),
    "overlap": lambda tol: overlap_identity_report(PAIR, [0], [1], E1, tol),
    "subspace": lambda tol: subspace_identity_report(
        embed_subspace_frame(PAIR, 3, np.eye(3)[:, :2]), [0], [1.0, 0.0, 0.0], tol),
    "half": lambda tol: half_bound_check(PAIR, [0], E1, tol),
    "three_quarters": lambda tol: three_quarters_check(PAIR, [0], E1, tol),
    "partial_structure": lambda tol: partial_structure_check(PAIR, [0], tol),
    "operator_identity": lambda tol: operator_identity_check(np.eye(2), np.eye(2), tol),
    "self_adjoint_product": lambda tol: self_adjoint_product_check(np.eye(2), np.eye(2), tol),
    "equivalence": lambda tol: equivalence_conditions(PAIR, [0], E1, tol),
    "span_equality": lambda tol: span_equality_check(Frame(2, [E1]), Frame(2, [E2]), tol),
    "extension_compare": lambda tol: tight_extension_compare(
        _UNTIGHT_BASE, onb(2), onb(2), 2.0, E1, tolerance=tol),
}


@pytest.mark.parametrize("tolerance", [float("nan"), float("inf"), float("-inf"), 0.0, -1.0])
@pytest.mark.parametrize("entry", sorted(_TOLERANCE_ENTRIES))
def test_every_tolerance_entry_rejects_a_tolerance_that_is_not_finite_and_positive(
        entry, tolerance):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(BadParams, match="^tolerance must be a finite number > 0, got "):
            _TOLERANCE_ENTRIES[entry](tolerance)


_R = 1.0 / np.sqrt(2.0)
# every public call that takes a vector f, as a function of f
_VECTOR_ENTRIES = {
    "coefficients": lambda f: coefficients(mercedes(), f),
    "bessel": lambda f: bessel_inequality_check(mercedes(), f),
    "parseval": lambda f: parseval_identity_report(mercedes(), [0], f),
    "general": lambda f: general_identity_report(mercedes(), [0], f),
    "tight": lambda f: tight_identity_report(mercedes(), [0], f),
    "overlap": lambda f: overlap_identity_report(mercedes(), [0], [1], f),
    "subspace": lambda f: subspace_identity_report(
        embed_subspace_frame(mercedes(), 2, np.eye(2)), [0], f),
    "half": lambda f: half_bound_check(mercedes(), [0], f),
    "three_quarters": lambda f: three_quarters_check(mercedes(), [0], f),
    "equivalence": lambda f: equivalence_conditions(mercedes(), [0], f),
    "extension_compare": lambda f: tight_extension_compare(
        PAIR, Frame(2, [E2], "real"), Frame(2, [[0.0, _R], [0.0, _R]], "real"), 2.0, f),
}


@pytest.mark.parametrize("f", ["ab", {}, object(), [1.0, "a"], [10**400, 0]],
                         ids=["str", "dict", "object", "mixed", "huge_int"])
@pytest.mark.parametrize("entry", _VECTOR_ENTRIES)
def test_a_vector_that_does_not_convert_raises_bad_params(entry, f):
    with pytest.raises(BadParams, match="^vector does not convert to complex numbers: "):
        _VECTOR_ENTRIES[entry](f)
    _VECTOR_ENTRIES[entry](E1)  # and a vector that converts is checked as before


@pytest.mark.parametrize("tolerance", ["abc", None, [1e-9], 10**400, "1e-9", b"1e-9", True])
def test_a_tolerance_that_is_not_a_number_raises_bad_params(tolerance):
    message = f"tolerance must be a finite number > 0, got {tolerance!r}"
    with pytest.raises(BadParams) as excinfo:
        parseval_identity_report(PAIR, [0], E1, tolerance)
    assert str(excinfo.value) == message
    if tolerance is not None:  # RunConfig's default
        with pytest.raises(BadParams) as excinfo:
            RunConfig(seed=1, trials=1, tolerance=tolerance)
        assert str(excinfo.value) == message


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


# ---------------------------------------------------------------------------
# the identity's symmetries, as properties of the pfi, general and tight reports


@st.composite
def _split_cases(draw):
    """(kind, frame, J, f, extra): a Parseval, lam-tight or conditioned
    Gaussian frame with a subset J and a unit f; extra holds lam for
    "tight" and, for "general", the dual (canonical, or 10% too long)."""
    kind = draw(st.sampled_from(("pfi", "general", "tight")))
    field = draw(st.sampled_from(("real", "complex")))
    d = draw(st.integers(1, 6))
    n = draw(st.integers(d, 12))
    seed = draw(st.integers(0, 2**32 - 1))
    if kind == "general":
        fr = next(g for g in (random_gaussian(d, n, seed + k, field) for k in range(100))
                  if frame_bounds(g).upper <= 1e3 * frame_bounds(g).lower)
        dual = canonical_dual(fr)
        extra = {"dual": Frame(d, dual.vectors * 1.1, field) if draw(st.booleans()) else dual}
    else:
        fr = random_parseval(d, n, seed, field)
        extra = {}
        if kind == "tight":
            lam = draw(st.sampled_from((0.25, 3.0, 8.0)))
            fr, extra = Frame(d, fr.vectors * math.sqrt(lam), field), {"lam": lam}
    subset = [i for i, kept in enumerate(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
              if kept]
    f = SplitMix64(seed).derive(1).unit_vector(d, field)
    return kind, fr, subset, f, extra


def _split(kind, fr, subset, f, extra):
    if kind == "pfi":
        return parseval_identity_report(fr, subset, f)
    if kind == "tight":
        return tight_identity_report(fr, subset, f, extra["lam"])
    return general_identity_report(fr, subset, f, dual=extra["dual"])


def _scale(rep):
    return max(1.0, abs(rep.lhs), abs(rep.rhs), *(abs(t) for t in rep.terms.values()))


_SYMMETRY = settings(max_examples=150, deadline=None, derandomize=True, database=None)


@_SYMMETRY
@given(case=_split_cases())
def test_swapping_j_and_its_complement_swaps_the_sides_bitwise(case):
    kind, fr, subset, f, extra = case
    rep = _split(kind, fr, subset, f, extra)
    swapped = _split(kind, fr, sorted(set(range(fr.count)) - set(subset)), f, extra)
    assert (swapped.lhs, swapped.rhs) == (rep.rhs, rep.lhs)
    names = list(rep.terms)  # [energy_J, metric_J, energy_Jc, metric_Jc]
    assert [swapped.terms[k] for k in names] == [rep.terms[k] for k in names[2:] + names[:2]]
    assert swapped.passed == rep.passed


@_SYMMETRY
@given(case=_split_cases(), data=st.data())
def test_permuting_the_frame_and_j_together_keeps_the_sides(case, data):
    kind, fr, subset, f, extra = case
    perm = data.draw(st.permutations(range(fr.count)))
    # position k of the permuted frame holds vector perm[k]
    moved = [k for k in range(fr.count) if perm[k] in set(subset)]
    moved_extra = extra
    if kind == "general":
        moved_extra = {"dual": Frame(fr.dim, extra["dual"].vectors[perm], fr.field)}
    rep = _split(kind, fr, subset, f, extra)
    out = _split(kind, Frame(fr.dim, fr.vectors[perm], fr.field), moved, f, moved_extra)
    assert abs(out.lhs - rep.lhs) <= 1e-12 * _scale(rep)
    assert abs(out.rhs - rep.rhs) <= 1e-12 * _scale(rep)
    assert out.passed == rep.passed


@_SYMMETRY
@given(case=_split_cases(), basis_seed=st.integers(0, 2**32 - 1))
def test_a_unitary_change_of_basis_keeps_every_verdict(case, basis_seed):
    kind, fr, subset, f, extra = case
    u = random_isometry(fr.dim, fr.dim, basis_seed, fr.field)
    # f_i -> U f_i for the rows of the frame (and of the dual), f -> U f
    turned_extra = extra
    if kind == "general":
        turned_extra = {"dual": Frame(fr.dim, extra["dual"].vectors @ u.T, fr.field)}
    rep = _split(kind, fr, subset, f, extra)
    out = _split(kind, Frame(fr.dim, fr.vectors @ u.T, fr.field), subset, u @ f, turned_extra)
    assert out.passed == rep.passed
    for name, term in rep.terms.items():
        assert abs(out.terms[name] - term) <= 1e-12 * _scale(rep), name


# ---------------------------------------------------------------------------
# stacked verdicts: a family's verdict is the one it gets alone, and the
# scalar rules of max(1.0, ...) hold on every stack, non-finite terms included

_HOSTILE = st.one_of(st.floats(width=64), st.floats(-2.0, 2.0),
                     st.sampled_from([0.0, -0.0, 1.0, 5e-324, -5e-324, 1e-300, 1e300, -1e300,
                                      math.inf, -math.inf, math.nan]))


@st.composite
def _verdict_stacks(draw, rows: int):
    """(rows, size) hostile values, one column per family."""
    size = draw(st.integers(1, 5))
    return np.array(draw(st.lists(st.lists(_HOSTILE, min_size=size, max_size=size),
                                  min_size=rows, max_size=rows)), dtype=np.float64)


def _bitwise(stacked, alone) -> bool:
    """Equal in every bit but a NaN's payload and sign."""
    a, b = np.asarray(stacked), np.asarray(alone)
    if a.dtype == bool or b.dtype == bool:
        return a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b)
    nan = np.isnan(a)
    return (a.shape == b.shape and np.array_equal(nan, np.isnan(b))
            and np.array_equal(a[~nan].view(np.uint64), b[~nan].view(np.uint64)))


def _python_scale(values) -> float:
    return max(1.0, *(abs(v) for v in values))


_VERDICTS = settings(max_examples=150, deadline=None, derandomize=True, database=None)
_TOLERANCES = st.sampled_from([1e-9, 1e-12, 0.5])


@_VERDICTS
@given(stack=_verdict_stacks(6), tolerance=_TOLERANCES)
def test_a_stacked_residual_is_each_familys_own(stack, tolerance):
    lhs, rhs, *terms = stack
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # Python-float arithmetic: no warning at inf or NaN
        stacked = _residual(lhs, rhs, terms)
        for k in range(lhs.size):
            column = stack[:, k].tolist()
            alone = _residual(column[0], column[1], column[2:])
            assert all(_bitwise(s[k], a) for s, a in zip(stacked, alone)), k
            # a public report takes the same floor on Python floats, in _report
            rep = identities._report(column[0], column[1], dict(enumerate(column[2:])), tolerance)
            assert _bitwise(stacked[0][k], rep.abs_diff) and _bitwise(stacked[1][k], rep.rel_diff)
            assert type(rep.rel_diff) is float and rep.passed == (stacked[1][k] <= tolerance)
            # the scalar rule it replaces: a NaN value never becomes the scale
            scale = _python_scale(column)
            assert not math.isnan(scale)
            assert _bitwise(stacked[1][k], abs(column[0] - column[1]) / scale)
    if np.isnan(stack).any():
        # np.maximum, unlike fmax, would carry a NaN term into the scale
        assert np.isnan(np.maximum.reduce(np.abs(stack), axis=0, initial=1.0)).any()


@_VERDICTS
@given(stack=_verdict_stacks(5), coefficient=st.sampled_from([0.5, 0.75]),
       tolerance=_TOLERANCES)
def test_a_stacked_bound_is_each_familys_own(stack, coefficient, tolerance):
    sides, norm_f = stack[:4], stack[4]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        stacked = _bound_verdict(sides, norm_f, coefficient, tolerance)
        for k in range(norm_f.size):
            sum_j, norm_j, sum_jc, norm_jc, nf = stack[:, k].tolist()
            alone = _bound_verdict([sum_j, norm_j, sum_jc, norm_jc], nf, coefficient, tolerance)
            assert all(_bitwise(s[k], a) for s, a in zip(stacked, alone)), k
            value, complement = sum_j + norm_jc, sum_jc + norm_j
            scale = _python_scale([value, complement, nf])
            assert _bitwise(stacked[3][k], abs(value - complement) / scale)


@_VERDICTS
@given(stack=_verdict_stacks(7), tolerance=_TOLERANCES)
def test_a_stacked_equivalence_is_each_familys_own(stack, tolerance):
    residuals, norm_f = stack[:6], stack[6]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        stacked = _equivalence_verdict(residuals, norm_f, tolerance)
        for k in range(norm_f.size):
            column = stack[:, k].tolist()
            alone = _equivalence_verdict(column[:6], column[6], tolerance)
            assert all(_bitwise(s[..., k], a) for s, a in zip(stacked, alone)), k
            scale = _python_scale(column[6:])
            assert _bitwise(stacked[0][:, k], [r / scale for r in column[:6]])


# ---------------------------------------------------------------------------
# the result records: each field order is the key order of a record's
# dict form, and so of every JSON document built from it

_RECORD_FIELDS = {
    identities.IdentityReport: (
        "lhs", "rhs", "abs_diff", "rel_diff", "tolerance", "passed", "terms"),
    identities.BoundCheck: (
        "value", "bound", "complement_value", "symmetry_rel_diff", "passed"),
    identities.PartialStructure: (
        "residual_identity", "min_eig_product", "min_eig_gap", "herm_defect_product", "passed"),
    identities.OperatorIdentityCheck: ("residual", "passed"),
    identities.SelfAdjointProductCheck: (
        "s_self_adjoint", "t_self_adjoint", "product_self_adjoint", "equivalence_holds"),
    identities.ConditionResult: ("label", "residual", "holds"),
    identities.EquivalenceReport: ("conditions", "consistent", "borderline", "tolerance"),
    identities.SpanEquality: ("operators_equal", "spans_equal", "lemma_respected"),
    identities.TightExtensionCompare: (
        "union_tight_devs", "energy_equal", "operator_equal", "span_equal",
        "max_energy_rel_diff", "passed"),
    frames.FrameBounds: (
        "lower", "upper", "is_frame", "is_parseval", "is_tight", "tight_value"),
    frames.BesselCheck: ("lhs1", "rhs1", "lhs2", "rhs2", "passed"),
    frames.SubspaceFrame: ("ambient_dim", "frame", "projector"),
    linalg.EigenDecomposition: ("eigenvalues", "eigenvectors"),
}


@pytest.mark.parametrize("record", _RECORD_FIELDS, ids=lambda record: record.__name__)
def test_a_record_keeps_its_field_order_and_is_immutable(record):
    fields = _RECORD_FIELDS[record]
    assert record._fields == fields
    value = record._make(range(len(fields)))
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(value, name, -1)
    with pytest.raises(AttributeError):
        value.extra = -1
