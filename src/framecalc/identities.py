"""Energy-split identities, bounds, and equivalence checks.

The central fact verified here: for a Parseval frame and any index subset
J with complement Jc,

    sum_{i in J} |<f, f_i>|^2 - ||S_J f||^2
        = sum_{i in Jc} |<f, f_i>|^2 - ||S_Jc f||^2

with both sides nonnegative. Around it sit the relatives: the general-frame
version (partial energy measured against the canonical dual), the lam-tight
scaling, the overlapping-subset correction term, the subspace-embedded
version, the 1/2 and 3/4 lower bounds for the mixed quantity
sum_J + ||S_Jc f||^2, the operator-level structure of S_J (difference and
product formulas, positivity), a six-way equivalence for when the energy
split is exact, and span/operator comparisons for tight completions.

Every equality produces an IdentityReport. Residuals are scaled by the one
floor, linalg._scale, of |lhs|, |rhs| and every recorded term: the sides
are small differences of the recorded degree-2 terms, which set the
cancellation scale. A verdict survives rescaling f or the frame only while
the largest term is at least 1 and finite: below 1 the floor makes the
check absolute (the README's Tolerances section shows a false pass at f
scaled by 1e-6), and a term that overflows makes the report non-finite.
Every public check takes its tolerance through frames.as_tolerance, so a
tolerance that is not a finite number > 0 raises BadParams.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    BadParams,
    DimensionMismatch,
    EOverlapsJ,
    NotParseval,
    NotTight,
    PreconditionFailed,
)
from .frames import (
    TAU_FRAME_COEFF,
    TAU_ID,
    Frame,
    SubspaceFrame,
    _analysis,
    _energy,
    _partial_operator,
    _synthesis,
    _union_operator,
    as_tolerance,
    as_vector,
    canonical_dual,
    coefficients,
    norm_sq,
    subset_mask,
)
from .linalg import (
    TAU_HERM,
    EigenDecomposition,
    _adjoint,
    _first_failure,
    _scale,
    as_matrix,
    frobenius,
    hermitian_defect,
    hermitian_eigvals,
    hermitize,
)
from .rng import SplitMix64


@dataclass(frozen=True)
class IdentityReport:
    """One verified equality: sides, residual, and the terms behind them."""

    lhs: float
    rhs: float
    abs_diff: float
    rel_diff: float
    tolerance: float
    passed: bool
    terms: dict[str, float]


def _report(lhs: float, rhs: float, terms: dict[str, float], tolerance: float,
            extra_ok: bool = True) -> IdentityReport:
    abs_diff, rel_diff = map(float, _residual(lhs, rhs, terms.values()))
    return IdentityReport(
        lhs=float(lhs),
        rhs=float(rhs),
        abs_diff=abs_diff,
        rel_diff=rel_diff,
        tolerance=float(tolerance),
        passed=bool(rel_diff <= tolerance) and bool(extra_ok),
        terms={k: float(v) for k, v in terms.items()},
    )


def _require_parseval(eigenvalues: np.ndarray, tolerance: float) -> None:
    """NotParseval unless each spectrum in (..., d) lies within tolerance of 1."""
    dev = np.abs(eigenvalues - 1.0).max(axis=-1)
    k = _first_failure(dev > tolerance)
    if k is not None:
        raise NotParseval(
            f"frame operator deviates from identity by {np.ravel(dev)[k]:.3e} (> {tolerance:.1e})"
        )


def _require_tight(eigenvalues: np.ndarray, lam, tolerance: float) -> None:
    """NotTight unless each lam is positive (the all-zero family would
    otherwise pass at lam = 0, where the tolerance vanishes) and finite
    (at lam = inf the tolerance is inf too), and each spectrum in (..., d)
    lies within tolerance * lam of its lam, which broadcasts over them."""
    lam = np.asarray(lam, dtype=np.float64)
    k = _first_failure(~(lam > 0.0) | (lam == np.inf))
    if k is not None:
        bad = np.ravel(lam)[k]
        raise NotTight(f"tight value {bad:.6g} is not {'finite' if bad > 0.0 else 'positive'}")
    dev = np.abs(eigenvalues - lam[..., None]).max(axis=-1)
    k = _first_failure(dev > tolerance * lam)
    if k is not None:
        lam = np.ravel(np.broadcast_to(lam, dev.shape))  # one lam may serve several spectra
        raise NotTight(f"eigenvalues deviate from {lam[k]:.6g} by {np.ravel(dev)[k]:.3e}")


# ---------------------------------------------------------------------------
# kernels: arrays in, arrays out, broadcast over any leading batch axes. A
# family is vectors (..., n, d), possibly zero-padded to a common n; c = F f
# (..., n) are the analysis coefficients of f and mask (..., n) is J. A
# padded row is zero in vectors and in c, so it adds nothing on either side.
# The public reports validate their inputs, call a kernel on one family, and
# wrap the result; the sweeps call the same kernels on a whole stack.


def _residual(lhs, rhs, terms) -> tuple:
    """(|lhs - rhs|, relative residual) of each family's lhs = rhs, scaled
    by _scale of both sides and every recorded term. The arithmetic is that
    of Python floats: inf and NaN pass through without a warning."""
    with np.errstate(over="ignore", invalid="ignore"):
        abs_diff = abs(lhs - rhs)
        return abs_diff, abs_diff / _scale([lhs, rhs, *terms])


def _energy_split(vectors: np.ndarray, c: np.ndarray, mask: np.ndarray,
                  weight=1.0) -> list:
    """[weight * sum_J |c_i|^2, S_J f, weight * sum_Jc |c_i|^2, S_Jc f].

    With c_J the coefficients zeroed outside J, sum_J |c_i|^2 = ||c_J||^2
    and S_J f = sum_i (c_J)_i f_i. With S_J + S_Jc = S, every identity below
    is "weighted subset energy minus a metric of the partial sum" on both
    sides; the variants differ only in the weight (a scalar or one per
    family), the metric, and the masks they pass.
    """
    sides = []
    for m in (mask, ~mask):
        c_m = np.where(m, c, 0.0)
        sides += [weight * norm_sq(c_m), _synthesis(vectors, c_m)]
    return sides


def _norm_sides(vectors: np.ndarray, c: np.ndarray, mask: np.ndarray, weight=1.0) -> list:
    """_energy_split with the squared-norm metric:
    [energy_J, ||S_J f||^2, energy_Jc, ||S_Jc f||^2]."""
    e_j, sj_f, e_jc, sjc_f = _energy_split(vectors, c, mask, weight)
    return [e_j, norm_sq(sj_f), e_jc, norm_sq(sjc_f)]


def _split_lhs_rhs(sides) -> tuple:
    """(lhs, rhs) = (sides[0] - sides[1], sides[2] - sides[3]) of the four split terms."""
    return sides[0] - sides[1], sides[2] - sides[3]


def _split_report(names: tuple[str, ...], sides, tolerance: float,
                  **extra) -> IdentityReport:
    """The split identity of _split_lhs_rhs; sides become the named terms."""
    return _report(*_split_lhs_rhs(sides), dict(zip(names, sides)), tolerance, **extra)


_PARSEVAL_TERMS = ("sum_j", "norm_sj_f", "sum_jc", "norm_sjc_f")
_TIGHT_TERMS = ("lam_sum_j", "norm_sj_f", "lam_sum_jc", "norm_sjc_f")
_GENERAL_TERMS = ("sum_j", "dual_energy_sj_f", "sum_jc", "dual_energy_sjc_f")


def _general_sides(vectors: np.ndarray, dual: np.ndarray, c: np.ndarray,
                   mask: np.ndarray) -> list:
    """_energy_split with the dual-energy metric, sum_i |<g, dual_i>|^2 of
    g = S_J f and g = S_Jc f: the _GENERAL_TERMS."""
    e_j, sj_f, e_jc, sjc_f = _energy_split(vectors, c, mask)
    return [e_j, _energy(_analysis(dual, sj_f)), e_jc, _energy(_analysis(dual, sjc_f))]


def parseval_identity_report(frame: Frame, subset, f, tolerance: float = TAU_ID) -> IdentityReport:
    """Energy-split identity for a Parseval frame.

    lhs = sum_J |<f, f_i>|^2 - ||S_J f||^2, rhs the same over the
    complement. Both sides are also nonnegative; the recorded terms let the
    caller check that separately.

    Raises NotParseval when the frame operator is not the identity within
    tolerance.
    """
    tolerance = as_tolerance(tolerance)
    _require_parseval(frame.spectrum.eigenvalues, tolerance)
    mask = subset_mask(subset, frame.count)
    c = coefficients(frame, f)
    return _split_report(_PARSEVAL_TERMS, _norm_sides(frame.vectors, c, mask), tolerance)


def general_identity_report(frame: Frame, subset, f, tolerance: float = TAU_ID,
                            dual: Frame | None = None) -> IdentityReport:
    """Energy-split identity for an arbitrary frame, via the canonical dual.

    lhs = sum_J |<f, f_i>|^2 - sum_all |<S_J f, dual_i>|^2, rhs the same
    with the complement. Reduces to the Parseval identity when S = I
    (the dual is then the frame itself).

    dual, when given, is a Frame g_1, ..., g_n used in place of the
    canonical dual, as is and unchecked. The identity is the one for the
    canonical dual S^{-1} f_i: with any other family, an alternate dual
    (sum_i <f, f_i> g_i = f for every f) included, the two sides in general
    differ, and the report records them as they come out.

    Raises NotAFrame (from the dual) when the family is not a frame and no
    dual is given.
    """
    tolerance = as_tolerance(tolerance)
    if dual is None:
        dual = canonical_dual(frame)
    mask = subset_mask(subset, frame.count)
    c = coefficients(frame, f)
    return _split_report(_GENERAL_TERMS, _general_sides(frame.vectors, dual.vectors, c, mask),
                         tolerance)


def tight_identity_report(frame: Frame, subset, f, lam: float | None = None,
                          tolerance: float = TAU_ID) -> IdentityReport:
    """Energy-split identity for a lam-tight frame.

    lhs = lam * sum_J |<f, f_i>|^2 - ||S_J f||^2, rhs over the complement.
    With lam omitted, the mean eigenvalue of the frame operator is used.

    Raises NotTight when lam is not positive (the all-zero family would
    otherwise pass at lam = 0, where the tolerance vanishes) or when some
    eigenvalue differs from lam by more than tolerance * lam.
    """
    tolerance = as_tolerance(tolerance)
    w = frame.spectrum.eigenvalues
    lam = float(np.mean(w)) if lam is None else float(lam)
    _require_tight(w, lam, tolerance)
    mask = subset_mask(subset, frame.count)
    c = coefficients(frame, f)
    return _split_report(_TIGHT_TERMS, _norm_sides(frame.vectors, c, mask, weight=lam),
                         tolerance)


_OVERLAP_TERMS = ("norm_s_j_union_e_f", "norm_s_jc_minus_e_f", "norm_sj_f", "norm_sjc_f",
                  "twice_energy_e")


def _overlap_terms(vectors: np.ndarray, c: np.ndarray, j: np.ndarray, e: np.ndarray) -> list:
    """The _OVERLAP_TERMS, for J and a disjoint E."""
    _, n_je, _, n_jce = _norm_sides(vectors, c, j | e)
    _, n_j, _, n_jc = _norm_sides(vectors, c, j)
    return [n_je, n_jce, n_j, n_jc, 2.0 * norm_sq(np.where(e, c, 0.0))]


def _overlap_lhs_rhs(terms) -> tuple:
    """(lhs, rhs) of the overlap identity from its five terms."""
    n_je, n_jce, n_j, n_jc, twice_energy_e = terms
    return n_je - n_jce, n_j - n_jc + twice_energy_e


def overlap_identity_report(frame: Frame, subset_j, subset_e, f,
                            tolerance: float = TAU_ID) -> IdentityReport:
    """Parseval energy split when J grows by a set E disjoint from it.

    ||S_{J u E} f||^2 - ||S_{Jc \\ E} f||^2
        = ||S_J f||^2 - ||S_Jc f||^2 + 2 sum_E |<f, f_i>|^2

    Raises EOverlapsJ when E meets J, NotParseval as usual.
    """
    tolerance = as_tolerance(tolerance)
    _require_parseval(frame.spectrum.eigenvalues, tolerance)
    j = subset_mask(subset_j, frame.count)
    e = subset_mask(subset_e, frame.count)
    overlap = np.flatnonzero(j & e).tolist()
    if overlap:
        raise EOverlapsJ(f"E meets J at {overlap}")
    terms = _overlap_terms(frame.vectors, coefficients(frame, f), j, e)
    return _report(*_overlap_lhs_rhs(terms), dict(zip(_OVERLAP_TERMS, terms)), tolerance)


def subspace_identity_report(sub: SubspaceFrame, subset, f,
                             tolerance: float = TAU_ID) -> IdentityReport:
    """Energy split for a Parseval frame of a subspace, with an ambient vector.

    The identity holds verbatim with the ambient f because coefficients
    against the embedded vectors see only the projection P f. The report
    records the largest term-by-term deviation between using f and using
    P f as "projection_dev"; `passed` requires both the identity and that
    agreement.

    Raises NotParseval when the embedded operator is not the projector
    within tolerance.
    """
    tolerance = as_tolerance(tolerance)
    emb = sub.frame
    p = sub.projector
    dev = frobenius(emb.operator - p)
    if dev > tolerance * _scale([frobenius(p)]):
        raise NotParseval(
            f"embedded operator deviates from the span projector by {dev:.3e}"
        )
    v = as_vector(f, sub.ambient_dim)
    mask = subset_mask(subset, emb.count)
    t_f = _norm_sides(emb.vectors, coefficients(emb, v), mask)
    t_pf = _norm_sides(emb.vectors, coefficients(emb, p @ v), mask)
    projection_dev = max(abs(a - b) for a, b in zip(t_f, t_pf))
    return _split_report(_PARSEVAL_TERMS + ("projection_dev",), t_f + [projection_dev],
                         tolerance, extra_ok=projection_dev <= tolerance * _scale(t_f))


@dataclass(frozen=True)
class BoundCheck:
    """Lower bound for the mixed quantity sum_J |<f,f_i>|^2 + ||S_Jc f||^2.

    complement_value swaps J and Jc; the identity forces the two forms to
    agree, recorded as symmetry_rel_diff.
    """

    value: float
    bound: float
    complement_value: float
    symmetry_rel_diff: float
    passed: bool


def _bound_verdict(sides, norm_f, coefficient: float, tolerance: float) -> tuple:
    """The BoundCheck fields of the bound coefficient * ||f||^2 for each
    family's four Parseval split terms. Every term is nonnegative, so the
    _scale of value, complement_value and ||f||^2 is their plain max(1, ...)."""
    sum_j, norm_j, sum_jc, norm_jc = sides
    with np.errstate(over="ignore", invalid="ignore"):
        value, complement_value = sum_j + norm_jc, sum_jc + norm_j
        bound = coefficient * norm_f
        scale = _scale([value, complement_value, norm_f])
        symmetry_rel_diff = abs(value - complement_value) / scale
        floor = bound - tolerance * scale
        passed = (value >= floor) & (complement_value >= floor) & (symmetry_rel_diff <= tolerance)
    return value, bound, complement_value, symmetry_rel_diff, passed


def _mixed_bound_check(frame: Frame, subset, f, coefficient: float,
                       tolerance: float) -> BoundCheck:
    tolerance = as_tolerance(tolerance)
    _require_parseval(frame.spectrum.eigenvalues, tolerance)
    mask = subset_mask(subset, frame.count)
    v = as_vector(f, frame.dim)
    sides = _norm_sides(frame.vectors, coefficients(frame, v), mask)
    *values, passed = _bound_verdict(sides, norm_sq(v), coefficient, tolerance)
    return BoundCheck(*(float(x) for x in values), passed=bool(passed))


def half_bound_check(frame: Frame, subset, f, tolerance: float = TAU_ID) -> BoundCheck:
    """value >= ||f||^2 / 2 for any subset of a Parseval frame."""
    return _mixed_bound_check(frame, subset, f, 0.5, tolerance)


def three_quarters_check(frame: Frame, subset, f, tolerance: float = TAU_ID) -> BoundCheck:
    """Sharp version: value >= 3 ||f||^2 / 4, attained e.g. by a doubled basis."""
    return _mixed_bound_check(frame, subset, f, 0.75, tolerance)


@dataclass(frozen=True)
class PartialStructure:
    """Operator-level structure of a Parseval partial sum S_J.

    S_J - S_J^2 equals S_J S_Jc, is Hermitian, and is positive
    semidefinite; min_eig_* are the smallest eigenvalues of the hermitized
    product and of the difference, residual_identity the Frobenius gap
    between the two expressions.
    """

    residual_identity: float
    min_eig_product: float
    min_eig_gap: float
    herm_defect_product: float
    passed: bool


def _partial_structure(s_j: np.ndarray, s_jc: np.ndarray, tolerance: float) -> tuple:
    """The PartialStructure fields of each (S_J, S_Jc) pair in (..., d, d)."""
    product = s_j @ s_jc
    gap = s_j - s_j @ s_j
    residual = frobenius(gap - product)
    herm_defect = hermitian_defect(product)
    min_eig_product = hermitian_eigvals(hermitize(product))[..., 0]
    min_eig_gap = hermitian_eigvals(hermitize(gap))[..., 0]
    scale = _scale([frobenius(s_j), frobenius(s_jc)])
    ok = (
        (residual <= tolerance * scale)
        & (min_eig_product >= -tolerance)
        & (min_eig_gap >= -tolerance)
        & (herm_defect <= TAU_HERM * _scale([frobenius(product)]))
    )
    return residual, min_eig_product, min_eig_gap, herm_defect, ok


def partial_structure_check(frame: Frame, subset, tolerance: float = TAU_ID) -> PartialStructure:
    tolerance = as_tolerance(tolerance)
    _require_parseval(frame.spectrum.eigenvalues, tolerance)
    mask = subset_mask(subset, frame.count)
    residual, min_eig_product, min_eig_gap, herm_defect, ok = _partial_structure(
        _partial_operator(frame.vectors, mask), _partial_operator(frame.vectors, ~mask), tolerance)
    return PartialStructure(
        residual_identity=float(residual),
        min_eig_product=float(min_eig_product),
        min_eig_gap=float(min_eig_gap),
        herm_defect_product=float(herm_defect),
        passed=bool(ok),
    )


@dataclass(frozen=True)
class OperatorIdentityCheck:
    """For S + T = I: S - T = S^2 - T^2 (no self-adjointness needed)."""

    residual: float
    passed: bool


def _require_resolution(s: np.ndarray, t: np.ndarray, tolerance: float) -> None:
    """PreconditionFailed unless each S + T in (..., d, d) is I within tolerance."""
    if s.shape != t.shape:
        raise PreconditionFailed(f"shapes differ: {s.shape} vs {t.shape}")
    gap = frobenius(s + t - np.eye(s.shape[-1]))
    k = _first_failure(gap > tolerance * _scale([frobenius(s), frobenius(t)]))
    if k is not None:
        raise PreconditionFailed(f"S + T differs from I by {np.ravel(gap)[k]:.3e}")


def _operator_identity(s: np.ndarray, t: np.ndarray, tolerance: float) -> tuple:
    """(residual, passed) of S - T = S^2 - T^2 for each pair in (..., d, d)."""
    residual = frobenius((s - t) - (s @ s - t @ t))
    scale = _scale([frobenius(s) ** 2, frobenius(t) ** 2])
    return residual, residual <= tolerance * scale


def operator_identity_check(s, t, tolerance: float = TAU_ID) -> OperatorIdentityCheck:
    tolerance = as_tolerance(tolerance)
    s = as_matrix(s)
    t = as_matrix(t)
    _require_resolution(s, t, tolerance)
    residual, passed = _operator_identity(s, t, tolerance)
    return OperatorIdentityCheck(residual=float(residual), passed=bool(passed))


@dataclass(frozen=True)
class SelfAdjointProductCheck:
    """For S + T = I: S and T are self-adjoint iff S* T is."""

    s_self_adjoint: bool
    t_self_adjoint: bool
    product_self_adjoint: bool
    equivalence_holds: bool


def _self_adjoint_product(s: np.ndarray, t: np.ndarray) -> tuple:
    """Whether S, T and S* T are self-adjoint within TAU_HERM, for each pair in (..., d, d)."""

    def self_adjoint(m: np.ndarray):
        return hermitian_defect(m) <= TAU_HERM * _scale([frobenius(m)])

    return self_adjoint(s), self_adjoint(t), self_adjoint(_adjoint(s) @ t)


def self_adjoint_product_check(s, t, tolerance: float = TAU_ID) -> SelfAdjointProductCheck:
    tolerance = as_tolerance(tolerance)
    s = as_matrix(s)
    t = as_matrix(t)
    _require_resolution(s, t, tolerance)
    s_sa, t_sa, p_sa = map(bool, _self_adjoint_product(s, t))
    return SelfAdjointProductCheck(
        s_self_adjoint=s_sa,
        t_self_adjoint=t_sa,
        product_self_adjoint=p_sa,
        equivalence_holds=(s_sa and t_sa) == p_sa,
    )


@dataclass(frozen=True)
class ConditionResult:
    label: str
    residual: float
    holds: bool


@dataclass(frozen=True)
class EquivalenceReport:
    """Six conditions that hold or fail together for a Parseval split.

    (i)   sum_J |<f,f_i>|^2 = ||S_J f||^2
    (ii)  the same over the complement
    (iii) S_J f is orthogonal to S_Jc f
    (iv)  f is orthogonal to S_J S_Jc f
    (v)   S_J f = S_J^2 f
    (vi)  S_J S_Jc f = 0

    Scalar conditions use |value| as residual, vector ones a norm, all
    divided by max(1, ||f||^2). consistent means all hold or none do;
    borderline flags any residual within a factor 10 of tolerance.
    """

    conditions: tuple[ConditionResult, ...]
    consistent: bool
    borderline: bool
    tolerance: float


_CONDITION_LABELS = ("i", "ii", "iii", "iv", "v", "vi")


def _equivalence_residuals(vectors: np.ndarray, v: np.ndarray, mask: np.ndarray) -> list:
    """The six unscaled residuals, in label order."""
    sum_j, sj_f, sum_jc, sjc_f = _energy_split(vectors, _analysis(vectors, v), mask)
    sj_sj_f, sj_sjc_f = (_synthesis(vectors, np.where(mask, _analysis(vectors, g), 0.0))
                         for g in (sj_f, sjc_f))
    # |<x, y>| = |vecdot(y, x)|: vecdot conjugates its first argument
    return [
        abs(sum_j - norm_sq(sj_f)),
        abs(sum_jc - norm_sq(sjc_f)),
        abs(np.vecdot(sjc_f, sj_f)),
        abs(np.vecdot(sj_sjc_f, v)),
        np.sqrt(norm_sq(sj_f - sj_sj_f)),
        np.sqrt(norm_sq(sj_sjc_f)),
    ]


def _equivalence_verdict(residuals, norm_f, tolerance: float) -> tuple:
    """(scaled residuals, holds, consistent, borderline) of each family: the
    six residuals (6, ...) in label order, each divided by _scale of
    ||f||^2, whether each holds, whether all or none do (all equals any),
    and whether any lies within a factor 10 of tolerance."""
    with np.errstate(invalid="ignore"):
        scaled = np.divide(residuals, _scale([norm_f]))
    holds = scaled <= tolerance
    borderline = ((tolerance / 10.0 <= scaled) & (scaled <= tolerance * 10.0)).any(axis=0)
    return scaled, holds, holds.all(axis=0) == holds.any(axis=0), borderline


def equivalence_conditions(frame: Frame, subset, f,
                           tolerance: float = TAU_ID) -> EquivalenceReport:
    tolerance = as_tolerance(tolerance)
    _require_parseval(frame.spectrum.eigenvalues, tolerance)
    mask = subset_mask(subset, frame.count)
    v = as_vector(f, frame.dim)
    scaled, holds, consistent, borderline = _equivalence_verdict(
        _equivalence_residuals(frame.vectors, v, mask), norm_sq(v), tolerance)
    return EquivalenceReport(
        conditions=tuple(map(ConditionResult, _CONDITION_LABELS, scaled.tolist(), holds.tolist())),
        consistent=bool(consistent),
        borderline=bool(borderline),
        tolerance=float(tolerance),
    )


@dataclass(frozen=True)
class SpanEquality:
    """Equal frame operators force equal spans; spans via spectral projectors."""

    operators_equal: bool
    spans_equal: bool
    lemma_respected: bool


def _span_projector(dec: EigenDecomposition) -> np.ndarray:
    """Orthogonal projector onto the range of each PSD matrix with spectrum
    dec: its eigenvectors for eigenvalues above TAU_FRAME_COEFF * the top one."""
    w = dec.eigenvalues
    # with a top eigenvalue <= 0 no eigenvalue is > 0, so the range is {0}
    keep = w > TAU_FRAME_COEFF * np.maximum(w[..., -1:], 0.0)
    v = dec.eigenvectors * keep[..., None, :]
    return hermitize(v @ _adjoint(v))


def _close(a: np.ndarray, b: np.ndarray, tolerance: float):
    """||A - B||_F <= tolerance * max(1, ||A||_F, ||B||_F), per pair in (..., d, d)."""
    return frobenius(a - b) <= tolerance * _scale([frobenius(a), frobenius(b)])


def _span_equality(s1: np.ndarray, s2: np.ndarray, dec1: EigenDecomposition,
                   dec2: EigenDecomposition, tolerance: float) -> tuple:
    """(operators equal, spans equal) of each pair of frame operators with
    their spectra."""
    return (_close(s1, s2, tolerance),
            _close(_span_projector(dec1), _span_projector(dec2), tolerance))


def span_equality_check(first: Frame, second: Frame,
                        tolerance: float = TAU_ID) -> SpanEquality:
    tolerance = as_tolerance(tolerance)
    if first.dim != second.dim:
        raise PreconditionFailed(f"dims differ: {first.dim} vs {second.dim}")
    operators_equal, spans_equal = _span_equality(first.operator, second.operator,
                                                  first.spectrum, second.spectrum, tolerance)
    return SpanEquality(
        operators_equal=bool(operators_equal),
        spans_equal=bool(spans_equal),
        lemma_respected=bool((not operators_equal) or spans_equal),
    )


@dataclass(frozen=True)
class TightExtensionCompare:
    """Two completions of the same family to the same tight value share
    added energy, added operator, and added span."""

    both_tight: bool
    energy_equal: bool
    operator_equal: bool
    span_equal: bool
    max_energy_rel_diff: float
    passed: bool


def _probe_width(d: int, field: str) -> int:
    """Normals per probe: a real probe draws whole Gaussian pairs, one extra at odd d."""
    return d + d % 2 if field == "real" else d


def _unit_rows(block: np.ndarray) -> np.ndarray:
    """Each row of a stack (..., m, d) over its norm, the vecdot form of
    np.linalg.norm's own dot; a zero-norm row is left unnormalized."""
    norms = np.sqrt(np.vecdot(block.real, block.real) + np.vecdot(block.imag, block.imag))
    return block / np.where(norms > 0.0, norms, 1.0)[..., None]


def _probe_block(f, d: int, field: str, trials: int, seed: int) -> np.ndarray:
    """f, then `trials` seeded unit vectors, as rows. The block draw and the
    row norms are bitwise one draw and one normalization per probe."""
    v = as_vector(f, d)
    width = _probe_width(d, field)
    block = SplitMix64(seed).normals(trials * width, field).reshape(trials, width)[:, :d]
    return np.vstack([v, _unit_rows(block)])


def _extension_compare(probes: np.ndarray, first: np.ndarray, second: np.ndarray,
                       s1: np.ndarray, s2: np.ndarray, dec1: EigenDecomposition,
                       dec2: EigenDecomposition, tolerance: float) -> tuple:
    """(max energy rel diff, energy equal, operator equal, span equal) of each
    pair of added families (..., k, d), with their operators and spectra,
    over the probe vectors (..., m, d)."""
    e1, e2 = (_energy(probes @ _adjoint(added)) for added in (first, second))
    # fmax skips a NaN ratio, as the running max over single probes did
    max_rel = np.fmax.reduce(np.abs(e1 - e2) / _scale([e1, e2]), axis=-1, initial=0.0)
    return (max_rel, max_rel <= tolerance) + _span_equality(s1, s2, dec1, dec2, tolerance)


def tight_extension_compare(base: Frame, added_first: Frame, added_second: Frame,
                            lam: float, f, trials: int = 100, seed: int = 0,
                            tolerance: float = TAU_ID) -> TightExtensionCompare:
    """Compare two tight completions of `base` at tight value lam.

    Checks that both unions are lam-tight by tight_identity_report's rule
    (raising NotTight otherwise), then that the two added families have
    equal coefficient energy on the given f and on `trials` seeded random
    unit vectors, equal frame operators, and equal spans. A union's operator
    is the sum of its parts' cached ones, and only its eigenvalues are
    computed. The probe energies are one block, one product per family.
    """
    tolerance = as_tolerance(tolerance)
    lam = float(lam)
    for added in (added_first, added_second):
        if added.dim != base.dim:
            raise DimensionMismatch(f"dims differ: {base.dim} vs {added.dim}")
    if not isinstance(trials, (int, np.integer)) or trials < 0:
        raise BadParams(f"trials must be a non-negative integer, got {trials!r}")
    _require_tight(hermitian_eigvals(_union_operator(
        base.operator, np.stack([added_first.operator, added_second.operator]))), lam, tolerance)
    fields = (base.field, added_first.field, added_second.field)
    field = "complex" if "complex" in fields else "real"
    probes = _probe_block(f, base.dim, field, trials, seed)
    max_rel, energy_equal, operator_equal, span_equal = _extension_compare(
        probes, added_first.vectors, added_second.vectors, added_first.operator,
        added_second.operator, added_first.spectrum, added_second.spectrum, tolerance)
    return TightExtensionCompare(
        both_tight=True,
        energy_equal=bool(energy_equal),
        operator_equal=bool(operator_equal),
        span_equal=bool(span_equal),
        max_energy_rel_diff=float(max_rel),
        passed=bool(energy_equal and operator_equal and span_equal),
    )
