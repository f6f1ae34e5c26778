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

Every equality produces an IdentityReport. Residuals are scaled by
max(1, |lhs|, |rhs|, largest recorded term) so that verdicts are invariant
under scaling f or the frame: the interesting quantities are small
differences of the recorded degree-2 terms, and the terms set the
cancellation scale. This holds while every term is finite; a term that
overflows makes the report non-finite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EOverlapsJ, NotParseval, NotTight, PreconditionFailed
from .frames import (
    TAU_FRAME_COEFF,
    TAU_ID,
    Frame,
    SubspaceFrame,
    as_vector,
    canonical_dual,
    coefficients,
    norm_sq,
    subset_mask,
    tight_deviation,
    union,
)
from .linalg import TAU_HERM, as_matrix, frobenius, hermitian_defect, hermitian_eig, hermitize
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
    abs_diff = abs(lhs - rhs)
    scale = max(1.0, abs(lhs), abs(rhs), *(abs(t) for t in terms.values()))
    rel_diff = abs_diff / scale
    return IdentityReport(
        lhs=float(lhs),
        rhs=float(rhs),
        abs_diff=float(abs_diff),
        rel_diff=float(rel_diff),
        tolerance=float(tolerance),
        passed=bool(rel_diff <= tolerance) and bool(extra_ok),
        terms={k: float(v) for k, v in terms.items()},
    )


def _inner(f: np.ndarray, g: np.ndarray) -> complex:
    # linear in the first argument, conjugate-linear in the second
    return complex(np.vdot(g, f))


def _require_parseval(frame: Frame, tolerance: float) -> None:
    dev = tight_deviation(frame, 1.0)
    if dev > tolerance:
        raise NotParseval(
            f"frame operator deviates from identity by {dev:.3e} (> {tolerance:.1e})"
        )


def _energy(c: np.ndarray, mask: np.ndarray) -> float:
    return float(np.sum(np.abs(c[mask]) ** 2))


def _energy_split(frame: Frame, c: np.ndarray, mask: np.ndarray, weight: float = 1.0,
                  metric=norm_sq) -> list:
    """[weight * sum_J |c_i|^2, metric(S_J f)], then the same pair over Jc.

    c = F f are the analysis coefficients of f and J is the mask. With
    S_J + S_Jc = S, every identity below is "weighted subset energy minus
    a metric of the partial sum" on both sides; the variants differ only
    in the weight, the metric, and the masks they pass.
    """
    sides = []
    for m in (mask, ~mask):
        sides += [weight * _energy(c, m), metric(c[m] @ frame.vectors[m])]
    return sides


def _split_report(names: tuple[str, ...], sides: list, tolerance: float,
                  **extra) -> IdentityReport:
    """lhs = sides[0] - sides[1], rhs = sides[2] - sides[3]; sides become the named terms."""
    return _report(sides[0] - sides[1], sides[2] - sides[3],
                   dict(zip(names, sides)), tolerance, **extra)


_PARSEVAL_TERMS = ("sum_j", "norm_sj_f", "sum_jc", "norm_sjc_f")


def parseval_identity_report(frame: Frame, subset, f, tolerance: float = TAU_ID) -> IdentityReport:
    """Energy-split identity for a Parseval frame.

    lhs = sum_J |<f, f_i>|^2 - ||S_J f||^2, rhs the same over the
    complement. Both sides are also nonnegative; the recorded terms let the
    caller check that separately.

    Raises NotParseval when the frame operator is not the identity within
    tolerance.
    """
    _require_parseval(frame, tolerance)
    mask = subset_mask(subset, frame.count)
    c = coefficients(frame, f)
    return _split_report(_PARSEVAL_TERMS, _energy_split(frame, c, mask), tolerance)


def general_identity_report(frame: Frame, subset, f, tolerance: float = TAU_ID,
                            dual: Frame | None = None) -> IdentityReport:
    """Energy-split identity for an arbitrary frame, via the canonical dual.

    lhs = sum_J |<f, f_i>|^2 - sum_all |<S_J f, dual_i>|^2, rhs the same
    with the complement. Reduces to the Parseval identity when S = I
    (the dual is then the frame itself).

    Raises NotAFrame (from the dual) when the family is not a frame.
    """
    if dual is None:
        dual = canonical_dual(frame)
    mask = subset_mask(subset, frame.count)
    c = coefficients(frame, f)

    def dual_energy(g: np.ndarray) -> float:
        return float(np.sum(np.abs(coefficients(dual, g)) ** 2))

    sides = _energy_split(frame, c, mask, metric=dual_energy)
    return _split_report(("sum_j", "dual_energy_sj_f", "sum_jc", "dual_energy_sjc_f"),
                         sides, tolerance)


def tight_identity_report(frame: Frame, subset, f, lam: float | None = None,
                          tolerance: float = TAU_ID) -> IdentityReport:
    """Energy-split identity for a lam-tight frame.

    lhs = lam * sum_J |<f, f_i>|^2 - ||S_J f||^2, rhs over the complement.
    With lam omitted, the mean eigenvalue of the frame operator is used.

    Raises NotTight when lam is not positive (the all-zero family would
    otherwise pass at lam = 0, where the tolerance vanishes) or when some
    eigenvalue differs from lam by more than tolerance * lam.
    """
    if lam is None:
        lam = float(np.mean(frame.spectrum.eigenvalues))
    lam = float(lam)
    if not lam > 0.0:
        raise NotTight(f"tight value {lam:.6g} is not positive")
    dev = tight_deviation(frame, lam)
    if dev > tolerance * lam:
        raise NotTight(f"eigenvalues deviate from {lam:.6g} by {dev:.3e}")
    mask = subset_mask(subset, frame.count)
    c = coefficients(frame, f)
    return _split_report(("lam_sum_j", "norm_sj_f", "lam_sum_jc", "norm_sjc_f"),
                         _energy_split(frame, c, mask, weight=lam), tolerance)


def overlap_identity_report(frame: Frame, subset_j, subset_e, f,
                            tolerance: float = TAU_ID) -> IdentityReport:
    """Parseval energy split when J grows by a set E disjoint from it.

    ||S_{J u E} f||^2 - ||S_{Jc \\ E} f||^2
        = ||S_J f||^2 - ||S_Jc f||^2 + 2 sum_E |<f, f_i>|^2

    Raises EOverlapsJ when E meets J, NotParseval as usual.
    """
    _require_parseval(frame, tolerance)
    j = subset_mask(subset_j, frame.count)
    e = subset_mask(subset_e, frame.count)
    overlap = np.flatnonzero(j & e).tolist()
    if overlap:
        raise EOverlapsJ(f"E meets J at {overlap}")
    c = coefficients(frame, f)
    energy_e = _energy(c, e)
    _, n_je, _, n_jce = _energy_split(frame, c, j | e)
    _, n_j, _, n_jc = _energy_split(frame, c, j)
    lhs = n_je - n_jce
    rhs = n_j - n_jc + 2.0 * energy_e
    terms = {
        "norm_s_j_union_e_f": n_je,
        "norm_s_jc_minus_e_f": n_jce,
        "norm_sj_f": n_j,
        "norm_sjc_f": n_jc,
        "twice_energy_e": 2.0 * energy_e,
    }
    return _report(lhs, rhs, terms, tolerance)


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
    emb = sub.frame
    p = sub.projector
    dev = frobenius(emb.operator - p)
    if dev > tolerance * max(1.0, frobenius(p)):
        raise NotParseval(
            f"embedded operator deviates from the span projector by {dev:.3e}"
        )
    v = as_vector(f, sub.ambient_dim)
    mask = subset_mask(subset, emb.count)
    t_f = _energy_split(emb, coefficients(emb, v), mask)
    t_pf = _energy_split(emb, coefficients(emb, p @ v), mask)
    projection_dev = max(abs(a - b) for a, b in zip(t_f, t_pf))
    scale = max(1.0, *(abs(t) for t in t_f))
    return _split_report(_PARSEVAL_TERMS + ("projection_dev",), t_f + [projection_dev],
                         tolerance, extra_ok=projection_dev <= tolerance * scale)


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


def _mixed_bound_check(frame: Frame, subset, f, coefficient: float,
                       tolerance: float) -> BoundCheck:
    _require_parseval(frame, tolerance)
    mask = subset_mask(subset, frame.count)
    v = as_vector(f, frame.dim)
    sum_j, norm_j, sum_jc, norm_jc = _energy_split(frame, coefficients(frame, v), mask)
    value = sum_j + norm_jc
    complement_value = sum_jc + norm_j
    bound = coefficient * norm_sq(v)
    scale = max(1.0, value, complement_value, norm_sq(v))
    symmetry_rel_diff = abs(value - complement_value) / scale
    ok = (
        value >= bound - tolerance * scale
        and complement_value >= bound - tolerance * scale
        and symmetry_rel_diff <= tolerance
    )
    return BoundCheck(
        value=float(value),
        bound=float(bound),
        complement_value=float(complement_value),
        symmetry_rel_diff=float(symmetry_rel_diff),
        passed=bool(ok),
    )


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


def partial_structure_check(frame: Frame, subset, tolerance: float = TAU_ID) -> PartialStructure:
    _require_parseval(frame, tolerance)
    mask = subset_mask(subset, frame.count)
    s_j, s_jc = (hermitize(rows.T @ rows.conj())
                 for rows in (frame.vectors[mask], frame.vectors[~mask]))
    product = s_j @ s_jc
    gap = s_j - s_j @ s_j
    residual = frobenius(gap - product)
    herm_defect = hermitian_defect(product)
    min_eig_product = float(hermitian_eig(hermitize(product)).eigenvalues[0])
    min_eig_gap = float(hermitian_eig(hermitize(gap)).eigenvalues[0])
    scale = max(1.0, frobenius(s_j), frobenius(s_jc))
    ok = (
        residual <= tolerance * scale
        and min_eig_product >= -tolerance
        and min_eig_gap >= -tolerance
        and herm_defect <= TAU_HERM * max(1.0, frobenius(product))
    )
    return PartialStructure(
        residual_identity=float(residual),
        min_eig_product=min_eig_product,
        min_eig_gap=min_eig_gap,
        herm_defect_product=float(herm_defect),
        passed=bool(ok),
    )


@dataclass(frozen=True)
class OperatorIdentityCheck:
    """For S + T = I: S - T = S^2 - T^2 (no self-adjointness needed)."""

    residual: float
    passed: bool


def _require_resolution(s: np.ndarray, t: np.ndarray, tolerance: float) -> None:
    if s.shape != t.shape:
        raise PreconditionFailed(f"shapes differ: {s.shape} vs {t.shape}")
    gap = frobenius(s + t - np.eye(s.shape[0]))
    if gap > tolerance * max(1.0, frobenius(s), frobenius(t)):
        raise PreconditionFailed(f"S + T differs from I by {gap:.3e}")


def operator_identity_check(s, t, tolerance: float = TAU_ID) -> OperatorIdentityCheck:
    s = as_matrix(s)
    t = as_matrix(t)
    _require_resolution(s, t, tolerance)
    residual = frobenius((s - t) - (s @ s - t @ t))
    scale = max(1.0, frobenius(s) ** 2, frobenius(t) ** 2)
    return OperatorIdentityCheck(
        residual=float(residual), passed=bool(residual <= tolerance * scale)
    )


@dataclass(frozen=True)
class SelfAdjointProductCheck:
    """For S + T = I: S and T are self-adjoint iff S* T is."""

    s_self_adjoint: bool
    t_self_adjoint: bool
    product_self_adjoint: bool
    equivalence_holds: bool


def self_adjoint_product_check(s, t, tolerance: float = TAU_ID) -> SelfAdjointProductCheck:
    s = as_matrix(s)
    t = as_matrix(t)
    _require_resolution(s, t, tolerance)

    def self_adjoint(m: np.ndarray) -> bool:
        return hermitian_defect(m) <= TAU_HERM * max(1.0, frobenius(m))

    s_sa = self_adjoint(s)
    t_sa = self_adjoint(t)
    p_sa = self_adjoint(s.conj().T @ t)
    return SelfAdjointProductCheck(
        s_self_adjoint=s_sa,
        t_self_adjoint=t_sa,
        product_self_adjoint=p_sa,
        equivalence_holds=bool((s_sa and t_sa) == p_sa),
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


def equivalence_conditions(frame: Frame, subset, f,
                           tolerance: float = TAU_ID) -> EquivalenceReport:
    _require_parseval(frame, tolerance)
    mask = subset_mask(subset, frame.count)
    v = as_vector(f, frame.dim)
    # the identity metric keeps the partial sums S_J f and S_Jc f themselves
    sum_j, sj_f, sum_jc, sjc_f = _energy_split(frame, coefficients(frame, v), mask,
                                               metric=lambda g: g)

    def apply_subset(g: np.ndarray) -> np.ndarray:
        cg = coefficients(frame, g)
        return cg[mask] @ frame.vectors[mask]

    sj_sj_f = apply_subset(sj_f)
    sj_sjc_f = apply_subset(sjc_f)
    scale = max(1.0, norm_sq(v))
    residuals = (
        ("i", abs(sum_j - norm_sq(sj_f))),
        ("ii", abs(sum_jc - norm_sq(sjc_f))),
        ("iii", abs(_inner(sj_f, sjc_f))),
        ("iv", abs(_inner(v, sj_sjc_f))),
        ("v", float(np.linalg.norm(sj_f - sj_sj_f))),
        ("vi", float(np.linalg.norm(sj_sjc_f))),
    )
    conditions = tuple(
        ConditionResult(label=lab, residual=float(r / scale), holds=bool(r / scale <= tolerance))
        for lab, r in residuals
    )
    flags = [c.holds for c in conditions]
    consistent = all(flags) or not any(flags)
    borderline = any(
        tolerance / 10.0 <= c.residual <= tolerance * 10.0 for c in conditions
    )
    return EquivalenceReport(
        conditions=conditions,
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


def _span_projector(frame: Frame) -> np.ndarray:
    dec = frame.spectrum
    w = dec.eigenvalues
    top = max(float(w[-1]), 0.0)
    keep = w > TAU_FRAME_COEFF * top if top > 0.0 else np.zeros_like(w, dtype=bool)
    v = dec.eigenvectors[:, keep]
    return hermitize(v @ v.conj().T)


def span_equality_check(first: Frame, second: Frame,
                        tolerance: float = TAU_ID) -> SpanEquality:
    if first.dim != second.dim:
        raise PreconditionFailed(f"dims differ: {first.dim} vs {second.dim}")
    s1, s2 = first.operator, second.operator
    operators_equal = frobenius(s1 - s2) <= tolerance * max(
        1.0, frobenius(s1), frobenius(s2)
    )
    p1, p2 = _span_projector(first), _span_projector(second)
    spans_equal = frobenius(p1 - p2) <= tolerance * max(
        1.0, frobenius(p1), frobenius(p2)
    )
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


def _probe_block(f, d: int, field: str, trials: int, seed: int) -> np.ndarray:
    """f, then `trials` seeded unit vectors, as rows. The block draw and the
    vecdot row norms (np.linalg.norm's own dot) are bitwise one draw and one
    normalization per probe; a zero-norm row is left unnormalized."""
    v = as_vector(f, d)
    # a real probe draws whole Gaussian pairs, so an odd d drops the last column
    width = d + d % 2 if field == "real" else d
    block = SplitMix64(seed).normals(trials * width, field).reshape(trials, width)[:, :d]
    norms = np.sqrt(np.vecdot(block.real, block.real) + np.vecdot(block.imag, block.imag))
    return np.vstack([v, block / np.where(norms > 0.0, norms, 1.0)[:, None]])


def tight_extension_compare(base: Frame, added_first: Frame, added_second: Frame,
                            lam: float, f, trials: int = 100, seed: int = 0,
                            tolerance: float = TAU_ID) -> TightExtensionCompare:
    """Compare two tight completions of `base` at tight value lam.

    Checks that both unions are lam-tight (raising NotTight otherwise),
    then that the two added families have equal coefficient energy on the
    given f and on `trials` seeded random unit vectors, equal frame
    operators, and equal spans. The probe energies are computed as one
    block, one matrix product per added family.
    """
    lam = float(lam)
    for added in (added_first, added_second):
        dev = tight_deviation(union(base, added), lam)
        if dev > tolerance * max(1.0, lam):
            raise NotTight(f"union deviates from {lam:.6g}-tight by {dev:.3e}")
    fields = (base.field, added_first.field, added_second.field)
    field = "complex" if "complex" in fields else "real"
    probes = _probe_block(f, base.dim, field, trials, seed)
    e1, e2 = (np.sum(np.abs(probes @ added.vectors.conj().T) ** 2, axis=1)
              for added in (added_first, added_second))
    # fmax skips a NaN ratio, as the running max over single probes did
    max_rel = float(np.fmax.reduce(np.abs(e1 - e2) / np.maximum(np.maximum(e1, e2), 1.0),
                                   initial=0.0))
    energy_equal = max_rel <= tolerance
    s1, s2 = added_first.operator, added_second.operator
    operator_equal = frobenius(s1 - s2) <= tolerance * max(
        1.0, frobenius(s1), frobenius(s2)
    )
    span_equal = span_equality_check(added_first, added_second, tolerance).spans_equal
    return TightExtensionCompare(
        both_tight=True,
        energy_equal=bool(energy_equal),
        operator_equal=bool(operator_equal),
        span_equal=bool(span_equal),
        max_energy_rel_diff=max_rel,
        passed=bool(energy_equal and operator_equal and span_equal),
    )
