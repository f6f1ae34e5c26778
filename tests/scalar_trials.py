"""Scalar reference for the batched sweep suites.

Each function below runs one trial of the pfi, overlap, equivalence or sj
suite on its own: every draw from the trial's stream and every check
through the public, validating functions, one trial at a time.
`tests/test_sweeps.py` replays them and compares each batched row with
its replay.
"""

from __future__ import annotations

import numpy as np

from framecalc.frames import (
    embed_subspace_frame,
    norm_sq,
    partial_operator_matrix,
    random_isometry,
    random_parseval,
    subset_mask,
)
from framecalc.identities import (
    equivalence_conditions,
    half_bound_check,
    operator_identity_check,
    overlap_identity_report,
    parseval_identity_report,
    partial_structure_check,
    self_adjoint_product_check,
    subspace_identity_report,
    three_quarters_check,
    tight_identity_report,
)
from framecalc.linalg import hermitize
from framecalc.rng import SplitMix64
from framecalc.sweeps import RunConfig, _draw_shape, _orthogonal_union, _randint, _trial_rng


def _complement(subset: list[int], n: int) -> list[int]:
    """The indices of range(n) outside subset, increasing."""
    return np.flatnonzero(~subset_mask(subset, n)).tolist()


def _pfi_trial(rng: SplitMix64, t: int, config: RunConfig) -> dict:
    """Parseval energy-split identity, plus the bound checks, the tight
    rescaling consistency, and (every 10th trial) a subspace embedding."""
    tol = config.tol
    field, d, n = _draw_shape(rng, config)
    frame = random_parseval(d, n, rng.next_raw(), field)
    subset = rng.subset(n)
    f = rng.unit_vector(d, field)
    rep = parseval_identity_report(frame, subset, f, tol)
    half = half_bound_check(frame, subset, f, tol)
    tq = three_quarters_check(frame, subset, f, tol)
    min_side = min(rep.lhs, rep.rhs)
    bound_ratio = tq.value / norm_sq(f)

    # scaling by sqrt(lam) multiplies every degree-2 term by lam and the
    # extra lam prefactor doubles it: tight sides = lam^2 * Parseval sides
    lam_t = 0.25 + 3.0 * rng.uniform()
    tight = tight_identity_report(frame.scaled(np.sqrt(lam_t)), subset, f, lam=lam_t,
                                  tolerance=tol)
    factor = lam_t * lam_t
    tight_rel = max(
        abs(tight.lhs - factor * rep.lhs), abs(tight.rhs - factor * rep.rhs)
    ) / max(1.0, factor)

    row = {
        "d": d,
        "n": n,
        "field": field,
        "rel_diff": rep.rel_diff,
        "min_side": min_side,
        "bound_ratio": bound_ratio,
        "half_passed": half.passed,
        "tq_passed": tq.passed,
        "tight_reduction_rel": tight_rel,
        "subspace_rel": None,
        "projection_dev": None,
        "passed": bool(
            rep.passed
            and half.passed
            and tq.passed
            and min_side >= -tol
            and tight_rel <= tol
        ),
    }
    if t % 10 == 0:
        ambient = d + 1 + _randint(rng, 0, 3)
        iso = random_isometry(ambient, d, rng.next_raw(), field)
        sub = embed_subspace_frame(frame, ambient, iso)
        f_amb = rng.unit_vector(ambient, field)
        rep_s = subspace_identity_report(sub, subset, f_amb, tol)
        row["subspace_rel"] = rep_s.rel_diff
        row["projection_dev"] = rep_s.terms["projection_dev"]
        row["passed"] = bool(row["passed"] and rep_s.passed)
    return row


def _overlap_trial(rng: SplitMix64, t: int, config: RunConfig) -> dict:
    """Disjoint-growth identity: J extended by random E inside the complement."""
    field, d, n = _draw_shape(rng, config)
    frame = random_parseval(d, n, rng.next_raw(), field)
    subset = rng.subset(n)
    rest = _complement(subset, n)
    e = [i for i, keep in zip(rest, rng.uniforms(len(rest)) < 0.5) if keep]
    f = rng.unit_vector(d, field)
    rep = overlap_identity_report(frame, subset, e, f, config.tol)
    return {"d": d, "n": n, "field": field, "rel_diff": rep.rel_diff, "passed": rep.passed}


def _equivalence_trial(rng: SplitMix64, t: int, config: RunConfig) -> dict:
    """Six-way equivalence: random Parseval splits (generically all-false)
    and, every 5th trial, an orthogonal-union construction (all-true)."""
    field, d, n = _draw_shape(rng, config)
    structured = t % 5 == 0 and d >= 2
    if structured:
        frame, subset = _orthogonal_union(rng, d, field)
        n = frame.count
    else:
        frame = random_parseval(d, n, rng.next_raw(), field)
        subset = rng.subset(n)
    f = rng.unit_vector(d, field)
    rep = equivalence_conditions(frame, subset, f, config.tol)
    return {
        "d": d,
        "n": n,
        "field": field,
        "structured": structured,
        "pattern": "".join("T" if c.holds else "F" for c in rep.conditions),
        "consistent": rep.consistent,
        "borderline": rep.borderline,
        "rel_diff": 0.0,
        "passed": rep.consistent,
    }


def _sj_trial(rng: SplitMix64, t: int, config: RunConfig) -> dict:
    """Partial-operator structure, the resolution-difference identity, and
    the self-adjoint product equivalence (frame splits every trial; raw
    Hermitian and non-Hermitian resolutions every 5th)."""
    tol = config.tol
    field, d, n = _draw_shape(rng, config)
    frame = random_parseval(d, n, rng.next_raw(), field)
    subset = rng.subset(n)
    structure = partial_structure_check(frame, subset, tol)
    s_j = partial_operator_matrix(frame, subset)
    s_jc = partial_operator_matrix(frame, _complement(subset, n))
    op_check = operator_identity_check(s_j, s_jc, tol)
    sa_check = self_adjoint_product_check(s_j, s_jc, tol)
    row = {
        "d": d,
        "n": n,
        "field": field,
        "residual_identity": structure.residual_identity,
        "min_eig_product": structure.min_eig_product,
        "min_eig_gap": structure.min_eig_gap,
        "op_residual": op_check.residual,
        "rel_diff": max(structure.residual_identity, op_check.residual),
        "passed": bool(
            structure.passed and op_check.passed and sa_check.equivalence_holds
            and sa_check.product_self_adjoint
        ),
    }
    if t % 5 == 0:
        # raw resolutions of the identity, Hermitian and not
        g = rng.normals(d * d, field).reshape(d, d)
        h = hermitize(g)
        op_h = operator_identity_check(h, np.eye(d) - h, tol)
        sa_h = self_adjoint_product_check(h, np.eye(d) - h, tol)
        op_n = operator_identity_check(g, np.eye(d) - g, tol)
        sa_n = self_adjoint_product_check(g, np.eye(d) - g, tol)
        row["rel_diff"] = max(row["rel_diff"], op_h.residual, op_n.residual)
        row["passed"] = bool(
            row["passed"]
            and op_h.passed and sa_h.equivalence_holds and sa_h.product_self_adjoint
            and op_n.passed and sa_n.equivalence_holds
            and not sa_n.product_self_adjoint
        )
    return row


SCALAR_TRIALS = {
    "pfi": _pfi_trial,
    "overlap": _overlap_trial,
    "equivalence": _equivalence_trial,
    "sj": _sj_trial,
}


def scalar_rows(name: str, config: RunConfig) -> list[dict]:
    """Rows of suite `name`, one scalar trial at a time."""
    trial = SCALAR_TRIALS[name]
    return [{"suite": name, "trial": t, **trial(_trial_rng(config, name, t), t, config)}
            for t in range(config.trials)]
