"""Scalar reference for the batched sweep suites.

Each function below runs one trial of one suite on its own: every draw
from the trial's stream and every check through the public, validating
functions, one trial at a time.
`tests/test_sweeps.py` replays them and compares each batched row with
its replay. The trial streams, `_randint` and the shape draw are this
file's own copies, so the replay shares none of them with the vectorized
shape pre-pass of the sweeps. `_conditioned_gaussian` and
`_orthogonal_union` are frozen per-trial copies of constructions that the
sweeps now make for a whole group at once.
"""

from __future__ import annotations

import numpy as np

from framecalc import SUITE_NAMES
from framecalc.frames import (
    MAX_COND,
    _RESAMPLE_LIMIT,
    Frame,
    _partial_operator,
    bessel_inequality_check,
    canonical_dual,
    coefficients,
    complete_to_tight,
    embed_subspace_frame,
    frame_bounds,
    norm_sq,
    parsevalize,
    partial_operator_matrix,
    random_gaussian,
    random_isometry,
    random_parseval,
    subset_mask,
)
from framecalc.identities import (
    equivalence_conditions,
    general_identity_report,
    half_bound_check,
    operator_identity_check,
    overlap_identity_report,
    parseval_identity_report,
    partial_structure_check,
    self_adjoint_product_check,
    subspace_identity_report,
    three_quarters_check,
    tight_extension_compare,
    tight_identity_report,
)
from framecalc.linalg import frobenius, hermitize
from framecalc.rng import SplitMix64
from framecalc.sweeps import RunConfig


def _trial_rng(config: RunConfig, suite: str, trial: int) -> SplitMix64:
    return SplitMix64(config.seed).derive(SUITE_NAMES.index(suite)).derive(trial)


def _randint(rng: SplitMix64, lo: int, hi: int) -> int:
    # inclusive bounds
    return lo + rng.next_raw() % (hi - lo + 1)


def _draw_shape(rng: SplitMix64, config: RunConfig) -> tuple[str, int, int]:
    """Fixed draw order: field flag, then d, then n (forced >= d)."""
    field = "real" if rng.uniform() < 0.5 else "complex"
    d_min, d_max = config.dim_range
    n_min, n_max = config.count_range
    d = _randint(rng, d_min, d_max)
    n = _randint(rng, max(d, n_min), n_max)
    return field, d, n


def _conditioned_gaussian(rng: SplitMix64, dim: int, count: int, field: str) -> tuple[Frame, float]:
    """Seeded Gaussian frame resampled until cond(S) <= 1e3."""
    for _ in range(_RESAMPLE_LIMIT):
        frame = random_gaussian(dim, count, rng.next_raw(), field)
        bounds = frame_bounds(frame)
        if bounds.is_frame:
            cond = bounds.upper / bounds.lower
            if cond <= MAX_COND:
                return frame, float(cond)
    raise RuntimeError("could not draw a well-conditioned frame")  # pragma: no cover


def _orthogonal_union(rng: SplitMix64, d: int, field: str) -> tuple[np.ndarray, list[int]]:
    """Rows of a Parseval frame split into two parts with orthogonal spans;
    the first part's indices make every equivalence condition hold."""
    r = _randint(rng, 1, d - 1)
    u = random_isometry(d, d, rng.next_raw(), field)
    first = random_parseval(r, _randint(rng, r, 2 * r), rng.next_raw(), field)
    second = random_parseval(d - r, _randint(rng, d - r, 2 * (d - r)), rng.next_raw(), field)
    rows = np.vstack([first.vectors @ u[:, :r].T, second.vectors @ u[:, r:].T])
    if field == "real":
        rows = rows.real.astype(np.complex128)
    return rows, list(range(first.count))


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


def _general_trial(rng: SplitMix64, t: int, config: RunConfig) -> dict:
    """Dual-weighted energy split on conditioned Gaussian frames; every
    10th trial cross-checks the Parseval reduction term by term."""
    tol = config.tol
    field, d, n = _draw_shape(rng, config)
    frame, cond = _conditioned_gaussian(rng, d, n, field)
    dual = canonical_dual(frame)
    subset = rng.subset(n)
    f = rng.unit_vector(d, field)
    rep = general_identity_report(frame, subset, f, tol, dual=dual)
    row = {
        "d": d,
        "n": n,
        "field": field,
        "cond": cond,
        "rel_diff": rep.rel_diff,
        "reduction_dev": None,
        "passed": rep.passed,
    }
    if t % 10 == 0:
        # on a Parseval frame the dual term collapses to the plain norm
        pframe = random_parseval(d, n, rng.next_raw(), field)
        sub2 = rng.subset(n)
        f2 = rng.unit_vector(d, field)
        rep_g = general_identity_report(pframe, sub2, f2, tol)
        rep_p = parseval_identity_report(pframe, sub2, f2, tol)
        dev = max(
            abs(rep_g.terms["dual_energy_sj_f"] - rep_p.terms["norm_sj_f"]),
            abs(rep_g.terms["dual_energy_sjc_f"] - rep_p.terms["norm_sjc_f"]),
            abs(rep_g.lhs - rep_p.lhs),
            abs(rep_g.rhs - rep_p.rhs),
        )
        row["reduction_dev"] = dev
        row["passed"] = bool(row["passed"] and rep_g.passed and dev <= tol)
    return row


def _bounds_trial(rng: SplitMix64, t: int, config: RunConfig) -> dict:
    """Frame inequality, operator-norm sandwich, dual reconstruction,
    partial-operator additivity, and Parseval conversion."""
    tol = config.tol
    field, d, n = _draw_shape(rng, config)
    frame, cond = _conditioned_gaussian(rng, d, n, field)
    bounds = frame_bounds(frame)
    f = rng.unit_vector(d, field)
    energy = float(np.sum(np.abs(coefficients(frame, f)) ** 2))
    nf = norm_sq(f)
    slack = tol * max(1.0, energy, bounds.upper * nf)
    inequality_ok = (
        bounds.lower * nf - slack <= energy <= bounds.upper * nf + slack
    )
    sandwich_ok = bessel_inequality_check(frame, f).passed

    dual = canonical_dual(frame)
    recon = coefficients(dual, f) @ frame.vectors
    recon_err = float(np.linalg.norm(recon - f)) / max(1.0, float(np.linalg.norm(f)))

    mask = subset_mask(rng.subset(n), n)
    s_sum = _partial_operator(frame.vectors, mask) + _partial_operator(frame.vectors, ~mask)
    additivity_err = frobenius(s_sum - frame.operator) / max(
        1.0, frobenius(frame.operator)
    )

    pframe = parsevalize(frame)
    parseval_dev = frobenius(pframe.operator - np.eye(d))

    return {
        "d": d,
        "n": n,
        "field": field,
        "cond": cond,
        "inequality_ok": bool(inequality_ok),
        "sandwich_ok": bool(sandwich_ok),
        "recon_err": recon_err,
        "additivity_err": additivity_err,
        "parseval_dev": parseval_dev,
        "rel_diff": max(recon_err, additivity_err, parseval_dev),
        "passed": bool(
            inequality_ok
            and sandwich_ok
            and recon_err <= tol
            and additivity_err <= 1e-12
            and parseval_dev <= tol
        ),
    }


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
        rows, subset = _orthogonal_union(rng, d, field)
        frame = Frame(d, rows, field)
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
            and (not sa_n.product_self_adjoint or (d == 1 and field == "real"))
        )
    return row


def _extension_trial(rng: SplitMix64, t: int, config: RunConfig) -> dict:
    """Canonical vs unitary-mixed tight completions: equal added energy,
    operator, and span; lam alternates between lambda_max and a larger value."""
    field, d, n = _draw_shape(rng, config)
    frame = random_gaussian(d, n, rng.next_raw(), field)
    upper = frame_bounds(frame).upper
    lam = upper if rng.uniform() < 0.5 else upper * (1.0 + rng.uniform())
    mix_seed = rng.next_raw()
    canonical = complete_to_tight(frame, lam)
    mixed = complete_to_tight(frame, lam, mix_seed=mix_seed)
    f = rng.unit_vector(d, field)
    cmp = tight_extension_compare(
        frame, canonical, mixed, lam, f, trials=20, seed=rng.next_raw(),
        tolerance=config.tol,
    )
    return {
        "d": d,
        "n": n,
        "field": field,
        "lam": lam,
        "added_count": canonical.count,
        "energy_equal": cmp.energy_equal,
        "operator_equal": cmp.operator_equal,
        "span_equal": cmp.span_equal,
        "operator_diff": frobenius(canonical.operator - mixed.operator),
        "rel_diff": cmp.max_energy_rel_diff,
        "passed": cmp.passed,
    }


SCALAR_TRIALS = {
    "pfi": _pfi_trial,
    "general": _general_trial,
    "overlap": _overlap_trial,
    "bounds": _bounds_trial,
    "equivalence": _equivalence_trial,
    "sj": _sj_trial,
    "extension": _extension_trial,
}


def scalar_rows(name: str, config: RunConfig) -> list[dict]:
    """Rows of suite `name`, one scalar trial at a time."""
    trial = SCALAR_TRIALS[name]
    return [{"suite": name, "trial": t, **trial(_trial_rng(config, name, t), t, config)}
            for t in range(config.trials)]
