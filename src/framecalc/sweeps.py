"""Seeded randomized verification suites.

Each suite replays one family of checks over `trials` independent trials.
Determinism contract: trial t of suite s under master seed m draws from
the stream SplitMix64(m).derive(index of s).derive(t), and every draw
inside a trial happens in a fixed documented order, so a run is a pure
function of (suite, seed, trials, ranges) and the suite section of an
"all" run is byte-identical to the same suite run alone.

A suite is a trial function, (rng, t, config) -> row, plus the reducers
that fold its rows into a summary; `run_suite` owns the loop. Results are
JSON-ready dicts, one per trial; the summary counts
passed/failed/borderline (borderline only ever nonzero for the
equivalence suite) and tracks the worst residuals seen.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BadParams
from .frames import (
    TAU_ID,
    Frame,
    as_tolerance,
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
    union,
)
from .identities import (
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
    tight_identity_report,
    tight_extension_compare,
)
from .linalg import frobenius, hermitize
from .rng import SplitMix64

SUITE_NAMES = ("pfi", "general", "overlap", "bounds", "equivalence", "sj", "extension")

_MAX_COND = 1.0e3
_RESAMPLE_LIMIT = 1000


@dataclass(frozen=True)
class RunConfig:
    """Shared knobs for every suite."""

    seed: int
    trials: int
    dim_range: tuple[int, int] = (2, 16)
    count_range: tuple[int, int] = (2, 64)
    tolerance: float | None = None

    def __post_init__(self):
        d_min, d_max = self.dim_range
        n_min, n_max = self.count_range
        if self.trials < 1:
            raise BadParams("trials must be >= 1")
        if not 1 <= d_min <= d_max:
            raise BadParams(f"bad dim_range {self.dim_range}")
        if not d_min <= n_min <= n_max or n_max < d_max:
            raise BadParams(f"bad count_range {self.count_range} for dims {self.dim_range}")
        if self.tolerance is not None:
            as_tolerance(self.tolerance)

    @property
    def tol(self) -> float:
        return TAU_ID if self.tolerance is None else float(self.tolerance)


def _trial_rng(config: RunConfig, suite: str, trial: int) -> SplitMix64:
    return SplitMix64(config.seed).derive(SUITE_NAMES.index(suite)).derive(trial)


def _randint(rng: SplitMix64, lo: int, hi: int) -> int:
    # inclusive bounds
    return lo + int(rng.integers(1, hi - lo + 1)[0])


def _draw_shape(rng: SplitMix64, config: RunConfig) -> tuple[str, int, int]:
    """Fixed draw order: field flag, then d, then n (forced >= d)."""
    field = "real" if float(rng.uniforms(1)[0]) < 0.5 else "complex"
    d_min, d_max = config.dim_range
    n_min, n_max = config.count_range
    d = _randint(rng, d_min, d_max)
    n = _randint(rng, max(d, n_min), n_max)
    return field, d, n


def _seed_from(rng: SplitMix64) -> int:
    return int(rng.raw(1)[0])


def _conditioned_gaussian(rng: SplitMix64, dim: int, count: int, field: str) -> tuple[Frame, float]:
    """Seeded Gaussian frame resampled until cond(S) <= 1e3."""
    for _ in range(_RESAMPLE_LIMIT):
        frame = random_gaussian(dim, count, _seed_from(rng), field)
        bounds = frame_bounds(frame)
        if bounds.is_frame:
            cond = bounds.upper / bounds.lower
            if cond <= _MAX_COND:
                return frame, float(cond)
    raise RuntimeError("could not draw a well-conditioned frame")  # pragma: no cover


# ---------------------------------------------------------------------------
# trials: one row each, drawn from the trial's own stream


def _pfi_trial(rng: SplitMix64, t: int, config: RunConfig) -> dict:
    """Parseval energy-split identity, plus the bound checks, the tight
    rescaling consistency, and (every 10th trial) a subspace embedding."""
    tol = config.tol
    field, d, n = _draw_shape(rng, config)
    frame = random_parseval(d, n, _seed_from(rng), field)
    subset = rng.subset(n)
    f = rng.unit_vector(d, field)
    rep = parseval_identity_report(frame, subset, f, tol)
    half = half_bound_check(frame, subset, f, tol)
    tq = three_quarters_check(frame, subset, f, tol)
    min_side = min(rep.lhs, rep.rhs)
    bound_ratio = tq.value / norm_sq(f)

    # scaling by sqrt(lam) multiplies every degree-2 term by lam and the
    # extra lam prefactor doubles it: tight sides = lam^2 * Parseval sides
    lam_t = 0.25 + 3.0 * float(rng.uniforms(1)[0])
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
        iso = random_isometry(ambient, d, _seed_from(rng), field)
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
        pframe = random_parseval(d, n, _seed_from(rng), field)
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


def _overlap_trial(rng: SplitMix64, t: int, config: RunConfig) -> dict:
    """Disjoint-growth identity: J extended by random E inside the complement."""
    field, d, n = _draw_shape(rng, config)
    frame = random_parseval(d, n, _seed_from(rng), field)
    subset = rng.subset(n)
    rest = [i for i in range(n) if i not in set(subset)]
    pick = rng.uniforms(len(rest)) < 0.5 if rest else np.zeros(0, dtype=bool)
    e = [i for k, i in enumerate(rest) if pick[k]]
    f = rng.unit_vector(d, field)
    rep = overlap_identity_report(frame, subset, e, f, config.tol)
    return {"d": d, "n": n, "field": field, "rel_diff": rep.rel_diff, "passed": rep.passed}


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

    subset = rng.subset(n)
    s_sum = partial_operator_matrix(frame, subset) + partial_operator_matrix(
        frame, [i for i in range(n) if i not in set(subset)]
    )
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


def _orthogonal_union(rng: SplitMix64, d: int, field: str) -> tuple[Frame, list[int]]:
    """Parseval frame split into two parts with orthogonal spans; the first
    part's indices make every equivalence condition hold."""
    r = _randint(rng, 1, d - 1)
    u = random_isometry(d, d, _seed_from(rng), field)
    first = random_parseval(r, _randint(rng, r, 2 * r), _seed_from(rng), field)
    second = random_parseval(d - r, _randint(rng, d - r, 2 * (d - r)), _seed_from(rng), field)
    rows_first = first.vectors @ u[:, :r].T
    rows_second = second.vectors @ u[:, r:].T
    if field == "real":
        rows_first = rows_first.real.astype(np.complex128)
        rows_second = rows_second.real.astype(np.complex128)
    combined = union(Frame(d, rows_first, field), Frame(d, rows_second, field))
    return combined, list(range(first.count))


def _equivalence_trial(rng: SplitMix64, t: int, config: RunConfig) -> dict:
    """Six-way equivalence: random Parseval splits (generically all-false)
    and, every 5th trial, an orthogonal-union construction (all-true)."""
    field, d, n = _draw_shape(rng, config)
    structured = t % 5 == 0 and d >= 2
    if structured:
        frame, subset = _orthogonal_union(rng, d, field)
        n = frame.count
    else:
        frame = random_parseval(d, n, _seed_from(rng), field)
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
    frame = random_parseval(d, n, _seed_from(rng), field)
    subset = rng.subset(n)
    structure = partial_structure_check(frame, subset, tol)
    s_j = partial_operator_matrix(frame, subset)
    s_jc = partial_operator_matrix(
        frame, [i for i in range(n) if i not in set(subset)]
    )
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


def _extension_trial(rng: SplitMix64, t: int, config: RunConfig) -> dict:
    """Canonical vs unitary-mixed tight completions: equal added energy,
    operator, and span; lam alternates between lambda_max and a larger value."""
    field, d, n = _draw_shape(rng, config)
    frame = random_gaussian(d, n, _seed_from(rng), field)
    upper = frame_bounds(frame).upper
    use_auto = float(rng.uniforms(1)[0]) < 0.5
    lam = upper if use_auto else upper * (1.0 + float(rng.uniforms(1)[0]))
    mix_seed = _seed_from(rng)
    canonical = complete_to_tight(frame, lam)
    mixed = complete_to_tight(frame, lam, mix_seed=mix_seed)
    f = rng.unit_vector(d, field)
    cmp = tight_extension_compare(
        frame, canonical, mixed, lam, f, trials=20, seed=_seed_from(rng),
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


# ---------------------------------------------------------------------------
# summaries
#
# A reducer is (key, fold, initial, source). The source is a row field,
# whose None values are skipped, or a function of the row that returns the
# values to fold in order. Folds take (running result, value); max and min
# keep the running result unless the value beats it, so a NaN residual
# never replaces a number already held.


def _count(total: int, flag) -> int:
    return total + bool(flag)


def _verdict(row: dict) -> str:
    if row.get("borderline", False):
        return "borderline"
    return "passed" if row["passed"] else "failed"


_TALLY = (
    ("total", _count, 0, lambda row: (True,)),
    ("passed", _count, 0, lambda row: (_verdict(row) == "passed",)),
    ("failed", _count, 0, lambda row: (_verdict(row) == "failed",)),
    ("borderline", _count, 0, lambda row: (_verdict(row) == "borderline",)),
)
_MAX_REL = ("max_rel_diff", max, 0.0, "rel_diff")
_INF = float("inf")


def _pattern_kind(row: dict) -> str | None:
    """all_true, all_false or split for an equivalence row; None if borderline."""
    if row["borderline"]:
        return None
    if "F" not in row["pattern"]:
        return "all_true"
    return "all_false" if "T" not in row["pattern"] else "split"


_SUITES = {
    "pfi": (_pfi_trial, (
        ("max_rel_diff", max, 0.0,
         lambda row: (row["rel_diff"], row["tight_reduction_rel"], row["subspace_rel"] or 0.0)),
        ("min_side", min, _INF, "min_side"),
        ("min_bound_ratio", min, _INF, "bound_ratio"),
        ("max_tight_reduction_rel", max, 0.0, "tight_reduction_rel"),
        ("subspace_trials", _count, 0, lambda row: (row["subspace_rel"] is not None,)),
        ("max_subspace_rel", max, 0.0, "subspace_rel"),
        ("max_projection_dev", max, 0.0, "projection_dev"),
    )),
    "general": (_general_trial, (
        _MAX_REL,
        ("max_cond", max, 0.0, "cond"),
        ("reduction_trials", _count, 0, lambda row: (row["reduction_dev"] is not None,)),
        ("max_reduction_dev", max, 0.0, "reduction_dev"),
    )),
    "overlap": (_overlap_trial, (_MAX_REL,)),
    "bounds": (_bounds_trial, (
        _MAX_REL,
        ("max_recon_err", max, 0.0, "recon_err"),
        ("max_additivity_err", max, 0.0, "additivity_err"),
        ("max_parseval_dev", max, 0.0, "parseval_dev"),
    )),
    "equivalence": (_equivalence_trial, (
        _MAX_REL,
        ("all_true", _count, 0, lambda row: (_pattern_kind(row) == "all_true",)),
        ("all_false", _count, 0, lambda row: (_pattern_kind(row) == "all_false",)),
        ("split", _count, 0, lambda row: (_pattern_kind(row) == "split",)),
    )),
    "sj": (_sj_trial, (
        _MAX_REL,
        ("min_eig_product", min, _INF, "min_eig_product"),
        ("min_eig_gap", min, _INF, "min_eig_gap"),
        ("max_identity_residual", max, 0.0, "residual_identity"),
    )),
    "extension": (_extension_trial, (_MAX_REL, ("max_operator_diff", max, 0.0, "operator_diff"))),
}


def _summarize(rows: list[dict], reducers) -> dict:
    summary = {key: initial for key, _, initial, _ in reducers}
    for row in rows:
        for key, fold, _, source in reducers:
            values = source(row) if callable(source) else (row[source],)
            for value in values:
                if value is not None:
                    summary[key] = fold(summary[key], value)
    return summary


def run_suite(name: str, config: RunConfig) -> tuple[list[dict], dict]:
    try:
        trial, reducers = _SUITES[name]
    except KeyError:
        raise BadParams(
            f"unknown suite {name!r}; expected one of {list(SUITE_NAMES) + ['all']}"
        ) from None
    rows = [{"suite": name, "trial": t, **trial(_trial_rng(config, name, t), t, config)}
            for t in range(config.trials)]
    return rows, _summarize(rows, _TALLY + reducers)


def run_suites(names: list[str], config: RunConfig) -> tuple[list[dict], dict]:
    """Run several suites sequentially; summaries nest under their names."""
    all_results: list[dict] = []
    summaries = []
    for name in names:
        results, summary = run_suite(name, config)
        all_results.extend(results)
        summaries.append((name, summary))
    combined = {key: sum(s[key] for _, s in summaries) for key, *_ in _TALLY}
    combined["max_rel_diff"] = max([0.0] + [s["max_rel_diff"] for _, s in summaries])
    combined["suites"] = dict(summaries)
    return all_results, combined
