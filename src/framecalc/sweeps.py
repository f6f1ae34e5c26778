"""Seeded randomized verification suites.

Each suite replays one family of checks over `trials` independent trials.
Determinism contract: trial t of suite s under master seed m draws from
the stream SplitMix64(m).derive(index of s).derive(t), and every draw
inside a trial happens in a fixed documented order, so a run is a pure
function of (suite, seed, trials, ranges) and the suite section of an
"all" run is byte-identical to the same suite run alone.

Results are JSON-ready dicts, one per trial; the summary counts
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
    random_unitary,
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


def _unit_vector(rng: SplitMix64, dim: int, field: str) -> np.ndarray:
    while True:
        if field == "real":
            g = rng.gaussians(dim).astype(np.complex128)
        else:
            g = rng.complex_gaussians(dim)
        norm = float(np.linalg.norm(g))
        if norm > 1e-12:
            return g / norm


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


def _new_summary() -> dict:
    return {"total": 0, "passed": 0, "failed": 0, "borderline": 0, "max_rel_diff": 0.0}


def _tally(summary: dict, row: dict) -> None:
    summary["total"] += 1
    if row.get("borderline", False):
        summary["borderline"] += 1
    elif row["passed"]:
        summary["passed"] += 1
    else:
        summary["failed"] += 1
    summary["max_rel_diff"] = max(summary["max_rel_diff"], row["rel_diff"])


# ---------------------------------------------------------------------------
# suites


def sweep_pfi(config: RunConfig) -> tuple[list[dict], dict]:
    """Parseval energy-split identity, plus the bound checks, the tight
    rescaling consistency, and (every 10th trial) a subspace embedding."""
    tol = config.tol
    results: list[dict] = []
    summary = _new_summary()
    summary.update(
        min_side=float("inf"),
        min_bound_ratio=float("inf"),
        max_tight_reduction_rel=0.0,
        subspace_trials=0,
        max_subspace_rel=0.0,
        max_projection_dev=0.0,
    )
    for t in range(config.trials):
        rng = _trial_rng(config, "pfi", t)
        field, d, n = _draw_shape(rng, config)
        frame = random_parseval(d, n, _seed_from(rng), field)
        subset = rng.subset(n)
        f = _unit_vector(rng, d, field)
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
            "suite": "pfi",
            "trial": t,
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
            f_amb = _unit_vector(rng, ambient, field)
            rep_s = subspace_identity_report(sub, subset, f_amb, tol)
            row["subspace_rel"] = rep_s.rel_diff
            row["projection_dev"] = rep_s.terms["projection_dev"]
            row["passed"] = bool(row["passed"] and rep_s.passed)
            summary["subspace_trials"] += 1
            summary["max_subspace_rel"] = max(summary["max_subspace_rel"], rep_s.rel_diff)
            summary["max_projection_dev"] = max(
                summary["max_projection_dev"], rep_s.terms["projection_dev"]
            )
        results.append(row)
        _tally(summary, row)
        summary["min_side"] = min(summary["min_side"], min_side)
        summary["min_bound_ratio"] = min(summary["min_bound_ratio"], bound_ratio)
        summary["max_tight_reduction_rel"] = max(
            summary["max_tight_reduction_rel"], tight_rel
        )
        summary["max_rel_diff"] = max(summary["max_rel_diff"], tight_rel,
                                      row["subspace_rel"] or 0.0)
    return results, summary


def sweep_general(config: RunConfig) -> tuple[list[dict], dict]:
    """Dual-weighted energy split on conditioned Gaussian frames; every
    10th trial cross-checks the Parseval reduction term by term."""
    tol = config.tol
    results: list[dict] = []
    summary = _new_summary()
    summary.update(max_cond=0.0, reduction_trials=0, max_reduction_dev=0.0)
    for t in range(config.trials):
        rng = _trial_rng(config, "general", t)
        field, d, n = _draw_shape(rng, config)
        frame, cond = _conditioned_gaussian(rng, d, n, field)
        dual = canonical_dual(frame)
        subset = rng.subset(n)
        f = _unit_vector(rng, d, field)
        rep = general_identity_report(frame, subset, f, tol, dual=dual)
        row = {
            "suite": "general",
            "trial": t,
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
            f2 = _unit_vector(rng, d, field)
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
            summary["reduction_trials"] += 1
            summary["max_reduction_dev"] = max(summary["max_reduction_dev"], dev)
        results.append(row)
        _tally(summary, row)
        summary["max_cond"] = max(summary["max_cond"], cond)
    return results, summary


def sweep_overlap(config: RunConfig) -> tuple[list[dict], dict]:
    """Disjoint-growth identity: J extended by random E inside the complement."""
    tol = config.tol
    results: list[dict] = []
    summary = _new_summary()
    for t in range(config.trials):
        rng = _trial_rng(config, "overlap", t)
        field, d, n = _draw_shape(rng, config)
        frame = random_parseval(d, n, _seed_from(rng), field)
        subset = rng.subset(n)
        rest = [i for i in range(n) if i not in set(subset)]
        pick = rng.uniforms(len(rest)) < 0.5 if rest else np.zeros(0, dtype=bool)
        e = [i for k, i in enumerate(rest) if pick[k]]
        f = _unit_vector(rng, d, field)
        rep = overlap_identity_report(frame, subset, e, f, tol)
        row = {
            "suite": "overlap",
            "trial": t,
            "d": d,
            "n": n,
            "field": field,
            "rel_diff": rep.rel_diff,
            "passed": rep.passed,
        }
        results.append(row)
        _tally(summary, row)
    return results, summary


def sweep_bounds(config: RunConfig) -> tuple[list[dict], dict]:
    """Frame inequality, operator-norm sandwich, dual reconstruction,
    partial-operator additivity, and Parseval conversion."""
    tol = config.tol
    results: list[dict] = []
    summary = _new_summary()
    summary.update(max_recon_err=0.0, max_additivity_err=0.0, max_parseval_dev=0.0)
    for t in range(config.trials):
        rng = _trial_rng(config, "bounds", t)
        field, d, n = _draw_shape(rng, config)
        frame, cond = _conditioned_gaussian(rng, d, n, field)
        bounds = frame_bounds(frame)
        f = _unit_vector(rng, d, field)
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

        row = {
            "suite": "bounds",
            "trial": t,
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
        results.append(row)
        _tally(summary, row)
        summary["max_recon_err"] = max(summary["max_recon_err"], recon_err)
        summary["max_additivity_err"] = max(summary["max_additivity_err"], additivity_err)
        summary["max_parseval_dev"] = max(summary["max_parseval_dev"], parseval_dev)
    return results, summary


def _orthogonal_union(rng: SplitMix64, d: int, field: str) -> tuple[Frame, list[int]]:
    """Parseval frame split into two parts with orthogonal spans; the first
    part's indices make every equivalence condition hold."""
    r = _randint(rng, 1, d - 1)
    u = random_unitary(d, _seed_from(rng), field)
    first = random_parseval(r, _randint(rng, r, 2 * r), _seed_from(rng), field)
    second = random_parseval(d - r, _randint(rng, d - r, 2 * (d - r)), _seed_from(rng), field)
    rows_first = first.vectors @ u[:, :r].T
    rows_second = second.vectors @ u[:, r:].T
    if field == "real":
        rows_first = rows_first.real.astype(np.complex128)
        rows_second = rows_second.real.astype(np.complex128)
    combined = union(Frame(d, rows_first, field), Frame(d, rows_second, field))
    return combined, list(range(first.count))


def sweep_equivalence(config: RunConfig) -> tuple[list[dict], dict]:
    """Six-way equivalence: random Parseval splits (generically all-false)
    and, every 5th trial, an orthogonal-union construction (all-true)."""
    tol = config.tol
    results: list[dict] = []
    summary = _new_summary()
    summary.update(all_true=0, all_false=0, split=0)
    for t in range(config.trials):
        rng = _trial_rng(config, "equivalence", t)
        field, d, n = _draw_shape(rng, config)
        structured = t % 5 == 0 and d >= 2
        if structured:
            frame, subset = _orthogonal_union(rng, d, field)
            n = frame.count
        else:
            frame = random_parseval(d, n, _seed_from(rng), field)
            subset = rng.subset(n)
        f = _unit_vector(rng, d, field)
        rep = equivalence_conditions(frame, subset, f, tol)
        flags = [c.holds for c in rep.conditions]
        row = {
            "suite": "equivalence",
            "trial": t,
            "d": d,
            "n": n,
            "field": field,
            "structured": structured,
            "pattern": "".join("T" if h else "F" for h in flags),
            "consistent": rep.consistent,
            "borderline": rep.borderline,
            "rel_diff": 0.0,
            "passed": rep.consistent,
        }
        results.append(row)
        _tally(summary, row)
        if not rep.borderline:
            if all(flags):
                summary["all_true"] += 1
            elif not any(flags):
                summary["all_false"] += 1
            else:
                summary["split"] += 1
    return results, summary


def sweep_sj(config: RunConfig) -> tuple[list[dict], dict]:
    """Partial-operator structure, the resolution-difference identity, and
    the self-adjoint product equivalence (frame splits every trial; raw
    Hermitian and non-Hermitian resolutions every 5th)."""
    tol = config.tol
    results: list[dict] = []
    summary = _new_summary()
    summary.update(min_eig_product=float("inf"), min_eig_gap=float("inf"),
                   max_identity_residual=0.0)
    for t in range(config.trials):
        rng = _trial_rng(config, "sj", t)
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
            "suite": "sj",
            "trial": t,
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
            g = rng.complex_gaussians(d * d).reshape(d, d) if field == "complex" else \
                rng.gaussians(d * d).reshape(d, d).astype(np.complex128)
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
        results.append(row)
        _tally(summary, row)
        summary["min_eig_product"] = min(summary["min_eig_product"], structure.min_eig_product)
        summary["min_eig_gap"] = min(summary["min_eig_gap"], structure.min_eig_gap)
        summary["max_identity_residual"] = max(
            summary["max_identity_residual"], structure.residual_identity
        )
    return results, summary


def sweep_extension(config: RunConfig) -> tuple[list[dict], dict]:
    """Canonical vs unitary-mixed tight completions: equal added energy,
    operator, and span; lam alternates between lambda_max and a larger value."""
    tol = config.tol
    results: list[dict] = []
    summary = _new_summary()
    summary.update(max_operator_diff=0.0)
    for t in range(config.trials):
        rng = _trial_rng(config, "extension", t)
        field, d, n = _draw_shape(rng, config)
        frame = random_gaussian(d, n, _seed_from(rng), field)
        upper = frame_bounds(frame).upper
        use_auto = float(rng.uniforms(1)[0]) < 0.5
        lam = upper if use_auto else upper * (1.0 + float(rng.uniforms(1)[0]))
        mix_seed = _seed_from(rng)
        canonical = complete_to_tight(frame, lam)
        mixed = complete_to_tight(frame, lam, mix_seed=mix_seed)
        f = _unit_vector(rng, d, field)
        cmp = tight_extension_compare(
            frame, canonical, mixed, lam, f, trials=20, seed=_seed_from(rng),
            tolerance=tol,
        )
        op_diff = frobenius(canonical.operator - mixed.operator)
        row = {
            "suite": "extension",
            "trial": t,
            "d": d,
            "n": n,
            "field": field,
            "lam": lam,
            "added_count": canonical.count,
            "energy_equal": cmp.energy_equal,
            "operator_equal": cmp.operator_equal,
            "span_equal": cmp.span_equal,
            "operator_diff": op_diff,
            "rel_diff": cmp.max_energy_rel_diff,
            "passed": cmp.passed,
        }
        results.append(row)
        _tally(summary, row)
        summary["max_operator_diff"] = max(summary["max_operator_diff"], op_diff)
    return results, summary


_SUITE_FUNCTIONS = {
    "pfi": sweep_pfi,
    "general": sweep_general,
    "overlap": sweep_overlap,
    "bounds": sweep_bounds,
    "equivalence": sweep_equivalence,
    "sj": sweep_sj,
    "extension": sweep_extension,
}


def run_suite(name: str, config: RunConfig) -> tuple[list[dict], dict]:
    try:
        fn = _SUITE_FUNCTIONS[name]
    except KeyError:
        raise BadParams(
            f"unknown suite {name!r}; expected one of {list(SUITE_NAMES) + ['all']}"
        ) from None
    return fn(config)


def run_suites(names: list[str], config: RunConfig) -> tuple[list[dict], dict]:
    """Run several suites sequentially; summaries nest under their names."""
    all_results: list[dict] = []
    combined = _new_summary()
    combined["suites"] = {}
    for name in names:
        results, summary = run_suite(name, config)
        all_results.extend(results)
        combined["suites"][name] = summary
        for key in ("total", "passed", "failed", "borderline"):
            combined[key] += summary[key]
        combined["max_rel_diff"] = max(combined["max_rel_diff"], summary["max_rel_diff"])
    return all_results, combined
