"""Seeded randomized verification suites.

Each suite replays one family of checks over `trials` independent trials.
Determinism contract: trial t of suite s under master seed m draws from
the stream SplitMix64(m).derive(index of s).derive(t), and every draw
inside a trial happens in a fixed documented order, so a run is a pure
function of (suite, seed, trials, ranges) and the suite section of an
"all" run is byte-identical to the same suite run alone.

A suite is a runner, which turns a block of consecutive trials into one
row each, plus the reducers that fold its rows into a summary;
`run_suite` feeds it blocks of at most _BLOCK trials, so memory stays
bounded at any trial count. The general, bounds and extension suites run
one trial function per trial. The pfi, overlap, equivalence and sj
suites are batched: every trial of the block first makes all of its draws
from its own stream, in the same order as a trial run alone would, and
then each (field, d) group of the block goes through the algebra at once,
as zero-padded stacks (one stacked eigendecomposition per spectral step).
Per-trial extras (the pfi subspace embedding, the equivalence
orthogonal-union construction, the sj raw resolutions) stay public
function calls. A batched row agrees with its scalar replay, one trial
through the public functions, to 1e-12 * max(1, |v|) in every float and
exactly in every count, flag and string; it depends on the other trials
of its group only in rounding.

Results are JSON-ready dicts, one per trial; the summary counts
passed/failed/borderline (borderline only ever nonzero for the
equivalence suite) and tracks the worst residuals seen.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BadParams
from .frames import (
    MAX_COND,
    TAU_ID,
    Frame,
    _analysis,
    _operator,
    _parseval_stack,
    _partial_operator,
    as_tolerance,
    bessel_inequality_check,
    canonical_dual,
    coefficients,
    complete_to_tight,
    embed_subspace_frame,
    frame_bounds,
    norm_sq,
    parsevalize,
    random_gaussian,
    random_isometry,
    random_parseval,
    subset_mask,
    union,
)
from .identities import (
    _PARSEVAL_TERMS,
    _TIGHT_TERMS,
    _bound_check,
    _equivalence_report,
    _equivalence_residuals,
    _norm_sides,
    _operator_identity,
    _overlap_report,
    _overlap_sides,
    _partial_structure,
    _require_parseval,
    _require_resolution,
    _require_tight,
    _self_adjoint_product,
    _split_report,
    general_identity_report,
    operator_identity_check,
    parseval_identity_report,
    self_adjoint_product_check,
    subspace_identity_report,
    tight_extension_compare,
)
from .linalg import frobenius, hermitian_eig, hermitize
from .rng import SplitMix64

SUITE_NAMES = ("pfi", "general", "overlap", "bounds", "equivalence", "sj", "extension")

_RESAMPLE_LIMIT = 1000
_BLOCK = 1024  # trials drawn and solved together; bounds the size of the stacks


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


# ---------------------------------------------------------------------------
# trials: one row each, drawn from the trial's own stream


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


def _orthogonal_union(rng: SplitMix64, d: int, field: str) -> tuple[Frame, list[int]]:
    """Parseval frame split into two parts with orthogonal spans; the first
    part's indices make every equivalence condition hold."""
    r = _randint(rng, 1, d - 1)
    u = random_isometry(d, d, rng.next_raw(), field)
    first = random_parseval(r, _randint(rng, r, 2 * r), rng.next_raw(), field)
    second = random_parseval(d - r, _randint(rng, d - r, 2 * (d - r)), rng.next_raw(), field)
    rows_first = first.vectors @ u[:, :r].T
    rows_second = second.vectors @ u[:, r:].T
    if field == "real":
        rows_first = rows_first.real.astype(np.complex128)
        rows_second = rows_second.real.astype(np.complex128)
    combined = union(Frame(d, rows_first, field), Frame(d, rows_second, field))
    return combined, list(range(first.count))


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


# ---------------------------------------------------------------------------
# batched suites: per-trial draws, then the algebra once per (field, d) group
#
# A draw is a dict holding the trial's shape ("field", "d", "n") and every
# input it drew, in draw order; "seed" is its random_parseval seed, or
# "vectors" a family it built itself, and "subset" is J as an index list.


def _masks(group: list[dict], key: str, width: int) -> np.ndarray:
    """The index lists group[k][key] as a (len(group), width) boolean stack."""
    mask = np.zeros((len(group), width), dtype=bool)
    for k, draw in enumerate(group):
        mask[k, draw[key]] = True
    return mask


def _parseval_group(group: list[dict], tol: float) -> tuple[np.ndarray, np.ndarray]:
    """The group's Parseval families, zero-padded, and their J masks; raises
    NotParseval, as each trial's first report would, unless every frame
    operator is the identity within tol."""
    field, d = group[0]["field"], group[0]["d"]
    vectors = np.zeros((len(group), max(draw["n"] for draw in group), d), dtype=np.complex128)
    seeded = [k for k, draw in enumerate(group) if "seed" in draw]
    if seeded:
        stack = _parseval_stack(d, [group[k]["n"] for k in seeded],
                                [group[k]["seed"] for k in seeded], field)
        vectors[seeded, :stack.shape[1]] = stack
    for k, draw in enumerate(group):
        if "vectors" in draw:
            vectors[k, :draw["n"]] = draw["vectors"]
    _require_parseval(hermitian_eig(_operator(vectors)).eigenvalues, tol)
    return vectors, _masks(group, "subset", vectors.shape[1])


def _columns(arrays) -> list[tuple]:
    """One tuple of Python numbers per family from stacked (B,) arrays."""
    return list(zip(*(a.tolist() for a in arrays)))


def _shape(draw: dict) -> dict:
    return {"d": draw["d"], "n": draw["n"], "field": draw["field"]}


def _pfi_draw(rng: SplitMix64, t: int, config: RunConfig) -> dict:
    field, d, n = _draw_shape(rng, config)
    draw = {"field": field, "d": d, "n": n, "seed": rng.next_raw(), "subset": rng.subset(n),
            "f": rng.unit_vector(d, field), "lam": 0.25 + 3.0 * rng.uniform()}
    if t % 10 == 0:
        ambient = d + 1 + _randint(rng, 0, 3)
        draw["embedding"] = (ambient, rng.next_raw(), rng.unit_vector(ambient, field))
    return draw


def _pfi_solve(group: list[dict], config: RunConfig) -> list[dict]:
    """Parseval energy-split identity, plus the bound checks, the tight
    rescaling consistency, and (every 10th trial) a subspace embedding."""
    tol = config.tol
    vectors, mask = _parseval_group(group, tol)
    f = np.array([draw["f"] for draw in group])
    lam = np.array([draw["lam"] for draw in group])
    sides = _columns(_norm_sides(vectors, _analysis(vectors, f), mask))
    # scaling by sqrt(lam) multiplies every degree-2 term by lam and the
    # extra lam prefactor doubles it: tight sides = lam^2 * Parseval sides
    scaled = vectors * np.sqrt(lam)[:, None, None]
    _require_tight(hermitian_eig(_operator(scaled)).eigenvalues, lam, tol)
    tight_sides = _columns(_norm_sides(scaled, _analysis(scaled, f), mask, weight=lam))
    rows = []
    for k, (draw, nf) in enumerate(zip(group, norm_sq(f).tolist())):
        rep = _split_report(_PARSEVAL_TERMS, sides[k], tol)
        half = _bound_check(sides[k], nf, 0.5, tol)
        tq = _bound_check(sides[k], nf, 0.75, tol)
        min_side = min(rep.lhs, rep.rhs)
        tight = _split_report(_TIGHT_TERMS, tight_sides[k], tol)
        factor = draw["lam"] * draw["lam"]
        tight_rel = max(
            abs(tight.lhs - factor * rep.lhs), abs(tight.rhs - factor * rep.rhs)
        ) / max(1.0, factor)
        row = {
            **_shape(draw),
            "rel_diff": rep.rel_diff,
            "min_side": min_side,
            "bound_ratio": tq.value / nf,
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
        if "embedding" in draw:
            ambient, iso_seed, f_amb = draw["embedding"]
            d, field = draw["d"], draw["field"]
            frame = Frame(d, vectors[k, :draw["n"]], field)
            sub = embed_subspace_frame(frame, ambient,
                                       random_isometry(ambient, d, iso_seed, field))
            rep_s = subspace_identity_report(sub, draw["subset"], f_amb, tol)
            row["subspace_rel"] = rep_s.rel_diff
            row["projection_dev"] = rep_s.terms["projection_dev"]
            row["passed"] = bool(row["passed"] and rep_s.passed)
        rows.append(row)
    return rows


def _overlap_draw(rng: SplitMix64, t: int, config: RunConfig) -> dict:
    field, d, n = _draw_shape(rng, config)
    draw = {"field": field, "d": d, "n": n, "seed": rng.next_raw(), "subset": rng.subset(n)}
    outside = np.ones(n, dtype=bool)
    outside[draw["subset"]] = False
    rest = np.flatnonzero(outside)
    draw["e"] = rest[rng.uniforms(rest.size) < 0.5].tolist()
    draw["f"] = rng.unit_vector(d, field)
    return draw


def _overlap_solve(group: list[dict], config: RunConfig) -> list[dict]:
    """Disjoint-growth identity: J extended by random E inside the complement."""
    vectors, mask = _parseval_group(group, config.tol)
    f = np.array([draw["f"] for draw in group])
    e = _masks(group, "e", vectors.shape[1])
    rows = []
    for draw, terms in zip(group, _columns(_overlap_sides(vectors, _analysis(vectors, f),
                                                          mask, e))):
        rep = _overlap_report(terms, config.tol)
        rows.append({**_shape(draw), "rel_diff": rep.rel_diff, "passed": rep.passed})
    return rows


def _equivalence_draw(rng: SplitMix64, t: int, config: RunConfig) -> dict:
    field, d, n = _draw_shape(rng, config)
    draw = {"field": field, "d": d, "structured": t % 5 == 0 and d >= 2}
    if draw["structured"]:
        frame, subset = _orthogonal_union(rng, d, field)
        draw.update(n=frame.count, vectors=frame.vectors, subset=subset)
    else:
        draw.update(n=n, seed=rng.next_raw(), subset=rng.subset(n))
    draw["f"] = rng.unit_vector(d, field)
    return draw


def _equivalence_solve(group: list[dict], config: RunConfig) -> list[dict]:
    """Six-way equivalence: random Parseval splits (generically all-false)
    and, every 5th trial, an orthogonal-union construction (all-true)."""
    vectors, mask = _parseval_group(group, config.tol)
    f = np.array([draw["f"] for draw in group])
    residuals = _columns(_equivalence_residuals(vectors, f, mask))
    rows = []
    for draw, res, nf in zip(group, residuals, norm_sq(f).tolist()):
        rep = _equivalence_report(res, max(1.0, nf), config.tol)
        rows.append({
            **_shape(draw),
            "structured": draw["structured"],
            "pattern": "".join("T" if c.holds else "F" for c in rep.conditions),
            "consistent": rep.consistent,
            "borderline": rep.borderline,
            "rel_diff": 0.0,
            "passed": rep.consistent,
        })
    return rows


def _sj_draw(rng: SplitMix64, t: int, config: RunConfig) -> dict:
    field, d, n = _draw_shape(rng, config)
    draw = {"field": field, "d": d, "n": n, "seed": rng.next_raw(), "subset": rng.subset(n)}
    if t % 5 == 0:
        draw["raw"] = rng.normals(d * d, field).reshape(d, d)
    return draw


def _sj_solve(group: list[dict], config: RunConfig) -> list[dict]:
    """Partial-operator structure, the resolution-difference identity, and
    the self-adjoint product equivalence (frame splits every trial; raw
    Hermitian and non-Hermitian resolutions every 5th)."""
    tol = config.tol
    vectors, mask = _parseval_group(group, tol)
    s_j = _partial_operator(vectors, mask)
    s_jc = _partial_operator(vectors, ~mask)
    structure = _columns(_partial_structure(s_j, s_jc, tol))
    _require_resolution(s_j, s_jc, tol)
    op_check = _columns(_operator_identity(s_j, s_jc, tol))
    sa_check = _columns(_self_adjoint_product(s_j, s_jc))
    rows = []
    for k, draw in enumerate(group):
        residual, min_eig_product, min_eig_gap, _, structure_ok = structure[k]
        op_res, op_ok = op_check[k]
        s_sa, t_sa, p_sa = sa_check[k]
        row = {
            **_shape(draw),
            "residual_identity": residual,
            "min_eig_product": min_eig_product,
            "min_eig_gap": min_eig_gap,
            "op_residual": op_res,
            "rel_diff": max(residual, op_res),
            "passed": bool(
                structure_ok and op_ok and ((s_sa and t_sa) == p_sa) and p_sa
            ),
        }
        if "raw" in draw:
            # raw resolutions of the identity, Hermitian and not
            g = draw["raw"]
            eye = np.eye(draw["d"])
            h = hermitize(g)
            op_h = operator_identity_check(h, eye - h, tol)
            sa_h = self_adjoint_product_check(h, eye - h, tol)
            op_n = operator_identity_check(g, eye - g, tol)
            sa_n = self_adjoint_product_check(g, eye - g, tol)
            row["rel_diff"] = max(row["rel_diff"], op_h.residual, op_n.residual)
            row["passed"] = bool(
                row["passed"]
                and op_h.passed and sa_h.equivalence_holds and sa_h.product_self_adjoint
                and op_n.passed and sa_n.equivalence_holds
                and not sa_n.product_self_adjoint
            )
        rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# runners: a block of trials in, one row per trial out, in trial order


def _per_trial(trial):
    """Runner that builds each row from its own trial alone."""
    def run(name: str, trials: range, config: RunConfig) -> list[dict]:
        return [trial(_trial_rng(config, name, t), t, config) for t in trials]
    return run


def _batched(draw, solve):
    """Runner that makes every trial's draws, then solves each (field, d)
    group of draws at once."""
    def run(name: str, trials: range, config: RunConfig) -> list[dict]:
        draws = [draw(_trial_rng(config, name, t), t, config) for t in trials]
        groups: dict[tuple[str, int], list[int]] = {}
        for k, dr in enumerate(draws):
            groups.setdefault((dr["field"], dr["d"]), []).append(k)
        rows: list = [None] * len(draws)
        for members in groups.values():
            for k, row in zip(members, solve([draws[k] for k in members], config)):
                rows[k] = row
        return rows
    return run


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
    "pfi": (_batched(_pfi_draw, _pfi_solve), (
        ("max_rel_diff", max, 0.0,
         lambda row: (row["rel_diff"], row["tight_reduction_rel"], row["subspace_rel"] or 0.0)),
        ("min_side", min, _INF, "min_side"),
        ("min_bound_ratio", min, _INF, "bound_ratio"),
        ("max_tight_reduction_rel", max, 0.0, "tight_reduction_rel"),
        ("subspace_trials", _count, 0, lambda row: (row["subspace_rel"] is not None,)),
        ("max_subspace_rel", max, 0.0, "subspace_rel"),
        ("max_projection_dev", max, 0.0, "projection_dev"),
    )),
    "general": (_per_trial(_general_trial), (
        _MAX_REL,
        ("max_cond", max, 0.0, "cond"),
        ("reduction_trials", _count, 0, lambda row: (row["reduction_dev"] is not None,)),
        ("max_reduction_dev", max, 0.0, "reduction_dev"),
    )),
    "overlap": (_batched(_overlap_draw, _overlap_solve), (_MAX_REL,)),
    "bounds": (_per_trial(_bounds_trial), (
        _MAX_REL,
        ("max_recon_err", max, 0.0, "recon_err"),
        ("max_additivity_err", max, 0.0, "additivity_err"),
        ("max_parseval_dev", max, 0.0, "parseval_dev"),
    )),
    "equivalence": (_batched(_equivalence_draw, _equivalence_solve), (
        _MAX_REL,
        ("all_true", _count, 0, lambda row: (_pattern_kind(row) == "all_true",)),
        ("all_false", _count, 0, lambda row: (_pattern_kind(row) == "all_false",)),
        ("split", _count, 0, lambda row: (_pattern_kind(row) == "split",)),
    )),
    "sj": (_batched(_sj_draw, _sj_solve), (
        _MAX_REL,
        ("min_eig_product", min, _INF, "min_eig_product"),
        ("min_eig_gap", min, _INF, "min_eig_gap"),
        ("max_identity_residual", max, 0.0, "residual_identity"),
    )),
    "extension": (_per_trial(_extension_trial), (
        _MAX_REL,
        ("max_operator_diff", max, 0.0, "operator_diff"),
    )),
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
        runner, reducers = _SUITES[name]
    except KeyError:
        raise BadParams(
            f"unknown suite {name!r}; expected one of {list(SUITE_NAMES) + ['all']}"
        ) from None
    rows = []
    for start in range(0, config.trials, _BLOCK):
        block = range(start, min(start + _BLOCK, config.trials))
        rows += [{"suite": name, "trial": t, **row}
                 for t, row in zip(block, runner(name, block, config))]
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
