"""Seeded randomized verification suites.

Each suite replays one family of checks over `trials` independent trials.
Determinism contract: trial t of suite s under master seed m draws from
the stream SplitMix64(m).derive(index of s).derive(t), and every draw
inside a trial happens in a fixed documented order, so a run is a pure
function of (suite, seed, trials, ranges) and the suite section of an
"all" run is byte-identical to the same suite run alone.

A suite is a draw function, a solve function and the reducers that fold
its rows into a summary; `run_suite` feeds blocks of at most _BLOCK
trials to the one runner, so memory stays bounded at any trial count.
Every suite is batched: every trial of the block first makes its draws
from its own stream, in the same order as a trial run alone would, and
then each (field, d) group of the block goes through the algebra at once,
as zero-padded stacks (one stacked eigendecomposition per spectral step).
The general and bounds trials draw a conditioned Gaussian frame, whose
first attempt decides how much of the stream comes before the rest of
the trial's draws: their draw stops at the first attempt's seed, the
solve tests every first attempt of the group with one stacked
eigendecomposition, a rejected trial falls back to drawing further
attempts from its own stream, and only then are the trial's remaining
inputs drawn. Per-trial extras (the pfi subspace embedding, the general
Parseval reduction, the equivalence orthogonal-union construction, the sj
raw resolutions, the extension mixing unitary) stay per-trial calls. A
row agrees with its scalar replay, one trial through the public
functions, to 1e-12 * max(1, |v|) in every float and exactly in every
count, flag and string; it depends on the other trials of its group only
in rounding. A failing check raises for the first failing trial of the
group at that check.

A block of at least 2 * _SPLIT_TRIALS trials, in a process that runs no
other Python thread, shares its (field, d) groups out between this
process and forked children: at most one process per CPU it may run on
and one per _SPLIT_TRIALS trials, with a greedy balance of sum(n * d^2)
per group. A group's draws and solve do not depend on where it runs, so
the rows, and every byte printed from them, are those of a run on one
process (`taskset -c 0` gives one). Each process draws all its groups
before it solves any, and errors merge in serial order: the block raises
the exception, type and message, that a run on one process raises, that
of the first group, in order of first appearance, whose draw raises, or
else of the first group whose solve raises.

Results are JSON-ready dicts, one per trial; the summary counts
passed/failed/borderline (borderline only ever nonzero for the
equivalence suite) and tracks the worst residuals seen.
"""

from __future__ import annotations

import os
import pickle
import threading
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import BadParams, FrameError
from .frames import (
    TAU_ID,
    Frame,
    _analysis,
    _bessel,
    _completion,
    _conditioning,
    _finite_operator,
    _gaussian_stack,
    _match_field,
    _operator,
    _parseval_stack,
    _partial_operator,
    _spectral_rows,
    _synthesis,
    as_tolerance,
    embed_subspace_frame,
    norm_sq,
    random_gaussian,
    random_isometry,
    random_parseval,
)
from .identities import (
    _GENERAL_TERMS,
    _PARSEVAL_TERMS,
    _TIGHT_TERMS,
    _bound_check,
    _equivalence_report,
    _equivalence_residuals,
    _extension_compare,
    _general_sides,
    _norm_sides,
    _operator_identity,
    _overlap_report,
    _overlap_sides,
    _partial_structure,
    _probe_block,
    _require_parseval,
    _require_resolution,
    _require_tight,
    _require_tight_union,
    _self_adjoint_product,
    _split_report,
    general_identity_report,
    operator_identity_check,
    parseval_identity_report,
    self_adjoint_product_check,
    subspace_identity_report,
)
from .linalg import EigenDecomposition, frobenius, hermitian_eig, hermitize
from .rng import SplitMix64

SUITE_NAMES = ("pfi", "general", "overlap", "bounds", "equivalence", "sj", "extension")

_RESAMPLE_LIMIT = 1000
_BLOCK = 1024  # trials drawn and solved together; bounds the size of the stacks
# processes a block's (field, d) groups are shared out to, at most one per CPU
# this process may run on, and the trials per process below which the fork
# costs more than it saves (a 40-trial block stays on one process)
_PROCS = (len(os.sched_getaffinity(0))
          if hasattr(os, "fork") and hasattr(os, "sched_getaffinity") else 1)
_SPLIT_TRIALS = 50


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
    """Seeded Gaussian frame resampled until cond(S) <= 1e3, for a trial
    whose first attempt was rejected: each further attempt is seeded by the
    stream's next raw output, and the limit counts the first attempt too."""
    for _ in range(1, _RESAMPLE_LIMIT):
        frame = random_gaussian(dim, count, rng.next_raw(), field)
        accepted, cond = _conditioning(frame.spectrum.eigenvalues)
        if accepted:
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


# ---------------------------------------------------------------------------
# suites: per-trial draws, then the algebra once per (field, d) group
#
# A draw function takes the trial's stream just after the runner drew the
# trial's shape (field, d, n) from it, and returns a dict holding the shape
# ("field", "d", "n") and every input it drew, in draw order; "seed" is the
# seed of its first random family, or "vectors" a family it built itself,
# and "subset" is J as an index list. The general and bounds draws stop at the seed of their first
# Gaussian attempt and keep the trial's stream as "rng": whether that
# attempt is accepted decides how many stream positions come before J and
# f, so their solve tests it first and then makes the trial's remaining
# draws, in the same order as a trial run alone.


def _masks(group: list[dict], key: str, width: int) -> np.ndarray:
    """The index lists group[k][key] as a (len(group), width) boolean stack."""
    mask = np.zeros((len(group), width), dtype=bool)
    for k, draw in enumerate(group):
        mask[k, draw[key]] = True
    return mask


def _parseval_group(group: list[dict], tol: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The group's Parseval families, zero-padded, their J masks and the
    spectra of their frame operators; raises NotParseval, as each trial's
    first report would, unless every frame operator is the identity within tol."""
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
    w = hermitian_eig(_operator(vectors)).eigenvalues
    _require_parseval(w, tol)
    return vectors, _masks(group, "subset", vectors.shape[1]), w


def _conditioned_group(group: list[dict]) -> tuple:
    """The group's conditioned Gaussian frames, zero-padded, with their frame
    operators, spectra and cond(S).

    The first attempts are tested together, with one stacked
    eigendecomposition. A trial whose first attempt is rejected goes on
    through _conditioned_gaussian on its own stream, as a trial run alone
    would, and its accepted frame replaces the first attempt in every array.
    """
    field, d = group[0]["field"], group[0]["d"]
    vectors = _gaussian_stack(d, [draw["n"] for draw in group],
                              [draw["seed"] for draw in group], field)
    s = _operator(vectors)
    dec = hermitian_eig(s)
    w, v = dec.eigenvalues.copy(), dec.eigenvectors.copy()
    accepted, cond = _conditioning(w)
    for k in np.flatnonzero(~accepted):
        draw = group[k]
        frame, cond[k] = _conditioned_gaussian(draw["rng"], d, draw["n"], field)
        vectors[k, :draw["n"]] = frame.vectors
        s[k], w[k], v[k] = frame.operator, frame.spectrum.eigenvalues, frame.spectrum.eigenvectors
    return vectors, s, EigenDecomposition(w, v), cond


def _columns(arrays) -> list[tuple]:
    """One tuple of Python numbers per family from stacked (B,) arrays."""
    return list(zip(*(a.tolist() for a in arrays)))


def _shape(draw: dict) -> dict:
    return {"d": draw["d"], "n": draw["n"], "field": draw["field"]}


def _pfi_draw(rng: SplitMix64, t: int, field: str, d: int, n: int) -> dict:
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
    vectors, mask, w = _parseval_group(group, tol)
    f = np.array([draw["f"] for draw in group])
    lam = np.array([draw["lam"] for draw in group])
    sides = _columns(_norm_sides(vectors, _analysis(vectors, f), mask))
    # scaling by sqrt(lam) multiplies every degree-2 term by lam and the
    # extra lam prefactor doubles it: tight sides = lam^2 * Parseval sides
    scaled = vectors * np.sqrt(lam)[:, None, None]
    # The scaled frame operator is lam * S entry by entry, up to one rounding
    # per entry, so its spectrum is lam * w to within a few ulps of lam: the
    # same lam-tightness test, at the same tolerance, as decomposing it again.
    _require_tight(lam[:, None] * w, lam, tol)
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


def _overlap_draw(rng: SplitMix64, t: int, field: str, d: int, n: int) -> dict:
    draw = {"field": field, "d": d, "n": n, "seed": rng.next_raw(), "subset": rng.subset(n)}
    outside = np.ones(n, dtype=bool)
    outside[draw["subset"]] = False
    rest = np.flatnonzero(outside)
    draw["e"] = rest[rng.uniforms(rest.size) < 0.5].tolist()
    draw["f"] = rng.unit_vector(d, field)
    return draw


def _overlap_solve(group: list[dict], config: RunConfig) -> list[dict]:
    """Disjoint-growth identity: J extended by random E inside the complement."""
    vectors, mask, _ = _parseval_group(group, config.tol)
    f = np.array([draw["f"] for draw in group])
    e = _masks(group, "e", vectors.shape[1])
    rows = []
    for draw, terms in zip(group, _columns(_overlap_sides(vectors, _analysis(vectors, f),
                                                          mask, e))):
        rep = _overlap_report(terms, config.tol)
        rows.append({**_shape(draw), "rel_diff": rep.rel_diff, "passed": rep.passed})
    return rows


def _equivalence_draw(rng: SplitMix64, t: int, field: str, d: int, n: int) -> dict:
    draw = {"field": field, "d": d, "structured": t % 5 == 0 and d >= 2}
    if draw["structured"]:
        vectors, subset = _orthogonal_union(rng, d, field)
        draw.update(n=len(vectors), vectors=vectors, subset=subset)
    else:
        draw.update(n=n, seed=rng.next_raw(), subset=rng.subset(n))
    draw["f"] = rng.unit_vector(d, field)
    return draw


def _equivalence_solve(group: list[dict], config: RunConfig) -> list[dict]:
    """Six-way equivalence: random Parseval splits (generically all-false)
    and, every 5th trial, an orthogonal-union construction (all-true)."""
    vectors, mask, _ = _parseval_group(group, config.tol)
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


def _sj_draw(rng: SplitMix64, t: int, field: str, d: int, n: int) -> dict:
    draw = {"field": field, "d": d, "n": n, "seed": rng.next_raw(), "subset": rng.subset(n)}
    if t % 5 == 0:
        draw["raw"] = rng.normals(d * d, field).reshape(d, d)
    return draw


def _sj_solve(group: list[dict], config: RunConfig) -> list[dict]:
    """Partial-operator structure, the resolution-difference identity, and
    the self-adjoint product equivalence (frame splits every trial; raw
    Hermitian and non-Hermitian resolutions every 5th)."""
    tol = config.tol
    vectors, mask, _ = _parseval_group(group, tol)
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
            # a real 1x1 draw is self-adjoint, so only a larger or complex
            # draw must give a product that is not
            row["passed"] = bool(
                row["passed"]
                and op_h.passed and sa_h.equivalence_holds and sa_h.product_self_adjoint
                and op_n.passed and sa_n.equivalence_holds
                and (not sa_n.product_self_adjoint or (draw["d"] == 1 and draw["field"] == "real"))
            )
        rows.append(row)
    return rows


def _general_draw(rng: SplitMix64, t: int, field: str, d: int, n: int) -> dict:
    return {"field": field, "d": d, "n": n, "seed": rng.next_raw(), "rng": rng,
            "reduction": t % 10 == 0}


def _general_solve(group: list[dict], config: RunConfig) -> list[dict]:
    """Dual-weighted energy split on conditioned Gaussian frames; every
    10th trial cross-checks the Parseval reduction term by term."""
    tol = config.tol
    field, d = group[0]["field"], group[0]["d"]
    vectors, _, dec, cond = _conditioned_group(group)
    for draw in group:
        rng, n = draw["rng"], draw["n"]
        draw["subset"] = rng.subset(n)
        draw["f"] = rng.unit_vector(d, field)
        if draw["reduction"]:
            draw["reduction"] = (rng.next_raw(), rng.subset(n), rng.unit_vector(d, field))
    f = np.array([draw["f"] for draw in group])
    dual = _spectral_rows(vectors, dec, "inverse", field)
    sides = _columns(_general_sides(vectors, dual, _analysis(vectors, f),
                                    _masks(group, "subset", vectors.shape[1])))
    rows = []
    for draw, cond_k, sides_k in zip(group, cond.tolist(), sides):
        rep = _split_report(_GENERAL_TERMS, sides_k, tol)
        row = {
            **_shape(draw),
            "cond": cond_k,
            "rel_diff": rep.rel_diff,
            "reduction_dev": None,
            "passed": rep.passed,
        }
        if draw["reduction"]:
            # on a Parseval frame the dual term collapses to the plain norm
            seed, sub2, f2 = draw["reduction"]
            pframe = random_parseval(d, draw["n"], seed, field)
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
        rows.append(row)
    return rows


def _bounds_draw(rng: SplitMix64, t: int, field: str, d: int, n: int) -> dict:
    return {"field": field, "d": d, "n": n, "seed": rng.next_raw(), "rng": rng}


def _bounds_solve(group: list[dict], config: RunConfig) -> list[dict]:
    """Frame inequality, operator-norm sandwich, dual reconstruction,
    partial-operator additivity, and Parseval conversion."""
    tol = config.tol
    field, d = group[0]["field"], group[0]["d"]
    vectors, s, dec, cond = _conditioned_group(group)
    for draw in group:
        draw["f"] = draw["rng"].unit_vector(d, field)
        draw["subset"] = draw["rng"].subset(draw["n"])
    f = np.array([draw["f"] for draw in group])
    nf = norm_sq(f)
    w = dec.eigenvalues
    lower, upper = np.maximum(w[:, 0], 0.0), np.maximum(w[:, -1], 0.0)
    _, _, energy, _, sandwich_ok = _bessel(vectors, _analysis(vectors, f), lower, upper)
    slack = tol * np.maximum(np.maximum(1.0, energy), upper * nf)
    inequality_ok = (lower * nf - slack <= energy) & (energy <= upper * nf + slack)

    recon = _synthesis(vectors, _analysis(_spectral_rows(vectors, dec, "inverse", field), f))
    recon_err = np.sqrt(norm_sq(recon - f)) / np.maximum(1.0, np.sqrt(nf))

    mask = _masks(group, "subset", vectors.shape[1])
    s_sum = _partial_operator(vectors, mask) + _partial_operator(vectors, ~mask)
    additivity_err = frobenius(s_sum - s) / np.maximum(1.0, frobenius(s))

    parseval = _spectral_rows(vectors, dec, "inv_sqrt", field)
    parseval_dev = frobenius(_operator(parseval) - np.eye(d))

    rows = []
    for draw, (cond_k, ineq, sandwich, recon_k, additivity, pdev) in zip(group, _columns(
            (cond, inequality_ok, sandwich_ok, recon_err, additivity_err, parseval_dev))):
        rows.append({
            **_shape(draw),
            "cond": cond_k,
            "inequality_ok": ineq,
            "sandwich_ok": sandwich,
            "recon_err": recon_k,
            "additivity_err": additivity,
            "parseval_dev": pdev,
            "rel_diff": max(recon_k, additivity, pdev),
            "passed": bool(
                ineq
                and sandwich
                and recon_k <= tol
                and additivity <= 1e-12
                and pdev <= tol
            ),
        })
    return rows


def _extension_draw(rng: SplitMix64, t: int, field: str, d: int, n: int) -> dict:
    draw = {"field": field, "d": d, "n": n, "seed": rng.next_raw(),
            "stretch": None if rng.uniform() < 0.5 else 1.0 + rng.uniform(),
            "mix_seed": rng.next_raw()}
    f = rng.unit_vector(d, field)
    draw["probes"] = _probe_block(f, d, field, 20, rng.next_raw())
    return draw


def _extension_solve(group: list[dict], config: RunConfig) -> list[dict]:
    """Canonical vs unitary-mixed tight completions: equal added energy,
    operator, and span; lam alternates between lambda_max and a larger value.

    A completion keeps its dropped columns as zero rows, so both added
    families of a trial are (d, d) under the mask of kept columns; the
    mixing unitary acts on the kept positions only.
    """
    tol = config.tol
    field, d = group[0]["field"], group[0]["d"]
    base = _gaussian_stack(d, [draw["n"] for draw in group],
                           [draw["seed"] for draw in group], field)
    dec = hermitian_eig(_finite_operator(base))
    upper = np.maximum(dec.eigenvalues[:, -1], 0.0).tolist()
    lam = np.array([u if draw["stretch"] is None else u * draw["stretch"]
                    for u, draw in zip(upper, group)])
    root, keep = _completion(dec, lam)
    canonical = np.where(keep[:, None, :], root, 0.0)
    mix = np.zeros((len(group), d, d), dtype=np.complex128)
    for k, draw in enumerate(group):
        kept = np.flatnonzero(keep[k])
        if kept.size:
            mix[k][np.ix_(kept, kept)] = random_isometry(kept.size, kept.size,
                                                         draw["mix_seed"], field)
    added = [_match_field(cols.swapaxes(-1, -2), field) for cols in (canonical, canonical @ mix)]
    ops = [_finite_operator(rows) for rows in added]
    for rows in added:
        union = _finite_operator(np.concatenate([base, rows], axis=-2))
        _require_tight_union(hermitian_eig(union).eigenvalues, lam, tol)
    probes = np.array([draw["probes"] for draw in group])
    max_rel, energy_equal, operator_equal, span_equal = _extension_compare(
        probes, *added, *ops, *map(hermitian_eig, ops), tol)
    rows = []
    for draw, (lam_k, count, energy_eq, operator_eq, span_eq, diff, rel) in zip(group, _columns(
            (lam, keep.sum(axis=-1), energy_equal, operator_equal, span_equal,
             frobenius(ops[0] - ops[1]), max_rel))):
        rows.append({
            **_shape(draw),
            "lam": lam_k,
            "added_count": count,
            "energy_equal": energy_eq,
            "operator_equal": operator_eq,
            "span_equal": span_eq,
            "operator_diff": diff,
            "rel_diff": rel,
            "passed": energy_eq and operator_eq and span_eq,
        })
    return rows


# ---------------------------------------------------------------------------
# the runner: a block of trials in, one row per trial out, in trial order


def _run_block(name: str, trials: range, config: RunConfig) -> list[dict]:
    """One row per trial of the block, in trial order.

    A shape pre-pass groups the trials by (field, d), and the groups are
    shared out between this process and forked children (see the module
    docstring); each process draws and solves its own groups.
    """
    groups: dict[tuple[str, int], list[tuple[int, SplitMix64, int]]] = {}
    cost: dict[tuple[str, int], int] = {}
    for t in trials:
        rng = _trial_rng(config, name, t)
        field, d, n = _draw_shape(rng, config)
        groups.setdefault((field, d), []).append((t, rng, n))
        cost[field, d] = cost.get((field, d), 0) + n * d * d
    procs = max(1, min(_PROCS, len(trials) // _SPLIT_TRIALS, len(groups)))
    if threading.active_count() > 1:  # fork copies no other thread of this process
        procs = 1
    owner: dict[tuple[str, int], int] = {}
    loads = [0] * procs
    for key in sorted(groups, key=lambda key: -cost[key]):  # the costliest to the least loaded
        owner[key] = p = loads.index(min(loads))
        loads[p] += cost[key]
    parts = [[(index, key, members) for index, (key, members) in enumerate(groups.items())
              if owner[key] == p] for p in range(len(loads))]
    local, children = parts[:1], []
    try:
        for part in parts[1:]:
            try:
                children.append(_fork_part(name, part, config))
            except OSError:  # no process to spare: solve the part here
                local.append(part)
        results = [_solve_part(name, part, config) for part in local]
        while children:
            results.append(_collect(name, *children.pop(0)))
    finally:
        for pid, fd in children:
            os.close(fd)
            os.waitpid(pid, 0)
    rows = {t: row for part_rows, _ in results for t, row in part_rows.items()}
    failures = [failure for _, failure in results if failure is not None]
    if failures:
        raise min(failures, key=lambda failure: failure[:2])[2]
    return [rows[t] for t in trials]


def _solve_part(name: str, part: list[tuple], config: RunConfig) -> tuple[dict, tuple | None]:
    """Rows by trial of the groups in `part`, each (serial index, (field, d),
    [(trial, stream after the shape, n), ...]), and the first failure as
    (step, serial index, exception), or None. Every group of the part is
    drawn (step 0) before the groups are solved (step 1), both in serial
    group order, as on one process; a failure stops the part."""
    draw, solve, _ = _SUITES[name]
    rows: dict[int, dict] = {}
    step = index = 0
    try:
        draws = []
        for index, (field, d), members in part:
            draws.append([draw(rng, t, field, d, n) for t, rng, n in members])
        step = 1
        for (index, _, members), group in zip(part, draws):
            rows.update(zip((t for t, _, _ in members), solve(group, config)))
    except Exception as exc:  # carried to the merge, which raises it in serial order
        return rows, (step, index, exc)
    return rows, None


def _collect(name: str, pid: int, fd: int) -> tuple:
    """The result a forked child pickled into the pipe `fd`, once the child
    has been reaped; FrameError if it exited without sending one."""
    try:
        with open(fd, "rb") as pipe:
            payload = pipe.read()
    finally:
        status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if status != 0:
        raise FrameError(f"a {name} sweep worker exited with status {status} "
                         f"before sending its rows")
    return pickle.loads(payload)


def _fork_part(name: str, part: list[tuple], config: RunConfig) -> tuple[int, int]:
    """Fork a child that solves `part` and writes its pickled result to a
    pipe; returns the child's pid and the pipe's read end. The child always
    leaves through os._exit, so it never returns into the caller's stack or
    flushes the stdio buffers it inherited."""
    read_fd, write_fd = os.pipe()
    try:
        with warnings.catch_warnings():
            # Python 3.12+ warns on fork while BLAS worker threads exist;
            # OpenBLAS parks its pool across fork, and no Python thread runs
            warnings.simplefilter("ignore", DeprecationWarning)
            pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            with open(write_fd, "wb") as pipe:
                pickle.dump(_solve_part(name, part, config), pipe)
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    return pid, read_fd


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
    "pfi": (_pfi_draw, _pfi_solve, (
        ("max_rel_diff", max, 0.0,
         lambda row: (row["rel_diff"], row["tight_reduction_rel"], row["subspace_rel"] or 0.0)),
        ("min_side", min, _INF, "min_side"),
        ("min_bound_ratio", min, _INF, "bound_ratio"),
        ("max_tight_reduction_rel", max, 0.0, "tight_reduction_rel"),
        ("subspace_trials", _count, 0, lambda row: (row["subspace_rel"] is not None,)),
        ("max_subspace_rel", max, 0.0, "subspace_rel"),
        ("max_projection_dev", max, 0.0, "projection_dev"),
    )),
    "general": (_general_draw, _general_solve, (
        _MAX_REL,
        ("max_cond", max, 0.0, "cond"),
        ("reduction_trials", _count, 0, lambda row: (row["reduction_dev"] is not None,)),
        ("max_reduction_dev", max, 0.0, "reduction_dev"),
    )),
    "overlap": (_overlap_draw, _overlap_solve, (_MAX_REL,)),
    "bounds": (_bounds_draw, _bounds_solve, (
        _MAX_REL,
        ("max_recon_err", max, 0.0, "recon_err"),
        ("max_additivity_err", max, 0.0, "additivity_err"),
        ("max_parseval_dev", max, 0.0, "parseval_dev"),
    )),
    "equivalence": (_equivalence_draw, _equivalence_solve, (
        _MAX_REL,
        ("all_true", _count, 0, lambda row: (_pattern_kind(row) == "all_true",)),
        ("all_false", _count, 0, lambda row: (_pattern_kind(row) == "all_false",)),
        ("split", _count, 0, lambda row: (_pattern_kind(row) == "split",)),
    )),
    "sj": (_sj_draw, _sj_solve, (
        _MAX_REL,
        ("min_eig_product", min, _INF, "min_eig_product"),
        ("min_eig_gap", min, _INF, "min_eig_gap"),
        ("max_identity_residual", max, 0.0, "residual_identity"),
    )),
    "extension": (_extension_draw, _extension_solve, (
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
        reducers = _SUITES[name][2]
    except KeyError:
        raise BadParams(
            f"unknown suite {name!r}; expected one of {list(SUITE_NAMES) + ['all']}"
        ) from None
    rows = []
    for start in range(0, config.trials, _BLOCK):
        block = range(start, min(start + _BLOCK, config.trials))
        rows += [{"suite": name, "trial": t, **row}
                 for t, row in zip(block, _run_block(name, block, config))]
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
