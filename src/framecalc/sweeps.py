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
Every suite is batched: the block's trials are grouped by d alone. Real
and complex trials share a group, since every family is stored as
complex128 and a real one only has zero imaginary parts; the field is a
tag that each trial carries into its draws and its real-part checks.

A group is one record of columns, entry k of each for the group's k-th
trial. The runner makes it with `d`, `trials`, `streams` (each just
after its trial's shape), `fields`, the `real` mask and `counts`. The
suite's draw adds the trial inputs as columns: `seed` (of a trial's first
family), `subset` (J as an index list), `f` (one array), `lam`, `e`; the
rare per-trial extras are dicts keyed by position: the pfi `embedding`,
the equivalence `unions` (a structured trial sets its own count), the sj
`raw` matrices and the general `reduction`. The draw makes every draw of
every trial, in the order a trial run alone makes them; the solve takes
the record and the tolerance, draws nothing, and returns a dict of named
columns, one entry per trial. The runner makes one row per trial from
them, after the leading keys (suite, trial, d, n, field), taking arrays
through .tolist() so every value is a Python number, bool or string.
The draws are lockstep: each trial's shape is three raw outputs of its
stream, made for the whole block in one group draw, and each draw step
(J, f, E, a raw matrix, a group's Gaussian frames) is one group draw of
rng for all the group's trials. Each trial owns its stream, so
interleaving the trials moves no stream position, and a row is bitwise
the row of per-trial draws. Scalar draws (seeds, tight values, flags, the
sizes of an orthogonal union) and the pfi embedding are drawn trial by
trial. Draws from a trial's own seeds are stacked too, each bitwise its
single call: the extension probes, the isometries of the orthogonal unions
and of the extension mixing (_isometries, one stacked QR per size), and
the unions' parts and general reductions (_parseval_rows).
The general and bounds draws take their Gaussian frames from
frames._conditioned_stack, whose rejected first attempts go on in the
trial's own stream, and then draw J and f. Every conditioned draw, here,
in a Parseval family or in random_parseval, gives up with NoConvergence
after 1,000 attempts in all (frames._RESAMPLE_LIMIT).
The solve runs each group through the algebra at once, as zero-padded
stacks (one stacked eigendecomposition per spectral step), verdicts
included: the residuals, bounds and equivalence patterns come from the
stacked kernels of identities that the public reports call on one
family. A spectrum of which only values are used, the Parseval check of
a group's families, the tightness of both extension unions
(frames._union_operator, judged by tight_identity_report's rule) or sj's
smallest eigenvalues of S_J S_Jc and S_J - S_J^2, is read without eigenvectors.
The sj raw resolutions are checked as one stack per group, after its
frame splits. The pfi subspace embedding and the general reduction's
reports stay per-trial calls, each writing into its own positions of a
column. A row agrees with its scalar replay, one trial through the public
functions, to 1e-12 * max(1, |v|) in every float and exactly in every
count, flag and string; it depends on the other trials of its group only
in rounding. A failing check raises for the first failing trial of the
group at that check.

A block of at least 2 * _SPLIT_TRIALS trials, in a process that runs no
other Python thread, shares its d groups out between this process and
forked children: at most one process per CPU it may run on and one per
_SPLIT_TRIALS trials, with a greedy balance of sum(n * d^2) per group. A
group's draws and solve do not depend on where it runs, so the rows, and
every byte printed from them, are those of a run on one process
(`taskset -c 0` gives one). Each process draws and solves its
groups one at a time, and errors merge in serial order: the block raises
the exception, type and message, that a run on one process raises, that
of the first group, in order of first appearance, whose draw or solve
raises.

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
from types import SimpleNamespace

import numpy as np

from . import SUITE_NAMES
from .errors import BadParams, FrameError
from .frames import (
    TAU_ID,
    Frame,
    _analysis,
    _bessel,
    _completion,
    _conditioned_stack,
    _finite_operator,
    _gaussian_group,
    _match_field,
    _operator,
    _orthonormal,
    _parseval_stack,
    _partial_operator,
    _spectral_rows,
    _synthesis,
    _union_operator,
    as_tolerance,
    embed_subspace_frame,
    norm_sq,
    random_isometry,
)
from .identities import (
    _bound_verdict,
    _equivalence_residuals,
    _equivalence_verdict,
    _extension_compare,
    _general_sides,
    _norm_sides,
    _operator_identity,
    _overlap_lhs_rhs,
    _overlap_terms,
    _partial_structure,
    _probe_width,
    _require_parseval,
    _require_resolution,
    _require_tight,
    _residual,
    _self_adjoint_product,
    _split_lhs_rhs,
    _unit_rows,
    general_identity_report,
    parseval_identity_report,
    subspace_identity_report,
)
from .linalg import _scale, frobenius, hermitian_eig, hermitian_eigvals, hermitize
from .rng import (
    SplitMix64,
    _to_uniforms,
    group_normals,
    group_raw,
    group_subsets,
    group_uniforms,
    group_unit_vectors,
)

_BLOCK = 1024  # trials drawn and solved together; bounds the size of the stacks
# processes a block's d groups are shared out to, at most one per CPU
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


def _randint(rng: SplitMix64, lo: int, hi: int) -> int:
    # inclusive bounds
    return lo + rng.next_raw() % (hi - lo + 1)


def _draw_shapes(name: str, trials: range, config: RunConfig) -> list[tuple]:
    """(trial, stream, field, d, n) of each trial, its stream just after the
    shape. The shape is the stream's first three draws, in this order: the
    field flag (real when the uniform is < 1/2), d = _randint(d_min, d_max)
    and n = _randint(max(d, n_min), n_max); one group draw makes them for
    every trial, and uint64 modulo is exact."""
    suite = SplitMix64(config.seed).derive(SUITE_NAMES.index(name))
    streams = [suite.derive(t) for t in trials]
    raw = group_raw(streams, [3] * len(streams)).reshape(-1, 3)
    d_min, d_max = config.dim_range
    n_min, n_max = config.count_range
    d = d_min + raw[:, 1] % np.uint64(d_max - d_min + 1)
    lo = np.maximum(d, np.uint64(n_min))
    n = lo + raw[:, 2] % (np.uint64(n_max + 1) - lo)
    real = (_to_uniforms(raw[:, 0]) < 0.5).tolist()
    return [(t, rng, "real" if r else "complex", d_t, n_t)
            for t, rng, r, d_t, n_t in zip(trials, streams, real, d.tolist(), n.tolist())]


def _isometries(ambient: int, dim: int, seeds: list[int], fields: list[str]) -> np.ndarray:
    """random_isometry(ambient, dim, seed, field) of each (seed, field), as one
    stack from one group draw and one stacked QR."""
    g = group_normals([SplitMix64(seed) for seed in seeds], [ambient * dim] * len(seeds), fields)
    return _orthonormal(np.reshape(g, (len(seeds), ambient, dim)))


def _parseval_rows(parts: list[tuple[int, int, int, str]]) -> list[np.ndarray]:
    """random_parseval(dim, n, seed, field).vectors of each (dim, n, seed,
    field), in order, from one _parseval_stack per dim."""
    rows = [None] * len(parts)
    for dim in dict.fromkeys(dim for dim, *_ in parts):
        at = [i for i, part in enumerate(parts) if part[0] == dim]
        _, counts, seeds, fields = (list(column) for column in zip(*(parts[i] for i in at)))
        for i, n, family in zip(at, counts, _parseval_stack(dim, counts, seeds, fields)):
            rows[i] = family[:n]
    return rows


def _orthogonal_unions(d: int, draws: dict, fields: list[str]) -> dict[int, np.ndarray]:
    """For each trial k of draws, (isometry seed, (r, n1, s1), (d - r, n2, s2)),
    the rows of random_parseval(r, n1, s1) and random_parseval(d - r, n2, s2)
    through the first r and the last d - r columns of a random_isometry(d, d):
    a Parseval frame whose two parts have orthogonal spans."""
    keys = list(draws)
    units = _isometries(d, d, [draws[k][0] for k in keys], [fields[k] for k in keys])
    parts = _parseval_rows([(*part, fields[k]) for k in keys for part in draws[k][1:]])
    unions = {}
    for k, u, first, second in zip(keys, units, parts[0::2], parts[1::2]):
        r = first.shape[1]
        rows = np.vstack([first @ u[:, :r].T, second @ u[:, r:].T])
        unions[k] = rows.real.astype(np.complex128) if fields[k] == "real" else rows
    return unions


# ---------------------------------------------------------------------------
# suites: lockstep draws into the group record, then the algebra once per group


def _masks(subsets: list[list[int]], width: int) -> np.ndarray:
    """The index lists `subsets` as a (len(subsets), width) boolean stack."""
    mask = np.zeros((len(subsets), width), dtype=bool)
    for k, subset in enumerate(subsets):
        mask[k, subset] = True
    return mask


def _parseval_group(group: SimpleNamespace, tol: float, built: dict | None = None) -> tuple:
    """The group's Parseval families, zero-padded, their J masks and the
    spectra of their frame operators; raises NotParseval, as each trial's
    first report would, unless every frame operator is the identity within
    tol. Family k is random_parseval of its seed, or built[k] when given."""
    built = built or {}
    vectors = np.zeros((len(group.trials), max(group.counts), group.d), dtype=np.complex128)
    seeded = [k for k in range(len(group.trials)) if k not in built]
    if seeded:
        stack = _parseval_stack(group.d, [group.counts[k] for k in seeded],
                                [group.seed[k] for k in seeded],
                                [group.fields[k] for k in seeded])
        vectors[seeded, :stack.shape[1]] = stack
    for k, rows in built.items():
        vectors[k, :len(rows)] = rows
    w = hermitian_eigvals(_operator(vectors))
    _require_parseval(w, tol)
    return vectors, _masks(group.subset, vectors.shape[1]), w


def _seeds(streams: list[SplitMix64]) -> list[int]:
    """The next raw output of each stream, as a seed."""
    return [rng.next_raw() for rng in streams]


def _pfi_draw(group: SimpleNamespace) -> None:
    streams = group.streams
    group.seed = _seeds(streams)
    group.subset = group_subsets(streams, group.counts)
    group.f = group_unit_vectors(streams, group.d, group.fields)
    group.lam = np.array([0.25 + 3.0 * rng.uniform() for rng in streams])
    group.embedding = {}
    for k, (t, rng) in enumerate(zip(group.trials, streams)):
        if t % 10 == 0:
            ambient = group.d + 1 + _randint(rng, 0, 3)
            group.embedding[k] = (ambient, rng.next_raw(),
                                  rng.unit_vector(ambient, group.fields[k]))


def _pfi_solve(group: SimpleNamespace, tol: float) -> dict:
    """Parseval energy-split identity, plus the bound checks, the tight
    rescaling consistency, and (every 10th trial) a subspace embedding."""
    vectors, mask, w = _parseval_group(group, tol)
    f, lam = group.f, group.lam
    nf = norm_sq(f)
    sides = _norm_sides(vectors, _analysis(vectors, f), mask)
    lhs, rhs = _split_lhs_rhs(sides)
    _, rel_diff = _residual(lhs, rhs, sides)
    value, *_, half_passed = _bound_verdict(sides, nf, 0.5, tol)
    tq_passed = _bound_verdict(sides, nf, 0.75, tol)[-1]
    # scaling by sqrt(lam) multiplies every degree-2 term by lam and the
    # extra lam prefactor doubles it: tight sides = lam^2 * Parseval sides
    scaled = vectors * np.sqrt(lam)[:, None, None]
    # The scaled frame operator is lam * S entry by entry, up to one rounding
    # per entry, so its spectrum is lam * w to within a few ulps of lam: the
    # same lam-tightness test, at the same tolerance, as decomposing it again.
    _require_tight(lam[:, None] * w, lam, tol)
    tight_lhs, tight_rhs = _split_lhs_rhs(_norm_sides(scaled, _analysis(scaled, f), mask,
                                                      weight=lam))
    factor = lam * lam
    tight_rel = np.maximum(np.abs(tight_lhs - factor * lhs),
                           np.abs(tight_rhs - factor * rhs)) / _scale([factor])
    min_side = np.where(rhs < lhs, rhs, lhs)
    size = len(group.trials)
    columns = {
        "rel_diff": rel_diff,
        "min_side": min_side,
        "bound_ratio": value / nf,
        "half_passed": half_passed,
        "tq_passed": tq_passed,
        "tight_reduction_rel": tight_rel,
        "subspace_rel": [None] * size,
        "projection_dev": [None] * size,
        "passed": ((rel_diff <= tol) & half_passed & tq_passed & (min_side >= -tol)
                   & (tight_rel <= tol)),
    }
    for k, (ambient, iso_seed, f_amb) in group.embedding.items():
        d, field = group.d, group.fields[k]
        frame = Frame(d, vectors[k, :group.counts[k]], field)
        sub = embed_subspace_frame(frame, ambient, random_isometry(ambient, d, iso_seed, field))
        rep_s = subspace_identity_report(sub, group.subset[k], f_amb, tol)
        columns["subspace_rel"][k] = rep_s.rel_diff
        columns["projection_dev"][k] = rep_s.terms["projection_dev"]
        columns["passed"][k] &= rep_s.passed
    return columns


def _overlap_draw(group: SimpleNamespace) -> None:
    streams, counts = group.streams, group.counts
    group.seed = _seeds(streams)
    group.subset = group_subsets(streams, counts)
    rests = [np.flatnonzero(~inside[:n])
             for inside, n in zip(_masks(group.subset, max(counts)), counts)]
    group.e = [rest[u < 0.5].tolist()
               for rest, u in zip(rests, group_uniforms(streams, [rest.size for rest in rests]))]
    group.f = group_unit_vectors(streams, group.d, group.fields)


def _overlap_solve(group: SimpleNamespace, tol: float) -> dict:
    """Disjoint-growth identity: J extended by random E inside the complement."""
    vectors, mask, _ = _parseval_group(group, tol)
    e = _masks(group.e, vectors.shape[1])
    terms = _overlap_terms(vectors, _analysis(vectors, group.f), mask, e)
    _, rel_diff = _residual(*_overlap_lhs_rhs(terms), terms)
    return {"rel_diff": rel_diff, "passed": rel_diff <= tol}


def _equivalence_draw(group: SimpleNamespace) -> None:
    d, streams = group.d, group.streams
    group.seed, group.subset, structured = [None] * len(streams), [None] * len(streams), {}
    for k, (t, rng) in enumerate(zip(group.trials, streams)):
        if t % 5 == 0 and d >= 2:  # structured: an orthogonal union sets its own count
            r = _randint(rng, 1, d - 1)
            structured[k] = (rng.next_raw(), (r, _randint(rng, r, 2 * r), rng.next_raw()),
                             (d - r, _randint(rng, d - r, 2 * (d - r)), rng.next_raw()))
        else:
            group.seed[k] = rng.next_raw()
    group.unions = _orthogonal_unions(d, structured, group.fields)
    for k, (_, first, _) in structured.items():
        group.subset[k], group.counts[k] = list(range(first[1])), len(group.unions[k])
    seeded = [k for k in range(len(streams)) if k not in group.unions]
    for k, subset in zip(seeded, group_subsets([streams[k] for k in seeded],
                                               [group.counts[k] for k in seeded])):
        group.subset[k] = subset
    group.f = group_unit_vectors(streams, d, group.fields)


def _equivalence_solve(group: SimpleNamespace, tol: float) -> dict:
    """Six-way equivalence: random Parseval splits (generically all-false)
    and, every 5th trial, an orthogonal-union construction (all-true)."""
    vectors, mask, _ = _parseval_group(group, tol, group.unions)
    _, holds, consistent, borderline = _equivalence_verdict(
        _equivalence_residuals(vectors, group.f, mask), norm_sq(group.f), tol)
    size = len(group.trials)
    return {
        "structured": [k in group.unions for k in range(size)],
        "pattern": ["".join(flags) for flags in np.where(holds.T, "T", "F").tolist()],
        "consistent": consistent,
        "borderline": borderline,
        "rel_diff": [0.0] * size,
        "passed": consistent,
    }


def _sj_draw(group: SimpleNamespace) -> None:
    d, streams = group.d, group.streams
    group.seed = _seeds(streams)
    group.subset = group_subsets(streams, group.counts)
    raw = [k for k, t in enumerate(group.trials) if t % 5 == 0]
    g = group_normals([streams[k] for k in raw], [d * d] * len(raw), [group.fields[k] for k in raw])
    group.raw = {k: g_k.reshape(d, d) for k, g_k in zip(raw, g)}


def _sj_solve(group: SimpleNamespace, tol: float) -> dict:
    """Partial-operator structure, the resolution-difference identity, and
    the self-adjoint product equivalence (frame splits every trial; raw
    Hermitian and non-Hermitian resolutions every 5th)."""
    d, size = group.d, len(group.trials)
    vectors, mask, _ = _parseval_group(group, tol)
    s_j = _partial_operator(vectors, mask)
    s_jc = _partial_operator(vectors, ~mask)
    residual, min_eig_product, min_eig_gap, _, structure_ok = _partial_structure(s_j, s_jc, tol)
    # the resolutions (S_J, S_Jc) of the frame splits, then the raw ones
    # (h, I - h) for h = hermitize(g) and then g, for each raw g in trial order
    g = np.array(list(group.raw.values())).reshape(-1, d, d)
    pairs = np.stack([hermitize(g), g], axis=1).reshape(-1, d, d)
    s, t = np.concatenate([s_j, pairs]), np.concatenate([s_jc, np.eye(d) - pairs])
    _require_resolution(s, t, tol)
    op_res, op_ok = _operator_identity(s, t, tol)
    s_sa, t_sa, p_sa = _self_adjoint_product(s, t)
    ok = op_ok & ((s_sa & t_sa) == p_sa)
    rel_diff = np.maximum(residual, op_res[:size])
    passed = structure_ok & ok[:size] & p_sa[:size]
    raw, herm, plain = list(group.raw), slice(size, None, 2), slice(size + 1, None, 2)
    rel_diff[raw] = np.maximum.reduce([rel_diff[raw], op_res[herm], op_res[plain]])
    # a real 1x1 draw is self-adjoint, so only a larger or complex draw
    # must give a product that is not
    passed[raw] &= (ok[herm] & p_sa[herm] & ok[plain]
                    & (~p_sa[plain] | ((d == 1) & group.real[raw])))
    return {
        "residual_identity": residual,
        "min_eig_product": min_eig_product,
        "min_eig_gap": min_eig_gap,
        "op_residual": op_res[:size],
        "rel_diff": rel_diff,
        "passed": passed,
    }


def _general_draw(group: SimpleNamespace) -> None:
    d, streams, counts, fields = group.d, group.streams, group.counts, group.fields
    group.conditioned = _conditioned_stack(d, counts, _seeds(streams), fields, streams)
    # then J and f; every 10th trial also a seed, J and f for the reduction
    group.subset = group_subsets(streams, counts)
    group.f = group_unit_vectors(streams, d, fields)
    reduced = [k for k, t in enumerate(group.trials) if t % 10 == 0]
    seeds = _seeds([streams[k] for k in reduced])
    sub2 = group_subsets([streams[k] for k in reduced], [counts[k] for k in reduced])
    f2 = group_unit_vectors([streams[k] for k in reduced], d, [fields[k] for k in reduced])
    group.reduction = dict(zip(reduced, zip(seeds, sub2, f2)))


def _general_solve(group: SimpleNamespace, tol: float) -> dict:
    """Dual-weighted energy split on conditioned Gaussian frames; every
    10th trial cross-checks the Parseval reduction term by term."""
    vectors, _, dec, cond = group.conditioned
    dual = _spectral_rows(vectors, dec, "inverse", group.real)
    sides = _general_sides(vectors, dual, _analysis(vectors, group.f),
                           _masks(group.subset, vectors.shape[1]))
    _, rel_diff = _residual(*_split_lhs_rhs(sides), sides)
    columns = {"cond": cond, "rel_diff": rel_diff, "reduction_dev": [None] * len(group.trials),
               "passed": rel_diff <= tol}
    rows = _parseval_rows([(group.d, group.counts[k], seed, group.fields[k])
                           for k, (seed, _, _) in group.reduction.items()])
    for rows_k, (k, (_, sub2, f2)) in zip(rows, group.reduction.items()):
        # on a Parseval frame the dual term collapses to the plain norm
        pframe = Frame(group.d, rows_k, group.fields[k])
        rep_g = general_identity_report(pframe, sub2, f2, tol)
        rep_p = parseval_identity_report(pframe, sub2, f2, tol)
        dev = max(
            abs(rep_g.terms["dual_energy_sj_f"] - rep_p.terms["norm_sj_f"]),
            abs(rep_g.terms["dual_energy_sjc_f"] - rep_p.terms["norm_sjc_f"]),
            abs(rep_g.lhs - rep_p.lhs),
            abs(rep_g.rhs - rep_p.rhs),
        )
        columns["reduction_dev"][k] = dev
        columns["passed"][k] &= rep_g.passed and dev <= tol
    return columns


def _bounds_draw(group: SimpleNamespace) -> None:
    d, streams, counts, fields = group.d, group.streams, group.counts, group.fields
    group.conditioned = _conditioned_stack(d, counts, _seeds(streams), fields, streams)
    # then f and J
    group.f = group_unit_vectors(streams, d, fields)
    group.subset = group_subsets(streams, counts)


def _bounds_solve(group: SimpleNamespace, tol: float) -> dict:
    """Frame inequality, operator-norm sandwich, dual reconstruction,
    partial-operator additivity, and Parseval conversion."""
    vectors, s, dec, cond = group.conditioned
    f, real = group.f, group.real
    nf = norm_sq(f)
    w = dec.eigenvalues
    lower, upper = np.maximum(w[:, 0], 0.0), np.maximum(w[:, -1], 0.0)
    _, _, energy, _, sandwich_ok = _bessel(vectors, _analysis(vectors, f), lower, upper)
    slack = tol * _scale([energy, upper * nf])
    inequality_ok = (lower * nf - slack <= energy) & (energy <= upper * nf + slack)

    recon = _synthesis(vectors, _analysis(_spectral_rows(vectors, dec, "inverse", real), f))
    recon_err = np.sqrt(norm_sq(recon - f)) / _scale([np.sqrt(nf)])

    mask = _masks(group.subset, vectors.shape[1])
    s_sum = _partial_operator(vectors, mask) + _partial_operator(vectors, ~mask)
    additivity_err = frobenius(s_sum - s) / _scale([frobenius(s)])

    parseval = _spectral_rows(vectors, dec, "inv_sqrt", real)
    parseval_dev = frobenius(_operator(parseval) - np.eye(group.d))

    return {
        "cond": cond,
        "inequality_ok": inequality_ok,
        "sandwich_ok": sandwich_ok,
        "recon_err": recon_err,
        "additivity_err": additivity_err,
        "parseval_dev": parseval_dev,
        "rel_diff": np.maximum.reduce([recon_err, additivity_err, parseval_dev]),
        "passed": (inequality_ok & sandwich_ok & (recon_err <= tol)
                   & (additivity_err <= 1e-12) & (parseval_dev <= tol)),
    }


def _extension_draw(group: SimpleNamespace) -> None:
    d, streams, fields = group.d, group.streams, group.fields
    group.seed = _seeds(streams)
    group.stretch = [None if rng.uniform() < 0.5 else 1.0 + rng.uniform() for rng in streams]
    group.mix_seed = _seeds(streams)
    f = group_unit_vectors(streams, d, fields)
    # each trial's identities._probe_block of f and its next seed, in one group draw
    widths = [_probe_width(d, field) for field in fields]
    blocks = group_normals([SplitMix64(seed) for seed in _seeds(streams)],
                           [20 * width for width in widths], fields)
    probes = np.array([g.reshape(20, width)[:, :d] for g, width in zip(blocks, widths)])
    group.probes = np.concatenate([f[:, None], _unit_rows(probes)], axis=1)


def _extension_solve(group: SimpleNamespace, tol: float) -> dict:
    """Canonical vs unitary-mixed tight completions: equal added energy,
    operator, and span; lam alternates between lambda_max and a larger value.

    A completion keeps its dropped columns as zero rows, so both added
    families of a trial are (d, d) under the mask of kept columns; the
    mixing unitary acts on the kept positions only.
    """
    d = group.d
    _, s, dec = _gaussian_group(d, group.counts, group.seed, group.fields)
    upper = np.maximum(dec.eigenvalues[:, -1], 0.0).tolist()
    lam = np.array([u if stretch is None else u * stretch
                    for u, stretch in zip(upper, group.stretch)])
    root, keep = _completion(dec, lam)
    canonical = np.where(keep[:, None, :], root, 0.0)
    mixed, added_count = canonical.copy(), keep.sum(axis=-1)
    by_column = mixed.swapaxes(-1, -2)  # a view: entry [k, j] is column j of trial k
    for m in set(added_count.tolist()) - {0}:  # the trials that keep m columns, at once
        at, kept = np.flatnonzero(added_count == m), keep & (added_count == m)[:, None]
        units = _isometries(m, m, [group.mix_seed[i] for i in at], [group.fields[i] for i in at])
        cols = by_column[kept].reshape(len(at), m, d).swapaxes(-1, -2)
        by_column[kept] = (cols @ units).swapaxes(-1, -2).reshape(-1, d)
    added = [_match_field(cols.swapaxes(-1, -2), group.real) for cols in (canonical, mixed)]
    ops = [_finite_operator(rows) for rows in added]
    _require_tight(hermitian_eigvals(_union_operator(s, np.stack(ops))), lam, tol)
    max_rel, energy_equal, operator_equal, span_equal = _extension_compare(
        group.probes, *added, *ops, *map(hermitian_eig, ops), tol)
    return {
        "lam": lam,
        "added_count": added_count,
        "energy_equal": energy_equal,
        "operator_equal": operator_equal,
        "span_equal": span_equal,
        "operator_diff": frobenius(ops[0] - ops[1]),
        "rel_diff": max_rel,
        "passed": energy_equal & operator_equal & span_equal,
    }


# ---------------------------------------------------------------------------
# the runner: a block of trials in, one row per trial out, in trial order


def _run_block(name: str, trials: range, config: RunConfig) -> list[dict]:
    """One row per trial of the block, in trial order.

    A shape pre-pass groups the trials by d, and the groups are shared out
    between this process and forked children (see the module docstring);
    each process draws and solves its own groups.
    """
    groups: dict[int, list[tuple[int, SplitMix64, str, int]]] = {}
    cost: dict[int, int] = {}
    for t, rng, field, d, n in _draw_shapes(name, trials, config):
        groups.setdefault(d, []).append((t, rng, field, n))
        cost[d] = cost.get(d, 0) + n * d * d
    procs = max(1, min(_PROCS, len(trials) // _SPLIT_TRIALS, len(groups)))
    if threading.active_count() > 1:  # fork copies no other thread of this process
        procs = 1
    owner: dict[int, int] = {}
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
                children.append(_fork_part(name, part, config.tol))
            except OSError:  # no process to spare: solve the part here
                local.append(part)
        results = [_solve_part(name, part, config.tol) for part in local]
        while children:
            results.append(_collect(name, *children.pop(0)))
    finally:
        for pid, fd in children:
            os.close(fd)
            os.waitpid(pid, 0)
    rows = {t: row for part_rows, _ in results for t, row in part_rows.items()}
    failures = [failure for _, failure in results if failure is not None]
    if failures:
        raise min(failures, key=lambda failure: failure[0])[1]
    return [rows[t] for t in trials]


def _solve_part(name: str, part: list[tuple], tol: float) -> tuple[dict, tuple | None]:
    """Rows by trial of the groups in `part`, each (serial index, d,
    [(trial, stream after the shape, field, n), ...]), and the first failure
    as (serial index, exception), or None. Each group becomes one record,
    which is drawn and then solved, in serial group order, as on one
    process; a failure stops the part."""
    draw, solve, _ = _SUITES[name]
    rows: dict[int, dict] = {}
    for index, d, members in part:
        trials, streams, fields, counts = (list(column) for column in zip(*members))
        group = SimpleNamespace(d=d, trials=trials, streams=streams, fields=fields, counts=counts,
                                real=np.array([field == "real" for field in fields]))
        try:
            draw(group)
            columns = solve(group, tol)
            values = [column.tolist() if isinstance(column, np.ndarray) else column
                      for column in columns.values()]
            for t, n, field, *row in zip(trials, counts, fields, *values, strict=True):
                rows[t] = {"suite": name, "trial": t, "d": d, "n": n, "field": field,
                           **dict(zip(columns, row))}
        except Exception as exc:  # carried to the merge, which raises it in serial order
            return rows, (index, exc)
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


def _fork_part(name: str, part: list[tuple], tol: float) -> tuple[int, int]:
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
                pickle.dump(_solve_part(name, part, tol), pipe)
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


_TALLY = ("total", "passed", "failed", "borderline")
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
    """The tally of the rows' verdicts, then each reducer's fold of them."""
    summary = dict.fromkeys(_TALLY, 0) | {key: initial for key, _, initial, _ in reducers}
    summary["total"] = len(rows)
    for row in rows:
        summary[_verdict(row)] += 1
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
        rows += _run_block(name, range(start, min(start + _BLOCK, config.trials)), config)
    return rows, _summarize(rows, reducers)


def run_suites(names: list[str], config: RunConfig) -> tuple[list[dict], dict]:
    """Run several suites sequentially; summaries nest under their names."""
    all_results: list[dict] = []
    summaries = []
    for name in names:
        results, summary = run_suite(name, config)
        all_results.extend(results)
        summaries.append((name, summary))
    combined = {key: sum(s[key] for _, s in summaries) for key in _TALLY}
    combined["max_rel_diff"] = max([0.0] + [s["max_rel_diff"] for _, s in summaries])
    combined["suites"] = dict(summaries)
    return all_results, combined
