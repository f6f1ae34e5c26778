"""Seeded randomized verification suites.

Each suite replays one family of checks over `trials` independent trials.
Determinism contract: trial t of suite s under master seed m draws from
the stream SplitMix64(m).derive(index of s).derive(t), and every draw
inside a trial happens in a fixed documented order, so a run is a pure
function of (suite, seed, trials, ranges) and the suite section of an
"all" run is byte-identical to the same suite run alone.

A suite is a draw function, a solve function and the summary fields it
computes from its record; the one runner, `_sweep`, cuts each suite's
trials into blocks of at most _BLOCK, so every stack stays bounded at any
trial count. Every suite is batched: a block's trials are grouped by d
alone. Real and complex trials share a group, since every family is
stored as complex128 and a real one only has zero imaginary parts; the
field is a tag that each trial carries into its draws and its real-part
checks.

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
columns, one entry per trial, arrays and lists, which follow the columns
suite, trial, d, n (the counts after the draw) and field. `_sweep` merges
each suite's groups into one record in trial order, every entry a Python
number, bool, string or None (arrays through .tolist()).
The draws are lockstep: each trial's shape is three raw outputs of its
stream, made for the whole block in one group draw, and each draw step
(J, f, E, a raw matrix, a group's Gaussian frames) is one group draw of
rng for all the group's trials. Each trial owns its stream, so
interleaving the trials moves no stream position, and a row is bitwise
the row of per-trial draws. Scalar draws (seeds, tight values, flags, the
sizes of an orthogonal union) and the pfi embedding are drawn trial by
trial. Draws from a trial's own seeds are stacked too, through the one
stacked definition of each draw, so each is bitwise its single call by
construction: the extension probes (identities._probe_blocks), the
isometries of the orthogonal unions and of the extension mixing
(frames._isometries, one stacked QR per size), and the unions' parts and
general reductions (_parseval_rows). The general and bounds draws take
their Gaussian frames from frames._conditioned_stack, whose rejected
first attempts go on in the trial's own stream, and then draw J and f.
Every conditioned draw, here, in a Parseval family or in random_parseval,
gives up with NoConvergence after 1,000 attempts in all
(frames._RESAMPLE_LIMIT).
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

The split is decided once per call, over units: every d group of every
block of every suite of the call, in serial order (suite, block, first
appearance). A call of at least 2 * _SPLIT_TRIALS trials in all, in a
process that runs no other Python thread, shares its units out between
this process and one forked child per extra process: at most one process
per CPU it may run on and one per _SPLIT_TRIALS trials, with a greedy
balance of sum(n * d^2) per unit. A unit's draws and solve do not depend
on where it runs, so the rows, and every byte printed from them, are
those of a run on one process (`taskset -c 0` gives one). Each process
draws and solves its units one at a time, and errors merge in serial
order: the call raises the exception, type and message, that a run on one
process raises, that of the first unit whose draw or solve raises.

A suite's rows, one JSON-ready dict per trial, and its summary are made
from its record. The summary counts passed/failed/borderline (borderline
only ever nonzero for the equivalence suite) and folds the worst residuals.
"""

import os
import pickle
import threading
import warnings
from dataclasses import dataclass
from operator import itemgetter
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
    _isometries,
    _match_field,
    _operator,
    _parseval_stack,
    _partial_operator,
    _span_projector,
    _spectral_rows,
    _synthesis,
    _union_operator,
    as_integer,
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
    _probe_blocks,
    _require_parseval,
    _require_resolution,
    _require_tight,
    _residual,
    _self_adjoint_product,
    _split_lhs_rhs,
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

_BLOCK = 1024  # trials of one suite grouped by d together; bounds the size of the stacks
# the bytes of the largest group stack a run may ask for: one block of one
# d, each family padded to n_max rows of d_max complex128 entries
_MAX_STACK_BYTES = 2**30
# processes a call's d groups are shared out to, at most one per CPU this
# process may run on, and the trials per process, counted over every suite
# of the call, below which a fork costs more than it saves (one suite at 40
# trials stays on one process, seven suites at 40 trials split)
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
        for name in ("seed", "trials"):
            object.__setattr__(self, name, as_integer(getattr(self, name), name))
        for name in ("dim_range", "count_range"):
            pair = getattr(self, name)
            if not isinstance(pair, (tuple, list)) or len(pair) != 2:
                raise BadParams(f"{name} must be a pair of integers, got {pair!r}")
            object.__setattr__(self, name, tuple(as_integer(end, name) for end in pair))
        d_min, d_max = self.dim_range
        n_min, n_max = self.count_range
        if self.trials < 1:
            raise BadParams("trials must be >= 1")
        if not 1 <= d_min <= d_max:
            raise BadParams(f"bad dim_range {self.dim_range}")
        if not d_min <= n_min <= n_max or n_max < d_max:
            raise BadParams(f"bad count_range {self.count_range} for dims {self.dim_range}")
        stack = min(self.trials, _BLOCK) * n_max * d_max * 16
        if stack > _MAX_STACK_BYTES:
            raise BadParams(f"the largest group stack, {stack} bytes, is above 2**30; "
                            "lower trials, count_range or dim_range")
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
    _require_parseval(np.abs(w - 1.0).max(axis=-1), tol)
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
    group.probes = _probe_blocks(f, d, fields, 20, _seeds(streams))


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
        group.probes, *added, *ops, *(_span_projector(hermitian_eig(op)) for op in ops), tol)
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
# the runner: a call's suites in, one record of columns per suite out


def _procs(trials: int, units: int) -> int:
    """How many processes `units` d groups of `trials` trials in all are
    shared out to; one while another Python thread runs, which no fork copies."""
    if threading.active_count() > 1:
        return 1
    return max(1, min(_PROCS, trials // _SPLIT_TRIALS, units))


def _sweep(names: list[str], config: RunConfig) -> list[dict]:
    """The record of each suite of `names`: its columns, one entry per
    trial, in trial order (see the module docstring).

    A shape pre-pass groups each block of each suite by d, and all the
    call's groups are shared out between this process and forked children;
    each process draws and solves its own.
    """
    units: list[tuple] = []
    cost: list[int] = []
    for i, name in enumerate(names):
        for start in range(0, config.trials, _BLOCK):
            groups: dict[int, list[tuple[int, SplitMix64, str, int]]] = {}
            block = range(start, min(start + _BLOCK, config.trials))
            for t, rng, field, d, n in _draw_shapes(name, block, config):
                groups.setdefault(d, []).append((t, rng, field, n))
            for d, members in groups.items():
                units.append((len(units), i, d, members))
                cost.append(d * d * sum(n for *_, n in members))
    owner = [0] * len(units)
    loads = [0] * _procs(len(names) * config.trials, len(units))
    for index in sorted(range(len(units)), key=lambda index: -cost[index]):
        owner[index] = p = loads.index(min(loads))  # the costliest to the least loaded
        loads[p] += cost[index]
    parts = [[unit for unit, o in zip(units, owner) if o == p] for p in range(len(loads))]
    local, children = parts[:1], []
    try:
        for part in parts[1:]:
            try:
                children.append(_fork_part(names, part, config.tol))
            except OSError:  # no process to spare: solve the part here
                local.append(part)
        results = [_solve_part(names, part, config.tol) for part in local]
        while children:
            results.append(_collect(*children.pop(0)))
    finally:
        for pid, fd in children:
            os.close(fd)
            os.waitpid(pid, 0)
    failures = [failure for _, failure in results if failure is not None]
    if failures:
        raise min(failures, key=lambda failure: failure[0])[1]
    # each suite's trials as tuples of their entries, every one a Python value,
    # sorted by the trial entry and turned back into columns
    keys, trials = [()] * len(names), [[] for _ in names]
    for groups, _ in results:
        for i, columns in groups:
            keys[i] = columns.keys()
            trials[i].extend(zip(*(c.tolist() if isinstance(c, np.ndarray) else c
                                   for c in columns.values()), strict=True))
    return [dict(zip(keys[i], zip(*sorted(suite, key=itemgetter(1)))))
            for i, suite in enumerate(trials)]


def _solve_part(names: list[str], part: list[tuple], tol: float) -> tuple[list, tuple | None]:
    """The columns of the units in `part`, each (serial index, position in
    `names`, d, [(trial, stream after the shape, field, n), ...]), as
    (position in `names`, columns), and the first failure as (serial
    index, exception), or None. Each unit becomes one group record, which
    is drawn and then solved, in serial order, as on one process; a failure
    stops the part."""
    groups: list[tuple[int, dict]] = []
    for index, i, d, members in part:
        name = names[i]
        draw, solve, _ = _SUITES[name]
        trials, streams, fields, counts = (list(column) for column in zip(*members))
        group = SimpleNamespace(d=d, trials=trials, streams=streams, fields=fields, counts=counts,
                                real=np.array([field == "real" for field in fields]))
        try:
            draw(group)  # the equivalence draw sets its own counts
            size = len(trials)
            groups.append((i, {"suite": [name] * size, "trial": trials, "d": [d] * size,
                               "n": group.counts, "field": fields, **solve(group, tol)}))
        except Exception as exc:  # carried to the merge, which raises it in serial order
            return groups, (index, exc)
    return groups, None


def _collect(pid: int, fd: int) -> tuple:
    """The result a forked child pickled into the pipe `fd`, once the child
    has been reaped; FrameError if it exited without sending one."""
    try:
        with open(fd, "rb") as pipe:
            payload = pipe.read()
    finally:
        status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if status != 0:
        raise FrameError(f"a sweep worker exited with status {status} "
                         f"before sending its rows")
    return pickle.loads(payload)


def _fork_part(names: list[str], part: list[tuple], tol: float) -> tuple[int, int]:
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
                pickle.dump(_solve_part(names, part, tol), pipe)
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    return pid, read_fd


# ---------------------------------------------------------------------------
# summaries
#
# A suite's summary is the tally of its record's `passed` and `borderline`
# columns, then the fields that the third element of its _SUITES entry
# computes from the record. A max or a min folds its columns' values from
# 0.0 or inf, skipping None; a value replaces the one held only when it
# beats it, so a NaN residual never replaces a number already held.

_TALLY = ("total", "passed", "failed", "borderline")
_INF = float("inf")


def _tally(record: dict) -> dict:
    """total, passed, failed and borderline; a borderline trial (only ever
    in the equivalence suite) is neither passed nor failed."""
    flags = record.get("borderline", [False] * len(record["passed"]))
    passed = sum(p and not b for p, b in zip(record["passed"], flags))
    total, borderline = len(flags), sum(flags)
    return dict(zip(_TALLY, (total, passed, total - passed - borderline, borderline)))


def _max(record: dict, *keys: str) -> float:
    return max([0.0, *(value for key in keys for value in record[key] if value is not None)])


def _min(record: dict, key: str) -> float:
    return min([_INF, *(value for value in record[key] if value is not None)])


def _patterns(record: dict) -> dict:
    """How many equivalence patterns that are not borderline are all true,
    all false or split."""
    patterns = [p for p, b in zip(record["pattern"], record["borderline"]) if not b]
    all_true, all_false = sum("F" not in p for p in patterns), sum("T" not in p for p in patterns)
    return {"all_true": all_true, "all_false": all_false,
            "split": len(patterns) - all_true - all_false}


_SUITES = {
    "pfi": (_pfi_draw, _pfi_solve, lambda r: {
        "max_rel_diff": _max(r, "rel_diff", "tight_reduction_rel", "subspace_rel"),
        "min_side": _min(r, "min_side"),
        "min_bound_ratio": _min(r, "bound_ratio"),
        "max_tight_reduction_rel": _max(r, "tight_reduction_rel"),
        "subspace_trials": sum(value is not None for value in r["subspace_rel"]),
        "max_subspace_rel": _max(r, "subspace_rel"),
        "max_projection_dev": _max(r, "projection_dev"),
    }),
    "general": (_general_draw, _general_solve, lambda r: {
        "max_rel_diff": _max(r, "rel_diff"),
        "max_cond": _max(r, "cond"),
        "reduction_trials": sum(value is not None for value in r["reduction_dev"]),
        "max_reduction_dev": _max(r, "reduction_dev"),
    }),
    "overlap": (_overlap_draw, _overlap_solve, lambda r: {"max_rel_diff": _max(r, "rel_diff")}),
    "bounds": (_bounds_draw, _bounds_solve, lambda r: {
        "max_rel_diff": _max(r, "rel_diff"),
        "max_recon_err": _max(r, "recon_err"),
        "max_additivity_err": _max(r, "additivity_err"),
        "max_parseval_dev": _max(r, "parseval_dev"),
    }),
    "equivalence": (_equivalence_draw, _equivalence_solve, lambda r: {
        "max_rel_diff": _max(r, "rel_diff"), **_patterns(r)}),
    "sj": (_sj_draw, _sj_solve, lambda r: {
        "max_rel_diff": _max(r, "rel_diff"),
        "min_eig_product": _min(r, "min_eig_product"),
        "min_eig_gap": _min(r, "min_eig_gap"),
        "max_identity_residual": _max(r, "residual_identity"),
    }),
    "extension": (_extension_draw, _extension_solve, lambda r: {
        "max_rel_diff": _max(r, "rel_diff"),
        "max_operator_diff": _max(r, "operator_diff"),
    }),
}


def _results(name: str, record: dict) -> tuple[list[dict], dict]:
    """The rows of suite `name`'s record, one dict per trial, and its summary."""
    rows = [dict(zip(record, trial)) for trial in zip(*record.values())]
    return rows, _tally(record) | _SUITES[name][2](record)


def _require_suites(names: list[str]) -> None:
    """BadParams for the first name that is unknown or given before."""
    for i, name in enumerate(names):
        if name not in _SUITES:
            raise BadParams(f"unknown suite {name!r}; expected one of {[*SUITE_NAMES, 'all']}")
        if name in names[:i]:
            raise BadParams(f"suite {name!r} is named more than once")


def run_suite(name: str, config: RunConfig) -> tuple[list[dict], dict]:
    _require_suites([name])
    return _results(name, _sweep([name], config)[0])


def run_suites(names: list[str], config: RunConfig) -> tuple[list[dict], dict]:
    """Run several distinct suites; summaries nest under their names. Every
    name is checked before any trial is drawn. A call of several suites that
    splits shares all their d groups at once; any other is one run_suite call
    per suite, in order (one request each to bench/tracer.py). Every suite
    has a d group, so len(names) units decide.
    """
    _require_suites(names)
    if len(names) > 1 and _procs(len(names) * config.trials, len(names)) > 1:
        runs = [_results(name, record) for name, record in zip(names, _sweep(names, config))]
    else:
        runs = [run_suite(name, config) for name in names]
    summaries = [(name, summary) for name, (_, summary) in zip(names, runs)]
    combined = {key: sum(s[key] for _, s in summaries) for key in _TALLY}
    combined["max_rel_diff"] = max([0.0] + [s["max_rel_diff"] for _, s in summaries])
    combined["suites"] = dict(summaries)
    return [row for rows, _ in runs for row in rows], combined
