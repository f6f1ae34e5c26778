"""Randomized suites: determinism, slicing, and small-scale health."""

import json
import os
import threading

import numpy as np
import pytest
from scalar_trials import (
    SCALAR_TRIALS,
    _draw_shape,
    _orthogonal_union,
    _trial_rng,
    scalar_rows,
)

from framecalc import (
    BadParams,
    FrameError,
    NoConvergence,
    NotParseval,
    NotTight,
    RunConfig,
    SUITE_NAMES,
    run_suite,
    run_suites,
)
import framecalc
from framecalc import cli, frames, identities, linalg, sweeps
from framecalc.frames import (
    complete_to_tight,
    frame_bounds,
    partial_operator_matrix,
    random_gaussian,
    random_parseval,
)
from framecalc.identities import (
    _probe_blocks,
    operator_identity_check,
    partial_structure_check,
    self_adjoint_product_check,
)
from framecalc.linalg import hermitize

SMALL = RunConfig(seed=5, trials=40, dim_range=(2, 6), count_range=(2, 16))


def test_config_validation():
    with pytest.raises(BadParams):
        RunConfig(seed=0, trials=0)
    with pytest.raises(BadParams):
        RunConfig(seed=0, trials=1, dim_range=(5, 2))
    with pytest.raises(BadParams):
        RunConfig(seed=0, trials=1, dim_range=(2, 16), count_range=(2, 8))
    for tol in (float("nan"), float("inf"), -float("inf"), 0.0, -1e-9):
        with pytest.raises(BadParams):
            RunConfig(seed=0, trials=1, tolerance=tol)
    assert RunConfig(seed=0, trials=1).tol == 1e-9
    assert RunConfig(seed=0, trials=1, tolerance=1e-7).tol == 1e-7


@pytest.mark.parametrize("changes", [
    {"seed": 1.5}, {"seed": "x"}, {"seed": None}, {"seed": True},
    {"trials": True}, {"trials": 1.5}, {"trials": "3"}, {"trials": np.float64(3)},
    {"dim_range": (2,)}, {"dim_range": 2}, {"dim_range": (2, 16, 3)}, {"dim_range": (2.0, 16)},
    {"count_range": (2, "64")}, {"count_range": (False, 64)},
], ids=repr)
def test_a_config_refuses_what_is_not_an_integer(changes):
    with pytest.raises(BadParams, match="must be"):
        RunConfig(**({"seed": 1, "trials": 2} | changes))


@pytest.mark.parametrize("seed", [-1, 2**70, np.int64(-5), np.uint64(2**64 - 1)], ids=repr)
def test_a_config_keeps_every_integer_seed_as_an_int(seed):
    config = RunConfig(seed=seed, trials=np.int32(2), dim_range=[np.int64(2), 3],
                       count_range=(np.uint8(2), 5))
    assert (config.seed, config.trials, config.dim_range, config.count_range) == (
        int(seed), 2, (2, 3), (2, 5))
    assert {type(config.seed), type(config.trials),
            *map(type, config.dim_range + config.count_range)} == {int}


@pytest.mark.parametrize("trials, dim_range, count_range, refused", [
    (10**4, (2, 16), (2, 64), False),  # a full block at the default ranges: 16 MiB
    (1024, (2, 16), (2, 4096), False),  # 1024 * 4096 * 16 * 16 = 2**30 bytes
    (1024, (2, 16), (2, 4097), True),
    (10**6, (2, 16), (2, 4097), True),  # the stack is one block, whatever the trial count
    (1, (2, 4), (2, 2**24), False),
    (1, (2, 5), (2, 2**24), True),
    (100, (2, 16), (2, 2**24 + 1), True),
    (1, (2, 2**24), (2, 2**24), True),
], ids=["defaults", "at-the-bound", "above", "many-trials", "one-trial", "one-trial-above",
        "huge-count", "both-huge"])
def test_a_config_whose_largest_stack_is_above_2_to_the_30_bytes_is_refused(
        trials, dim_range, count_range, refused):
    # built only: a config that passes here is never run, so nothing is drawn
    if not refused:
        RunConfig(seed=0, trials=trials, dim_range=dim_range, count_range=count_range)
        return
    with pytest.raises(BadParams, match="above 2\\*\\*30"):
        RunConfig(seed=0, trials=trials, dim_range=dim_range, count_range=count_range)


def test_unknown_suite():
    with pytest.raises(BadParams):
        run_suite("telemetry", SMALL)


def _no_sweep(*args):
    raise AssertionError("a trial was drawn")


@pytest.mark.parametrize("names", [["overlap", "overlap"], ["pfi", "bounds", "pfi"]])
def test_a_suite_named_twice_is_refused_before_any_trial_is_drawn(monkeypatch, names):
    monkeypatch.setattr(sweeps, "_sweep", _no_sweep)
    for procs in (1, 2):
        monkeypatch.setattr(sweeps, "_PROCS", procs)
        with pytest.raises(BadParams, match="is named more than once"):
            run_suites(names, RunConfig(seed=1, trials=600))


@pytest.mark.parametrize("names", [["pfi", "telemetry"], ["telemetry", "pfi"], ["telemetry"]])
def test_an_unknown_suite_is_refused_before_any_trial_is_drawn(monkeypatch, names):
    with pytest.raises(BadParams) as solo:
        run_suite("telemetry", SMALL)
    monkeypatch.setattr(sweeps, "_sweep", _no_sweep)
    with pytest.raises(BadParams) as several:
        run_suites(names, SMALL)
    assert str(several.value) == str(solo.value)


@pytest.mark.parametrize("name", SUITE_NAMES)
def test_suite_passes_at_small_scale(name):
    results, summary = run_suite(name, SMALL)
    assert summary["total"] == SMALL.trials
    assert summary["failed"] == 0
    assert len(results) == SMALL.trials
    for row in results:
        assert row["suite"] == name
        assert SMALL.dim_range[0] <= row["d"] <= SMALL.dim_range[1]
        assert row["d"] <= row["n"] <= SMALL.count_range[1]


@pytest.mark.parametrize("name", SUITE_NAMES)
def test_suite_is_deterministic(name):
    first = run_suite(name, SMALL)
    second = run_suite(name, SMALL)
    assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)


def test_combined_run_slices_equal_solo_runs():
    results, combined = run_suites(["pfi", "overlap"], SMALL)
    solo_pfi, _ = run_suite("pfi", SMALL)
    solo_overlap, _ = run_suite("overlap", SMALL)
    assert results[: SMALL.trials] == solo_pfi
    assert results[SMALL.trials :] == solo_overlap
    assert combined["total"] == 2 * SMALL.trials
    assert set(combined["suites"]) == {"pfi", "overlap"}


def test_different_seeds_differ():
    other = RunConfig(seed=6, trials=40, dim_range=(2, 6), count_range=(2, 16))
    a, _ = run_suite("pfi", SMALL)
    b, _ = run_suite("pfi", other)
    assert a != b


def test_pfi_summary_fields():
    _, summary = run_suite("pfi", SMALL)
    assert summary["min_bound_ratio"] >= 0.75 - 1e-9
    assert summary["min_side"] >= -1e-9
    assert summary["max_tight_reduction_rel"] <= 1e-9
    assert summary["subspace_trials"] == (SMALL.trials + 9) // 10
    assert summary["max_subspace_rel"] <= 1e-9


def test_general_summary_fields():
    _, summary = run_suite("general", SMALL)
    assert summary["max_cond"] <= 1e3
    assert summary["reduction_trials"] == (SMALL.trials + 9) // 10
    assert summary["max_reduction_dev"] <= 1e-9


def test_equivalence_sees_both_outcomes():
    results, summary = run_suite("equivalence", SMALL)
    assert summary["all_true"] > 0
    assert summary["all_false"] > 0
    assert summary["split"] == 0
    for row in results:
        if row["structured"] and not row["borderline"]:
            assert row["pattern"] == "TTTTTT"


def test_extension_summary_fields():
    _, summary = run_suite("extension", SMALL)
    assert summary["max_operator_diff"] <= 1e-9


def test_sj_summary_fields():
    _, summary = run_suite("sj", SMALL)
    assert summary["min_eig_product"] >= -1e-9
    assert summary["min_eig_gap"] >= -1e-9
    assert summary["max_identity_residual"] <= 1e-9


# ---------------------------------------------------------------------------
# batched suites against their scalar replay (tests/scalar_trials.py)

ORACLE_CONFIGS = {
    "seed101": RunConfig(seed=101, trials=200),
    "seed918273": RunConfig(seed=918273, trials=200),
    # 16 of the 60 pfi first draws fail random_parseval's cond test, and 8
    # of the 60 general and of the 60 bounds first draws fail the same test
    "redraws": RunConfig(seed=5, trials=60, dim_range=(6, 6), count_range=(6, 7)),
    # d = 1, groups that hold both fields, and 11 empty completions
    "small_d": RunConfig(seed=3, trials=50, dim_range=(1, 3), count_range=(1, 5)),
    "one_trial": RunConfig(seed=9, trials=1),
}


def _values(*keys):
    return lambda row: [row[key] for key in keys]


def _counted(total: int, flag) -> int:
    return total + bool(flag)


def _pattern_kind(row: dict) -> str | None:
    if row["borderline"]:
        return None
    if "F" not in row["pattern"]:
        return "all_true"
    return "all_false" if "T" not in row["pattern"] else "split"


_MAX_REL = ("max_rel_diff", max, 0.0, _values("rel_diff"))
_INF = float("inf")
# (key, fold, initial, the row's values to fold) of each summary field past the tally
_REDUCERS = {
    "pfi": [("max_rel_diff", max, 0.0, _values("rel_diff", "tight_reduction_rel", "subspace_rel")),
            ("min_side", min, _INF, _values("min_side")),
            ("min_bound_ratio", min, _INF, _values("bound_ratio")),
            ("max_tight_reduction_rel", max, 0.0, _values("tight_reduction_rel")),
            ("subspace_trials", _counted, 0, lambda row: [row["subspace_rel"] is not None]),
            ("max_subspace_rel", max, 0.0, _values("subspace_rel")),
            ("max_projection_dev", max, 0.0, _values("projection_dev"))],
    "general": [_MAX_REL, ("max_cond", max, 0.0, _values("cond")),
                ("reduction_trials", _counted, 0, lambda row: [row["reduction_dev"] is not None]),
                ("max_reduction_dev", max, 0.0, _values("reduction_dev"))],
    "overlap": [_MAX_REL],
    "bounds": [_MAX_REL, ("max_recon_err", max, 0.0, _values("recon_err")),
               ("max_additivity_err", max, 0.0, _values("additivity_err")),
               ("max_parseval_dev", max, 0.0, _values("parseval_dev"))],
    "equivalence": [_MAX_REL] + [
        (kind, _counted, 0, lambda row, kind=kind: [_pattern_kind(row) == kind])
        for kind in ("all_true", "all_false", "split")],
    "sj": [_MAX_REL, ("min_eig_product", min, _INF, _values("min_eig_product")),
           ("min_eig_gap", min, _INF, _values("min_eig_gap")),
           ("max_identity_residual", max, 0.0, _values("residual_identity"))],
    "extension": [_MAX_REL, ("max_operator_diff", max, 0.0, _values("operator_diff"))],
}


def reference_summary(name: str, rows: list[dict]) -> dict:
    """The summary as the documented fold of the rows, one row at a time:
    the tally, a borderline row counted apart from passed and failed, then
    each field folded from its initial value, None skipped. max and min
    keep the value held unless the next one beats it, so a NaN never
    replaces it."""
    summary = {"total": len(rows), "passed": 0, "failed": 0, "borderline": 0}
    summary |= {key: initial for key, _, initial, _ in _REDUCERS[name]}
    for row in rows:
        summary["borderline" if row.get("borderline") else
                "passed" if row["passed"] else "failed"] += 1
        for key, fold, _, values in _REDUCERS[name]:
            for value in values(row):
                if value is not None:
                    summary[key] = fold(summary[key], value)
    return summary


def assert_summary_is_the_fold(name: str, rows: list[dict], summary: dict):
    want = reference_summary(name, rows)
    assert list(summary.items()) == list(want.items())
    assert [type(value) for value in summary.values()] == [type(value) for value in want.values()]


@pytest.mark.parametrize("config", [SMALL, *ORACLE_CONFIGS.values()],
                         ids=["small", *ORACLE_CONFIGS.keys()])
@pytest.mark.parametrize("name", SUITE_NAMES)
def test_the_summary_is_the_fold_of_the_rows(name, config):
    assert_summary_is_the_fold(name, *run_suite(name, config))


def test_a_planted_nan_none_and_borderline_trial_fold_as_documented(monkeypatch):
    # NaNs before and after the largest value, a subspace trial without a
    # value, and a borderline trial that also failed
    draw, solve, reducers = sweeps._SUITES["pfi"]

    def planted(group, tol):
        columns = solve(group, tol)
        for k, t in enumerate(group.trials):
            if t in (0, 30):
                columns["rel_diff"][k] = columns["min_side"][k] = np.nan
            if t == 10:
                columns["subspace_rel"][k] = None
            if t == 7:
                columns["passed"][k] = False
        columns["borderline"] = [t in (5, 7) for t in group.trials]
        return columns

    monkeypatch.setitem(sweeps._SUITES, "pfi", (draw, planted, reducers))
    rows, summary = run_suite("pfi", SMALL)
    assert_summary_is_the_fold("pfi", rows, summary)
    assert np.isnan(rows[0]["rel_diff"]) and rows[10]["subspace_rel"] is None
    assert (summary["passed"], summary["failed"], summary["borderline"]) == (38, 0, 2)
    assert summary["subspace_trials"] == (SMALL.trials + 9) // 10 - 1
    finite = [row["rel_diff"] for row in rows if not np.isnan(row["rel_diff"])]
    assert summary["max_rel_diff"] >= max(finite) > 0.0
    assert summary["min_side"] == min(row["min_side"] for row in rows
                                      if not np.isnan(row["min_side"]))


def test_a_borderline_equivalence_trial_has_no_pattern_kind(monkeypatch):
    # trials 0 and 5 are orthogonal unions, whose pattern is all true
    draw, solve, reducers = sweeps._SUITES["equivalence"]

    def planted(group, tol):
        columns = solve(group, tol)
        columns["borderline"] = columns["borderline"] | np.isin(group.trials, [0, 5, 7])
        return columns

    monkeypatch.setitem(sweeps._SUITES, "equivalence", (draw, planted, reducers))
    rows, summary = run_suite("equivalence", SMALL)
    assert_summary_is_the_fold("equivalence", rows, summary)
    assert [rows[t]["pattern"] for t in (0, 5)] == ["TTTTTT"] * 2
    assert summary["borderline"] == 3
    assert summary["all_true"] + summary["all_false"] + summary["split"] == SMALL.trials - 3


def assert_rows_match(rows, reference):
    """Identical ints, bools, strings and Nones; floats within 1e-12 * max(1, |v|)."""
    assert len(rows) == len(reference)
    for row, want in zip(rows, reference):
        assert row.keys() == want.keys()
        for key, value in want.items():
            got = row[key]
            assert type(got) is type(value), (row["trial"], key)
            if type(value) is float:
                assert abs(got - value) <= 1e-12 * max(1.0, abs(value)), (row["trial"], key)
            else:
                assert got == value, (row["trial"], key)


@pytest.mark.parametrize("config", ORACLE_CONFIGS.values(), ids=ORACLE_CONFIGS.keys())
@pytest.mark.parametrize("name", sorted(SCALAR_TRIALS))
def test_batched_rows_match_their_scalar_replay(name, config):
    rows, _ = run_suite(name, config)
    assert_rows_match(rows, scalar_rows(name, config))


def test_a_row_does_not_depend_on_its_group():
    config = ORACLE_CONFIGS["seed101"]
    short = RunConfig(seed=config.seed, trials=60)
    for name in sorted(SCALAR_TRIALS):
        assert_rows_match(run_suite(name, config)[0][:60], run_suite(name, short)[0])


def test_trial_blocks_keep_trial_order(monkeypatch):
    config = RunConfig(seed=12, trials=30)
    whole = {name: run_suite(name, config)[0] for name in SUITE_NAMES}
    monkeypatch.setattr(sweeps, "_BLOCK", 7)
    for name in SUITE_NAMES:
        rows, summary = run_suite(name, config)
        assert [row["trial"] for row in rows] == list(range(config.trials))
        assert_rows_match(rows, whole[name])
        assert summary["total"] == config.trials


@pytest.mark.parametrize("config", [
    RunConfig(seed=3, trials=40, dim_range=(1, 1), count_range=(1, 5)),
    RunConfig(seed=4, trials=200, dim_range=(2, 16), count_range=(2, 64)),  # n_min < d
    RunConfig(seed=5, trials=40, dim_range=(2, 9), count_range=(9, 9)),
    RunConfig(seed=2**64 - 1, trials=40),
    RunConfig(seed=2**64 - 2**20, trials=40, dim_range=(1, 3), count_range=(1, 5)),
], ids=["d-1-only", "n_min-below-d", "n-fixed-at-d_max", "seed-2**64-1", "seed-near-2**64"])
def test_the_shape_pre_pass_is_the_scalar_shape_draw(config):
    # a block that does not start at trial 0, in every suite's streams
    trials = range(7, config.trials)
    for name in SUITE_NAMES:
        shapes = sweeps._draw_shapes(name, trials, config)
        assert [t for t, *_ in shapes] == list(trials)
        for t, rng, field, d, n in shapes:
            reference = _trial_rng(config, name, t)
            assert (field, d, n) == _draw_shape(reference, config)
            assert type(d) is int and type(n) is int
            assert rng.raw(2).tolist() == reference.raw(2).tolist()


def test_rejected_first_draws_are_redrawn(monkeypatch):
    # calls made in a forked child are not seen here, so count on one process
    monkeypatch.setattr(sweeps, "_PROCS", 1)
    config = ORACLE_CONFIGS["redraws"]
    rejected = set()
    for t in range(config.trials):
        rng = _trial_rng(config, "pfi", t)
        field, d, n = _draw_shape(rng, config)
        seed = rng.next_raw()
        bounds = frame_bounds(random_gaussian(d, n, seed, field))
        if not (bounds.is_frame and bounds.upper <= 1e3 * bounds.lower):
            rejected.add(seed)
    calls, attempts = [], []
    first_conditioned, gaussian = frames._first_conditioned, frames.random_gaussian
    monkeypatch.setattr(frames, "_first_conditioned",
                        lambda *args: calls.append(args) or first_conditioned(*args))
    monkeypatch.setattr(frames, "random_gaussian",
                        lambda *args: attempts.append(args[2]) or gaussian(*args))
    rows, summary = run_suite("pfi", config)
    assert rejected
    assert len(calls) == len(rejected)
    # a redraw goes on from the second attempt: no rejected first attempt is drawn again
    assert len(attempts) >= len(rejected)
    assert not rejected & set(attempts)
    assert summary["failed"] == 0
    assert_rows_match(rows, scalar_rows("pfi", config))


def _rejected_first_gaussian_draws(name: str, config: RunConfig) -> int:
    """First conditioned-Gaussian attempts that fail the cond test, counted
    from the public frame bounds."""
    rejected = 0
    for t in range(config.trials):
        rng = _trial_rng(config, name, t)
        field, d, n = _draw_shape(rng, config)
        bounds = frame_bounds(random_gaussian(d, n, rng.next_raw(), field))
        rejected += not (bounds.is_frame and bounds.upper <= 1e3 * bounds.lower)
    return rejected


@pytest.mark.parametrize("name", ["general", "bounds"])
def test_rejected_first_gaussian_draws_go_on_in_their_own_stream(monkeypatch, name):
    monkeypatch.setattr(sweeps, "_PROCS", 1)
    config = ORACLE_CONFIGS["redraws"]
    rejected = _rejected_first_gaussian_draws(name, config)
    # count the redraws of the draw step; a general reduction's own
    # random_parseval, in the solve, goes through _first_conditioned too
    calls, drawing = [], []
    draw, solve, reducers = sweeps._SUITES[name]
    first_conditioned = frames._first_conditioned

    def recording(*args):
        if drawing:
            calls.append(args)
        return first_conditioned(*args)

    def flagged(group):
        drawing.append(True)
        draw(group)
        drawing.clear()

    monkeypatch.setattr(frames, "_first_conditioned", recording)
    monkeypatch.setitem(sweeps._SUITES, name, (flagged, solve, reducers))
    rows, summary = run_suite(name, config)
    assert rejected == 8
    assert len(calls) == rejected
    assert summary["failed"] == 0
    assert_rows_match(rows, scalar_rows(name, config))


# the first attempt is drawn in the stack, so 999 more make the 1,000;
# random_parseval is the stack of one family
@pytest.mark.parametrize("draw, stacked", [
    (lambda: random_parseval(3, 4, 7), 1),
    (lambda: run_suite("general", RunConfig(seed=7, trials=1, dim_range=(3, 3),
                                            count_range=(4, 4))), 1),
    (lambda: frames._parseval_stack(3, [4, 5], [7, 8], ["real", "complex"]), 1),
], ids=["random_parseval", "general_sweep", "parseval_stack"])
def test_a_conditioned_draw_gives_up_after_the_one_limit(monkeypatch, draw, stacked):
    attempts = []
    gaussian = frames.random_gaussian
    monkeypatch.setattr(frames, "_conditioning", lambda eigenvalues: (
        np.zeros(eigenvalues.shape[:-1], dtype=bool), np.full(eigenvalues.shape[:-1], np.inf)))
    monkeypatch.setattr(frames, "random_gaussian",
                        lambda *args: attempts.append(args) or gaussian(*args))
    with pytest.raises(NoConvergence, match=r"no 4 x 3 Gaussian draw with cond\(S\) <= 1000"):
        draw()
    assert len(attempts) == frames._RESAMPLE_LIMIT - stacked


@pytest.mark.parametrize("name", SUITE_NAMES)
def test_a_solve_draws_nothing(monkeypatch, name):
    # every draw from a trial's stream is made in the draw step
    monkeypatch.setattr(sweeps, "_PROCS", 1)
    draw, solve, reducers = sweeps._SUITES[name]
    moved = []

    def watched(group, tol):
        drawn = [rng._pos for rng in group.streams]
        rows = solve(group, tol)
        moved.append(drawn != [rng._pos for rng in group.streams])
        return rows

    monkeypatch.setitem(sweeps._SUITES, name, (draw, watched, reducers))
    run_suite(name, ORACLE_CONFIGS["redraws"])
    assert moved and not any(moved)


def test_empty_and_nonempty_completions_share_a_group():
    rows, summary = run_suite("extension", ORACLE_CONFIGS["small_d"])
    empty = {row["d"] for row in rows if row["added_count"] == 0}
    kept = {row["d"] for row in rows if row["added_count"] > 0}
    assert sum(row["added_count"] == 0 for row in rows) == 11
    assert empty == {1}
    assert empty & kept
    assert summary["failed"] == 0


def test_batched_completions_are_the_public_ones(monkeypatch):
    # a row sees the mixing unitary only in rounding, so compare the added
    # families themselves: kept rows, in order, against complete_to_tight,
    # whose mixing unitary is the isometry stack of one seed; this pins that
    # a trial's unitary does not depend on its stack-mates
    monkeypatch.setattr(sweeps, "_PROCS", 1)
    draw, solve, reducers = sweeps._SUITES["extension"]
    compare = sweeps._extension_compare
    groups, added = [], []
    monkeypatch.setitem(sweeps._SUITES, "extension", (
        draw, lambda group, tol: groups.append(group) or solve(group, tol), reducers))
    monkeypatch.setattr(sweeps, "_extension_compare", lambda probes, first, second, *rest: (
        added.append((first, second)) or compare(probes, first, second, *rest)))
    run_suite("extension", RunConfig(seed=101, trials=60))
    mixed_in_groups = 0
    for group, (first, second) in zip(groups, added, strict=True):
        for k, stretch in enumerate(group.stretch):
            frame = random_gaussian(group.d, group.counts[k], group.seed[k], group.fields[k])
            upper = frame_bounds(frame).upper
            lam = upper if stretch is None else upper * stretch
            kept = np.abs(first[k]).max(axis=-1) > 0.0
            for got, mix_seed in ((first[k], None), (second[k], group.mix_seed[k])):
                want = complete_to_tight(frame, lam, mix_seed=mix_seed).vectors
                np.testing.assert_allclose(got[kept], want, rtol=0.0, atol=1e-12 * max(1.0, lam))
            mixed_in_groups += len(group.trials) > 1 and kept.any()
    assert mixed_in_groups > 20


def test_an_untight_mixed_completion_fails_the_extension_suite(monkeypatch):
    # mixing by 1.001 * a unitary scales only the second added operator,
    # by 1.002, so only the second union of a trial that keeps columns is
    # untight
    monkeypatch.setattr(sweeps, "_PROCS", 1)
    isometries = sweeps._isometries
    monkeypatch.setattr(sweeps, "_isometries", lambda *args: 1.001 * isometries(*args))
    with pytest.raises(NotTight, match="^eigenvalues deviate from "):
        run_suite("extension", RunConfig(seed=101, trials=60))


def _drawn_groups(monkeypatch, name: str, config: RunConfig) -> list:
    """Every group record of a one-process run of suite `name`, as drawn."""
    monkeypatch.setattr(sweeps, "_PROCS", 1)
    draw, solve, reducers = sweeps._SUITES[name]
    groups = []
    monkeypatch.setitem(sweeps._SUITES, name, (
        lambda group: draw(group) or groups.append(group), solve, reducers))
    run_suite(name, config)
    return groups


@pytest.mark.parametrize("config", [ORACLE_CONFIGS["seed101"], ORACLE_CONFIGS["small_d"]],
                         ids=["seed101", "small_d"])
def test_each_trials_probes_are_bitwise_its_own_probe_block(monkeypatch, config):
    # a trial given a neighbour's probe seed moves its row only in rounding,
    # so compare the probe blocks themselves, against a replay of the stream
    # drawn as a stack of one family: a trial's probes do not depend on its
    # stack-mates
    shared = 0
    for group in _drawn_groups(monkeypatch, "extension", config):
        for k, t in enumerate(group.trials):
            rng = _trial_rng(config, "extension", t)
            field, d, _ = _draw_shape(rng, config)
            rng.next_raw()  # the Gaussian frame's seed
            if rng.uniform() >= 0.5:
                rng.uniform()  # lam's stretch
            rng.next_raw()  # the mixing seed
            f = rng.unit_vector(d, field)
            want = _probe_blocks(f[None], d, [field], 20, [rng.next_raw()])[0]
            assert (group.probes[k].shape, group.probes[k].tobytes()) == (
                want.shape, want.tobytes()), t
        shared += len(set(group.fields)) == 2
    assert shared > 0


@pytest.mark.parametrize("config", [ORACLE_CONFIGS["seed101"], ORACLE_CONFIGS["small_d"]],
                         ids=["seed101", "small_d"])
def test_each_orthogonal_union_is_bitwise_its_per_trial_construction(monkeypatch, config):
    # every orthogonal union gives the all-true pattern, so a union built from
    # a neighbour's isometry or Parseval seeds would leave every row as it is
    same_field = 0
    for group in _drawn_groups(monkeypatch, "equivalence", config):
        for k, t in enumerate(group.trials):
            assert (k in group.unions) == (t % 5 == 0 and group.d >= 2), t
        for k, rows in group.unions.items():
            rng = _trial_rng(config, "equivalence", group.trials[k])
            field, d, _ = _draw_shape(rng, config)
            want, subset = _orthogonal_union(rng, d, field)
            assert (rows.shape, rows.tobytes()) == (want.shape, want.tobytes()), group.trials[k]
            assert (group.subset[k], group.counts[k]) == (subset, len(want))
        fields = [group.fields[k] for k in group.unions]
        same_field += len(fields) > len(set(fields))
    assert same_field > 0


def test_bounds_equalities_at_d_1_pass_through_their_slack():
    # at d = 1 the frame inequality and both Bessel inequalities hold with
    # equality, so only their slack lets these rows pass
    rows, summary = run_suite("bounds", ORACLE_CONFIGS["small_d"])
    assert sum(row["d"] == 1 for row in rows) > 5
    assert summary["failed"] == 0


TINY_TOLERANCE = RunConfig(seed=101, trials=20, tolerance=1e-18)


@pytest.mark.parametrize("name, error", [("general", NotParseval), ("extension", NotTight)])
def test_a_tolerance_below_rounding_raises_as_the_scalar_trials_do(name, error):
    for run in (scalar_rows, run_suite):
        with pytest.raises(error) as exc:
            run(name, TINY_TOLERANCE)
        assert type(exc.value) is error


def test_a_tolerance_below_rounding_fails_every_bounds_row():
    rows, summary = run_suite("bounds", TINY_TOLERANCE)
    assert summary["failed"] == TINY_TOLERANCE.trials
    assert_rows_match(rows, scalar_rows("bounds", TINY_TOLERANCE))


def test_sj_real_one_by_one_draws_are_not_demanded_non_hermitian():
    # a real 1x1 "non-Hermitian" raw resolution is self-adjoint, so trial 35
    # (real, d = 1) used to fail although every identity held
    rows, summary = run_suite("sj", ORACLE_CONFIGS["small_d"])
    assert (rows[35]["field"], rows[35]["d"]) == ("real", 1)
    assert rows[35]["passed"]
    assert summary["failed"] == 0


@pytest.mark.parametrize("config", [ORACLE_CONFIGS["seed101"], ORACLE_CONFIGS["small_d"]],
                         ids=["seed101", "small_d"])
def test_sj_raw_rows_carry_the_public_checks_exact_values(monkeypatch, config):
    # the raw resolutions are checked as one stack; each raw row must still
    # hold exactly the residuals and verdicts of the public checks
    monkeypatch.setattr(sweeps, "_PROCS", 1)
    draw, solve, reducers = sweeps._SUITES["sj"]
    drawn = {}

    def recording(group):
        draw(group)
        drawn.update((t, (group, k)) for k, t in enumerate(group.trials))

    monkeypatch.setitem(sweeps._SUITES, "sj", (recording, solve, reducers))
    rows, _ = run_suite("sj", config)
    raw = [t for t in sorted(drawn) if drawn[t][1] in drawn[t][0].raw]
    for t in raw:
        (group, k), row, tol = drawn[t], rows[t], config.tol
        d, n, field, subset, g = (group.d, group.counts[k], group.fields[k], group.subset[k],
                                  group.raw[k])
        frame = random_parseval(d, n, group.seed[k], field)
        s_j = partial_operator_matrix(frame, subset)
        s_jc = partial_operator_matrix(frame, sorted(set(range(n)) - set(subset)))
        sa = self_adjoint_product_check(s_j, s_jc, tol)
        split_ok = (partial_structure_check(frame, subset, tol).passed
                    and operator_identity_check(s_j, s_jc, tol).passed
                    and sa.equivalence_holds and sa.product_self_adjoint)
        h, eye = hermitize(g), np.eye(d)
        op_h, sa_h = (check(h, eye - h, tol)
                      for check in (operator_identity_check, self_adjoint_product_check))
        op_n, sa_n = (check(g, eye - g, tol)
                      for check in (operator_identity_check, self_adjoint_product_check))
        assert row["rel_diff"] == max(row["residual_identity"], row["op_residual"],
                                      op_h.residual, op_n.residual), t
        raw_ok = (op_h.passed and sa_h.equivalence_holds and sa_h.product_self_adjoint
                  and op_n.passed and sa_n.equivalence_holds
                  and (not sa_n.product_self_adjoint or (d == 1 and field == "real")))
        assert row["passed"] is (split_ok and raw_ok), t
    assert len(raw) == config.trials // 5
    if config.dim_range[0] == 1:
        assert any(rows[t]["d"] == 1 and rows[t]["field"] == "real" for t in raw)


# ---------------------------------------------------------------------------
# a block's d groups split between this process and forked children

SPLIT = RunConfig(seed=101, trials=200)


@pytest.mark.parametrize("block", [sweeps._BLOCK, 64])
@pytest.mark.parametrize("name", SUITE_NAMES)
def test_a_block_draws_and_solves_one_group_per_d(monkeypatch, name, block):
    # real and complex trials of the same d share a group
    monkeypatch.setattr(sweeps, "_PROCS", 1)
    monkeypatch.setattr(sweeps, "_BLOCK", block)
    draw, solve, reducers = sweeps._SUITES[name]
    drawn, solved = [], []

    def recording(group):
        drawn.append((list(group.trials), list(group.fields), group.d))
        draw(group)

    monkeypatch.setitem(sweeps._SUITES, name, (
        recording, lambda group, tol: solved.append(group) or solve(group, tol), reducers))
    rows, _ = run_suite(name, SPLIT)
    assert [group.d for group in solved] == [d for _, _, d in drawn]
    for start in range(0, SPLIT.trials, block):
        in_block = [(trials, d) for trials, _, d in drawn if trials[0] // block == start // block]
        ds = [d for _, d in in_block]
        assert sorted(ds) == sorted({row["d"] for row in rows[start:start + block]})
        assert sorted(t for trials, _ in in_block for t in trials) == list(
            range(start, min(start + block, SPLIT.trials)))
    for (trials, fields, d), group in zip(drawn, solved):
        assert [(rows[t]["d"], rows[t]["field"]) for t in trials] == [(d, f) for f in fields]
        assert [(group.d, field) for field in group.fields] == [(d, f) for f in fields]
    assert any(set(fields) == {"real", "complex"} for _, fields, _ in drawn)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _solve_in_parent_only(monkeypatch, name, action):
    """Make `name`'s group solve call action() in every process but this one."""
    draw, solve, reducers = sweeps._SUITES[name]
    parent = os.getpid()

    def guarded(group, tol):
        if os.getpid() != parent:
            action()
        return solve(group, tol)

    monkeypatch.setitem(sweeps._SUITES, name, (draw, guarded, reducers))


def _counted_forks(monkeypatch) -> list:
    forks = []
    fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    return forks


@pytest.mark.parametrize("procs", [2, 3])
def test_split_runs_are_bitwise_the_serial_run(monkeypatch, procs):
    monkeypatch.setattr(sweeps, "_BLOCK", 64)  # four blocks per suite, the last of 8 trials
    monkeypatch.setattr(sweeps, "_PROCS", 1)
    serial = run_suites(list(SUITE_NAMES), SPLIT)
    forks = _counted_forks(monkeypatch)
    monkeypatch.setattr(sweeps, "_PROCS", procs)
    split = run_suites(list(SUITE_NAMES), SPLIT)
    assert json.dumps(split) == json.dumps(serial)
    assert len(forks) == procs - 1  # one worker per extra process for the whole call
    assert_no_child_left()


FORTY = RunConfig(seed=101, trials=40)


def test_a_forty_trial_run_of_every_suite_splits_and_is_bitwise_the_serial_run(monkeypatch):
    # each suite alone stays on one process (40 // _SPLIT_TRIALS == 0); the call does not
    monkeypatch.setattr(sweeps, "_PROCS", 1)
    serial = run_suites(list(SUITE_NAMES), FORTY)
    forks = _counted_forks(monkeypatch)
    monkeypatch.setattr(sweeps, "_PROCS", 2)
    split = run_suites(list(SUITE_NAMES), FORTY)
    assert json.dumps(split) == json.dumps(serial)
    assert len(forks) == 1
    assert_no_child_left()


@pytest.mark.parametrize("procs", [1, 2])
def test_rows_and_summaries_hold_plain_python_values(monkeypatch, procs):
    # json.dumps prints a numpy float as it prints a float, so the rows
    # digest cannot see one; check the types themselves
    forks = _counted_forks(monkeypatch)
    monkeypatch.setattr(sweeps, "_PROCS", procs)
    rows, combined = run_suites(list(SUITE_NAMES), FORTY)
    assert len(forks) == procs - 1
    plain = {bool, int, float, str, type(None)}
    for row in rows:
        assert list(row)[:5] == ["suite", "trial", "d", "n", "field"]
        assert {type(value) for value in row.values()} <= plain, row
    for summary in (combined, *combined["suites"].values()):
        assert {type(value) for key, value in summary.items() if key != "suites"} <= plain
    assert_no_child_left()


def test_the_first_failing_suite_in_names_order_raises_across_suites(monkeypatch):
    # the first suite fails in this process only and the last in every worker
    # only, so a worker holding the last suite sends back a failure of its own
    first, last = SUITE_NAMES[0], SUITE_NAMES[-1]
    parent = os.getpid()
    for name, here in ((first, True), (last, False)):
        draw, solve, reducers = sweeps._SUITES[name]

        def failing(group, tol, _name=name, _here=here, _solve=solve):
            if (os.getpid() == parent) == _here:
                raise ValueError(_name)
            return _solve(group, tol)

        monkeypatch.setitem(sweeps._SUITES, name, (draw, failing, reducers))
    sent = []
    collect = sweeps._collect
    monkeypatch.setattr(sweeps, "_collect", lambda *args: sent.append(collect(*args)) or sent[-1])
    for procs in (1, 2):
        monkeypatch.setattr(sweeps, "_PROCS", procs)
        with pytest.raises(ValueError, match=f"^{first}$"):
            run_suites(list(SUITE_NAMES), FORTY)
    assert [str(failure[1]) for _, failure in sent] == [last]
    assert_no_child_left()


@pytest.mark.parametrize("name", ["general", "extension", "pfi"])
def test_a_split_run_raises_the_serial_error(monkeypatch, name):
    config = RunConfig(seed=101, trials=200, tolerance=1e-18)
    raised = []
    for procs in (1, 2):
        monkeypatch.setattr(sweeps, "_PROCS", procs)
        with pytest.raises(FrameError) as exc:
            run_suite(name, config)
        raised.append((type(exc.value), str(exc.value)))
    assert raised[0] == raised[1]
    assert_no_child_left()


@pytest.mark.parametrize("step", ["draw", "solve"])
def test_the_first_failing_group_in_serial_order_raises_as_on_one_process(monkeypatch, step):
    # the second group in serial order fails at `step` and every later group
    # at the other step, so each process holds a failure of its own
    keys = []
    for t in range(SPLIT.trials):
        _, d, _ = _draw_shape(_trial_rng(SPLIT, "overlap", t), SPLIT)
        if d not in keys:
            keys.append(d)
    first, later = keys[1], keys[2:]
    other = "solve" if step == "draw" else "draw"
    draw, solve, reducers = sweeps._SUITES["overlap"]

    def fail_at(name, key):
        if (name == step and key == first) or (name == other and key in later):
            raise ValueError(f"{name} {key}")

    def failing_draw(group):
        fail_at("draw", group.d)
        draw(group)

    def failing_solve(group, tol):
        fail_at("solve", group.d)
        return solve(group, tol)

    monkeypatch.setitem(sweeps._SUITES, "overlap", (failing_draw, failing_solve, reducers))
    raised = []
    for procs in (1, 2):
        monkeypatch.setattr(sweeps, "_PROCS", procs)
        with pytest.raises(ValueError) as exc:
            run_suite("overlap", SPLIT)
        raised.append(str(exc.value))
    assert raised[0] == raised[1] == f"{step} {first}"
    assert_no_child_left()


def test_a_split_run_with_no_process_to_spare_solves_every_part_here(monkeypatch):
    monkeypatch.setattr(sweeps, "_PROCS", 1)
    serial = run_suite("pfi", SPLIT)

    def no_fork():
        raise BlockingIOError("fork refused")

    monkeypatch.setattr(os, "fork", no_fork)
    monkeypatch.setattr(sweeps, "_PROCS", 2)
    assert run_suite("pfi", SPLIT) == serial


def test_a_process_running_other_threads_does_not_fork(monkeypatch):
    monkeypatch.setattr(sweeps, "_PROCS", 1)
    serial = run_suite("pfi", SPLIT)
    forks = _counted_forks(monkeypatch)
    monkeypatch.setattr(sweeps, "_PROCS", 2)
    release = threading.Event()
    waiter = threading.Thread(target=release.wait, args=(60,))
    waiter.start()
    try:
        assert run_suite("pfi", SPLIT) == serial
    finally:
        release.set()
        waiter.join(60)
    assert not waiter.is_alive()
    assert forks == []


_RUNS = pytest.mark.parametrize("run", [lambda: run_suite("pfi", SPLIT),
                                         lambda: run_suites(list(SUITE_NAMES), FORTY)],
                                 ids=["one suite", "every suite"])


@_RUNS
def test_a_dead_worker_is_a_frame_error(monkeypatch, run):
    monkeypatch.setattr(sweeps, "_PROCS", 2)
    _solve_in_parent_only(monkeypatch, "pfi", lambda: os._exit(1))
    with pytest.raises(FrameError, match="exited with status 1 before sending its rows"):
        run()
    assert_no_child_left()


@_RUNS
def test_an_interrupt_in_the_parent_reaps_the_worker(monkeypatch, run):
    monkeypatch.setattr(sweeps, "_PROCS", 2)
    draw, solve, reducers = sweeps._SUITES["pfi"]
    parent = os.getpid()

    def interrupted(group, tol):
        if os.getpid() == parent:
            raise KeyboardInterrupt
        return solve(group, tol)

    monkeypatch.setitem(sweeps._SUITES, "pfi", (draw, interrupted, reducers))
    with pytest.raises(KeyboardInterrupt):
        run()
    assert_no_child_left()


@pytest.mark.parametrize("trials", ["40", "200"])
def test_split_cli_output_is_the_serial_output(monkeypatch, capfd, trials):
    # capfd reads file descriptors 1 and 2, which the worker shares
    argv = ["property-run", "--suite", "all", "--trials", trials, "--seed", "101"]
    printed = []
    for procs in (1, 2):
        monkeypatch.setattr(sweeps, "_PROCS", procs)
        assert cli.main(argv) == 0
        printed.append(capfd.readouterr())
    (out1, err1), (out2, err2) = printed
    assert out1 == out2
    assert json.loads(out1)["summary"]["failed"] == 0
    assert err1 == err2 == ""
    assert_no_child_left()


def test_a_dead_worker_is_a_json_error_from_the_cli(monkeypatch, capfd):
    monkeypatch.setattr(sweeps, "_PROCS", 2)
    _solve_in_parent_only(monkeypatch, "pfi", lambda: os._exit(1))
    assert cli.main(["property-run", "--suite", "pfi", "--trials", "200"]) == 1
    out, err = capfd.readouterr()
    assert json.loads(out)["error"]["type"] == "FrameError"
    assert err == ""
    assert_no_child_left()


# (hermitian_eig, hermitian_eigvals) calls per suite at the benchmark's reference
# run: seed 101, 1,000 trials of each suite but extension (100), on one process
_DECOMPOSITIONS = {"pfi": (34, 15), "general": (166, 0), "overlap": (29, 15), "bounds": (31, 0),
                   "equivalence": (175, 15), "sj": (42, 30), "extension": (45, 15)}


def test_every_decomposition_goes_through_the_public_names(monkeypatch):
    """The benchmark's tracer counts eigendecompositions by these two names,
    so a suite that factorized by another path would drop out of its counts."""
    calls = {}
    for name in ("hermitian_eig", "hermitian_eigvals"):
        original = getattr(linalg, name)

        def counted(*args, _original=original, _name=name):
            calls[_name] += 1
            return _original(*args)

        for module in (framecalc, linalg, frames, identities, sweeps, cli):
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)
    monkeypatch.setattr(sweeps, "_PROCS", 1)
    counts = {}
    for suite in SUITE_NAMES:
        calls.update(hermitian_eig=0, hermitian_eigvals=0)
        run_suite(suite, RunConfig(seed=101, trials=100 if suite == "extension" else 1000))
        counts[suite] = (calls["hermitian_eig"], calls["hermitian_eigvals"])
    assert counts == _DECOMPOSITIONS
