"""Randomized suites: determinism, slicing, and small-scale health."""

import json
import os
import threading

import numpy as np
import pytest
from scalar_trials import SCALAR_TRIALS, scalar_rows

from framecalc import (
    BadParams,
    FrameError,
    NotParseval,
    NotTight,
    RunConfig,
    SUITE_NAMES,
    run_suite,
    run_suites,
)
from framecalc import cli, frames, sweeps
from framecalc.frames import complete_to_tight, frame_bounds, random_gaussian, random_parseval

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


def test_unknown_suite():
    with pytest.raises(BadParams):
        run_suite("telemetry", SMALL)


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
    # of the 60 general and of the 60 bounds first draws the sweeps' own
    "redraws": RunConfig(seed=5, trials=60, dim_range=(6, 6), count_range=(6, 7)),
    # d = 1, (field, d) groups of one trial, and 11 empty completions
    "small_d": RunConfig(seed=3, trials=50, dim_range=(1, 3), count_range=(1, 5)),
    "one_trial": RunConfig(seed=9, trials=1),
}


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


def test_rejected_first_draws_are_redrawn(monkeypatch):
    # calls made in a forked child are not seen here, so count on one process
    monkeypatch.setattr(sweeps, "_PROCS", 1)
    config = ORACLE_CONFIGS["redraws"]
    rejected = 0
    for t in range(config.trials):
        rng = sweeps._trial_rng(config, "pfi", t)
        field, d, n = sweeps._draw_shape(rng, config)
        bounds = frame_bounds(random_gaussian(d, n, rng.next_raw(), field))
        rejected += not (bounds.is_frame and bounds.upper <= 1e3 * bounds.lower)
    calls = []
    monkeypatch.setattr(frames, "random_parseval",
                        lambda *args: calls.append(args) or random_parseval(*args))
    rows, summary = run_suite("pfi", config)
    assert rejected > 0
    assert len(calls) == rejected
    assert summary["failed"] == 0
    assert_rows_match(rows, scalar_rows("pfi", config))


def _rejected_first_gaussian_draws(name: str, config: RunConfig) -> int:
    """First conditioned-Gaussian attempts that fail the cond test, counted
    from the public frame bounds."""
    rejected = 0
    for t in range(config.trials):
        rng = sweeps._trial_rng(config, name, t)
        field, d, n = sweeps._draw_shape(rng, config)
        bounds = frame_bounds(random_gaussian(d, n, rng.next_raw(), field))
        rejected += not (bounds.is_frame and bounds.upper <= 1e3 * bounds.lower)
    return rejected


@pytest.mark.parametrize("name", ["general", "bounds"])
def test_rejected_first_gaussian_draws_go_on_in_their_own_stream(monkeypatch, name):
    monkeypatch.setattr(sweeps, "_PROCS", 1)
    config = ORACLE_CONFIGS["redraws"]
    rejected = _rejected_first_gaussian_draws(name, config)
    calls = []
    fallback = sweeps._conditioned_gaussian
    monkeypatch.setattr(sweeps, "_conditioned_gaussian",
                        lambda *args: calls.append(args) or fallback(*args))
    rows, summary = run_suite(name, config)
    assert rejected == 8
    assert len(calls) == rejected
    assert summary["failed"] == 0
    assert_rows_match(rows, scalar_rows(name, config))


def test_empty_and_nonempty_completions_share_a_group():
    rows, summary = run_suite("extension", ORACLE_CONFIGS["small_d"])
    empty = {(row["field"], row["d"]) for row in rows if row["added_count"] == 0}
    kept = {(row["field"], row["d"]) for row in rows if row["added_count"] > 0}
    assert sum(row["added_count"] == 0 for row in rows) == 11
    assert {d for _, d in empty} == {1}
    assert empty & kept
    assert summary["failed"] == 0


def test_batched_completions_are_the_public_ones(monkeypatch):
    # a row sees the mixing unitary only in rounding, so compare the added
    # families themselves: kept rows, in order, against complete_to_tight
    monkeypatch.setattr(sweeps, "_PROCS", 1)
    draw, solve, reducers = sweeps._SUITES["extension"]
    compare = sweeps._extension_compare
    groups, added = [], []
    monkeypatch.setitem(sweeps._SUITES, "extension", (
        draw, lambda group, config: groups.append(group) or solve(group, config), reducers))
    monkeypatch.setattr(sweeps, "_extension_compare", lambda probes, first, second, *rest: (
        added.append((first, second)) or compare(probes, first, second, *rest)))
    run_suite("extension", RunConfig(seed=101, trials=60))
    mixed_in_groups = 0
    for group, (first, second) in zip(groups, added, strict=True):
        for k, dr in enumerate(group):
            frame = random_gaussian(dr["d"], dr["n"], dr["seed"], dr["field"])
            upper = frame_bounds(frame).upper
            lam = upper if dr["stretch"] is None else upper * dr["stretch"]
            kept = np.abs(first[k]).max(axis=-1) > 0.0
            for got, mix_seed in ((first[k], None), (second[k], dr["mix_seed"])):
                want = complete_to_tight(frame, lam, mix_seed=mix_seed).vectors
                np.testing.assert_allclose(got[kept], want, rtol=0.0, atol=1e-12 * max(1.0, lam))
            mixed_in_groups += len(group) > 1 and kept.any()
    assert mixed_in_groups > 20


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


# ---------------------------------------------------------------------------
# a block's (field, d) groups split between this process and forked children

SPLIT = RunConfig(seed=101, trials=200)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _solve_in_parent_only(monkeypatch, name, action):
    """Make `name`'s group solve call action() in every process but this one."""
    draw, solve, reducers = sweeps._SUITES[name]
    parent = os.getpid()

    def guarded(group, config):
        if os.getpid() != parent:
            action()
        return solve(group, config)

    monkeypatch.setitem(sweeps._SUITES, name, (draw, guarded, reducers))


@pytest.mark.parametrize("procs", [2, 3])
def test_split_runs_are_bitwise_the_serial_run(monkeypatch, procs):
    monkeypatch.setattr(sweeps, "_BLOCK", 64)
    monkeypatch.setattr(sweeps, "_SPLIT_TRIALS", 16)  # split the 64-trial blocks, not the last 8
    monkeypatch.setattr(sweeps, "_PROCS", 1)
    serial = run_suites(list(SUITE_NAMES), SPLIT)
    forks = []
    fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    monkeypatch.setattr(sweeps, "_PROCS", procs)
    split = run_suites(list(SUITE_NAMES), SPLIT)
    assert json.dumps(split) == json.dumps(serial)
    assert len(forks) == len(SUITE_NAMES) * 3 * (procs - 1)
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


def test_a_draw_error_ranks_before_every_solve_error_as_on_one_process(monkeypatch):
    # the draw fails only in the group that comes last in serial order, and
    # every solve fails, so each process holds a failure of its own
    keys = set()
    for t in range(SPLIT.trials):
        field, d, _ = sweeps._draw_shape(sweeps._trial_rng(SPLIT, "overlap", t), SPLIT)
        if (field, d) not in keys:
            keys.add((field, d))
            last = t
    draw, solve, reducers = sweeps._SUITES["overlap"]

    def failing_draw(rng, t, *shape):
        if t == last:
            raise ValueError(f"draw {t}")
        return draw(rng, t, *shape)

    def failing_solve(group, config):
        raise ValueError(f"solve {group[0]['d']}")

    monkeypatch.setitem(sweeps._SUITES, "overlap", (failing_draw, failing_solve, reducers))
    raised = []
    for procs in (1, 2):
        monkeypatch.setattr(sweeps, "_PROCS", procs)
        with pytest.raises(ValueError) as exc:
            run_suite("overlap", SPLIT)
        raised.append(str(exc.value))
    assert raised[0] == raised[1] == f"draw {last}"
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
    forks = []
    fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
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


def test_a_dead_worker_is_a_frame_error(monkeypatch):
    monkeypatch.setattr(sweeps, "_PROCS", 2)
    _solve_in_parent_only(monkeypatch, "pfi", lambda: os._exit(1))
    with pytest.raises(FrameError, match="exited with status 1 before sending its rows"):
        run_suite("pfi", SPLIT)
    assert_no_child_left()


def test_an_interrupt_in_the_parent_reaps_the_worker(monkeypatch):
    monkeypatch.setattr(sweeps, "_PROCS", 2)
    draw, solve, reducers = sweeps._SUITES["pfi"]
    parent = os.getpid()

    def interrupted(group, config):
        if os.getpid() == parent:
            raise KeyboardInterrupt
        return solve(group, config)

    monkeypatch.setitem(sweeps._SUITES, "pfi", (draw, interrupted, reducers))
    with pytest.raises(KeyboardInterrupt):
        run_suite("pfi", SPLIT)
    assert_no_child_left()


def test_split_cli_output_is_the_serial_output(monkeypatch, capfd):
    # capfd reads file descriptors 1 and 2, which the worker shares
    argv = ["property-run", "--suite", "all", "--trials", "200", "--seed", "101"]
    printed = []
    for procs in (1, 2):
        monkeypatch.setattr(sweeps, "_PROCS", procs)
        assert cli.main(argv) == 0
        printed.append(capfd.readouterr())
    (out1, err1), (out2, err2) = printed
    assert out1 == out2
    assert json.loads(out1)["summary"]["failed"] == 0
    assert err1 == err2 == ""


def test_a_dead_worker_is_a_json_error_from_the_cli(monkeypatch, capfd):
    monkeypatch.setattr(sweeps, "_PROCS", 2)
    _solve_in_parent_only(monkeypatch, "pfi", lambda: os._exit(1))
    assert cli.main(["property-run", "--suite", "pfi", "--trials", "200"]) == 1
    out, err = capfd.readouterr()
    assert json.loads(out)["error"]["type"] == "FrameError"
    assert err == ""
    assert_no_child_left()
