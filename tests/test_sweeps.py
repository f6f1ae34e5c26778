"""Randomized suites: determinism, slicing, and small-scale health."""

import json

import pytest

from framecalc import BadParams, RunConfig, SUITE_NAMES, run_suite, run_suites

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
