"""Tests of the benchmark itself: the correctness gate trips, the tracer
restores the package and accounts for time exactly, the counters repeat,
and the output follows BENCHMARK.json.

    python -m pytest bench
"""

from __future__ import annotations

import copy
import importlib
import inspect
import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import framecalc
from crosscheck import reference_counts
from tracer import LAYERS, Tracer
from workloads import LibraryCalls, SweepMix, check_cli_output, child_env

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
DOC = b'{\n  "summary": {"failed": 0}\n}\n'


# -- correctness gate --------------------------------------------------------


def test_cli_gate_accepts_a_valid_call():
    assert check_cli_output(0, DOC, 0, DOC)


@pytest.mark.parametrize("token", [b"NaN", b"Infinity", b"-Infinity"])
def test_cli_gate_rejects_non_finite_json(token):
    doc = b'{"max_rel_diff": ' + token + b"}\n"
    assert not check_cli_output(0, doc, 0, doc)


def test_cli_gate_rejects_two_documents_and_tracebacks():
    assert not check_cli_output(0, DOC + DOC, 0, DOC + DOC)
    assert not check_cli_output(1, b"", 1, b"")


def test_cli_gate_rejects_wrong_exit_code():
    assert not check_cli_output(1, DOC, 0, DOC)
    assert not check_cli_output(0, DOC, 2, DOC)


def test_cli_gate_rejects_changed_bytes_on_repeat():
    assert not check_cli_output(0, DOC.replace(b"0", b"1"), 0, DOC)


REQ = (0, "equivalence")


@pytest.fixture(scope="module")
def sweep():
    wl = SweepMix(seed=3)
    return wl, wl.call(REQ)


def test_sweep_gate_accepts_repeats(sweep):
    wl, out = sweep
    assert wl.check(REQ, out) == 0
    assert wl.check(REQ, wl.call(REQ)) == 0


@pytest.mark.parametrize("field", ["passed", "borderline"])
def test_sweep_gate_rejects_changed_verdict_count(sweep, field):
    wl, out = sweep
    wl.check(REQ, out)
    bad = copy.deepcopy(out)
    bad[1]["suites"]["equivalence"][field] += 1
    bad[1]["suites"]["equivalence"]["failed"] -= 1 if field == "passed" else 0
    assert wl.check(REQ, bad) == wl.work(REQ)


def test_sweep_gate_counts_failed_trials(sweep):
    _, out = sweep
    bad = copy.deepcopy(out)
    bad[1]["suites"]["equivalence"]["passed"] -= 2
    bad[1]["suites"]["equivalence"]["failed"] += 2
    wl = SweepMix(seed=3)
    assert wl.check(REQ, bad) == 2
    assert wl.check(REQ, out) == wl.work(REQ)  # the counts no longer match the first run


def test_library_gate_rejects_failed_report_and_wrong_frame():
    wl = LibraryCalls(seed=4)
    assert wl.check(("parseval_identity_report", 0), types.SimpleNamespace(passed=False)) == 1
    assert wl.check(("equivalence_conditions", 0), types.SimpleNamespace(consistent=False)) == 1
    frame = wl.cases[0]["frame"]  # a Gaussian frame, not Parseval
    assert wl.check(("random_parseval", 0), frame) == 1
    assert wl.check(("canonical_dual", 0), frame) == 1


# -- tracer ------------------------------------------------------------------


def _snapshot():
    """Identity of every global and class attribute of the layer modules."""
    snap = {}
    names = ("framecalc",) + tuple("framecalc." + m for m in LAYERS)
    for name, mod in [(name, importlib.import_module(name)) for name in names]:
        for key, value in vars(mod).items():
            snap[(name, key)] = id(value)
            if isinstance(value, dict) and not key.startswith("__"):
                snap[(name, key, "items")] = tuple((k, id(v)) for k, v in value.items())
            if inspect.isclass(value) and value.__module__ == name:
                for attr, member in vars(value).items():
                    snap[(name, key, attr)] = id(member)
    return snap


def test_uninstall_restores_every_binding():
    before = _snapshot()
    original = framecalc.hermitian_eig
    tracer = Tracer()
    tracer.install()
    try:
        assert framecalc.hermitian_eig is not original  # rebound through the package too
        assert importlib.import_module("framecalc.linalg").hermitian_eig.__wrapped__
        assert _snapshot() != before
    finally:
        tracer.uninstall()
    assert _snapshot() == before


def _traced_sweep(seed: int, trials: int = 6):
    tracer = Tracer()
    tracer.install()
    try:
        framecalc.run_suites(list(framecalc.SUITE_NAMES),
                             framecalc.RunConfig(seed=seed, trials=trials))
    finally:
        tracer.uninstall()
    return tracer.spans()


def test_self_times_add_up_to_request_time():
    spans = _traced_sweep(5)
    assert (spans.self_ns >= 0).all()
    assert sum(spans.layer_self_ns().values()) == pytest.approx(spans.root_ns(), rel=1e-12)
    # one request per run_suite call, nested under the run_suites root
    assert len(set(spans.request[spans.ids("sweeps.run_suite")])) == len(framecalc.SUITE_NAMES)


def test_counters_repeat_exactly_for_a_seed():
    def counters(spans):
        return (spans.count("linalg.hermitian_eig"), spans.eig_repeats(),
                spans.count("linalg.psd_apply"), spans.count("frames.Frame.__post_init__"),
                spans.draws(), spans.layer_entries("rng"), len(spans))

    assert counters(_traced_sweep(7)) == counters(_traced_sweep(7))
    assert counters(_traced_sweep(7)) != counters(_traced_sweep(8))


def test_reference_counts():
    """The re-anchor measurement: 33,059 hermitian_eig calls at seed 101."""
    ref = reference_counts()
    assert ref["per_suite"] == {"pfi": 7019, "general": 3636, "overlap": 4014, "bounds": 7016,
                                "equivalence": 4647, "sj": 6027, "extension": 700}
    assert ref["eig_calls"] == 33059
    assert ref["eig_repeats"] == 19000  # 57.5% byte-identical repeats within a run_suite call


# -- the command ---------------------------------------------------------------


def _run(cwd: Path, workload: str, trace: int, seconds: float = 1):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "11",
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, env=child_env(), capture_output=True, text=True, timeout=300)


def _result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout.splitlines()[-1])
    assert sorted(doc) == ["attempted", "correct", "failed", "metrics"]
    assert doc["correct"] and doc["failed"] == 0 and doc["attempted"] >= 1
    return doc["metrics"]


def test_untraced_run_reports_every_end_to_end_metric():
    metrics = _result(_run(ROOT, "library_calls", 0))
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == {
        k: v["unit"] for k, v in metrics.items()}
    assert all(v["value"] > 0 for v in metrics.values())


def test_traced_run_reports_every_per_layer_metric():
    metrics = _result(_run(ROOT, "sweep_mix", 1, seconds=0))
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == {
        k: v["unit"] for k, v in metrics.items()}
    assert all(np.isfinite(v["value"]) for v in metrics.values())


def test_run_refuses_without_sources(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run(tmp_path, "sweep_mix", 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
