"""Command behavior through the console entry point."""

import contextlib
import gc
import importlib
import io
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import framecalc
from framecalc import Frame, canonical_dual, complete_to_tight, read_frame, write_frame
from framecalc.cli import build_parser, main
from framecalc.frames import FrameBounds
from framecalc.identities import ConditionResult, IdentityReport, TightExtensionCompare

E1 = [1.0, 0.0]
E2 = [0.0, 1.0]


@pytest.fixture
def pair_file(tmp_path):
    path = str(tmp_path / "pair.json")
    write_frame(Frame(2, [E1, E1, E2], "real"), path)
    return path


@pytest.fixture
def quad_file(tmp_path):
    path = str(tmp_path / "quad.json")
    write_frame(Frame(2, [E1, E1, E2, E2], "real"), path)
    return path


@pytest.fixture
def mercedes_file(tmp_path, capsys):
    path = str(tmp_path / "merc.json")
    assert main(["gen", "mercedes", "--out", path]) == 0
    capsys.readouterr()
    return path


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


# ---------------------------------------------------------------------------
# gen and analyze


@pytest.mark.parametrize("argv, path, record", [
    (["gen", "mercedes", "--out", "OUT"], ("bounds",), FrameBounds),
    (["analyze", "FRAME"], ("bounds",), FrameBounds),
    (["identity", "FRAME", "--J", "0", "--f", "1,0"], ("report",), IdentityReport),
    (["equiv", "FRAME", "--J", "0", "--f", "1,0"], ("conditions", 0), ConditionResult),
    (["extend", "FRAME", "--lambda", "2"], ("compare",), TightExtensionCompare),
], ids=["gen", "analyze", "identity", "equiv", "extend"])
def test_a_printed_record_has_the_records_fields_as_keys(capsys, mercedes_file, tmp_path, argv,
                                                         path, record):
    replace = {"FRAME": mercedes_file, "OUT": str(tmp_path / "out.json")}
    code, out = run_cli(capsys, *(replace.get(arg, arg) for arg in argv))
    assert code == 0
    printed = json.loads(out)["results"][0]
    for key in path:
        printed = printed[key]
    assert set(printed) == set(record._fields)


def test_gen_to_stdout(capsys):
    code, out = run_cli(capsys, "gen", "mercedes")
    assert code == 0
    doc = json.loads(out)
    assert doc["dim"] == 2
    assert doc["field"] == "real"
    assert len(doc["vectors"]) == 3


def test_gen_writes_file_and_envelope(capsys, tmp_path):
    path = str(tmp_path / "m.json")
    code, out = run_cli(capsys, "gen", "mercedes", "--out", path)
    assert code == 0
    env = json.loads(out)
    assert env["results"][0]["bounds"]["is_parseval"]
    assert read_frame(path).count == 3


def test_gen_is_deterministic(capsys, tmp_path):
    a = str(tmp_path / "a.json")
    b = str(tmp_path / "b.json")
    for path in (a, b):
        code, _ = run_cli(
            capsys, "gen", "random-parseval", "--dim", "3", "--count", "5",
            "--seed", "9", "--field", "complex", "--out", path,
        )
        assert code == 0
    assert open(a).read() == open(b).read()


def test_gen_bad_params(capsys):
    code, out = run_cli(capsys, "gen", "harmonic", "--dim", "3", "--count", "2")
    assert code == 2
    assert json.loads(out)["error"]["type"] == "BadParams"


def test_a_generator_that_gives_up_is_a_json_domain_error(capsys, monkeypatch):
    # a square 64 x 64 Gaussian frame almost never has cond(S) <= 1e3, so the
    # draw gives up; three attempts keep the test fast
    monkeypatch.setattr(framecalc.frames, "_RESAMPLE_LIMIT", 3)
    code = main(["gen", "random-parseval", "--dim", "64", "--count", "64", "--seed", "1"])
    captured = capsys.readouterr()
    assert (code, captured.err) == (1, "")
    error = _strict_error(captured.out)
    assert error["type"] == "NoConvergence"
    assert error["message"] == "no 64 x 64 Gaussian draw with cond(S) <= 1000 found"


_HUGE = str(10**18)


@pytest.mark.parametrize("argv", [
    ["gen", "harmonic", "--dim", "2", "--count", _HUGE],
    ["gen", "onb", "--dim", _HUGE],
    ["gen", "random-gaussian", "--dim", _HUGE, "--count", _HUGE],
    ["identity", "FRAME", "--variant", "subspace", "--ambient-dim", _HUGE],
    ["property-run", "--suite", "pfi", "--trials", "1", "--dim-range", f"2,{_HUGE}",
     "--count-range", f"2,{_HUGE}"],
], ids=["count", "dim", "dim-and-count", "ambient-dim", "ranges"])
def test_a_size_above_the_limit_is_refused_at_parse_time(capsys, mercedes_file, argv):
    # each of these failed inside numpy with a traceback, exit 1 and no stdout
    with pytest.raises(SystemExit) as exc:
        main([mercedes_file if arg == "FRAME" else arg for arg in argv])
    captured = capsys.readouterr()
    assert (exc.value.code, captured.out) == (2, "")
    assert "above the largest size, 2**24" in captured.err


def test_the_size_limit_is_two_to_the_24(capsys):
    # parsed only: a command run at these sizes could try to allocate
    parser = build_parser()
    args = parser.parse_args(["gen", "harmonic", "--dim", str(2**24), "--count", str(2**24)])
    assert (args.dim, args.count) == (2**24, 2**24)
    args = parser.parse_args(["property-run", "--dim-range", f"1,{2**24}"])
    assert args.dim_range == (1, 2**24)
    for argv in (["gen", "onb", "--dim", str(2**24 + 1)],
                 ["property-run", "--count-range", f"2,{2**24 + 1}"]):
        with pytest.raises(SystemExit):
            parser.parse_args(argv)


@pytest.mark.parametrize("argv", [
    ["--count-range", f"2,{2**24}"],
    ["--trials", "1", "--dim-range", f"2,{2**24}", "--count-range", f"2,{2**24}"],
], ids=["count-range", "both-ranges"])
def test_a_run_whose_largest_stack_is_above_2_to_the_30_bytes_is_a_json_usage_error(
        capsys, argv):
    # RunConfig refuses it before any trial is drawn
    code = main(["property-run", *argv])
    captured = capsys.readouterr()
    assert (code, captured.err) == (2, "")
    error = _strict_error(captured.out)
    assert error["type"] == "BadParams"
    assert "above 2**30" in error["message"]


def test_an_allocation_that_fails_is_a_json_usage_error(capsys, monkeypatch):
    class _ArrayMemoryError(MemoryError):  # numpy's own is private
        pass

    def oversized(dim, count):
        raise _ArrayMemoryError(f"Unable to allocate an array with shape ({count}, {dim})")

    monkeypatch.setitem(framecalc.frames._GENERATORS, "harmonic", oversized)
    code = main(["gen", "harmonic", "--dim", "3", "--count", "7"])
    captured = capsys.readouterr()
    assert (code, captured.err) == (2, "")
    assert _strict_error(captured.out) == {
        "type": "MemoryError", "message": "Unable to allocate an array with shape (7, 3)"}


def test_analyze_bounds(capsys, pair_file):
    code, out = run_cli(capsys, "analyze", pair_file)
    assert code == 0
    bounds = json.loads(out)["results"][0]["bounds"]
    assert bounds["lower"] == pytest.approx(1.0)
    assert bounds["upper"] == pytest.approx(2.0)
    assert not bounds["is_tight"]


def test_analyze_dual(capsys, pair_file):
    code, out = run_cli(capsys, "analyze", pair_file, "--mode", "dual")
    assert code == 0
    result = json.loads(out)["results"][0]
    assert result["reconstruction_err"] <= 1e-9
    got = np.array(result["frame"]["vectors"])[:, :, 0]
    np.testing.assert_allclose(got, [[0.5, 0.0], [0.5, 0.0], [0.0, 1.0]], atol=1e-12)


def test_analyze_dual_checks_the_whole_reconstruction(capsys, monkeypatch, pair_file):
    code, out = run_cli(capsys, "analyze", pair_file, "--mode", "dual")
    assert code == 0
    assert json.loads(out)["results"][0]["reconstruction_err"] <= 1e-12

    # shift only the second component of every dual vector: reconstructing
    # e_0 alone does not see it, the operator sum_i f_i dual_i^* does
    def perturbed_dual(frame):
        dual = canonical_dual(frame)
        return Frame(dual.dim, dual.vectors + np.array([0.0, 1e-6]), dual.field)

    monkeypatch.setattr("framecalc.cli.canonical_dual", perturbed_dual)
    code, out = run_cli(capsys, "analyze", pair_file, "--mode", "dual")
    assert code == 1
    doc = json.loads(out)
    err = doc["results"][0]["reconstruction_err"]
    # sum_i f_i = (2, 1), so the defect is 1e-6 * sqrt(5) over ||I||_F = sqrt(2)
    assert err == pytest.approx(1e-6 * np.sqrt(5.0 / 2.0), rel=1e-6)
    assert doc["summary"]["failed"] == 1


def test_analyze_parsevalize_out(capsys, pair_file, tmp_path):
    out_path = str(tmp_path / "p.json")
    code, out = run_cli(
        capsys, "analyze", pair_file, "--mode", "parsevalize", "--out", out_path
    )
    assert code == 0
    assert json.loads(out)["results"][0]["parseval_dev"] <= 1e-9
    from framecalc import tight_deviation

    assert tight_deviation(read_frame(out_path), 1.0) <= 1e-9


# ---------------------------------------------------------------------------
# identity


def test_identity_pfi_hand_value(capsys, mercedes_file):
    code, out = run_cli(
        capsys, "identity", mercedes_file, "--variant", "pfi", "--J", "0", "--f", "1,0"
    )
    assert code == 0
    report = json.loads(out)["results"][0]["report"]
    assert abs(report["lhs"] - 2.0 / 9.0) <= 1e-12
    assert abs(report["rhs"] - 2.0 / 9.0) <= 1e-12
    assert report["passed"]


def test_identity_general(capsys, pair_file):
    code, out = run_cli(
        capsys, "identity", pair_file, "--variant", "general", "--J", "0", "--f", "1,0"
    )
    assert code == 0
    report = json.loads(out)["results"][0]["report"]
    assert abs(report["lhs"] - 0.5) <= 1e-12


def test_identity_tight(capsys, quad_file):
    code, out = run_cli(
        capsys, "identity", quad_file, "--variant", "tight", "--lambda", "2",
        "--J", "0", "--f", "1,0",
    )
    assert code == 0
    report = json.loads(out)["results"][0]["report"]
    assert abs(report["lhs"] - 1.0) <= 1e-12


def test_identity_overlap(capsys, mercedes_file):
    code, out = run_cli(
        capsys, "identity", mercedes_file, "--variant", "overlap",
        "--J", "0", "--E", "1", "--f", "1,0",
    )
    assert code == 0
    report = json.loads(out)["results"][0]["report"]
    assert abs(report["lhs"] - 2.0 / 3.0) <= 1e-12


@pytest.mark.parametrize("lam", ["auto", "0"])
def test_identity_tight_rejects_zero_family(capsys, tmp_path, lam):
    path = str(tmp_path / "zero.json")
    write_frame(Frame(2, np.zeros((3, 2)), "real"), path)
    code, out = run_cli(
        capsys, "identity", path, "--variant", "tight", "--lambda", lam,
        "--J", "0", "--f", "1,0",
    )
    assert code == 1
    assert json.loads(out)["error"]["type"] == "NotTight"


def test_identity_subspace(capsys, mercedes_file):
    code, out = run_cli(
        capsys, "identity", mercedes_file, "--variant", "subspace",
        "--ambient-dim", "4", "--J", "0,1", "--f", "random", "--seed", "3",
    )
    assert code == 0
    assert json.loads(out)["results"][0]["report"]["passed"]


def test_identity_subspace_needs_ambient(capsys, mercedes_file):
    code, out = run_cli(capsys, "identity", mercedes_file, "--variant", "subspace")
    assert code == 2
    assert json.loads(out)["error"]["type"] == "BadParams"


def test_identity_domain_error_exit(capsys, pair_file):
    code, out = run_cli(
        capsys, "identity", pair_file, "--variant", "pfi", "--J", "0", "--f", "1,0"
    )
    assert code == 1
    assert json.loads(out)["error"]["type"] == "NotParseval"


def test_identity_parsevalize_flag(capsys, pair_file):
    code, out = run_cli(
        capsys, "identity", pair_file, "--variant", "pfi", "--parsevalize",
        "--J", "0", "--f", "1,0",
    )
    assert code == 0
    assert json.loads(out)["results"][0]["report"]["passed"]


def test_identity_wrong_vector_length(capsys, mercedes_file):
    code, out = run_cli(
        capsys, "identity", mercedes_file, "--J", "0", "--f", "1,0,0"
    )
    assert code == 1
    assert json.loads(out)["error"]["type"] == "DimensionMismatch"


# ---------------------------------------------------------------------------
# subset and vector specs


def test_subset_spec_forms(capsys, mercedes_file):
    code, out = run_cli(capsys, "identity", mercedes_file, "--J", "all", "--f", "1,0")
    assert code == 0
    assert json.loads(out)["results"][0]["subset"] == [0, 1, 2]
    code, out = run_cli(capsys, "identity", mercedes_file, "--J", "1-2", "--f", "1,0")
    assert code == 0
    assert json.loads(out)["results"][0]["subset"] == [1, 2]


def test_subset_spec_random_is_seeded(capsys, mercedes_file):
    runs = []
    for _ in range(2):
        code, out = run_cli(
            capsys, "identity", mercedes_file, "--J", "random:2", "--f", "1,0",
            "--seed", "11",
        )
        assert code == 0
        runs.append(json.loads(out)["results"][0]["subset"])
    assert runs[0] == runs[1]
    assert len(runs[0]) == 2


def test_subset_spec_rejected(capsys, mercedes_file):
    # an index of more digits than int() converts is a bad spec, not a traceback
    for spec in ("zebra", "3-1", "0,0", "random:9", "1" * 5000, "random:" + "1" * 5000,
                 "0-" + "1" * 5000):
        code, out = run_cli(
            capsys, "identity", mercedes_file, "--J", spec, "--f", "1,0"
        )
        assert code == 2, spec
        assert json.loads(out)["error"]["type"] == "BadParams"


@pytest.mark.parametrize("argv, message", [
    (["identity", "--J", "0,5"], "index 5 outside [0, 3)"),
    (["identity", "--J", "3-4"], "index 4 outside [0, 3)"),
    (["identity", "--J", "1-" + "9" * 25], f"index {'9' * 25} outside [0, 3)"),
    (["identity", "--variant", "overlap", "--J", "0", "--E", "1,3"], "index 3 outside [0, 3)"),
    (["identity", "--variant", "subspace", "--ambient-dim", "4", "--J", "7"],
     "index 7 outside [0, 3)"),
    (["identity", "--J", "1,1"], "duplicate index 1"),
    (["equiv", "--J", "3"], "index 3 outside [0, 3)"),
    (["equiv", "--J", "2,2"], "duplicate index 2"),
], ids=["identity-J", "identity-J-range", "identity-J-long-range", "identity-E", "identity-subspace-J",
        "identity-J-duplicate", "equiv-J", "equiv-J-duplicate"])
def test_subset_that_does_not_fit_the_frame_is_usage_error(capsys, mercedes_file, argv,
                                                           message):
    command, *rest = argv
    code, out = run_cli(capsys, command, mercedes_file, *rest, "--f", "1,0")
    assert code == 2
    assert json.loads(out)["error"] == {"type": "BadParams", "message": message}


def test_vector_spec_complex_components(capsys, tmp_path):
    path = str(tmp_path / "h.json")
    assert main(["gen", "harmonic", "--dim", "2", "--count", "4", "--out", path]) == 0
    capsys.readouterr()
    code, out = run_cli(
        capsys, "identity", path, "--J", "0,2", "--f", "0.5+0.5j,1"
    )
    assert code == 0
    assert json.loads(out)["results"][0]["f"][0] == [0.5, 0.5]


def test_vector_spec_from_file(capsys, mercedes_file, tmp_path):
    vec = tmp_path / "vec.json"
    vec.write_text(json.dumps([[1.0, 0.0], [0.0, 0.0]]))
    code, out = run_cli(
        capsys, "identity", mercedes_file, "--J", "0", "--f", f"@{vec}"
    )
    assert code == 0
    report = json.loads(out)["results"][0]["report"]
    assert abs(report["lhs"] - 2.0 / 9.0) <= 1e-12


def test_vector_file_with_malformed_json(capsys, mercedes_file, tmp_path):
    vec = tmp_path / "vec.json"
    vec.write_text("[[1.0, 0.0], ")
    code, out = run_cli(capsys, "identity", mercedes_file, "--f", f"@{vec}")
    assert code == 2
    assert json.loads(out)["error"]["type"] == "BadParams"


_HUGE = "9" * 400  # an integer too large for a float


def _strict_error(out: str) -> dict:
    doc = json.loads(out, parse_constant=lambda token: pytest.fail(f"non-strict {token}"))
    return doc["error"]


@pytest.mark.parametrize("text", [
    '[["a", 1], [0, 0]]',
    '[[null, 1], [0, 0]]',
    '[[true, 1], [0, 0]]',
    '[["1", 0], [0, 0]]',
    '[false, 0]',
    f'[{_HUGE}, 0]',
    f'[[0, -{_HUGE}], 0]',
    '[[1, [0]], 0]',
], ids=["string", "null", "bool-in-pair", "numeric-string", "bool", "huge-int",
        "huge-int-in-pair", "nested-list"])
def test_a_hostile_vector_file_entry_is_usage_error(capsys, mercedes_file, tmp_path, text):
    vec = tmp_path / "vec.json"
    vec.write_text(text)
    code = main(["identity", mercedes_file, "--J", "0", "--f", f"@{vec}"])
    captured = capsys.readouterr()
    assert (code, captured.err) == (2, "")
    assert _strict_error(captured.out)["type"] == "BadParams"


@pytest.mark.parametrize("content", [
    f'{{"dim": 2, "field": "real", "vectors": [[[1, 0], [0, 0]], [[0, 0], [{_HUGE}, 0]]]}}',
    f'{{"dim": 2, "field": "complex", "vectors": [[[1, 0], [0, -{_HUGE}]]]}}',
    f'{{"dim": {_HUGE}, "field": "real", "vectors": [[[1, 0]]]}}',
    '{"dim": %s, "field": "real", "vectors": [[[1, 0]]]}' % ("9" * 5000),
    b'\xff\xfe{"dim": 1}',
], ids=["huge-int-entry", "huge-int-im", "huge-dim", "int-past-the-digit-limit", "not-utf8"])
def test_a_hostile_frame_file_is_usage_error(capsys, tmp_path, content):
    path = tmp_path / "big.json"
    path.write_bytes(content if isinstance(content, bytes) else content.encode())
    code = main(["analyze", str(path)])
    captured = capsys.readouterr()
    assert (code, captured.err) == (2, "")
    assert _strict_error(captured.out)["type"] == "FrameFormatError"


def test_vector_spec_rejected(capsys, mercedes_file):
    code, out = run_cli(capsys, "identity", mercedes_file, "--f", "1,spam")
    assert code == 2
    assert json.loads(out)["error"]["type"] == "BadParams"


@pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "0", "-1e-9"])
@pytest.mark.parametrize("command", [
    ["analyze", "{frame}", "--mode", "dual"],
    ["identity", "{frame}"],
    ["equiv", "{frame}"],
    ["extend", "{frame}"],
    ["property-run", "--suite", "pfi", "--trials", "1"],
], ids=lambda c: c[0])
def test_bad_tolerance_is_usage_error(capsys, mercedes_file, command, tol):
    argv = [a.format(frame=mercedes_file) for a in command] + [f"--tolerance={tol}"]
    code, out = run_cli(capsys, *argv)
    assert code == 2
    doc = json.loads(out, parse_constant=lambda token: pytest.fail(f"non-strict {token}"))
    assert doc["error"]["type"] == "BadParams"


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command", [
    pytest.param(["extend", "{pair}", "--lambda", "inf"], id="extend-lambda-inf"),
    pytest.param(["extend", "{pair}", "--lambda", "nan"], id="extend-lambda-nan"),
    pytest.param(["identity", "{quad}", "--variant", "tight", "--lambda", "inf"],
                 id="tight-lambda-inf"),
    pytest.param(["identity", "{merc}", "--J", "0", "--f", "1e308,1e308"], id="f-overflows"),
    pytest.param(["identity", "{merc}", "--J", "0", "--f", "inf,0"], id="f-infinite"),
    pytest.param(["equiv", "{merc}", "--f", "1e200,1e200"], id="equiv-f-overflows"),
])
def test_non_finite_input_is_usage_error(capsys, pair_file, quad_file, mercedes_file, command):
    argv = [a.format(pair=pair_file, quad=quad_file, merc=mercedes_file) for a in command]
    code, out = run_cli(capsys, *argv)
    assert code == 2
    doc = json.loads(out, parse_constant=lambda token: pytest.fail(f"non-strict {token}"))
    assert doc["error"]["type"] == "BadParams"


@pytest.mark.parametrize("command", [
    ["analyze"],
    ["identity", "--variant", "general", "--J", "0", "--f", "1,0"],
], ids=lambda c: c[0])
def test_overflowing_frame_file_is_usage_error(tmp_path, command):
    # finite entries whose frame operator overflows; run in a fresh
    # interpreter under -W error, so any RuntimeWarning would be a traceback
    path = tmp_path / "big.json"
    big = [[[1e200, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1e200, 0.0]]]
    path.write_text(json.dumps({"dim": 2, "field": "real", "vectors": big}))
    src = str(Path(framecalc.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "framecalc.cli", command[0], str(path),
         *command[1:]],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, check=False,
    )
    assert proc.returncode == 2
    assert proc.stderr == b""
    doc = json.loads(proc.stdout, parse_constant=lambda token: pytest.fail(f"non-strict {token}"))
    assert doc["error"]["type"] == "BadParams"


def test_non_finite_result_is_a_json_error(capsys, monkeypatch, pair_file):
    monkeypatch.setattr("framecalc.cli.tight_deviation", lambda frame, lam: float("nan"))
    code, out = run_cli(capsys, "analyze", pair_file, "--mode", "parsevalize")
    assert code == 1
    doc = json.loads(out, parse_constant=lambda token: pytest.fail(f"non-strict {token}"))
    assert doc["error"]["type"] == "FrameError"


# ---------------------------------------------------------------------------
# equiv and extend


def test_equiv_onb(capsys, tmp_path):
    path = str(tmp_path / "onb.json")
    assert main(["gen", "onb", "--dim", "3", "--out", path]) == 0
    capsys.readouterr()
    code, out = run_cli(capsys, "equiv", path, "--J", "0,1", "--f", "1,2,3")
    assert code == 0
    result = json.loads(out)["results"][0]
    assert result["consistent"]
    assert all(c["holds"] for c in result["conditions"])


def test_equiv_mercedes_all_false_still_consistent(capsys, mercedes_file):
    code, out = run_cli(capsys, "equiv", mercedes_file, "--J", "0", "--f", "1,0")
    assert code == 0
    result = json.loads(out)["results"][0]
    assert result["consistent"]
    assert not any(c["holds"] for c in result["conditions"])


def test_extend_hand_case(capsys, pair_file, tmp_path):
    out_path = str(tmp_path / "added.json")
    code, out = run_cli(capsys, "extend", pair_file, "--out", out_path)
    assert code == 0
    result = json.loads(out)["results"][0]
    assert result["lambda_used"] == pytest.approx(2.0)
    assert result["added_count"] == 1
    assert result["union_tight_dev"] == result["compare"]["union_tight_devs"][0] <= 1e-12
    assert result["compare"]["passed"]
    added = read_frame(out_path)
    np.testing.assert_allclose(np.abs(added.vectors), [[0.0, 1.0]], atol=1e-12)


def test_extend_explicit_lambda(capsys, pair_file):
    code, out = run_cli(capsys, "extend", pair_file, "--lambda", "3")
    assert code == 0
    result = json.loads(out)["results"][0]
    assert result["added_count"] == 2
    assert result["union_tight_dev"] == result["compare"]["union_tight_devs"][0] <= 1e-12


def test_extend_small_lambda_is_domain_error(capsys, pair_file):
    code, out = run_cli(capsys, "extend", pair_file, "--lambda", "1.5")
    assert code == 1
    assert json.loads(out)["error"]["type"] == "LambdaTooSmall"


def test_extend_on_the_zero_family_is_not_tight(capsys, tmp_path):
    # the all-zero family completes to itself at lam = 0, which is not positive
    path = str(tmp_path / "zero.json")
    write_frame(Frame(2, np.zeros((3, 2)), "real"), path)
    code, out = run_cli(capsys, "extend", path)
    assert code == 1
    assert json.loads(out) == {"error": {"type": "NotTight",
                                         "message": "tight value 0 is not positive"}}


def test_extend_checks_the_completion_it_prints(capsys, monkeypatch, pair_file):
    # only the printed (unmixed) completion is cut to half of e2 e2^*, so only
    # its union, diag(2, 1.5), misses 2-tightness; the mixed one is good
    def halved_when_printed(frame, lam=None, mix_seed=None):
        completion = complete_to_tight(frame, lam, mix_seed)
        if mix_seed is not None:
            return completion
        return Frame(frame.dim, completion.vectors / np.sqrt(2.0), completion.field)

    monkeypatch.setattr("framecalc.cli.complete_to_tight", halved_when_printed)
    code, out = run_cli(capsys, "extend", pair_file)
    assert code == 1
    assert json.loads(out) == {"error": {"type": "NotTight",
                                         "message": "eigenvalues deviate from 2 by 5.000e-01"}}


def test_extend_mix_seed_changes_vectors(capsys, pair_file, tmp_path):
    plain = str(tmp_path / "plain.json")
    mixed = str(tmp_path / "mixed.json")
    assert main(["extend", pair_file, "--lambda", "3", "--out", plain]) == 0
    assert main(["extend", pair_file, "--lambda", "3", "--mix-seed", "5", "--out", mixed]) == 0
    capsys.readouterr()
    a, b = read_frame(plain), read_frame(mixed)
    assert np.linalg.norm(a.operator - b.operator) <= 1e-12
    assert np.linalg.norm(a.vectors - b.vectors) > 1e-3


# ---------------------------------------------------------------------------
# property-run and error plumbing


def test_property_run_envelope(capsys):
    code, out = run_cli(
        capsys, "property-run", "--suite", "pfi", "--trials", "5", "--seed", "3"
    )
    assert code == 0
    env = json.loads(out)
    assert env["config"]["suite"] == "pfi"
    assert len(env["results"]) == 5
    assert env["summary"]["failed"] == 0


def test_property_run_all_concatenates(capsys):
    code, out = run_cli(
        capsys, "property-run", "--suite", "all", "--trials", "2", "--seed", "3"
    )
    assert code == 0
    env = json.loads(out)
    assert len(env["results"]) == 14
    assert set(env["summary"]["suites"]) == {
        "pfi", "general", "overlap", "bounds", "equivalence", "sj", "extension"
    }


def test_property_run_repeats_identically(capsys):
    outs = []
    for _ in range(2):
        code, out = run_cli(
            capsys, "property-run", "--suite", "bounds", "--trials", "4", "--seed", "8"
        )
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]


def test_property_run_quiet(capsys):
    code, out = run_cli(
        capsys, "property-run", "--suite", "overlap", "--trials", "3", "--quiet"
    )
    assert code == 0
    assert out.count("\n") == 1
    summary = json.loads(out)
    assert summary["failed"] == 0
    assert "results" not in summary


def test_property_run_out_file(capsys, tmp_path):
    path = str(tmp_path / "report.json")
    code, out = run_cli(
        capsys, "property-run", "--suite", "sj", "--trials", "3", "--out", path
    )
    assert code == 0
    assert json.loads(open(path).read()) == json.loads(out)


def test_missing_file_exit(capsys, tmp_path):
    code, out = run_cli(capsys, "analyze", str(tmp_path / "nope.json"))
    assert code == 2
    assert json.loads(out)["error"]["type"] == "FileNotFoundError"


def test_malformed_file_exit(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{]")
    code, out = run_cli(capsys, "analyze", str(path))
    assert code == 2
    assert json.loads(out)["error"]["type"] == "FrameFormatError"


def test_unknown_command_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv, keys", [
    (["gen", "mercedes", "--out", "{tmp}/m.json"], "kind out"),
    (["gen", "random-parseval", "--dim", "2", "--count", "3", "--out", "{tmp}/p.json"],
     "count dim field kind out seed"),
    (["analyze", "{merc}", "--mode", "dual"], "frame mode out"),
    (["identity", "{merc}", "--J", "0", "--f", "1,0"],
     "E J ambient_dim f frame lambda parsevalize seed tolerance variant"),
    (["equiv", "{merc}", "--J", "0", "--f", "1,0"], "J f frame parsevalize seed tolerance"),
    (["extend", "{merc}"], "frame lambda mix_seed out tolerance"),
    (["property-run", "--suite", "pfi", "--trials", "2", "--quiet", "--out", "{tmp}/r.json"],
     "count_range dim_range seed suite tolerance trials"),
], ids=["gen", "gen-random", "analyze", "identity", "equiv", "extend", "property-run"])
def test_each_command_echoes_its_config_keys(capsys, mercedes_file, tmp_path, argv, keys):
    argv = [a.format(merc=mercedes_file, tmp=tmp_path) for a in argv]
    assert main(argv) == 0
    out = capsys.readouterr().out
    env = json.loads((tmp_path / "r.json").read_text() if "--quiet" in argv else out)
    assert sorted(env["config"]) == keys.split()


# ---------------------------------------------------------------------------
# the package surface, and what each command imports


def test_every_public_name_is_the_object_in_its_home_module():
    for name in framecalc.__all__:
        obj = getattr(framecalc, name)
        home = importlib.import_module(getattr(obj, "__module__", "framecalc"))
        assert getattr(home, name) is obj, name


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from framecalc import *", namespace)
    public = [name for name in dir(framecalc) if not name.startswith("_")
              and not isinstance(getattr(framecalc, name), types.ModuleType)]
    assert "run_suites" in public and "parseval_identity_report" in public
    for name in public:
        assert namespace[name] is getattr(framecalc, name), name


def test_an_unknown_package_name_is_an_attribute_error():
    with pytest.raises(AttributeError) as exc:
        framecalc.no_such_name
    assert str(exc.value) == "module 'framecalc' has no attribute 'no_such_name'"
    assert not hasattr(framecalc, "no_such_name")


def test_resolving_a_lazy_name_stores_nothing_in_the_package():
    for home in ("framecalc.identities", "framecalc.sweeps"):
        importlib.import_module(home)
    before = {name: id(value) for name, value in vars(framecalc).items()}
    for name in framecalc.__all__:
        getattr(framecalc, name)
    assert {name: id(value) for name, value in vars(framecalc).items()} == before


def test_a_name_rebound_in_its_home_module_is_what_the_package_returns(monkeypatch):
    sweeps = importlib.import_module("framecalc.sweeps")
    replacement = object()
    monkeypatch.setattr(sweeps, "run_suites", replacement)
    assert framecalc.run_suites is replacement


_LOADED = """
import sys
from framecalc.cli import main
code = main(sys.argv[1:])
print(*sorted(m for m in sys.modules if m.startswith("framecalc.")), file=sys.stderr)
sys.exit(code)
"""


@pytest.mark.parametrize("command, code, loaded", [
    (["analyze", "FRAME"], 0, set()),
    (["identity", "FRAME", "--J", "1-x"], 2, set()),
    (["identity", "FRAME", "--J", "0", "--f", "1,0"], 0, {"identities"}),
    (["property-run", "--trials", "2", "--quiet"], 0, {"identities", "sweeps"}),
], ids=["analyze", "identity-usage-error", "identity", "property-run"])
def test_a_command_imports_only_the_modules_it_runs(mercedes_file, command, code, loaded):
    # one fresh interpreter per command: the test process has every module loaded
    src = str(Path(framecalc.__file__).resolve().parent.parent)
    argv = [mercedes_file if arg == "FRAME" else arg for arg in command]
    proc = subprocess.run([sys.executable, "-c", _LOADED, *argv],
                          env=dict(os.environ, PYTHONPATH=src), capture_output=True, check=False)
    assert proc.returncode == code
    modules = set(proc.stderr.decode().split())
    assert {"framecalc.frames", "framecalc.frame_io"} <= modules
    assert modules & {"framecalc.identities", "framecalc.sweeps"} == {
        f"framecalc.{name}" for name in loaded}


_AS_PROGRAM = """
import gc, sys
from framecalc.cli import main
sys.argv = ["framecalc", "gen", "mercedes"]
code = main()
print(gc.get_freeze_count(), file=sys.stderr)
sys.exit(code)
"""


def test_main_as_the_program_freezes_the_collector():
    # the process ends when main returns, so no collection, not even the
    # shutdown ones, needs to traverse what the imports made
    src = str(Path(framecalc.__file__).resolve().parent.parent)
    proc = subprocess.run([sys.executable, "-c", _AS_PROGRAM],
                          env=dict(os.environ, PYTHONPATH=src), capture_output=True, check=False)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["dim"] == 2
    assert int(proc.stderr) > 0


def test_main_with_argv_leaves_the_collector_alone(capsys):
    # a caller that goes on after main returns keeps its objects collectable
    fresh = [[] for _ in range(10)]  # tracked, so a freeze would count them
    before = gc.get_freeze_count()
    assert main(["gen", "mercedes"]) == 0
    assert gc.get_freeze_count() == before
    assert json.loads(capsys.readouterr().out)["dim"] == 2
    del fresh


# ---------------------------------------------------------------------------
# the CLI contract over drawn argv: one strict-JSON document, exit 0/1/2, no
# traceback; main runs in-process with its streams redirected, since capsys
# does not reset between the examples of one test

_NUMBERS = st.one_of(st.floats(-4, 4), st.integers(-3, 3))
_PAIRS = st.tuples(_NUMBERS, _NUMBERS).map(list)
_HOSTILE = st.sampled_from([float("nan"), float("inf"), -1e308, 10**400, -(10**400), True,
                            False, None, "1", "a", [], [1, [2]], {}])


@st.composite
def _vector_files(draw):
    """A vector file's bytes: numbers and [re, im] pairs, often with one
    entry, or one part of a pair, hostile."""
    entries = draw(st.lists(st.one_of(_NUMBERS, _PAIRS), min_size=1, max_size=4))
    i = draw(st.integers(0, len(entries) - 1))
    where = draw(st.sampled_from(["none", "entry", "part", "text"]))
    if where == "entry":
        entries[i] = draw(st.one_of(_HOSTILE, st.lists(_NUMBERS, max_size=3)))
    elif where == "part":
        if not isinstance(entries[i], list):
            entries[i] = [entries[i], 0]
        entries[i][draw(st.integers(0, 1))] = draw(_HOSTILE)
    elif where == "text":
        return draw(st.sampled_from([b"{}", b"null", b'"1,0"', b"[1, ", b"[NaN, 0]",
                                     b"[[1e400, 0], 0]", b"\xff\xfe[1]", b"9" * 5000]))
    return json.dumps(entries).encode()


@st.composite
def _frame_files(draw):
    """A frame file's bytes: a well-formed document, often with one key, one
    entry or one part of an entry hostile, or one vector cut short."""
    dim = draw(st.integers(1, 4))
    vectors = draw(st.lists(st.lists(_PAIRS, min_size=dim, max_size=dim), min_size=1,
                            max_size=6))
    doc = {"dim": dim, "field": draw(st.sampled_from(["complex", "real"])), "vectors": vectors}
    i, j = draw(st.integers(0, len(vectors) - 1)), draw(st.integers(0, dim - 1))
    where = draw(st.sampled_from(["none", "dim", "field", "entry", "part", "short", "text"]))
    if where == "dim":
        doc["dim"] = draw(st.sampled_from([0, -1, True, 2.0, "2", None, 2**40, 10**400]))
    elif where == "field":
        doc["field"] = draw(st.sampled_from(["quaternion", None]))
    elif where == "entry":
        vectors[i][j] = draw(st.one_of(_HOSTILE, st.lists(_NUMBERS, max_size=3)))
    elif where == "part":
        vectors[i][j][draw(st.integers(0, 1))] = draw(_HOSTILE)
    elif where == "short":
        del vectors[i][j]
    elif where == "text":
        return draw(st.sampled_from([b"{]", b"\xff\xfe{", b"", b"[]", b"9" * 5000]))
    return json.dumps(doc).encode()


# Each option is a pair of strategies, (valid values, hostile values), or
# None for a switch; the option "" is the command's positional argument.
# Files are named under {dir}, which the test replaces by its directory.
_FRAME = (st.sampled_from(["{dir}/merc.json", "{dir}/p4.json", "{dir}/g3.json"]),
          st.sampled_from(["{dir}/drawn.json", "{dir}/missing.json"]))
_SUBSET = (st.sampled_from(["", "all", "random", "random:2", "0", "0,1", "0-2", " 1 "]),
           st.one_of(st.sampled_from(["random:99", "1,1", "2-1", "0-99", "-1", "1,",
                                      "0-" + "9" * 25, "1" * 5000, "random:" + "1" * 5000]),
                     st.text("0123456789,-:ralndom ", max_size=8)))
_VECTOR = (st.sampled_from(["random", "1,0", "0.5+0.5j,1", "-0,0"] + ["@{dir}/vec.json"] * 4),
           st.sampled_from(["1e308,1e308", "nan,0", "inf,0", "1,2,3", "", ",", "x",
                            "@{dir}/missing.json", "1" * 5000]))
_LAMBDA = (st.sampled_from(["auto", "0.5", "1", "3"]),
           st.sampled_from(["nan", "inf", "-inf", "-0", "0", "1e-300", "1e300", "x"]))
_TOLERANCE = (st.sampled_from(["1e-9", "0.5", "1e-300", "1e300"]),
              st.sampled_from(["nan", "inf", "-inf", "-0", "0", "x"]))
_SEED = (st.integers(-2, 16).map(str),
         st.one_of(st.integers(-2**70, 2**70).map(str), st.just("x")))
_OUT = (st.just("{dir}/out.json"), st.just("{dir}/nope/out.json"))
# no huge trial count: property-run builds every trial before it solves any
_TRIALS = (st.integers(1, 3).map(str), st.integers(-2, 0).map(str))


# sizes past the parser's limit, so large that numpy fails on them at once,
# without allocating
_HUGE_SIZES = st.integers(10**18, 10**30)


def _sizes(low: int, top: int):
    return (st.integers(low, top).map(str),
            st.one_of(st.integers(-2, low - 1), _HUGE_SIZES).map(str))


def _ranges(top: int):
    pairs = st.tuples(st.integers(-1, top), st.integers(-1, top)).map(lambda p: "%d,%d" % p)
    huge = st.tuples(st.one_of(st.integers(1, top), _HUGE_SIZES), _HUGE_SIZES).map(
        lambda p: "%d,%d" % p)
    return (st.tuples(st.integers(1, top), st.integers(1, top)).map(
                lambda p: "%d,%d" % tuple(sorted(p))),
            st.one_of(pairs, huge, st.sampled_from(["x", "1,2,3", ""])))


def _choice(valid: list, hostile: str = "bogus"):
    return st.sampled_from(valid), st.just(hostile)


_COMMANDS = {
    "gen": {"": _choice(["onb", "doubled-onb", "mercedes", "harmonic", "random-gaussian",
                         "random-parseval"]),
            "dim": _sizes(1, 16), "count": _sizes(1, 64), "seed": _SEED,
            "field": _choice(["real", "complex"]), "out": _OUT},
    "analyze": {"": _FRAME, "mode": _choice(["bounds", "dual", "parsevalize"]),
                "tolerance": _TOLERANCE, "out": _OUT},
    "identity": {"": _FRAME,
                 "variant": _choice(["pfi", "general", "tight", "overlap", "subspace"]),
                 "J": _SUBSET, "E": _SUBSET, "f": _VECTOR, "lambda": _LAMBDA,
                 "ambient-dim": _sizes(1, 16), "parsevalize": None, "tolerance": _TOLERANCE,
                 "seed": _SEED},
    "equiv": {"": _FRAME, "J": _SUBSET, "f": _VECTOR, "parsevalize": None,
              "tolerance": _TOLERANCE, "seed": _SEED},
    "extend": {"": _FRAME, "lambda": _LAMBDA, "mix-seed": _SEED, "tolerance": _TOLERANCE,
               "out": _OUT},
    "property-run": {"suite": _choice(["pfi", "general", "overlap", "bounds", "equivalence",
                                       "sj", "extension", "all"]),
                     "seed": _SEED, "trials": _TRIALS, "dim-range": _ranges(16),
                     "count-range": _ranges(64), "tolerance": _TOLERANCE, "quiet": None,
                     "out": _OUT},
}


_RANDOM_KINDS = ("random-gaussian", "random-parseval")
# the sizes each generator takes; given any other set of sizes, gen stops
# at BadParams before it reads one
_GEN_SIZES = {"onb": {"dim"}, "doubled-onb": {"dim"}, "mercedes": set(),
              "harmonic": {"dim", "count"}, **{kind: {"dim", "count"} for kind in _RANDOM_KINDS}}


def _gen_reads(size: str):
    return lambda given: _GEN_SIZES[given[""]] == {"dim", "count"} & {*given, size}


# The options that a command reads only at some values of the others, each
# with the test of those values, and the defaults that the tests see when
# the option they look at is not given. A hostile value goes only to an
# option that the command reads.
_READ_WHEN = {
    "gen": {"dim": _gen_reads("dim"), "count": _gen_reads("count"),
            "seed": lambda given: given[""] in _RANDOM_KINDS,
            "field": lambda given: given[""] in _RANDOM_KINDS},
    "analyze": {"out": lambda given: given["mode"] != "bounds"},
    "identity": {"E": lambda given: given["variant"] == "overlap",
                 "lambda": lambda given: given["variant"] == "tight",
                 "ambient-dim": lambda given: given["variant"] == "subspace"},
}
_DEFAULTS = {"mode": "bounds", "variant": "pfi"}


@st.composite
def _argv(draw):
    """A command, its positional argument and some of its flags, in any order.
    At most one value is hostile: a command stops at its first bad value, so
    with several the checks after the first would seldom run. That value
    goes to an option that the drawn command reads, such as --ambient-dim
    only with --variant subspace."""
    command = draw(st.sampled_from(sorted(_COMMANDS)))
    options, read_when = _COMMANDS[command], _READ_WHEN.get(command, {})
    given = {name: None if option is None else draw(option[0])
             for name, option in options.items() if name == "" or draw(st.booleans())}
    seen = {**_DEFAULTS, **given}
    hostile = draw(st.sampled_from([None, *(
        name for name in options
        if options[name] and read_when.get(name, lambda _: True)(seen))]))
    if hostile is not None:
        given[hostile] = draw(options[hostile][1])
    argv = [command] + ([given.pop("")] if "" in given else [])
    flags = [[f"--{name}"] + ([] if value is None else [value]) for name, value in given.items()]
    return argv + [arg for flag in draw(st.permutations(flags)) for arg in flag]


@pytest.fixture(scope="module")
def argv_dir(tmp_path_factory):
    work = tmp_path_factory.mktemp("argv")
    write_frame(framecalc.mercedes(), str(work / "merc.json"))
    write_frame(framecalc.random_parseval(4, 6, 1, "complex"), str(work / "p4.json"))
    write_frame(framecalc.random_gaussian(3, 5, 2, "real"), str(work / "g3.json"))
    return work


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(argv=_argv(), vector=_vector_files(), frame=_frame_files())
# a huge range end, which the parser refuses; past the parser, RunConfig's
# stack bound refuses it before numpy sees it
@example(argv=["property-run", "--trials", "1", "--count-range", f"49,{10**18}"],
         vector=b"[1]", frame=b"[]")
# Hypothesis draws some primitives from the literals of the modules already
# imported, so which examples it reaches depends on the tests that ran
# before; this one is reached in every order. Its completion overflows and
# numpy warns: a known defect, left visible on purpose.
@example(argv=["extend", "{dir}/merc.json", "--lambda", "1e300"], vector=b"[1]", frame=b"[]")
# every trial fails, so the exit status is read off a summary, here printed alone
@example(argv=["property-run", "--suite", "bounds", "--trials", "3", "--tolerance", "1e-300",
               "--quiet"], vector=b"[1]", frame=b"[]")
def test_any_argv_prints_one_strict_json_document_or_is_an_argparse_error(argv_dir, argv,
                                                                          vector, frame):
    (argv_dir / "vec.json").write_bytes(vector)
    (argv_dir / "drawn.json").write_bytes(frame)
    argv = [arg.replace("{dir}", str(argv_dir)) for arg in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejected the argv
            assert (exc.code, out.getvalue()) == (2, "")
            return
    doc = json.loads(out.getvalue(), parse_constant=lambda token: pytest.fail(
        f"non-strict {token}"))
    assert code in (0, 1, 2)
    assert (code == 2) <= ("error" in doc)
    if "error" in doc:
        assert code in (1, 2)
    else:
        # under --quiet the document is the summary; a frame document has none
        summary = doc.get("summary", doc)
        assert code == (1 if summary.get("failed", 0) else 0)
    assert "Traceback" not in err.getvalue()
