"""Command behavior through the console entry point."""

import json

import numpy as np
import pytest

from framecalc import Frame, read_frame, write_frame
from framecalc.cli import main

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
    for spec in ("zebra", "3-1", "0,0", "random:9"):
        code, out = run_cli(
            capsys, "identity", mercedes_file, "--J", spec, "--f", "1,0"
        )
        assert code == 2, spec
        assert json.loads(out)["error"]["type"] == "BadParams"


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
    assert result["union_tight"]
    assert result["compare"]["passed"]
    added = read_frame(out_path)
    np.testing.assert_allclose(np.abs(added.vectors), [[0.0, 1.0]], atol=1e-12)


def test_extend_explicit_lambda(capsys, pair_file):
    code, out = run_cli(capsys, "extend", pair_file, "--lambda", "3")
    assert code == 0
    result = json.loads(out)["results"][0]
    assert result["added_count"] == 2
    assert result["union_tight"]


def test_extend_small_lambda_is_domain_error(capsys, pair_file):
    code, out = run_cli(capsys, "extend", pair_file, "--lambda", "1.5")
    assert code == 1
    assert json.loads(out)["error"]["type"] == "LambdaTooSmall"


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
