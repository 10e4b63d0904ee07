import itertools
import json
import math

import numpy as np
import pytest
from click.testing import CliRunner

from monorank import hadamard, parse_matrix, threshold_topes
from monorank.cli import main

from .fixtures import RAD_STRICT, RANK2_CYCLE, RANK3_REJECT, a1_csv, a4_csv


@pytest.fixture
def runner():
    return CliRunner()


def invoke(runner, *args):
    result = runner.invoke(main, list(args), catch_exceptions=False)
    return result


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_analyze_a1(runner, tmp_path):
    path = write(tmp_path, "a1.csv", a1_csv())
    result = invoke(runner, "analyze", path)
    assert result.exit_code == 0
    report = json.loads(result.output)
    assert report["radon_rank"] == 2
    assert report["vc_rank"] == 2
    assert report["om_rank2_feasible"] is True
    assert report["monotone_rank_lower_bound"] == 2


def test_analyze_a4_with_completion(runner, tmp_path):
    path = write(tmp_path, "a4.csv", a4_csv())
    result = invoke(runner, "analyze", path, "--complete", "3")
    assert result.exit_code == 0
    report = json.loads(result.output)
    assert report["radon_rank"] == 2
    assert report["om_completion_rank"] >= 3
    assert report["monotone_rank_lower_bound"] >= 3
    rank3 = [
        a for a in report["om_completion_threshold"]["attempts"] if a["rank"] == 3
    ][0]
    assert rank3["violation"] == {
        "axiom": "C4",
        "x": "+--0-",
        "y": "-+0-+",
        "element": 5,
    }


def test_analyze_bound_consistency_invariant(runner, tmp_path):
    path = write(tmp_path, "a4.csv", a4_csv())
    result = invoke(runner, "analyze", path, "--complete", "3", "--svd", "--topes")
    report = json.loads(result.output)
    expected = max(
        report["radon_rank"],
        report["vc_rank"],
        math.ceil(report["forster_bound_diff"] - 1e-6),
        math.ceil(report["forster_bound_thresh"] - 1e-6) - 1,
        report["om_completion_rank"],
    )
    assert report["monotone_rank_lower_bound"] == expected
    assert "singular_values" in report and "threshold_topes" in report


def test_analyze_byte_deterministic(runner, tmp_path):
    path = write(tmp_path, "a1.csv", a1_csv())
    first = invoke(runner, "analyze", path, "--svd", "--topes")
    second = invoke(runner, "analyze", path, "--svd", "--topes")
    assert first.output == second.output


def test_analyze_format_error_exit_2(runner, tmp_path):
    path = write(tmp_path, "bad.csv", "1,2\n3\n")
    result = runner.invoke(main, ["analyze", path])
    assert result.exit_code == 2
    err = json.loads(result.stderr)
    assert err["error"]["kind"] == "FormatError"


def test_analyze_genericity_exit_3(runner, tmp_path):
    path = write(tmp_path, "tied.csv", "1,1\n1,2\n")
    result = runner.invoke(main, ["analyze", path])
    assert result.exit_code == 3
    err = json.loads(result.stderr)
    assert err["error"]["kind"] == "GenericityError"
    assert err["error"]["ties"] == [[1, 1, 2]]


def test_analyze_perturb_ties(runner, tmp_path):
    path = write(tmp_path, "tied.csv", "1,1\n1,2\n")
    result = invoke(runner, "analyze", path, "--perturb-ties")
    assert result.exit_code == 0
    assert json.loads(result.output)["perturbed_ties"] is True


def test_analyze_perturb_ties_at_tolerance(runner, tmp_path):
    path = write(tmp_path, "near.csv", "1,3\n1.05,2\n2,1\n")
    assert runner.invoke(main, ["analyze", path, "--tol", "0.1"]).exit_code == 3
    result = invoke(runner, "analyze", path, "--tol", "0.1", "--perturb-ties")
    assert result.exit_code == 0
    assert json.loads(result.output)["perturbed_ties"] is True


def test_generate_deterministic_and_analyzable(runner, tmp_path):
    out1 = tmp_path / "m1.csv"
    out2 = tmp_path / "m2.csv"
    for out in (out1, out2):
        result = invoke(
            runner, "generate", "4", "3", "2", "--seed", "7", "-o", str(out)
        )
        assert result.exit_code == 0
    assert out1.read_bytes() == out2.read_bytes()
    analysis = json.loads(invoke(runner, "analyze", str(out1)).output)
    assert analysis["radon_rank"] <= 2
    assert analysis["vc_rank"] <= 2
    assert analysis["monotone_rank_lower_bound"] <= 2


def test_generate_identity_distortion(runner, tmp_path):
    out = tmp_path / "m.csv"
    prov = tmp_path / "prov.json"
    invoke(
        runner, "generate", "4", "3", "2", "--seed", "3",
        "--distortion", "identity", "-o", str(out), "--provenance", str(prov),
    )
    matrix = parse_matrix(out.read_text())
    meta = json.loads(prov.read_text())
    points = np.array([[float(x) for x in row] for row in meta["points"]])
    normals = np.array([[float(x) for x in row] for row in meta["normals"]])
    assert np.allclose(matrix, points @ normals.T)
    assert meta["seed"] == 3
    assert all(d["kind"] == "identity" for d in meta["distortions"])


def test_hadamard_command(runner):
    result = invoke(runner, "hadamard", "3")
    rows = [
        [int(tok) for tok in line.split(",")]
        for line in result.output.strip().splitlines()
    ]
    h = np.array(rows)
    assert h.shape == (8, 8)
    assert set(np.unique(h)) == {-1, 1}
    assert np.array_equal(h @ h.T, 8 * np.eye(8, dtype=int))


def test_hadamard_guard_exit_4(runner):
    result = runner.invoke(main, ["hadamard", "22"])
    assert result.exit_code == 4


def test_hadamard_output_file(runner, tmp_path):
    out = tmp_path / "h.csv"
    result = invoke(runner, "hadamard", "2", "-o", str(out))
    assert result.exit_code == 0 and result.output == ""
    assert np.array_equal(parse_matrix(out.read_text()), hadamard(2))


def test_analyze_negative_tolerance_is_a_usage_error(runner, tmp_path):
    path = write(tmp_path, "a1.csv", a1_csv())
    result = runner.invoke(main, ["analyze", path, "--tol", "-1"])
    assert result.exit_code == 2
    assert "--tol" in result.stderr


def test_isrank2_command(runner, tmp_path):
    path = write(tmp_path, "s.txt", "\n".join(RANK3_REJECT.strings()) + "\n")
    result = invoke(runner, "isrank2", path)
    assert json.loads(result.output) == {"rank2": False}
    path2 = write(tmp_path, "s7.txt", "\n".join(RANK2_CYCLE.strings()) + "\n")
    assert json.loads(invoke(runner, "isrank2", path2).output) == {"rank2": True}


def test_complete_command_feasible(runner, tmp_path):
    path = write(tmp_path, "s7.txt", "\n".join(RANK2_CYCLE.strings()) + "\n")
    result = invoke(runner, "complete", path, "2")
    payload = json.loads(result.output)
    assert payload["feasible"] is True
    assert payload["witness"]


def test_complete_command_infeasible(runner, tmp_path):
    path = write(tmp_path, "s52.txt", "\n".join(RANK3_REJECT.strings()) + "\n")
    payload = json.loads(invoke(runner, "complete", path, "2").output)
    assert payload["feasible"] is False


def test_complete_command_missing_support(runner, tmp_path):
    cube = ["".join(s) for s in itertools.product("+-", repeat=3)]
    path = write(tmp_path, "cube.txt", "\n".join(cube) + "\n")
    payload = json.loads(invoke(runner, "complete", path, "2").output)
    assert payload["feasible"] is False
    assert payload["missing_support"] == [1, 2, 3]
    assert "violation" not in payload and "witness" not in payload


def test_complete_command_reports_nodes(runner, tmp_path):
    path = write(tmp_path, "s7.txt", "\n".join(RANK2_CYCLE.strings()) + "\n")
    payload = json.loads(invoke(runner, "complete", path, "2").output)
    assert payload["nodes"] == 1
    path = write(tmp_path, "a4.txt", "\n".join(threshold_topes(RAD_STRICT).strings()) + "\n")
    payload = json.loads(invoke(runner, "complete", path, "3").output)
    assert payload["feasible"] is False and payload["nodes"] == 3


def test_analyze_report_has_no_node_counts(runner, tmp_path):
    path = write(tmp_path, "a4.csv", a4_csv())
    text = invoke(runner, "analyze", path, "--complete", "3").output
    assert "nodes" not in text


def test_encode_command_json_report(runner, tmp_path):
    h1 = np.array([[1, 1], [1, -1]])
    lines = []
    for row in np.vstack([h1, -h1]):
        lines.append("".join("+" if x > 0 else "-" for x in row))
    path = write(tmp_path, "h1.txt", "\n".join(lines) + "\n")
    out = tmp_path / "enc.csv"
    result = invoke(runner, "encode", path, "--json", "-o", str(out))
    payload = json.loads(result.output)
    assert payload["forster_bound_signs"] == pytest.approx(math.sqrt(2), rel=1e-9)
    assert payload["monotone_rank_lower_bound"] == 1
    matrix = parse_matrix(out.read_text())
    assert matrix.shape == (2, 4)


def test_encode_output_file_without_json(runner, tmp_path):
    path = write(tmp_path, "s.txt", "++-\n--+\n")
    out = tmp_path / "enc.csv"
    result = invoke(runner, "encode", path, "-o", str(out))
    assert result.exit_code == 0 and result.output == ""
    topes = threshold_topes(parse_matrix(out.read_text()))
    assert {"++-", "--+"} <= set(topes.strings())


def test_generate_to_stdout(runner, tmp_path):
    result = invoke(runner, "generate", "4", "3", "2", "--seed", "7")
    out = tmp_path / "m.csv"
    invoke(runner, "generate", "4", "3", "2", "--seed", "7", "-o", str(out))
    assert result.exit_code == 0
    assert result.output == out.read_text()
    assert parse_matrix(result.output).shape == (4, 3)


def test_sweep_command_text_format(runner, tmp_path):
    path = write(tmp_path, "pts.csv", "0,0\n2,0.3\n0.7,1.9\n")
    result = invoke(runner, "sweep", path)
    perms = [tuple(int(t) for t in line.split()) for line in result.output.strip().splitlines()]
    assert len(perms) == 6
    payload = json.loads(invoke(runner, "sweep", path, "--json").output)
    assert payload["length"] == 6 and payload["simple"] is True


def test_guard_env_override(runner, tmp_path, monkeypatch):
    vectors = "\n".join("".join(s) for s in ["+" * 11, "-" * 11]) + "\n"
    path = write(tmp_path, "wide.txt", vectors)
    result = runner.invoke(main, ["complete", path, "1"])
    assert result.exit_code == 4
    monkeypatch.setenv("MONORANK_MAX_GROUND", "12")
    result = runner.invoke(main, ["complete", path, "1"])
    assert result.exit_code == 0
    assert json.loads(result.output)["feasible"] is True


def test_guard_env_override_not_an_integer(runner, tmp_path, monkeypatch):
    path = write(tmp_path, "s7.txt", "\n".join(RANK2_CYCLE.strings()) + "\n")
    monkeypatch.setenv("MONORANK_MAX_GROUND", "ten")
    result = runner.invoke(main, ["complete", path, "2"])
    assert result.exit_code == 2
    err = json.loads(result.stderr)["error"]
    assert err["kind"] == "FormatError"
    assert "MONORANK_MAX_GROUND" in err["message"] and "'ten'" in err["message"]
