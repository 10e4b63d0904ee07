import itertools
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import monorank
from monorank import MonotoneDistortion, hadamard, parse_matrix, threshold_topes
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


def test_generate_provenance_of_random_distortions(runner, tmp_path):
    out = tmp_path / "m.csv"
    prov = tmp_path / "prov.json"
    invoke(
        runner, "generate", "6", "5", "2", "--seed", "3",
        "-o", str(out), "--provenance", str(prov),
    )
    matrix = parse_matrix(out.read_text())
    meta = json.loads(prov.read_text())
    points = np.array([[float(x) for x in row] for row in meta["points"]])
    normals = np.array([[float(x) for x in row] for row in meta["normals"]])
    kinds = [d["kind"] for d in meta["distortions"]]
    assert {"exp-scale", "power-odd", "piecewise-linear"} <= set(kinds)
    builders = {
        "identity": MonotoneDistortion.identity,
        "exp-scale": MonotoneDistortion.exp_scale,
        "power-odd": MonotoneDistortion.power_odd,
        "piecewise-linear": MonotoneDistortion.piecewise_linear,
    }
    raw = points @ normals.T
    for j, d in enumerate(meta["distortions"]):
        if d["kind"] == "piecewise-linear":
            breakpoints, values = d["params"]
            assert type(breakpoints) is list and type(values) is list
        f = builders[d["kind"]](*d["params"])
        assert np.allclose(matrix[:, j], f(raw[:, j]))


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


def test_analyze_negative_tolerance_is_a_json_error(runner, tmp_path):
    # the library's tolerance check is the only one, as for nan and inf
    path = write(tmp_path, "a1.csv", a1_csv())
    result = runner.invoke(main, ["analyze", path, "--tol", "-1"])
    assert result.exit_code == 2 and result.stdout == ""
    assert json.loads(result.stderr)["error"] == {
        "kind": "DomainError",
        "message": "tolerance must be a finite number >= 0, got -1.0",
    }


def test_analyze_tolerance_that_is_not_a_number_is_a_usage_error(runner, tmp_path):
    # parsing the option is click's job, not a library rule
    path = write(tmp_path, "a1.csv", a1_csv())
    result = runner.invoke(main, ["analyze", path, "--tol", "abc"])
    assert result.exit_code == 2 and result.stdout == ""
    assert "Invalid value for '--tol'" in result.stderr


@pytest.mark.parametrize(
    "args",
    [
        ["--tol", "nan"],
        ["--tol", "inf"],
        ["--perturb-ties", "--tol", "inf"],
        ["--perturb-ties", "--tol", "1e308"],
    ],
)
def test_analyze_tolerance_must_be_finite(tmp_path, args):
    # in a subprocess with a timeout: an infinite tolerance used to make
    # --perturb-ties loop forever, and a NaN one to pass an exact tie
    path = write(tmp_path, "tie.csv", "1,1\n1,2\n1e308,3\n")
    src = str(Path(monorank.__file__).parent.parent)
    out = subprocess.run(
        [sys.executable, "-m", "monorank.cli", "analyze", path, *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=60,
    )
    assert out.returncode == 2 and out.stdout == ""
    assert json.loads(out.stderr)["error"]["kind"] == "DomainError"


def test_analyze_perturb_ties_does_not_crawl(tmp_path):
    # one-float steps needed about 4.3e9 of them for this tie; in a
    # subprocess with a timeout, so that such a walk fails the test
    path = write(tmp_path, "far.csv", "-1e6\n-1e6\n")
    src = str(Path(monorank.__file__).parent.parent)
    out = subprocess.run(
        [sys.executable, "-m", "monorank.cli", "analyze", path,
         "--perturb-ties", "--tol", "999999.9999"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=60,
    )
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout)["perturbed_ties"] is True


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


@pytest.mark.parametrize(
    "args, files, kind, message, code",
    [
        (["analyze", "{}"], "1,2\n3,nan\n", "FormatError", "row 2, column 2: non-finite entry", 2),
        (["generate", "0", "3", "2", "--seed", "3"], None, "DomainError",
         "m, n, d must all be at least 1", 2),
        (["generate", "3", "3", "2", "--seed", "-1"], None, "DomainError",
         "seed must be an integer >= 0, got -1", 2),
        (["hadamard", "22"], None, "ResourceLimitError", "hadamard order 22 exceeds guard 12", 4),
        (["encode", "{}"], "+0\n-+\n", "DomainError",
         "encoding requires zero-free vectors, got +0", 2),
        (["isrank2", "{}"], "++q\n", "FormatError", "line 1: invalid sign character 'q'", 2),
        (["complete", "{}", "1"], "+++++++++++\n-----------\n", "ResourceLimitError",
         "ground set size 11 exceeds completion guard 10", 4),
        (["sweep", "{}"], "0,0,1\n1,2,3\n", "DomainError",
         "sweeps are defined for planar arrangements", 2),
    ],
    ids=["analyze", "generate", "generate-seed", "hadamard", "encode", "isrank2", "complete",
         "sweep"],
)
def test_every_subcommand_reports_errors_as_json(
    runner, tmp_path, monkeypatch, args, files, kind, message, code
):
    monkeypatch.delenv("MONORANK_MAX_GROUND", raising=False)
    if files is not None:
        args = [a.format(write(tmp_path, "input", files)) for a in args]
    result = runner.invoke(main, args)
    assert result.exit_code == code
    assert result.stdout == ""
    error = {"kind": kind, "message": message}
    assert result.stderr == json.dumps({"error": error}, indent=2) + "\n"


def test_genericity_error_lists_ties_after_the_message(runner, tmp_path):
    result = runner.invoke(main, ["analyze", write(tmp_path, "tied.csv", "1,1\n1,2\n")])
    assert result.exit_code == 3 and result.stdout == ""
    error = {"kind": "GenericityError", "message": "tied entries: column 1 rows {1,2}",
             "ties": [[1, 1, 2]]}
    assert result.stderr == json.dumps({"error": error}, indent=2) + "\n"


# Texts the commands print on these inputs; comparing text rather than
# parsed JSON also fixes the order of the keys.
COMPLETE_FEASIBLE = """{
  "rank": 2,
  "feasible": true,
  "witness": [
    "+--",
    "-++"
  ],
  "nodes": 1
}
"""

COMPLETE_C4 = """{
  "rank": 2,
  "feasible": false,
  "violation": {
    "axiom": "C4",
    "x": "+--0",
    "y": "-0+-",
    "element": 3
  },
  "nodes": 3
}
"""

COMPLETE_MISSING_SUPPORT = """{
  "rank": 2,
  "feasible": false,
  "missing_support": [
    1,
    2,
    3
  ],
  "nodes": 0
}
"""


@pytest.mark.parametrize(
    "vectors, expected",
    [
        (RANK2_CYCLE.strings(), COMPLETE_FEASIBLE),
        (RANK3_REJECT.strings(), COMPLETE_C4),
        (["".join(s) for s in itertools.product("+-", repeat=3)], COMPLETE_MISSING_SUPPORT),
    ],
    ids=["feasible", "c4", "missing-support"],
)
def test_complete_output_text(runner, tmp_path, vectors, expected):
    path = write(tmp_path, "s.txt", "\n".join(vectors) + "\n")
    assert invoke(runner, "complete", path, "2").stdout == expected


def test_analyze_with_completion_output_text(runner, tmp_path):
    def attempt(rank, **outcome):
        return {"rank": rank, "feasible": not outcome, **outcome}

    c4 = {"axiom": "C4", "x": "+--0-", "y": "-+0-+", "element": 5}
    expected = {
        "shape": [5, 5],
        "generic": True,
        "perturbed_ties": False,
        "radon_rank": 2,
        "vc_rank": 3,
        "forster_bound_thresh": 1.8414886848750625,
        "forster_bound_diff": 1.5811388300841893,
        "om_rank2_feasible": False,
        "monotone_rank_lower_bound": 3,
        "om_completion_rank": 3,
        "om_completion_exceeds_d_max": False,
        "om_completion_threshold": {
            "rank_bound": 4,
            "exceeds_d_max": False,
            "attempts": [
                attempt(1, missing_support=[1, 2]),
                attempt(2, missing_support=[1, 2, 3]),
                attempt(3, violation=c4),
                attempt(4),
            ],
        },
        "om_completion_difference": {
            "rank_bound": 3,
            "exceeds_d_max": False,
            "attempts": [
                attempt(1, missing_support=[1, 3]),
                attempt(2, missing_support=[1, 3, 4]),
                attempt(3),
            ],
        },
    }
    path = write(tmp_path, "a4.csv", a4_csv())
    text = invoke(runner, "analyze", path, "--complete", "3").stdout
    # the dict above is in output order, so the texts agree only if the
    # keys come out in the same order
    assert text == json.dumps(expected, indent=2) + "\n"


@pytest.mark.parametrize(
    "args",
    [["analyze", "{}"], ["encode", "{}"], ["isrank2", "{}"], ["complete", "{}", "2"],
     ["sweep", "{}"]],
    ids=["analyze", "encode", "isrank2", "complete", "sweep"],
)
def test_input_that_is_not_utf8_is_a_format_error(runner, tmp_path, args):
    path = tmp_path / "input"
    path.write_bytes(b"\xff1,2\n3,4\n")
    result = runner.invoke(main, [a.format(path) for a in args])
    assert result.exit_code == 2 and result.stdout == ""
    error = json.loads(result.stderr)["error"]
    assert error == {
        "kind": "FormatError",
        "message": f"{path}: not UTF-8 at byte 0 (invalid start byte)",
    }


@pytest.mark.parametrize(
    "args, text",
    [
        (["analyze", "{}", "--topes"], "1,2\n3,5\n2,4\n"),
        (["encode", "{}", "--json"], "++-\n--+\n+-+\n"),
        (["isrank2", "{}"], "++-\n--+\n"),
        (["complete", "{}", "2"], "++-+\n--+-\n+-++\n-+--\n"),
        (["sweep", "{}"], "0,0\n1,0\n0,1\n"),
    ],
    ids=["analyze", "encode", "isrank2", "complete", "sweep"],
)
def test_leading_byte_order_mark_is_ignored(runner, tmp_path, args, text):
    outputs = []
    for name, data in (("plain", text.encode()), ("bom", b"\xef\xbb\xbf" + text.encode())):
        path = tmp_path / name
        path.write_bytes(data)
        result = runner.invoke(main, [a.format(path) for a in args])
        assert result.exit_code == 0 and result.stderr == ""
        outputs.append(result.stdout_bytes)
    assert outputs[0] == outputs[1] and outputs[0]


def test_undecodable_byte_after_a_byte_order_mark_is_named_at_its_file_offset(runner, tmp_path):
    path = tmp_path / "input"
    path.write_bytes(b"\xef\xbb\xbf1,\xff")
    result = runner.invoke(main, ["analyze", str(path)])
    assert result.exit_code == 2 and result.stdout == ""
    assert json.loads(result.stderr)["error"]["message"] == (
        f"{path}: not UTF-8 at byte 5 (invalid start byte)"
    )


@pytest.mark.parametrize(
    "args",
    [
        ["generate", "4", "3", "2", "--seed", "1", "-o", "{}"],
        ["generate", "4", "3", "2", "--seed", "1", "--provenance", "{}"],
        ["hadamard", "2", "-o", "{}"],
        ["encode", "{signs}", "-o", "{}"],
        ["encode", "{signs}", "--json", "-o", "{}"],
    ],
    ids=["generate-o", "generate-provenance", "hadamard-o", "encode-o", "encode-json-o"],
)
@pytest.mark.parametrize(
    "target, kind",
    [("missing_dir/out", "FileNotFoundError"), (".", "IsADirectoryError")],
    ids=["missing-dir", "directory"],
)
def test_output_that_cannot_be_written_is_a_json_error(runner, tmp_path, args, target, kind):
    signs_file = write(tmp_path, "s.txt", "++-\n--+\n")
    out = tmp_path / target
    result = runner.invoke(main, [a.format(out, signs=signs_file) for a in args])
    assert result.exit_code == 2 and result.stdout == ""
    error = json.loads(result.stderr)["error"]
    assert error["kind"] == kind
    assert str(out) in error["message"]


INPUT_COMMANDS = {
    "analyze": ["analyze", "{}"],
    "encode": ["encode", "{}"],
    "isrank2": ["isrank2", "{}"],
    "complete": ["complete", "{}", "2"],
    "sweep": ["sweep", "{}"],
}


@pytest.mark.parametrize("command", INPUT_COMMANDS)
@pytest.mark.parametrize(
    "target, kind",
    [("missing.csv", "FileNotFoundError"), (".", "IsADirectoryError")],
    ids=["missing", "directory"],
)
def test_missing_or_directory_input_is_a_json_error(runner, tmp_path, command, target, kind):
    path = tmp_path / target
    result = runner.invoke(main, [a.format(path) for a in INPUT_COMMANDS[command]])
    assert result.exit_code == 2 and result.stdout == ""
    error = json.loads(result.stderr)["error"]
    assert error["kind"] == kind and str(path) in error["message"]


@pytest.mark.parametrize(
    "args, text",
    [
        (["analyze", "{}"], "1,2\n3,4\n"),
        (["encode", "{}"], "++-\n--+\n"),
        (["isrank2", "{}"], "++-\n--+\n"),
        (["complete", "{}", "2"], "++-\n--+\n"),
        (["sweep", "{}"], "0,0\n1,0\n0,1\n"),
    ],
    ids=["analyze", "encode", "isrank2", "complete", "sweep"],
)
def test_input_that_cannot_be_read_is_a_json_error(runner, tmp_path, monkeypatch, args, text):
    # the process may read any file it can stat (tests can run as root), so
    # the refusal is simulated where the CLI reads
    path = write(tmp_path, "input", text)

    def refuse(self, *args, **kwargs):
        raise PermissionError(13, "Permission denied", str(self))

    monkeypatch.setattr(Path, "read_text", refuse)
    result = runner.invoke(main, [a.format(path) for a in args])
    assert result.exit_code == 2 and result.stdout == ""
    error = json.loads(result.stderr)["error"]
    assert error == {"kind": "PermissionError", "message": f"[Errno 13] Permission denied: {path!r}"}
