"""Tests of the benchmark itself: the tail rule, failure counting, and the
traced re-assembly agreeing with the program's own entry points.

    python3 -m pytest perfbench/tests -q
"""

import dataclasses
import json
import subprocess
import sys

import pytest

import run
import workloads
from spans import Tracer, per_layer

BENCH_DIR = run.BENCH_DIR


@pytest.mark.parametrize("pool", [11, 12, 57, 100, 360])
@pytest.mark.parametrize("passes", [1, 2, 3])
def test_tail_leaves_ten_samples_above_per_pass(pool, passes):
    samples = [float(x) + 0.001 * p for p in range(passes) for x in range(pool, 0, -1)]
    value, pct = run.tail(samples, pool)
    assert pct == pytest.approx(100.0 * (pool - 10) / pool)
    assert sum(s > value for s in samples) >= 10 * passes
    assert sum(s > value for s in samples) <= 11 * passes


def test_tail_needs_a_pool_of_more_than_ten():
    with pytest.raises(ValueError):
        run.tail([1.0] * 30, 10)
    with pytest.raises(ValueError):
        run.tail([1.0] * 11, 12)


def _pool(strata, build, seed):
    return workloads.Workload("t", "", strata, 1, build, strata[0]).make_items(seed)


def _report_item(seed, shape=(8, 8, 2), svd=True):
    return _pool([shape], workloads._report_item(svd), seed)[0]


def test_gate_counts_exceptions_wrong_answers_and_changed_repeats():
    a, b = _report_item(1), dataclasses.replace(_report_item(2), id=1)
    items = [a, b]
    good_a, good_b = workloads.run_report(a), workloads.run_report(b)
    wrong_b = dataclasses.replace(good_b, vc_rank=b.rank + 1)
    changed_a = dataclasses.replace(good_a, forster_bound_diff=good_a.forster_bound_diff + 1)

    out = run.Outcome()
    for idx, result in [(0, good_a), (1, good_b), (0, changed_a), (1, wrong_b),
                        (0, RuntimeError("boom"))]:
        out.record(idx, 0.0, 0.01, result)
    failures, canon = run.gate(items, out, workloads)
    assert len(failures) == 3
    assert canon == [good_a.as_dict(), good_b.as_dict()]

    clean = run.Outcome()
    clean.record(0, 0.0, 0.01, good_a)
    clean.record(1, 0.0, 0.01, good_b)
    clean.record(0, 0.0, 0.01, good_a)
    assert run.gate(items, clean, workloads)[0] == []


def test_closed_loop_records_exceptions_and_goes_on():
    def call(item):
        if item == "bad":
            raise ValueError("bad item")
        return item

    out = run.closed_loop(["ok", "bad", "ok"], call, [0, 1, 2, 0, 1], run.Speedometer())
    assert out.index == [0, 1, 2, 0, 1]
    assert [isinstance(o, ValueError) for o in out.outputs] == [False, True, False, False, True]


def test_run_passes_makes_whole_passes():
    out = run.run_passes(list(range(5)), lambda item: item, 0.0, run.Speedometer())
    assert out.index == [0, 1, 2, 3, 4]


SMALL_STRATA = {
    "report": [(8, 8, 2), (9, 10, 3)],
    "om": [("om", 7, 7, 2)],
    "signs": sorted(set(workloads.SIGN_STRATA)),
    "oracle": [("points", 6, 2), ("normals", 6, 2), ("points", 6, 3), ("normals", 6, 3)],
}


def _small_items(seed):
    yield from _pool(SMALL_STRATA["report"], workloads._report_item(True), seed)
    yield _report_item(seed, (10, 9, 3), svd=False)
    yield from _pool(SMALL_STRATA["om"] + SMALL_STRATA["signs"], workloads._completion_item, seed)
    yield from _pool(SMALL_STRATA["oracle"], workloads._oracle_item, seed)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_traced_assembly_equals_program_output(seed):
    tracer = Tracer()
    for item in _small_items(seed):
        kind = workloads.KINDS[item.kind]
        plain = kind.run(item)
        tracer.begin_item(item.id)
        traced = kind.traced(item, tracer)
        tracer.end_item()
        assert kind.check(item, plain) is None
        assert workloads.canonical(item, traced) == workloads.canonical(item, plain)
    table = per_layer(tracer, 1)
    assert table["matrices.calls"] > 0 and table["arrangements.lps"] > 0
    assert table["omatroid.ranks_tried"] > 0
    shares = sum(table[f"{layer}.share"] for layer in ("matrices", "topes", "vc", "spectral",
                                                        "omatroid", "arrangements", "report"))
    assert shares == pytest.approx(1.0)


def test_sign_sets_reach_all_three_outcomes():
    items = workloads.WORKLOADS["completion"].make_items(0)
    outcomes = {workloads.outcome(workloads.run_signs(it)) for it in items if it.kind == "signs"}
    assert outcomes == {"feasible", "missing_support", "c4"}


def test_inputs_depend_only_on_the_seed():
    w = workloads.WORKLOADS["report_small"]
    assert [it.payload for it in w.make_items(5)] == [it.payload for it in w.make_items(5)]
    assert [it.payload for it in w.make_items(5)] != [it.payload for it in w.make_items(6)]


def _bench(cwd, *args):
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", "report_small",
           "--seed", "3", "--seconds", "0.2", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_result_line_and_repeatable_digest(trace):
    first, second = _bench(BENCH_DIR.parent, "--trace", trace), _bench(BENCH_DIR.parent, "--trace", trace)
    assert first.returncode == 0, first.stderr
    result = json.loads(first.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    declared = spec["end_to_end" if trace == "0" else "per_layer"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    details = [json.loads(p.stdout.splitlines()[-2]) for p in (first, second)]
    assert details[0]["digest"] == details[1]["digest"]
    assert details[0]["bound_gap_mean"] == details[1]["bound_gap_mean"]


def test_exits_nonzero_without_the_program(tmp_path):
    copy = tmp_path / "perfbench"
    copy.mkdir()
    for src in BENCH_DIR.glob("*.py"):
        (copy / src.name).write_text(src.read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "report_small",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0 and proc.stdout == ""
