"""Self-tests of the benchmark: python3 -m pytest perfbench"""

from __future__ import annotations

import itertools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import speed
from layers import Tracer, traced
from workloads import (
    WORKLOADS,
    analyze_inputs,
    check_analyze,
    check_search,
    load_reference,
)

cli = run.import_program()
N8 = WORKLOADS["analyze-verify-n8"]


def test_generator_is_deterministic_for_a_fixed_seed():
    ref = load_reference(N8.name)
    first = list(itertools.islice(analyze_inputs(11, ref), 300))
    assert first == list(itertools.islice(analyze_inputs(11, ref), 300))
    assert first != list(itertools.islice(analyze_inputs(12, ref), 300))
    inverse = {c["tag"]: c["inverse"] for c in ref["classes"]}
    for tags in first:
        parts = set(tags.split("+"))
        assert {inverse[t] for t in parts} == parts


def test_generated_inputs_are_valid_connection_sets():
    ref = load_reference(N8.name)
    for tags in itertools.islice(analyze_inputs(3, ref), 20):
        rc, out, _ = run.cli_call(cli.main, [*N8.argv, "--set", tags])
        assert rc == 0, out
        assert check_analyze(N8, ref, tags, rc, out).failed == 0


@pytest.fixture(scope="module")
def n7_search():
    workload = WORKLOADS["search-decide-n7"]
    rc, out, _ = run.cli_call(cli.main, list(workload.argv))
    return workload, load_reference(workload.name), rc, out


def test_checker_accepts_the_seed_output_of_a_search(n7_search):
    workload, ref, rc, out = n7_search
    check = check_search(workload, ref, rc, out)
    assert (check.attempted, check.failed, check.stdout_identical) == (len(ref["sets"]), 0, True)


def test_checker_rejects_one_flipped_clause_in_a_search(n7_search):
    workload, ref, rc, out = n7_search
    doc = json.loads(out)
    pair = doc["pstGraphs"][0]["pstPairs"][0]
    pair["clause"] = "no-pst:valuation"
    assert check_search(workload, ref, rc, json.dumps(doc)).failed == 1
    assert check_search(workload, ref, 4, out).failed == len(ref["sets"])


def test_checker_rejects_one_flipped_clause_in_an_analyze_report():
    ref = load_reference(N8.name)
    tags = next(t for t, e in ref["integral"].items() if e["verdict"]["pairs"])
    rc, out, _ = run.cli_call(cli.main, [*N8.argv, "--set", tags])
    good = check_analyze(N8, ref, tags, rc, out)
    assert (good.failed, good.stdout_identical) == (0, True)
    doc = json.loads(out)
    doc["pstPairs"][0]["clause"] = "no-pst:valuation"
    assert check_analyze(N8, ref, tags, rc, json.dumps(doc)).failed == 1


def test_traced_and_untraced_runs_print_identical_stdout():
    ref = load_reference(N8.name)
    argvs = [["search", "--n", "2", "--verify"], ["search", "--n", "3"]] + [
        [*N8.argv, "--set", t] for t in itertools.islice(analyze_inputs(5, ref), 3)
    ]
    for argv in argvs:
        plain = run.cli_call(cli.main, argv)
        tracer = Tracer()
        with traced(tracer):
            spanned = run.cli_call(tracer.span("cli.main", cli.main), argv)
        assert spanned[:2] == plain[:2]
        # self times partition the outermost span
        total = tracer.span_times()["cli.main"]
        assert abs(sum(tracer.self_times().values()) - total) < 1e-9


def test_traced_wrappers_are_removed_afterwards():
    from v8npst import cyclotomic, pst

    before = (pst.classify_pair, cyclotomic.CycloInt.__add__)
    with traced(Tracer()):
        assert pst.classify_pair is not before[0]
    assert (pst.classify_pair, cyclotomic.CycloInt.__add__) == before


def test_call_times_are_scaled_by_the_reference_runs_around_them():
    ref = speed.REFERENCE_S
    tm = run.Timings(calls=[(False, 1.0, 0), (True, 2.0, 1), (False, 3.0, 1)], loops=[ref, 3 * ref, ref])
    assert tm.scaled(False) == pytest.approx([0.5, 1.5])
    assert tm.scaled(True) == pytest.approx([1.0])
    assert tm.raw(False) == [1.0, 3.0]


def test_benchmark_json_matches_the_metric_catalog():
    doc = json.loads((Path(run.REPO) / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in doc["end_to_end"]} == {
        k: v[:2] for k, v in run.END_TO_END.items()
    }
    assert {m["name"]: (m["unit"], m["better"]) for m in doc["per_layer"]} == {
        k: v[:2] for k, v in run.PER_LAYER.items()
    }


def test_fails_without_the_program(tmp_path):
    shutil.copytree(Path(run.__file__).parent, tmp_path / "perfbench")
    shutil.copy(Path(run.REPO) / "BENCHMARK.json", tmp_path)
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", N8.name, "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert out.stdout == ""
