"""Command-line interface: reports, determinism, exit codes."""

import contextlib
import functools
import hashlib
import io
import json
import math
import os
import random
import shlex
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from v8npst import characters, cli, group, oracle, spectrum
from v8npst.group import (
    GroupParams,
    class_masks,
    class_tags,
    conjugacy_classes,
    element_str,
    enumerate_connection_sets,
)

from spectrum_reference import rows


def run_cli(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, out


def full_set_spec(n):
    """'+'-joined tags of every non-identity class."""
    p = GroupParams(n)
    return "+".join(c.tag for c in conjugacy_classes(p) if c.tag != "1")


def test_analyze_k8(capsys):
    code, out = run_cli(capsys, ["analyze", "--n", "1", "--set", full_set_spec(1)])
    assert code == 0
    doc = json.loads(out)
    assert doc["n"] == 1 and doc["parity"] == "odd"
    assert doc["spectrum"][0] == {
        "label": "alpha_1",
        "value": 7,
        "multiplicity": 1,
        "integer": True,
    }
    values = sorted(e["value"] for e in doc["spectrum"])
    assert values == [-1, -1, -1, -1, 7]
    assert doc["integral"] is True
    assert doc["types"] is None
    assert doc["pstPairs"] == []
    assert doc["oracle"] == {"checked": False, "maxDeviation": None}


def test_analyze_deterministic_output(capsys):
    argv = ["analyze", "--n", "2", "--set", full_set_spec(2)]
    _, first = run_cli(capsys, argv)
    _, second = run_cli(capsys, argv)
    assert first == second


def test_analyze_round_trip(capsys):
    code, out = run_cli(capsys, ["analyze", "--n", "2", "--set", full_set_spec(2)])
    assert code == 0
    doc = json.loads(out)
    assert json.loads(json.dumps(doc)) == doc


def test_analyze_transfer_graph_with_verify(capsys):
    # n=1, everything but b^2
    code, out = run_cli(capsys, ["analyze", "--n", "1", "--set", "a+b+a*b", "--verify"])
    assert code == 0
    doc = json.loads(out)
    assert [(p["u"], p["v"]) for p in doc["pstPairs"]] == [(0, 4), (1, 5), (2, 6), (3, 7)]
    assert all(p["minTimeOverPi"] == 0.5 for p in doc["pstPairs"])
    assert doc["oracle"]["checked"] is True
    assert doc["oracle"]["maxDeviation"] < 1e-9


def test_analyze_explicit_element_list(capsys):
    code, out = run_cli(
        capsys, ["analyze", "--n", "1", "--set", "a,a*b^2,b,b^3,a*b,a*b^3"]
    )
    assert code == 0
    assert json.loads(out)["connectionSet"]["size"] == 6


def test_analyze_explicit_list_never_autosymmetrises(capsys):
    code, out = run_cli(capsys, ["analyze", "--n", "2", "--set", "b,a^2*b^3"])
    doc = json.loads(out)
    assert code == 2 and doc["error"]["code"] == "NotSymmetric"


def test_analyze_invalid_set_exit_2(capsys):
    code, out = run_cli(capsys, ["analyze", "--n", "1", "--set", "b^2"])
    doc = json.loads(out)
    assert code == 2
    assert doc["error"]["code"] == "NotGenerating"


def test_analyze_alpha1_lists_degree_first(capsys):
    code, out = run_cli(capsys, ["analyze", "--n", "3", "--set", full_set_spec(3)])
    doc = json.loads(out)
    assert doc["spectrum"][0]["label"] == "alpha_1"
    assert doc["spectrum"][0]["value"] == doc["connectionSet"]["size"]


def usage_error(capsys, argv) -> dict:
    """The error document of a usage error; the usage line goes to stderr."""
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("usage: v8npst")
    doc = json.loads(captured.out)
    assert list(doc) == ["error"] and doc["error"]["code"] == "UsageError"
    return doc["error"]


def test_search_usage_error_exit_1(capsys):
    error = usage_error(capsys, ["search", "--n", "0"])
    assert error["message"] == "argument --n: expected a positive integer, got 0"


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["search", "--help"])
    assert exc.value.code == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("usage: v8npst search")


def test_search_above_bound_is_error_document(capsys):
    code, out = run_cli(capsys, ["search", "--n", "9"])
    assert code == 1
    assert json.loads(out) == {
        "error": {"code": "BoundExceeded", "message": "n=9 above the search bound 8"}
    }


class Built(Exception):
    """A per-n table, or the group itself, was about to be built."""


@pytest.fixture
def no_tables(fresh_class_map):
    """The group and the per-n table builders raise `Built`."""

    def no_table(*args):
        raise Built

    fresh_class_map.setattr(group, "conjugacy_classes", no_table)
    fresh_class_map.setattr(characters, "character_table", no_table)
    fresh_class_map.setattr(cli, "GroupParams", no_table)


@pytest.mark.parametrize("command", ["analyze", "probe"])
def test_graph_commands_above_bound_build_no_table(capsys, no_tables, command):
    """Above MAX_GRAPH_N, analyze and probe print a BoundExceeded document
    before any per-n table, or the group itself, is built; at the bound the
    check lets the command through to the group."""
    tail = ["--set", "b^2"] + (["--u", "0", "--v", "1"] if command == "probe" else ["--verify"])
    for n in (cli.MAX_GRAPH_N + 1, 100_000):
        code, out = run_cli(capsys, [command, "--n", str(n)] + tail)
        assert code == 1
        assert json.loads(out) == {
            "error": {
                "code": "BoundExceeded",
                "message": f"n={n} above the {command} bound {cli.MAX_GRAPH_N}",
            }
        }
    with pytest.raises(Built):
        cli.main([command, "--n", str(cli.MAX_GRAPH_N)] + tail)


def test_probe_grid_above_bound_builds_no_table(capsys, no_tables):
    """Above MAX_GRID, probe prints a BoundExceeded document before the group,
    any per-n table or the phase table is built; at the bound it goes on."""
    argv = ["probe", "--n", "1", "--set", "a+b+a*b", "--u", "0", "--v", "4", "--grid"]
    for grid in (cli.MAX_GRID + 1, 10**9):
        code, out = run_cli(capsys, argv + [str(grid)])
        assert code == 1
        assert json.loads(out) == {
            "error": {
                "code": "BoundExceeded",
                "message": f"grid={grid} above the probe grid bound {cli.MAX_GRID}",
            }
        }
    with pytest.raises(Built):
        cli.main(argv + [str(cli.MAX_GRID)])


def test_parser_is_built_once_and_survives_a_usage_error(capsys):
    assert cli.build_parser() is cli.build_parser()
    argv = ["analyze", "--n", "1", "--set", "a+b+a*b", "--verify"]
    usage_error(capsys, ["analyze", "--n", "0", "--set", "a", "--verify"])
    code, after_error = run_cli(capsys, argv)
    cli.build_parser.cache_clear()
    fresh_code, fresh = run_cli(capsys, argv)
    assert (code, after_error) == (fresh_code, fresh) == (0, fresh)


# Messages of the usage errors as the parser that parsed every argv at the
# top level printed them; the stdout is compared in full, byte for byte.
# Only the usage line on stderr may change: it names the subcommand when
# the subcommand's parser raised the error.
RECORDED_USAGE_ERRORS = [
    ([], "the following arguments are required: command"),
    (["frobnicate"], "argument command: invalid choice: 'frobnicate' (choose from 'analyze', 'search', 'probe')"),
    (["frobnicate", "--n", "2"], "argument command: invalid choice: 'frobnicate' (choose from 'analyze', 'search', 'probe')"),
    (["--n", "2", "search"], "argument command: invalid choice: '2' (choose from 'analyze', 'search', 'probe')"),
    (["Search", "--n", "2"], "argument command: invalid choice: 'Search' (choose from 'analyze', 'search', 'probe')"),
    (["analyse", "--n", "2", "--set", "b"], "argument command: invalid choice: 'analyse' (choose from 'analyze', 'search', 'probe')"),
    (["search", "--n", "0"], "argument --n: expected a positive integer, got 0"),
    (["search", "--n", "x"], "argument --n: invalid positive_int value: 'x'"),
    (["search"], "the following arguments are required: --n"),
    (["search", "--n"], "argument --n: expected one argument"),
    (["search", "--n", "2", "--max-classes", "0"], "argument --max-classes: expected a positive integer, got 0"),
    (["search", "--n", "2", "--workers", "4"], "unrecognized arguments: --workers 4"),
    (["search", "--n", "9", "--max-n", "9"], "unrecognized arguments: --max-n 9"),
    (["analyze", "--n", "0", "--set", "a", "--verify"], "argument --n: expected a positive integer, got 0"),
    (["analyze", "--n", "2"], "the following arguments are required: --set"),
    (["analyze", "--set", "b"], "the following arguments are required: --n"),
    (["analyze", "--n", "2", "--set", "b", "extra"], "unrecognized arguments: extra"),
    (["probe", "--n", "1", "--set", "b", "--u", "0"], "the following arguments are required: --v"),
    (["probe", "--n", "1", "--set", "b", "--u", "x", "--v", "1"], "argument --u: invalid int value: 'x'"),
    (["probe", "--n", "1", "--set", "b", "--u", "0", "--v", "1", "--grid", "0"], "argument --grid: expected a positive integer, got 0"),
]


@pytest.mark.parametrize("argv, message", RECORDED_USAGE_ERRORS)
def test_usage_error_stdout_is_byte_identical_to_recorded(capsys, argv, message):
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == json.dumps(
        {"error": {"code": "UsageError", "message": message}}, indent=2
    ) + "\n"
    command = argv[0] if argv and argv[0] in ("analyze", "search", "probe") else None
    usage = f"usage: v8npst {command} [-h]" if command else "usage: v8npst [-h] {analyze,search,probe}"
    assert captured.err.startswith(usage)


def test_subcommand_is_parsed_by_its_own_parser(capsys, monkeypatch):
    parser = cli.build_parser()
    monkeypatch.setattr(parser, "parse_args", lambda *args: pytest.fail("top-level parse"))
    code, out = run_cli(capsys, ["analyze", "--n", "1", "--set", "a+b+a*b"])
    assert code == 0 and json.loads(out)["n"] == 1
    monkeypatch.undo()
    with pytest.raises(SystemExit) as exc:  # -h stays with the top level
        cli.main(["-h"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: v8npst [-h] {analyze,search,probe}")


def test_search_n1_deterministic_summary(capsys):
    code, first = run_cli(capsys, ["search", "--n", "1"])
    assert code == 0
    _, second = run_cli(capsys, ["search", "--n", "1"])
    assert first == second
    doc = json.loads(first)
    assert doc["totalSets"] == 8
    assert doc["integralCount"] == 8
    assert doc["pstCount"] == 4
    assert doc["disagreements"] == 0
    assert len(doc["sets"]) == 8 and len(doc["pstGraphs"]) == 4


@pytest.mark.parametrize(
    "argv,digest",
    [
        (
            ["search", "--n", "5", "--verify"],
            "1ba1088b51513850c4d15083dbe0e4a88547631f036d91cc6ddab3251d96e24d",
        ),
        (
            ["search", "--n", "7"],
            "941b255ad1d5018cb20ef931082d0a47e72de549838b10918bc2862d3e4c6236",
        ),
        (
            ["search", "--n", "6", "--verify"],
            "8934e016221c22e9d863db61a44eff347a78f2fced5654a2970c2206c24fab1c",
        ),
        (  # n = 0 mod 4: the even branch whose maxDeviation no other run prints
            ["search", "--n", "4", "--verify"],
            "ecec5da4135a0c26e651bc28415fe1b21e48562d711cf151cb5a7ab4d10c499b",
        ),
        (  # even n without --verify: rows of non-integral sets written without a table
            ["search", "--n", "4"],
            "caf877b02eb52a970c944b8d3772c37f76fcf418f2ce6c059c43b74867ef40ee",
        ),
        (
            ["search", "--n", "6"],
            "8d616f5ae917e4a19146dbd424a85bf7c51ae1708dd8e76375867191404792dd",
        ),
    ],
)
def test_search_stdout_is_byte_identical_to_recorded_digest(capsys, argv, digest):
    # the digests recorded for these runs in BENCH_pr10.json, BENCH_pr13.json and
    # BENCH_pr17.json; those of plain `search --n 4` and `--n 6` were recorded
    # while every set still got a table
    code, out = run_cli(capsys, argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_search_n2_verify_no_disagreements(capsys):
    code, out = run_cli(capsys, ["search", "--n", "2", "--verify"])
    assert code == 0
    doc = json.loads(out)
    assert doc["verified"] is True and doc["disagreements"] == 0
    assert doc["pstCount"] == 60


@pytest.mark.parametrize(
    "argv",
    [["analyze", "--n", "1", "--set", "a+b+a*b", "--verify"], ["search", "--n", "2", "--verify"]],
)
def test_grid_is_not_read_from_the_environment(capsys, monkeypatch, argv):
    """The grid is the constant oracle.GRID_POINTS: PST_GRID_POINTS, once an
    option, changes neither the exit code nor a byte of stdout."""
    monkeypatch.delenv("PST_GRID_POINTS", raising=False)
    plain = run_cli(capsys, argv)
    assert plain[0] == 0
    for raw in ("banana", "1"):
        monkeypatch.setenv("PST_GRID_POINTS", raw)
        assert run_cli(capsys, argv) == plain


def readme_commands() -> list[list[str]]:
    """The commands of README's "Command line" block, without the program name."""
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line, comments=True)[1:] for line in block.splitlines()]


def test_readme_command_line_examples_run(capsys):
    results = {argv[0]: run_cli(capsys, argv) for argv in readme_commands()}
    assert list(results) == ["analyze", "search", "probe"]
    assert all(code == 0 for code, _ in results.values())
    assert json.loads(results["probe"][1])["gridPoints"] == oracle.GRID_POINTS
    # the fields of README's sample analyze report
    doc = json.loads(results["analyze"][1])
    assert (doc["n"], doc["parity"], doc["connectionSet"]["size"]) == (2, "even2mod4", 14)
    assert doc["spectrum"][0] == {
        "label": "alpha_1",
        "value": 14,
        "multiplicity": 1,
        "integer": True,
    }
    assert doc["integral"] is True
    assert doc["types"] == {"type1": False, "type2": False, "type3": True}
    assert doc["pstPairs"][0] == {
        "u": 0,
        "v": 8,
        "clause": "pst:type3-antipodal",
        "minTimeOverPi": 0.5,
    }
    assert doc["oracle"] == {"checked": True, "maxDeviation": 0.0}


def test_search_workers_flag_is_usage_error(capsys):
    error = usage_error(capsys, ["search", "--n", "2", "--workers", "4"])
    assert error["message"] == "unrecognized arguments: --workers 4"


def test_search_max_n_flag_is_usage_error(capsys):
    error = usage_error(capsys, ["search", "--n", "9", "--max-n", "9"])
    assert error["message"] == "unrecognized arguments: --max-n 9"


def test_search_detects_planted_disagreement(capsys, monkeypatch):
    real = oracle.pair_amplitudes

    def sabotaged(conn, pairs, times):
        return np.zeros((len(times), len(pairs)))

    monkeypatch.setattr(cli.oracle, "pair_amplitudes", sabotaged)
    code, out = run_cli(capsys, ["search", "--n", "1", "--verify"])
    assert code == 4
    assert json.loads(out)["disagreements"] > 0
    monkeypatch.setattr(cli.oracle, "pair_amplitudes", real)


def test_search_detects_planted_negative_disagreement(capsys, monkeypatch):
    def sabotaged(conn, grid_points):
        return np.ones(conn.params.order)

    monkeypatch.setattr(cli.oracle, "grid_amplitude_maxima", sabotaged)
    code, out = run_cli(capsys, ["search", "--n", "1", "--verify"])
    assert code == 4
    assert json.loads(out)["disagreements"] > 0


# `search --n 1 --verify`: 8 graphs of 8 vertices, 16 positive pairs among their 8 * 28
N1_POSITIVE_PAIRS = 16
N1_NEGATIVE_PAIRS = 8 * 28 - N1_POSITIVE_PAIRS


@pytest.mark.parametrize("deficit,found", [(2e-6, N1_POSITIVE_PAIRS), (0.5e-6, 0)])
def test_search_positive_threshold_is_one_minus_1e6(capsys, monkeypatch, deficit, found):
    """Every positive pair's amplitude planted at 1 - deficit, just either side
    of 1 - POSITIVE_TOL: it disagrees below the threshold, and only there."""

    def planted(conn, pairs, times):
        return np.full((len(times), len(pairs)), 1.0 - deficit)

    monkeypatch.setattr(cli.oracle, "pair_amplitudes", planted)
    code, out = run_cli(capsys, ["search", "--n", "1", "--verify"])
    doc = json.loads(out)
    assert sum(len(graph["pstPairs"]) for graph in doc["pstGraphs"]) == N1_POSITIVE_PAIRS
    assert doc["disagreements"] == found
    assert code == (4 if found else 0)


@pytest.mark.parametrize("deficit,found", [(2e-4, 0), (0.5e-4, N1_NEGATIVE_PAIRS)])
def test_search_negative_threshold_is_one_minus_1e4(capsys, monkeypatch, deficit, found):
    """Every grid maximum planted at 1 - deficit, just either side of
    1 - NEGATIVE_TOL: every negative pair disagrees above the threshold, and
    none below it."""

    def planted(conn, grid_points):
        return np.full(conn.params.order, 1.0 - deficit)

    monkeypatch.setattr(cli.oracle, "grid_amplitude_maxima", planted)
    code, out = run_cli(capsys, ["search", "--n", "1", "--verify"])
    doc = json.loads(out)
    assert doc["totalSets"] == 8
    assert doc["disagreements"] == found
    assert code == (4 if found else 0)


@pytest.mark.parametrize(
    "tags, scans",
    [
        # integral, with transfer at pi/2: the coarse sample there decides the hit
        ("a*b+a+a^3+a^5+a^7+a^9+a^11+a^13+a^15+a^4", 1),
        # not integral: a central column left after the coarse pass is fine-scanned
        ("b^2+b+a^2*b+a*b+a^3*b+a+a^3+a^5+a^7+a^9+a^11+a^13+a^15+a^2+a^2*b^2", 2),
    ],
)
def test_analyze_verify_fine_scans_only_undecided_columns(capsys, monkeypatch, tags, scans):
    calls = []

    def counted(coeffs, spaces, step, points):
        calls.append(points)
        return real(coeffs, spaces, step, points)

    real = oracle._scan
    monkeypatch.setattr(oracle, "_scan", counted)
    code, out = run_cli(capsys, ["analyze", "--n", "8", "--verify", "--set", tags])
    assert code == 0 and json.loads(out)["oracle"]["checked"]
    assert len(calls) == scans
    assert (oracle.GRID_POINTS in calls) == (scans == 2)


def test_search_n6_verify_scan_counts(capsys, monkeypatch):
    """`search --n 6 --verify` runs one coarse pass on each of its 6,656 sets
    and fine-scans 48 columns; a scan that moved a decision past a threshold
    would change these counts."""
    calls = []

    def counted(coeffs, lams, step, points):
        calls.append(points)
        return real(coeffs, lams, step, points)

    real = oracle._scan
    monkeypatch.setattr(oracle, "_scan", counted)
    code, out = run_cli(capsys, ["search", "--n", "6", "--verify"])
    assert code == 0 and json.loads(out)["disagreements"] == 0
    coarse = -(-oracle.GRID_POINTS // oracle.COARSE_STEP)
    assert (calls.count(coarse), calls.count(oracle.GRID_POINTS), len(calls)) == (6656, 48, 6704)


def test_verify_catches_a_swapped_class_map_row(capsys, monkeypatch):
    """Two representations' rows of class b^2 swapped in the n = 4 class map,
    after its exact check: the decision reads the wrong integers, and the
    oracle, whose eigenvalues come from the projectors, disagrees with it."""
    params = GroupParams(4)
    class_map = spectrum._class_map(params)
    c = class_tags(params).index("b^2")
    labels = spectrum.rep_labels(params)
    i, j = labels.index("beta_1"), labels.index("gamma_1")
    stacked = class_map.stacked.copy()
    stacked[c, [i, j]] = stacked[c, [j, i]]
    rational = spectrum._rational_integers(params, stacked, class_map.degrees)
    swapped = class_map._replace(stacked=stacked, rational=rational)
    monkeypatch.setattr(spectrum, "_class_map", lambda p: swapped)
    code, out = run_cli(capsys, ["search", "--n", "4", "--verify"])
    doc = json.loads(out)
    assert doc["pstCount"] != 240  # the mutant changes the verdicts
    assert code == 4 and doc["disagreements"] > 0


def test_broken_pipe_exits_5_without_a_traceback():
    """stdout closed by its reader after 20 bytes: exit 5, nothing on stderr."""
    src = Path(cli.__file__).resolve().parents[1]
    with subprocess.Popen(
        [sys.executable, "-m", "v8npst.cli", "search", "--n", "6"],
        env=dict(os.environ, PYTHONPATH=str(src)),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    ) as proc:  # the document is 3.6 MB, far more than a pipe holds
        assert proc.stdout.read(20) == b'{\n  "n": 6,\n  "parit'
        proc.stdout.close()
        _, stderr = proc.communicate(timeout=60)
    assert proc.returncode == cli.EXIT_OUTPUT_CLOSED == 5
    assert stderr == b""


def test_probe_self_pair_reports_unity(capsys):
    code, out = run_cli(
        capsys,
        ["probe", "--n", "1", "--set", full_set_spec(1), "--u", "3", "--v", "3", "--grid", "500"],
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["best"]["amplitude"] == 1.0 and doc["best"]["tau"] == 0.0


def test_probe_positive_pair_hits_candidate_time(capsys):
    code, out = run_cli(
        capsys,
        ["probe", "--n", "1", "--set", "a+b+a*b", "--u", "0", "--v", "4", "--grid", "1000"],
    )
    assert code == 0
    doc = json.loads(out)
    first = doc["candidates"][0]
    assert abs(first["tau"] - math.pi / 2) < 1e-9
    assert first["amplitude"] > 1 - 1e-6
    assert doc["best"]["amplitude"] > 1 - 1e-6


def test_probe_k8_stays_below_one(capsys):
    code, out = run_cli(
        capsys,
        ["probe", "--n", "1", "--set", full_set_spec(1), "--u", "0", "--v", "1", "--grid", "2000"],
    )
    doc = json.loads(out)
    assert doc["best"]["amplitude"] < 1 - 1e-3


def test_probe_notes_grid_limit_for_nonintegral_spectrum(capsys):
    code, out = run_cli(
        capsys,
        ["probe", "--n", "4", "--set", "a*b+a+a^7", "--u", "0", "--v", "1", "--grid", "400"],
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["candidates"] == []
    assert doc["note"].startswith("grid-limited evidence")


def test_probe_integral_spectrum_has_no_note(capsys):
    code, out = run_cli(
        capsys,
        ["probe", "--n", "1", "--set", "a+b+a*b", "--u", "0", "--v", "4", "--grid", "400"],
    )
    assert json.loads(out)["note"] is None


def test_probe_vertex_out_of_range(capsys):
    code, out = run_cli(
        capsys,
        ["probe", "--n", "1", "--set", full_set_spec(1), "--u", "0", "--v", "99"],
    )
    assert code == 1
    assert json.loads(out)["error"]["code"] == "VertexOutOfRange"


def test_search_decides_each_set_before_the_next_is_yielded(capsys, monkeypatch):
    """Each set's table, if it gets one, and its row come before the next
    set is yielded.  Every set is integral at n = 2; at n = 4 most are not,
    and those get a row but no table."""
    events = []
    real_enumerate = cli.enumerate_connection_sets
    real_eigenvalues = cli.spectrum.eigenvalues
    real_tags_text = cli._tags_text

    def recording_enumerate(params, max_classes):
        for conn in real_enumerate(params, max_classes):
            events.append(("yield", conn.class_indices))
            yield conn

    def recording_eigenvalues(conn):
        events.append(("eigenvalues", conn.class_indices))
        return real_eigenvalues(conn)

    def recording_tags_text(conn, pad):
        events.append(("tags", conn.class_indices))
        return real_tags_text(conn, pad)

    monkeypatch.setattr(cli, "enumerate_connection_sets", recording_enumerate)
    monkeypatch.setattr(cli.spectrum, "eigenvalues", recording_eigenvalues)
    monkeypatch.setattr(cli, "_tags_text", recording_tags_text)
    for n, integral in ((2, {True}), (4, {True, False})):
        events.clear()
        code, out = run_cli(capsys, ["search", "--n", str(n)])
        assert code == 0
        rows = json.loads(out)["sets"]
        sets = [idx for kind, idx in events if kind == "yield"]
        assert len(sets) == len(rows) > 1
        assert {row["integral"] for row in rows} == integral
        # a set with transfer lists its tags twice, in its row and then in its report
        once = [event for i, event in enumerate(events) if not i or event != events[i - 1]]
        assert once == [
            event
            for idx, row in zip(sets, rows)
            for event in [("yield", idx), ("eigenvalues", idx), ("tags", idx)]
            if row["integral"] or event[0] != "eigenvalues"
        ]


def test_search_and_analyze_build_no_member_set(capsys, monkeypatch):
    """Rows read only a set's classes and size, and a report lists its
    elements from the per-n class labels: no set, enumerated or named by
    class tags, builds its member frozenset."""
    sets = []
    real_enumerate = cli.enumerate_connection_sets
    real_union = cli.class_union

    def recording_enumerate(params, max_classes):
        for conn in real_enumerate(params, max_classes):
            sets.append(conn)
            yield conn

    def recording_union(params, class_indices):
        sets.append(real_union(params, class_indices))
        return sets[-1]

    monkeypatch.setattr(cli, "enumerate_connection_sets", recording_enumerate)
    monkeypatch.setattr(cli, "class_union", recording_union)
    code, out = run_cli(capsys, ["search", "--n", "7", "--max-classes", "4"])
    assert code == 0
    doc = json.loads(out)
    assert len(sets) == doc["totalSets"] == 152 and doc["pstCount"] == 2
    for report in doc["pstGraphs"]:
        spec = "+".join(report["connectionSet"]["classes"])
        code, out = run_cli(capsys, ["analyze", "--n", "7", "--set", spec, "--verify"])
        assert code == 0
        assert json.loads(out)["connectionSet"] == report["connectionSet"]
    for argv in (
        ["analyze", "--n", "7", "--set", full_set_spec(7)],
        ["analyze", "--n", "4", "--set", "a*b+a+a^7", "--verify"],
    ):
        assert run_cli(capsys, argv)[0] == 0
    assert len(sets) == 152 + 4
    assert [conn.class_indices for conn in sets if "members" in vars(conn)] == []


def test_analyze_builds_no_eigenvalue_tuple(capsys, monkeypatch):
    """`analyze` prints an integral spectrum from the table's integers and a
    non-integral one from its `values` and `integer_values`, with and
    without --verify, one table per call."""
    tables = []
    real_eigenvalues = cli.spectrum.eigenvalues

    def recording_eigenvalues(conn):
        tables.append(real_eigenvalues(conn))
        return tables[-1]

    monkeypatch.setattr(cli.spectrum, "eigenvalues", recording_eigenvalues)
    reports = []
    for spec, n in (("a+b+a*b", 1), (full_set_spec(7), 7), ("a*b+a+a^7", 4), ("a*b+a^3+a^13", 8)):
        for verify in (False, True):
            argv = ["analyze", "--n", str(n), "--set", spec] + ["--verify"] * verify
            code, out = run_cli(capsys, argv)
            assert code == 0
            reports.append(json.loads(out))
    assert [r["integral"] for r in reports] == [True] * 4 + [False] * 4
    assert [bool(r["pstPairs"]) for r in reports] == [True] * 2 + [False] * 6
    # the non-integral spectra print integer entries too
    assert all(any(e["integer"] for e in r["spectrum"]) for r in reports[4:])
    assert len(tables) == 8


def test_search_without_verify_reads_no_float_eigenvalue(capsys, monkeypatch):
    """Without --verify, only an integral set gets a table, and deciding and
    reporting read only its integers: no table's float `values` is read and
    no table sums its class-map rows, not even for the reports of graphs
    with transfer."""
    tables = []
    real_eigenvalues = cli.spectrum.eigenvalues

    def recording_eigenvalues(conn):
        tables.append(real_eigenvalues(conn))
        return tables[-1]

    monkeypatch.setattr(cli.spectrum, "eigenvalues", recording_eigenvalues)
    code, out = run_cli(capsys, ["search", "--n", "7", "--max-classes", "4"])
    assert code == 0
    doc = json.loads(out)
    assert doc["totalSets"] == 152
    assert (doc["integralCount"], doc["pstCount"]) == (8, 2)
    # a non-integral set is listed from its classes alone: it gets no table
    assert len(tables) == 8 and all(t.all_integral for t in tables)
    assert [vars(t).keys() & {"values", "_sums"} for t in tables] == [set()] * 8
    assert all("integers" in vars(t) for t in tables)


def test_search_with_verify_checks_every_set(capsys, monkeypatch):
    """With --verify, every set, integral or not, gets its oracle check; only
    an integral set gets a table, as without --verify."""
    checked = []
    tables = []
    real_verify = cli.oracle.verify
    real_eigenvalues = cli.spectrum.eigenvalues

    def recording_verify(conn, verdicts):
        checked.append(conn)
        return real_verify(conn, verdicts)

    def recording_eigenvalues(conn):
        tables.append(real_eigenvalues(conn))
        return tables[-1]

    monkeypatch.setattr(cli.oracle, "verify", recording_verify)
    monkeypatch.setattr(cli.spectrum, "eigenvalues", recording_eigenvalues)
    code, out = run_cli(capsys, ["search", "--n", "7", "--max-classes", "4", "--verify"])
    assert code == 0
    assert len(checked) == json.loads(out)["totalSets"] == 152
    assert len(tables) == 8 and all(t.all_integral for t in tables)


def every_union_tags(n: int) -> list[str]:
    """The '+'-joined tags of every generating inverse-closed class union of V_8n."""
    params = GroupParams(n)
    return ["+".join(conn.class_tags) for conn in enumerate_connection_sets(params, 99)]


def drawn_union_tags(rng: random.Random, n: int, count: int) -> list[str]:
    """`count` generating unions of V_8n: each non-identity class is taken with
    probability 1/2, the union closed under inversion, non-generating draws
    skipped."""
    params = GroupParams(n)
    tags, masks = class_tags(params), class_masks(params)
    specs = []
    while len(specs) < count:
        bits = sum(1 << i for i in range(1, len(tags)) if rng.random() < 0.5)
        bits |= sum(inv for i, inv in enumerate(masks.inverse_bit) if bits >> i & 1)
        if masks.generates(bits):
            specs.append("+".join(tag for i, tag in enumerate(tags) if bits >> i & 1))
    return specs


def test_analyze_stdout_is_byte_identical_to_recorded_digest(capsys):
    """Every generating union for n <= 3 with and without --verify, then 200
    seeded unions for n = 5..8, each with a drawn --verify: the SHA-256 of
    the concatenated stdout was recorded before `analyze` stopped building
    member sets and `Eigenvalue` tuples."""
    argvs = [
        ["analyze", "--n", str(n), "--set", spec] + ["--verify"] * verify
        for n in (1, 2, 3)
        for spec in every_union_tags(n)
        for verify in (False, True)
    ]
    rng = random.Random(23)
    argvs += [
        ["analyze", "--n", str(n), "--set", spec] + ["--verify"] * rng.getrandbits(1)
        for n in (5, 6, 7, 8)
        for spec in drawn_union_tags(rng, n, 50)
    ]
    digest = hashlib.sha256()
    kinds = Counter()
    for argv in argvs:
        code, out = run_cli(capsys, argv)
        assert code == 0
        digest.update(out.encode())
        if int(argv[2]) >= 5:
            kinds['"integral": true' in out, argv[-1] == "--verify"] += 1
    assert len(argvs) == 2 * 168 + 200
    assert set(kinds) == {(kind, verify) for kind in (False, True) for verify in (False, True)}
    assert digest.hexdigest() == "70c4faaa0bae78810b7a328e3a0c4abbfca8f374dbd502e2b67e33f6cee2acce"


def element_spec(params: GroupParams, tags: str) -> str:
    """The comma-separated elements of the union of the classes `tags`."""
    by_tag = {c.tag: c for c in conjugacy_classes(params)}
    members = frozenset().union(*(by_tag[tag].members for tag in tags.split("+")))
    return ",".join(map(element_str, sorted(members)))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_tag_and_element_specs_print_the_same_report(capsys, n):
    params = GroupParams(n)
    for tags in every_union_tags(n):
        argv = ["analyze", "--n", str(n), "--set"]
        tagged = run_cli(capsys, argv + [tags])
        assert tagged[0] == 0
        assert run_cli(capsys, argv + [element_spec(params, tags)]) == tagged


@pytest.mark.parametrize("n", [1, 2, 3])
def test_tag_and_element_specs_print_the_same_error(capsys, n):
    """Every class union that is not a valid connection set, named by its
    tags or by its elements, gives the same error document and exit 2: it
    holds the identity, is not inverse-closed, or does not generate."""
    params = GroupParams(n)
    tags = class_tags(params)
    valid = set(every_union_tags(n))
    errors = Counter()
    for bits in range(1, 1 << len(tags)):
        spec = "+".join(tag for i, tag in enumerate(tags) if bits >> i & 1)
        if spec in valid:
            continue
        argv = ["analyze", "--n", str(n), "--set"]
        code, out = run_cli(capsys, argv + [spec])
        assert code == 2
        assert run_cli(capsys, argv + [element_spec(params, spec)]) == (code, out)
        errors[json.loads(out)["error"]["code"]] += 1
    symmetric = {"NotSymmetric"} if n > 1 else set()  # every class of V_8 is self-inverse
    assert set(errors) == {"IdentityInSet", "NotGenerating"} | symmetric
    assert sum(errors.values()) == (1 << len(tags)) - 1 - len(valid)


@pytest.mark.parametrize(
    "n,spec,same_as",
    [
        (1, "b+b", "b"),
        (1, "a + b+a*b+b", "a+b+a*b"),
        (3, "a*b+a^2*b^2+a*b", "a*b+a^2*b^2"),  # not generating, repeated
        (2, "b^2+b^2", "b^2"),
        (2, "1+1", "1"),
        (2, "b+b+a", "b+a"),
    ],
)
def test_repeated_tags_name_the_union_once(capsys, spec, same_as, n):
    argv = ["analyze", "--n", str(n), "--set"]
    assert run_cli(capsys, argv + [spec]) == run_cli(capsys, argv + [same_as])


@functools.lru_cache(maxsize=None)
def specs_by_integrality(n: int) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """The '+'-joined class tags of every valid class union of V_8n: those
    with an integral spectrum, then the others."""
    params = GroupParams(n)
    split = {True: [], False: []}
    for conn in enumerate_connection_sets(params, len(conjugacy_classes(params))):
        split[spectrum.eigenvalues(conn).all_integral].append("+".join(conn.class_tags))
    return tuple(split[True]), tuple(split[False])


@pytest.mark.parametrize("n", range(1, 9))
def test_analyze_report_bytes_match_json_dumps_drawn(n):
    """Drawn class unions, integral and not, with and without --verify:
    analyze prints `json.dumps(doc, indent=2)` of its own document, and
    each spectrum value is the table's integer, or `_f` of the float of a
    non-integral eigenvalue."""
    params = GroupParams(n)
    integral, other = specs_by_integrality(n)  # n = 1, 2, 3 have no other
    drawn = {kind: group for kind, group in ((True, integral), (False, other)) if group}
    kinds = Counter()

    @settings(derandomize=True, max_examples=30, deadline=None, database=None)
    @given(st.one_of([st.sampled_from(group) for group in drawn.values()]), st.booleans())
    def check(spec, verify):
        argv = ["analyze", "--n", str(n), "--set", spec] + ["--verify"] * verify
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert cli.main(argv) == 0
        out = buf.getvalue()
        assert out == json.dumps(json.loads(out), indent=2) + "\n"
        table = spectrum.eigenvalues(cli.parse_set_spec(params, spec))
        if table.all_integral:
            want = list(table.integers)
        else:
            want = [
                ev.integer_value if ev.is_integer else cli._f(ev.value) for ev in rows(table)
            ]
        entries = json.loads(out)["spectrum"]
        assert [(type(e["value"]), e["value"]) for e in entries] == [(type(x), x) for x in want]
        assert [(e["label"], e["multiplicity"], e["integer"]) for e in entries] == [
            (ev.label, ev.multiplicity, ev.is_integer) for ev in rows(table)
        ]
        kinds[table.all_integral, verify] += 1

    check()
    assert set(kinds) == {(kind, verify) for kind in drawn for verify in (False, True)}


# keys and strings with non-ASCII, quotes, backslashes, control characters and %
_TEXT = st.one_of(
    st.text(max_size=8),
    st.sampled_from(["", "%", "%s", "%%d", '"\\', "\x00\x1f\x7f", "é☃\u2028"]),
)
_SCALAR = st.one_of(
    st.none(),
    st.booleans(),
    st.sampled_from([0, 1, -1, 10**30, -(10**30)]),
    st.integers(),
    st.floats(),
    st.sampled_from([0.0, -0.0, 1e-16, 1e16, math.nan, math.inf, -math.inf]),
    _TEXT,
)
_JSON = st.recursive(
    _SCALAR,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4), st.dictionaries(_TEXT, inner, max_size=4)
    ),
    max_leaves=24,
)


def _render(x, pad=""):
    """`x` written through the report writer's layout: each nonempty dict
    fills `cli._dict_template`, each list is `cli._list_text`; scalars are
    `json.dumps` texts, as the writer's are."""
    deeper = pad + "  "
    if type(x) is dict and x:
        return cli._dict_template(tuple(x), pad) % tuple(_render(v, deeper) for v in x.values())
    if type(x) in (list, tuple):
        return cli._list_text([_render(v, deeper) for v in x], pad)
    return json.dumps(x)


@settings(derandomize=True, max_examples=400, deadline=None)
@given(_JSON)
def test_render_matches_json_dumps(value):
    """The templates lay out any keys and any nesting as json.dumps does."""
    assert _render(value) == json.dumps(value, indent=2)


@pytest.mark.parametrize(
    "value",
    [
        [],
        {},
        [[], {}, [[]], {"": {}}],
        {"a%sb": "%d%%", "%": [], "\u00e9\"\\\n": {"x": {}}},
        [True, 1, False, 0, None, 1.0, 0.0],
        {"t": True, "one": 1, "f": False, "zero": 0, "none": None},
        [-0.0, 1e-16, 1e16, 2**64, -(2**200), math.nan, math.inf, -math.inf],
        ("tuples", ("render", "as lists")),
    ],
)
def test_render_matches_json_dumps_on_edge_cases(value):
    assert _render(value) == json.dumps(value, indent=2)


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "--n", "3", "--set", full_set_spec(3)],
        ["analyze", "--n", "1", "--set", "a+b+a*b", "--verify"],
        ["analyze", "--n", "4", "--set", "a*b+a+a^7", "--verify"],
        ["search", "--n", "2", "--verify"],
        ["search", "--n", "3", "--max-classes", "2"],
        ["probe", "--n", "1", "--set", "a+b+a*b", "--u", "0", "--v", "4", "--grid", "400"],
        ["probe", "--n", "4", "--set", "a*b+a+a^7", "--u", "0", "--v", "1", "--grid", "400"],
        ["analyze", "--n", "2", "--set", "b,a^2*b^3"],
        ["analyze", "--n", "1", "--set", "b^2"],
        ["analyze", "--n", "1", "--set", "a^x"],
        ["analyze", "--n", "1", "--set", ""],
        ["probe", "--n", "1", "--set", "a+b+a*b", "--u", "0", "--v", "99"],
        ["search", "--n", "9"],
        ["search", "--n", "0"],
        ["search", "--n", "2", "--workers", "4"],
    ],
)
def test_every_document_is_printed_as_json_dumps_indent_2(capsys, argv):
    cli.main(argv)
    out = capsys.readouterr().out
    assert out == json.dumps(json.loads(out), indent=2) + "\n"



# The fuzzed grammar's values, each accepted one listed three times, so
# that most draws reach a command.  n stops at 4 below the bound: the
# per-n stacks of every n up to 32 would hold about 0.5 GB in one process.
_BOUND = cli.MAX_GRAPH_N
_FUZZ_N = ["1", "2", "3", "4"] * 3 + ["-1", "0", str(_BOUND + 1), str(_BOUND + 2), "100000"]
_FUZZ_SPECS = [
    "b", "a+b+a*b", "b^2+b", "a*b+a+a^7", "b+b", "1", "a + b+a*b+b",  # tags
    "a,a^3", "a,a*b^2,b,b^3,a*b,a*b^3", "b,a^2*b^3", "a^-1,a^99*b^5",  # element lists
    "", "+", "a++b", ",", " ", "x", "a^x", "a*b*c",  # garbage, empty parts
]
_FUZZ_INTS = ["0", "1", "4", "7"] * 3 + ["-1", "99", "x"]
_FUZZ_GRIDS = ["1", "7", str(cli.MAX_GRID)] * 2 + [str(cli.MAX_GRID + 1), "10000000000"] * 2
_FUZZ_GRIDS += ["-1", "0", "1e3"]
_FUZZ_OPTIONS = {  # the options each subcommand accepts, besides the required ones
    "analyze": st.just(["--verify"]),
    "search": st.one_of(
        st.just(["--verify"]),
        st.builds(lambda k: ["--max-classes", k], st.sampled_from(_FUZZ_INTS)),
    ),
    "probe": st.builds(lambda g: ["--grid", g], st.sampled_from(_FUZZ_GRIDS)),
}
_FUZZ_MALFORMED = st.sampled_from(
    [["--n"], ["--bogus"], ["--u"], ["--verify"], ["--grid", "3"], ["--max-classes", "2"], ["-n", "2"]]
)


@st.composite
def _command_lines(draw):
    """A subcommand, each of its required options kept with probability
    15/16, up to two options it accepts, and with probability 1/8 one it
    may not accept or that lacks its value, in any order.  A set is a
    valid union of class tags at n, with probability 1/2, or a drawn spec."""
    command = draw(st.sampled_from(["analyze", "search", "probe"] * 3 + ["frobnicate"]))
    n = draw(st.sampled_from(_FUZZ_N))
    required = [["--n", n]]
    if command in ("analyze", "probe"):
        valid = sum(specs_by_integrality(int(n)), ()) if 1 <= int(n) <= 4 else ()
        spec = st.sampled_from(_FUZZ_SPECS)
        required.append(["--set", draw(st.one_of(st.sampled_from(valid), spec) if valid else spec)])
    if command == "probe":
        required += [["--u", draw(st.sampled_from(_FUZZ_INTS))], ["--v", draw(st.sampled_from(_FUZZ_INTS))]]
    chunks = [chunk for chunk in required if draw(st.integers(0, 15)) < 15]
    chunks += draw(st.lists(_FUZZ_OPTIONS.get(command, _FUZZ_MALFORMED), max_size=2))
    if draw(st.integers(0, 7)) == 7:
        chunks.append(draw(_FUZZ_MALFORMED))
    return [command, *(word for chunk in draw(st.permutations(chunks)) for word in chunk)]


def test_fuzzed_command_lines_print_one_document(fresh_class_map):
    """Any drawn command line prints exactly one JSON document and exits with
    a documented code; a draw above a bound returns before the group or a
    per-n table of that n is built."""

    def below_bound(build):
        def guarded(arg, *rest):
            if (arg if type(arg) is int else arg.n) > _BOUND:
                raise Built
            return build(arg, *rest)

        return guarded

    for owner, name in ((group, "conjugacy_classes"), (characters, "character_table"), (cli, "GroupParams")):
        fresh_class_map.setattr(owner, name, below_bound(getattr(owner, name)))
    documented = {
        cli.EXIT_OK, cli.EXIT_USAGE, cli.EXIT_INVALID_SET,
        cli.EXIT_DISAGREEMENT, cli.EXIT_OUTPUT_CLOSED, cli.EXIT_INTERNAL,
    }
    seen = Counter()

    @settings(derandomize=True, max_examples=200, deadline=None, database=None)
    @given(_command_lines())
    def check(argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
        out = buf.getvalue()
        doc = json.loads(out)  # a second document or a partial report fails to parse
        assert out == json.dumps(doc, indent=2) + "\n"
        assert code in documented
        error = doc.get("error", {"code": argv[0], "message": ""})
        bound = error["message"].split("=")[0] if error["code"] == "BoundExceeded" else ""
        seen[error["code"], bound] += 1

    check()
    kinds = [(c, "") for c in ("analyze", "search", "probe", "UsageError", "NotSymmetric")]
    assert {*kinds, ("BoundExceeded", "n"), ("BoundExceeded", "grid")} <= set(seen)
