"""Command-line interface: reports, determinism, exit codes."""

import hashlib
import json
import math
import shlex
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from v8npst import cli, oracle
from v8npst.group import GroupParams, conjugacy_classes


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


def test_parser_is_built_once_and_survives_a_usage_error(capsys):
    assert cli.build_parser() is cli.build_parser()
    argv = ["analyze", "--n", "1", "--set", "a+b+a*b", "--verify"]
    usage_error(capsys, ["analyze", "--n", "0", "--set", "a", "--verify"])
    code, after_error = run_cli(capsys, argv)
    cli.build_parser.cache_clear()
    fresh_code, fresh = run_cli(capsys, argv)
    assert (code, after_error) == (fresh_code, fresh) == (0, fresh)


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
    ],
)
def test_search_stdout_is_byte_identical_to_recorded_digest(capsys, argv, digest):
    # the digests recorded for these runs in BENCH_pr10.json and BENCH_pr13.json
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

    def sabotaged(conn, u, v, times, table=None):
        return np.zeros(len(np.atleast_1d(times)))

    monkeypatch.setattr(cli.oracle, "pair_amplitudes", sabotaged)
    code, out = run_cli(capsys, ["search", "--n", "1", "--verify"])
    assert code == 4
    assert json.loads(out)["disagreements"] > 0
    monkeypatch.setattr(cli.oracle, "pair_amplitudes", real)


def test_search_detects_planted_negative_disagreement(capsys, monkeypatch):
    def sabotaged(conn, grid_points, table=None):
        return np.ones(conn.params.order)

    monkeypatch.setattr(cli.oracle, "grid_amplitude_maxima", sabotaged)
    code, out = run_cli(capsys, ["search", "--n", "1", "--verify"])
    assert code == 4
    assert json.loads(out)["disagreements"] > 0


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
    events = []
    real_enumerate = cli.enumerate_connection_sets
    real_eigenvalues = cli.spectrum.eigenvalues

    def recording_enumerate(params, max_classes):
        for conn in real_enumerate(params, max_classes):
            events.append(("yield", conn.class_indices))
            yield conn

    def recording_eigenvalues(conn, memo=None):
        events.append(("eigenvalues", conn.class_indices))
        return real_eigenvalues(conn, memo)

    monkeypatch.setattr(cli, "enumerate_connection_sets", recording_enumerate)
    monkeypatch.setattr(cli.spectrum, "eigenvalues", recording_eigenvalues)
    code, out = run_cli(capsys, ["search", "--n", "2"])
    assert code == 0
    sets = [idx for kind, idx in events if kind == "yield"]
    assert len(sets) == json.loads(out)["totalSets"] > 1
    assert events == [(kind, idx) for idx in sets for kind in ("yield", "eigenvalues")]


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


@settings(derandomize=True, max_examples=400, deadline=None)
@given(_JSON)
def test_render_matches_json_dumps(value):
    assert cli._render(value) == json.dumps(value, indent=2)


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
    assert cli._render(value) == json.dumps(value, indent=2)


@pytest.mark.parametrize(
    "value",
    [{1, 2}, b"bytes", object(), 1j, [np.float64(0.5)], {"x": np.int64(1)}, {1: "int key"}],
)
def test_render_rejects_unsupported_types(value):
    """Types json.dumps rejects, and subclasses and non-str keys it would
    convert, raise TypeError rather than print something else."""
    with pytest.raises(TypeError):
        cli._render(value)


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

