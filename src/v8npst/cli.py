"""Command-line front end.

Three subcommands, each printing a single JSON document on stdout (a short
human-readable summary goes to stderr when attached to a terminal):

  analyze --n N --set SPEC [--verify]
  search  --n N [--max-classes K] [--verify]
  probe   --n N --set SPEC --u U --v V [--grid POINTS]

SPEC is either a '+'-joined list of conjugacy-class tags (as printed by the
analyzer, e.g. "b+a*b") or a comma-separated list of explicit elements
"a^r*b^s".  Explicit lists are validated as-is and never auto-symmetrised.

Every report and every error document is written by one fixed-layout
writer, `_render`, whose output is byte-identical to
`json.dumps(doc, indent=2)` (which falls back to the pure-Python encoder
with `indent`).  `search` decides each connection set as the enumeration
yields it and keeps only the report rows, not the sets.  A row reads only
a set's classes and size, so a set's members are built only for the
report of a graph with transfer, which lists its elements.  Reports are
written to stdout in slices of 1 MiB, so no encoded copy of a whole
report is held.

`--verify` scans the fixed grid `oracle.GRID_POINTS` (10^4 points over
2 pi); `probe --grid` defaults to the same constant.

Every failure prints one JSON error document on stdout.  Exit codes: 0 ok,
1 usage error (a UsageError document, with the usage line on stderr; n
above 8 for search is a BoundExceeded one), 2 invalid connection set,
4 decision/oracle disagreement (with --verify).  Integrality is decided
exactly, so no input is numerically ambiguous; the former code 3 is retired.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from json.encoder import encode_basestring_ascii

import numpy as np

from . import oracle, pst, spectrum
from .group import (
    ConnectionSet,
    ConnectionSetError,
    GroupParams,
    conjugacy_classes,
    element_names,
    enumerate_connection_sets,
    parse_element,
    validate_connection_set,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INVALID_SET = 2
EXIT_DISAGREEMENT = 4

MAX_N = 8  # search enumerates every class union, so its cost grows fast with n


class UsageError(Exception):
    """A usage error; `main` prints it as a JSON error document, exit 1."""

    def __init__(self, code: str, message: str) -> None:
        super().__init__(message)
        self.code = code


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # a JSON document and exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        raise UsageError("UsageError", message)


def _f(x: float):
    """Canonical 12-significant-digit float for deterministic reports."""
    return float(f"{x:.12g}")


def parse_set_spec(params: GroupParams, text: str) -> ConnectionSet:
    """Resolve a connection-set specifier to a validated set."""
    text = text.strip()
    if not text:
        raise ConnectionSetError("empty connection-set specifier")
    classes = conjugacy_classes(params)
    by_tag = {c.tag: c for c in classes}
    if "," in text:
        members = [parse_element(params, part) for part in text.split(",")]
        return validate_connection_set(params, members)
    parts = [p.strip() for p in text.split("+")]
    if all(p in by_tag for p in parts):
        members = frozenset().union(*(by_tag[p].members for p in parts))
        return validate_connection_set(params, members)
    # single explicit element, or a typo'd tag; try element syntax
    members = [parse_element(params, part) for part in parts]
    return validate_connection_set(params, members)


def _spectrum_json(table: spectrum.SpectrumTable) -> list[dict]:
    out = []
    for ev in table.eigenvalues:
        value = ev.integer_value if ev.is_integer else _f(ev.value)
        out.append(
            {
                "label": ev.label,
                "value": value,
                "multiplicity": ev.multiplicity,
                "integer": ev.is_integer,
            }
        )
    return out


def _types_json(graph: pst.GraphVerdict):
    t = graph.types
    if t is None:
        return None
    return {"type1": t.type1, "type2": t.type2, "type3": t.type3}


def _pst_pairs_json(verdicts) -> list[dict]:
    return [
        {
            "u": v.u,
            "v": v.v,
            "clause": v.clause,
            "minTimeOverPi": _f(1.0 / v.M),
        }
        for v in verdicts
    ]


def _decide(conn, table, verify: bool):
    """(graph verdict, transfer pairs, "oracle" JSON block, disagreements)."""
    graph = pst.decide_graph(table)
    verdicts = pst.all_pst_pairs(table, graph)
    if not verify:
        return graph, verdicts, {"checked": False, "maxDeviation": None}, 0
    max_dev, disagreements = oracle.verify(conn, table, verdicts)
    return graph, verdicts, {"checked": True, "maxDeviation": _f(max_dev)}, disagreements


def _analysis_report(conn, table, graph, verdicts, oracle_json) -> dict:
    names = element_names(conn.params)
    two_n = conn.params.two_n
    return {
        "n": conn.params.n,
        "parity": conn.params.parity,
        "connectionSet": {
            "classes": list(conn.class_tags),
            "elements": [names[i] for i in sorted([two_n * s + r for r, s in conn.members])],
            "size": len(conn),
        },
        "spectrum": _spectrum_json(table),
        "integral": table.all_integral,
        "types": _types_json(graph),
        "pstPairs": _pst_pairs_json(verdicts),
        "oracle": oracle_json,
    }


def _float_json(x: float) -> str:
    if math.isfinite(x):
        return float.__repr__(x)
    return "NaN" if x != x else "Infinity" if x > 0 else "-Infinity"


_SCALARS = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    float: _float_json,
    bool: lambda x: "true" if x else "false",
    type(None): lambda x: "null",
}


@functools.lru_cache(maxsize=256)
def _dict_template(keys: tuple[str, ...], pad: str) -> str:
    """`%`-template of one dict's members; a non-str key raises TypeError."""
    inner = "\n  " + pad
    members = ",".join(
        inner + encode_basestring_ascii(k).replace("%", "%%") + ": %s" for k in keys
    )
    return "{" + members + "\n" + pad + "}"


def _render(x, pad: str = "") -> str:
    """`x` as `json.dumps(x, indent=2)` renders it, byte for byte.

    Only the exact types dict, list, tuple, str, int, float, bool and None
    are written, and dict keys must be str; anything else raises TypeError.
    """
    kind = type(x)
    scalar = _SCALARS.get(kind)
    if scalar is not None:
        return scalar(x)
    if kind is dict:
        if not x:
            return "{}"
        deeper = pad + "  "
        values = tuple(
            [
                _render(v, deeper) if (scalar := _SCALARS.get(type(v))) is None else scalar(v)
                for v in x.values()
            ]
        )
        return _dict_template(tuple(x), pad) % values
    if kind is list or kind is tuple:
        if not x:
            return "[]"
        deeper = pad + "  "
        items = ",\n" + deeper
        rendered = [
            _render(v, deeper) if (scalar := _SCALARS.get(type(v))) is None else scalar(v)
            for v in x
        ]
        return "[\n" + deeper + items.join(rendered) + "\n" + pad + "]"
    raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


def _emit(doc, human_lines=None) -> None:
    text = _render(doc)
    # in slices: `print` would encode the whole report at once, a second copy of it
    for start in range(0, len(text), 1 << 20):
        sys.stdout.write(text[start : start + (1 << 20)])
    sys.stdout.write("\n")
    if human_lines and sys.stderr.isatty():  # pragma: no cover - terminal only
        for line in human_lines:
            print(line, file=sys.stderr)


def _structured_error(code: str, message: str, exit_code: int) -> int:
    print(_render({"error": {"code": code, "message": message}}))
    return exit_code


def cmd_analyze(args) -> int:
    params = GroupParams(args.n)
    try:
        conn = parse_set_spec(params, args.set)
    except (ConnectionSetError, ValueError) as exc:
        return _structured_error(type(exc).__name__, str(exc), EXIT_INVALID_SET)
    table = spectrum.eigenvalues(conn)
    graph, verdicts, oracle_json, disagreements = _decide(conn, table, args.verify)
    report = _analysis_report(conn, table, graph, verdicts, oracle_json)
    human = [
        f"Cay(V_{8 * args.n}, S) |S|={len(conn)} integral={report['integral']} "
        f"pst-pairs={len(report['pstPairs'])}"
    ]
    _emit(report, human)
    return EXIT_DISAGREEMENT if disagreements else EXIT_OK


def cmd_search(args) -> int:
    if args.n > MAX_N:
        return _structured_error(
            "BoundExceeded", f"n={args.n} above the search bound {MAX_N}", EXIT_USAGE
        )
    params = GroupParams(args.n)
    max_classes = args.max_classes or len(conjugacy_classes(params))
    rows = []
    pst_reports = []
    disagreements = 0
    for conn in enumerate_connection_sets(params, max_classes):
        table = spectrum.eigenvalues(conn)
        graph, verdicts, oracle_json, found = _decide(conn, table, args.verify)
        disagreements += found
        rows.append(
            {
                "classes": list(conn.class_tags),
                "size": len(conn),
                "integral": table.all_integral,
                "pstPairCount": len(verdicts),
            }
        )
        if verdicts:
            pst_reports.append(_analysis_report(conn, table, graph, verdicts, oracle_json))
    summary = {
        "n": args.n,
        "parity": params.parity,
        "maxClasses": max_classes,
        "totalSets": len(rows),
        "integralCount": sum(1 for r in rows if r["integral"]),
        "pstCount": len(pst_reports),
        "verified": bool(args.verify),
        "disagreements": disagreements,
        "sets": rows,
        "pstGraphs": pst_reports,
    }
    _emit(summary, [f"{len(rows)} sets, {len(pst_reports)} with transfer"])
    return EXIT_DISAGREEMENT if disagreements else EXIT_OK


def cmd_probe(args) -> int:
    params = GroupParams(args.n)
    try:
        conn = parse_set_spec(params, args.set)
    except (ConnectionSetError, ValueError) as exc:
        return _structured_error(type(exc).__name__, str(exc), EXIT_INVALID_SET)
    order = params.order
    if not (0 <= args.u < order and 0 <= args.v < order):
        return _structured_error(
            "VertexOutOfRange", f"vertices must lie in [0, {order})", EXIT_USAGE
        )
    table = spectrum.eigenvalues(conn)
    times = np.arange(0, args.grid + 1) * (2 * math.pi / args.grid)
    best = oracle.pst_probe(conn, args.u, args.v, times, table)
    candidates = []
    note = None
    if table.all_integral:
        M = pst.gap_gcd(table)
        for ell in range(8):
            tau = math.pi / M * (1 + 2 * ell)
            amp = oracle.pair_amplitudes(conn, args.u, args.v, [tau], table)[0]
            candidates.append({"ell": ell, "tau": _f(tau), "amplitude": _f(float(amp))})
    else:
        # H is not 2pi-periodic for non-integral spectra; the scan is
        # evidence over the window only, not a certificate
        note = "grid-limited evidence: non-integral spectrum"
    report = {
        "n": args.n,
        "connectionSet": {"classes": list(conn.class_tags), "size": len(conn)},
        "u": args.u,
        "v": args.v,
        "gridPoints": args.grid,
        "best": {"tau": _f(best.tau), "amplitude": _f(best.amplitude)},
        "candidates": candidates,
        "note": note,
    }
    _emit(report, [f"best |H|={best.amplitude:.9f} at tau={best.tau:.6f}"])
    return EXIT_OK


@functools.cache
def build_parser() -> _Parser:
    """The argument parser, built once per process: parsing never changes it."""
    parser = _Parser(prog="v8npst", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def positive_int(text: str) -> int:
        val = int(text)
        if val < 1:
            raise argparse.ArgumentTypeError(f"expected a positive integer, got {text}")
        return val

    pa = sub.add_parser("analyze", help="spectrum, types and transfer pairs of one graph")
    pa.add_argument("--n", type=positive_int, required=True)
    pa.add_argument("--set", required=True)
    pa.add_argument("--verify", action="store_true")
    pa.set_defaults(func=cmd_analyze)

    ps = sub.add_parser("search", help="enumerate all class-union connection sets")
    ps.add_argument("--n", type=positive_int, required=True)
    ps.add_argument("--max-classes", type=positive_int, default=None)
    ps.add_argument("--verify", action="store_true")
    ps.set_defaults(func=cmd_search)

    pp = sub.add_parser("probe", help="numeric |H(tau)_{uv}| scan for one pair")
    pp.add_argument("--n", type=positive_int, required=True)
    pp.add_argument("--set", required=True)
    pp.add_argument("--u", type=int, required=True)
    pp.add_argument("--v", type=int, required=True)
    pp.add_argument("--grid", type=positive_int, default=oracle.GRID_POINTS)
    pp.set_defaults(func=cmd_probe)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        return _structured_error(exc.code, str(exc), EXIT_USAGE)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
