"""Command-line front end.

Three subcommands, each printing a single JSON document on stdout (a short
human-readable summary goes to stderr when attached to a terminal):

  analyze --n N --set SPEC [--verify]
  search  --n N [--max-classes K] [--verify]
  probe   --n N --set SPEC --u U --v V [--grid POINTS]

SPEC is either a '+'-joined list of conjugacy-class tags (as printed by the
analyzer, e.g. "b+a*b") or a comma-separated list of explicit elements
"a^r*b^s".  Explicit lists are validated as-is and never auto-symmetrised.
Tags become class indices through the per-n tag index, and the union is
checked on its class bits (`group.class_union`), so its members are never
built; a union that fails a check is handed as members to
`validate_connection_set`, so both forms of one set give the same report,
or the same error document.

Every document is byte-identical to `json.dumps(doc, indent=2)`.  The
short ones, `probe`'s report and the error documents, are written by it.
The reports of `analyze` and `search` are records of fixed kinds (the
analysis report, its connection set, spectrum entries, Types, transfer
pairs and oracle block, and search's rows), so they skip `json.dumps`,
which falls back to the pure-Python encoder with `indent`: each record
is a `%`-template of its keys and pad (`_dict_template`), filled
directly from the set, the table and the verdicts, and no dict is
built.  A report's elements are the per-n sorted vertex labels of the
set's classes, merged by one sort and named from per-n quoted names, so
no report reads a set's members.  An integral spectrum is written from
the table's integers, so without `--verify` no float is evaluated for it;
a non-integral one from its float `values` and exact `integer_values`.
`search` decides integrality on a set's class bits first, by the
rational-class criterion of `spectrum.eigenvalues`, and writes a
non-integral set's row from its classes and size alone: no table and no
decision, with or without `--verify`, since the oracle takes its
eigenvalues from its own projector stack.  Each class's quoted tag, with
its separator, is a per-n item, so a list of tags is joined once.  A
report's "pstPairs" list depends on the graph's verdict alone, so its
text is written once per verdict and pad.

`search` decides each connection set as the enumeration yields it and
keeps only the text of its row, and of its report when the graph has
transfer, not the set.  The header's counts are known only at the end,
so the document is written then, in pieces: the header, then each list
in slices of about 1 MiB, so neither the whole text nor an encoded copy
of it is ever held.

`--verify` scans the fixed grid `oracle.GRID_POINTS` (10^4 points over
2 pi); `probe --grid` defaults to the same constant and accepts at most
MAX_GRID = 10^5 points.

A command line whose first word names a subcommand is parsed by that
subcommand's parser alone; any other goes to the top-level parser, which
keeps -h and the errors for a missing or unknown subcommand.

Every failure prints one JSON error document on stdout.  Exit codes: 0 ok,
1 usage error (a UsageError document, with the usage line on stderr; n
above MAX_N = 8 for search, or above MAX_GRAPH_N = 32 for analyze and
probe, or a probe --grid above MAX_GRID, is a BoundExceeded one, printed
before any per-n table or array is built), 2 invalid connection set,
4 decision/oracle disagreement (with --verify), 5 stdout closed by its
reader before the document was written (a broken pipe, as in
`search ... | head`), 6 internal check failed (the class map fails one of
the five exact checks made, once per n, as it is built from the character
table: a `NonRealEigenvalue`, `CharacterTableError` or
`IntegralityMismatch` document, from every command that builds the map).
Code 5 is the one path that prints no document: there is nowhere to
print it.
Integrality is decided exactly, so no input is numerically ambiguous; the
former code 3 is retired.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from itertools import chain
from json.encoder import encode_basestring_ascii

import numpy as np

from . import oracle, pst, spectrum
from .group import (
    ConnectionSet,
    ConnectionSetError,
    GroupParams,
    class_labels,
    class_masks,
    class_sizes,
    class_tags,
    class_union,
    conjugacy_classes,
    element_names,
    enumerate_connection_sets,
    parse_element,
    tag_index,
    validate_connection_set,
)
from .spectrum import CharacterTableError, IntegralityMismatch, NonRealEigenvalue

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INVALID_SET = 2
EXIT_DISAGREEMENT = 4
EXIT_OUTPUT_CLOSED = 5
EXIT_INTERNAL = 6

MAX_N = 8  # search enumerates every class union, so its cost grows fast with n
# analyze and probe build every per-n table of V_8n for one graph: 1.6 to 1.8 s
# and 190 MB at n = 32 with --verify, 3.4 to 3.9 s and 330 MB at n = 40
MAX_GRAPH_N = 32
# probe holds a (grid + 1) x labels phase table: at n = 32, 2.8 s and 359 MB at
# 10^5 points, against 2.5 s and 187 MB at the default 10^4 and 572 MB at 2 * 10^5
MAX_GRID = 10**5


class UsageError(Exception):
    """A usage error; `main` prints it as a JSON error document, exit 1."""

    def __init__(self, code: str, message: str) -> None:
        super().__init__(message)
        self.code = code


class _Parser(argparse.ArgumentParser):
    commands: dict[str, _Parser]  # on the top-level parser: the subcommands, by name

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
    if "," in text:
        members = [parse_element(params, part) for part in text.split(",")]
        return validate_connection_set(params, members)
    parts = [p.strip() for p in text.split("+")]
    index = tag_index(params)
    if all(p in index for p in parts):
        return class_union(params, map(index.__getitem__, parts))
    # single explicit element, or a typo'd tag; try element syntax
    members = [parse_element(params, part) for part in parts]
    return validate_connection_set(params, members)


def _float_json(x: float) -> str:
    if math.isfinite(x):
        return float.__repr__(x)
    return "NaN" if x != x else "Infinity" if x > 0 else "-Infinity"


def _bool_json(x: bool) -> str:
    return "true" if x else "false"


@functools.lru_cache(maxsize=256)
def _dict_template(keys: tuple[str, ...], pad: str) -> str:
    """`%`-template of one dict's members; a non-str key raises TypeError."""
    inner = "\n  " + pad
    members = ",".join(
        inner + encode_basestring_ascii(k).replace("%", "%%") + ": %s" for k in keys
    )
    return "{" + members + "\n" + pad + "}"


def _list_text(items: list[str], pad: str) -> str:
    """The list of the rendered `items` as `json.dumps` writes it at `pad`."""
    if not items:
        return "[]"
    deeper = pad + "  "
    return "[\n" + deeper + (",\n" + deeper).join(items) + "\n" + pad + "]"


# the texts of the "oracle" block's members without --verify
_UNCHECKED = ("false", "null")


def _decide(conn, table, verify: bool):
    """(graph verdict, transfer pairs, texts of the "oracle" members, disagreements)."""
    graph = pst.decide_graph(table)
    verdicts = pst.all_pst_pairs(table, graph)
    if not verify:
        return graph, verdicts, _UNCHECKED, 0
    max_dev, disagreements = oracle.verify(conn, verdicts)
    return graph, verdicts, ("true", _float_json(_f(max_dev))), disagreements


@functools.lru_cache(maxsize=None)
def _tag_items(params: GroupParams, pad: str) -> tuple[str, ...]:
    """Each class tag as an item of a list at `pad`, in class order: the
    line break and indent before it, its JSON string, and a comma."""
    indent = "\n" + pad + "  "
    return tuple([indent + encode_basestring_ascii(tag) + "," for tag in class_tags(params)])


@functools.lru_cache(maxsize=None)
def _quoted_names(params: GroupParams) -> tuple[str, ...]:
    """The JSON string of each element's name, by vertex label."""
    return tuple([encode_basestring_ascii(name) for name in element_names(params)])


def _tags_text(conn, pad: str) -> str:
    """The list of the set's class tags, as `json.dumps` writes it at `pad`:
    its items joined once, without the last comma.  A set has a class."""
    items = _tag_items(conn.params, pad)
    return "[" + "".join(map(items.__getitem__, conn.class_indices))[:-1] + "\n" + pad + "]"


@functools.lru_cache(maxsize=None)
def _pairs_text(graph, pad: str) -> str:
    """The "pstPairs" list of a verdict with transfer, as `json.dumps` writes
    it at `pad`: its pairs depend on the verdict alone, so it is written
    once per verdict and pad."""
    item = pad + "  "
    pair = _dict_template(("u", "v", "clause", "minTimeOverPi"), item)
    min_time = _float_json(_f(1.0 / graph.M))
    return _list_text(
        [
            pair
            % (int.__repr__(v.u), int.__repr__(v.v), encode_basestring_ascii(v.clause), min_time)
            for v in pst._transfer_pairs(graph)
        ],
        pad,
    )


def _report_text(conn, table, graph, oracle_texts, pad: str) -> str:
    """The analysis report of one graph, as `json.dumps` writes its dict at `pad`.

    The elements are the union of the classes' sorted vertex labels,
    sorted; the set's members are not read.  An integral spectrum is
    written from the table's integers, a non-integral one from its float
    `values` and exact `integer_values`.
    """
    params = conn.params
    names = _quoted_names(params)
    deeper = pad + "  "
    item = deeper + "  "
    labels = class_labels(params)
    elements = sorted(chain.from_iterable(map(labels.__getitem__, conn.class_indices)))
    connection = _dict_template(("classes", "elements", "size"), deeper) % (
        _tags_text(conn, item),
        _list_text(list(map(names.__getitem__, elements)), item),
        int.__repr__(len(conn)),
    )
    if table.all_integral:
        values = [(int.__repr__(k), "true") for k in table.integers]
    else:
        values = [
            (_float_json(_f(value)), "false") if k is None else (int.__repr__(k), "true")
            for value, k in zip(table.values.tolist(), table.integer_values)
        ]
    entry = _dict_template(("label", "value", "multiplicity", "integer"), item)
    entries = [
        entry % (encode_basestring_ascii(label), value, int.__repr__(multiplicity), integer)
        for (label, _, _, multiplicity), (value, integer) in zip(
            spectrum.representations(params), values
        )
    ]
    types = "null"
    if graph.types is not None:
        types = _dict_template(graph.types._fields, deeper) % tuple(map(_bool_json, graph.types))
    keys = ("n", "parity", "connectionSet", "spectrum", "integral", "types", "pstPairs", "oracle")
    return _dict_template(keys, pad) % (
        int.__repr__(params.n),
        encode_basestring_ascii(params.parity),
        connection,
        _list_text(entries, deeper),
        _bool_json(table.all_integral),
        types,
        "[]" if graph.M is None else _pairs_text(graph, deeper),
        _dict_template(("checked", "maxDeviation"), deeper) % oracle_texts,
    )


_SLICE = 1 << 20  # characters


def _list_pieces(items: list[str], pad: str):
    """`_list_text(items, pad)` in slices of about `_SLICE` characters."""
    if not items:
        yield "[]"
        return
    deeper = pad + "  "
    sep = ",\n" + deeper
    yield "[\n" + deeper
    start = size = 0
    for end, item in enumerate(items, 1):
        size += len(item)
        if size >= _SLICE and end < len(items):
            yield sep.join(items[start:end]) + sep
            start, size = end, 0
    yield sep.join(items[start:]) + "\n" + pad + "]"


def _document_pieces(keys: tuple[str, ...], values: tuple):
    """The top-level dict of `keys` and `values` as `json.dumps` writes it, in pieces.

    A value is the text of a member, or the list of the texts of a list's
    items; each list is given in slices, so its whole text is never joined.
    """
    lists = [value for value in values if type(value) is list]
    text = _dict_template(keys, "") % tuple(
        ["\0" if type(value) is list else value for value in values]
    )
    head, *tails = text.split("\0")  # a rendered text holds no raw NUL: strings escape it
    yield head
    for items, tail in zip(lists, tails):
        yield from _list_pieces(items, "  ")
        yield tail


def _emit(pieces, human_lines=None) -> None:
    """Write the pieces of a report and a newline to stdout, one at a time."""
    write = sys.stdout.write
    for piece in pieces:
        write(piece)
    write("\n")
    if human_lines and sys.stderr.isatty():  # pragma: no cover - terminal only
        for line in human_lines:
            print(line, file=sys.stderr)


def _structured_error(code: str, message: str, exit_code: int) -> int:
    print(json.dumps({"error": {"code": code, "message": message}}, indent=2))
    return exit_code


def _bound_exceeded(value: str, command: str, bound: int) -> int:
    return _structured_error(
        "BoundExceeded", f"{value} above the {command} bound {bound}", EXIT_USAGE
    )


def cmd_analyze(args) -> int:
    if args.n > MAX_GRAPH_N:
        return _bound_exceeded(f"n={args.n}", "analyze", MAX_GRAPH_N)
    params = GroupParams(args.n)
    try:
        conn = parse_set_spec(params, args.set)
    except (ConnectionSetError, ValueError) as exc:
        return _structured_error(type(exc).__name__, str(exc), EXIT_INVALID_SET)
    table = spectrum.eigenvalues(conn)
    graph, verdicts, oracle_texts, disagreements = _decide(conn, table, args.verify)
    human = [
        f"Cay(V_{8 * args.n}, S) |S|={len(conn)} integral={table.all_integral} "
        f"pst-pairs={len(verdicts)}"
    ]
    _emit([_report_text(conn, table, graph, oracle_texts, "")], human)
    return EXIT_DISAGREEMENT if disagreements else EXIT_OK


def cmd_search(args) -> int:
    if args.n > MAX_N:
        return _bound_exceeded(f"n={args.n}", "search", MAX_N)
    params = GroupParams(args.n)
    max_classes = args.max_classes or len(conjugacy_classes(params))
    sizes = class_sizes(params)
    is_integral = class_masks(params).is_rational_union  # as `spectrum.eigenvalues` decides
    row = _dict_template(("classes", "size", "integral", "pstPairCount"), "    ")
    non_integral_row = row % ("%s", "%s", "false", "0")  # no transfer without integrality
    integral_row = row % ("%s", "%s", "true", "%s")
    rows = []
    pst_reports = []
    integral_count = disagreements = 0
    for conn in enumerate_connection_sets(params, max_classes):
        if not is_integral(conn.bits):
            size = sum(map(sizes.__getitem__, conn.class_indices))
            rows.append(non_integral_row % (_tags_text(conn, "      "), int.__repr__(size)))
            if args.verify:  # the oracle needs no table, only the set
                disagreements += oracle.verify(conn, ())[1]
            continue
        table = spectrum.eigenvalues(conn)
        graph, verdicts, oracle_texts, found = _decide(conn, table, args.verify)
        disagreements += found
        integral_count += 1
        rows.append(
            integral_row
            % (_tags_text(conn, "      "), int.__repr__(len(conn)), int.__repr__(len(verdicts)))
        )
        if verdicts:
            pst_reports.append(
                _report_text(conn, table, graph, oracle_texts, "    ")
            )
    keys = (
        "n", "parity", "maxClasses", "totalSets", "integralCount", "pstCount",
        "verified", "disagreements", "sets", "pstGraphs",
    )
    values = (
        int.__repr__(args.n),
        encode_basestring_ascii(params.parity),
        int.__repr__(max_classes),
        int.__repr__(len(rows)),
        int.__repr__(integral_count),
        int.__repr__(len(pst_reports)),
        _bool_json(args.verify),
        int.__repr__(disagreements),
        rows,
        pst_reports,
    )
    _emit(
        _document_pieces(keys, values),
        [f"{len(rows)} sets, {len(pst_reports)} with transfer"],
    )
    return EXIT_DISAGREEMENT if disagreements else EXIT_OK


def cmd_probe(args) -> int:
    if args.n > MAX_GRAPH_N:
        return _bound_exceeded(f"n={args.n}", "probe", MAX_GRAPH_N)
    if args.grid > MAX_GRID:
        return _bound_exceeded(f"grid={args.grid}", "probe grid", MAX_GRID)
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
    best = oracle.pst_probe(conn, args.u, args.v, times)
    candidates = []
    note = None
    if table.all_integral:
        M = pst.gap_gcd(table)
        for ell in range(8):
            tau = math.pi / M * (1 + 2 * ell)
            amp = oracle.pair_amplitudes(conn, [(args.u, args.v)], [tau])[0, 0]
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
    _emit([json.dumps(report, indent=2)], [f"best |H|={best.amplitude:.9f} at tau={best.tau:.6f}"])
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
    parser.commands = sub.choices
    return parser


def main(argv=None) -> int:
    """Run one command line.  A subcommand's parser raises the errors the
    top-level parser would, with its own usage line on stderr."""
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser()
    try:
        command = parser.commands.get(argv[0]) if argv else None
        args = command.parse_args(argv[1:]) if command else parser.parse_args(argv)
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe raises here, not at interpreter exit
        return code
    except UsageError as exc:
        return _structured_error(exc.code, str(exc), EXIT_USAGE)
    except (NonRealEigenvalue, CharacterTableError, IntegralityMismatch) as exc:
        return _structured_error(type(exc).__name__, str(exc), EXIT_INTERNAL)
    except BrokenPipeError:
        # the reader is gone; what is still buffered goes to devnull, so the
        # flush at exit does not raise again (Python `signal` docs, "Note on SIGPIPE")
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OUTPUT_CLOSED


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
