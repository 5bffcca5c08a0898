"""Benchmark of the v8npst pipelines, driven through `v8npst.cli.main`.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --list-metrics

One run is one fresh interpreter and one thread of control.  It first times
the set-up (import plus the per-n tables) in fresh child interpreters, warms
its own tables, then repeats the workload's CLI call for about S seconds
and checks every output against the verdicts recorded from the seed commit.

Every time is reported scaled to a nominal host by a fixed reference
workload timed around the measured work (see speed.py); the raw median
call time is printed on stderr.

With --trace 0 it reports the end-to-end metrics.  With --trace 1 it
alternates untraced and traced calls and reports the per-layer split of
the traced calls and the tracing overhead.  The last line of stdout is one
JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import speed
from layers import SPANNED_LAYERS, Tracer, traced
from workloads import (
    WORKLOADS,
    Check,
    analyze_inputs,
    check_analyze,
    check_search,
    load_reference,
)

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"
SETUP_SAMPLES = 9

# name -> (unit, better, what it measures); end-to-end with --trace 0
END_TO_END = {
    "call_p50_s": ("s", "lower", "median cli.main call time, host-speed scaled"),
    "call_p95_s": ("s", "lower", "95th percentile of the same (>= 200 calls on analyze)"),
    "setup_s": ("s", "lower", "import plus the per-n tables, host-speed scaled, median of fresh interpreters"),
    "rss_peak_mb": ("MB", "lower", "peak resident memory of the run"),
}

# per-layer with --trace 1; times (host-speed scaled) and counts are per traced call
PER_LAYER = {
    "group.enumerate_s": ("s", "lower", "time in next() of enumerate_connection_sets"),
    "group.sets_yielded": ("count", "lower", "connection sets yielded by the enumeration"),
    "group.validate_s": ("s", "lower", "time in validate_connection_set"),
    "group.validate_calls": ("count", "lower", "validate_connection_set calls"),
    "characters.table_s": ("s", "lower", "cold character_table build during set-up"),
    "cyclotomic.calls": ("count", "lower", "CycloInt +, *, is_zero and value calls"),
    "spectrum.eigenvalues_s": ("s", "lower", "time in spectrum.eigenvalues"),
    "spectrum.integral_share": ("ratio", "higher", "share of spectra that are integral"),
    "pst.all_pst_pairs_s": ("s", "lower", "time in all_pst_pairs"),
    "pst.classify_pair_calls": ("count", "lower", "classify_pair calls"),
    "pst.pst_pairs": ("count", "higher", "positive pairs found (correctness guard)"),
    "oracle.grid_scan_s": ("s", "lower", "time in grid_amplitude_maxima"),
    "oracle.pair_amplitudes_s": ("s", "lower", "time in pair_amplitudes"),
    "oracle.transition_calls": ("count", "lower", "oracle.transition calls"),
    "oracle.max_deviation": ("1", "lower", "largest 1 - |H(pi/M)| over positive pairs (a margin)"),
    **{
        f"{layer}.{kind}": (unit, "lower", text.format(layer))
        for layer in SPANNED_LAYERS
        for kind, unit, text in (
            ("self_s", "s", "self time of the {} spans"),
            ("self_share", "ratio", "{} self time over traced wall time"),
        )
    },
    "cli.stdout_bytes": ("bytes", "lower", "stdout bytes"),
    "cli.stdout_identical": ("ratio", "higher", "1 if stdout matched every seed digest recorded for it"),
    "inputs.integral_share": ("ratio", "higher", "share of input graphs with an integral spectrum"),
    "trace.wall_s": ("s", "lower", "median wall time of one traced call"),
    "trace.overhead_s": ("s", "lower", "traced minus untraced median call time"),
    "trace.unattributed_s": ("s", "lower", "traced call time outside every span"),
}

SETUP_CODE = """
import sys, time
sys.path.insert(0, sys.argv[1])
import run
import speed
before = speed.reference_seconds()
start = time.perf_counter()
run.import_program()
run.warm(int(sys.argv[2]))
seconds = time.perf_counter() - start
print(speed.scaled(seconds, (before + speed.reference_seconds()) / 2))
"""


def import_program():
    """Import v8npst.cli from this checkout's src/, never from elsewhere."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from v8npst import cli

    if Path(cli.__file__).resolve().parent.parent != SRC:
        raise ImportError(f"v8npst imported from {cli.__file__}, not from {SRC}")
    return cli


def warm(n: int) -> None:
    """Build the per-n tables that every later call reads from caches."""
    from v8npst import characters, group, oracle

    params = group.GroupParams(n)
    group.conjugacy_classes(params)
    characters.character_table(params)
    oracle.ratio_index_table(params)
    members = frozenset(group.all_elements(params)) - {group.IDENTITY}
    oracle.projectors(group.ConnectionSet(params, members, ()))


def measure_setup(n: int) -> float:
    """Median scaled set-up time over fresh child interpreters, one at a time."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        out = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(Path(__file__).parent), str(n)],
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        samples.append(float(out.stdout.split()[-1]))
    return statistics.median(samples)


def cli_call(main, argv: list[str]) -> tuple[int, str, float]:
    """One CLI call with stdout captured; returns (exit code, stdout, seconds)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        start = time.perf_counter()
        rc = main(argv)
        seconds = time.perf_counter() - start
    return rc, buf.getvalue(), seconds


class Run:
    """The calls of one workload, their timings and their checks."""

    def __init__(self, workload, ref: dict, seed: int) -> None:
        self.workload = workload
        self.ref = ref
        self.inputs = analyze_inputs(seed, ref) if workload.kind == "analyze" else None
        self.checks: list[Check] = []

    def call(self, main) -> tuple[float, int]:
        """One checked call; returns (seconds, stdout bytes)."""
        w = self.workload
        if w.kind == "search":
            rc, out, seconds = cli_call(main, list(w.argv))
            self.checks.append(check_search(w, self.ref, rc, out))
        else:
            tags = next(self.inputs)
            rc, out, seconds = cli_call(main, [*w.argv, "--set", tags])
            self.checks.append(check_analyze(w, self.ref, tags, rc, out))
        return seconds, len(out.encode())

    @property
    def attempted(self) -> int:
        return sum(c.attempted for c in self.checks)

    @property
    def failed(self) -> int:
        return sum(c.failed for c in self.checks)

    @property
    def integral_share(self) -> float:
        """Share of the graphs checked whose spectrum is integral (per the reference)."""
        return sum(c.integral for c in self.checks) / self.attempted


@dataclass
class Timings:
    """Call times of one run and the reference runs around them."""

    calls: list[tuple[bool, float, int]] = field(default_factory=list)  # (traced, seconds, loop)
    loops: list[float] = field(default_factory=list)  # seconds of each reference run
    sizes: list[int] = field(default_factory=list)  # stdout bytes of the traced calls
    tracer: Tracer = field(default_factory=Tracer)

    def raw(self, traced: bool) -> list[float]:
        return [t for is_traced, t, _ in self.calls if is_traced == traced]

    def scaled(self, traced: bool) -> list[float]:
        """Call times scaled by the mean of the reference runs before and after each."""
        return [
            speed.scaled(t, (self.loops[i] + self.loops[i + 1]) / 2)
            for is_traced, t, i in self.calls
            if is_traced == traced
        ]

    @property
    def scale(self) -> float:
        """Nominal over measured speed for the whole run, for totals over many calls."""
        return speed.scaled(1.0, statistics.median(self.loops))


def timed_calls(run: Run, cli, seconds: float, trace: bool) -> Timings:
    """Repeat calls until the next one would end after `seconds`.

    The reference workload runs before the first call, after every
    CALIBRATE_EVERY_S of calls and after the last.  Untraced runs make at
    least `min_calls` calls.  Traced runs alternate untraced and traced
    calls, starting untraced, and make at least one of each; the tracer
    holds the spans of the traced calls.
    """
    tm = Timings(loops=[speed.reference_seconds()])
    start = last_loop = time.perf_counter()
    untraced = traced_calls = 0
    while True:
        is_traced = trace and untraced > traced_calls
        if is_traced:
            with traced(tm.tracer):
                t, size = run.call(tm.tracer.span("cli.main", cli.main))
            tm.sizes.append(size)
            traced_calls += 1
        else:
            t, _ = run.call(cli.main)
            untraced += 1
        tm.calls.append((is_traced, t, len(tm.loops) - 1))
        now = time.perf_counter()
        if now - last_loop >= speed.CALIBRATE_EVERY_S:
            tm.loops.append(speed.reference_seconds())
            last_loop = now = time.perf_counter()
        done = traced_calls == untraced if trace else untraced >= run.workload.min_calls
        elapsed = now - start
        if done and elapsed * (len(tm.calls) + 1) / len(tm.calls) > seconds:
            if tm.calls[-1][2] == len(tm.loops) - 1:
                tm.loops.append(speed.reference_seconds())
            return tm


def end_to_end_metrics(untraced: list[float], setup_s: float) -> dict:
    vigintiles = statistics.quantiles(untraced, n=20, method="inclusive")
    return {
        "call_p50_s": statistics.median(untraced),
        "call_p95_s": vigintiles[18],
        "setup_s": setup_s,
        "rss_peak_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer_metrics(run: Run, tm: Timings, table_s: float) -> dict:
    traced_times, untraced = tm.scaled(True), tm.scaled(False)
    calls = len(traced_times)
    scale = tm.scale
    spans = {name: t * scale for name, t in tm.tracer.span_times().items()}
    counts = tm.tracer.counts
    raw_total = sum(tm.raw(True))
    layer_self = {
        layer: sum(t for name, t in tm.tracer.self_times().items() if name.split(".")[0] == layer)
        for layer in SPANNED_LAYERS
    }
    compared = [c.stdout_identical for c in run.checks if c.stdout_identical is not None]
    metrics = {
        "group.enumerate_s": spans.get("group.enumerate", 0.0) / calls,
        "group.sets_yielded": counts["group.enumerate.yielded"] / calls,
        "group.validate_s": spans.get("group.validate", 0.0) / calls,
        "group.validate_calls": counts["group.validate"] / calls,
        "characters.table_s": table_s,
        "cyclotomic.calls": counts["cyclotomic.calls"] / calls,
        "spectrum.eigenvalues_s": spans.get("spectrum.eigenvalues", 0.0) / calls,
        "spectrum.integral_share": counts["spectrum.integral"]
        / max(counts["spectrum.eigenvalues"], 1),
        "pst.all_pst_pairs_s": spans.get("pst.all_pst_pairs", 0.0) / calls,
        "pst.classify_pair_calls": counts["pst.classify_pair_calls"] / calls,
        "pst.pst_pairs": counts["pst.pst_pairs"] / calls,
        "oracle.grid_scan_s": spans.get("oracle.grid_scan", 0.0) / calls,
        "oracle.pair_amplitudes_s": spans.get("oracle.pair_amplitudes", 0.0) / calls,
        "oracle.transition_calls": counts["oracle.transition_calls"] / calls,
        "oracle.max_deviation": max(c.max_deviation for c in run.checks),
        "cli.stdout_bytes": statistics.mean(tm.sizes),
        "cli.stdout_identical": float(all(compared)),
        "inputs.integral_share": run.integral_share,
        "trace.wall_s": statistics.median(traced_times),
        "trace.overhead_s": statistics.median(traced_times) - statistics.median(untraced),
        "trace.unattributed_s": (raw_total - sum(layer_self.values())) * scale / calls,
    }
    for layer, seconds in layer_self.items():
        metrics[f"{layer}.self_s"] = seconds * scale / calls
        metrics[f"{layer}.self_share"] = seconds / raw_total
    return {name: metrics[name] for name in PER_LAYER}


def list_metrics() -> None:
    for title, table in (("end-to-end (--trace 0)", END_TO_END), ("per-layer (--trace 1)", PER_LAYER)):
        print(title)
        for name, (unit, better, text) in table.items():
            print(f"  {name:28} {unit:6} {better:7} {text}")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--list-metrics", action="store_true")
    args = parser.parse_args(argv)
    if not args.list_metrics and args.workload is None:
        parser.error("--workload is required")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.list_metrics:
        list_metrics()
        return 0
    workload = WORKLOADS[args.workload]
    if not (SRC / "v8npst" / "cli.py").is_file():
        print(f"no program to measure: {SRC / 'v8npst'} is missing", file=sys.stderr)
        return 2
    ref = load_reference(workload.name)

    setup_s = measure_setup(workload.n)
    cli = import_program()
    if args.trace:
        setup_tracer = Tracer()
        before = speed.reference_seconds()
        with traced(setup_tracer):
            warm(workload.n)
        table_s = speed.scaled(
            setup_tracer.span_times()["characters.character_table"],
            (before + speed.reference_seconds()) / 2,
        )
    else:
        warm(workload.n)

    run = Run(workload, ref, args.seed)
    tm = timed_calls(run, cli, args.seconds, bool(args.trace))
    if args.trace:
        metrics = per_layer_metrics(run, tm, table_s)
        table = PER_LAYER
    else:
        metrics = end_to_end_metrics(tm.scaled(False), setup_s)
        table = END_TO_END
    print(
        f"{workload.name} seed={args.seed}: {len(tm.raw(False))} untraced and "
        f"{len(tm.raw(True))} traced calls (median untraced {statistics.median(tm.raw(False)):.4f} s "
        f"raw, {statistics.median(tm.scaled(False)):.4f} s scaled; median of "
        f"{len(tm.loops)} reference runs {statistics.median(tm.loops) * 1000:.2f} ms), "
        f"{run.attempted} graphs checked, {run.failed} failed, "
        f"integral share of inputs {run.integral_share:.4f}",
        file=sys.stderr,
    )
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {
            name: {"value": value, "unit": table[name][0]} for name, value in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
