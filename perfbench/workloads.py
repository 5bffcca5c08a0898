"""Workload definitions, the seeded input generator and the verdict checker.

Each workload is a sequence of `v8npst.cli.main` calls.  The benchmark
never asks the program which inputs to make: the analyze inputs come from
the class data stored in the reference file, and every output is checked
against verdicts recorded from the seed commit by `record.py`.
"""

from __future__ import annotations

import hashlib
import json
import random
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

POSITIVE_TOL = 1e-6  # largest 1 - |H(pi/M)| accepted for a positive pair
MIN_TIME_RTOL = 1e-9  # minTimeOverPi is 1/M; a last-digit change is not a new verdict


@dataclass(frozen=True)
class Workload:
    name: str
    argv: tuple[str, ...]  # for analyze: the arguments before "--set <tags>"
    n: int
    min_calls: int  # smallest number of calls in an untraced run

    @property
    def kind(self) -> str:
        return self.argv[0]  # "search" | "analyze"

    @property
    def verify(self) -> bool:
        return "--verify" in self.argv


WORKLOADS = {
    w.name: w
    for w in (
        # The full n = 7 search takes about 70 s on 2 cores, too long to
        # repeat within a run; unions of up to four classes keep every layer
        # it exercises (odd-n branches, enumeration, per-pair decision) in
        # calls short enough to give a run a dozen samples or more.
        Workload("search-decide-n7", ("search", "--n", "7", "--max-classes", "4"), 7, 2),
        # at least 200 calls, so that 10 samples lie beyond the 95th percentile
        Workload("analyze-verify-n8", ("analyze", "--n", "8", "--verify"), 8, 200),
    )
}


def reference_path(name: str) -> Path:
    return REFERENCE_DIR / f"{name}.json"


def load_reference(name: str) -> dict:
    with open(reference_path(name)) as fh:
        return json.load(fh)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# --------------------------------------------------------------------------
# Seeded inputs for the analyze workload
# --------------------------------------------------------------------------


def analyze_inputs(seed: int, ref: dict):
    """Endless stream of '+'-joined class tags drawn from `seed`.

    Each non-identity class is taken independently with probability 1/2,
    the union is closed under inversion, and only generating unions are
    kept: a union generates unless all its classes lie in one maximal
    subgroup (`ref["maximal"]`).  Only the stored class data is used, so
    the same seed gives the same inputs whatever the program does.
    """
    classes = ref["classes"]
    index = {c["tag"]: i for i, c in enumerate(classes)}
    inverse = [index[c["inverse"]] for c in classes]
    maximal = [frozenset(index[t] for t in m) for m in ref["maximal"]]
    rng = random.Random(seed)
    while True:
        chosen = {i for i in range(len(classes)) if rng.random() < 0.5}
        chosen |= {inverse[i] for i in chosen}
        if not chosen or any(chosen <= m for m in maximal):
            continue
        yield "+".join(classes[i]["tag"] for i in sorted(chosen))


# --------------------------------------------------------------------------
# Verdicts
# --------------------------------------------------------------------------


def verdict(report: dict) -> dict:
    """The decision part of one analyze report, as stored in the references.

    The transfer pairs are kept as their count, clause histogram, distinct
    minimum times and a digest of the (u, v, clause) list, which keeps the
    references small and still catches any changed pair.
    """
    pairs = report["pstPairs"]
    return {
        "size": report["connectionSet"]["size"],
        "integral": report["integral"],
        "types": report["types"],
        "pairs": len(pairs),
        "clauses": dict(sorted(Counter(p["clause"] for p in pairs).items())),
        "minTimeOverPi": sorted({p["minTimeOverPi"] for p in pairs}),
        "pairsSha": sha256(";".join(f"{p['u']}-{p['v']}-{p['clause']}" for p in pairs))[:16],
    }


def same_verdict(got: dict, want: dict) -> bool:
    times, want_times = got["minTimeOverPi"], want["minTimeOverPi"]
    return (
        {k: v for k, v in got.items() if k != "minTimeOverPi"}
        == {k: v for k, v in want.items() if k != "minTimeOverPi"}
        and len(times) == len(want_times)
        and all(abs(t - t0) <= MIN_TIME_RTOL * abs(t0) for t, t0 in zip(times, want_times))
    )


def _oracle_ok(report: dict) -> bool:
    oracle = report["oracle"]
    return bool(oracle["checked"]) and oracle["maxDeviation"] < POSITIVE_TOL


@dataclass
class Check:
    """Outcome of checking one call: graphs attempted and failed."""

    attempted: int
    failed: int
    stdout_identical: bool | None  # None: no seed bytes recorded for this output
    max_deviation: float = 0.0
    integral: int = 0


def check_search(workload: Workload, ref: dict, rc: int, stdout: str) -> Check:
    """Check one search call graph by graph against the seed reference.

    A graph fails when the call exits non-zero, when the oracle reports a
    disagreement, when its summary row or (for transfer graphs) its full
    verdict differs from the reference, or when it is missing.
    """
    want_sets = ref["sets"]
    attempted = len(want_sets)
    identical = sha256(stdout) == ref["stdout_sha256"]
    if rc != 0:
        return Check(attempted, attempted, identical)
    try:
        doc = json.loads(stdout)
        got_sets = doc["sets"]
        got_pst = {"+".join(r["connectionSet"]["classes"]): r for r in doc["pstGraphs"]}
    except (ValueError, KeyError, TypeError):
        return Check(attempted, attempted, identical)
    if workload.verify and (not doc.get("verified") or doc.get("disagreements") != 0):
        return Check(attempted, attempted, identical)
    failed = 0
    max_dev = 0.0
    integral = 0
    for i, (tags, size, is_integral, pair_count) in enumerate(want_sets):
        row = got_sets[i] if i < len(got_sets) else None
        ok = row is not None and [
            "+".join(row["classes"]),
            row["size"],
            row["integral"],
            row["pstPairCount"],
        ] == [tags, size, is_integral, pair_count]
        if ok and pair_count:
            report = got_pst.get(tags)
            ok = report is not None and same_verdict(verdict(report), ref["pst"][tags])
            if ok and workload.verify:
                ok = _oracle_ok(report)
                max_dev = max(max_dev, report["oracle"]["maxDeviation"])
        failed += not ok
        integral += bool(is_integral)
    # graphs the program made up count as failures too
    failed += max(0, len(got_sets) - len(want_sets))
    return Check(attempted, min(failed, attempted), identical, max_dev, integral)


def check_analyze(workload: Workload, ref: dict, tags: str, rc: int, stdout: str) -> Check:
    """Check one analyze call.

    Graphs with an integral spectrum are listed in the reference with their
    full verdict and stdout digest.  Every other graph of the input space
    must report a non-integral spectrum, no types and no transfer pairs.
    """
    recorded = ref["integral"].get(tags)
    identical = None if recorded is None else sha256(stdout)[:16] == recorded["stdout"]
    fail = Check(1, 1, identical, integral=recorded is not None)
    if rc != 0:
        return fail
    try:
        report = json.loads(stdout)
        got = verdict(report)
        classes = report["connectionSet"]["classes"]
    except (ValueError, KeyError, TypeError):
        return fail
    if recorded is not None:
        want = recorded["verdict"]
    else:
        sizes = {c["tag"]: c["size"] for c in ref["classes"]}
        want = verdict(
            {
                "connectionSet": {"size": sum(sizes[t] for t in tags.split("+"))},
                "integral": False,
                "types": None
                if workload.n % 2
                else {"type1": False, "type2": False, "type3": False},
                "pstPairs": [],
            }
        )
    if classes != tags.split("+") or not same_verdict(got, want):
        return fail
    if workload.verify and not _oracle_ok(report):
        return fail
    return Check(1, 0, identical, report["oracle"]["maxDeviation"] or 0.0, recorded is not None)
