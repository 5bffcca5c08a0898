"""Record the verdict references the benchmark checks every run against.

Run once on the commit whose verdicts are the reference:

    python3 perfbench/record.py [workload ...]

For a search workload it stores the summary row of every graph, the full
verdict of every graph with transfer pairs, and the digest of stdout.  For
analyze-verify-n8 it stores the class data the input generator draws from,
the maximal subgroups that decide generation, and, for every generating
class union with an integral spectrum, its verdict and stdout digest; the
other unions need no entry (see `workloads.check_analyze`).
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import sys

import run
from workloads import WORKLOADS, reference_path, sha256, verdict


def _call(cli, argv: list[str]) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    if rc != 0:
        raise SystemExit(f"{' '.join(argv)} exited {rc}")
    return buf.getvalue()


def record_search(cli, workload) -> dict:
    stdout = _call(cli, list(workload.argv))
    doc = json.loads(stdout)
    return {
        "argv": list(workload.argv),
        "stdout_sha256": sha256(stdout),
        "sets": [
            ["+".join(s["classes"]), s["size"], s["integral"], s["pstPairCount"]]
            for s in doc["sets"]
        ],
        "pst": {
            "+".join(r["connectionSet"]["classes"]): verdict(r) for r in doc["pstGraphs"]
        },
    }


def record_analyze(cli, workload) -> dict:
    from v8npst import group, spectrum

    params = group.GroupParams(workload.n)
    classes = group.conjugacy_classes(params)
    cmap = group.class_index_map(params)
    ids = [i for i, c in enumerate(classes) if group.IDENTITY not in c.members]
    inverse = {i: cmap[group.inverse(params, next(iter(classes[i].members)))] for i in ids}
    orbits = sorted({tuple(sorted({i, inverse[i]})) for i in ids})
    full = frozenset(group.all_elements(params))

    generating = {}
    for k in range(1, len(orbits) + 1):
        for combo in itertools.combinations(range(len(orbits)), k):
            idx = tuple(sorted(i for o in combo for i in orbits[o]))
            members = frozenset().union(*(classes[i].members for i in idx))
            generating[frozenset(combo)] = group.generated_subgroup(params, members) == full
    # Non-generating unions are closed under taking sub-unions, so the
    # maximal ones (no one-orbit extension stays non-generating) are the
    # maximal subgroups minus the identity.
    maximal = [
        combo
        for combo, gen in generating.items()
        if not gen
        and all(generating[combo | {o}] for o in range(len(orbits)) if o not in combo)
    ]
    if any(gen == any(combo <= m for m in maximal) for combo, gen in generating.items()):
        raise SystemExit("maximal subgroups do not decide generation")

    integral = {}
    for combo, gen in generating.items():
        if not gen:
            continue
        idx = tuple(sorted(i for o in combo for i in orbits[o]))
        members = frozenset().union(*(classes[i].members for i in idx))
        conn = group.ConnectionSet(params=params, members=members, class_indices=idx)
        if not spectrum.eigenvalues(conn).all_integral:
            continue
        tags = "+".join(classes[i].tag for i in idx)
        stdout = _call(cli, [*workload.argv, "--set", tags])
        integral[tags] = {"verdict": verdict(json.loads(stdout)), "stdout": sha256(stdout)[:16]}
    print(
        f"{workload.name}: {sum(generating.values())} generating unions, "
        f"{len(integral)} integral",
        file=sys.stderr,
    )
    return {
        "argv": list(workload.argv),
        "classes": [
            {"tag": classes[i].tag, "size": len(classes[i]), "inverse": classes[inverse[i]].tag}
            for i in ids
        ],
        "maximal": [
            [classes[i].tag for i in sorted(i for o in m for i in orbits[o])] for m in maximal
        ],
        "integral": dict(sorted(integral.items())),
    }


def main(names: list[str]) -> None:
    cli = run.import_program()
    for name in names or list(WORKLOADS):
        workload = WORKLOADS[name]
        if workload.kind == "search":
            ref = record_search(cli, workload)
        else:
            ref = record_analyze(cli, workload)
        path = reference_path(name)
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps(ref, indent=0) + "\n")
        print(f"wrote {path}", file=sys.stderr)


if __name__ == "__main__":
    main(sys.argv[1:])
