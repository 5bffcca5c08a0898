"""Wall time of whole `v8npst` CLI processes, recorded in a BENCH file.

Usage:

    python scripts/bench_wall.py --label change --out BENCH_x.json [--src DIR]

Each run starts one fresh interpreter, `python -m v8npst.cli search ...`,
with `PYTHONPATH` set to `--src` (the `src` directory of any checkout,
default this repository's), and times it from start to exit.  The runs are
`search --n N --verify` for N = 1..6, `search --n N` and
`search --n N --verify` for N = 7, 8, so every set up to n = 8 is verified
under a recorded digest, and one `analyze --n N --set ... --verify` of a
single graph with transfer for N = 7, 8: a process that builds every per-n
table on its first call and decides one graph, so its time is mostly
start-up and set-up.
Each result holds the wall seconds, the exit code, the SHA-256 of stdout
and the peak resident memory of the CLI process, read by `os.wait4` from
that child's own resource usage, so two checkouts recorded into one file
can be compared for identical reports as well as for time and memory.
Each invocation appends one round of results under `--label` and keeps
everything else in the file, so run it for each checkout on the same
machine, alternating which goes first, and commit the file.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

RUNS = (
    ("search", "--n", "1", "--verify"),
    ("search", "--n", "2", "--verify"),
    ("search", "--n", "3", "--verify"),
    ("search", "--n", "4", "--verify"),
    ("search", "--n", "5", "--verify"),
    ("search", "--n", "6", "--verify"),
    ("search", "--n", "7"),
    ("search", "--n", "7", "--verify"),
    ("search", "--n", "8"),
    ("search", "--n", "8", "--verify"),
    ("analyze", "--n", "7", "--set", "b^2+b+a*b", "--verify"),
    ("analyze", "--n", "8", "--set", "b^2+b+a^2*b+a*b", "--verify"),
)

NOTE = (
    "Wall time and peak RSS of one CLI process per run, measured with no "
    "other benchmark running; the peak is the child's own ru_maxrss, read "
    "with os.wait4. The two single-graph analyze runs measure the per-process "
    "cost: start-up, imports and every per-n table built on the first call. "
    "The per-layer split of these runs is not recorded: it needs an opt-in "
    "--stats report from the CLI, which does not exist yet."
)


def time_run(src: Path, argv: tuple[str, ...]) -> dict:
    """Wall time, exit code, stdout digest and peak RSS of one CLI process."""
    env = dict(os.environ, PYTHONPATH=str(src))
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-m", "v8npst.cli", *argv],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
    )
    digest = hashlib.sha256(proc.stdout.read()).hexdigest()
    proc.stdout.close()
    # reap the child here, not in Popen.wait, to read its own rusage
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "argv": " ".join(argv),
        "wall_s": round(wall, 3),
        "exit": proc.returncode,
        "stdout_sha256": digest,
        "rss_peak_mb": round(usage.ru_maxrss / 1024, 1),  # ru_maxrss is in KiB on Linux
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True, help="key for this checkout's results")
    parser.add_argument("--out", required=True, type=Path, help="BENCH_*.json to update")
    parser.add_argument("--src", type=Path, default=REPO / "src", help="package source dir")
    args = parser.parse_args()

    doc = json.loads(args.out.read_text()) if args.out.exists() else {}
    doc["note"] = NOTE
    doc["host"] = {
        "cpus": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
    }
    results = []
    for argv in RUNS:
        result = time_run(args.src.resolve(), argv)
        print(json.dumps(result), file=sys.stderr)
        results.append(result)
    doc.setdefault("runs", {}).setdefault(args.label, []).append(results)
    args.out.write_text(json.dumps(doc, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
