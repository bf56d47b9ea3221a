#!/usr/bin/env python3
"""Summarise perfbench/run.py transcripts into BENCH_perfbench.json.

Usage:
    perfbench_record.py FILE...

Each FILE is the stdout of one `python3 perfbench/run.py --trace 0` run and
is named after its workload: `<workload>.<anything>` (run_bench.sh
--perfbench writes `cold_solve.1.txt`, ...). The summariser reads each
file's `fingerprint {...}` line and its final JSON line. It refuses (exit 1,
nothing written) when a run is not `correct`, has failed operations, lacks
either line, or has a fingerprint that differs from the other runs of its
workload. Otherwise it writes BENCH_perfbench.json to the current directory:
the commit measured, and per workload the fingerprint, the run count and,
for each end-to-end metric, its median, q1, q3 and unit.
"""

import json
import statistics
import subprocess
import sys
from pathlib import Path

OUT = "BENCH_perfbench.json"


def refuse(message):
    sys.exit(f"perfbench_record: {message}; {OUT} not written")


def read_run(path):
    fingerprint, result = None, None
    for line in path.read_text().splitlines():
        if line.startswith("fingerprint "):
            fingerprint = json.loads(line[len("fingerprint "):])
        elif line.startswith("{"):
            result = json.loads(line)
    if fingerprint is None or result is None:
        refuse(f"{path} has no fingerprint or result line")
    if not result["correct"] or result["failed"] > 0:
        refuse(f"{path} is not a correct run (correct={result['correct']},"
               f" failed={result['failed']})")
    return fingerprint, result["metrics"]


def quartiles(values):
    if len(values) == 1:
        return values * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def commit():
    root = Path(__file__).resolve().parent.parent
    proc = subprocess.run(["git", "-C", str(root), "describe", "--always",
                           "--dirty", "--abbrev=40"], capture_output=True,
                          text=True)
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def main(paths):
    if not paths:
        sys.exit(__doc__)
    runs = {}
    for path in map(Path, paths):
        runs.setdefault(path.name.split(".")[0], []).append(read_run(path))
    workloads = {}
    for workload, entries in sorted(runs.items()):
        fingerprint = entries[0][0]
        for other, _ in entries[1:]:
            if other != fingerprint:
                refuse(f"{workload} runs differ in fingerprint: {fingerprint}"
                       f" vs {other}")
        metrics = {}
        for name, first in entries[0][1].items():
            q1, median, q3 = quartiles([m[name]["value"] for _, m in entries])
            metrics[name] = {"median": median, "q1": q1, "q3": q3,
                             "unit": first["unit"]}
            print(f"{workload} {name}: median {median:.6g} {first['unit']}"
                  f" [q1 {q1:.6g}, q3 {q3:.6g}]")
        workloads[workload] = {"fingerprint": fingerprint,
                               "runs": len(entries), "metrics": metrics}
    record = {"schema": "specmatch-perfbench-v1", "commit": commit(),
              "workloads": workloads}
    Path(OUT).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"wrote {OUT}")


if __name__ == "__main__":
    main(sys.argv[1:])
