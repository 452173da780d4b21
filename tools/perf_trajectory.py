#!/usr/bin/env python3
"""Measure perfbench's end-to-end metrics for commits, as one batch.

    python3 tools/perf_trajectory.py COMMIT...

For each commit, extracts its tree with `git archive` into a temporary
directory and runs that tree's own `perfbench/run.py --workload W` at
the defaults (seed 1, 30 s, untraced) for every workload in the tree's
BENCHMARK.json. Five rounds; each round visits the commits in a rotated
order, so slow host drift spreads over every row. Stops on any run that
fails or reports "correct": false. Progress goes to stderr; stdout gets
one JSON row per commit, ready to append to
examples/perf/trajectory.jsonl (schema in examples/perf/README.md).
"""

import datetime
import json
import os
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROUNDS = 5


def git(*args, **kwargs):
    return subprocess.run(["git", *args], cwd=ROOT, check=True, **kwargs)


def extract(commit, tree):
    """Writes the commit's tree into the directory @p tree."""
    os.makedirs(tree)
    archive = subprocess.Popen(["git", "archive", commit], cwd=ROOT,
                               stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", tree], stdin=archive.stdout,
                   check=True)
    archive.stdout.close()
    if archive.wait():
        sys.exit(f"perf_trajectory: git archive {commit} failed")


def run(tree, workload):
    """Runs one workload; returns (result line, detail line) as JSON."""
    proc = subprocess.run(
        [sys.executable, os.path.join(tree, "perfbench", "run.py"),
         "--workload", workload], capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode or len(lines) < 2:
        sys.stderr.write(proc.stderr + proc.stdout)
        sys.exit(f"perf_trajectory: {tree}: {workload} exited "
                 f"{proc.returncode}")
    result, detail = json.loads(lines[-1]), json.loads(lines[-2])
    if not result["correct"]:
        sys.stderr.write(proc.stdout)
        sys.exit(f"perf_trajectory: {tree}: {workload} is not correct")
    return result, detail


def quartiles(values):
    q1, median, q3 = (float(f"{q:.6g}") for q in statistics.quantiles(
        values, n=4, method="inclusive"))
    return {"median": median, "q1": q1, "q3": q3}


def main():
    commits = sys.argv[1:]
    if not commits or any(c.startswith("-") for c in commits):
        sys.exit("usage: python3 tools/perf_trajectory.py COMMIT...")
    recorded = datetime.datetime.now(datetime.timezone.utc).strftime(
        "%Y-%m-%dT%H:%M:%SZ")
    rows = []
    with tempfile.TemporaryDirectory(prefix="perf_trajectory.") as tmp:
        for i, commit in enumerate(commits):
            short, subject = git("log", "-1", "--format=%h%n%s", commit,
                                 capture_output=True,
                                 text=True).stdout.splitlines()
            tree = os.path.join(tmp, str(i))
            extract(commit, tree)
            with open(os.path.join(tree, "BENCHMARK.json")) as f:
                spec = json.load(f)
            rows.append({
                "commit": short, "subject": subject, "tree": tree,
                "workloads": [w["name"] for w in spec["workloads"]],
                "metrics": [m["name"] for m in spec["end_to_end"]],
                "samples": {}, "fingerprint": None})

        for r in range(ROUNDS):
            for row in rows[r % len(rows):] + rows[:r % len(rows)]:
                for workload in row["workloads"]:
                    result, detail = run(row["tree"], workload)
                    row["fingerprint"] = row["fingerprint"] or \
                        detail["fingerprint"]
                    samples = row["samples"].setdefault(workload, {})
                    for m in row["metrics"]:
                        samples.setdefault(m, []).append(
                            result["metrics"][m]["value"])
                    rate = result["metrics"]["sim_cycles_per_s"]["value"]
                    print(f"round {r + 1}/{ROUNDS} {row['commit']} "
                          f"{workload} sim_cycles_per_s={rate:.0f}",
                          file=sys.stderr, flush=True)

    for row in rows:
        print(json.dumps({
            "commit": row["commit"], "subject": row["subject"],
            "recorded": recorded, "fingerprint": row["fingerprint"],
            "rounds": ROUNDS,
            "workloads": {
                w: {m: quartiles(v) for m, v in metrics.items()}
                for w, metrics in row["samples"].items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
