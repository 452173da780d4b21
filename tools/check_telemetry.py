#!/usr/bin/env python3
"""Validate dcl1sim telemetry artifacts.

Checks the three telemetry outputs for structural sanity so CI can
catch a malformed emitter before a human tries to plot the data:

  timeline JSONL (--timeline FILE ...):
    - every line parses as one JSON object
    - required fields: cycle (int), dt (int >= 1), phase
      ("warmup"|"measure")
    - cycles strictly increase line to line; dt never exceeds the
      cycle gap
    - phase never flips back from "measure" to "warmup"
    - every row carries the same metric keys (one schema per file)

  Chrome trace JSON (--trace FILE ...):
    - parses; top-level "traceEvents" list
    - every event has ph in {"X", "C"}, integer ts >= 0
    - "X" events carry a name and an integer dur >= 0
    - "C" events carry args.value
    - the slices of each request track (pid, tid) tile time: sorted by
      ts, each starts where the one before it ends, with no gap and no
      overlap (the host-phase process, pid 3, nests by design and is
      skipped)

  stats JSON (--stats FILE ...):
    - parses as one object with a "name" field; every "dists" entry
      carries count/sum/p50/p95/p99 and a buckets list

Exits non-zero on the first structural problem, printing file:line
context. Empty timelines (zero rows) fail: an enabled timeline that
emitted nothing is a wiring bug, not a quiet success.
"""

import argparse
import json
import sys

HOST_PHASE_PID = 3


def fail(msg):
    print(f"check_telemetry: {msg}", file=sys.stderr)
    sys.exit(1)


def check_timeline(path):
    keys = None
    last_cycle = None
    seen_measure = False
    rows = 0
    with open(path, encoding="utf-8") as f:
        for ln, line in enumerate(f, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                row = json.loads(line)
            except json.JSONDecodeError as e:
                fail(f"{path}:{ln}: bad JSON: {e}")
            if not isinstance(row, dict):
                fail(f"{path}:{ln}: row is not an object")
            for field, typ in (("cycle", int), ("dt", int)):
                if not isinstance(row.get(field), typ):
                    fail(f"{path}:{ln}: missing/invalid '{field}'")
            if row["dt"] < 1:
                fail(f"{path}:{ln}: dt {row['dt']} < 1")
            phase = row.get("phase")
            if phase not in ("warmup", "measure"):
                fail(f"{path}:{ln}: bad phase {phase!r}")
            if phase == "measure":
                seen_measure = True
            elif seen_measure:
                fail(f"{path}:{ln}: phase went back to warmup")
            if last_cycle is not None:
                if row["cycle"] <= last_cycle:
                    fail(
                        f"{path}:{ln}: cycle {row['cycle']} not after "
                        f"{last_cycle}"
                    )
                if row["dt"] > row["cycle"] - last_cycle:
                    fail(
                        f"{path}:{ln}: dt {row['dt']} exceeds the "
                        f"cycle gap"
                    )
            last_cycle = row["cycle"]
            row_keys = frozenset(row) - {"cycle", "dt", "phase"}
            if keys is None:
                keys = row_keys
            elif row_keys != keys:
                fail(f"{path}:{ln}: metric keys differ from first row")
            rows += 1
    if rows == 0:
        fail(f"{path}: timeline has no rows")
    print(f"check_telemetry: {path}: {rows} row(s), "
          f"{len(keys)} metric(s) OK")


def check_trace(path):
    with open(path, encoding="utf-8") as f:
        try:
            doc = json.load(f)
        except json.JSONDecodeError as e:
            fail(f"{path}: bad JSON: {e}")
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        fail(f"{path}: no traceEvents list")
    slices = counters = 0
    tracks = {}
    for i, e in enumerate(events):
        ph = e.get("ph")
        if ph not in ("X", "C"):
            fail(f"{path}: event {i}: bad ph {ph!r}")
        ts = e.get("ts")
        if not isinstance(ts, int) or ts < 0:
            fail(f"{path}: event {i}: bad ts {ts!r}")
        if ph == "X":
            if not e.get("name"):
                fail(f"{path}: event {i}: slice without a name")
            dur = e.get("dur")
            if not isinstance(dur, int) or dur < 0:
                fail(f"{path}: event {i}: bad dur {dur!r}")
            if e.get("pid") != HOST_PHASE_PID:
                key = (e.get("pid"), e.get("tid"))
                tracks.setdefault(key, []).append((ts, dur))
            slices += 1
        else:
            value = e.get("args", {}).get("value")
            if not isinstance(value, (int, float)):
                fail(f"{path}: event {i}: counter without args.value")
            counters += 1
    for (pid, tid), spans in tracks.items():
        spans.sort()
        for (ts, dur), (nxt, _) in zip(spans, spans[1:]):
            if nxt != ts + dur:
                what = "gap" if nxt > ts + dur else "overlap"
                fail(f"{path}: track pid {pid} tid {tid}: {what} "
                     f"between the slice at {ts} (dur {dur}) and the "
                     f"one at {nxt}")
    print(f"check_telemetry: {path}: {slices} slice(s) on "
          f"{len(tracks)} request track(s), {counters} counter "
          f"sample(s) OK")


def check_dists(path, node, prefix=""):
    for name, d in node.get("dists", {}).items():
        where = f"{path}: dist {prefix}{name}"
        for field in ("count", "sum", "p50", "p95", "p99"):
            if not isinstance(d.get(field), (int, float)):
                fail(f"{where}: missing/invalid '{field}'")
        if not isinstance(d.get("buckets"), list):
            fail(f"{where}: missing buckets list")
    for child in node.get("children", []):
        check_dists(path, child, f"{prefix}{child.get('name', '?')}.")


def check_stats(path):
    with open(path, encoding="utf-8") as f:
        try:
            doc = json.load(f)
        except json.JSONDecodeError as e:
            fail(f"{path}: bad JSON: {e}")
    if not isinstance(doc, dict) or "name" not in doc:
        fail(f"{path}: not a stats tree (no name)")
    check_dists(path, doc)
    print(f"check_telemetry: {path}: stats tree OK")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--timeline", action="append", default=[],
                    metavar="FILE", help="timeline JSONL to validate")
    ap.add_argument("--trace", action="append", default=[],
                    metavar="FILE", help="Chrome trace JSON to validate")
    ap.add_argument("--stats", action="append", default=[],
                    metavar="FILE", help="stats JSON dump to validate")
    args = ap.parse_args()
    if not (args.timeline or args.trace or args.stats):
        ap.error("nothing to check (pass --timeline/--trace/--stats)")
    for path in args.timeline:
        check_timeline(path)
    for path in args.trace:
        check_trace(path)
    for path in args.stats:
        check_stats(path)
    print("check_telemetry: all OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
