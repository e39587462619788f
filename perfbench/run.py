#!/usr/bin/env python3
"""Study benchmark: one workload of the reliability study per run.

Run from the root of a checkout:

    python3 perfbench/run.py --workload permanent-faults --seed 2017 --seconds 55 --trace 0

It builds the `perfbench` package (a package of its own, depending on the
repository's crates by path), runs the chosen workload in a child process,
checks every point's results, and prints as its last line one JSON object:
`{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
metrics are the end-to-end ones of BENCHMARK.json; with `--trace 1` they
are the per-layer ones, and the layer spans are written to
`perfbench/out/`.

A point fails when evaluate_point returns an error, its fault-free output
differs from the workload's host-computed reference, a repeated study or
the traced composition disagrees with the first study, or, at a seed with
recorded values in `perfbench/expected/`, any recorded field differs.

`--record` writes the recorded values for the given seed from a traced run.
"""

import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("adaptive-margin", "permanent-faults")
# Workload seed whose values are recorded but which was not used while the
# benchmark was tuned; a later claim can be confirmed on it.
HELD_OUT_SEED = 4099
# A run must end within 180 s; the child is stopped before that.
CHILD_TIMEOUT_S = 170
# Fields of each point that must match the recorded values exactly.
POINT_KEYS = ("device", "workload", "fault_model", "cycles")
STRUCTURE_KEYS = ("avf_ace", "occupancy", "avf_fi", "tally")
ADAPTIVE_KEYS = ("structure", "sampled", "replayed", "rounds")


def expected_path(workload, seed):
    return os.path.join(HERE, "expected", f"{workload}-seed{seed}.json")


def build():
    """Builds the benchmark binary and returns its path, or exits nonzero."""
    manifest = os.path.join(HERE, "Cargo.toml")
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        sys.exit("error: building the benchmark failed")
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    return os.path.join(target, "release", "perfbench")


def recorded_view(point):
    """The part of a point's facts that is recorded and compared."""
    view = {k: point.get(k) for k in POINT_KEYS}
    for s in ("rf", "lds"):
        if s in point:
            view[s] = {k: point[s][k] for k in STRUCTURE_KEYS}
    if "adaptive" in point:
        view["adaptive"] = [{k: a[k] for k in ADAPTIVE_KEYS} for a in point["adaptive"]]
    return view


def point_failures(point, want):
    """Reasons a point fails its checks; empty when it passes.

    `want` is the recorded view of the same point, or None when the seed
    has no recorded values.
    """
    reasons = []
    if point.get("error"):
        reasons.append(f"error: {point['error']}")
    if point.get("reference_ok") is not True:
        reasons.append("fault-free output differs from the reference")
    reasons.extend(point.get("problems", []))
    if want is None:
        return reasons
    got = recorded_view(point)
    for k in POINT_KEYS:
        if got[k] != want.get(k):
            reasons.append(f"{k}: got {got[k]!r}, recorded {want.get(k)!r}")
    for s in ("rf", "lds"):
        for k in STRUCTURE_KEYS:
            g, w = got.get(s, {}).get(k), want.get(s, {}).get(k)
            if g != w:
                reasons.append(f"{s}.{k}: got {g!r}, recorded {w!r}")
    # Adaptive sampled/replayed/rounds are only measured in traced runs.
    if "adaptive" in got and got["adaptive"] != want.get("adaptive"):
        reasons.append(f"adaptive: got {got['adaptive']!r}, recorded {want.get('adaptive')!r}")
    return reasons


def check(points, recorded):
    """Maps each failing point's index to its reasons."""
    if recorded is not None and len(recorded) != len(points):
        return {-1: [f"{len(points)} points, {len(recorded)} recorded"]}
    failures = {}
    for i, p in enumerate(points):
        reasons = point_failures(p, None if recorded is None else recorded[i])
        if reasons:
            failures[i] = reasons
    return failures


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=2017)
    ap.add_argument("--seconds", type=float, default=55)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true", help="record this seed's values (traced)")
    args = ap.parse_args()
    if args.seed < 0:
        sys.exit("error: --seed must be non-negative")

    exe = build()
    trace = 1 if args.record else args.trace
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(trace)]
    if trace:
        out_dir = os.path.join(HERE, "out")
        os.makedirs(out_dir, exist_ok=True)
        cmd += ["--spans", os.path.join(out_dir, f"spans-{args.workload}-seed{args.seed}.jsonl")]
    try:
        child = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"error: the benchmark did not finish within {CHILD_TIMEOUT_S} s")
    lines = child.stdout.rstrip("\n").split("\n")
    if child.returncode != 0 or not lines[-1].startswith("{"):
        sys.stdout.write(child.stdout)
        sys.exit(f"error: the benchmark exited with code {child.returncode}")
    facts = json.loads(lines[-1])
    print("\n".join(lines[:-1]))
    points = facts["points"]
    for name, m in facts["metrics"].items():
        if not isinstance(m["value"], (int, float)) or not math.isfinite(m["value"]):
            sys.exit(f"error: metric {name} has no finite value: {m['value']!r}")

    if args.record:
        failures = check(points, None)
        if failures:
            sys.exit(f"error: not recording, points fail their checks: {failures}")
        os.makedirs(os.path.dirname(expected_path(args.workload, args.seed)), exist_ok=True)
        with open(expected_path(args.workload, args.seed), "w") as f:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "points": [recorded_view(p) for p in points]}, f, indent=1)
            f.write("\n")
        print(f"recorded {len(points)} points to {expected_path(args.workload, args.seed)}")

    path = expected_path(args.workload, args.seed)
    recorded = None
    if os.path.exists(path):
        with open(path) as f:
            recorded = json.load(f)["points"]
    failures = check(points, recorded)
    for i, reasons in sorted(failures.items()):
        name = f"{points[i]['workload']}@{points[i]['device']}" if i >= 0 else "study"
        print(f"FAILED {name}: {'; '.join(reasons)}")
    print(f"checked {len(points)} points against "
          f"{'recorded values and ' if recorded is not None else ''}the references; "
          f"{len(failures)} failed")
    print(json.dumps({
        "correct": not failures,
        "attempted": len(points),
        "failed": len(failures),
        "metrics": facts["metrics"],
    }))


if __name__ == "__main__":
    main()
