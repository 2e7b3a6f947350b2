#!/usr/bin/env python3
"""Steadiness check for the benchmark defined in BENCHMARK.json.

    python3 perfbench/steady.py [--runs 10] [--workload W ...] [--trace]

Run from the root of the source tree. For each workload it makes two
sets of --runs runs of run_seconds each, each run with its own --seed,
alternating between the sets run by run (set A takes seeds 1..N, set B
seeds 101..100+N), and prints for every end-to-end metric each set's
median, quartiles and spread (the distance between the quartiles as a
share of the median), and the gap between the two sets' medians,
against the metric's bound. A spread or a gap above the bound, or
different failed-op shares in the two sets, mark the line FAIL; a
spread above a third of the bound marks it WIDE.

It also prints, per workload, how the calibration behaves over all
runs: the correlation between a run's median kernel time and its
unscaled op p50, and the spread of the unscaled op p50 beside that of
the scaled one.

A run that exits non-zero or reports incorrect outputs is listed
with the tail of its output and marks the whole check FAIL.

With --trace it also makes one traced run per workload and prints the
traced op time against the untraced median: the tracing overhead.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(spec, workload, seed, trace):
    cmd = spec["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", "1" if trace else "0",
    ]
    t0 = time.time()
    out = subprocess.run(cmd, cwd=ROOT, stdin=subprocess.DEVNULL,
                         stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                         text=True)
    wall = time.time() - t0
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines or not json.loads(lines[-1])["correct"]:
        print(f"{workload} seed {seed}: exit {out.returncode}\n"
              + "\n".join(lines[-5:] + out.stderr.splitlines()[-20:]), file=sys.stderr)
        return None, wall
    result = json.loads(lines[-1])
    for line in lines:
        if line.startswith("calibration "):
            result["calibration"] = json.loads(line[len("calibration "):])
    return result, wall


def stats(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2 if q2 else float("inf")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workload", action="append")
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    bases = [1, 101]
    results = {(w, s): [] for w in workloads for s in range(2)}
    walls, broken = [], []
    for i in range(args.runs):
        order = [1, 0] if i % 2 else [0, 1]
        for s in order:
            for w in workloads:
                r, wall = run_once(spec, w, bases[s] + i, False)
                if r is None:
                    broken.append(f"{w} seed {bases[s] + i}")
                else:
                    results[(w, s)].append(r)
                walls.append(wall)
                print(f"run {i} set {'AB'[s]} {w}: {wall:.1f}s", file=sys.stderr)
    ok = not broken
    for b in broken:
        print(f"FAIL: run {b} exited non-zero or gave incorrect outputs")
    for w in workloads:
        print(f"\n{w}")
        shares = []
        for s in range(2):
            rs = results[(w, s)]
            shares.append(sum(r["failed"] for r in rs) / sum(r["attempted"] for r in rs))
            ops = sorted(r["attempted"] for r in rs)
            print(f"  set {'AB'[s]}: ops per run {ops[0]}..{ops[-1]}, failed share {shares[-1]:.4f}")
        if len(set(shares)) > 1:
            ok = False
            print("  FAIL: failed shares differ between the sets")
        for name, bound in bounds.items():
            meds, cells, verdict = [], [], "ok"
            for s in range(2):
                q1, q2, q3, spread = stats([r["metrics"][name]["value"] for r in results[(w, s)]])
                meds.append(q2)
                cells.append(f"{'AB'[s]} {q2:10.4g} [{q1:.4g}, {q3:.4g}] spread {spread:6.3f}")
                if spread > bound:
                    verdict = "FAIL"
                elif spread > bound / 3 and verdict == "ok":
                    verdict = "WIDE"
            g = (meds[1] - meds[0]) / meds[0]
            if abs(g) > bound:
                verdict = "FAIL"
            if verdict == "FAIL":
                ok = False
            print(f"  {name:13s} bound {bound:.2f}: " + " | ".join(cells)
                  + f" gap {g:+.3f}  {verdict}")
        runs = results[(w, 0)] + results[(w, 1)]
        kernel = [r["calibration"]["kernel_ms"] for r in runs]
        raw = [r["calibration"]["op_p50_unscaled_ms"] for r in runs]
        scaled = [r["metrics"]["op_p50_ms"]["value"] for r in runs]
        print(f"  calibration over {len(runs)} runs: kernel median {statistics.median(kernel):.2f} ms "
              f"[{min(kernel):.2f}, {max(kernel):.2f}]; corr(kernel, unscaled op p50) "
              f"{statistics.correlation(kernel, raw):+.3f}; op p50 spread unscaled "
              f"{stats(raw)[3]:.3f}, scaled {stats(scaled)[3]:.3f}; kernels redone "
              f"{sum(r['calibration']['kernels_redone'] for r in runs)}")
        if args.trace:
            r, _ = run_once(spec, w, 1, True)
            if r is None:
                ok = False
                print("  FAIL: the traced run exited non-zero or gave incorrect outputs")
                continue
            traced = r["metrics"]["trace.op_ms"]["value"]
            untraced = statistics.median(x["metrics"]["op_p50_ms"]["value"] for x in results[(w, 0)])
            share = r["metrics"]["trace.span_share"]["value"]
            print(f"  traced op {traced:.1f} ms vs untraced median {untraced:.1f} ms: "
                  f"overhead {traced / untraced - 1:+.3f}; spans cover {share:.3f} of the op")
    print(f"\nmean run wall {statistics.mean(walls):.1f}s over {len(walls)} runs")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
