#!/usr/bin/env python3
"""Spread report for the simbench benchmark.

Runs the command of BENCHMARK.json on every workload, interleaved (one run
of each workload per round, so slow drift of the host hits every workload
alike), each round with a fresh seed, and prints per metric and workload
the median, the quartiles and the spread (q3 - q1) / median next to the
metric's bound. With --sets 2 it makes two such sets and also prints how
far the second set's median moved from the first's, which is the check
the bounds are set for: a spread under a third of its bound, and a median
drift under the bound.

    python3 simbench/spread.py [--runs 10] [--sets 1] [--seed0 1]
                               [--workloads npb_b,rank_ring] [--json FILE]

Run it from the repository root. Exits 1 if a spread or drift breaks its
bound (setup_s is only held to the drift check), 0 otherwise.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(cmd, workload, seed, seconds):
    argv = cmd + ["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", "0"]
    p = subprocess.run(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                       text=True, timeout=900)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        sys.stderr.write(p.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {p.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect result {result}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def summarize(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / med if med else float("inf")
    return med, q1, q3, spread


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=1)
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--json", default="")
    a = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    cmd = bench["command"]
    seconds = bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]
    if a.workloads:
        workloads = a.workloads.split(",")
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    sets = []
    seed = a.seed0
    for s in range(a.sets):
        values = {w: {} for w in workloads}
        for r in range(a.runs):
            for w in workloads:
                for k, v in run_once(cmd, w, seed, seconds).items():
                    values[w].setdefault(k, []).append(v)
                print(f"set {s + 1} run {r + 1}/{a.runs} {w} seed {seed} done",
                      file=sys.stderr, flush=True)
            seed += 1
        sets.append(values)

    ok = True
    report = []
    print(f"{'workload':<16} {'metric':<26} {'median':>14} {'q1':>14} {'q3':>14}"
          f" {'spread':>8} {'bound':>6} {'drift':>8}  verdict")
    for w in workloads:
        for metric in sets[0][w]:
            rows = [summarize(st[w][metric]) for st in sets]
            med, q1, q3, spread = rows[0]
            bound = bounds.get(metric)
            drift = None
            verdict = ""
            if bound is not None:
                worst = max(r[3] for r in rows)
                if metric != "setup_s" and worst > bound:
                    verdict, ok = "SPREAD>BOUND", False
                elif metric != "setup_s" and worst > bound / 3:
                    verdict = "spread>bound/3"
                else:
                    verdict = "ok"
                if len(rows) > 1:
                    first = rows[0][0]
                    drift = max((r[0] - first) / first for r in rows[1:])
                    if drift > bound:
                        verdict, ok = "DRIFT>BOUND", False
            print(f"{w:<16} {metric:<26} {med:>14.6g} {q1:>14.6g} {q3:>14.6g}"
                  f" {spread:>8.4f} {bound if bound is not None else '-':>6}"
                  f" {drift if drift is not None else float('nan'):>8.4f}  {verdict}")
            report.append({"workload": w, "metric": metric, "sets": [
                {"median": r[0], "q1": r[1], "q3": r[2], "spread": r[3],
                 "values": st[w][metric]} for r, st in zip(rows, sets)],
                "bound": bound, "drift": drift})
    if a.json:
        with open(a.json, "w") as f:
            json.dump(report, f, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
