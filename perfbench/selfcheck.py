#!/usr/bin/env python3
"""Run the benchmark on one commit twice over and compare with its bounds.

    python3 perfbench/selfcheck.py [--runs 10]

Each of two sets makes ``--runs`` runs of every workload in BENCHMARK.json,
each run with its own seed and BENCHMARK.json's ``run_seconds``, through
its ``command``.  For every end-to-end metric it prints, per set, the
spread (distance between the first and third quartiles as a share of the
median, from statistics.quantiles(n=4)) and the change of the second set's
median against the first's, in the metric's worse direction, next to the
metric's bound.  A metric fails when a spread or the change exceeds its
bound.  Exits with status 1 when a metric fails or a run reports a wrong
answer.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETS = 2


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def worsening(metric, first, second):
    change = (second - first) / first
    return change if metric["better"] == "lower" else -change


def one_run(command, workload, seed, seconds):
    proc = subprocess.run(
        command + ["--workload", workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=900, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    args = ap.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    metrics = bench["end_to_end"]

    values = {}   # (set, workload, metric) -> list
    wrong = 0
    for s in range(SETS):
        for w in workloads:
            for r in range(args.runs):
                seed = 1000 * s + r + 1
                res = one_run(bench["command"], w, seed, bench["run_seconds"])
                wrong += not res["correct"]
                print(f"set {s + 1} {w} seed {seed}: correct={res['correct']} "
                      f"failed={res['failed']}/{res['attempted']} " + " ".join(
                          f"{m['name']}={res['metrics'][m['name']]['value']:.4g}"
                          for m in metrics), file=sys.stderr, flush=True)
                for m in metrics:
                    values.setdefault((s, w, m["name"]), []).append(
                        res["metrics"][m["name"]]["value"])

    failed = wrong > 0
    report = []
    print(f"{'workload':<16} {'metric':<12} {'bound':>6} "
          f"{'spread1':>8} {'spread2':>8} {'change':>8}  verdict")
    for w in workloads:
        for m in metrics:
            sets = [values[s, w, m["name"]] for s in range(SETS)]
            spreads = [spread(v) for v in sets]
            medians = [statistics.median(v) for v in sets]
            change = worsening(m, *medians)
            ok = max(spreads) <= m["bound"] and change <= m["bound"]
            failed = failed or not ok
            report.append({"workload": w, "metric": m["name"],
                           "bound": m["bound"], "medians": medians,
                           "spreads": spreads, "change": change, "ok": ok})
            print(f"{w:<16} {m['name']:<12} {m['bound']:>6.3f} "
                  + " ".join(f"{x:>8.4f}" for x in spreads)
                  + f" {change:>+8.4f}" + ("  ok" if ok else "  FAIL"))
    print(json.dumps({"ok": not failed, "wrong_runs": wrong,
                      "rows": report}))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
