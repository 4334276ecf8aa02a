#!/usr/bin/env python3
"""aimg benchmark: closed-loop, single-client workloads with oracle checks.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; aimg is imported from its ``src`` tree and
the oracles reuse ``tests/oracle_helpers.py``.  A run makes cold passes over
the workload's op list (aimg's caches are emptied before each pass) and
checks every answer against an oracle that does not call the code under
test.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics of a traced run with
``--trace 1``.  ``--workload all`` runs every workload, each in its own
process.  See perfbench/README.md.
"""

import argparse
import importlib.util
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("classify-twists", "commutator-ramp", "point-queries")
# The run's own set-up plus eight more in child processes; setup_s is their
# median, since the interpreter imports aimg only once per process.  The
# children are spread between the passes: set-up time drifts over seconds
# on a shared machine, so samples taken back to back move together.
SETUP_CHILDREN = 8


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="time one set-up, print it and exit")
    return ap.parse_args(argv)


def use_checkout_sources():
    """Put the checkout's src/ and tests/ first on sys.path; False when the
    checkout has no aimg source tree."""
    src, tests = ROOT / "src", ROOT / "tests"
    if not (src / "aimg" / "__init__.py").is_file() \
            or not (tests / "oracle_helpers.py").is_file():
        return False
    sys.path[:0] = [str(src), str(tests)]
    origin = Path(importlib.util.find_spec("aimg").origin).resolve()
    return origin.is_relative_to(src)


def setup(name, seed):
    """Import aimg, load and validate the inputs and build the op list."""
    t0 = time.perf_counter()
    import workloads
    wl = workloads.WORKLOADS[name](seed)
    return wl, time.perf_counter() - t0


def child_setup_seconds(args):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
         "--seed", str(args.seed), "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    return float(proc.stdout.split()[-1])


def attempt(op):
    try:
        return op.call()
    except Exception as e:  # noqa: BLE001 - a failed op
        return e


def problem_of(op, out):
    """None when ``out`` is the right answer to ``op``, else what is wrong."""
    if isinstance(out, Exception):
        return "".join(traceback.format_exception_only(out)).strip()
    try:
        return op.check(out)
    except Exception as e:  # noqa: BLE001 - unverifiable answer
        return "check raised " + "".join(
            traceback.format_exception_only(e)).strip()


class Run:
    """Op timings, pass times and failures of the measured passes."""

    def __init__(self):
        self.samples = []
        self.walls = []
        self.failures = []   # (op, problem)

    def passes(self, wl, count, tracer=None, stats=None):
        import tracing
        for _ in range(count):
            tracing.clear_caches()
            wall = 0.0
            for op in wl.ops:
                if tracer is not None:
                    tracer.stats = stats
                t0 = time.perf_counter()
                out = attempt(op)
                dt = time.perf_counter() - t0
                if tracer is not None:
                    tracer.stats = None
                wall += dt
                self.samples.append(dt)
                self.check(op, out)
            if stats is not None:
                stats.read_caches()
            self.walls.append(wall)

    def check(self, op, out):
        problem = problem_of(op, out)
        if problem is not None:
            self.failures.append((op, problem))

    def result(self, metrics, diagnostics_ok):
        return {"correct": not self.failures and diagnostics_ok,
                "attempted": len(self.samples),
                "failed": len(self.failures),
                "metrics": {k: {"value": v, "unit": u}
                            for k, (v, u) in metrics.items()}}


def tail(samples):
    """The highest percentile with at least ten samples beyond it:
    (value, percentile)."""
    ordered = sorted(samples)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def pass_count(seconds, wl):
    return max(1, round(seconds / wl.nominal_pass_s))


def end_to_end(args):
    wl, first = setup(args.workload, args.seed)
    setups = [first]
    run = Run()
    count = pass_count(args.seconds, wl)
    for gap in range(count + 1):
        share = (SETUP_CHILDREN * (gap + 1) // (count + 1)
                 - SETUP_CHILDREN * gap // (count + 1))
        setups += [child_setup_seconds(args) for _ in range(share)]
        if gap < count:
            run.passes(wl, 1)
    value, pct = tail(run.samples)
    ok = len(run.samples) - len(run.failures)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(run.walls), "s"),
        "ops_per_s": (len(run.samples) / sum(run.walls), "1/s"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "ops_ok_ratio": (ok / len(run.samples), "ratio"),
    }
    # Printed, not in the result: see "Op latency" in README.md.
    notes = [f"{len(run.walls)} cold passes of {len(wl.ops)} ops",
             f"op_p50_s {statistics.median(run.samples):.6g} s",
             f"op_tail_s {value:.6g} s (p{pct:.1f} over "
             f"{len(run.samples)} ops)",
             f"ops_failed_ratio {len(run.failures) / len(run.samples):.4f} "
             f"({len(run.failures)} of {len(run.samples)})"]
    return wl, run, metrics, notes


def diagnose(wl):
    """Run each diagnostic once, untimed: (lines to print, True when every
    one passed or failed in an expected way)."""
    lines, ok = [], True
    for op, expected in wl.diagnostics:
        problem = problem_of(op, attempt(op))
        if problem is None:
            verdict = "passes; the known defect looks fixed"
        elif problem in expected:
            verdict = "fails as documented"
        else:
            verdict, ok = "FAILS in an undocumented way", False
        lines.append(f"  diagnostic {op.label}: {verdict}"
                     + (f": {problem}" if problem else ""))
    return lines, ok


def traced(args):
    """Per-layer metrics.  Untraced and traced passes alternate, so that
    their difference, the tracing overhead, sees the same machine state."""
    import tracing
    setup(args.workload, args.seed)   # imports aimg before it is wrapped
    tracer = tracing.Tracer()
    setup_stats, pass_stats = tracing.Stats(), tracing.Stats()
    tracer.install()
    tracing.clear_caches()
    tracer.stats = setup_stats
    wl, _ = setup(args.workload, args.seed)
    tracer.stats = None
    setup_stats.read_caches()
    tracer.uninstall()

    count = pass_count(args.seconds / 2, wl)
    plain, run = Run(), Run()
    for _ in range(count):
        plain.passes(wl, 1)
        tracer.install()
        run.passes(wl, 1, tracer, pass_stats)
        tracer.uninstall()

    metrics = tracing.per_layer_metrics(setup_stats, pass_stats, count)
    untraced_s = statistics.median(plain.walls)
    traced_s = statistics.median(run.walls)
    metrics["trace.wall_untraced_s"] = (untraced_s, "s")
    metrics["trace.wall_traced_s"] = (traced_s, "s")
    metrics["trace.overhead_s"] = (traced_s - untraced_s, "s")
    run.samples += plain.samples
    run.failures += plain.failures
    notes = [f"{count} untraced and {count} traced cold passes of "
             f"{len(wl.ops)} ops; per-layer figures are one traced set-up "
             f"plus the mean traced pass"]
    return wl, run, metrics, notes


def run_all(args):
    results = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"perfbench: workload {name} exited with "
                  f"{proc.returncode}", file=sys.stderr)
            return proc.returncode
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0


def main(argv=None):
    args = parse_args(argv)
    if not use_checkout_sources():
        print(f"perfbench: no aimg source tree (src/aimg and "
              f"tests/oracle_helpers.py) under {ROOT}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    if args.setup_only:
        print(setup(args.workload, args.seed)[1])
        return 0

    wl, run, metrics, notes = (traced if args.trace else end_to_end)(args)
    diagnostics, diagnostics_ok = diagnose(wl)
    print(f"workload {args.workload} seed {args.seed}: " + "; ".join(notes))
    for name, (value, unit) in metrics.items():
        print(f"  {name:<52} {value:>14.6g} {unit}")
    repeats = {}
    for op, problem in run.failures:
        repeats[op, problem] = repeats.get((op, problem), 0) + 1
    for (op, problem), times in repeats.items():
        print(f"  FAILED x{times}: {op.label}: {problem}")
    for line in diagnostics:
        print(line)
    print(json.dumps(run.result(metrics, diagnostics_ok)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
