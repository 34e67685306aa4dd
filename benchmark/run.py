#!/usr/bin/env python3
"""Entry point of the anyblock benchmark (see benchmark/README.md).

Run from the repository root:

  python3 benchmark/run.py --workload run-coarse --seed 1 --seconds 20 --trace 0
      Builds benchmark/ (and the repository through it) into .bench_build/
      when needed, then runs anyblock_bench with the same arguments.  The
      last line on stdout is the result JSON.  Any anyblock_bench flag works
      here too (--out, --quick, --self-test, ...).

  python3 benchmark/run.py --compare A.json B.json
      Compares two `--out` results files under the bounds in BENCHMARK.json:
      one row per workload and end-to-end metric, exit 1 if any row is worse
      or unresolved.

  python3 benchmark/run.py --check RESULTS.json TRACE_DIR
      Checks a results file against BENCHMARK.json (every listed metric,
      units, gates) and the traced pass's files against a JSON parser.
"""
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
SPEC = os.path.join(ROOT, "BENCHMARK.json")
# setup_s only counts as worse when it also rises by more than this (s):
# set-up takes milliseconds in some workloads, where a relative bound alone
# would flag scheduler noise.
ABSOLUTE_FLOOR = {"setup_s": 0.05}


def build():
    """Configures (once) and builds anyblock_bench; build logs go to stderr."""
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(BUILD, "Makefile")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs,
                    "--target", "anyblock_bench"],
                   stdout=sys.stderr, check=True)
    return os.path.join(BUILD, "anyblock_bench")


def load(path):
    with open(path) as handle:
        return json.load(handle)


def end_to_end_runs(results):
    return {run["workload"]: run for run in results["runs"] if run["trace"] == 0}


def spread(metric):
    """Quartile distance of a run's median estimate, relative to it: the
    raw samples' (q3 - q1) / median shrunk by sqrt(n), as the median of n
    samples spreads that much less than one sample."""
    if metric["n"] < 2 or metric["median"] == 0:
        return 0.0
    return (metric["q3"] - metric["q1"]) / abs(metric["median"]) / math.sqrt(metric["n"])


def verdict(spec, before, after):
    """improved | unchanged | worse | unresolved, and the relative change
    (positive = worse)."""
    sign = 1.0 if spec["better"] == "lower" else -1.0
    change = sign * (after["median"] - before["median"]) / abs(before["median"])
    floor = ABSOLUTE_FLOOR.get(spec["name"], 0.0)
    worse = change > spec["bound"] and \
        sign * (after["median"] - before["median"]) > floor
    if max(spread(before), spread(after)) > spec["bound"]:
        # Too noisy to call, unless every sample of one side beats every
        # sample of the other.
        if all(sign * (a - b) < 0 for a in after["samples"] for b in before["samples"]):
            return "improved", change
        if all(sign * (a - b) > 0 for a in after["samples"] for b in before["samples"]):
            return "worse", change
        return "unresolved", change
    if worse:
        return "worse", change
    if change < -spec["bound"]:
        return "improved", change
    return "unchanged", change


def compare(path_a, path_b):
    specs = load(SPEC)["end_to_end"]
    runs_a = end_to_end_runs(load(path_a))
    runs_b = end_to_end_runs(load(path_b))
    failing = 0
    print(f"{'workload':22s} {'metric':14s} {'before':>12s} {'after':>12s} "
          f"{'change':>8s} {'bound':>6s}  verdict")
    for workload in sorted(set(runs_a) & set(runs_b)):
        a, b = runs_a[workload], runs_b[workload]
        rate_a = a["failed"] / max(a["attempted"], 1)
        rate_b = b["failed"] / max(b["attempted"], 1)
        row = "worse" if rate_b > rate_a else "unchanged"
        failing += row == "worse"
        print(f"{workload:22s} {'error_rate':14s} {rate_a:12.4g} {rate_b:12.4g} "
              f"{'':>8s} {0:6.2f}  {row}")
        for spec in specs:
            before = a["metrics"].get(spec["name"])
            after = b["metrics"].get(spec["name"])
            if before is None or after is None or before["n"] == 0 or after["n"] == 0:
                row, change = "unresolved", float("nan")
            else:
                row, change = verdict(spec, before, after)
            failing += row in ("worse", "unresolved")
            print(f"{workload:22s} {spec['name']:14s} "
                  f"{(before or {}).get('median', float('nan')):12.5g} "
                  f"{(after or {}).get('median', float('nan')):12.5g} "
                  f"{change:+8.1%} {spec['bound']:6.2f}  {row}")
    missing = set(runs_a) ^ set(runs_b)
    for workload in sorted(missing):
        print(f"{workload:22s} only in one file  unresolved")
    return 1 if failing or missing else 0


def check(results_path, trace_dir):
    spec = load(SPEC)
    results = load(results_path)
    problems = []
    for run in results["runs"]:
        where = f"{run['workload']} (trace {run['trace']})"
        if not run["correct"] or run["failed"]:
            problems.append(f"{where}: gates failed: {run['failures']}")
        listed = spec["per_layer"] if run["trace"] else spec["end_to_end"]
        for metric in listed:
            got = run["metrics"].get(metric["name"])
            if got is None:
                problems.append(f"{where}: {metric['name']} missing")
            elif got["unit"] != metric["unit"]:
                problems.append(f"{where}: {metric['name']} in {got['unit']}, "
                                f"BENCHMARK.json says {metric['unit']}")
            elif not run["trace"] and not (got["n"] > 0 and got["median"] > 0):
                problems.append(f"{where}: {metric['name']} reads {got['median']}")
        if run["trace"]:
            stem = os.path.join(trace_dir, run["workload"])
            events = load(stem + ".trace.json")["traceEvents"]
            spans = load(stem + ".layers.json")["spans"]
            ids = {span["id"] for span in spans}
            if not events or not spans:
                problems.append(f"{where}: empty trace")
            if any(span["parent"] not in ids | {-1} for span in spans):
                problems.append(f"{where}: a span names an unknown parent")
    for problem in problems:
        print(problem)
    print("check", "FAILED" if problems else "passed")
    return 1 if problems else 0


def main(argv):
    if argv[:1] == ["--compare"] and len(argv) == 3:
        return compare(argv[1], argv[2])
    if argv[:1] == ["--check"] and len(argv) == 3:
        return check(argv[1], argv[2])
    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as error:
        print(f"benchmark build failed: {error}", file=sys.stderr)
        return 1
    # A child rather than exec(): peak-RSS readings of an exec'd image
    # would include the compilers this process just waited for.
    sys.stdout.flush()
    return subprocess.run([binary] + argv).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
