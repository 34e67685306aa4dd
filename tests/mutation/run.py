#!/usr/bin/env python3
"""Mutation check of the simulator's cost model (see mutants.txt).

Run from anywhere:

  python3 tests/mutation/run.py

Copies the source tree into a temporary directory, builds sim_tests there
and checks that the unmutated tree passes every mutant's filter.  Then, for
each mutant in turn, it replaces the exact text in the copy, rebuilds
sim_tests incrementally, runs the mutant's gtest filter with Golden25d.*
excluded, and restores the file.  A mutant is killed when its filter fails.
Exits 1 if any mutant survives or does not apply, 0 when every one is
killed.  The source tree is never written.
"""
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
MUTANTS = os.path.join(HERE, "mutants.txt")
# The pinned trajectory digests change with any edit to the model, right or
# wrong; a mutant must be killed by a test that knows the right answer.
EXCLUDED = "Golden25d.*"
JOBS = str(min(4, os.cpu_count() or 1))


def load_mutants(path):
    mutants = []
    with open(path) as handle:
        for number, line in enumerate(handle, 1):
            line = line.rstrip("\n")
            if not line.strip() or line.startswith("#"):
                continue
            fields = line.split("\t")
            if len(fields) != 4:
                sys.exit(f"{path}:{number}: expected 4 tab-separated fields, "
                         f"got {len(fields)}")
            mutants.append(dict(zip(("file", "text", "replacement", "filter"),
                                    fields), line=number))
    return mutants


def copy_tree(work):
    """Mirrors the sources into work/src (build trees and .git left out)."""
    ignore = shutil.ignore_patterns("build*", ".git", ".bench_build",
                                    "Testing", "__pycache__")
    target = os.path.join(work, "src")
    shutil.copytree(ROOT, target, ignore=ignore)
    return target


def build(source, build_dir):
    """Incremental build of sim_tests; returns its path, or None on failure."""
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", source, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=subprocess.DEVNULL, check=True)
    done = subprocess.run(["cmake", "--build", build_dir, "-j", JOBS,
                           "--target", "sim_tests"],
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                          text=True)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        return None
    return os.path.join(build_dir, "tests", "sim_tests")


def with_exclusion(gtest_filter):
    joiner = ":" if "-" in gtest_filter else "-"
    return gtest_filter + joiner + EXCLUDED


def passes(binary, gtest_filter):
    done = subprocess.run(
        [binary, "--gtest_filter=" + with_exclusion(gtest_filter)],
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return done.returncode == 0


def main():
    if len(sys.argv) > 1:
        sys.exit(__doc__)
    mutants = load_mutants(MUTANTS)
    work = tempfile.mkdtemp(prefix="anyblock-mutation-")
    try:
        source = copy_tree(work)
        build_dir = os.path.join(work, "build")
        binary = build(source, build_dir)
        if binary is None:
            sys.exit("the unmutated tree does not build")
        filters = sorted({m["filter"] for m in mutants})
        failing = [f for f in filters if not passes(binary, f)]
        if failing:
            sys.exit("the unmutated tree fails: " + ", ".join(failing))

        bad = 0
        for mutant in mutants:
            path = os.path.join(source, mutant["file"])
            with open(path) as handle:
                original = handle.read()
            label = f"mutants.txt:{mutant['line']} {mutant['file']}"
            count = original.count(mutant["text"])
            if count != 1:
                print(f"STALE     {label}: exact text found {count} times")
                bad += 1
                continue
            try:
                with open(path, "w") as handle:
                    handle.write(original.replace(mutant["text"],
                                                  mutant["replacement"]))
                binary = build(source, build_dir)
                if binary is None:
                    verdict = "NO BUILD"
                elif passes(binary, mutant["filter"]):
                    verdict = "SURVIVED"
                else:
                    verdict = "killed"
            finally:
                with open(path, "w") as handle:
                    handle.write(original)
            if verdict != "killed":
                bad += 1
            print(f"{verdict:<9} {label} by {mutant['filter']}", flush=True)
        print(f"{len(mutants) - bad} of {len(mutants)} mutants killed")
        return 1 if bad else 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
