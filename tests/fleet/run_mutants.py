#!/usr/bin/env python3
"""Mutation score of the fleet and engine test suites.

    python3 tests/fleet/run_mutants.py [--work DIR] [--jobs N] [--only 1,4-6]

Each row of tests/fleet/mutants.tsv (file, original text, replacement) is
one one-line mutant. The script copies the source tree into a work
directory once, builds `mib_test_fleet` and `mib_test_engine` there, and
checks that both pass unmutated. Then, one mutant at a time, it replaces
the original text (which must occur exactly once in its file), rebuilds
the two test binaries incrementally, runs them, and restores the file.

A mutant is killed when either binary fails or exceeds --timeout seconds,
and survives when both pass. A mutant that does not compile is reported
as such and left out of the score. The checkout itself is never modified.
It takes about a minute per mutant on 4 cores, so it is not part of ctest
or CI.
"""
import argparse
import csv
import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
TARGETS = ["mib_test_fleet", "mib_test_engine"]
COPIED = ["CMakeLists.txt", "src", "tests", "bench", "examples"]


def index_list(text, n):
    picked = set()
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        picked.update(range(int(lo), int(hi or lo) + 1))
    return [i for i in range(1, n + 1) if i in picked]


def build(build_dir, jobs):
    cmd = ["cmake", "--build", build_dir, "-j", str(jobs), "--target"] + TARGETS
    return subprocess.run(cmd, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL).returncode == 0


def run_tests(build_dir, timeout):
    """Returns None when every binary passes, else why the run failed."""
    for target in TARGETS:
        exe = os.path.join(build_dir, "tests", target)
        try:
            proc = subprocess.run([exe], cwd=build_dir,
                                  stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True,
                                  timeout=timeout)
        except subprocess.TimeoutExpired:
            return "%s timed out" % target
        if proc.returncode != 0:
            failed = [l.split()[3] for l in proc.stdout.splitlines()
                      if l.startswith("[  FAILED  ]") and "ms)" in l]
            return "%s: %s" % (target, ", ".join(failed[:3]) or "crashed")
    return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--mutants", default=os.path.join(ROOT, "tests", "fleet",
                                                      "mutants.tsv"))
    ap.add_argument("--work", help="work directory (default: a fresh temp dir)")
    ap.add_argument("--jobs", type=int, default=2)
    ap.add_argument("--timeout", type=float, default=120.0)
    ap.add_argument("--only", help="1-based mutant rows to run, e.g. 1,4-6")
    args = ap.parse_args()

    with open(args.mutants, newline="") as f:
        rows = list(csv.DictReader(f, delimiter="\t", quoting=csv.QUOTE_NONE))
    picked = index_list(args.only, len(rows)) if args.only else \
        list(range(1, len(rows) + 1))

    work = args.work or tempfile.mkdtemp(prefix="mib-mutants-")
    tree = os.path.join(work, "tree")
    build_dir = os.path.join(work, "build")
    if not os.path.isdir(tree):
        os.makedirs(tree)
        for name in COPIED:
            src = os.path.join(ROOT, name)
            if os.path.isdir(src):
                shutil.copytree(src, os.path.join(tree, name))
            else:
                shutil.copy2(src, os.path.join(tree, name))
    subprocess.run(["cmake", "-B", build_dir, "-S", tree],
                   stdout=subprocess.DEVNULL, check=True)
    if not build(build_dir, args.jobs) or run_tests(build_dir, args.timeout):
        print("unmutated tree does not build and pass; no score", file=sys.stderr)
        return 1

    killed, survived, stillborn = [], [], []
    for i in picked:
        row = rows[i - 1]
        path = os.path.join(tree, row["file"])
        with open(path) as f:
            original = f.read()
        count = original.count(row["original"])
        if count != 1:
            print("mutant %d: original text occurs %d times in %s" %
                  (i, count, row["file"]), file=sys.stderr)
            return 1
        with open(path, "w") as f:
            f.write(original.replace(row["original"], row["replacement"]))
        try:
            if not build(build_dir, args.jobs):
                verdict = "does not compile"
                stillborn.append(i)
            else:
                why = run_tests(build_dir, args.timeout)
                verdict = "killed (%s)" % why if why else "SURVIVED"
                (killed if why else survived).append(i)
        finally:
            with open(path, "w") as f:
                f.write(original)
        print("%2d %-28s %s" % (i, row["file"], verdict), flush=True)

    scored = len(killed) + len(survived)
    print("killed %d of %d scored mutants (%.0f%%); survivors: %s; "
          "not compiling: %s" % (
              len(killed), scored, 100.0 * len(killed) / max(scored, 1),
              ", ".join(map(str, survived)) or "none",
              ", ".join(map(str, stillborn)) or "none"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
