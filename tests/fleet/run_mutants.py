#!/usr/bin/env python3
r"""Mutation score of the fleet, engine and functional MoE test suites.

    python3 tests/fleet/run_mutants.py [--work DIR] [--jobs N] [--only 1,4-6]
    python3 tests/fleet/run_mutants.py --check

Each row of tests/fleet/mutants.tsv (file, original text, replacement) is
one mutant. A `\n` in a cell stands for a line break, so a row can take in
the next line where its own line occurs more than once. `--check` only
verifies, without building, that each row's original text occurs exactly
once in the checkout. Otherwise the script copies the source tree into a work
directory once, builds `mib_test_fleet`, `mib_test_engine` and
`mib_test_moe` there, and checks that all three pass unmutated. Then, one
mutant at a time, it replaces the original text (which must occur exactly
once in its file), rebuilds the test binaries incrementally, runs them, and
restores the file.

A mutant is killed when any binary fails or exceeds --timeout seconds,
and survives when all pass. A mutant that does not compile is reported
as such and left out of the score. The checkout itself is never modified.
It takes about a minute per mutant on 4 cores, so only `--check` runs in
CI.
"""
import argparse
import csv
import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
TARGETS = ["mib_test_fleet", "mib_test_engine", "mib_test_moe"]
COPIED = ["CMakeLists.txt", "src", "tests", "bench", "examples"]


def index_list(text, n):
    picked = set()
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        picked.update(range(int(lo), int(hi or lo) + 1))
    return [i for i in range(1, n + 1) if i in picked]


def load_rows(path):
    with open(path, newline="") as f:
        rows = list(csv.DictReader(f, delimiter="\t", quoting=csv.QUOTE_NONE))
    for row in rows:
        for key in ("original", "replacement"):
            row[key] = row[key].replace("\\n", "\n")
    return rows


def misplaced(i, row, text):
    """Why mutant i cannot apply to `text`, its file's contents, or None."""
    count = text.count(row["original"])
    if count == 1:
        return None
    return "mutant %d: original text occurs %d times in %s" % (
        i, count, row["file"])


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
    ap.add_argument("--check", action="store_true",
                    help="only check that each original occurs exactly once")
    args = ap.parse_args()

    rows = load_rows(args.mutants)
    picked = index_list(args.only, len(rows)) if args.only else \
        list(range(1, len(rows) + 1))

    if args.check:
        bad = 0
        for i in picked:
            with open(os.path.join(ROOT, rows[i - 1]["file"])) as f:
                why = misplaced(i, rows[i - 1], f.read())
            if why:
                bad += 1
                print(why, file=sys.stderr)
        print("%d of %d mutant originals occur exactly once" %
              (len(picked) - bad, len(picked)))
        return 1 if bad else 0

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
        why = misplaced(i, row, original)
        if why:
            print(why, file=sys.stderr)
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
