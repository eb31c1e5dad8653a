#!/usr/bin/env python3
"""Paired A/B of the end-to-end benchmark: a base revision against the
working tree.

    python3 bench/ab.py --base REV --workload W --seed S [--pairs 10]

Exports REV with `git archive` into .ab/<commit>/ (git-ignored; an export
needs no worktree bookkeeping in .git, so an interrupted run leaves
nothing to prune), then runs `python3 perfbench/run.py --workload W --seed S
--seconds <BENCHMARK.json run_seconds>` alternately there and in the working
tree, switching which side runs first on each pair. Each side first builds
and makes one short untimed run. A run that exits non-zero, reports
incorrect outputs or counts any failure stops the comparison (exit 1).

For every end-to-end metric of BENCHMARK.json it prints each side's median
and quartiles, the ratio of the medians (working tree / base), the pairs
the working tree won and lost (ties count for neither side), whether the
medians differ by more than the base's quartile spread, and whether they
differ by more than the metric's bound.

A metric fails when the working tree is worse on all three counts: the
base wins at least 9 of every 10 pairs, and the tree's median is worse than
the base's by more than the base's quartile spread and by more than the
metric's bound. Each failing metric prints one FAIL line, and the script
exits 1.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def git(*args):
    return subprocess.run(["git", "-C", ROOT] + list(args), check=True,
                          stdout=subprocess.PIPE, text=True).stdout.strip()


def export(rev):
    """The directory holding REV's files, exported once per commit."""
    commit = git("rev-parse", "--verify", rev + "^{commit}")
    path = os.path.join(ROOT, ".ab", commit)
    if not os.path.isdir(path):
        tmp = path + ".partial"
        shutil.rmtree(tmp, ignore_errors=True)
        os.makedirs(tmp)
        archive = subprocess.Popen(["git", "-C", ROOT, "archive", commit],
                                   stdout=subprocess.PIPE)
        subprocess.run(["tar", "-x", "-C", tmp], stdin=archive.stdout,
                       check=True)
        if archive.wait() != 0:
            sys.exit("ab: git archive %s failed" % commit)
        os.rename(tmp, path)
    return commit, path


def run(tree, workload, seed, seconds):
    """One perfbench run in `tree`; returns its metrics or exits."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds)]
    proc = subprocess.run(cmd, cwd=tree, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit("ab: %s in %s exited with %d" % (" ".join(cmd[1:]), tree,
                                                  proc.returncode))
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"] != 0:
        sys.exit("ab: run in %s reported correct=%s failed=%d" %
                 (tree, result["correct"], result["failed"]))
    return {name: m["value"] for name, m in result["metrics"].items()}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="git revision")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args()
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = spec["run_seconds"]
    metrics = spec["end_to_end"]

    commit, base_tree = export(args.base)
    sides = {"base": base_tree, "tree": ROOT}
    for tree in sides.values():
        run(tree, args.workload, args.seed, 2)  # build and warm up

    runs = {"base": [], "tree": []}
    for pair in range(args.pairs):
        order = ("base", "tree") if pair % 2 == 0 else ("tree", "base")
        for side in order:
            runs[side].append(
                run(sides[side], args.workload, args.seed, seconds))
        print("pair %d/%d (%s first): %s" % (
            pair + 1, args.pairs, order[0], ", ".join(
                "%s %.4g -> %.4g" % (m["name"], runs["base"][-1][m["name"]],
                                     runs["tree"][-1][m["name"]])
                for m in metrics)), flush=True)

    print("\n%s seed %d, %d pairs of %d s runs; base %s, tree %s" % (
        args.workload, args.seed, args.pairs, seconds, commit[:12], ROOT))
    print("%-18s %-8s %28s %28s %7s %5s %5s %7s %7s" % (
        "metric", "better", "base q1/median/q3", "tree q1/median/q3",
        "ratio", "won", "lost", "spread", "bound"))
    failures = []
    for m in metrics:
        name, higher = m["name"], m["better"] == "higher"
        base = [r[name] for r in runs["base"]]
        tree = [r[name] for r in runs["tree"]]
        bq1, bmed, bq3 = quartiles(base)
        tq1, tmed, tq3 = quartiles(tree)
        won = sum((t > b) if higher else (t < b) for b, t in zip(base, tree))
        lost = sum((t < b) if higher else (t > b) for b, t in zip(base, tree))
        gap = abs(tmed - bmed)
        ratio = tmed / bmed if bmed else float("nan")
        beyond_spread = gap > bq3 - bq1
        beyond_bound = bmed != 0 and gap / abs(bmed) > m["bound"]
        worse = tmed < bmed if higher else tmed > bmed
        if (worse and 10 * lost >= 9 * args.pairs and beyond_spread and
                beyond_bound):
            failures.append(
                "FAIL %s: median %.4g -> %.4g (%.3fx), base won %d/%d, "
                "gap beyond the base's quartile spread %.4g and the %g "
                "bound" % (name, bmed, tmed, ratio, lost, args.pairs,
                           bq3 - bq1, m["bound"]))
        print("%-18s %-8s %28s %28s %7.3f %5s %5s %7s %7s" % (
            name, m["better"], "%.4g/%.4g/%.4g" % (bq1, bmed, bq3),
            "%.4g/%.4g/%.4g" % (tq1, tmed, tq3), ratio,
            "%d/%d" % (won, args.pairs), "%d/%d" % (lost, args.pairs),
            "beyond" if beyond_spread else "within",
            "beyond" if beyond_bound else "within"))
    for line in failures:
        print(line)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
