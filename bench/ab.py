#!/usr/bin/env python3
"""Paired A/B of the working tree against a base revision.

    python3 bench/ab.py [--base REV] --workload W --seed S [--pairs 10]
    python3 bench/ab.py [--base REV] --rows 'BM_A|BM_B|...' [--pairs 10]

Exports REV (default HEAD) with `git archive` into .ab/<commit>/
(git-ignored; an export needs no worktree bookkeeping in .git, so an
interrupted run leaves nothing to prune) and times the same work there and
in the working tree, one round per pair. In each round every unit of work
runs once per side, the two sides back to back; which side runs first
switches from round to round.

--workload: the unit is one `python3 perfbench/run.py --workload W --seed S
--seconds <BENCHMARK.json run_seconds>` run. Each side first builds and
makes one short untimed run. A run that exits non-zero, reports incorrect
outputs or counts any failure stops the comparison (exit 1). The metrics
are BENCHMARK.json's end-to-end metrics, each with its bound.

--rows: both trees build bench/perf_nuise as Release in build-bench/, and
each '|'-separated row is a unit of its own, run as its own process
(`--benchmark_filter=^ROW$ --benchmark_min_time=0.2`). A row's metric is
its real time per iteration, lower is better, with a 15% bound. A row the
base does not have yet is listed and not compared; a row the tree does not
have, or a failed run, stops the comparison (exit 1).

For every metric it prints each side's median and quartiles, the ratio of
the medians (working tree / base), the rounds the working tree won and
lost (ties count for neither side), whether the medians differ by more
than the base's quartile spread, and whether they differ by more than the
metric's bound.

A metric fails when the working tree is worse on all three counts: the
base wins at least 9 of every 10 rounds, and the tree's median is worse
than the base's by more than the base's quartile spread and by more than
the metric's bound. Each failing metric prints one FAIL line, and the
script exits 1.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# The bound a perf_nuise row's median may grow by before it can fail.
ROW_BOUND = 0.15


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


def run_workload(tree, workload, seed, seconds):
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


def build_perf_nuise(tree):
    """Builds `tree`'s perf_nuise as Release; returns the binary and the
    rows it has."""
    build = os.path.join(tree, "build-bench")
    for cmd in (["cmake", "-B", build, "-S", tree,
                 "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", build, "-j",
                 str(len(os.sched_getaffinity(0))), "--target",
                 "perf_nuise"]):
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.exit("%sab: %s failed" % (proc.stdout, " ".join(cmd)))
    binary = os.path.join(build, "bench", "perf_nuise")
    listed = subprocess.run([binary, "--benchmark_list_tests=true"],
                            check=True, stdout=subprocess.PIPE, text=True)
    return binary, set(listed.stdout.split())


def run_row(binary, row):
    """One perf_nuise process timing `row`; returns its real time."""
    cmd = [binary, "--benchmark_filter=^%s$" % row,
           "--benchmark_min_time=0.2", "--benchmark_format=json"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    if proc.returncode != 0:
        sys.exit("ab: %s exited with %d" % (" ".join(cmd), proc.returncode))
    return {row: json.loads(proc.stdout)["benchmarks"][0]["real_time"]}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def score(m, b, t):
    """1 when the tree's value t beats the base's b on metric m, -1 when it
    loses, 0 on a tie."""
    gap = (t - b) if m["better"] == "higher" else (b - t)
    return (gap > 0) - (gap < 0)


def pair(sides, units, metrics, rounds):
    """Runs every unit once per side per round, the two sides back to back
    and the first side switching each round; returns each side's values
    per metric, in round order."""
    values = {side: {m["name"]: [] for m in metrics} for side in sides}
    for r in range(rounds):
        order = ("base", "tree") if r % 2 == 0 else ("tree", "base")
        got = {side: {} for side in sides}
        for unit in units:
            for side in order:
                got[side].update(unit(sides[side]))
        scores = []
        for m in metrics:
            for side in sides:
                values[side][m["name"]].append(got[side][m["name"]])
            scores.append(score(m, got["base"][m["name"]],
                                got["tree"][m["name"]]))
        print("round %d/%d (%s first): tree won %d, lost %d of %d metrics" %
              (r + 1, rounds, order[0], scores.count(1), scores.count(-1),
               len(metrics)), flush=True)
    return values["base"], values["tree"]


def verdict(metrics, base_values, tree_values, rounds):
    """Prints the per-metric table and a FAIL line per failing metric;
    returns the exit code."""
    width = max([len("metric")] + [len(m["name"]) for m in metrics])
    print("%-*s %-8s %28s %28s %7s %5s %5s %7s %7s" % (
        width, "metric", "better", "base q1/median/q3", "tree q1/median/q3",
        "ratio", "won", "lost", "spread", "bound"))
    failures = []
    for m in metrics:
        name, higher = m["name"], m["better"] == "higher"
        base, tree = base_values[name], tree_values[name]
        bq1, bmed, bq3 = quartiles(base)
        tq1, tmed, tq3 = quartiles(tree)
        scores = [score(m, b, t) for b, t in zip(base, tree)]
        won, lost = scores.count(1), scores.count(-1)
        gap = abs(tmed - bmed)
        ratio = tmed / bmed if bmed else float("nan")
        beyond_spread = gap > bq3 - bq1
        beyond_bound = bmed != 0 and gap / abs(bmed) > m["bound"]
        worse = tmed < bmed if higher else tmed > bmed
        if (worse and 10 * lost >= 9 * rounds and beyond_spread and
                beyond_bound):
            failures.append(
                "FAIL %s: median %.4g -> %.4g (%.3fx), base won %d/%d, "
                "gap beyond the base's quartile spread %.4g and the %g "
                "bound" % (name, bmed, tmed, ratio, lost, rounds, bq3 - bq1,
                           m["bound"]))
        print("%-*s %-8s %28s %28s %7.3f %5s %5s %7s %7s" % (
            width, name, m["better"], "%.4g/%.4g/%.4g" % (bq1, bmed, bq3),
            "%.4g/%.4g/%.4g" % (tq1, tmed, tq3), ratio,
            "%d/%d" % (won, rounds), "%d/%d" % (lost, rounds),
            "beyond" if beyond_spread else "within",
            "beyond" if beyond_bound else "within"))
    for line in failures:
        print(line)
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", default="HEAD", help="git revision")
    what = parser.add_mutually_exclusive_group(required=True)
    what.add_argument("--workload", help="a BENCHMARK.json workload")
    what.add_argument("--rows", help="'|'-separated perf_nuise rows")
    parser.add_argument("--seed", type=int, help="the workload's seed")
    parser.add_argument("--pairs", type=int, default=10,
                        help="rounds (default 10)")
    args = parser.parse_args()
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    if (args.workload is None) != (args.seed is None):
        parser.error("--seed goes with --workload, and only with it")

    commit, base_tree = export(args.base)
    if args.workload is not None:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        seconds = spec["run_seconds"]
        metrics = spec["end_to_end"]
        sides = {"base": base_tree, "tree": ROOT}
        for tree in sides.values():
            run_workload(tree, args.workload, args.seed, 2)  # build, warm up
        units = [lambda tree: run_workload(tree, args.workload, args.seed,
                                           seconds)]
        title = "%s seed %d, %d pairs of %d s runs" % (
            args.workload, args.seed, args.pairs, seconds)
    else:
        rows = args.rows.split("|")
        base_binary, base_rows = build_perf_nuise(base_tree)
        tree_binary, tree_rows = build_perf_nuise(ROOT)
        missing = [row for row in rows if row not in tree_rows]
        if missing:
            sys.exit("ab: the tree's perf_nuise has no row %s" %
                     ", ".join(missing))
        for row in rows:
            if row not in base_rows:
                print("ab: %s is new in the tree; not compared" % row)
        rows = [row for row in rows if row in base_rows]
        metrics = [{"name": row, "better": "lower", "bound": ROW_BOUND}
                   for row in rows]
        sides = {"base": base_binary, "tree": tree_binary}
        units = [lambda binary, row=row: run_row(binary, row)
                 for row in rows]
        title = "perf_nuise, %d rounds of %d rows, real ns per iteration" % (
            args.pairs, len(rows))

    base_values, tree_values = pair(sides, units, metrics, args.pairs)
    print("\n%s; base %s, tree %s" % (title, commit[:12], ROOT))
    return verdict(metrics, base_values, tree_values, args.pairs)


if __name__ == "__main__":
    sys.exit(main())
