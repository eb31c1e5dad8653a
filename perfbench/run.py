#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark (see README.md).

Run from the root of a source checkout:

    python3 perfbench/run.py --workload campaign --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

The first call configures and builds the library and the benchmark in
.bench_build/ (or $CARGO_TARGET_DIR) as a Release build; later calls only
rebuild what changed. The benchmark's result is the last line of standard
output; build logs and the human-readable summary go to standard error.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("campaign", "fleet-paced", "fleet-capacity")
RUN_TIMEOUT_S = 170


def build_dir():
    return os.environ.get("CARGO_TARGET_DIR") or ".bench_build"


def build():
    """Configures (once) and builds; returns the binary path or None."""
    out = build_dir()
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout)
            sys.stderr.write("perfbench: build step failed: %s\n"
                             % " ".join(cmd))
            return None
    return os.path.join(out, "perfbench")


def run(binary, args):
    """Runs the benchmark; returns (exit code, stdout lines)."""
    cmd = [binary, "--reference", os.path.join(HERE, "reference_outcomes.txt"),
           "--out-dir", build_dir()] + args
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: timed out after %d s\n" % RUN_TIMEOUT_S)
        return 1, []
    return proc.returncode, proc.stdout.splitlines()


def expected_metrics(trace):
    """(name, unit) pairs BENCHMARK.json promises for a run."""
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [(m["name"], m["unit"])
            for m in spec["per_layer" if trace else "end_to_end"]]


def unique_keys(pairs):
    keys = [k for k, _ in pairs]
    dups = sorted({k for k in keys if keys.count(k) > 1})
    if dups:
        raise ValueError("printed more than once: %s" % ", ".join(dups))
    return dict(pairs)


def selftest(binary):
    """Short runs print every metric once with its unit and no failure;
    each planted fault is counted as a failure."""
    ok = True

    def check(label, args, want_fail, trace):
        nonlocal ok
        code, lines = run(binary, args + ["--short", "--seconds", "2",
                                          "--seed", "3",
                                          "--trace", str(trace)])
        problems = []
        result = None
        if code != 0 or not lines:
            problems.append("exit code %d" % code)
        else:
            try:
                result = json.loads(lines[-1], object_pairs_hook=unique_keys)
            except ValueError as e:
                problems.append(str(e))
        if result is not None:
            metrics = result["metrics"]
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                problems.append("result keys %s" % sorted(result))
            if want_fail:
                if result["failed"] < 1 or result["correct"]:
                    problems.append("planted fault not counted")
            elif result["failed"] != 0 or not result["correct"]:
                problems.append("failed=%d" % result["failed"])
            if result["attempted"] < 1:
                problems.append("nothing attempted")
            want = expected_metrics(trace)
            for name, unit in want:
                if name not in metrics:
                    problems.append("missing " + name)
                elif metrics[name]["unit"] != unit:
                    problems.append("%s unit %s" % (name,
                                                    metrics[name]["unit"]))
            extra = set(metrics) - {n for n, _ in want}
            if extra:
                problems.append("unexpected %s" % sorted(extra))
        ok = ok and not problems
        print("%s %s%s" % ("PASS" if not problems else "FAIL", label,
                           "" if not problems else ": " + "; ".join(problems)))

    for workload in WORKLOADS:
        for trace in (0, 1):
            check("%s trace=%d" % (workload, trace),
                  ["--workload", workload], False, trace)
    for workload, fault in (("campaign", "alter-outcome"),
                            ("fleet-paced", "perturb-report"),
                            ("fleet-paced", "drop-packet"),
                            ("fleet-capacity", "perturb-report"),
                            ("fleet-capacity", "drop-packet")):
        check("%s planted %s" % (workload, fault),
              ["--workload", workload, "--plant", fault], True, 0)
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="check metric names/units and planted faults")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")

    binary = build()
    if binary is None:
        return 1
    if args.selftest:
        return selftest(binary)
    code, lines = run(binary, ["--workload", args.workload,
                               "--seed", str(args.seed),
                               "--seconds", str(args.seconds),
                               "--trace", str(args.trace)])
    if code != 0:
        sys.stderr.write("perfbench: benchmark exited with %d\n" % code)
        return code
    print("\n".join(lines), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
