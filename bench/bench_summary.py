#!/usr/bin/env python3
"""Reduces google-benchmark JSON output to the compact BENCH_PERF.json map.

Usage: bench_summary.py <benchmark_json_in>... <summary_json_out>
           [--build-type=TYPE] [--cxx-flags=FLAGS]
           [--require-build-type=TYPE]
           [--baseline=FILE] [--max-regress=FRACTION]

All positional arguments but the last are benchmark JSON inputs (perf_nuise,
fleet_throughput, ...); their benchmark lists merge into one summary, so one
BENCH_PERF.json gates every runtime benchmark. Duplicate benchmark names
across inputs are an error — each binary must own its namespace.

The summary holds one entry per benchmark: the median real and CPU time in
nanoseconds over its repetitions (./ci.sh bench runs perf_nuise with
--benchmark_repetitions=5), the fastest and slowest repetition's real time,
the repetition count, and the iteration count of one repetition. A benchmark
run once is its own median. google-benchmark's aggregate rows (mean, median,
stddev, cv) are skipped; the medians are recomputed from the repetitions.
Counters (modes, threads, and the fleet throughput/latency figures) are
carried through from the first repetition so the rows stay self-describing.

--build-type / --cxx-flags record the *project's* compiler settings (from the
bench tree's CMakeCache) in the summary context — google-benchmark's own
`library_build_type` only describes how the benchmark library was built, not
this project. --require-build-type makes a mismatch a hard error so a perf
snapshot accidentally taken from a debug-ish tree can never land in
BENCH_PERF.json.

--baseline compares the fresh numbers against a previous summary (normally
the checked-in BENCH_PERF.json) *before* writing anything, so ./ci.sh bench
gates cross-PR hot-path regressions. One host's speed drifts by 25-65%
within hours, so the gate does not compare absolute times: each row's median
real_time_ns is divided by the median of BM_CalibrationKernel (a fixed
kernel that runs no library code, recorded as context.calibration_ns) of
the same run, and a row fails when that ratio grew by more than
--max-regress (default 0.15 = 15%) over the baseline's same ratio. A failed
gate leaves the baseline file untouched. The verdict also prints what the
absolute comparison (median over baseline median) read on the same rows,
for the record; it decides nothing. A host slowdown that the calibration
kernel does not share still fails rows (docs/PERFORMANCE.md "The bench
gate"). A run with a baseline to compare but no
calibration row is an error. Benchmarks missing from the baseline (newly
added) pass; a missing baseline file is skipped with a note (first snapshot
of a fresh checkout). Comparisons only run when the baseline was recorded
with identical build type and flags, on the same CPU model, and with a
calibration figure — numbers from a different compiler configuration or
another processor are noise, not a regression. The summary context records
the CPU model (the first "model name" line of /proc/cpuinfo, as perfbench
fingerprints its host); a baseline whose model differs from this host's, or
that recorded none ("unknown"), or that holds no calibration figure, is not
compared: the gate is skipped, the note says why (naming both models), and
the fresh numbers become the baseline. Every verdict line names both models.
"""
import json
import os
import statistics
import sys


def cpu_model() -> str:
    """The first "model name" of /proc/cpuinfo, or "unknown"."""
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    _, _, model = line.partition(":")
                    return model.strip() or "unknown"
    except OSError:
        pass
    return "unknown"


CALIBRATION = "BM_CalibrationKernel"


def gate(summary, baseline, baseline_path, build_type, cxx_flags,
         max_regress) -> int:
    """Compares each row's time over its run's calibration time against the
    baseline's same ratio; returns 1 on a regression beyond max_regress."""
    ctx = summary["context"]
    base_ctx = baseline.get("context", {})
    host_cpu = ctx["cpu_model"]
    base_cpu = base_ctx.get("cpu_model") or "unknown"
    cpus = f"(cpu: {host_cpu}; baseline cpu: {base_cpu})"
    if base_ctx.get("build_type", "") != build_type or \
            base_ctx.get("cxx_flags", "") != cxx_flags:
        print(f"bench_summary: baseline {baseline_path} was recorded with "
              f"different compiler settings; skipping the regression gate "
              f"and re-baselining {cpus}")
        return 0
    if host_cpu != base_cpu or host_cpu == "unknown":
        print(f"bench_summary: baseline {baseline_path} was recorded on "
              f"another CPU model; skipping the regression gate and "
              f"re-baselining {cpus}")
        return 0
    cal = ctx.get("calibration_ns", 0)
    if cal <= 0:
        print(f"bench_summary: no {CALIBRATION} row in this run; the gate "
              f"divides every row by it", file=sys.stderr)
        return 2
    base_cal = base_ctx.get("calibration_ns", 0)
    if base_cal <= 0:
        print(f"bench_summary: baseline {baseline_path} holds no calibration "
              f"figure; skipping the regression gate and re-baselining {cpus}")
        return 0

    print(f"bench_summary: calibration {cal:.1f} ns, baseline "
          f"{base_cal:.1f} ns (host speed {base_cal / cal:.2f}x the "
          f"baseline's)")
    rows = []  # (name, base, new, scaled ratio, absolute ratio)
    for name, entry in summary["benchmarks"].items():
        base = baseline.get("benchmarks", {}).get(name)
        if name == CALIBRATION or not base or base.get("real_time_ns", 0) <= 0:
            continue
        absolute = entry["real_time_ns"] / base["real_time_ns"]
        rows.append((name, base["real_time_ns"], entry["real_time_ns"],
                     absolute * base_cal / cal, absolute))
    absolute_fails = [r for r in rows if r[4] > 1.0 + max_regress]
    print(f"bench_summary: the absolute gate (not applied) would fail "
          f"{len(absolute_fails)} of {len(rows)} rows"
          + "".join(f"\n  {n}: {a - 1.0:+.1%}"
                    for n, _, _, _, a in absolute_fails))
    regressions = [r for r in rows if r[3] > 1.0 + max_regress]
    if regressions:
        print(f"bench_summary: hot-path regression(s) beyond "
              f"{max_regress:.0%} of calibration-scaled time vs "
              f"{baseline_path} {cpus}:", file=sys.stderr)
        for name, old, new, scaled, absolute in regressions:
            print(f"  {name}: {old:.1f} ns -> {new:.1f} ns "
                  f"({scaled - 1.0:+.1%} scaled, {absolute - 1.0:+.1%} "
                  f"absolute)", file=sys.stderr)
        print("bench_summary: baseline left untouched; fix the regression "
              "or re-baseline deliberately by running without --baseline.",
              file=sys.stderr)
        return 1
    print(f"bench_summary: {len(rows)} benchmarks within {max_regress:.0%} "
          f"of {baseline_path} in calibration-scaled time {cpus}")
    return 0


def main() -> int:
    positional = []
    build_type = ""
    cxx_flags = ""
    require_build_type = ""
    baseline_path = ""
    max_regress = 0.15
    for arg in sys.argv[1:]:
        if arg.startswith("--build-type="):
            build_type = arg[len("--build-type="):]
        elif arg.startswith("--cxx-flags="):
            cxx_flags = arg[len("--cxx-flags="):]
        elif arg.startswith("--require-build-type="):
            require_build_type = arg[len("--require-build-type="):]
        elif arg.startswith("--baseline="):
            baseline_path = arg[len("--baseline="):]
        elif arg.startswith("--max-regress="):
            try:
                max_regress = float(arg[len("--max-regress="):])
            except ValueError:
                print(f"bench_summary: bad --max-regress in {arg}",
                      file=sys.stderr)
                return 2
            if max_regress <= 0:
                print("bench_summary: --max-regress must be positive",
                      file=sys.stderr)
                return 2
        elif arg.startswith("--"):
            print(f"bench_summary: unknown flag {arg}", file=sys.stderr)
            return 2
        else:
            positional.append(arg)
    if len(positional) < 2:
        print(__doc__, file=sys.stderr)
        return 2

    if require_build_type and build_type != require_build_type:
        print(
            f"bench_summary: refusing to record a perf snapshot from a "
            f"'{build_type or 'unknown'}' build; expected "
            f"'{require_build_type}'. Configure the bench tree with "
            f"-DCMAKE_BUILD_TYPE={require_build_type} (see ci.sh run_bench).",
            file=sys.stderr,
        )
        return 1

    inputs = positional[:-1]
    raws = []
    for path in inputs:
        with open(path) as f:
            raws.append(json.load(f))

    # Context comes from the first input; every input ran in the same bench
    # tree (ci.sh run_bench), so the machine facts agree.
    first_ctx = raws[0].get("context", {})
    summary = {
        "context": {
            "date": first_ctx.get("date", ""),
            "num_cpus": first_ctx.get("num_cpus", 0),
            "cpu_model": cpu_model(),
            "build_type": build_type,
            "cxx_flags": cxx_flags,
            "library_build_type": first_ctx.get("library_build_type", ""),
        },
        "benchmarks": {},
    }
    counters = (
        "modes", "threads", "missions",
        # BM_SessionStepKhepera (docs/PERFORMANCE.md "In-place detector step")
        "allocs_per_step",
        # BM_FleetSessionSetupKhepera (docs/PERFORMANCE.md "Per-robot state")
        "bytes_per_session", "allocs_per_session",
        # fleet_throughput (docs/FLEET.md)
        "robots", "shards", "hz", "steps", "steps_per_s", "dropped_packets",
        "p50_ingest_to_step_ns", "p99_ingest_to_step_ns",
        "p50_ingest_to_alarm_ns", "p99_ingest_to_alarm_ns",
    )
    for path, raw in zip(inputs, raws):
        # Repetitions of one benchmark share its run_name, in run order.
        runs = {}
        for b in raw.get("benchmarks", []):
            if b.get("run_type", "iteration") != "iteration":
                continue
            runs.setdefault(b.get("run_name", b["name"]), []).append(b)
        for name, reps in runs.items():
            if name in summary["benchmarks"]:
                print(f"bench_summary: duplicate benchmark {name} "
                      f"in {path}", file=sys.stderr)
                return 2
            real = [r["real_time"] for r in reps]
            entry = {
                "real_time_ns": round(statistics.median(real), 1),
                "cpu_time_ns": round(
                    statistics.median(r["cpu_time"] for r in reps), 1),
                "real_time_min_ns": round(min(real), 1),
                "real_time_max_ns": round(max(real), 1),
                "repetitions": len(reps),
                "iterations": reps[0]["iterations"],
            }
            for counter in counters:
                if counter in reps[0]:
                    entry[counter] = reps[0][counter]
            summary["benchmarks"][name] = entry

    calibration = summary["benchmarks"].get(CALIBRATION, {})
    if calibration:
        summary["context"]["calibration_ns"] = calibration["real_time_ns"]

    # Gate against the baseline before touching the output file: summary and
    # baseline are usually the same path, and a failed gate must leave the
    # old numbers in place for the next comparison.
    if baseline_path:
        if not os.path.exists(baseline_path):
            print(f"bench_summary: no baseline at {baseline_path}, "
                  f"recording a first snapshot")
        else:
            with open(baseline_path) as f:
                baseline = json.load(f)
            verdict = gate(summary, baseline, baseline_path, build_type,
                           cxx_flags, max_regress)
            if verdict != 0:
                return verdict

    with open(positional[-1], "w") as f:
        json.dump(summary, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"bench_summary: wrote {len(summary['benchmarks'])} entries "
          f"to {positional[-1]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
