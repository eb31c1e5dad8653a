#!/usr/bin/env python3
"""Reduces google-benchmark JSON output to the compact BENCH_PERF.json map.

Usage: bench_summary.py <benchmark_json_in>... <summary_json_out>
           [--build-type=TYPE] [--cxx-flags=FLAGS]
           [--require-build-type=TYPE]

All positional arguments but the last are benchmark JSON inputs (perf_nuise,
fleet_throughput, ...); their benchmark lists merge into one summary, so one
BENCH_PERF.json records every runtime benchmark. Duplicate benchmark names
across inputs are an error — each binary must own its namespace.

The summary holds one entry per benchmark: the median real and CPU time in
nanoseconds over its repetitions (./ci.sh bench runs perf_nuise with
--benchmark_repetitions=5), the fastest and slowest repetition's real time,
the repetition count, and the iteration count of one repetition. A benchmark
run once is its own median. google-benchmark's aggregate rows (mean, median,
stddev, cv) are skipped; the medians are recomputed from the repetitions.
Counters (modes, threads, and the fleet throughput/latency figures) are
carried through from the first repetition so the rows stay self-describing.
The context records the date, the CPU model (the first "model name" line of
/proc/cpuinfo, as perfbench fingerprints its host) and the compiler
settings, so each snapshot in the file's history names where it was taken.

The summary is a record, not a verdict: whether a change made a row slower
is bench/ab.py's question, which times the rows against a base revision in
alternating rounds on the same host (./ci.sh bench runs both).

--build-type / --cxx-flags record the *project's* compiler settings (from the
bench tree's CMakeCache) in the summary context — google-benchmark's own
`library_build_type` only describes how the benchmark library was built, not
this project. --require-build-type makes a mismatch a hard error so a perf
snapshot accidentally taken from a debug-ish tree can never land in
BENCH_PERF.json.
"""
import json
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


def main() -> int:
    positional = []
    build_type = ""
    cxx_flags = ""
    require_build_type = ""
    for arg in sys.argv[1:]:
        if arg.startswith("--build-type="):
            build_type = arg[len("--build-type="):]
        elif arg.startswith("--cxx-flags="):
            cxx_flags = arg[len("--cxx-flags="):]
        elif arg.startswith("--require-build-type="):
            require_build_type = arg[len("--require-build-type="):]
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

    with open(positional[-1], "w") as f:
        json.dump(summary, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"bench_summary: wrote {len(summary['benchmarks'])} entries "
          f"to {positional[-1]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
