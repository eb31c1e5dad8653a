#!/usr/bin/env bash
# CI entry point: build + ctest once normally, then once under
# ThreadSanitizer (RoboADS_SANITIZE=thread) so data races in the fleet
# service (its shard pump and concurrent producers) and the striped metrics
# registry fail the pipeline, once under AddressSanitizer
# (RoboADS_SANITIZE=address) for out-of-bounds and use-after-free bugs — the
# planner's grid cell arithmetic among them — and once under
# UndefinedBehaviorSanitizer (RoboADS_SANITIZE=undefined) to catch UB in the
# numerics. The normal pass first checks that one JSON writer remains (the
# record codec in src/obs/jsonl.{h,cc}), then runs the instrumented mission smoke
# (examples/obs_smoke): one full-tracing scenario-8 run whose JSONL must
# parse, whose trace must show a health transition, and whose roboads_report
# must render
# (docs/OBSERVABILITY.md), plus the forensics smoke: a recorder-on attack
# run that must freeze postmortem bundles, replay bit-identically through
# `roboads_explain --verify`, and reproduce the live alarm timeline, and a
# recorded sweep whose every bundle must land in its own file and replay;
# a check that stealth_frontier's usage line names its own flags, the
# obs-overhead gate keeping disabled hooks *and* recorder-on under 2%, and
# the perf gate: the detector-path rows paired against a base revision.
# Usage:
#
#   ./ci.sh            # all passes
#   ./ci.sh normal     # plain build + ctest + obs smoke + perf gate only
#   ./ci.sh tsan       # TSan build + ctest only
#   ./ci.sh asan       # ASan build + ctest only
#   ./ci.sh ubsan      # UBSan build + ctest only
#   ./ci.sh bench      # perf record + gate only: writes BENCH_PERF.json,
#                      # then pairs each row against BASE=<rev> (default
#                      # HEAD) over 12 alternating rounds; fails when
#                      # bench/ab.py's failure rule fails a row
#   ./ci.sh perfbench  # end-to-end benchmark selftest: builds src/
#                      # standalone (.bench_build/) and checks every
#                      # campaign outcome against
#                      # perfbench/reference_outcomes.txt
#   ./ci.sh ab         # paired A/B of the working tree against BASE=<rev>
#                      # (default HEAD): 10 alternating pairs of each gated
#                      # perfbench workload at seed 1; fails when
#                      # bench/ab.py's failure rule fails a metric (not
#                      # part of `all`)
#   ./ci.sh fuzz-smoke # ~30 s scenario-DSL coverage fuzz over $JOBS workers
#                      # + corpus replay (corpus test and roboads_scenario
#                      # check/print/run/library); a stale run directory
#                      # and bad flags must be refused (exit 2)
#   ./ci.sh shard-smoke # ~30 s sharded fuzz campaign with an injected
#                      # worker kill and a supervisor kill + --resume; the
#                      # merged report must be byte-identical to a serial run
#   ./ci.sh watch-smoke # ~10 s sharded mini-campaign with live telemetry;
#                      # `roboads_shard watch --once --json` must agree with
#                      # checkpoint-derived truth, and roboads_report must
#                      # fail loudly on missing/truncated metrics files
#   ./ci.sh fleet-smoke # ~10 s mini-fleet through the sharded detection
#                      # service; per-robot reports must be bit-identical
#                      # to the serial mission runs (roboads_fleet --parity)
#   ./ci.sh fleet-watch-smoke # ~10 s mini-fleet with the full introspection
#                      # plane on (span tracing + live fleet_status.json);
#                      # parity must still hold, `roboads_fleet top --once
#                      # --json` must re-emit the published snapshot
#                      # byte-identically, and its books must balance
#                      # against the run summary
#
# JOBS=<n> overrides the parallelism (default: nproc). FUZZ_SEED=<n> varies
# the fuzz-smoke campaign seed (default 1; CI can rotate it per run).
# BASE=<rev> is the revision `bench` and `ab` compare the working tree
# against (default HEAD: the uncommitted change).
set -euo pipefail
cd "$(dirname "$0")"

JOBS="${JOBS:-$(nproc)}"
MODE="${1:-all}"

# One JSON writer: every JSON line the library and its tools write goes
# through the record codec (src/obs/jsonl.h), so its low-level emitters and
# hand-built object literals may not appear anywhere else in src/ or tools/.
run_writer_lint() {
  local hits
  hits="$(grep -rnF -e 'write_escaped' -e 'write_number' -e '"{\"' \
    src tools | grep -v '^src/obs/jsonl\.\(h\|cc\):' || true)"
  if [ -n "$hits" ]; then
    echo "writer lint: JSON written outside the record codec:" >&2
    echo "$hits" >&2
    exit 1
  fi
  echo "writer lint: one JSON writer"
}

run_pass() {
  local dir="$1"; shift
  cmake -B "$dir" -S . "$@"
  cmake --build "$dir" -j "$JOBS"
  ctest --test-dir "$dir" --output-on-failure -j "$JOBS"
}

# Instrumented smoke: the binary exits non-zero unless the JSONL validates,
# the health supervisor visibly transitioned, and the report rendered.
run_obs_smoke() {
  local dir="$1"
  "$dir/examples/obs_smoke" "$dir/obs_smoke_trace.jsonl" \
    "$dir/obs_smoke_metrics.jsonl"
}

# Forensics smoke (docs/OBSERVABILITY.md "Flight recorder & incident
# bundles"): a recorder-on scenario-8 run writes postmortem bundles plus the
# live per-iteration alarm CSV; `roboads_explain --verify` must replay the
# first bundle bit-identically (exit 0) and its replayed alarms must match
# the live ones line for line. Then a recorded sweep (bench/fault_tolerance,
# 98 bundles at its seeds): one Observability numbers the bundles of all its
# missions, so the `bundle:` lines it prints must equal the files it wrote,
# and every file must replay.
run_forensics_smoke() {
  local dir="$1"
  local out="$dir/forensics"
  rm -rf "$out" && mkdir -p "$out"
  "$dir/examples/forensics_replay" "$out/fr-"
  local bundle
  bundle="$(ls "$out"/fr-*-b0-*.jsonl)"
  "$dir/tools/roboads_explain" --verify \
    --alarms-out="$out/replayed_alarms.csv" "$bundle"
  diff "$out/fr-.alarms.csv" "$out/replayed_alarms.csv"
  echo "forensics smoke: replay verified and alarm timelines match"

  "$dir/bench/fault_tolerance" --record-out="$out/ft-" > "$out/ft.txt"
  local printed files
  printed="$(grep -c '^bundle:' "$out/ft.txt")"
  files="$(find "$out" -name 'ft-*.jsonl' | wc -l)"
  if [ "$files" -eq 0 ] || [ "$printed" -ne "$files" ]; then
    echo "forensics smoke: fault_tolerance printed $printed bundle(s)" \
      "but wrote $files file(s)" >&2
    exit 1
  fi
  for bundle in "$out"/ft-*.jsonl; do
    "$dir/tools/roboads_explain" --verify "$bundle" > /dev/null
  done
  echo "forensics smoke: $files sweep bundles, one file each, all replay"
}

# A bench with flags of its own must name them in its usage line: an
# unknown flag to bench/stealth_frontier exits 2 with a usage that lists its
# --out=PATH beside the shared obs flags.
run_usage_smoke() {
  local dir="$1"
  local rc=0 usage
  usage="$("$dir/bench/stealth_frontier" --bogus 2>&1 > /dev/null)" || rc=$?
  if [ "$rc" -ne 2 ] || ! grep -qF -- "--out=PATH" <<< "$usage"; then
    echo "usage smoke: stealth_frontier --bogus exited $rc with:" >&2
    echo "$usage" >&2
    exit 1
  fi
  echo "usage smoke: stealth_frontier names its own flags"
}

# Observability overhead gate: disabled hooks, the always-on flight
# recorder, and the shard workers' live-telemetry tier (coarse timers +
# periodic snapshot) must all stay under the documented 2% budget (the
# binary exits non-zero otherwise).
run_obs_overhead() {
  local dir="$1"
  "$dir/bench/obs_overhead"
}

# The perf_nuise rows `bench` records and gates: one NUISE step (healthy
# and with one testing sensor masked), one engine iteration (default mode
# set, plus the complete mode set), the full detector step on both
# platforms, into a reused report and replaying the recorded Table II
# missions, one fleet robot's session set-up (bytes and allocations per
# session) and its complete and lossy frames, the detector's matrix
# kernels, one RRT* mission plan per platform (docs/PERFORMANCE.md
# "Planner"), the Khepera mission's LiDAR scan and processing and its
# sensing, one whole 250-iteration Khepera mission (docs/PERFORMANCE.md
# "Mission: sensing and planner"), and one uniform and one Gaussian draw
# (docs/PERFORMANCE.md "Random stream and neighbor scans").
BENCH_ROWS='BM_NuiseStepKhepera|BM_NuiseStepKheperaMasked|BM_EngineStepKhepera|BM_EngineStepCompleteModeSet|BM_FullDetectorStepKhepera|BM_FullDetectorStepTamiya|BM_DetectorStepIntoKhepera|BM_DetectorReplayKhepera|BM_SessionStepKhepera|BM_SessionStepKheperaLossy|BM_FleetSessionSetupKhepera|BM_MatMul3x3|BM_Sandwich3x3|BM_JacobiEigen4|BM_Cholesky4|BM_RrtStarPlanKhepera|BM_RrtStarPlanTamiya|BM_LidarScanAndProcessKhepera|BM_SenseAllKhepera|BM_MissionKhepera|BM_RngUniform|BM_RngGaussian'

# Perf record and gate (docs/PERFORMANCE.md "The bench gate"). The record:
# each row runs five times for ~0.2 s, its repetitions interleaved at
# random with every other row's so that each row samples the whole run,
# and bench_summary.py reduces the run, with fleet_throughput's capacity
# and latency phases, into BENCH_PERF.json at the repo root (each row's
# median with the fastest and slowest run beside it; docs/PERFORMANCE.md
# tracks the history). It decides nothing. The gate: bench/ab.py builds
# perf_nuise at $BASE (default HEAD) and in this tree and runs 12 rounds,
# each timing every row once per side as its own process, the side that
# runs first alternating; a row fails when the base wins at least 11 of
# the 12 rounds and the median gap exceeds both the base's quartile
# spread and 15%.
#
# Perf numbers are only comparable across runs when the compiler settings
# match, so the bench always builds in its own Release-pinned tree
# (build-bench) regardless of how the test tree was configured; the build
# type and optimization flags are recorded in BENCH_PERF.json and
# bench_summary.py fails the run if the cache says anything but Release.
run_bench() {
  local dir="build-bench"
  cmake -B "$dir" -S . -DCMAKE_BUILD_TYPE=Release
  cmake --build "$dir" -j "$JOBS" --target perf_nuise fleet_throughput
  local build_type cxx_flags
  build_type="$(sed -n 's/^CMAKE_BUILD_TYPE:[^=]*=//p' "$dir/CMakeCache.txt")"
  cxx_flags="$(sed -n 's/^CMAKE_CXX_FLAGS_RELEASE:[^=]*=//p' "$dir/CMakeCache.txt")"
  "$dir/bench/perf_nuise" --benchmark_filter="^($BENCH_ROWS)\$" \
    --benchmark_min_time=0.2 --benchmark_repetitions=5 \
    --benchmark_enable_random_interleaving=true \
    --benchmark_format=json > "$dir/bench_perf_raw.json"
  # Fleet capacity + latency (docs/FLEET.md): ≥1000 sessions at 10 Hz on
  # this box or the binary exits non-zero; the paced phase records honest
  # p99 ingest→alarm latency into the same BENCH_PERF.json.
  "$dir/bench/fleet_throughput" --robots=1000 --hz=10 \
    --json-out="$dir/fleet_perf_raw.json"
  python3 bench/bench_summary.py "$dir/bench_perf_raw.json" \
    "$dir/fleet_perf_raw.json" BENCH_PERF.json \
    --build-type="$build_type" --cxx-flags="$cxx_flags" \
    --require-build-type=Release
  python3 bench/ab.py --base "${BASE:-HEAD}" --rows "$BENCH_ROWS" --pairs 12
}

# End-to-end benchmark selftest (perfbench/README.md): builds src/
# standalone the way the benchmark does and checks every campaign outcome
# against perfbench/reference_outcomes.txt, so a change to the scenario API
# or the Table II specs that breaks the benchmark fails here rather than in
# a later benchmark run.
run_perfbench() {
  python3 perfbench/run.py --selftest
}

# Paired A/B of the gated perfbench workloads (BENCHMARK.json) against the
# revision in $BASE (default HEAD): bench/ab.py prints each end-to-end
# metric's medians, quartiles, ratio and pairs won and lost, and fails a
# metric the base wins in 9 of 10 pairs by more than its quartile spread
# and the metric's bound.
# Both workloads run; any failure fails the pass. Not part of `all`: it
# takes ≈17 min.
run_ab() {
  local status=0
  for workload in campaign fleet-capacity; do
    python3 bench/ab.py --base "${BASE:-HEAD}" --workload "$workload" \
      --seed 1 ||
      status=1
  done
  return "$status"
}

# Fleet-service smoke (docs/FLEET.md): a ~10 s mini-fleet — 32 robots
# sharing 4 recorded scenario-8 missions, streamed through the sharded
# service by concurrent producers with the pump live — whose per-robot
# DetectionReports must be bit-identical to the serial mission runs
# (roboads_fleet --parity exits non-zero on the first divergence).
run_fleet_smoke() {
  local dir="$1"
  cmake -B "$dir" -S .
  cmake --build "$dir" -j "$JOBS" --target roboads_fleet_tool
  "$dir/tools/roboads_fleet" --robots=32 --scenario=8 --iterations=120 \
    --missions=4 --parity
  echo "fleet smoke: 32 streamed robots bit-identical to serial missions"
}

# Fleet introspection smoke (docs/OBSERVABILITY.md "Fleet introspection"):
# the fleet smoke's bit-parity guarantee, re-proved with every introspection
# knob on — span sampling, live fleet_status.json publishing, histogram
# export. Then `roboads_fleet top --once --json` must re-emit the published
# snapshot byte-for-byte (cmp, not a parsed comparison), the snapshot's
# books must balance against the run's own JSON summary, the exported span
# JSONL must validate and decompose causally, and roboads_report must render
# the histogram file.
run_fleet_watch_smoke() {
  local dir="$1"
  cmake -B "$dir" -S .
  cmake --build "$dir" -j "$JOBS" --target roboads_fleet_tool roboads_report
  local out="$dir/fleet-watch-smoke"
  rm -rf "$out" && mkdir -p "$out"
  "$dir/tools/roboads_fleet" --robots=24 --scenario=8 --iterations=80 \
    --missions=3 --parity --json \
    --trace-sample=4 --trace-out="$out/spans.jsonl" \
    --status-out="$out/fleet_status.json" --status-interval=0.2 \
    --hist-out="$out/hist.jsonl" > "$out/summary.json"
  "$dir/tools/roboads_fleet" top --status="$out/fleet_status.json" \
    --once --json > "$out/top.json"
  cmp "$out/top.json" "$out/fleet_status.json"
  "$dir/tools/roboads_fleet" top --status="$out/fleet_status.json" --once \
    > "$out/top.txt"
  grep -q "shard" "$out/top.txt"
  "$dir/tools/roboads_report" "$out/hist.jsonl" > /dev/null
  python3 - "$out" <<'PY'
import json, sys

out = sys.argv[1]
summary = json.load(open(out + "/summary.json"))
status = json.load(open(out + "/fleet_status.json"))

assert summary["parity"] is True and summary["parity_failures"] == 0, summary
assert summary["robots"] == 24 and summary["steps"] == 24 * 80, summary

# The published snapshot's books balance against the run summary.
assert status["robots"] == summary["robots"]
assert status["steps"] == summary["steps"]
assert status["trace_sample"] == 4
assert status["spans"] == summary["spans"] > 0
assert sum(s["steps"] for s in status["shards"]) == status["steps"]
assert status["sensor_alarms"] + status["actuator_alarms"] > 0
assert len(status["alarms"]) > 0

# The fleet latency histogram really aggregates the steps: bucket counts
# sum to the step count, and the per-shard rows partition it.
fleet_hist = status["ingest_to_step_ns"]
assert fleet_hist["count"] == status["steps"]
assert sum(fleet_hist["buckets"]) == fleet_hist["count"]
by_shard = [s["ingest_to_step_ns"]["count"] for s in status["shards"]]
assert sum(by_shard) == fleet_hist["count"]

# Spans: 6 traced robots (id % 4 == 0) x 80 iterations, each causally
# consistent (stages non-negative, totals dominate the step).
spans = [json.loads(line) for line in open(out + "/spans.jsonl")
         if '"event":"span"' in line]
assert len(spans) == summary["spans"] == 6 * 80, len(spans)
for s in spans:
    assert s["robot"] % 4 == 0, s
    assert s["packets"] > 0 and s["ingest_ns"] > 0, s
    for stage in ("ring_ns", "reassembly_ns", "step_wait_ns", "step_ns",
                  "publish_ns", "total_ns"):
        assert s[stage] >= 0, s
    assert s["total_ns"] >= s["step_ns"], s

# The histogram export round-trips the same distribution the status holds.
hists = {}
for line in open(out + "/hist.jsonl"):
    record = json.loads(line)
    hists[record["name"]] = record["histogram"]
assert hists["fleet.ingest_to_step_ns"] == fleet_hist
print(f"fleet watch smoke: parity held with tracing+status on; "
      f"{len(spans)} spans; top round-tripped byte-identically")
PY
  echo "fleet watch smoke: introspection plane verified"
}

# Scenario-DSL coverage fuzz (docs/SCENARIOS.md): a time-boxed (~30 s)
# randomized-campaign sweep over $JOBS supervised workers that must hold
# every fuzzer invariant, then a replay of the checked-in shrunk-spec corpus,
# in the corpus test and through the spec tool (run_scenario_tool_smoke).
# Bad input must be refused with exit 2 before any campaign flies: a second
# seed into the same run directory (its checkpoints belong to the first
# sweep), a negative campaign count, and a NaN fault probability. FUZZ_SEED
# rotates coverage.
run_fuzz_smoke() {
  local dir="$1"
  cmake -B "$dir" -S .
  cmake --build "$dir" -j "$JOBS" --target roboads_fuzz fuzz_corpus_test \
    roboads_scenario_tool
  local out="$dir/fuzz-smoke"
  local seed="${FUZZ_SEED:-1}"
  rm -rf "$out"
  "$dir/tools/roboads_fuzz" --seed="$seed" --campaigns=250 \
    --iterations=120 --workers="$JOBS" --shard-dir="$out"
  "$dir/tests/fuzz_corpus_test"
  run_scenario_tool_smoke "$dir"
  local bad rc
  for bad in "--seed=$((seed + 1)) --workers=$JOBS --shard-dir=$out" \
      "--campaigns=-1" "--fault-probability=nan"; do
    rc=0
    # $bad is a list of flags: split it.
    # shellcheck disable=SC2086
    "$dir/tools/roboads_fuzz" $bad > /dev/null 2>&1 || rc=$?
    if [ "$rc" -ne 2 ]; then
      echo "fuzz smoke: roboads_fuzz $bad exited $rc, expected 2" >&2
      exit 1
    fi
  done
  echo "fuzz smoke: invariants held, corpus replayed green, bad input refused"
}

# The spec tool over the checked-in corpus (docs/SCENARIOS.md "Tools"):
# `check` accepts every corpus spec and exits 1 on each invalid/ one, `print`
# reproduces every corpus file byte for byte, `run` flies the corpus and
# prints one line per spec, `library` lists the 23 built-ins, and an unknown
# subcommand exits 2.
run_scenario_tool_smoke() {
  local dir="$1"
  local tool="$dir/tools/roboads_scenario"
  local out="$dir/scenario-smoke"
  rm -rf "$out" && mkdir -p "$out"
  local specs=(tests/data/fuzz_corpus/*.spec)
  local spec rc lines
  "$tool" check "${specs[@]}" > /dev/null
  for spec in tests/data/fuzz_corpus/invalid/*.spec; do
    rc=0
    "$tool" check "$spec" > /dev/null 2>&1 || rc=$?
    if [ "$rc" -ne 1 ]; then
      echo "scenario smoke: check $spec exited $rc, expected 1" >&2
      exit 1
    fi
  done
  for spec in "${specs[@]}"; do
    "$tool" print "$spec" > "$out/printed.spec"
    cmp "$spec" "$out/printed.spec"
  done
  "$tool" run "${specs[@]}" > "$out/run.txt"
  lines="$(wc -l < "$out/run.txt")"
  if [ "$lines" -ne "${#specs[@]}" ]; then
    echo "scenario smoke: run printed $lines lines for ${#specs[@]} specs" >&2
    exit 1
  fi
  lines="$("$tool" library | wc -l)"
  if [ "$lines" -ne 23 ]; then
    echo "scenario smoke: library listed $lines specs, expected 23" >&2
    exit 1
  fi
  rc=0
  "$tool" no-such-subcommand "${specs[0]}" > /dev/null 2>&1 || rc=$?
  if [ "$rc" -ne 2 ]; then
    echo "scenario smoke: an unknown subcommand exited $rc, expected 2" >&2
    exit 1
  fi
  # Without a FILE too: the subcommand is checked before the arguments.
  local message
  rc=0
  message="$("$tool" no-such-subcommand 2>&1 > /dev/null)" || rc=$?
  if [ "$rc" -ne 2 ] || ! grep -qF "unknown subcommand" <<< "$message"; then
    echo "scenario smoke: a bare unknown subcommand exited $rc with:" >&2
    echo "$message" >&2
    exit 1
  fi
  echo "scenario smoke: ${#specs[@]} corpus specs checked, printed and" \
    "flown; invalid specs and an unknown subcommand refused"
}

# Sharded-runner chaos smoke (docs/ROBUSTNESS.md): a small sharded fuzz
# campaign flown twice against a serial reference. Pass 1 injects a worker
# SIGKILL mid-campaign (supervised retry must absorb it); pass 2 SIGKILLs
# the *supervisor* mid-run and resumes from the checkpoints. Both merged
# reports must be byte-identical to the serial run's. First, a malformed
# campaign flag of bench/seed_robustness must exit 2 with that bench's own
# usage line (its --seeds, not the --record-window it refuses).
run_shard_smoke() {
  local dir="$1"
  cmake -B "$dir" -S .
  cmake --build "$dir" -j "$JOBS" --target roboads_shard_tool seed_robustness
  local out="$dir/shard-smoke"
  rm -rf "$out" && mkdir -p "$out"
  local rc=0 usage
  usage="$("$dir/bench/seed_robustness" --workers=0 2>&1 > /dev/null)" ||
    rc=$?
  if [ "$rc" -ne 2 ] || ! grep -qF -- "--seeds" <<< "$usage" ||
      grep -qF -- "--record-window" <<< "$usage"; then
    echo "shard smoke: seed_robustness --workers=0 exited $rc with:" >&2
    echo "$usage" >&2
    exit 1
  fi
  local manifest="$out/manifest.jsonl"
  "$dir/tools/roboads_shard" gen-fuzz --out="$manifest" \
    --seed="${FUZZ_SEED:-1}" --campaigns=32 --iterations=60 --shards=4

  "$dir/tools/roboads_shard" serial --manifest="$manifest" \
    --dir="$out/serial"

  "$dir/tools/roboads_shard" run --manifest="$manifest" \
    --dir="$out/chaos" --chaos-kills=1 --chaos-seed="${FUZZ_SEED:-1}" \
    --heartbeat-timeout=5
  cmp "$out/chaos/report.jsonl" "$out/serial/report.jsonl"

  "$dir/tools/roboads_shard" run --manifest="$manifest" \
    --dir="$out/resume" --heartbeat-timeout=5 &
  local pid=$!
  # Kill the supervisor once the first outcome is checkpointed (not after a
  # fixed sleep), so work is left for --resume however fast jobs run.
  local polls=0
  until grep -qs '"event":"outcome"' "$out"/resume/checkpoint-*.jsonl ||
      [ "$polls" -ge 1500 ]; do
    sleep 0.02
    polls=$((polls + 1))
  done
  kill -9 "$pid" 2>/dev/null || true
  wait "$pid" 2>/dev/null || true
  if [ -e "$out/resume/report.jsonl" ]; then
    echo "shard smoke: the run finished before the supervisor kill" >&2
    exit 1
  fi
  "$dir/tools/roboads_shard" run --manifest="$manifest" \
    --dir="$out/resume" --resume --heartbeat-timeout=5
  cmp "$out/resume/report.jsonl" "$out/serial/report.jsonl"
  echo "shard smoke: chaos and resumed runs merged byte-identical to serial"
}

# Live-telemetry smoke (docs/OBSERVABILITY.md "Live campaign telemetry"):
# a ~10 s sharded mini-campaign with a worker kill injected, telemetry
# streaming on a fast cadence, then `roboads_shard watch --once --json`
# twice — once from the supervisor-published status.json, once recomputed
# offline from the manifest + checkpoints — asserted against
# checkpoint-derived truth (every manifest job completed exactly once, step
# latency histogram populated). Also pins roboads_report's failure
# contract: missing and truncated metrics files exit non-zero with a
# diagnostic, and a valid file still renders.
run_watch_smoke() {
  local dir="$1"
  cmake -B "$dir" -S .
  cmake --build "$dir" -j "$JOBS" --target roboads_shard_tool roboads_report
  local out="$dir/watch-smoke"
  rm -rf "$out" && mkdir -p "$out"
  local manifest="$out/manifest.jsonl"
  "$dir/tools/roboads_shard" gen-fuzz --out="$manifest" \
    --seed="${FUZZ_SEED:-1}" --campaigns=16 --iterations=60 --shards=2
  "$dir/tools/roboads_shard" run --manifest="$manifest" \
    --dir="$out/run" --chaos-kills=1 --chaos-seed="${FUZZ_SEED:-1}" \
    --heartbeat-timeout=5 --telemetry-interval=0.2 --status-interval=0.2
  "$dir/tools/roboads_shard" watch --dir="$out/run" --once --json \
    > "$out/status_published.json"
  "$dir/tools/roboads_shard" watch --dir="$out/run" --manifest="$manifest" \
    --once --json > "$out/status_offline.json"
  python3 - "$out" "$out/run" <<'PY'
import glob, json, sys

out, run = sys.argv[1], sys.argv[2]
ids = set()
for path in glob.glob(run + "/checkpoint-*.jsonl"):
    with open(path) as f:
        for line in f:
            record = json.loads(line)
            if record.get("event") == "outcome":
                ids.add(record["id"])
manifest_ids = set()
with open(out + "/manifest.jsonl") as f:
    for line in f:
        record = json.loads(line)
        if "id" in record:
            manifest_ids.add(record["id"])
assert ids == manifest_ids, (
    f"checkpoints cover {len(ids)} jobs, manifest has {len(manifest_ids)}")

for name in ("status_published.json", "status_offline.json"):
    status = json.load(open(out + "/" + name))
    assert status["event"] == "status", name
    assert status["jobs"] == len(manifest_ids), name
    assert status["completed"] == len(manifest_ids), name
    assert status["complete"] is True, name
    assert status["progress"] == 1.0, name
    assert status["ok"] + status["failed"] == status["completed"], name
    assert status["step_latency"]["count"] > 0, name + ": empty histogram"
    assert sum(w["jobs_done"] for w in status["workers"]) >= len(
        manifest_ids), name
print(f"watch smoke: both status views agree with {len(ids)} "
      "checkpointed jobs")
PY

  if "$dir/tools/roboads_report" "$out/missing.jsonl" \
      2> "$out/report_missing.txt"; then
    echo "watch smoke: roboads_report accepted a missing file" >&2
    exit 1
  fi
  grep -q "missing" "$out/report_missing.txt"
  printf '{"metric":"a","kind":"counter","value":1}\n{"metric":"b","kind":"cou' \
    > "$out/truncated.jsonl"
  if "$dir/tools/roboads_report" "$out/truncated.jsonl" \
      2> "$out/report_truncated.txt"; then
    echo "watch smoke: roboads_report accepted a truncated file" >&2
    exit 1
  fi
  grep -q "truncated" "$out/report_truncated.txt"
  printf '{"metric":"a","kind":"counter","value":1}\n' > "$out/valid.jsonl"
  "$dir/tools/roboads_report" "$out/valid.jsonl" > /dev/null
  echo "watch smoke: watch agrees with checkpoints; report fails loudly"
}

case "$MODE" in
  normal)
    run_writer_lint
    run_pass build
    run_obs_smoke build
    run_forensics_smoke build
    run_usage_smoke build
    run_obs_overhead build
    run_bench
    ;;
  tsan)   run_pass build-tsan -DRoboADS_SANITIZE=thread ;;
  asan)   run_pass build-asan -DRoboADS_SANITIZE=address ;;
  ubsan)  run_pass build-ubsan -DRoboADS_SANITIZE=undefined ;;
  bench)  run_bench ;;
  perfbench) run_perfbench ;;
  ab) run_ab ;;
  fuzz-smoke) run_fuzz_smoke build ;;
  shard-smoke) run_shard_smoke build ;;
  watch-smoke) run_watch_smoke build ;;
  fleet-smoke) run_fleet_smoke build ;;
  fleet-watch-smoke) run_fleet_watch_smoke build ;;
  all)
    run_writer_lint
    run_pass build
    run_obs_smoke build
    run_forensics_smoke build
    run_usage_smoke build
    run_obs_overhead build
    run_bench
    run_perfbench
    run_fuzz_smoke build
    run_shard_smoke build
    run_watch_smoke build
    run_fleet_smoke build
    run_fleet_watch_smoke build
    run_pass build-tsan -DRoboADS_SANITIZE=thread
    run_pass build-asan -DRoboADS_SANITIZE=address
    run_pass build-ubsan -DRoboADS_SANITIZE=undefined
    ;;
  *) echo "usage: $0 [normal|tsan|asan|ubsan|bench|perfbench|ab|fuzz-smoke|shard-smoke|watch-smoke|fleet-smoke|fleet-watch-smoke|all]" >&2; exit 2 ;;
esac

echo "ci.sh: all requested passes green"
