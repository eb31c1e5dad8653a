// Versioned JSONL job manifest for sharded campaign runs (docs/ROBUSTNESS.md
// "Sharded campaign runner").
//
// A manifest is the complete, self-contained description of a campaign: one
// header line, then one line per job. Jobs come in three kinds —
//
//   * spec     — an inline serialized ScenarioSpec (the DSL text rides along
//                as a JSON string), flown at the job's mission seed;
//   * library  — a named scenario from scenario/library.h (the legacy
//                Table II / extended / Tamiya batteries), flown at the job's
//                mission seed;
//   * fuzz     — one randomized campaign of a fuzzer sweep, regenerated
//                wherever the job runs by scenario::fuzz_campaign from the
//                job's generator config and fuzz_index, so a sharded sweep
//                covers the identical campaign set as a serial one.
//
// Every job carries a globally unique id and a shard assignment; the id is
// the sole join key between manifest, checkpoints and the merged report, so
// results are independent of which worker (original, retried, or salvage)
// actually flew the job. serialize(parse(serialize(m))) == serialize(m)
// holds byte-for-byte (tests/shard_manifest_test.cc) — numbers are emitted
// with round-trip precision and every field in a fixed order.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "scenario/fuzz.h"
#include "scenario/spec.h"

namespace roboads::shard {

// Thrown on malformed manifest/checkpoint/report text. Mirrors
// scenario::SpecError: a ManifestError means the *input file* is bad, not
// that the library hit an internal invariant.
class ManifestError : public std::runtime_error {
 public:
  explicit ManifestError(const std::string& what)
      : std::runtime_error(what) {}
};

enum class JobKind { kSpec, kLibrary, kFuzz };

// Wire names, indexed by JobKind.
inline constexpr const char* kJobKindNames[] = {"spec", "library", "fuzz"};

const char* to_string(JobKind kind);

struct ManifestJob {
  std::string id;          // globally unique, e.g. "j00017"
  std::size_t shard = 0;   // owning shard, < Manifest::shards
  JobKind kind = JobKind::kSpec;
  // Replication-group key for merged confidence intervals (e.g. "seed-11"
  // groups one seed's full battery). Empty = ungrouped.
  std::string group;

  // kSpec / kLibrary: mission parameters.
  std::uint64_t seed = 0;      // mission seed (overrides the spec's own)
  std::size_t iterations = 0;  // 0 = the spec's own length
  std::string spec_text;       // kSpec: serialized ScenarioSpec
  std::string scenario;        // kLibrary: library spec name

  // kFuzz: campaign regeneration parameters (scenario::FuzzConfig shape).
  std::uint64_t fuzz_seed = 0;
  std::size_t fuzz_index = 0;
  std::size_t fuzz_iterations = 0;
  std::size_t max_attacks = 0;
  double fault_probability = 0.0;
  std::vector<std::string> platforms;
};

struct Manifest {
  static constexpr int kVersion = 1;
  std::size_t shards = 1;
  std::vector<ManifestJob> jobs;
};

std::string serialize(const Manifest& manifest);

// Parses the JSONL form; throws ManifestError with a line number on
// malformed input, unknown kinds, duplicate or empty ids, a shard
// assignment outside [0, shards), or a fuzz job whose fault_probability
// fails scenario::valid_fault_probability.
Manifest parse_manifest(const std::string& text);

void write_manifest_file(const std::string& path, const Manifest& manifest);
Manifest read_manifest_file(const std::string& path);

// --- Manifest builders (tools/roboads_shard gen-*) ------------------------

// Jobs assigned round-robin: job i goes to shard i % shards, so neighboring
// (usually similar-cost) jobs spread evenly.

// The Table II battery replicated across `seeds` independent seeds: 11
// library jobs per seed, mission seed = seed*1000 + scenario number (the
// bench/seed_robustness convention), group "seed-<seed>".
Manifest table2_manifest(const std::vector<std::uint64_t>& seeds,
                         std::size_t shards, std::size_t iterations = 250);

// The first `n` replication seeds: the classic bench/seed_robustness five
// (11, 23, 37, 59, 71) so small runs stay comparable with historical bench
// output, then continuing in steps of 12.
std::vector<std::uint64_t> default_seed_series(std::size_t n);

// One fuzz job per campaign of the sweep `config` describes: job i flies
// scenario::fuzz_campaign(config, i).
Manifest fuzz_manifest(const scenario::FuzzConfig& config, std::size_t shards);

}  // namespace roboads::shard
