#include "shard/manifest.h"

#include <cstdio>
#include <fstream>
#include <sstream>

#include "obs/jsonl.h"
#include "scenario/library.h"

namespace roboads::shard {

// A job line (obs/jsonl.h record codec); the mission fields depend on the
// job kind.
template <class IO>
void codec(IO& io, ManifestJob& job) {
  io.tag("event", "job");
  io("id", job.id);
  io("shard", job.shard);
  io("kind", job.kind, kJobKindNames);
  io("group", job.group);
  switch (job.kind) {
    case JobKind::kSpec:
      io("seed", job.seed);
      io("iterations", job.iterations);
      io("spec", job.spec_text);
      break;
    case JobKind::kLibrary:
      io("seed", job.seed);
      io("iterations", job.iterations);
      io("scenario", job.scenario);
      break;
    case JobKind::kFuzz:
      io("fuzz_seed", job.fuzz_seed);
      io("fuzz_index", job.fuzz_index);
      io("fuzz_iterations", job.fuzz_iterations);
      io("max_attacks", job.max_attacks);
      io("fault_probability", job.fault_probability);
      io("platforms", job.platforms);
      break;
  }
}

namespace {

namespace json = obs::json;

// The header line; `jobs` is derived from the manifest when writing.
struct ManifestHeader {
  std::size_t shards = 1;
  std::size_t jobs = 0;
};

template <class IO>
void codec(IO& io, ManifestHeader& h) {
  io.tag("event", "manifest");
  io.tag("name", "roboads-shard-manifest");
  io.tag("version", Manifest::kVersion);
  io("shards", h.shards);
  io("jobs", h.jobs);
}

[[noreturn]] void manifest_error(std::size_t line, const std::string& what) {
  throw ManifestError("manifest line " + std::to_string(line) + ": " + what);
}

Manifest parse_manifest_impl(const std::string& text) {
  std::istringstream is(text);
  std::string line;
  std::size_t num = 0;
  Manifest manifest;
  bool saw_header = false;
  std::size_t declared_jobs = 0;
  while (std::getline(is, line)) {
    ++num;
    if (line.empty()) continue;
    const std::string context = "manifest line " + std::to_string(num);
    if (!saw_header) {
      const ManifestHeader header = json::decode<ManifestHeader>(line, context);
      manifest.shards = header.shards;
      if (manifest.shards == 0) manifest_error(num, "shards must be >= 1");
      declared_jobs = header.jobs;
      saw_header = true;
      continue;
    }
    ManifestJob job = json::decode<ManifestJob>(line, context);
    if (job.id.empty()) manifest_error(num, "job id must be non-empty");
    if (job.shard >= manifest.shards) {
      manifest_error(num, "job \"" + job.id + "\" assigned to shard " +
                              std::to_string(job.shard) + " of " +
                              std::to_string(manifest.shards));
    }
    if (job.kind == JobKind::kFuzz &&
        !scenario::valid_fault_probability(job.fault_probability)) {
      manifest_error(num, "job \"" + job.id +
                              "\": fault_probability must be finite and in "
                              "[0, 1]");
    }
    for (const ManifestJob& seen : manifest.jobs) {
      if (seen.id == job.id) {
        manifest_error(num, "duplicate job id \"" + job.id + "\"");
      }
    }
    manifest.jobs.push_back(std::move(job));
  }
  if (!saw_header) throw ManifestError("manifest parse error: empty input");
  if (manifest.jobs.size() != declared_jobs) {
    throw ManifestError("manifest declares " + std::to_string(declared_jobs) +
                        " jobs but carries " +
                        std::to_string(manifest.jobs.size()));
  }
  return manifest;
}

}  // namespace

const char* to_string(JobKind kind) {
  return kJobKindNames[static_cast<std::size_t>(kind)];
}

std::string serialize(const Manifest& manifest) {
  std::ostringstream os;
  json::write_line(os, ManifestHeader{manifest.shards, manifest.jobs.size()});
  for (const ManifestJob& job : manifest.jobs) json::write_line(os, job);
  return os.str();
}

Manifest parse_manifest(const std::string& text) {
  // JSON-level problems (unparseable line, missing/mistyped field) surface
  // as ManifestError too: to a caller, a line that is not JSON and a line
  // with the wrong fields are the same kind of bad input file.
  try {
    return parse_manifest_impl(text);
  } catch (const ManifestError&) {
    throw;
  } catch (const std::exception& e) {
    throw ManifestError(e.what());
  }
}

void write_manifest_file(const std::string& path, const Manifest& manifest) {
  std::ofstream os(path, std::ios::trunc);
  if (!os) throw ManifestError("cannot open " + path + " for writing");
  os << serialize(manifest);
  if (!os.flush()) throw ManifestError("failed writing " + path);
}

Manifest read_manifest_file(const std::string& path) {
  std::ifstream is(path);
  if (!is) throw ManifestError("cannot open " + path);
  std::ostringstream text;
  text << is.rdbuf();
  return parse_manifest(text.str());
}

Manifest table2_manifest(const std::vector<std::uint64_t>& seeds,
                         std::size_t shards, std::size_t iterations) {
  Manifest manifest;
  manifest.shards = shards;
  const std::vector<scenario::ScenarioSpec> specs =
      scenario::khepera_table2_specs();
  std::size_t i = 0;
  for (std::uint64_t seed : seeds) {
    for (std::size_t n = 1; n <= specs.size(); ++n) {
      ManifestJob job;
      char id[16];
      std::snprintf(id, sizeof(id), "j%05zu", i);
      job.id = id;
      job.shard = i % shards;
      job.kind = JobKind::kLibrary;
      job.group = "seed-" + std::to_string(seed);
      // The bench/seed_robustness convention: each scenario of a
      // replication flies at seed*1000 + its Table II number.
      job.seed = seed * 1000 + n;
      job.iterations = iterations;
      job.scenario = specs[n - 1].name;
      manifest.jobs.push_back(std::move(job));
      ++i;
    }
  }
  return manifest;
}

Manifest fuzz_manifest(const scenario::FuzzConfig& config,
                       std::size_t shards) {
  Manifest manifest;
  manifest.shards = shards;
  for (std::size_t i = 0; i < config.campaigns; ++i) {
    ManifestJob job;
    char id[16];
    std::snprintf(id, sizeof(id), "j%05zu", i);
    job.id = id;
    job.shard = i % shards;
    job.kind = JobKind::kFuzz;
    job.group = "fuzz";
    job.fuzz_seed = config.seed;
    job.fuzz_index = i;
    job.fuzz_iterations = config.iterations;
    job.max_attacks = config.max_attacks;
    job.fault_probability = config.fault_probability;
    job.platforms = config.platforms;
    manifest.jobs.push_back(std::move(job));
  }
  return manifest;
}

std::vector<std::uint64_t> default_seed_series(std::size_t n) {
  static constexpr std::uint64_t kClassic[] = {11, 23, 37, 59, 71};
  std::vector<std::uint64_t> seeds;
  seeds.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    seeds.push_back(i < 5 ? kClassic[i] : 71 + 12 * (i - 4));
  }
  return seeds;
}

}  // namespace roboads::shard
