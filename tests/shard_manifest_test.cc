// Manifest serialization invariants for the sharded campaign runner. The
// load-bearing property is byte-identical round-tripping: the manifest is
// the sole description of a campaign, and resumed or salvaged runs re-read
// it from disk, so serialize(parse(serialize(m))) must equal serialize(m)
// exactly.
#include "shard/manifest.h"

#include <gtest/gtest.h>

#include "scenario/library.h"

namespace roboads::shard {
namespace {

Manifest mixed_manifest() {
  Manifest manifest;
  manifest.shards = 3;

  ManifestJob spec_job;
  spec_job.id = "inline-0";
  spec_job.shard = 0;
  spec_job.kind = JobKind::kSpec;
  spec_job.group = "inline";
  spec_job.seed = 77;
  spec_job.iterations = 120;
  spec_job.spec_text = scenario::serialize(scenario::khepera_table2_spec(3));
  manifest.jobs.push_back(spec_job);

  ManifestJob lib_job;
  lib_job.id = "lib-0";
  lib_job.shard = 1;
  lib_job.kind = JobKind::kLibrary;
  lib_job.group = "seed-11";
  lib_job.seed = 11011;
  lib_job.iterations = 250;
  lib_job.scenario = scenario::khepera_table2_spec(1).name;
  manifest.jobs.push_back(lib_job);

  ManifestJob fuzz_job;
  fuzz_job.id = "fuzz-0";
  fuzz_job.shard = 2;
  fuzz_job.kind = JobKind::kFuzz;
  fuzz_job.group = "fuzz";
  fuzz_job.fuzz_seed = 9;
  fuzz_job.fuzz_index = 4;
  fuzz_job.fuzz_iterations = 80;
  fuzz_job.max_attacks = 3;
  fuzz_job.fault_probability = 0.35;
  fuzz_job.platforms = {"khepera", "tamiya"};
  manifest.jobs.push_back(fuzz_job);

  return manifest;
}

TEST(ShardManifest, RoundTripsByteIdentical) {
  const Manifest manifest = mixed_manifest();
  const std::string text = serialize(manifest);
  const Manifest reparsed = parse_manifest(text);
  EXPECT_EQ(serialize(reparsed), text);

  ASSERT_EQ(reparsed.jobs.size(), 3u);
  EXPECT_EQ(reparsed.shards, 3u);
  EXPECT_EQ(reparsed.jobs[0].kind, JobKind::kSpec);
  EXPECT_EQ(reparsed.jobs[0].spec_text, manifest.jobs[0].spec_text);
  EXPECT_EQ(reparsed.jobs[1].kind, JobKind::kLibrary);
  EXPECT_EQ(reparsed.jobs[1].seed, 11011u);
  EXPECT_EQ(reparsed.jobs[2].kind, JobKind::kFuzz);
  EXPECT_EQ(reparsed.jobs[2].platforms,
            (std::vector<std::string>{"khepera", "tamiya"}));
  EXPECT_DOUBLE_EQ(reparsed.jobs[2].fault_probability, 0.35);
}

TEST(ShardManifest, RejectsMalformedManifests) {
  const std::string good = serialize(mixed_manifest());

  EXPECT_THROW(parse_manifest(""), ManifestError);
  EXPECT_THROW(parse_manifest("not json\n"), ManifestError);

  // Wrong declared job count.
  Manifest short_manifest = mixed_manifest();
  std::string text = serialize(short_manifest);
  text = text.substr(0, text.find('\n') + 1);  // header only, declares 3 jobs
  EXPECT_THROW(parse_manifest(text), ManifestError);

  // Duplicate ids.
  Manifest duplicated = mixed_manifest();
  duplicated.jobs[1].id = duplicated.jobs[0].id;
  EXPECT_THROW(parse_manifest(serialize(duplicated)), ManifestError);

  // Shard out of range.
  Manifest bad_shard = mixed_manifest();
  bad_shard.jobs[0].shard = 3;  // shards == 3, valid range [0, 3)
  EXPECT_THROW(parse_manifest(serialize(bad_shard)), ManifestError);

  // A fuzz job's fault probability outside [0, 1]: the generator's coin
  // would read it as "never" or "always". The error names the line.
  for (const double p : {-0.1, 1.5}) {
    Manifest bad_probability = mixed_manifest();
    bad_probability.jobs[2].fault_probability = p;
    try {
      parse_manifest(serialize(bad_probability));
      ADD_FAILURE() << "fault_probability " << p << " accepted";
    } catch (const ManifestError& e) {
      EXPECT_NE(std::string(e.what()).find("line 4"), std::string::npos)
          << e.what();
    }
  }

  // Future version.
  std::string future = good;
  const std::string version = "\"version\":1";
  future.replace(future.find(version), version.size(), "\"version\":2");
  EXPECT_THROW(parse_manifest(future), ManifestError);
}

TEST(ShardManifest, Table2BuilderFollowsBenchConvention) {
  const Manifest manifest = table2_manifest({11, 23}, 4, 250);
  ASSERT_EQ(manifest.jobs.size(), 22u);
  EXPECT_EQ(manifest.shards, 4u);
  // Mission seed = seed*1000 + scenario number; round-robin shards.
  EXPECT_EQ(manifest.jobs[0].seed, 11001u);
  EXPECT_EQ(manifest.jobs[10].seed, 11011u);
  EXPECT_EQ(manifest.jobs[11].seed, 23001u);
  EXPECT_EQ(manifest.jobs[0].group, "seed-11");
  EXPECT_EQ(manifest.jobs[11].group, "seed-23");
  for (std::size_t i = 0; i < manifest.jobs.size(); ++i) {
    EXPECT_EQ(manifest.jobs[i].shard, i % 4);
    EXPECT_EQ(manifest.jobs[i].kind, JobKind::kLibrary);
  }
  // Ids are unique and zero-padded so lexical order == manifest order.
  EXPECT_EQ(manifest.jobs[0].id, "j00000");
  EXPECT_EQ(manifest.jobs[21].id, "j00021");
}

TEST(ShardManifest, FuzzBuilderMirrorsFuzzConfig) {
  scenario::FuzzConfig config;
  config.seed = 5;
  config.campaigns = 7;
  config.iterations = 90;
  config.max_attacks = 2;
  config.platforms = {"khepera"};
  const Manifest manifest = fuzz_manifest(config, 2);
  ASSERT_EQ(manifest.jobs.size(), 7u);
  for (std::size_t i = 0; i < manifest.jobs.size(); ++i) {
    const ManifestJob& job = manifest.jobs[i];
    EXPECT_EQ(job.kind, JobKind::kFuzz);
    EXPECT_EQ(job.fuzz_seed, 5u);
    EXPECT_EQ(job.fuzz_index, i);
    EXPECT_EQ(job.fuzz_iterations, 90u);
    EXPECT_EQ(job.shard, i % 2);
  }
}

TEST(ShardManifest, DefaultSeedSeriesKeepsClassicPrefix) {
  const std::vector<std::uint64_t> five = default_seed_series(5);
  EXPECT_EQ(five, (std::vector<std::uint64_t>{11, 23, 37, 59, 71}));
  const std::vector<std::uint64_t> eight = default_seed_series(8);
  EXPECT_EQ(std::vector<std::uint64_t>(eight.begin(), eight.begin() + 5),
            five);
  // Extension is strictly increasing, so seeds never collide.
  for (std::size_t i = 1; i < eight.size(); ++i) {
    EXPECT_LT(eight[i - 1], eight[i]);
  }
}

}  // namespace
}  // namespace roboads::shard
