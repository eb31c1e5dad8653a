// Tests for the coverage fuzzer (scenario/fuzz.h): the campaign generator's
// validity and determinism, the invariant checker on known-good and
// known-bad specs, the greedy shrinker against synthetic violations, and a
// small fixed-seed sweep (a shard manifest flown serially) that must come
// back clean.
#include <string>

#include <gtest/gtest.h>

#include "scenario/fuzz.h"
#include "scenario/library.h"
#include "shard/run.h"

namespace roboads::scenario {
namespace {

TEST(FuzzTest, GeneratorEmitsOnlyValidSpecs) {
  FuzzConfig config;
  config.iterations = 90;
  config.max_attacks = 4;
  for (std::size_t i = 0; i < 150; ++i) {
    Mt19937_64 engine(5000 + i);
    const std::string platform = i % 2 == 0 ? "khepera" : "tamiya";
    const ScenarioSpec spec = random_campaign(engine, platform, i, config);
    EXPECT_NO_THROW(validate_spec(spec)) << serialize(spec);
    EXPECT_GE(spec.attacks.size(), 1u);
    EXPECT_LE(spec.attacks.size(), config.max_attacks);
    for (const AttackSpec& attack : spec.attacks) {
      EXPECT_LT(attack.onset, spec.iterations);
      EXPECT_NE(attack.duration, 0u);
    }
  }
}

TEST(FuzzTest, GeneratorIsDeterministicPerSeed) {
  FuzzConfig config;
  Mt19937_64 a(42), b(42), c(43);
  const std::string spec_a =
      serialize(random_campaign(a, "khepera", 7, config));
  const std::string spec_b =
      serialize(random_campaign(b, "khepera", 7, config));
  const std::string spec_c =
      serialize(random_campaign(c, "khepera", 7, config));
  EXPECT_EQ(spec_a, spec_b);
  EXPECT_NE(spec_a, spec_c);
}

TEST(FuzzTest, CheckCampaignPassesLibrarySpec) {
  ScenarioSpec spec = khepera_table2_spec(8);
  spec.iterations = 150;  // keep the test fast
  spec.seed = 88;
  EXPECT_EQ(check_campaign(spec), std::nullopt);
}

TEST(FuzzTest, CheckCampaignReportsInvalidSpecAsViolation) {
  ScenarioSpec spec = khepera_table2_spec(3);
  spec.attacks[0].workflow = "gps";  // unknown sensor
  const std::optional<InvariantViolation> violation = check_campaign(spec);
  ASSERT_TRUE(violation.has_value());
  EXPECT_EQ(violation->invariant, "spec-rejected");
}

// ---- Shrinker (synthetic violations, no missions) ------------------------

ScenarioSpec three_attack_campaign() {
  ScenarioSpec spec;
  spec.name = "shrink-me";
  spec.platform = "khepera";
  spec.iterations = 200;
  spec.seed = 9;

  AttackSpec trigger;  // the attack the synthetic invariant cares about
  trigger.shape = AttackShape::kBias;
  trigger.target = Target::kSensor;
  trigger.workflow = "ips";
  trigger.onset = 60;
  trigger.duration = 100;
  trigger.magnitude = Vector{0.1, 0.05, 0.0};

  AttackSpec bystander;
  bystander.shape = AttackShape::kRamp;
  bystander.target = Target::kSensor;
  bystander.workflow = "wheel_encoder";
  bystander.onset = 40;
  bystander.duration = kForever;
  bystander.magnitude = Vector{0.001, 0.0, -0.022};

  AttackSpec actuator;
  actuator.shape = AttackShape::kBias;
  actuator.target = Target::kActuator;
  actuator.workflow = "wheels";
  actuator.onset = 80;
  actuator.duration = kForever;
  actuator.magnitude = Vector{0.01, -0.01};

  spec.attacks = {trigger, bystander, actuator};
  return spec;
}

// Violation: some ips bias attack has a nonzero X component.
std::optional<InvariantViolation> synthetic_check(const ScenarioSpec& spec) {
  for (const AttackSpec& attack : spec.attacks) {
    if (attack.shape == AttackShape::kBias &&
        attack.workflow == "ips" && attack.magnitude.size() == 3 &&
        attack.magnitude[0] != 0.0) {
      return InvariantViolation{"synthetic", "ips bias X nonzero"};
    }
  }
  return std::nullopt;
}

TEST(FuzzTest, ShrinkerMinimizesToTheTriggeringAttack) {
  const ScenarioSpec original = three_attack_campaign();
  const InvariantViolation violation{"synthetic", "ips bias X nonzero"};
  std::size_t spent = 0;
  const ScenarioSpec shrunk = shrink_campaign_with(
      original, violation, synthetic_check, /*budget=*/300, &spent);

  // Everything irrelevant to the invariant is gone or neutralized.
  ASSERT_EQ(shrunk.attacks.size(), 1u);
  EXPECT_EQ(shrunk.attacks[0].workflow, "ips");
  EXPECT_EQ(shrunk.attacks[0].shape, AttackShape::kBias);
  EXPECT_NE(shrunk.attacks[0].magnitude[0], 0.0);   // still triggers
  EXPECT_EQ(shrunk.attacks[0].magnitude[1], 0.0);   // zeroed
  EXPECT_EQ(shrunk.attacks[0].onset, 1u);
  EXPECT_EQ(shrunk.attacks[0].duration, kForever);
  EXPECT_LT(shrunk.iterations, original.iterations);
  EXPECT_GT(spent, 0u);
  EXPECT_LE(spent, 300u);

  // The shrunk spec is still valid and still reproduces.
  EXPECT_NO_THROW(validate_spec(shrunk));
  EXPECT_TRUE(synthetic_check(shrunk).has_value());
}

TEST(FuzzTest, ShrinkerReturnsInputWhenNothingReproduces) {
  const ScenarioSpec original = three_attack_campaign();
  const InvariantViolation violation{"other-invariant", "never fires"};
  const ScenarioSpec shrunk = shrink_campaign_with(
      original, violation, synthetic_check, /*budget=*/50);
  EXPECT_EQ(serialize(shrunk), serialize(original));
}

TEST(FuzzTest, ShrinkerRespectsBudget) {
  const ScenarioSpec original = three_attack_campaign();
  const InvariantViolation violation{"synthetic", "ips bias X nonzero"};
  std::size_t spent = 0;
  shrink_campaign_with(original, violation, synthetic_check, /*budget=*/3,
                       &spent);
  EXPECT_LE(spent, 3u);
}

// ---- End-to-end ----------------------------------------------------------

TEST(FuzzTest, SmallFixedSeedRunIsCleanAndDeterministic) {
  FuzzConfig config;
  config.seed = 20260807;
  config.campaigns = 6;
  config.iterations = 60;

  // The sweep every front end flies: one manifest job per campaign, run
  // through shard::execute_job.
  const shard::Manifest manifest = shard::fuzz_manifest(config, 1);
  const std::vector<shard::JobOutcome> outcomes =
      shard::run_serial(manifest, {});
  ASSERT_EQ(outcomes.size(), 6u);
  for (const shard::JobOutcome& outcome : outcomes) {
    EXPECT_EQ(outcome.status, "ok") << outcome.id << ": " << outcome.failure;
    EXPECT_TRUE(outcome.findings.empty())
        << outcome.id << ": " << outcome.findings.front().detail;
  }

  // Same config again: byte-identical merged report.
  EXPECT_EQ(shard::merge_outcomes(manifest, outcomes).text,
            shard::merge_outcomes(manifest, shard::run_serial(manifest, {}))
                .text);
}

}  // namespace
}  // namespace roboads::scenario
