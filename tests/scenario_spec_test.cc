// Property and regression tests for the scenario DSL (src/scenario): the
// serialize→parse→serialize fixed point, deterministic compilation, the
// compiler's window edge-case rejections, and parser diagnostics.
#include <algorithm>
#include <random>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "common/check.h"
#include "eval/khepera.h"
#include "eval/trace_io.h"
#include "scenario/compile.h"
#include "scenario/fuzz.h"
#include "scenario/library.h"
#include "scenario/spec.h"

namespace roboads::scenario {
namespace {

ScenarioSpec one_attack_spec(AttackSpec attack, std::size_t iterations = 250) {
  ScenarioSpec spec;
  spec.name = "test";
  spec.platform = "khepera";
  spec.iterations = iterations;
  spec.attacks.push_back(std::move(attack));
  return spec;
}

AttackSpec ips_bias(std::size_t onset, std::size_t duration) {
  AttackSpec a;
  a.shape = AttackShape::kBias;
  a.target = Target::kSensor;
  a.workflow = "ips";
  a.onset = onset;
  a.duration = duration;
  a.magnitude = Vector{0.07, 0.0, 0.0};
  return a;
}

// ---- Round-trip property -------------------------------------------------

TEST(ScenarioSpecTest, LibrarySpecsRoundTripByteIdentical) {
  for (const ScenarioSpec& spec : all_library_specs()) {
    const std::string text = serialize(spec);
    const ScenarioSpec reparsed = parse(text);
    EXPECT_EQ(serialize(reparsed), text) << spec.name;
    EXPECT_NO_THROW(validate_spec(reparsed)) << spec.name;
  }
}

TEST(ScenarioSpecTest, RandomCampaignsRoundTripByteIdentical) {
  FuzzConfig config;
  config.iterations = 100;
  config.max_attacks = 4;
  for (std::size_t i = 0; i < 200; ++i) {
    Mt19937_64 engine(1234 + i);
    const std::string platform = i % 2 == 0 ? "khepera" : "tamiya";
    const ScenarioSpec spec = random_campaign(engine, platform, i, config);
    const std::string text = serialize(spec);
    const ScenarioSpec reparsed = parse(text);
    EXPECT_EQ(serialize(reparsed), text) << text;
    EXPECT_NO_THROW(validate_spec(reparsed)) << text;
  }
}

TEST(ScenarioSpecTest, RoundTripPreservesAwkwardStringsAndDoubles) {
  ScenarioSpec spec = one_attack_spec(ips_bias(60, kForever));
  spec.name = "quotes \" and \\ backslash\nand newline\ttab";
  spec.description = "π ≈ 3.14159";
  spec.attacks[0].magnitude = Vector{0.1 + 0.2, -1e-17, 12345.0};
  const std::string text = serialize(spec);
  const ScenarioSpec reparsed = parse(text);
  EXPECT_EQ(serialize(reparsed), text);
  EXPECT_EQ(reparsed.name, spec.name);
  EXPECT_EQ(reparsed.description, spec.description);
  EXPECT_EQ(reparsed.attacks[0].magnitude[0], 0.1 + 0.2);  // exact
  EXPECT_EQ(reparsed.attacks[0].magnitude[1], -1e-17);
}

TEST(ScenarioSpecTest, ParseAcceptsCommentsAndBlankLines) {
  const ScenarioSpec spec = parse(
      "# corpus file\n\nroboads-scenario-spec v1\n"
      "name \"commented\"\n"
      "platform khepera\n"
      "# attack below\n"
      "attack bias sensor \"ips\" onset 60 duration forever "
      "magnitude [0.07, 0, 0]\n"
      "end\n");
  EXPECT_EQ(spec.name, "commented");
  ASSERT_EQ(spec.attacks.size(), 1u);
  EXPECT_EQ(spec.attacks[0].onset, 60u);
  EXPECT_EQ(spec.attacks[0].duration, kForever);
}

// ---- Deterministic compilation ------------------------------------------

TEST(ScenarioSpecTest, CompiledInjectorSequenceIsDeterministic) {
  const ScenarioSpec spec = khepera_table2_spec(8);
  const attacks::Scenario a = lower_spec(spec).scenario;
  const attacks::Scenario b = lower_spec(spec).scenario;
  ASSERT_EQ(a.attachments().size(), b.attachments().size());
  for (std::size_t i = 0; i < a.attachments().size(); ++i) {
    EXPECT_EQ(a.attachments()[i].point, b.attachments()[i].point);
    EXPECT_EQ(a.attachments()[i].workflow, b.attachments()[i].workflow);
    EXPECT_EQ(a.attachments()[i].injector->describe(),
              b.attachments()[i].injector->describe());
  }
}

TEST(ScenarioSpecTest, NoiseCampaignMissionsAreBitIdenticalPerSeed) {
  // A stateful stochastic injector is the hardest determinism case: the
  // noise stream must come from the spec's noise-seed, not global state.
  AttackSpec noise;
  noise.shape = AttackShape::kNoise;
  noise.target = Target::kSensor;
  noise.workflow = "ips";
  noise.onset = 30;
  noise.duration = kForever;
  noise.magnitude = Vector{0.05, 0.05, 0.01};
  noise.noise_seed = 424242;
  ScenarioSpec spec = one_attack_spec(std::move(noise), 120);
  spec.seed = 77;

  const eval::ContainedRun first = fly_spec(spec);
  const eval::ContainedRun second = fly_spec(spec);
  ASSERT_FALSE(first.failed()) << first.failure->what;
  ASSERT_FALSE(second.failed()) << second.failure->what;
  const eval::KheperaPlatform platform;
  std::ostringstream csv_first, csv_second;
  eval::write_trace_csv(csv_first, first.result, platform);
  eval::write_trace_csv(csv_second, second.result, platform);
  EXPECT_EQ(csv_first.str(), csv_second.str());
}

// ---- Compiler edge-case regressions (fuzzer-mandated) --------------------

// The enum-era path CHECK-crashed on Window{s, s} at injector construction;
// the compiler must reject the spec with a typed error instead.
TEST(ScenarioSpecTest, ZeroDurationAttackIsRejectedNotCrash) {
  const ScenarioSpec spec = one_attack_spec(ips_bias(60, 0));
  EXPECT_THROW(validate_spec(spec), SpecError);
  EXPECT_THROW(lower_spec(spec), SpecError);
  try {
    validate_spec(spec);
    FAIL() << "expected SpecError";
  } catch (const SpecError& e) {
    EXPECT_NE(std::string(e.what()).find("duration"), std::string::npos);
  } catch (const CheckError&) {
    FAIL() << "zero duration must surface as SpecError, not CheckError";
  }
}

// The enum-era path silently accepted an attack that could never fire; the
// compiler must reject an onset at or past the mission horizon.
TEST(ScenarioSpecTest, OnsetBeyondMissionHorizonIsRejected) {
  EXPECT_THROW(validate_spec(one_attack_spec(ips_bias(250, kForever), 250)),
               SpecError);
  EXPECT_THROW(validate_spec(one_attack_spec(ips_bias(9999, kForever), 250)),
               SpecError);
  EXPECT_NO_THROW(validate_spec(one_attack_spec(ips_bias(249, kForever), 250)));
}

TEST(ScenarioSpecTest, OverflowingWindowIsRejected) {
  const ScenarioSpec spec = one_attack_spec(ips_bias(100, kForever - 10));
  EXPECT_THROW(validate_spec(spec), SpecError);
}

// ---- Semantic validation -------------------------------------------------

TEST(ScenarioSpecTest, RejectsUnknownPlatformWorkflowAndDimensions) {
  ScenarioSpec bad_platform = one_attack_spec(ips_bias(60, kForever));
  bad_platform.platform = "turtlebot";
  EXPECT_THROW(validate_spec(bad_platform), SpecError);

  ScenarioSpec bad_sensor = one_attack_spec(ips_bias(60, kForever));
  bad_sensor.attacks[0].workflow = "gps";
  EXPECT_THROW(validate_spec(bad_sensor), SpecError);

  ScenarioSpec bad_dim = one_attack_spec(ips_bias(60, kForever));
  bad_dim.attacks[0].magnitude = Vector{0.07};  // ips is 3-dimensional
  EXPECT_THROW(validate_spec(bad_dim), SpecError);

  ScenarioSpec freeze_with_payload = one_attack_spec(ips_bias(60, kForever));
  freeze_with_payload.attacks[0].shape = AttackShape::kFreeze;
  EXPECT_THROW(validate_spec(freeze_with_payload), SpecError);

  ScenarioSpec negative_noise = one_attack_spec(ips_bias(60, kForever));
  negative_noise.attacks[0].shape = AttackShape::kNoise;
  negative_noise.attacks[0].magnitude = Vector{-0.1, 0.0, 0.0};
  EXPECT_THROW(validate_spec(negative_noise), SpecError);
}

TEST(ScenarioSpecTest, RejectsBadObstructionGeometry) {
  AttackSpec obstruction;
  obstruction.shape = AttackShape::kFlatObstruction;
  obstruction.target = Target::kLidarRaw;
  obstruction.workflow = "lidar";
  obstruction.onset = 60;
  obstruction.first_beam = 0;
  obstruction.last_beam = 81;  // full scan: no flat board covers 2π
  obstruction.distance = 0.15;
  EXPECT_THROW(validate_spec(one_attack_spec(obstruction)), SpecError);

  obstruction.last_beam = 0;  // empty sector
  EXPECT_THROW(validate_spec(one_attack_spec(obstruction)), SpecError);

  obstruction.first_beam = 62;
  obstruction.last_beam = 81;
  obstruction.distance = -1.0;
  EXPECT_THROW(validate_spec(one_attack_spec(obstruction)), SpecError);

  obstruction.distance = 0.15;
  EXPECT_NO_THROW(validate_spec(one_attack_spec(obstruction)));
}

// ---- Transport faults stanza ---------------------------------------------

FaultSpec wheels_fault() {
  FaultSpec f;
  f.sensor = "wheel_encoder";
  f.drop_rate = 0.1;
  f.stale_rate = 0.05;
  f.duplicate_rate = 0.02;
  f.freeze_at = 40;
  f.freeze_duration = 10;
  return f;
}

TEST(ScenarioSpecTest, FaultStanzaRoundTripsByteIdentical) {
  ScenarioSpec spec = one_attack_spec(ips_bias(60, kForever));
  spec.faults.push_back(wheels_fault());
  FaultSpec drop_only;
  drop_only.sensor = "ips";
  drop_only.drop_rate = 0.1 + 0.2;  // awkward double
  spec.faults.push_back(drop_only);
  spec.fault_seed = 987654321;

  const std::string text = serialize(spec);
  EXPECT_NE(text.find("fault \"wheel_encoder\" drop"), std::string::npos) << text;
  EXPECT_NE(text.find("fault-seed 987654321"), std::string::npos) << text;
  const ScenarioSpec reparsed = parse(text);
  EXPECT_EQ(serialize(reparsed), text);
  ASSERT_EQ(reparsed.faults.size(), 2u);
  EXPECT_EQ(reparsed.faults[0].freeze_at, 40u);
  EXPECT_EQ(reparsed.faults[1].drop_rate, 0.1 + 0.2);  // exact
  EXPECT_EQ(reparsed.fault_seed, 987654321u);
  EXPECT_NO_THROW(validate_spec(reparsed));
}

TEST(ScenarioSpecTest, FaultSeedOmittedWithoutFaults) {
  const ScenarioSpec spec = one_attack_spec(ips_bias(60, kForever));
  EXPECT_EQ(serialize(spec).find("fault-seed"), std::string::npos);
}

TEST(ScenarioSpecTest, RejectsInvalidFaultStanzas) {
  const auto with_fault = [](FaultSpec f) {
    ScenarioSpec spec = one_attack_spec(ips_bias(60, kForever));
    spec.faults.push_back(std::move(f));
    return spec;
  };

  FaultSpec unknown = wheels_fault();
  unknown.sensor = "gps";
  EXPECT_THROW(validate_spec(with_fault(unknown)), SpecError);

  FaultSpec negative = wheels_fault();
  negative.drop_rate = -0.1;
  EXPECT_THROW(validate_spec(with_fault(negative)), SpecError);

  FaultSpec oversum = wheels_fault();
  oversum.drop_rate = 0.5;
  oversum.stale_rate = 0.4;
  oversum.duplicate_rate = 0.2;
  EXPECT_THROW(validate_spec(with_fault(oversum)), SpecError);

  FaultSpec no_onset = wheels_fault();
  no_onset.freeze_at = 0;  // freeze_duration stays 10
  EXPECT_THROW(validate_spec(with_fault(no_onset)), SpecError);

  FaultSpec late_freeze = wheels_fault();
  late_freeze.freeze_at = 250;  // at the horizon
  EXPECT_THROW(validate_spec(with_fault(late_freeze)), SpecError);

  ScenarioSpec duplicated = with_fault(wheels_fault());
  duplicated.faults.push_back(wheels_fault());
  EXPECT_THROW(validate_spec(duplicated), SpecError);

  // All faults must be pre-checked as SpecErrors, never surface as the
  // transport model's CheckErrors.
  try {
    validate_spec(with_fault(oversum));
    FAIL() << "expected SpecError";
  } catch (const SpecError& e) {
    EXPECT_NE(std::string(e.what()).find("sum"), std::string::npos);
  } catch (const CheckError&) {
    FAIL() << "fault errors must surface as SpecError, not CheckError";
  }
}

TEST(ScenarioSpecTest, TransportFaultsLowerOntoSimConfig) {
  ScenarioSpec spec = one_attack_spec(ips_bias(60, kForever));
  spec.faults.push_back(wheels_fault());
  spec.fault_seed = 2026;
  spec.seed = 4711;
  const SpecMission mission = lower_spec(spec);
  const sim::TransportFaultConfig& config = mission.config.transport_faults;
  EXPECT_EQ(config.seed, 2026u);
  ASSERT_EQ(config.sensors.size(), 1u);
  EXPECT_EQ(config.sensors[0].sensor, "wheel_encoder");
  EXPECT_EQ(config.sensors[0].drop_rate, 0.1);
  EXPECT_EQ(config.sensors[0].stale_rate, 0.05);
  EXPECT_EQ(config.sensors[0].duplicate_rate, 0.02);
  EXPECT_EQ(config.sensors[0].freeze_at, 40u);
  EXPECT_EQ(config.sensors[0].freeze_duration, 10u);
  EXPECT_TRUE(config.active());

  // The rest of the mission: the spec's horizon and seed, no instruments,
  // and the "<name>/s<seed>" label, on the spec's platform.
  EXPECT_EQ(mission.config.iterations, 250u);
  EXPECT_EQ(mission.config.seed, 4711u);
  EXPECT_EQ(mission.config.obs_label, "test/s4711");
  EXPECT_FALSE(mission.config.instruments.enabled());
  EXPECT_EQ(mission.platform->name(), "khepera");
  EXPECT_EQ(mission.scenario.name(), "test");
  ASSERT_EQ(mission.scenario.attachments().size(), 1u);

  // No faults stanza → inactive config → the bit-identical no-fault path.
  const ScenarioSpec plain = one_attack_spec(ips_bias(60, kForever));
  EXPECT_FALSE(lower_spec(plain).config.transport_faults.active());
}

TEST(ScenarioSpecTest, FaultedMissionsAreBitIdenticalPerSeed) {
  ScenarioSpec spec = one_attack_spec(ips_bias(60, kForever), 120);
  spec.seed = 77;
  spec.faults.push_back(wheels_fault());
  spec.fault_seed = 31337;

  const eval::ContainedRun first = fly_spec(spec);
  const eval::ContainedRun second = fly_spec(spec);
  ASSERT_FALSE(first.failed()) << first.failure->what;
  ASSERT_FALSE(second.failed()) << second.failure->what;
  const eval::KheperaPlatform platform;
  std::ostringstream csv_first, csv_second;
  eval::write_trace_csv(csv_first, first.result, platform);
  eval::write_trace_csv(csv_second, second.result, platform);
  EXPECT_EQ(csv_first.str(), csv_second.str());

  // And the faults must actually perturb the mission relative to a
  // fault-free flight — the stanza is wired through, not dropped.
  ScenarioSpec plain = spec;
  plain.faults.clear();
  const eval::ContainedRun unfaulted = fly_spec(plain);
  ASSERT_FALSE(unfaulted.failed()) << unfaulted.failure->what;
  std::ostringstream csv_plain;
  eval::write_trace_csv(csv_plain, unfaulted.result, platform);
  EXPECT_NE(csv_first.str(), csv_plain.str());
}

// ---- Parser diagnostics --------------------------------------------------

TEST(ScenarioSpecTest, ParseErrorsCarryLineNumbers) {
  const std::string text =
      "roboads-scenario-spec v1\n"
      "name \"x\"\n"
      "platform khepera\n"
      "attack sideways sensor \"ips\" onset 60 duration forever\n"
      "end\n";
  try {
    parse(text);
    FAIL() << "expected SpecError";
  } catch (const SpecError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("line 4"), std::string::npos) << what;
    EXPECT_NE(what.find("sideways"), std::string::npos) << what;
  }
}

TEST(ScenarioSpecTest, MissingEndNamesTheLineWhereTheInputEnded) {
  // The "end" line commented out: the input ends at line 3.
  try {
    parse("roboads-scenario-spec v1\nname \"x\"\n#end\n");
    FAIL() << "expected SpecError";
  } catch (const SpecError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("line 3: missing \"end\""), std::string::npos)
        << what;
  }
}

TEST(ScenarioSpecTest, NonFiniteNumbersAreRejectedAndHugeOnesRoundTrip) {
  // No spec quantity is infinite or NaN: parse refuses one, naming its
  // line (the attack is line 7).
  const std::string text = serialize(one_attack_spec(ips_bias(60, 10)));
  const std::string x = "0.070000000000000007";
  ASSERT_NE(text.find(x), std::string::npos);
  for (const char* bad : {"inf", "-inf", "nan", "1e400", "-1e999"}) {
    std::string mutated = text;
    mutated.replace(mutated.find(x), x.size(), bad);
    try {
      parse(mutated);
      ADD_FAILURE() << bad << " was accepted";
    } catch (const SpecError& e) {
      EXPECT_NE(std::string(e.what()).find("line 7"), std::string::npos)
          << e.what();
    }
  }
  EXPECT_THROW(parse("roboads-scenario-spec v1\niterations 1e30\nend\n"),
               SpecError);

  // Finite magnitudes past 2^63 take the %.17g form without casting to an
  // integer first (undefined behavior, caught by ./ci.sh ubsan).
  ScenarioSpec huge = one_attack_spec(ips_bias(60, 10));
  huge.attacks[0].magnitude = Vector{1e20, -1e300, 9223372036854775808.0};
  const std::string huge_text = serialize(huge);
  EXPECT_NE(huge_text.find("[1e+20, -1.0000000000000001e+300, "
                           "9.2233720368547758e+18]"),
            std::string::npos)
      << huge_text;
  EXPECT_EQ(serialize(parse(huge_text)), huge_text);
}

TEST(ScenarioSpecTest, ParseRejectsMalformedInput) {
  EXPECT_THROW(parse(""), SpecError);
  EXPECT_THROW(parse("not-a-spec\n"), SpecError);
  // Missing "end".
  EXPECT_THROW(parse("roboads-scenario-spec v1\nname \"x\"\n"), SpecError);
  // Content after "end".
  EXPECT_THROW(parse("roboads-scenario-spec v1\nend\nname \"x\"\n"),
               SpecError);
  // Unterminated string.
  EXPECT_THROW(parse("roboads-scenario-spec v1\nname \"x\nend\n"), SpecError);
  // Bad number.
  EXPECT_THROW(
      parse("roboads-scenario-spec v1\niterations banana\nend\n"), SpecError);
  // Mask entries must be 0/1.
  EXPECT_THROW(parse("roboads-scenario-spec v1\n"
                     "attack replace sensor \"ips\" onset 1 duration forever "
                     "mask [2, 0, 0] magnitude [0, 0, 0]\nend\n"),
               SpecError);
  // Trailing tokens.
  EXPECT_THROW(parse("roboads-scenario-spec v1\nseed 1 2\nend\n"), SpecError);
}

// Hostile input: seeded byte mutants of every library spec. Each mutant
// either parses and re-serializes to a fixed point, or throws a SpecError
// naming a line — never another exception, never a crash (run under
// ASan/UBSan by ./ci.sh asan|ubsan).
TEST(ScenarioSpecTest, ByteMutantsReachAFixedPointOrNameALine) {
  static const std::string kInteresting = "[]\",#\n -.+eE09\t\\\x01\xff";
  std::mt19937_64 rng(20261017);
  constexpr int kMutantsPerSpec = 300;
  for (const ScenarioSpec& spec : all_library_specs()) {
    const std::string original = serialize(spec);
    for (int i = 0; i < kMutantsPerSpec; ++i) {
      std::string text = original;
      const int edits = 1 + static_cast<int>(rng() % 3);
      for (int e = 0; e < edits && !text.empty(); ++e) {
        const std::size_t at = rng() % text.size();
        const char c = rng() % 4 == 0
                           ? static_cast<char>(rng() % 256)
                           : kInteresting[rng() % kInteresting.size()];
        switch (rng() % 4) {
          case 0: text[at] = c; break;
          case 1: text.insert(at, 1, c); break;
          case 2: text.erase(at, 1); break;
          default: text.insert(at, text.substr(at, rng() % 16)); break;
        }
      }
      try {
        const std::string once = serialize(parse(text));
        EXPECT_EQ(serialize(parse(once)), once) << spec.name << "\n" << text;
      } catch (const SpecError& e) {
        EXPECT_NE(std::string(e.what()).find(" line "), std::string::npos)
            << e.what() << "\nmutant:\n" << text;
      } catch (const std::exception& e) {
        ADD_FAILURE() << spec.name << ": " << e.what() << "\nmutant:\n"
                      << text;
      }
    }
  }
}

// ---- Spec-level ground truth ---------------------------------------------

TEST(ScenarioSpecTest, SpecTruthTracksAttackWindows) {
  const eval::KheperaPlatform platform;
  const sensors::SensorSuite& suite = platform.suite();

  ScenarioSpec spec = khepera_table2_spec(9);  // encoder ramp @60, lidar @120
  const std::size_t encoder = suite.index_of("wheel_encoder");
  const std::size_t lidar = suite.index_of("lidar");

  EXPECT_TRUE(spec_truth_at(spec, 0, suite).clean());
  EXPECT_TRUE(spec_truth_at(spec, 59, suite).clean());
  EXPECT_EQ(spec_truth_at(spec, 60, suite).corrupted_sensors,
            (std::vector<std::size_t>{encoder}));
  std::vector<std::size_t> both{encoder, lidar};
  std::sort(both.begin(), both.end());
  EXPECT_EQ(spec_truth_at(spec, 120, suite).corrupted_sensors, both);
  EXPECT_FALSE(spec_truth_at(spec, 120, suite).actuator_corrupted);

  // Finite windows close.
  const ScenarioSpec finite = one_attack_spec(ips_bias(60, 30));
  EXPECT_FALSE(spec_truth_at(finite, 89, suite).clean());
  EXPECT_TRUE(spec_truth_at(finite, 90, suite).clean());
}

}  // namespace
}  // namespace roboads::scenario
