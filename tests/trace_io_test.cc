#include "eval/trace_io.h"
#include <algorithm>
#include <fstream>

#include <gtest/gtest.h>

#include <sstream>

#include "eval/khepera.h"
#include "scenario/compile.h"
#include "scenario/library.h"

namespace roboads::eval {
namespace {

TEST(TraceIo, ExportsConsistentCsv) {
  KheperaPlatform platform;
  MissionConfig cfg;
  cfg.iterations = 40;
  cfg.seed = 12;
  const MissionResult result = run_mission(
      platform,
      scenario::compile_spec(scenario::khepera_table2_spec(3), platform), cfg);

  std::ostringstream os;
  write_trace_csv(os, result, platform);
  const std::string csv = os.str();

  // One schema-version comment, one header line, one row per record.
  std::size_t lines = 0;
  for (char c : csv) lines += c == '\n' ? 1 : 0;
  EXPECT_EQ(lines, result.records.size() + 2);

  // Leading comment pins the exported layout version (eval/trace_io.h).
  EXPECT_EQ(csv.rfind("# roboads-mission-trace v", 0), 0u);

  // Header names the per-sensor anomaly columns.
  const std::size_t header_start = csv.find('\n') + 1;
  const std::string header =
      csv.substr(header_start, csv.find('\n', header_start) - header_start);
  EXPECT_NE(header.find("ds_ips_0"), std::string::npos);
  EXPECT_NE(header.find("ds_wheel_encoder_2"), std::string::npos);
  EXPECT_NE(header.find("ds_lidar_3"), std::string::npos);
  EXPECT_NE(header.find("da_1"), std::string::npos);
  EXPECT_NE(header.find("truth_actuator"), std::string::npos);

  // Every row has the same number of commas as the header.
  const std::size_t header_commas =
      static_cast<std::size_t>(std::count(header.begin(), header.end(), ','));
  std::istringstream is(csv);
  std::string line;
  std::getline(is, line);
  while (std::getline(is, line)) {
    EXPECT_EQ(static_cast<std::size_t>(
                  std::count(line.begin(), line.end(), ',')),
              header_commas);
  }
}

TEST(TraceIo, RejectsEmptyMission) {
  KheperaPlatform platform;
  MissionResult empty;
  std::ostringstream os;
  EXPECT_THROW(write_trace_csv(os, empty, platform), CheckError);
}

TEST(TraceIo, WritesToFile) {
  KheperaPlatform platform;
  MissionConfig cfg;
  cfg.iterations = 10;
  cfg.seed = 13;
  const MissionResult result =
      run_mission(platform, platform.clean_scenario(), cfg);
  const std::string path = "/tmp/roboads_trace_test.csv";
  write_trace_csv(path, result, platform);
  std::ifstream file(path);
  EXPECT_TRUE(file.good());
  EXPECT_THROW(write_trace_csv("/nonexistent/dir/x.csv", result, platform),
               CheckError);
}

}  // namespace
}  // namespace roboads::eval
