// obs::load_metrics_jsonl + render_report over saved metrics files: the
// library half of tools/roboads_report. The failure modes matter as much
// as the happy path — a missing or truncated metrics file must be a loud
// error, because an empty report in CI reads as "all green" when the run
// actually produced nothing.
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "common/check.h"
#include "obs/jsonl.h"
#include "obs/metrics.h"
#include "obs/report.h"

namespace roboads::obs {
namespace {

namespace fs = std::filesystem;

class MetricsFileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = (fs::temp_directory_path() /
             ("roboads_report_" + std::string(::testing::UnitTest::GetInstance()
                                                  ->current_test_info()
                                                  ->name()) +
              ".jsonl"))
                .string();
    fs::remove(path_);
  }
  void TearDown() override { fs::remove(path_); }

  void write_file(const std::string& text) {
    std::ofstream os(path_, std::ios::binary);
    os << text;
  }

  std::string path_;
};

TEST_F(MetricsFileTest, MissingFileThrowsWithPath) {
  try {
    load_metrics_jsonl(path_);
    FAIL() << "expected CheckError";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find(path_), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("missing"), std::string::npos);
  }
}

TEST_F(MetricsFileTest, EmptyFileThrows) {
  write_file("");
  try {
    load_metrics_jsonl(path_);
    FAIL() << "expected CheckError";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("empty"), std::string::npos);
  }
}

TEST_F(MetricsFileTest, TruncatedFinalLineThrows) {
  write_file("{\"metric\":\"a\",\"kind\":\"counter\",\"value\":1}\n"
             "{\"metric\":\"b\",\"kind\":\"cou");
  try {
    load_metrics_jsonl(path_);
    FAIL() << "expected CheckError";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("truncated"), std::string::npos);
  }
}

TEST_F(MetricsFileTest, BlankLineThrowsWithLineNumber) {
  write_file("{\"metric\":\"a\",\"kind\":\"counter\",\"value\":1}\n\n");
  try {
    load_metrics_jsonl(path_);
    FAIL() << "expected CheckError";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
  }
}

TEST_F(MetricsFileTest, UnknownKindThrows) {
  write_file("{\"metric\":\"a\",\"kind\":\"sparkline\",\"value\":1}\n");
  EXPECT_THROW(load_metrics_jsonl(path_), CheckError);
}

TEST_F(MetricsFileTest, LoadedSamplesRenderIdenticallyToTheLiveRegistry) {
  MetricsRegistry registry;
  registry.counter("detector.alarms").increment(3);
  registry.counter("engine.mode_selected.nominal").increment(17);
  registry.gauge("engine.last_statistic").set(2.5);
  Histogram& h =
      registry.histogram("engine.step_ns", default_latency_bounds_ns());
  h.record(1500.0);
  h.record(80000.0);
  h.record(2.5e6);

  {
    std::ofstream os(path_, std::ios::binary);
    registry.write_jsonl(os);
  }
  const std::vector<MetricSample> samples = load_metrics_jsonl(path_);
  EXPECT_EQ(render_report(samples), render_report(registry));
  EXPECT_EQ(samples.size(), 4u);
}

// The fleet tools' second offline format: named histogram-snapshot JSONL
// (roboads_fleet --hist-out), loaded and rendered by the same
// roboads_report binary via first-line sniffing.
using HistogramFileTest = MetricsFileTest;

HistogramSnapshot small_hist() {
  HistogramSnapshot h =
      HistogramSnapshot::with_bounds(default_latency_bounds_ns());
  h.record(1500.0);
  h.record(80000.0);
  h.record(2.5e6);
  return h;
}

TEST_F(HistogramFileTest, NamedLinesRoundTripBitExactly) {
  const HistogramSnapshot h = small_hist();
  {
    std::ofstream os(path_, std::ios::binary);
    json::write(os, NamedHistogram{"fleet.ingest_to_step_ns", h});
    os << '\n';
    json::write(os, NamedHistogram{"fleet.shard0.ingest_to_step_ns", h});
    os << '\n';
  }
  const std::vector<NamedHistogram> loaded = load_histograms_jsonl(path_);
  ASSERT_EQ(loaded.size(), 2u);
  EXPECT_EQ(loaded[0].name, "fleet.ingest_to_step_ns");
  EXPECT_EQ(loaded[1].name, "fleet.shard0.ingest_to_step_ns");
  std::ostringstream want, got;
  json::write(want, h);
  json::write(got, loaded[0].histogram);
  EXPECT_EQ(got.str(), want.str());
}

TEST_F(HistogramFileTest, BareHistogramLinesGetPositionalNames) {
  {
    std::ofstream os(path_, std::ios::binary);
    json::write(os, small_hist());
    os << '\n';
    json::write(os, small_hist());
    os << '\n';
  }
  const std::vector<NamedHistogram> loaded = load_histograms_jsonl(path_);
  ASSERT_EQ(loaded.size(), 2u);
  EXPECT_EQ(loaded[0].name, "histogram[1]");  // named by line number
  EXPECT_EQ(loaded[1].name, "histogram[2]");
}

TEST_F(HistogramFileTest, LoudOnMissingEmptyAndTruncated) {
  EXPECT_THROW(load_histograms_jsonl(path_), CheckError);
  write_file("");
  EXPECT_THROW(load_histograms_jsonl(path_), CheckError);
  std::ostringstream one;
  json::write(one, NamedHistogram{"a_ns", small_hist()});
  write_file(one.str());  // no final newline = torn write
  try {
    load_histograms_jsonl(path_);
    FAIL() << "expected CheckError";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("truncated"), std::string::npos);
  }
}

TEST_F(HistogramFileTest, RenderReportFileSniffsBothFormats) {
  // Histogram-snapshot file → the n/mean/p50/p99 table with durations.
  {
    std::ofstream os(path_, std::ios::binary);
    json::write(os, NamedHistogram{"fleet.ingest_to_step_ns", small_hist()});
    os << '\n';
  }
  const std::string hist_render = render_report_file(path_);
  EXPECT_NE(hist_render.find("fleet.ingest_to_step_ns"), std::string::npos);
  EXPECT_NE(hist_render.find("p99"), std::string::npos);

  // Metrics registry dump → the classic report, unchanged.
  MetricsRegistry registry;
  registry.counter("detector.alarms").increment(2);
  {
    std::ofstream os(path_, std::ios::binary);
    registry.write_jsonl(os);
  }
  EXPECT_EQ(render_report_file(path_), render_report(registry));
}

TEST(RenderHistograms, DurationsForNsNamesPlainNumbersOtherwise) {
  HistogramSnapshot h = small_hist();
  const std::string table = render_histograms(
      {{"fleet.ingest_to_step_ns", h}, {"queue.depth", h}});
  EXPECT_NE(table.find("fleet.ingest_to_step_ns"), std::string::npos);
  EXPECT_NE(table.find("queue.depth"), std::string::npos);
  // _ns columns format as durations (us/ms), the dimensionless row doesn't.
  EXPECT_NE(table.find("us"), std::string::npos);
}

TEST(FormatDuration, PicksTheReadableUnit) {
  EXPECT_EQ(format_duration_ns(250.0), "250ns");
  EXPECT_EQ(format_duration_ns(1500.0), "1.50us");
  EXPECT_EQ(format_duration_ns(2.5e6), "2.50ms");
  EXPECT_EQ(format_duration_ns(3.21e9), "3.21s");
}

}  // namespace
}  // namespace roboads::obs
