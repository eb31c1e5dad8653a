// obs::HistogramSnapshot: the exactly-mergeable latency/delay histogram
// behind the live campaign telemetry plane (docs/OBSERVABILITY.md). The
// properties that make it mergeable — bucket counts and moment sums add,
// any merge order/grouping equals one histogram recording every sample —
// are the load-bearing ones, so they are tested as algebra, not anecdotes.
#include <algorithm>
#include <cmath>
#include <random>
#include <sstream>
#include <vector>

#include <gtest/gtest.h>

#include "common/check.h"
#include "obs/jsonl.h"
#include "obs/metrics.h"
#include "stats/metrics.h"

namespace roboads::obs {
namespace {

namespace json = roboads::obs::json;

const std::vector<double> kBounds = {1.0, 2.0, 4.0, 8.0, 16.0};

std::string bytes_of(const HistogramSnapshot& h) {
  std::ostringstream os;
  json::write(os, h);
  return os.str();
}

HistogramSnapshot recording(const std::vector<double>& samples) {
  HistogramSnapshot h = HistogramSnapshot::with_bounds(kBounds);
  for (double v : samples) h.record(v);
  return h;
}

// Samples exactly representable in binary (multiples of 0.25), so moment
// sums are bit-identical no matter the accumulation grouping and the merged
// serialization can be compared byte-for-byte.
std::vector<double> exact_samples(std::mt19937_64& rng, std::size_t n) {
  std::uniform_int_distribution<int> quarters(0, 80);
  std::vector<double> samples;
  samples.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    samples.push_back(0.25 * quarters(rng));
  }
  return samples;
}

TEST(HistogramSnapshot, MergeIsCommutativeAssociativeAndExact) {
  std::mt19937_64 rng(7);
  const std::vector<double> a = exact_samples(rng, 40);
  const std::vector<double> b = exact_samples(rng, 25);
  const std::vector<double> c = exact_samples(rng, 33);

  std::vector<double> all;
  all.insert(all.end(), a.begin(), a.end());
  all.insert(all.end(), b.begin(), b.end());
  all.insert(all.end(), c.begin(), c.end());
  const std::string oracle = bytes_of(recording(all));

  // (a ⊕ b) ⊕ c
  HistogramSnapshot left = recording(a);
  left.merge(recording(b));
  left.merge(recording(c));
  EXPECT_EQ(bytes_of(left), oracle);

  // a ⊕ (b ⊕ c)
  HistogramSnapshot right_inner = recording(b);
  right_inner.merge(recording(c));
  HistogramSnapshot right = recording(a);
  right.merge(right_inner);
  EXPECT_EQ(bytes_of(right), oracle);

  // c ⊕ b ⊕ a (commuted)
  HistogramSnapshot commuted = recording(c);
  commuted.merge(recording(b));
  commuted.merge(recording(a));
  EXPECT_EQ(bytes_of(commuted), oracle);
}

TEST(HistogramSnapshot, MergeWithEmptyAndBoundless) {
  std::mt19937_64 rng(11);
  const std::vector<double> samples = exact_samples(rng, 20);
  const std::string oracle = bytes_of(recording(samples));

  // A default-constructed (bound-less, empty) snapshot is the merge
  // identity in both directions — which is what lets aggregation fold an
  // unknown number of worker snapshots starting from {}.
  HistogramSnapshot into_empty;
  into_empty.merge(recording(samples));
  EXPECT_EQ(bytes_of(into_empty), oracle);

  HistogramSnapshot with_empty = recording(samples);
  with_empty.merge(HistogramSnapshot{});
  EXPECT_EQ(bytes_of(with_empty), oracle);

  // Mismatched bounds must refuse loudly, not silently mis-bucket.
  HistogramSnapshot other = HistogramSnapshot::with_bounds({1.0, 3.0});
  other.record(2.0);
  HistogramSnapshot mine = recording(samples);
  EXPECT_THROW(mine.merge(other), CheckError);
}

TEST(HistogramSnapshot, QuantileMatchesSortedSampleOracle) {
  std::mt19937_64 rng(23);
  std::uniform_real_distribution<double> value(0.0, 24.0);
  std::vector<double> samples;
  for (std::size_t i = 0; i < 500; ++i) samples.push_back(value(rng));

  const HistogramSnapshot h = recording(samples);
  std::vector<double> sorted = samples;
  std::sort(sorted.begin(), sorted.end());

  for (const double q : {0.0, 0.1, 0.5, 0.9, 0.95, 0.99, 1.0}) {
    const std::uint64_t target = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(q * sorted.size()));
    const double oracle = sorted[target - 1];
    // The histogram reports the upper edge of the bucket covering the
    // target sample (the recorded max for the overflow bucket) — an upper
    // bound that is tight to one bucket width.
    const auto edge = std::lower_bound(kBounds.begin(), kBounds.end(), oracle);
    const double expected = edge == kBounds.end() ? h.max : *edge;
    EXPECT_EQ(h.quantile(q), expected) << "q=" << q;
    EXPECT_GE(h.quantile(q), oracle) << "q=" << q;
  }

  EXPECT_EQ(HistogramSnapshot::with_bounds(kBounds).quantile(0.5), 0.0);
}

TEST(HistogramSnapshot, MomentsMatchStatsOracle) {
  std::mt19937_64 rng(31);
  std::normal_distribution<double> value(5.0, 2.0);
  std::vector<double> samples;
  for (std::size_t i = 0; i < 200; ++i) samples.push_back(value(rng));

  const HistogramSnapshot h = recording(samples);
  const stats::MeanCi95 ci = stats::mean_ci95(samples);
  EXPECT_NEAR(h.mean(), ci.mean, 1e-9);
  EXPECT_NEAR(h.stddev(), ci.stddev, 1e-9);
  EXPECT_NEAR(h.mean() - h.ci95_half_width(), ci.lo, 1e-9);
  EXPECT_NEAR(h.mean() + h.ci95_half_width(), ci.hi, 1e-9);
}

TEST(HistogramSnapshot, SerializeParseByteRoundTrip) {
  std::mt19937_64 rng(43);
  const HistogramSnapshot h = recording(exact_samples(rng, 60));

  const std::string first = bytes_of(h);
  const std::string context = "histogram round-trip";
  const HistogramSnapshot reparsed =
      json::decode<HistogramSnapshot>(first, context);
  EXPECT_EQ(bytes_of(reparsed), first);

  // Empty (bound-less) snapshots round-trip too — aggregators serialize
  // them when no worker has reported yet.
  const std::string empty = bytes_of(HistogramSnapshot{});
  const HistogramSnapshot empty_reparsed =
      json::decode<HistogramSnapshot>(empty, context);
  EXPECT_EQ(bytes_of(empty_reparsed), empty);
  EXPECT_TRUE(empty_reparsed.empty());
}

TEST(HistogramSnapshot, LiveHistogramSnapshotMatchesDirectRecording) {
  std::mt19937_64 rng(53);
  const std::vector<double> samples = exact_samples(rng, 80);

  MetricsRegistry registry;
  Histogram& live = registry.histogram("t", kBounds);
  for (double v : samples) live.record(v);

  EXPECT_EQ(bytes_of(live.snapshot()), bytes_of(recording(samples)));
}

}  // namespace
}  // namespace roboads::obs
