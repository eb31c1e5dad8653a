// obs::merge_snapshots — the exact merge algebra the fleet introspection
// plane leans on (docs/OBSERVABILITY.md "Fleet introspection"). The
// fleet-level histograms in fleet_status.json are merge_snapshots over the
// per-shard rows, so the algebra must be a genuine commutative monoid on
// same-bounds snapshots: identity, associativity, commutativity, and
// byte-identity of any partition's fold with the one-shot recording —
// down to the serialized write_histogram line, not just approximate
// quantiles. Mismatched bucket bounds must refuse loudly rather than
// produce a silently wrong distribution.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "common/check.h"
#include "obs/jsonl.h"
#include "obs/metrics.h"

namespace roboads::obs {
namespace {

std::string line(const HistogramSnapshot& h) {
  std::ostringstream os;
  json::write(os, h);
  return os.str();
}

// Deterministic pseudo-latency stream: spread across several decades so
// many buckets fill. Samples are integers <= 1e6, which keeps every moment
// sum (including sum-of-squares partial sums, <= 1e15 < 2^53) exactly
// representable — so the byte-identity claims below are about the merge
// algebra, not about floating-point luck.
double sample(std::size_t i) {
  return static_cast<double>((i * 2654435761u) % 1'000'000u) + 250.0;
}

HistogramSnapshot record_range(std::size_t begin, std::size_t end) {
  Histogram h(default_latency_bounds_ns());
  for (std::size_t i = begin; i < end; ++i) h.record(sample(i));
  return h.snapshot();
}

TEST(MergeSnapshots, IdentityElement) {
  const HistogramSnapshot a = record_range(0, 500);
  const HistogramSnapshot empty = Histogram(default_latency_bounds_ns())
                                      .snapshot();
  EXPECT_EQ(line(merge_snapshots({a, empty})), line(a));
  EXPECT_EQ(line(merge_snapshots({empty, a})), line(a));
  EXPECT_EQ(line(merge_snapshots({a})), line(a));
}

TEST(MergeSnapshots, AssociativeAndCommutative) {
  const HistogramSnapshot a = record_range(0, 300);
  const HistogramSnapshot b = record_range(300, 450);
  const HistogramSnapshot c = record_range(450, 1000);

  const std::string left =
      line(merge_snapshots({merge_snapshots({a, b}), c}));
  const std::string right =
      line(merge_snapshots({a, merge_snapshots({b, c})}));
  const std::string flat = line(merge_snapshots({a, b, c}));
  EXPECT_EQ(left, right);
  EXPECT_EQ(left, flat);

  EXPECT_EQ(line(merge_snapshots({c, a, b})), flat);
  EXPECT_EQ(line(merge_snapshots({b, c, a})), flat);
}

TEST(MergeSnapshots, PartitionFoldIsByteIdenticalToOneShot) {
  // The fleet claim, in miniature: shard-partitioned recordings merged
  // back must serialize byte-for-byte as if one histogram saw the whole
  // stream — count, sum, sum_squares, max, and every bucket.
  const HistogramSnapshot whole = record_range(0, 1000);
  const std::string folded = line(merge_snapshots(
      {record_range(0, 137), record_range(137, 600), record_range(600, 1000)}));
  EXPECT_EQ(folded, line(whole));

  const HistogramSnapshot merged = merge_snapshots(
      {record_range(0, 137), record_range(137, 600), record_range(600, 1000)});
  EXPECT_EQ(merged.count, whole.count);
  EXPECT_EQ(merged.buckets, whole.buckets);
  EXPECT_DOUBLE_EQ(merged.max, whole.max);
  EXPECT_DOUBLE_EQ(merged.quantile(0.50), whole.quantile(0.50));
  EXPECT_DOUBLE_EQ(merged.quantile(0.99), whole.quantile(0.99));
}

TEST(MergeSnapshots, MismatchedBoundsThrow) {
  const HistogramSnapshot a = record_range(0, 10);
  Histogram other(std::vector<double>{1.0, 2.0, 3.0});
  other.record(1.5);
  EXPECT_THROW(merge_snapshots({a, other.snapshot()}), CheckError);
}

TEST(MergeSnapshots, EmptyInputYieldsEmptySnapshot) {
  const HistogramSnapshot none = merge_snapshots({});
  EXPECT_EQ(none.count, 0u);
}

}  // namespace
}  // namespace roboads::obs
