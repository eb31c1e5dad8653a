#include "obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <ostream>

#include "common/check.h"
#include "obs/jsonl.h"

namespace roboads::obs {
namespace internal {

std::size_t this_thread_stripe() {
  static std::atomic<std::size_t> next{0};
  thread_local const std::size_t id =
      next.fetch_add(1, std::memory_order_relaxed) & (kMetricStripes - 1);
  return id;
}

}  // namespace internal

namespace {

void check_bounds(const std::vector<double>& bounds) {
  ROBOADS_CHECK(!bounds.empty(), "histogram needs at least one bucket bound");
  for (std::size_t i = 1; i < bounds.size(); ++i) {
    ROBOADS_CHECK(bounds[i - 1] < bounds[i],
                  "histogram bounds must be strictly ascending");
  }
}

std::size_t bucket_index(const std::vector<double>& bounds, double v) {
  // First bucket whose upper bound admits v; everything past the last bound
  // lands in the overflow bucket.
  return static_cast<std::size_t>(
      std::lower_bound(bounds.begin(), bounds.end(), v) - bounds.begin());
}

double bucket_quantile(const std::vector<double>& bounds,
                       const std::vector<std::uint64_t>& counts, double max,
                       double q) {
  ROBOADS_CHECK(q >= 0.0 && q <= 1.0, "quantile must lie in [0, 1]");
  std::uint64_t total = 0;
  for (std::uint64_t c : counts) total += c;
  if (total == 0) return 0.0;
  const std::uint64_t target =
      std::max<std::uint64_t>(1, static_cast<std::uint64_t>(q * total));
  std::uint64_t seen = 0;
  for (std::size_t b = 0; b < counts.size(); ++b) {
    seen += counts[b];
    if (seen >= target) {
      return b < bounds.size() ? bounds[b] : max;
    }
  }
  return max;
}

}  // namespace

HistogramSnapshot HistogramSnapshot::with_bounds(std::vector<double> bounds) {
  check_bounds(bounds);
  HistogramSnapshot h;
  h.buckets.assign(bounds.size() + 1, 0);
  h.bounds = std::move(bounds);
  return h;
}

double HistogramSnapshot::stddev() const {
  if (count < 2) return 0.0;
  const double n = static_cast<double>(count);
  // Unbiased sample variance from the moment sums; clamp the numerically
  // cancelled negative tail to zero.
  const double var = std::max(0.0, (sum_squares - sum * sum / n) / (n - 1.0));
  return std::sqrt(var);
}

double HistogramSnapshot::ci95_half_width() const {
  if (count < 2) return 0.0;
  return 1.96 * stddev() / std::sqrt(static_cast<double>(count));
}

void HistogramSnapshot::record(double v) {
  ROBOADS_CHECK(!bounds.empty(), "recording into a bound-less snapshot");
  ++buckets[bucket_index(bounds, v)];
  ++count;
  sum += v;
  sum_squares += v * v;
  if (v > max) max = v;
}

void HistogramSnapshot::merge(const HistogramSnapshot& other) {
  if (other.bounds.empty()) {
    ROBOADS_CHECK(other.count == 0, "snapshot with samples but no bounds");
    return;
  }
  if (bounds.empty()) {
    ROBOADS_CHECK(count == 0, "snapshot with samples but no bounds");
    *this = other;
    return;
  }
  ROBOADS_CHECK(bounds == other.bounds,
                "merging histograms with different bucket bounds");
  for (std::size_t b = 0; b < buckets.size(); ++b) {
    buckets[b] += other.buckets[b];
  }
  count += other.count;
  sum += other.sum;
  sum_squares += other.sum_squares;
  if (other.max > max) max = other.max;
}

double HistogramSnapshot::quantile(double q) const {
  return bucket_quantile(bounds, buckets, max, q);
}

HistogramSnapshot merge_snapshots(const std::vector<HistogramSnapshot>& parts) {
  HistogramSnapshot merged;
  for (const HistogramSnapshot& part : parts) merged.merge(part);
  return merged;
}

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
  check_bounds(bounds_);
  for (Stripe& s : stripes_) {
    s.buckets = std::vector<std::atomic<std::uint64_t>>(bounds_.size() + 1);
  }
}

void Histogram::record(double v) {
  const std::size_t bucket = bucket_index(bounds_, v);
  Stripe& s = stripes_[internal::this_thread_stripe()];
  s.buckets[bucket].fetch_add(1, std::memory_order_relaxed);
  s.count.fetch_add(1, std::memory_order_relaxed);
  internal::atomic_add(s.sum, v);
  internal::atomic_add(s.sum_squares, v * v);
  internal::atomic_max(max_, v);
}

std::uint64_t Histogram::count() const {
  std::uint64_t total = 0;
  for (const Stripe& s : stripes_) {
    total += s.count.load(std::memory_order_relaxed);
  }
  return total;
}

double Histogram::sum() const {
  double total = 0.0;
  for (const Stripe& s : stripes_) {
    total += s.sum.load(std::memory_order_relaxed);
  }
  return total;
}

double Histogram::sum_squares() const {
  double total = 0.0;
  for (const Stripe& s : stripes_) {
    total += s.sum_squares.load(std::memory_order_relaxed);
  }
  return total;
}

double Histogram::max() const { return max_.load(std::memory_order_relaxed); }

HistogramSnapshot Histogram::snapshot() const {
  HistogramSnapshot h;
  h.bounds = bounds_;
  h.buckets = bucket_counts();
  h.count = count();
  h.sum = sum();
  h.sum_squares = sum_squares();
  h.max = max();
  return h;
}

std::vector<std::uint64_t> Histogram::bucket_counts() const {
  std::vector<std::uint64_t> counts(bounds_.size() + 1, 0);
  for (const Stripe& s : stripes_) {
    for (std::size_t b = 0; b < counts.size(); ++b) {
      counts[b] += s.buckets[b].load(std::memory_order_relaxed);
    }
  }
  return counts;
}

double Histogram::quantile(double q) const {
  return bucket_quantile(bounds_, bucket_counts(), max(), q);
}

const std::vector<double>& default_latency_bounds_ns() {
  static const std::vector<double> bounds = {
      250.0, 500.0, 1e3,   2.5e3, 5e3,   1e4,   2.5e4, 5e4,   1e5,
      2.5e5, 5e5,   1e6,   2.5e6, 5e6,   1e7,   2.5e7, 5e7,   1e8,
      2.5e8, 1e9};
  return bounds;
}

const std::vector<double>& default_delay_bounds_s() {
  static const std::vector<double> bounds = {
      0.05, 0.1, 0.2, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0,
      600.0};
  return bounds;
}

Counter& MetricsRegistry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  std::unique_ptr<Counter>& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  std::unique_ptr<Gauge>& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& MetricsRegistry::histogram(const std::string& name,
                                      const std::vector<double>& bounds) {
  std::lock_guard<std::mutex> lock(mu_);
  std::unique_ptr<Histogram>& slot = histograms_[name];
  if (!slot) slot = std::make_unique<Histogram>(bounds);
  return *slot;
}

std::vector<MetricSample> MetricsRegistry::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<MetricSample> out;
  out.reserve(counters_.size() + gauges_.size() + histograms_.size());
  for (const auto& [name, c] : counters_) {
    MetricSample s;
    s.name = name;
    s.kind = MetricSample::Kind::kCounter;
    s.value = static_cast<double>(c->value());
    out.push_back(std::move(s));
  }
  for (const auto& [name, g] : gauges_) {
    MetricSample s;
    s.name = name;
    s.kind = MetricSample::Kind::kGauge;
    s.value = g->value();
    out.push_back(std::move(s));
  }
  for (const auto& [name, h] : histograms_) {
    MetricSample s;
    s.name = name;
    s.kind = MetricSample::Kind::kHistogram;
    s.value = static_cast<double>(h->count());
    s.sum = h->sum();
    s.mean = h->mean();
    s.p50 = h->quantile(0.50);
    s.p90 = h->quantile(0.90);
    s.p95 = h->quantile(0.95);
    s.p99 = h->quantile(0.99);
    s.max = h->max();
    s.bounds = h->bounds();
    s.buckets = h->bucket_counts();
    out.push_back(std::move(s));
  }
  std::sort(out.begin(), out.end(),
            [](const MetricSample& a, const MetricSample& b) {
              return a.name < b.name;
            });
  return out;
}

void MetricsRegistry::write_jsonl(std::ostream& os) const {
  for (const MetricSample& s : snapshot()) json::write_line(os, s);
}

}  // namespace roboads::obs
