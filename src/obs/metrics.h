// Thread-safe metrics registry: counters, gauges, and fixed-bucket latency
// histograms shared by every instrumented component (docs/OBSERVABILITY.md).
//
// Design constraints, in order:
//
//   1. The *disabled* path must cost nothing — components hold nullptr
//      handles and every instrumentation site guards on them, so an
//      uninstrumented run never touches this file's code.
//   2. The *enabled* hot path must be lock-free and contention-free enough
//      to run on every concurrent worker (the fleet shards'
//      common::ThreadPool workers): counters and histograms stripe
//      their cells across cache-line-padded atomic slots indexed by a
//      per-thread id, so concurrent recorders land on distinct cache lines
//      and the relaxed atomic add is the entire cost. Reads (report
//      rendering, snapshots) sum across stripes; increments are never
//      lost, so concurrent increments sum exactly (tests/obs_test.cc).
//   3. Handle lookup (by name) takes a registry mutex and is meant for
//      construction time only — components resolve their handles once and
//      keep the pointers; metric objects are never invalidated while the
//      registry lives.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace roboads::obs {

// Stripe count for counters/histograms (power of two). Sized well past the
// worker counts of the bundled pools on common hosts; threads beyond it
// share stripes correctly, just with more cache-line traffic.
inline constexpr std::size_t kMetricStripes = 16;

namespace internal {

// Stable small id for the calling thread, assigned on first use.
std::size_t this_thread_stripe();

// C++20 atomic<double>::fetch_add may lower to a CAS loop anyway; spell the
// loop out so the code does not depend on the library shipping the overload.
inline void atomic_add(std::atomic<double>& a, double v) {
  double cur = a.load(std::memory_order_relaxed);
  while (!a.compare_exchange_weak(cur, cur + v, std::memory_order_relaxed)) {
  }
}

inline void atomic_max(std::atomic<double>& a, double v) {
  double cur = a.load(std::memory_order_relaxed);
  while (cur < v &&
         !a.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

struct alignas(64) PaddedU64 {
  std::atomic<std::uint64_t> value{0};
};

}  // namespace internal

// Monotonic event counter.
class Counter {
 public:
  // Lock-free fast path: one relaxed add on the caller's stripe.
  void increment(std::uint64_t n = 1) {
    stripes_[internal::this_thread_stripe()].value.fetch_add(
        n, std::memory_order_relaxed);
  }

  // Exact sum across stripes (increments are never dropped).
  std::uint64_t value() const {
    std::uint64_t total = 0;
    for (const internal::PaddedU64& s : stripes_) {
      total += s.value.load(std::memory_order_relaxed);
    }
    return total;
  }

 private:
  std::array<internal::PaddedU64, kMetricStripes> stripes_;
};

// Last-write-wins scalar (e.g. "quarantined modes right now").
class Gauge {
 public:
  void set(double v) { value_.store(v, std::memory_order_relaxed); }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

// One histogram's complete state detached from the live striped cells: the
// exchange format of the campaign telemetry plane (docs/OBSERVABILITY.md
// "Live campaign telemetry"). Snapshots are *exactly* mergeable — bucket
// counts and moment sums add, so merging per-worker snapshots in any order
// or grouping yields the same result as one histogram that recorded every
// sample (tests/obs_histogram_test.cc) — and byte round-trippable through
// the record codec below.
struct HistogramSnapshot {
  std::vector<double> bounds;          // ascending bucket upper edges
  std::vector<std::uint64_t> buckets;  // bounds.size() + 1; last = overflow
  std::uint64_t count = 0;
  double sum = 0.0;
  double sum_squares = 0.0;
  double max = 0.0;

  // Empty snapshot over the given bounds (same validation as Histogram).
  static HistogramSnapshot with_bounds(std::vector<double> bounds);

  bool empty() const { return count == 0; }
  double mean() const { return count == 0 ? 0.0 : sum / count; }
  // Sample standard deviation recovered from the moment sums (0 for n < 2).
  double stddev() const;
  // Half-width of the normal-approximation 95% CI on the mean, matching
  // stats::mean_ci95 (0 for n < 2).
  double ci95_half_width() const;

  // Offline single-threaded counterpart of Histogram::record, for building
  // distributions during aggregation (e.g. per-group detection delays in
  // the merged report) without a live registry.
  void record(double v);

  // Folds `other` in. Bounds must match exactly; merging into a
  // default-constructed (bound-less) snapshot adopts the other's bounds.
  void merge(const HistogramSnapshot& other);

  // Upper-bound estimate of the q-quantile (q in [0, 1]) from the bucket
  // counts: the upper edge of the bucket holding the q-th sample, with the
  // recorded max standing in for the open overflow bucket.
  double quantile(double q) const;
};

// Exact merge of any number of snapshots (empty input → empty snapshot).
// Associativity/commutativity of HistogramSnapshot::merge makes the result
// independent of order and grouping — the fleet supervisor folds per-shard
// latency snapshots into one fleet distribution with this
// (fleet/service.cc), the same algebra the campaign telemetry plane uses
// per worker (shard/status.cc).
HistogramSnapshot merge_snapshots(const std::vector<HistogramSnapshot>& parts);

// Wire form (obs/jsonl.h record codec), one JSON object:
// {"bounds":[...],"buckets":[...],"count":N,"sum":S,"sumsq":Q,"max":M}.
// Numbers use round-trip precision, so write→read→write is byte-stable. A
// read rejects bounds that are not strictly ascending and bucket counts
// that do not match them.
template <class IO>
void codec(IO& io, HistogramSnapshot& h) {
  io("bounds", h.bounds);
  io("buckets", h.buckets);
  io("count", h.count);
  io("sum", h.sum);
  io("sumsq", h.sum_squares);
  io("max", h.max);
  if constexpr (IO::kReads) {
    for (std::size_t i = 1; i < h.bounds.size(); ++i) {
      if (!(h.bounds[i - 1] < h.bounds[i])) {
        io.fail("bounds", "is not strictly ascending");
      }
    }
    const bool shaped = h.bounds.empty()
                            ? h.buckets.empty() && h.count == 0
                            : h.buckets.size() == h.bounds.size() + 1;
    if (!shaped) io.fail("buckets", "does not match the bounds");
  }
}

// Fixed-bucket histogram. Bucket i counts samples v with v <= bounds[i]
// (first matching bucket); an implicit overflow bucket catches the rest.
// Recording is lock-free and allocation-free: bucket counts live in striped
// atomic cells, and the running sum/sum-of-squares/max use striped CAS
// adds, so concurrent recorders from the thread pool never serialize on a
// lock.
class Histogram {
 public:
  // `bounds` must be non-empty and strictly ascending.
  explicit Histogram(std::vector<double> bounds);

  void record(double v);

  std::uint64_t count() const;
  double sum() const;
  double sum_squares() const;
  double max() const;
  double mean() const { return count() == 0 ? 0.0 : sum() / count(); }

  const std::vector<double>& bounds() const { return bounds_; }
  // Per-bucket counts, bounds().size() + 1 entries (last = overflow).
  std::vector<std::uint64_t> bucket_counts() const;

  // Coherent-enough copy of the full state for merging/serialization.
  // Concurrent recorders may land between the stripe reads, so a snapshot
  // taken mid-flight can be internally skewed by in-progress records — the
  // telemetry plane only snapshots quiescent or monotonically growing
  // histograms, where this is a freshness question, not a correctness one.
  HistogramSnapshot snapshot() const;

  // Upper-bound estimate of the q-quantile (q in [0, 1]); see
  // HistogramSnapshot::quantile.
  double quantile(double q) const;

 private:
  struct alignas(64) Stripe {
    std::vector<std::atomic<std::uint64_t>> buckets;
    std::atomic<std::uint64_t> count{0};
    std::atomic<double> sum{0.0};
    std::atomic<double> sum_squares{0.0};
  };

  std::vector<double> bounds_;
  std::array<Stripe, kMetricStripes> stripes_;
  std::atomic<double> max_{0.0};
};

// Default bucket boundaries for nanosecond-scale latency timers: roughly
// logarithmic from 250 ns to 1 s.
const std::vector<double>& default_latency_bounds_ns();

// Default bucket boundaries for second-scale detection delays: roughly
// logarithmic from 50 ms to 10 min.
const std::vector<double>& default_delay_bounds_s();

// One metric's aggregated state at snapshot time.
struct MetricSample {
  std::string name;
  enum class Kind { kCounter, kGauge, kHistogram } kind = Kind::kCounter;
  // Counter/gauge value, or histogram count for histograms.
  double value = 0.0;
  // Histogram-only aggregates.
  double sum = 0.0;
  double mean = 0.0;
  double p50 = 0.0;
  double p90 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
  double max = 0.0;
  std::vector<double> bounds;
  std::vector<std::uint64_t> buckets;
};

inline constexpr const char* kMetricKindNames[] = {"counter", "gauge",
                                                   "histogram"};

// One metrics-dump line: {"metric","kind","value"}, plus the histogram
// aggregates and bucket counts for histograms.
template <class IO>
void codec(IO& io, MetricSample& s) {
  io("metric", s.name);
  io("kind", s.kind, kMetricKindNames);
  io("value", s.value);
  if (s.kind != MetricSample::Kind::kHistogram) return;
  io("sum", s.sum);
  io("mean", s.mean);
  io("p50", s.p50);
  io("p90", s.p90);
  io("p95", s.p95);
  io("p99", s.p99);
  io("max", s.max);
  io("buckets", s.buckets);
}

// Named metric store. Thread-safe; see the header comment for the intended
// lookup-once usage pattern.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // Finds or creates. Returned references stay valid for the registry's
  // lifetime. Re-registering a histogram name with different bounds keeps
  // the original bounds.
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name,
                       const std::vector<double>& bounds =
                           default_latency_bounds_ns());

  // All metrics in name order (deterministic across runs for equal names).
  std::vector<MetricSample> snapshot() const;

  // Serializes the snapshot as JSONL, one MetricSample line per metric.
  void write_jsonl(std::ostream& os) const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace roboads::obs
