// Shared plumbing of the end-to-end benchmark: clocks, exact quantiles over
// raw samples, the in-memory span tracer, the per-thread allocation counter,
// seeded input generation, and the result line.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

// Monotonic nanoseconds; the same clock the fleet service stamps packets
// with (fleet::steady_now_ns), so schedule, ingest and report times compare.
std::uint64_t now_ns();

// CPU time the calling thread has used, in ns. The gated timings are taken
// on this clock, from which the operating system leaves out steal: the
// time the hypervisor gave to other guests of a shared host.
std::uint64_t thread_cpu_ns();

// --- Host-speed calibration --------------------------------------------------
//
// Thread CPU time leaves out steal, but not the host's speed itself: on a
// shared 4-vCPU Xeon VM the CPU time of one fixed campaign job moved
// between 52 and 72 ms from one 10 s block to the next, and runs of the
// same code spread by 15-28% of their median. The calibration kernel is
// fixed dense floating-point work that lives here, not in the library, so
// no library change moves it. Timed on the same thread next to the
// workload it follows the host: over 150 s, the fixed job's block medians
// spread by 0.17 and the job ÷ kernel ratio by 0.027. Gated timings are
// therefore reported at a reference speed, measured × kReferenceKernelNs ÷
// the kernel's time measured alongside; the raw figures are in the
// details.
constexpr double kReferenceKernelNs = 450'000.0;

// Runs the kernel once; returns its CPU time on the calling thread, in ns.
double kernel_ns();
// Median of seven kernel runs.
double kernel_median_ns();

// Kernel samples stamped with the wall time they were taken at; at(t) is
// the median of the kSpan samples on either side of t (the local speed).
class SpeedTrack {
 public:
  static constexpr std::size_t kSpan = 8;
  void add(std::uint64_t wall_ns, double kernel_ns) {
    samples_.emplace_back(wall_ns, kernel_ns);
  }
  void reserve(std::size_t n) { samples_.reserve(n); }
  // Call once all samples are in (they must be added in time order).
  void finish();
  double at(std::uint64_t wall_ns) const;
  // measured × kReferenceKernelNs ÷ the local kernel time at wall_ns.
  double scale(double measured, std::uint64_t wall_ns) const {
    return measured * kReferenceKernelNs / at(wall_ns);
  }
  double median() const;

 private:
  std::vector<std::pair<std::uint64_t, double>> samples_;
  std::vector<double> local_;  // rolling medians, filled by finish()
};

// Heap allocations made by the calling thread since it started (operator
// new is replaced in common.cc).
std::uint64_t thread_allocations();

// Raw per-operation samples; quantiles are exact order statistics, never
// bucket edges.
class Samples {
 public:
  void add(double v) {
    values_.push_back(v);
    sorted_ = false;
  }
  void reserve(std::size_t n) { values_.reserve(n); }
  std::size_t size() const { return values_.size(); }
  bool empty() const { return values_.empty(); }
  // Linear interpolation between the closest ranks (q in [0, 1]); 0 when
  // empty.
  double quantile(double q) const;
  double median() const { return quantile(0.5); }
  double sum() const;

 private:
  // Sorted lazily by quantile().
  mutable std::vector<double> values_;
  mutable bool sorted_ = true;
};

// SplitMix64: the one seeded generator every input choice is drawn from, so
// the same --seed gives the same inputs on any standard library.
class SeededStream {
 public:
  explicit SeededStream(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  // Uniform in [0, n).
  std::uint64_t below(std::uint64_t n) { return next() % n; }
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::swap(v[i - 1], v[below(i)]);
    }
  }

 private:
  std::uint64_t state_;
};

std::uint64_t fnv1a64(const std::string& text);

// --- Tracing ---------------------------------------------------------------

// A request id: a campaign job number, or a robot and control iteration.
struct RequestId {
  static constexpr std::uint64_t kJob = ~0ULL;
  std::uint64_t a = 0;
  std::uint64_t b = kJob;
  static RequestId job(std::uint64_t index) { return {index, kJob}; }
  static RequestId frame(std::uint64_t robot, std::uint64_t k) {
    return {robot, k};
  }
};

struct Span {
  std::uint32_t name = 0;    // index into Tracer::names()
  std::uint32_t parent = 0;  // 1-based span index; 0 = root
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  RequestId request;
};

// Spans of the traced run, kept in memory and written once at the end.
// Disabled tracers record nothing and cost one branch per call.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }

  // Opens a span; returns its 1-based id (0 when disabled), which children
  // name as their parent.
  std::uint32_t open(const char* name, std::uint32_t parent,
                     RequestId request, std::uint64_t start_ns);
  void close(std::uint32_t id, std::uint64_t end_ns);
  // Records an already-timed span.
  std::uint32_t record(const char* name, std::uint32_t parent,
                       RequestId request, std::uint64_t start_ns,
                       std::uint64_t end_ns);

  // Writes every span with its self time (duration minus the part covered
  // by its children) as TSV to `path`, and per-name totals to stderr.
  void write(const std::string& path) const;

 private:
  std::uint32_t intern(const char* name);

  bool enabled_;
  std::vector<const char*> names_;
  std::vector<Span> spans_;
};

// Times one call and records it as a span when tracing is on; the duration
// is available either way. id() names the span as a parent while it runs.
class Timed {
 public:
  Timed(Tracer& tracer, const char* name, std::uint32_t parent,
        RequestId request)
      : tracer_(tracer), start_(now_ns()) {
    id_ = tracer_.open(name, parent, request, start_);
  }
  // Stops the clock; returns the duration in ns.
  double stop() {
    const std::uint64_t end = now_ns();
    tracer_.close(id_, end);
    return static_cast<double>(end - start_);
  }
  std::uint32_t id() const { return id_; }

 private:
  Tracer& tracer_;
  std::uint64_t start_;
  std::uint32_t id_ = 0;
};

// --- Results ---------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// A run's outcome; it is correct when nothing failed.
struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  // Context printed beside the metrics: sample counts of each quantile,
  // bases of ratios, failure breakdown.
  std::vector<std::pair<std::string, std::string>> details;

  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void detail(const std::string& key, const std::string& value) {
    details.emplace_back(key, value);
  }
  void detail(const std::string& key, double value);
  // Records a failure of `what` (counted in `failed`, shown in details).
  void fail(const std::string& what, std::uint64_t count = 1);
};

double peak_rss_mb();
double median_of(std::vector<double> v);

}  // namespace perfbench
