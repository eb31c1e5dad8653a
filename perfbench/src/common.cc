#include "common.h"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <new>
#include <numeric>

// Counting replacements of the global allocation functions: every heap
// allocation made by a thread bumps that thread's counter, which the core
// replay reads around RoboAds::step (core.step_allocs).
namespace {
thread_local std::uint64_t t_allocations = 0;

void* counted_alloc(std::size_t size) {
  ++t_allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  ++t_allocations;
  return std::malloc(size == 0 ? 1 : size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  ++t_allocations;
  return std::malloc(size == 0 ? 1 : size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace perfbench {

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::uint64_t thread_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ULL +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

std::uint64_t thread_allocations() { return t_allocations; }

// --- Host-speed calibration --------------------------------------------------

namespace {
volatile double g_kernel_sink = 0.0;

// 800 products of 12×12 matrices, each fed back with a square-root
// correction: fixed, cache-resident floating-point work of about 0.45 ms.
double kernel_work() {
  constexpr int n = 12;
  double a[n][n], b[n][n], c[n][n];
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      a[i][j] = 1.0 / (i + j + 1);
      b[i][j] = i == j ? 0.99 : 0.001;
    }
  }
  for (int it = 0; it < 800; ++it) {
    for (int i = 0; i < n; ++i) {
      for (int j = 0; j < n; ++j) {
        double s = 0.0;
        for (int k = 0; k < n; ++k) s += a[i][k] * b[k][j];
        c[i][j] = s;
      }
    }
    for (int i = 0; i < n; ++i) {
      for (int j = 0; j < n; ++j) {
        a[i][j] = c[i][j] + 1e-3 * std::sqrt(std::fabs(c[i][j]));
      }
    }
  }
  return a[3][4];
}
}  // namespace

double kernel_ns() {
  const std::uint64_t c0 = thread_cpu_ns();
  g_kernel_sink = g_kernel_sink + kernel_work();
  return static_cast<double>(thread_cpu_ns() - c0);
}

double kernel_median_ns() {
  std::vector<double> v;
  for (int i = 0; i < 7; ++i) v.push_back(kernel_ns());
  return median_of(v);
}

void SpeedTrack::finish() {
  local_.clear();
  const std::size_t n = samples_.size();
  std::vector<double> window;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t lo = i > kSpan ? i - kSpan : 0;
    const std::size_t hi = std::min(n, i + kSpan + 1);
    window.clear();
    for (std::size_t j = lo; j < hi; ++j) window.push_back(samples_[j].second);
    local_.push_back(median_of(window));
  }
}

double SpeedTrack::at(std::uint64_t wall_ns) const {
  if (local_.empty()) return kReferenceKernelNs;
  const auto it = std::lower_bound(
      samples_.begin(), samples_.end(), wall_ns,
      [](const auto& s, std::uint64_t t) { return s.first < t; });
  const std::size_t i = std::min<std::size_t>(it - samples_.begin(),
                                              local_.size() - 1);
  return local_[i];
}

double SpeedTrack::median() const {
  std::vector<double> v;
  for (const auto& s : samples_) v.push_back(s.second);
  return median_of(v);
}

double Samples::quantile(double q) const {
  if (values_.empty()) return 0.0;
  if (!sorted_) {
    std::sort(values_.begin(), values_.end());
    sorted_ = true;
  }
  const std::vector<double>& v = values_;
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double Samples::sum() const {
  return std::accumulate(values_.begin(), values_.end(), 0.0);
}

std::uint64_t SeededStream::next() {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t fnv1a64(const std::string& text) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : text) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

// --- Tracer ------------------------------------------------------------------

std::uint32_t Tracer::intern(const char* name) {
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return static_cast<std::uint32_t>(i);
  }
  names_.push_back(name);
  return static_cast<std::uint32_t>(names_.size() - 1);
}

std::uint32_t Tracer::open(const char* name, std::uint32_t parent,
                           RequestId request, std::uint64_t start_ns) {
  return record(name, parent, request, start_ns, start_ns);
}

void Tracer::close(std::uint32_t id, std::uint64_t end_ns) {
  if (id != 0) spans_[id - 1].end_ns = end_ns;
}

std::uint32_t Tracer::record(const char* name, std::uint32_t parent,
                             RequestId request, std::uint64_t start_ns,
                             std::uint64_t end_ns) {
  if (!enabled_) return 0;
  Span s;
  s.name = intern(name);
  s.parent = parent;
  s.request = request;
  s.start_ns = start_ns;
  s.end_ns = end_ns;
  spans_.push_back(s);
  return static_cast<std::uint32_t>(spans_.size());
}

void Tracer::write(const std::string& path) const {
  std::vector<std::uint64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent != 0) child_ns[s.parent - 1] += s.end_ns - s.start_ns;
  }
  struct Totals {
    std::uint64_t count = 0;
    double total_ns = 0.0;
    double self_ns = 0.0;
  };
  std::map<std::string, Totals> by_name;
  std::ofstream os(path, std::ios::trunc);
  os << "id\tparent\tname\tstart_ns\tend_ns\tself_ns\trequest\n";
  const std::uint64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const std::uint64_t dur = s.end_ns - s.start_ns;
    const std::uint64_t self = dur > child_ns[i] ? dur - child_ns[i] : 0;
    Totals& t = by_name[names_[s.name]];
    ++t.count;
    t.total_ns += static_cast<double>(dur);
    t.self_ns += static_cast<double>(self);
    os << i + 1 << '\t' << s.parent << '\t' << names_[s.name] << '\t'
       << s.start_ns - origin << '\t' << s.end_ns - origin << '\t' << self
       << '\t';
    if (s.request.b == RequestId::kJob) {
      os << "job:" << s.request.a;
    } else {
      os << "robot:" << s.request.a << "/k:" << s.request.b;
    }
    os << '\n';
  }
  std::fprintf(stderr, "span totals (name: count, total ms, self ms)\n");
  for (const auto& [name, t] : by_name) {
    std::fprintf(stderr, "  %-34s %9llu %12.3f %12.3f\n", name.c_str(),
                 static_cast<unsigned long long>(t.count), t.total_ns * 1e-6,
                 t.self_ns * 1e-6);
  }
  os.flush();
  std::fprintf(stderr, "%s %s\n", os ? "spans written to" : "cannot write",
               path.c_str());
}

// --- Results -----------------------------------------------------------------

void Result::detail(const std::string& key, double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", value);
  details.emplace_back(key, buf);
}

void Result::fail(const std::string& what, std::uint64_t count) {
  if (count == 0) return;
  failed += count;
  details.emplace_back("failure." + what, std::to_string(count));
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double median_of(std::vector<double> v) {
  Samples s;
  for (double x : v) s.add(x);
  return s.median();
}

}  // namespace perfbench
