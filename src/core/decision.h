// Decision maker (paper §IV-D; Algorithm 1, lines 10-25).
//
// χ² hypothesis tests on the normalized anomaly-vector estimates, gated by
// sliding windows to suppress transient faults (bumps, uneven ground): an
// alarm is raised only when at least `criteria` positives occur within the
// last `window` iterations. On a confirmed sensor alarm the stacked sensor
// anomaly is split per testing sensor and each block is tested individually
// to attribute the misbehavior (lines 13-18). Actuator misbehavior is
// confirmed on the aggregate statistic only — the paper performs no
// per-actuator test (line 22-24 merely reports the per-actuator estimate
// components).
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/check.h"
#include "core/nuise.h"

namespace roboads::core {

class EstimatorBank;  // core/bank.h

struct SlidingWindowConfig {
  std::size_t window = 1;    // w
  std::size_t criteria = 1;  // c (must satisfy c <= w)
};

// Fixed-capacity sliding window of boolean test outcomes (ring buffer with a
// running positive count). Replaces the former deque-based history: pushes in
// steady state allocate nothing, and recording an outcome is an honestly
// non-const operation (the deque version was reached through a const method
// that mutated the history it was passed by reference). Slots not yet pushed
// count as negatives, matching the grow-then-trim deque semantics.
class SlidingWindow {
 public:
  SlidingWindow() = default;
  explicit SlidingWindow(const SlidingWindowConfig& cfg)
      : buf_(cfg.window, 0), criteria_(cfg.criteria) {}

  // Records the newest outcome, dropping the oldest beyond the window;
  // returns true when at least `criteria` retained outcomes are positive.
  bool push(bool positive) {
    positives_ += static_cast<std::size_t>(positive);
    positives_ -= static_cast<std::size_t>(buf_[head_] != 0);
    buf_[head_] = positive ? 1 : 0;
    head_ = (head_ + 1) % buf_.size();
    return positives_ >= criteria_;
  }

  void clear() {
    std::fill(buf_.begin(), buf_.end(), 0);
    head_ = 0;
    positives_ = 0;
  }

  // Flat serialization for the flight recorder (obs/flight_recorder.h):
  // appends [size, head, positives, slot...] to `out`.
  void save(std::vector<std::int64_t>& out) const {
    out.push_back(static_cast<std::int64_t>(buf_.size()));
    out.push_back(static_cast<std::int64_t>(head_));
    out.push_back(static_cast<std::int64_t>(positives_));
    for (unsigned char b : buf_) out.push_back(b);
  }

  // Restores a save() stream starting at `in[at]`; returns the position
  // right after this window's block. The stored size must match the
  // window's configured size — a snapshot only replays into a detector
  // built with the same configuration.
  std::size_t restore(const std::vector<std::int64_t>& in, std::size_t at) {
    ROBOADS_CHECK(at + 3 <= in.size(), "truncated sliding-window snapshot");
    ROBOADS_CHECK_EQ(in[at], static_cast<std::int64_t>(buf_.size()),
                     "sliding-window snapshot size mismatch");
    ROBOADS_CHECK(at + 3 + buf_.size() <= in.size(),
                  "truncated sliding-window snapshot");
    head_ = static_cast<std::size_t>(in[at + 1]);
    positives_ = static_cast<std::size_t>(in[at + 2]);
    ROBOADS_CHECK(head_ < buf_.size(), "sliding-window head out of range");
    for (std::size_t i = 0; i < buf_.size(); ++i) {
      buf_[i] = in[at + 3 + i] != 0 ? 1 : 0;
    }
    return at + 3 + buf_.size();
  }

 private:
  std::vector<unsigned char> buf_ = std::vector<unsigned char>(1, 0);
  std::size_t criteria_ = 1;
  std::size_t head_ = 0;
  std::size_t positives_ = 0;
};

struct DecisionConfig {
  double sensor_alpha = 0.005;    // paper's chosen sensor confidence level
  double actuator_alpha = 0.05;   // paper's chosen actuator confidence level
  SlidingWindowConfig sensor_window{2, 2};    // paper: c/w = 2/2
  SlidingWindowConfig actuator_window{6, 3};  // paper: c/w = 3/6
};

struct SensorVerdict {
  std::size_t sensor_index = 0;  // suite index
  bool misbehaving = false;
  double statistic = 0.0;   // per-sensor χ² statistic at this iteration
  double threshold = 0.0;
  Vector anomaly_estimate;  // d̂ˢ block for this sensor
};

struct Decision {
  // Aggregate χ² statistics of the selected mode and their thresholds.
  double sensor_statistic = 0.0;
  double sensor_threshold = 0.0;
  bool sensor_test_positive = false;   // this iteration, pre-window
  bool sensor_alarm = false;           // post-window alarm

  double actuator_statistic = 0.0;
  double actuator_threshold = 0.0;
  bool actuator_test_positive = false;
  bool actuator_alarm = false;

  // Per-sensor attribution for every testing sensor of the selected mode;
  // meaningful (misbehaving may be true) only while sensor_alarm holds.
  std::vector<SensorVerdict> sensor_verdicts;
  // Suite indices confirmed misbehaving this iteration (empty if none).
  std::vector<std::size_t> misbehaving_sensors;

  Vector actuator_anomaly;  // d̂ᵃ from the selected mode
};

class DecisionMaker {
 public:
  // Builds a private bank holding only the χ² tables for `config`.
  DecisionMaker(const sensors::SensorSuite& suite, DecisionConfig config);

  // Reads the suite and χ² tables from a shared bank, whose confidence
  // levels must equal `config`'s; the windows are this decision maker's.
  DecisionMaker(std::shared_ptr<const EstimatorBank> bank,
                DecisionConfig config);

  const DecisionConfig& config() const { return config_; }

  // Evaluates the selected mode's NUISE outputs for this iteration.
  Decision evaluate(const Mode& mode, const NuiseResult& result);

  // Clears the sliding windows (e.g. at mission start).
  void reset();

  // Flight-recorder state capture (obs/flight_recorder.h): the sliding-
  // window contents, flat-packed in a fixed order (aggregate sensor,
  // aggregate actuator, then one window per suite sensor). restore_windows
  // requires a decision maker built with the same suite and configuration.
  void save_windows(std::vector<std::int64_t>& out) const;
  void restore_windows(const std::vector<std::int64_t>& in);

 private:
  // Suite and χ² thresholds per dof for the two confidence levels:
  // thresholds are pure functions of (α, dof), so the bank solves them once
  // for every detector sharing it.
  std::shared_ptr<const EstimatorBank> bank_;
  DecisionConfig config_;
  SlidingWindow sensor_history_;
  SlidingWindow actuator_history_;
  // Per-suite-sensor positive history for stable attribution.
  std::vector<SlidingWindow> per_sensor_history_;
  // evaluate() scratch: which suite sensors got a fresh test this step.
  std::vector<bool> tested_;
};

}  // namespace roboads::core
