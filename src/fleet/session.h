// One robot's detector, fed by a packet stream (docs/FLEET.md).
//
// DetectorSession is the streaming façade over core::RoboAds: where the
// mission runner hands the detector a complete (u_{k-1}, z_k) pair per
// control iteration, a session reassembles those pairs from individual bus
// packets that may arrive out of order, duplicated, late, or not at all.
// The reassembly maps transport imperfections onto the exact degraded-mode
// machinery the fault-tolerant runtime already proves out
// (docs/ROBUSTNESS.md):
//
//   * a sensor whose packet never arrives for iteration k is stepped as
//     unavailable via the SensorMask — identical to a sim/faults.h frame
//     drop, so every masked-path guarantee carries over;
//   * a missing command packet reuses the previous command (a frozen
//     actuation bus), counted, never fabricated;
//   * packets for iterations already stepped are late — counted and
//     dropped, they can never rewrite history;
//   * duplicates are counted and resolved latest-wins before the step.
//
// When every packet of an iteration arrives (the overwhelmingly common
// case), the session steps with the complete mask, so a session fed a
// mission's recorded packets reproduces that mission's DetectionReports
// exactly (tests/fleet_session_test.cc pins this).
//
// Sessions are single-threaded by design: the fleet service owns each one
// on exactly one shard and migrates it between shards via the PR 5
// snapshot/restore machinery (save/restore below), never by sharing. What
// they do share is immutable: every session built from one SessionSpec
// steps through the spec's estimator bank (core/bank.h), so a session
// holds only its robot's detector state and reassembly buffers.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "core/roboads.h"
#include "fleet/packet.h"
#include "obs/flight_recorder.h"
#include "obs/span.h"
#include "obs/trace.h"

namespace roboads::fleet {

// Everything needed to build (or rebuild, after migration) one robot's
// detector. Pointers are non-owning and must outlive every session built
// from the spec; a homogeneous fleet shares one spec across all robots.
// `bank` is the detector's immutable part (core/bank.h) built once from
// the other fields (make_session_spec); every session built from the spec
// steps through it and keeps only per-robot state. A spec without a bank is
// rejected.
struct SessionSpec {
  const dyn::DynamicModel* model = nullptr;
  const sensors::SensorSuite* suite = nullptr;
  const Matrix* process_cov = nullptr;
  Vector x0;
  Matrix p0;
  core::RoboAdsConfig config;
  std::vector<core::Mode> modes;  // empty = platform default set
  std::shared_ptr<const core::EstimatorBank> bank;
};

struct SessionConfig {
  // Pending iterations held for reassembly. A packet more than this many
  // iterations ahead of the oldest incomplete frame force-evicts frames
  // (stepping them with whatever arrived) to bound memory and latency.
  std::size_t reorder_window = 4;
};

// Most frames one packet may force-evict to catch up. A packet further
// ahead resyncs the session instead: it steps the frames it holds, skips
// the iterations in between unstepped, and counts one resync, so one
// hostile iteration number cannot stall the shard.
inline constexpr std::uint64_t kMaxCatchUpFrames = 256;

struct SessionCounters {
  std::uint64_t steps = 0;
  std::uint64_t sensor_alarms = 0;    // iterations with the alarm up
  std::uint64_t actuator_alarms = 0;
  std::uint64_t late_packets = 0;     // iteration already stepped
  std::uint64_t duplicate_packets = 0;
  std::uint64_t unknown_source = 0;   // sensor name not in the suite
  std::uint64_t forced_evictions = 0; // frames stepped incomplete
  std::uint64_t masked_steps = 0;     // steps with >= 1 sensor unavailable
  std::uint64_t command_substituted = 0;  // steps reusing the previous u
  std::uint64_t resyncs = 0;  // jumps past > kMaxCatchUpFrames iterations
  // Accepted packets carrying a NaN or ±Inf. The payload is kept: the
  // detector masks a sensor whose reading is not finite (RoboAds::step),
  // so reports are those of the same stream without this counter.
  std::uint64_t nonfinite_packets = 0;
};

// Migration payload: the PR 5 detector snapshot plus the session's stream
// position. Restoring into a session built from the same spec resumes
// stepping bit-identically (tests/fleet_session_test.cc).
struct SessionSnapshot {
  obs::DetectorStateSnapshot detector;
  SessionCounters counters;
  std::uint64_t next_iteration = 1;
  std::vector<double> last_u;
  std::vector<double> last_z;
};

class DetectorSession {
 public:
  // Called after every completed step with the report and the newest
  // ingest stamp among the packets that formed the frame (0 when the frame
  // was synthesized entirely from substitution, e.g. a fully dark
  // iteration force-evicted from the window). The report lives only for
  // the call: every session stepping on this thread writes into the same
  // one (a sink that steps another session gets a report of its own), so
  // copy what must outlive it.
  using ReportSink =
      std::function<void(const core::DetectionReport&, std::uint64_t)>;

  // The spec is shared so a migrated session can be rebuilt on the target
  // shard from the same immutable description (FleetService::migrate).
  // Throws when the spec has no bank or its bank serves another suite.
  DetectorSession(std::shared_ptr<const SessionSpec> spec,
                  SessionConfig config = {});

  void set_report_sink(ReportSink sink) { sink_ = std::move(sink); }

  // Turns on causal span emission for this session: every completed step
  // materializes one pinned-schema "span" TraceEvent into `sink`
  // (obs/span.h). Tracing is observably pure — it stamps clocks and emits
  // events, never touching detector state, counters, or report content —
  // so a traced session's DetectionReports stay bit-identical to an
  // untraced one's (the --parity guarantee). Pass nullptr to disable.
  void enable_span_tracing(std::uint64_t robot, obs::TraceSink* sink) {
    span_robot_ = robot;
    span_sink_ = sink;
    if (sink != nullptr) spans_.resize(frames_.size());
  }

  bool span_tracing() const { return span_sink_ != nullptr; }

  // Feeds one packet. May trigger zero or more detector steps (a completed
  // frame cascades into any already-complete successors). Never blocks.
  void ingest(const FleetPacket& packet);

  // Steps every pending frame in order with whatever arrived — the
  // end-of-stream flush. Returns the number of steps taken.
  std::size_t flush();

  // No frames pending (safe to migrate without losing buffered packets).
  bool idle() const { return pending_count_ == 0; }

  // Reorder-window occupancy: frames currently awaiting reassembly.
  std::size_t pending_frames() const { return pending_count_; }

  // Next iteration the session will step (1-based, like mission records;
  // 0 once iteration 2^64 - 1 has been stepped, after which every packet
  // is late).
  std::uint64_t next_iteration() const { return base_k_; }

  // The shared immutable part of this session's detector.
  const core::EstimatorBank& bank() const { return detector_.bank(); }

  const SessionCounters& counters() const { return counters_; }

  // Shard-migration capture/restore. save() requires idle() — the caller
  // flushes or drains first; buffered half-frames are not serializable
  // detector state.
  SessionSnapshot save() const;
  void restore(const SessionSnapshot& snapshot);

 private:
  // One slot of the reorder ring. Its command and readings live in
  // values_ and its span stamps in spans_: flat per-session arrays, which
  // keep a session's frames to a few hundred bytes (a fleet holds
  // thousands of sessions).
  struct PendingFrame {
    bool active = false;
    bool has_u = false;
    core::SensorMask missing;  // the sensors whose reading has not arrived
    std::uint64_t max_ingest_ns = 0;
  };

  std::size_t slot(std::uint64_t k) const { return k % frames_.size(); }
  // Slot s's command (input_dim_ doubles) followed by its stacked readings
  // (suite layout). Slot frames_.size() holds the last delivered command
  // and readings: the substitutes for a missing command, and the content
  // of a reading block that has not arrived (sim/faults.h's frozen value).
  double* values(std::size_t s) { return values_.data() + s * stride_; }
  const double* values(std::size_t s) const {
    return values_.data() + s * stride_;
  }
  PendingFrame& frame_at(std::uint64_t k);
  void step_frame(std::uint64_t k, bool forced = false);
  void cascade();

  const sensors::SensorSuite& suite() const { return bank().suite(); }

  core::RoboAds detector_;

  std::vector<PendingFrame> frames_;  // ring, slot k % window
  std::size_t input_dim_ = 0;
  std::size_t stride_ = 0;            // input_dim_ + suite().total_dim()
  std::vector<double> values_;        // (window + 1) × stride_, values()
  core::SensorMask none_arrived_;     // every suite sensor missing
  std::vector<obs::SpanStamps> spans_;  // per slot, once tracing is on
  std::size_t pending_count_ = 0;
  std::uint64_t base_k_ = 1;          // next iteration to step
  SessionCounters counters_;
  ReportSink sink_;
  std::uint64_t span_robot_ = 0;       // id carried on emitted spans
  obs::TraceSink* span_sink_ = nullptr;  // null = tracing off
};

}  // namespace roboads::fleet
