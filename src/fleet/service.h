// Fleet-scale detection service: thousands of DetectorSessions on one box
// (docs/FLEET.md).
//
// Architecture, front to back:
//
//   submit()  — any thread, never blocks. Stamps the ingest clock and lands
//               the packet on the owning shard's lock-free bounded ring
//               (common/mpsc_queue.h). Backpressure is explicit: a full
//               ring sheds its *oldest* packet (counted per shard), so the
//               ingest thread is never the victim of a slow shard and the
//               newest data always wins.
//   pump      — one pass fans the shards across a common::ThreadPool
//               (pump_once), each worker draining a bounded batch from its
//               shard's ring into the owning sessions. Sessions are
//               strictly shard-owned — no locks around detector state, the
//               index-owned-slot discipline every parallel structure in
//               this library uses (docs/CONCURRENCY.md). start() runs the
//               pump on a dedicated thread; without start(), pump_once()/
//               drain() give tests a deterministic synchronous mode.
//   sessions  — per-robot streaming façades (fleet/session.h) stepping the
//               detector; per-session outputs are bit-identical to the
//               equivalent single-mission run.
//   status()  — aggregates per-shard atomics and latency histograms into a
//               fleet view; per-shard obs::HistogramSnapshots merge exactly
//               (obs::merge_snapshots), and an optional obs::MetricsRegistry
//               receives fleet-wide counters/latency for the standard
//               reporting pipeline.
//
// Sessions migrate between shards through the PR 5 snapshot/restore
// machinery: migrate() queues a request, the pump applies it between
// passes once the session is idle, and in-flight packets still routed to
// the old shard are forwarded — never lost, never reordered relative to
// the frames they complete.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/mpsc_queue.h"
#include "common/thread_pool.h"
#include "fleet/introspect.h"
#include "fleet/session.h"
#include "obs/metrics.h"

namespace roboads::fleet {

struct FleetConfig {
  std::size_t shards = 0;  // 0 = hardware concurrency
  // Per-shard ingestion ring capacity (rounded up to a power of two).
  std::size_t queue_capacity = 4096;
  SessionConfig session;
  // Optional fleet-wide counters/histograms ("fleet.*"); null = off.
  obs::MetricsRegistry* metrics = nullptr;
  // Optional per-report tap, called from the pump worker stepping the
  // robot's shard after the service's own accounting. One robot's reports
  // arrive in strict iteration order, never concurrently with each other;
  // different robots' reports may arrive from different threads at once,
  // so the hook must be safe for per-robot-disjoint concurrent calls.
  std::function<void(std::uint64_t robot, const core::DetectionReport&,
                     std::uint64_t ingest_ns)>
      on_report;
  // Introspection plane: span sampling, fleet_status.json publishing, hot
  // rankings (fleet/introspect.h). Defaults entirely off.
  FleetIntrospectConfig introspect;
};

struct FleetStatus {
  std::uint64_t sessions = 0;
  std::uint64_t steps = 0;
  std::uint64_t sensor_alarms = 0;
  std::uint64_t actuator_alarms = 0;
  std::uint64_t quarantine_iterations = 0;
  std::uint64_t dropped_packets = 0;
  std::uint64_t forwarded_packets = 0;
  std::uint64_t unknown_robot_packets = 0;
  obs::HistogramSnapshot ingest_to_step_ns;   // exact merge over shards
  obs::HistogramSnapshot ingest_to_alarm_ns;
  // Counter and latency fields of each row; the introspection-only fields
  // (reorder occupancy, EWMAs) stay zero here.
  std::vector<ShardStat> shards;
};

class FleetService {
 public:
  explicit FleetService(FleetConfig config = {});
  ~FleetService();

  FleetService(const FleetService&) = delete;
  FleetService& operator=(const FleetService&) = delete;

  std::size_t shard_count() const { return shards_.size(); }

  // Registers a robot and builds its session on shard (id % shards).
  // Returns the dense robot id submit() routes by. Call before start() —
  // session tables are lock-free precisely because the pump owns them.
  std::uint64_t add_robot(std::shared_ptr<const SessionSpec> spec);

  std::size_t robot_count() const { return routing_.size(); }
  std::size_t shard_of(std::uint64_t robot) const;

  // Streaming ingestion. Stamps packet.ingest_ns and enqueues; never
  // blocks (drop-oldest backpressure, counted per shard). Safe from any
  // number of threads, concurrently with the pump.
  void submit(FleetPacket packet);

  // Runs the pump on a dedicated thread until stop(). Idempotent start.
  void start();
  void stop();
  bool running() const { return running_; }

  // One synchronous pump pass over all shards (applies pending migrations
  // first). Returns packets processed. Only for the non-start() mode or
  // tests — never call concurrently with a running pump thread.
  std::size_t pump_once();

  // Blocks until every ingestion ring is empty and fully ingested. With a
  // running pump it waits; without one it pumps inline. Call once
  // producers have stopped submitting (drain cannot outrun a live firehose).
  void drain();

  // End-of-stream: steps every session's pending incomplete frames, in
  // order (DetectorSession::flush). Requires a stopped (or never-started)
  // pump after drain(). Returns total steps taken.
  std::size_t flush_sessions();

  // Requests moving a robot's session to `target_shard`. Applied by the
  // pump between passes once the session is idle; packets still in the old
  // shard's ring are forwarded. Safe from any thread.
  void migrate(std::uint64_t robot, std::size_t target_shard);

  FleetStatus status() const;

  // Quiescent-only introspection (stopped pump, or between synchronous
  // pump_once calls): the session's stream counters / next iteration.
  const SessionCounters& session_counters(std::uint64_t robot) const;
  std::uint64_t session_next_iteration(std::uint64_t robot) const;

  // Builds the full introspection snapshot — shard rows with live
  // occupancy, hot-robot rankings, the rolling alarm feed, rebalance
  // hints — and advances the EWMA publisher state. Quiescent-only (the
  // running pump builds its own between passes). Also the body of the
  // periodic fleet_status.json publish.
  FleetStatusSnapshot introspection();

  // Publishes introspection() to config.introspect.status_path now (no-op
  // when no status_path is configured). Quiescent-only; the tools call it
  // once after drain/stop/flush so the final snapshot reflects every step.
  void publish_status_now();

 private:
  struct ShardState {
    explicit ShardState(const FleetConfig& config);

    common::BoundedMpmcQueue<FleetPacket> queue;
    // Owned exclusively by the pump worker draining this shard; mutated
    // only between passes (add_robot pre-start, migrations).
    std::unordered_map<std::uint64_t, std::unique_ptr<DetectorSession>>
        sessions;
    std::atomic<std::uint64_t> session_count{0};
    std::atomic<std::uint64_t> steps{0};
    std::atomic<std::uint64_t> sensor_alarms{0};
    std::atomic<std::uint64_t> actuator_alarms{0};
    std::atomic<std::uint64_t> quarantine_iterations{0};
    std::atomic<std::uint64_t> dropped{0};
    std::atomic<std::uint64_t> forwarded{0};
    // Deepest the ring has ever been (CAS-max in submit).
    std::atomic<std::size_t> queue_high_water{0};
    obs::Histogram ingest_to_step;   // ns
    obs::Histogram ingest_to_alarm;  // ns
    // Rolling alarm ring, owned by the pump worker draining this shard
    // (written inside the report sink, read only between passes — the same
    // index-owned-slot discipline as the session tables).
    std::array<FleetAlarm, kAlarmFeed> alarm_ring;
    std::size_t alarm_next = 0;
    std::uint64_t alarms_total = 0;
  };

  struct MigrationRequest {
    std::uint64_t robot = 0;
    std::size_t target = 0;
  };

  // Per-robot scratch, stable-address like routing_. The EWMA latency is
  // written only by the worker stepping the robot's shard and read only
  // between passes. `session` points into the owning shard's table, so the
  // drain path reaches a packet's session without a hash lookup; it is
  // repointed when a migration rebuilds the session.
  struct RobotScratch {
    double ewma_latency_ns = 0.0;
    DetectorSession* session = nullptr;
  };

  // EWMA publisher state, owned by whichever thread builds snapshots (the
  // pump thread while running, the caller's thread when quiescent).
  struct IntrospectState {
    std::uint64_t seq = 0;
    std::uint64_t last_build_ns = 0;
    std::vector<std::uint64_t> prev_shard_steps;
    std::vector<double> shard_ewma_rate;
    std::vector<double> shard_ewma_depth;
    std::vector<std::uint64_t> prev_robot_steps;
    std::vector<double> robot_ewma_rate;
  };

  void attach_sink(DetectorSession& session, std::uint64_t robot);
  void configure_tracing(DetectorSession& session, std::uint64_t robot);
  std::size_t drain_shard(std::size_t shard);
  void apply_migrations();
  void pump_loop();
  // The row status() and the introspection snapshot share: the shard's
  // counters, ring depth/high-water and latency snapshots.
  ShardStat shard_row(std::size_t shard) const;
  FleetStatusSnapshot build_introspection();
  void maybe_publish();
  DetectorSession& session_ref(std::uint64_t robot) const;

  FleetConfig config_;
  std::vector<std::unique_ptr<ShardState>> shards_;
  // robot id -> owning shard. A deque of atomics: grows without moving
  // (stable addresses for lock-free readers), updated by migration.
  std::deque<std::atomic<std::uint32_t>> routing_;
  std::vector<std::shared_ptr<const SessionSpec>> specs_;  // by robot id
  std::deque<RobotScratch> robot_scratch_;                 // by robot id
  common::ThreadPool pool_;

  // trace_sample when a span sink is wired, else 0 (one branch per packet
  // on the drain path decides whether to stamp the dequeue clock).
  std::size_t span_sample_ = 0;
  IntrospectState introspect_state_;

  std::mutex migrations_mu_;
  std::vector<MigrationRequest> migrations_;

  std::atomic<std::uint64_t> unknown_robot_{0};
  std::atomic<bool> stop_{false};
  std::atomic<std::uint64_t> pass_seq_{0};
  bool running_ = false;
  std::thread pump_thread_;

  // Optional registry handles (null when config_.metrics is null).
  obs::Counter* m_steps_ = nullptr;
  obs::Counter* m_sensor_alarms_ = nullptr;
  obs::Counter* m_actuator_alarms_ = nullptr;
  obs::Counter* m_dropped_ = nullptr;
  obs::Histogram* m_ingest_to_step_ = nullptr;
};

}  // namespace roboads::fleet
