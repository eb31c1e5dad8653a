#include "fleet/service.h"

#include <algorithm>
#include <chrono>

#include "common/check.h"

namespace roboads::fleet {
namespace {

// Max packets drained from one shard per pump pass; bounds the time one
// pass can monopolize a worker while other shards wait.
constexpr std::size_t kDrainBatch = 512;

std::size_t resolve_shards(std::size_t requested) {
  return common::ThreadPool::resolve_thread_count(requested);
}

std::size_t pool_size_for(std::size_t shards) {
  return std::max<std::size_t>(
      1, std::min(shards, common::ThreadPool::resolve_thread_count(0)));
}

void brief_pause() {
  std::this_thread::sleep_for(std::chrono::microseconds(100));
}

double unix_now_s() {
  return std::chrono::duration<double>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

// Folds a shard row into fleet totals; FleetStatus and FleetStatusSnapshot
// name these fields alike. The histogram fold is merge_snapshots, so the
// fleet distributions are the exact merge of the rows'.
template <class Totals>
void add_row(Totals& totals, const ShardStat& row) {
  totals.steps += row.steps;
  totals.sensor_alarms += row.sensor_alarms;
  totals.actuator_alarms += row.actuator_alarms;
  totals.quarantine_iterations += row.quarantine_iterations;
  totals.dropped_packets += row.dropped_packets;
  totals.forwarded_packets += row.forwarded_packets;
  totals.ingest_to_step_ns.merge(row.ingest_to_step_ns);
  totals.ingest_to_alarm_ns.merge(row.ingest_to_alarm_ns);
}

}  // namespace

FleetService::ShardState::ShardState(const FleetConfig& config)
    : queue(config.queue_capacity),
      ingest_to_step(obs::default_latency_bounds_ns()),
      ingest_to_alarm(obs::default_latency_bounds_ns()) {}

FleetService::FleetService(FleetConfig config)
    : config_(std::move(config)), pool_(pool_size_for(resolve_shards(config_.shards))) {
  const FleetIntrospectConfig& ic = config_.introspect;
  if (ic.trace_sample > 0) {
    ROBOADS_CHECK(ic.span_sink != nullptr,
                  "trace_sample needs a span sink to emit into");
    span_sample_ = ic.trace_sample;
  }
  const std::size_t shards = resolve_shards(config_.shards);
  shards_.reserve(shards);
  for (std::size_t s = 0; s < shards; ++s) {
    shards_.push_back(std::make_unique<ShardState>(config_));
  }
  if (config_.metrics != nullptr) {
    m_steps_ = &config_.metrics->counter("fleet.steps");
    m_sensor_alarms_ = &config_.metrics->counter("fleet.sensor_alarms");
    m_actuator_alarms_ = &config_.metrics->counter("fleet.actuator_alarms");
    m_dropped_ = &config_.metrics->counter("fleet.dropped_packets");
    m_ingest_to_step_ = &config_.metrics->histogram("fleet.ingest_to_step_ns");
  }
}

FleetService::~FleetService() { stop(); }

void FleetService::attach_sink(DetectorSession& session, std::uint64_t robot) {
  session.set_report_sink([this, robot](const core::DetectionReport& report,
                                        std::uint64_t frame_ingest_ns) {
    ShardState& shard =
        *shards_[routing_[robot].load(std::memory_order_relaxed)];
    shard.steps.fetch_add(1, std::memory_order_relaxed);
    if (m_steps_ != nullptr) m_steps_->increment();
    const bool sensor_alarm = report.decision.sensor_alarm;
    const bool actuator_alarm = report.decision.actuator_alarm;
    if (sensor_alarm) {
      shard.sensor_alarms.fetch_add(1, std::memory_order_relaxed);
      if (m_sensor_alarms_ != nullptr) m_sensor_alarms_->increment();
    }
    if (actuator_alarm) {
      shard.actuator_alarms.fetch_add(1, std::memory_order_relaxed);
      if (m_actuator_alarms_ != nullptr) m_actuator_alarms_->increment();
    }
    if (report.quarantined_modes > 0) {
      shard.quarantine_iterations.fetch_add(1, std::memory_order_relaxed);
    }
    double latency = 0.0;
    if (frame_ingest_ns > 0) {
      const std::uint64_t now = steady_now_ns();
      latency = now > frame_ingest_ns
                    ? static_cast<double>(now - frame_ingest_ns)
                    : 0.0;
      shard.ingest_to_step.record(latency);
      if (m_ingest_to_step_ != nullptr) m_ingest_to_step_->record(latency);
      if (sensor_alarm || actuator_alarm) {
        shard.ingest_to_alarm.record(latency);
      }
      // Per-robot EWMA step latency: this scratch slot is only ever
      // written by the worker stepping the robot's shard and read between
      // passes, so a plain double suffices.
      double& ewma = robot_scratch_[robot].ewma_latency_ns;
      ewma = ewma == 0.0
                 ? latency
                 : ewma + kEwmaAlpha * (latency - ewma);
    }
    if (sensor_alarm || actuator_alarm) {
      FleetAlarm& alarm = shard.alarm_ring[shard.alarm_next];
      alarm.unix_time = unix_now_s();
      alarm.robot = robot;
      alarm.k = static_cast<std::uint64_t>(report.iteration);
      alarm.sensor = sensor_alarm;
      alarm.actuator = actuator_alarm;
      alarm.latency_ns = latency;
      shard.alarm_next = (shard.alarm_next + 1) % shard.alarm_ring.size();
      ++shard.alarms_total;
    }
    if (config_.on_report) config_.on_report(robot, report, frame_ingest_ns);
  });
}

std::uint64_t FleetService::add_robot(std::shared_ptr<const SessionSpec> spec) {
  ROBOADS_CHECK(!running_, "add robots before starting the pump");
  ROBOADS_CHECK(spec != nullptr, "fleet robot needs a session spec");
  const std::uint64_t robot = routing_.size();
  const std::size_t shard = static_cast<std::size_t>(robot) % shards_.size();
  auto session = std::make_unique<DetectorSession>(spec, config_.session);
  attach_sink(*session, robot);
  configure_tracing(*session, robot);
  robot_scratch_.emplace_back().session = session.get();
  shards_[shard]->sessions.emplace(robot, std::move(session));
  shards_[shard]->session_count.fetch_add(1, std::memory_order_relaxed);
  routing_.emplace_back(static_cast<std::uint32_t>(shard));
  specs_.push_back(std::move(spec));
  return robot;
}

void FleetService::configure_tracing(DetectorSession& session,
                                     std::uint64_t robot) {
  if (span_sample_ != 0 && robot % span_sample_ == 0) {
    session.enable_span_tracing(robot, config_.introspect.span_sink);
  }
}

std::size_t FleetService::shard_of(std::uint64_t robot) const {
  ROBOADS_CHECK(robot < routing_.size(), "unknown fleet robot id");
  return routing_[robot].load(std::memory_order_relaxed);
}

void FleetService::submit(FleetPacket packet) {
  if (packet.robot >= routing_.size()) {
    unknown_robot_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  packet.ingest_ns = steady_now_ns();
  ShardState& shard =
      *shards_[routing_[packet.robot].load(std::memory_order_relaxed)];
  const std::size_t dropped =
      shard.queue.push_dropping_oldest(std::move(packet));
  if (dropped > 0) {
    shard.dropped.fetch_add(dropped, std::memory_order_relaxed);
    if (m_dropped_ != nullptr) m_dropped_->increment(dropped);
  }
  const std::size_t depth = shard.queue.size_approx();
  std::size_t high = shard.queue_high_water.load(std::memory_order_relaxed);
  while (depth > high && !shard.queue_high_water.compare_exchange_weak(
                             high, depth, std::memory_order_relaxed)) {
  }
}

std::size_t FleetService::drain_shard(std::size_t shard_index) {
  ShardState& shard = *shards_[shard_index];
  std::size_t processed = 0;
  FleetPacket packet;
  while (processed < kDrainBatch && shard.queue.try_pop(packet)) {
    ++processed;
    if (span_sample_ != 0 && packet.robot % span_sample_ == 0) {
      packet.dequeue_ns = steady_now_ns();
    }
    const std::size_t owner =
        routing_[packet.robot].load(std::memory_order_relaxed);
    if (owner != shard_index) {
      // The robot migrated while this packet sat in the old shard's ring:
      // forward it. The next pass of the owning shard ingests it.
      ShardState& target = *shards_[owner];
      const std::size_t dropped =
          target.queue.push_dropping_oldest(std::move(packet));
      if (dropped > 0) {
        target.dropped.fetch_add(dropped, std::memory_order_relaxed);
      }
      shard.forwarded.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    robot_scratch_[packet.robot].session->ingest(packet);
  }
  return processed;
}

std::size_t FleetService::pump_once() {
  apply_migrations();
  std::vector<std::size_t> processed(shards_.size(), 0);
  pool_.parallel_for(shards_.size(), [&](std::size_t s) {
    processed[s] = drain_shard(s);
  });
  std::size_t total = 0;
  for (std::size_t n : processed) total += n;
  pass_seq_.fetch_add(1, std::memory_order_release);
  return total;
}

void FleetService::apply_migrations() {
  std::vector<MigrationRequest> requests;
  {
    std::lock_guard<std::mutex> lock(migrations_mu_);
    requests.swap(migrations_);
  }
  std::vector<MigrationRequest> retry;
  for (const MigrationRequest& req : requests) {
    ROBOADS_CHECK(req.robot < routing_.size(), "unknown fleet robot id");
    ROBOADS_CHECK(req.target < shards_.size(), "migration target out of range");
    const std::size_t source =
        routing_[req.robot].load(std::memory_order_relaxed);
    if (source == req.target) continue;
    ShardState& from = *shards_[source];
    const auto it = from.sessions.find(req.robot);
    ROBOADS_CHECK(it != from.sessions.end(),
                  "routing names a shard without the session");
    if (!it->second->idle()) {
      // Half-assembled frames are not serializable detector state; wait
      // for the stream to complete them (next pass retries).
      retry.push_back(req);
      continue;
    }
    const SessionSnapshot snapshot = it->second->save();
    auto rebuilt = std::make_unique<DetectorSession>(specs_[req.robot],
                                                     config_.session);
    rebuilt->restore(snapshot);
    attach_sink(*rebuilt, req.robot);
    configure_tracing(*rebuilt, req.robot);
    from.sessions.erase(it);
    from.session_count.fetch_sub(1, std::memory_order_relaxed);
    ShardState& to = *shards_[req.target];
    robot_scratch_[req.robot].session = rebuilt.get();
    to.sessions.emplace(req.robot, std::move(rebuilt));
    to.session_count.fetch_add(1, std::memory_order_relaxed);
    // Publish the new route last: packets submitted from here on go to the
    // target; stragglers already queued on the source get forwarded.
    routing_[req.robot].store(static_cast<std::uint32_t>(req.target),
                              std::memory_order_release);
  }
  if (!retry.empty()) {
    std::lock_guard<std::mutex> lock(migrations_mu_);
    migrations_.insert(migrations_.end(), retry.begin(), retry.end());
  }
}

void FleetService::migrate(std::uint64_t robot, std::size_t target_shard) {
  std::lock_guard<std::mutex> lock(migrations_mu_);
  migrations_.push_back({robot, target_shard});
}

void FleetService::pump_loop() {
  while (!stop_.load(std::memory_order_acquire)) {
    if (pump_once() == 0) brief_pause();
    // Between passes is the only moment session state is readable without
    // racing the shard workers — the publish window.
    maybe_publish();
  }
}

void FleetService::start() {
  if (running_) return;
  stop_.store(false, std::memory_order_release);
  pump_thread_ = std::thread([this] { pump_loop(); });
  running_ = true;
}

void FleetService::stop() {
  if (!running_) return;
  stop_.store(true, std::memory_order_release);
  pump_thread_.join();
  running_ = false;
}

void FleetService::drain() {
  const auto queues_empty = [this] {
    for (const auto& shard : shards_) {
      if (shard->queue.size_approx() > 0) return false;
    }
    return true;
  };
  if (!running_) {
    while (pump_once() > 0) {
    }
    return;
  }
  for (;;) {
    if (queues_empty()) {
      // Two full pump passes after observing empty rings: anything popped
      // before the observation has been ingested, and nothing forwarded
      // re-appeared (a forward lands back in a ring and fails the
      // re-check below).
      const std::uint64_t seq = pass_seq_.load(std::memory_order_acquire);
      while (pass_seq_.load(std::memory_order_acquire) < seq + 2) {
        brief_pause();
      }
      if (queues_empty()) return;
    }
    brief_pause();
  }
}

std::size_t FleetService::flush_sessions() {
  ROBOADS_CHECK(!running_, "stop the pump before flushing sessions");
  apply_migrations();
  std::vector<std::size_t> stepped(shards_.size(), 0);
  pool_.parallel_for(shards_.size(), [&](std::size_t s) {
    for (auto& [robot, session] : shards_[s]->sessions) {
      stepped[s] += session->flush();
    }
  });
  std::size_t total = 0;
  for (std::size_t n : stepped) total += n;
  return total;
}

ShardStat FleetService::shard_row(std::size_t s) const {
  const ShardState& shard = *shards_[s];
  ShardStat row;
  row.shard = s;
  row.sessions = shard.session_count.load(std::memory_order_relaxed);
  row.steps = shard.steps.load(std::memory_order_relaxed);
  row.sensor_alarms = shard.sensor_alarms.load(std::memory_order_relaxed);
  row.actuator_alarms = shard.actuator_alarms.load(std::memory_order_relaxed);
  row.quarantine_iterations =
      shard.quarantine_iterations.load(std::memory_order_relaxed);
  row.dropped_packets = shard.dropped.load(std::memory_order_relaxed);
  row.forwarded_packets = shard.forwarded.load(std::memory_order_relaxed);
  row.queue_depth = shard.queue.size_approx();
  row.queue_high_water =
      shard.queue_high_water.load(std::memory_order_relaxed);
  row.ingest_to_step_ns = shard.ingest_to_step.snapshot();
  row.ingest_to_alarm_ns = shard.ingest_to_alarm.snapshot();
  return row;
}

FleetStatus FleetService::status() const {
  FleetStatus status;
  status.unknown_robot_packets =
      unknown_robot_.load(std::memory_order_relaxed);
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    ShardStat row = shard_row(s);
    status.sessions += row.sessions;
    add_row(status, row);
    status.shards.push_back(std::move(row));
  }
  return status;
}

FleetStatusSnapshot FleetService::build_introspection() {
  const FleetIntrospectConfig& ic = config_.introspect;
  IntrospectState& st = introspect_state_;
  st.prev_shard_steps.resize(shards_.size(), 0);
  st.shard_ewma_rate.resize(shards_.size(), 0.0);
  st.shard_ewma_depth.resize(shards_.size(), 0.0);
  st.prev_robot_steps.resize(routing_.size(), 0);
  st.robot_ewma_rate.resize(routing_.size(), 0.0);

  const std::uint64_t now_ns = steady_now_ns();
  const double dt =
      st.last_build_ns == 0
          ? 0.0
          : static_cast<double>(now_ns - st.last_build_ns) * 1e-9;
  // The first build has no step baseline — record one, update no rates.
  const bool update_rates = dt > 0.0;

  FleetStatusSnapshot out;
  out.unix_time = unix_now_s();
  out.seq = ++st.seq;
  out.robots = routing_.size();
  out.unknown_robot_packets = unknown_robot_.load(std::memory_order_relaxed);
  out.trace_sample = span_sample_;
  out.spans = ic.span_sink != nullptr ? ic.span_sink->size() : 0;

  std::vector<RobotStat> robots;
  robots.reserve(routing_.size());
  std::vector<FleetAlarm> alarms;

  for (std::size_t s = 0; s < shards_.size(); ++s) {
    const ShardState& shard = *shards_[s];
    ShardStat row = shard_row(s);

    std::uint64_t pending = 0;
    for (const auto& [robot, session] : shard.sessions) {
      const SessionCounters& c = session->counters();
      RobotStat r;
      r.robot = robot;
      r.shard = s;
      r.steps = c.steps;
      r.sensor_alarms = c.sensor_alarms;
      r.actuator_alarms = c.actuator_alarms;
      r.late_packets = c.late_packets;
      r.duplicate_packets = c.duplicate_packets;
      r.forced_evictions = c.forced_evictions;
      r.masked_steps = c.masked_steps;
      r.command_substituted = c.command_substituted;
      r.reorder_pending = session->pending_frames();
      r.ewma_step_latency_ns = robot_scratch_[robot].ewma_latency_ns;
      r.traced = session->span_tracing();
      pending += r.reorder_pending;
      if (update_rates) {
        const double inst =
            static_cast<double>(c.steps - st.prev_robot_steps[robot]) / dt;
        double& ewma = st.robot_ewma_rate[robot];
        ewma += kEwmaAlpha * (inst - ewma);
      }
      st.prev_robot_steps[robot] = c.steps;
      r.ewma_steps_per_s = st.robot_ewma_rate[robot];
      robots.push_back(r);
    }
    row.reorder_pending = pending;
    if (update_rates) {
      const double inst =
          static_cast<double>(row.steps - st.prev_shard_steps[s]) / dt;
      st.shard_ewma_rate[s] += kEwmaAlpha * (inst - st.shard_ewma_rate[s]);
      st.shard_ewma_depth[s] +=
          kEwmaAlpha * (static_cast<double>(row.queue_depth) -
                        st.shard_ewma_depth[s]);
    }
    st.prev_shard_steps[s] = row.steps;
    row.ewma_steps_per_s = st.shard_ewma_rate[s];
    row.ewma_queue_depth = st.shard_ewma_depth[s];

    // Copy the shard's alarm ring oldest → newest.
    const std::size_t count = static_cast<std::size_t>(
        std::min<std::uint64_t>(shard.alarms_total, kAlarmFeed));
    for (std::size_t i = 0; i < count; ++i) {
      const std::size_t idx = shard.alarms_total >= kAlarmFeed
                                  ? (shard.alarm_next + i) % kAlarmFeed
                                  : i;
      alarms.push_back(shard.alarm_ring[idx]);
    }

    add_row(out, row);
    out.shards.push_back(std::move(row));
  }
  st.last_build_ns = now_ns;

  out.hints = rebalance_hints(out.shards, robots);

  // Hot-robot ranking: EWMA rate, then EWMA latency, then lifetime steps;
  // robot id as the deterministic final tiebreak.
  std::sort(robots.begin(), robots.end(),
            [](const RobotStat& a, const RobotStat& b) {
              if (a.ewma_steps_per_s != b.ewma_steps_per_s) {
                return a.ewma_steps_per_s > b.ewma_steps_per_s;
              }
              if (a.ewma_step_latency_ns != b.ewma_step_latency_ns) {
                return a.ewma_step_latency_ns > b.ewma_step_latency_ns;
              }
              if (a.steps != b.steps) return a.steps > b.steps;
              return a.robot < b.robot;
            });
  if (robots.size() > kTopRobots) robots.resize(kTopRobots);
  out.hot_robots = std::move(robots);

  std::sort(alarms.begin(), alarms.end(),
            [](const FleetAlarm& a, const FleetAlarm& b) {
              if (a.unix_time != b.unix_time) return a.unix_time < b.unix_time;
              return a.robot < b.robot;
            });
  if (alarms.size() > kAlarmFeed) {
    alarms.erase(alarms.begin(),
                 alarms.end() - static_cast<std::ptrdiff_t>(kAlarmFeed));
  }
  out.alarms = std::move(alarms);
  return out;
}

void FleetService::maybe_publish() {
  const FleetIntrospectConfig& ic = config_.introspect;
  if (ic.status_path.empty()) return;
  if (ic.status_interval_s > 0.0 && introspect_state_.last_build_ns != 0) {
    const double elapsed =
        static_cast<double>(steady_now_ns() -
                            introspect_state_.last_build_ns) *
        1e-9;
    if (elapsed < ic.status_interval_s) return;
  }
  obs::json::publish(ic.status_path, build_introspection(), kFleetStatusFile);
}

FleetStatusSnapshot FleetService::introspection() {
  ROBOADS_CHECK(!running_,
                "introspection requires a stopped pump (the running pump "
                "builds its own snapshots between passes)");
  return build_introspection();
}

void FleetService::publish_status_now() {
  ROBOADS_CHECK(!running_, "publish_status_now requires a stopped pump");
  if (config_.introspect.status_path.empty()) return;
  obs::json::publish(config_.introspect.status_path, build_introspection(),
                     kFleetStatusFile);
}

DetectorSession& FleetService::session_ref(std::uint64_t robot) const {
  ROBOADS_CHECK(robot < routing_.size(), "unknown fleet robot id");
  return *robot_scratch_[robot].session;
}

const SessionCounters& FleetService::session_counters(
    std::uint64_t robot) const {
  return session_ref(robot).counters();
}

std::uint64_t FleetService::session_next_iteration(
    std::uint64_t robot) const {
  return session_ref(robot).next_iteration();
}

}  // namespace roboads::fleet
