#include "fleet/session.h"

#include <algorithm>
#include <deque>

#include "common/check.h"

namespace roboads::fleet {

namespace {

// The spec's bank, checked before the detector is built on it.
std::shared_ptr<const core::EstimatorBank> checked_bank(
    const SessionSpec& spec) {
  ROBOADS_CHECK(spec.bank != nullptr,
                "session spec has no estimator bank (build it with "
                "make_session_spec)");
  ROBOADS_CHECK(&spec.bank->suite() == spec.suite,
                "session spec's bank was built for another sensor suite");
  return spec.bank;
}

// The reports sessions step into: one per thread and nesting depth, so a
// fleet of thousands of sessions on a few threads holds a few reports, and
// a steady stream writes into one whose containers already have their
// capacity. A sink that steps another session on the same thread takes the
// next depth's report, leaving the one it was handed intact.
thread_local std::deque<core::DetectionReport> t_reports;
thread_local std::size_t t_depth = 0;

// This thread's report at the current depth, held for one step and its
// sink call.
class ThreadReport {
 public:
  ThreadReport() : depth_(t_depth) {
    if (depth_ == t_reports.size()) t_reports.emplace_back();
    ++t_depth;
  }
  ~ThreadReport() { --t_depth; }
  ThreadReport(const ThreadReport&) = delete;
  ThreadReport& operator=(const ThreadReport&) = delete;

  core::DetectionReport& get() const { return t_reports[depth_]; }

 private:
  std::size_t depth_;
};

}  // namespace

DetectorSession::DetectorSession(std::shared_ptr<const SessionSpec> spec,
                                 SessionConfig config)
    : detector_(checked_bank(*spec), spec->x0, spec->p0, spec->config) {
  ROBOADS_CHECK(config.reorder_window >= 1,
                "session reorder window must be at least 1");
  frames_.resize(config.reorder_window);
  input_dim_ = spec->model->input_dim();
  stride_ = input_dim_ + suite().total_dim();
  values_.assign((frames_.size() + 1) * stride_, 0.0);
  for (std::size_t i = 0; i < suite().count(); ++i) {
    none_arrived_.set_missing(i);
  }
}

DetectorSession::PendingFrame& DetectorSession::frame_at(std::uint64_t k) {
  const std::size_t s = slot(k);
  PendingFrame& f = frames_[s];
  if (!f.active) {
    f.active = true;
    f.has_u = false;
    // Unfilled blocks hold the last delivered reading — the same "frozen
    // value on the consumer side" a sim/faults.h drop leaves behind. The
    // content of a masked block is never read by the degraded-mode
    // estimator, so this is cosmetic consistency, not a correctness need.
    std::copy_n(values(frames_.size()) + input_dim_, stride_ - input_dim_,
                values(s) + input_dim_);
    f.missing = none_arrived_;
    f.max_ingest_ns = 0;
    if (span_sink_ != nullptr) spans_[s].reset();
    ++pending_count_;
  }
  return f;
}

void DetectorSession::ingest(const FleetPacket& packet) {
  const bus::Packet& p = packet.packet;
  const std::uint64_t k = p.iteration;
  if (k < base_k_ || base_k_ == 0) {
    // Iteration already stepped: the detector state has moved past it, and
    // rewriting history would break the mission-equivalence guarantee.
    // base_k_ wraps to 0 only after stepping iteration 2^64 - 1, past
    // which every iteration is history.
    ++counters_.late_packets;
    return;
  }

  // A packet from a source the suite does not know, or with a payload of
  // the wrong size, is dropped and counted before it can touch the window:
  // it neither evicts, resyncs nor opens a frame.
  const sensors::SensorSuite& suite = this->suite();
  const bool command = p.kind == bus::PacketKind::kControlCommand;
  const std::optional<std::size_t> sensor =
      command ? std::nullopt : suite.find(p.source);
  const bool known =
      command ? p.payload.size() == input_dim_
              : sensor && p.payload.size() == suite.sensor(*sensor).dim();
  if (!known) {
    ++counters_.unknown_source;
    return;
  }

  // A packet too far ahead force-evicts the oldest incomplete frames so
  // the reorder buffer stays bounded: those iterations step now with
  // whatever arrived (availability-masked), trading completeness for
  // bounded memory and latency — never dropping the *new* data. Distances
  // are taken as k - base_k_ (k >= base_k_ here), never as base_k_ +
  // window, so iterations near 2^64 cannot wrap.
  const std::uint64_t window = frames_.size();
  if (k - base_k_ >= window) {
    const std::uint64_t catch_up = k - base_k_ - (window - 1);
    if (catch_up <= kMaxCatchUpFrames) {
      for (std::uint64_t i = 0; i < catch_up; ++i) {
        ++counters_.forced_evictions;
        step_frame(base_k_, /*forced=*/true);
      }
    } else {
      // Resync: step what the window holds, then jump so k is the newest
      // frame of the window. The iterations in between are never stepped;
      // their packets count as late.
      while (pending_count_ > 0) {
        ++counters_.forced_evictions;
        step_frame(base_k_, /*forced=*/true);
      }
      ++counters_.resyncs;
      base_k_ = k - (window - 1);
    }
  }

  PendingFrame& f = frame_at(k);
  const std::size_t s = slot(k);
  if (command) {
    if (f.has_u) ++counters_.duplicate_packets;  // latest wins
    std::copy_n(p.payload.data(), input_dim_, values(s));
    f.has_u = true;
  } else {
    if (f.missing.available(*sensor)) {
      ++counters_.duplicate_packets;  // latest wins
    }
    std::copy_n(p.payload.data(), p.payload.size(),
                values(s) + input_dim_ + suite.offset(*sensor));
    f.missing.set_available(*sensor);
  }
  if (!p.payload.all_finite()) ++counters_.nonfinite_packets;
  f.max_ingest_ns = std::max(f.max_ingest_ns, packet.ingest_ns);
  if (span_sink_ != nullptr) {
    spans_[s].note_packet(packet.ingest_ns, packet.dequeue_ns);
  }
  cascade();
}

void DetectorSession::cascade() {
  for (;;) {
    const std::size_t s = slot(base_k_);
    const PendingFrame& f = frames_[s];
    if (!f.active || !f.has_u || !f.missing.complete()) return;
    step_frame(base_k_);
  }
}

void DetectorSession::step_frame(std::uint64_t k, bool forced) {
  ROBOADS_CHECK_EQ(k, base_k_, "frames step strictly in order");
  const std::size_t s = slot(k);
  PendingFrame& f = frames_[s];

  const bool dark = !f.active;  // nothing at all arrived for k
  const bool traced = span_sink_ != nullptr;
  // Spans are copied out before the slot recycles; a dark frame never
  // activated its slot, so its span is all zero stamps by definition.
  obs::SpanStamps span;
  if (traced && !dark) span = spans_[s];
  const bool has_u = f.active && f.has_u;
  if (!has_u) ++counters_.command_substituted;
  // The step's inputs: the frame's command and readings, or the last
  // delivered ones where the frame has none.
  double* last = values(frames_.size());
  const double* frame = values(s);
  const std::size_t total_dim = stride_ - input_dim_;
  Vector u = Vector::for_overwrite(input_dim_);
  std::copy_n(has_u ? frame : last, input_dim_, u.data());
  Vector z = Vector::for_overwrite(total_dim);
  std::copy_n((dark ? last : frame) + input_dim_, total_dim, z.data());

  // The frame steps under the sensors that arrived: the complete mask, as
  // in the single mission, when all did.
  const core::SensorMask mask = dark ? none_arrived_ : f.missing;
  const bool all_arrived = !dark && mask.complete();
  if (!all_arrived) ++counters_.masked_steps;

  const ThreadReport held;
  core::DetectionReport& report = held.get();
  if (traced) span.step_start_ns = steady_now_ns();
  detector_.step_into(u, z, mask, report);
  if (traced) span.step_end_ns = steady_now_ns();
  ++counters_.steps;
  if (report.decision.sensor_alarm) ++counters_.sensor_alarms;
  if (report.decision.actuator_alarm) ++counters_.actuator_alarms;

  std::copy_n(u.data(), input_dim_, last);
  if (all_arrived) {
    std::copy_n(z.data(), total_dim, last + input_dim_);
  } else if (!dark) {
    const sensors::SensorSuite& suite = this->suite();
    for (std::size_t i = 0; i < suite.count(); ++i) {
      if (mask.available(i)) {
        const std::size_t at = input_dim_ + suite.offset(i);
        std::copy_n(frame + at, suite.sensor(i).dim(), last + at);
      }
    }
  }

  const std::uint64_t frame_ingest = dark ? 0 : f.max_ingest_ns;
  if (f.active) {
    f.active = false;
    --pending_count_;
  }
  ++base_k_;
  if (sink_) sink_(report, frame_ingest);
  if (traced) {
    span.publish_ns = steady_now_ns();
    obs::SpanOutcome outcome;
    outcome.sensor_alarm = report.decision.sensor_alarm;
    outcome.actuator_alarm = report.decision.actuator_alarm;
    outcome.masked = !all_arrived;
    outcome.forced = forced;
    span_sink_->emit(obs::make_span_event(span_robot_, k, span, outcome));
  }
}

std::size_t DetectorSession::flush() {
  std::size_t stepped = 0;
  while (pending_count_ > 0) {
    step_frame(base_k_);
    ++stepped;
  }
  return stepped;
}

SessionSnapshot DetectorSession::save() const {
  ROBOADS_CHECK(pending_count_ == 0,
                "session save requires an idle session (flush first)");
  SessionSnapshot snap;
  detector_.save_state(snap.detector);
  snap.counters = counters_;
  snap.next_iteration = base_k_;
  const double* last = values(frames_.size());
  snap.last_u.assign(last, last + input_dim_);
  snap.last_z.assign(last + input_dim_, last + stride_);
  return snap;
}

void DetectorSession::restore(const SessionSnapshot& snapshot) {
  ROBOADS_CHECK_EQ(snapshot.last_u.size(), input_dim_,
                   "session snapshot input dimension mismatch");
  ROBOADS_CHECK_EQ(snapshot.last_z.size(), stride_ - input_dim_,
                   "session snapshot reading dimension mismatch");
  detector_.restore_state(snapshot.detector);
  counters_ = snapshot.counters;
  base_k_ = snapshot.next_iteration;
  double* last = values(frames_.size());
  std::copy(snapshot.last_u.begin(), snapshot.last_u.end(), last);
  std::copy(snapshot.last_z.begin(), snapshot.last_z.end(),
            last + input_dim_);
  for (PendingFrame& f : frames_) f.active = false;
  pending_count_ = 0;
}

}  // namespace roboads::fleet
