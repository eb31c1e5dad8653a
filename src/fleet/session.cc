#include "fleet/session.h"

#include <algorithm>

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

}  // namespace

DetectorSession::DetectorSession(std::shared_ptr<const SessionSpec> spec,
                                 SessionConfig config)
    : detector_(checked_bank(*spec), spec->x0, spec->p0, spec->config) {
  ROBOADS_CHECK(config.reorder_window >= 1,
                "session reorder window must be at least 1");
  const std::size_t total_dim = suite().total_dim();
  frames_.resize(config.reorder_window);
  for (PendingFrame& f : frames_) {
    f.z = Vector(total_dim);
    f.have.assign(suite().count(), false);
  }
  last_u_ = Vector(spec->model->input_dim());
  last_z_ = Vector(total_dim);
}

DetectorSession::PendingFrame& DetectorSession::frame_at(std::uint64_t k) {
  PendingFrame& f = frames_[k % frames_.size()];
  if (!f.active) {
    f.active = true;
    f.has_u = false;
    // Unfilled blocks hold the last delivered reading — the same "frozen
    // value on the consumer side" a sim/faults.h drop leaves behind. The
    // content of a masked block is never read by the degraded-mode
    // estimator, so this is cosmetic consistency, not a correctness need.
    f.z = last_z_;
    std::fill(f.have.begin(), f.have.end(), false);
    f.max_ingest_ns = 0;
    if (span_sink_ != nullptr) f.span.reset();
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
  if (p.kind == bus::PacketKind::kControlCommand) {
    if (p.payload.size() != last_u_.size()) {
      ++counters_.unknown_source;
      return;
    }
    if (f.has_u) ++counters_.duplicate_packets;  // latest wins
    f.u = p.payload;
    f.has_u = true;
  } else {
    const sensors::SensorSuite& suite = this->suite();
    const std::optional<std::size_t> i = suite.find(p.source);
    if (!i || p.payload.size() != suite.sensor(*i).dim()) {
      ++counters_.unknown_source;
      return;
    }
    if (f.have[*i]) ++counters_.duplicate_packets;  // latest wins
    f.z.set_segment(suite.offset(*i), p.payload);
    f.have[*i] = true;
  }
  f.max_ingest_ns = std::max(f.max_ingest_ns, packet.ingest_ns);
  if (span_sink_ != nullptr) {
    f.span.note_packet(packet.ingest_ns, packet.dequeue_ns);
  }
  cascade();
}

void DetectorSession::cascade() {
  for (;;) {
    const PendingFrame& f = frames_[base_k_ % frames_.size()];
    if (!f.active || !f.has_u) return;
    if (std::find(f.have.begin(), f.have.end(), false) != f.have.end()) {
      return;
    }
    step_frame(base_k_);
  }
}

void DetectorSession::step_frame(std::uint64_t k, bool forced) {
  ROBOADS_CHECK_EQ(k, base_k_, "frames step strictly in order");
  PendingFrame& f = frames_[k % frames_.size()];

  const bool dark = !f.active;  // nothing at all arrived for k
  const bool traced = span_sink_ != nullptr;
  // Spans are copied out before the slot recycles; a dark frame never
  // activated its slot, so its span is all zero stamps by definition.
  obs::SpanStamps span;
  if (traced && !dark) span = f.span;
  const bool has_u = f.active && f.has_u;
  if (!has_u) ++counters_.command_substituted;
  const Vector& u = has_u ? f.u : last_u_;
  const Vector& z = dark ? last_z_ : f.z;

  // All sensors delivered → empty mask, the exact single-mission
  // all-available path (bit-identity); anything less → the PR 2 degraded
  // path with the arrival flags as the availability mask.
  core::SensorMask mask;
  const bool complete =
      !dark && std::find(f.have.begin(), f.have.end(), false) == f.have.end();
  if (!complete) {
    mask = dark ? core::SensorMask(f.have.size(), false) : f.have;
    ++counters_.masked_steps;
  }

  if (traced) span.step_start_ns = steady_now_ns();
  const core::DetectionReport report = detector_.step(u, z, mask);
  if (traced) span.step_end_ns = steady_now_ns();
  ++counters_.steps;
  if (report.decision.sensor_alarm) ++counters_.sensor_alarms;
  if (report.decision.actuator_alarm) ++counters_.actuator_alarms;

  last_u_ = u;
  if (complete) {
    last_z_ = f.z;
  } else if (!dark) {
    const sensors::SensorSuite& suite = this->suite();
    for (std::size_t i = 0; i < f.have.size(); ++i) {
      if (f.have[i]) {
        const std::size_t at = suite.offset(i);
        last_z_.set_segment(at, f.z.segment(at, suite.sensor(i).dim()));
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
    outcome.masked = !complete;
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
  snap.last_u.assign(last_u_.data(), last_u_.data() + last_u_.size());
  snap.last_z.assign(last_z_.data(), last_z_.data() + last_z_.size());
  return snap;
}

void DetectorSession::restore(const SessionSnapshot& snapshot) {
  ROBOADS_CHECK_EQ(snapshot.last_u.size(), last_u_.size(),
                   "session snapshot input dimension mismatch");
  ROBOADS_CHECK_EQ(snapshot.last_z.size(), last_z_.size(),
                   "session snapshot reading dimension mismatch");
  detector_.restore_state(snapshot.detector);
  counters_ = snapshot.counters;
  base_k_ = snapshot.next_iteration;
  last_u_ = Vector(snapshot.last_u);
  last_z_ = Vector(snapshot.last_z);
  for (PendingFrame& f : frames_) f.active = false;
  pending_count_ = 0;
}

}  // namespace roboads::fleet
