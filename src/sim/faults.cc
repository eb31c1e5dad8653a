#include "sim/faults.h"

namespace roboads::sim {

bool TransportFaultConfig::active() const {
  for (const SensorFaultSpec& s : sensors) {
    if (s.any_fault()) return true;
  }
  return false;
}

TransportFaultConfig TransportFaultConfig::single(SensorFaultSpec spec,
                                                  std::uint64_t seed) {
  TransportFaultConfig config;
  config.sensors.push_back(std::move(spec));
  config.seed = seed;
  return config;
}

TransportFaultModel::TransportFaultModel(const sensors::SensorSuite& suite,
                                         TransportFaultConfig config)
    : suite_(suite), config_(std::move(config)) {
  channels_.resize(suite_.count());
  for (const SensorFaultSpec& spec : config_.sensors) {
    const std::size_t i = suite_.index_of(spec.sensor);  // throws if absent
    ROBOADS_CHECK(spec.drop_rate >= 0.0 && spec.stale_rate >= 0.0 &&
                      spec.duplicate_rate >= 0.0,
                  "fault rates must be non-negative");
    ROBOADS_CHECK(
        spec.drop_rate + spec.stale_rate + spec.duplicate_rate <= 1.0,
        "per-sensor fault rates must sum to at most 1");
    ROBOADS_CHECK(spec.freeze_duration == 0 || spec.freeze_at > 0,
                  "freeze window needs freeze_at >= 1");
    channels_[i].spec = spec;
  }
  reset();
}

void TransportFaultModel::reset() {
  // One independent stream per suite sensor, split deterministically off the
  // master seed in suite order — sensor i's draws never depend on what other
  // sensors' specs consume.
  Rng master(config_.seed);
  streams_.clear();
  streams_.reserve(suite_.count());
  for (std::size_t i = 0; i < suite_.count(); ++i) {
    streams_.emplace_back(master.split());
  }
  for (Channel& ch : channels_) {
    ch.last_delivered = Vector();
    ch.prev_true = Vector();
    ch.frozen_value = Vector();
  }
  total_dropped_ = total_stale_ = total_duplicated_ = total_frozen_ = 0;
}

BusDelivery TransportFaultModel::deliver(std::size_t k, const Vector& z_true) {
  ROBOADS_CHECK_EQ(z_true.size(), suite_.total_dim(),
                   "stacked reading size mismatch");
  BusDelivery out;
  out.z = z_true;

  for (std::size_t i = 0; i < suite_.count(); ++i) {
    Channel& ch = channels_[i];
    const std::size_t off = suite_.offset(i);
    const std::size_t dim = suite_.sensor(i).dim();
    const Vector current = z_true.segment(off, dim);

    Vector delivered = current;
    bool arrived = true;

    if (ch.spec.any_fault()) {
      const bool in_freeze =
          ch.spec.freeze_duration > 0 && k >= ch.spec.freeze_at &&
          k < ch.spec.freeze_at + ch.spec.freeze_duration;
      if (in_freeze) {
        // Stuck transport buffer: re-deliver the last pre-freeze frame.
        if (ch.frozen_value.empty()) {
          ch.frozen_value =
              ch.last_delivered.empty() ? current : ch.last_delivered;
        }
        delivered = ch.frozen_value;
        ++out.frozen;
        ++total_frozen_;
      } else {
        // Every iteration consumes exactly one uniform draw per faulted
        // sensor, so the fault pattern at iteration k is independent of
        // which fates fired before it.
        const double u = streams_[i].uniform();
        if (u < ch.spec.drop_rate) {
          // Lost frame: nothing fresh arrives. Hold the last delivered
          // value as the placeholder payload (first-iteration drops fall
          // back to the current reading — there is nothing else to hold).
          arrived = false;
          delivered = ch.last_delivered.empty() ? current : ch.last_delivered;
          ++out.dropped;
          ++total_dropped_;
        } else if (u < ch.spec.drop_rate + ch.spec.stale_rate) {
          // Late frame: the freshest payload on the bus is last iteration's.
          delivered = ch.prev_true.empty() ? current : ch.prev_true;
          ++out.stale;
          ++total_stale_;
        } else if (u < ch.spec.drop_rate + ch.spec.stale_rate +
                           ch.spec.duplicate_rate) {
          // Re-delivered previous frame lands after the current one; a
          // latest-arrival consumer reads the old payload.
          delivered = ch.prev_true.empty() ? current : ch.prev_true;
          ++out.duplicated;
          ++total_duplicated_;
        }
      }
    }

    out.z.set_segment(off, delivered);
    if (!arrived) out.available.set_missing(i);
    if (arrived) ch.last_delivered = delivered;
    ch.prev_true = current;
  }
  return out;
}

}  // namespace roboads::sim
