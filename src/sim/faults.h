// Transport fault injection (bus layer).
//
// The paper assumes every reading arrives on the bus each control iteration;
// real CAN-class buses drop, delay, and duplicate frames. This model sits
// between the sensing workflows and every consumer of the stacked reading
// vector (planner and detector) and applies *benign* transport faults:
//
//   * drop      — the sensor's packet for iteration k never arrives. The
//                 sensor is reported unavailable; its block of the delivered
//                 vector holds the last value that did arrive (consumers
//                 honoring the availability mask never trust it).
//   * stale     — the packet is delayed past its deadline, so the freshest
//                 frame on the bus is the *previous* iteration's reading.
//                 The sensor counts as available: the consumer cannot tell a
//                 late frame from a fresh one, which is exactly the benign
//                 misbehavior a robust detector must tolerate.
//   * duplicate — the previous frame is re-delivered after the current one;
//                 a latest-arrival consumer then reads the old payload.
//                 Observationally equal to `stale` but drawn from its own
//                 probability so the two fault classes can be swept
//                 independently.
//   * freeze    — from `freeze_at` for `freeze_duration` iterations the
//                 transport re-delivers the last pre-freeze frame (a stuck
//                 bus buffer). Packets keep arriving, so the sensor counts
//                 as available while its content is frozen.
//
// Faults compose with the adversarial `attacks::` scenarios: injectors
// corrupt readings inside the workflows, transport faults act afterwards on
// whatever the workflow emitted, so attacked and faulted traffic can be
// studied jointly (bench/fault_tolerance.cc).
//
// Determinism: each sensor draws from its own Rng stream split off
// `TransportFaultConfig::seed`, so one sensor's fault pattern never perturbs
// another's, and a sweep over drop rates replays identical missions
// otherwise.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "random/rng.h"
#include "sensors/sensor_model.h"

namespace roboads::sim {

// Fault rates for one sensor's transport channel.
struct SensorFaultSpec {
  std::string sensor;            // suite sensor name
  double drop_rate = 0.0;        // P(frame lost) per iteration
  double stale_rate = 0.0;       // P(frame delayed one period)
  double duplicate_rate = 0.0;   // P(previous frame re-delivered last)
  std::size_t freeze_at = 0;     // first frozen iteration; 0 = never
  std::size_t freeze_duration = 0;

  bool any_fault() const {
    return drop_rate > 0.0 || stale_rate > 0.0 || duplicate_rate > 0.0 ||
           freeze_duration > 0;
  }
};

struct TransportFaultConfig {
  std::vector<SensorFaultSpec> sensors;
  std::uint64_t seed = 0x5EED5EEDu;

  // True when any configured spec can actually fire. An inactive config
  // costs nothing: the mission runner bypasses the model entirely, keeping
  // the no-fault path bit-identical to the pre-fault-layer code.
  bool active() const;

  // Convenience: a config with a single faulted sensor.
  static TransportFaultConfig single(SensorFaultSpec spec,
                                     std::uint64_t seed = 0x5EED5EEDu);
};

// What the bus delivered for one iteration.
struct BusDelivery {
  Vector z;                      // delivered stacked readings (suite layout)
  sensors::SensorMask available;  // per suite sensor: a frame arrived
  // Event counters for this delivery (forensics / bench reporting).
  std::size_t dropped = 0;
  std::size_t stale = 0;
  std::size_t duplicated = 0;
  std::size_t frozen = 0;
};

class TransportFaultModel {
 public:
  // `suite` supplies the stacked layout and must outlive the model. Specs
  // naming sensors absent from the suite throw; rates must lie in [0, 1]
  // and sum to at most 1 per sensor (the fates are mutually exclusive).
  TransportFaultModel(const sensors::SensorSuite& suite,
                      TransportFaultConfig config);

  bool active() const { return config_.active(); }

  // Applies the fault model to the true stacked readings for iteration k.
  // Iterations must be fed in order (the model keeps per-sensor history for
  // stale/duplicate/freeze delivery).
  BusDelivery deliver(std::size_t k, const Vector& z_true);

  // Clears the per-sensor history and re-seeds the fault streams, so a
  // fresh mission replays the identical fault pattern.
  void reset();

  // Cumulative event counts since construction/reset.
  std::size_t total_dropped() const { return total_dropped_; }
  std::size_t total_stale() const { return total_stale_; }
  std::size_t total_duplicated() const { return total_duplicated_; }
  std::size_t total_frozen() const { return total_frozen_; }

 private:
  struct Channel {
    SensorFaultSpec spec;     // zero rates when the sensor has no spec
    Vector last_delivered;    // most recent frame the consumer saw
    Vector prev_true;         // previous iteration's pre-fault reading
    Vector frozen_value;      // frame re-delivered during a freeze window
  };

  const sensors::SensorSuite& suite_;
  TransportFaultConfig config_;
  std::vector<Channel> channels_;   // one per suite sensor
  std::vector<Rng> streams_;        // one per suite sensor
  std::size_t total_dropped_ = 0;
  std::size_t total_stale_ = 0;
  std::size_t total_duplicated_ = 0;
  std::size_t total_frozen_ = 0;
};

}  // namespace roboads::sim
