// Mission ↔ fleet bridging: turn a recorded single-robot mission into the
// equivalent packet stream, and compare detection reports bit-exactly.
//
// This is the fleet layer's correctness oracle (docs/FLEET.md "Bit-identity
// guarantee"): eval::run_mission steps the detector with complete
// (u_{k-1}, z_k, mask) triples; mission_packets() re-expresses exactly those
// triples as one command packet plus one packet per *delivered* sensor per
// iteration. A DetectorSession fed this stream must reproduce every
// recorded DetectionReport byte for byte — pinned by
// tests/fleet_session_test.cc / tests/fleet_service_test.cc and asserted
// live by `roboads_fleet --parity` (./ci.sh fleet-smoke).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "eval/mission.h"
#include "eval/platform.h"
#include "fleet/session.h"

namespace roboads::fleet {

// Session spec for one robot flying `platform`'s detector stack, with its
// estimator bank built once for every session the spec serves. The
// returned spec points into `platform`, which must outlive it.
std::shared_ptr<SessionSpec> make_session_spec(const eval::Platform& platform);

// Appends the packets equivalent to iteration record `rec`, addressed to
// `robot`: the planned command, then the reading block of each sensor the
// record's availability mask does not mark missing. Packet order within
// the iteration is command-first, suite order — but the session's
// reassembly is order-independent, which the out-of-order tests exploit.
void append_iteration_packets(std::vector<FleetPacket>& out,
                              std::uint64_t robot,
                              const sensors::SensorSuite& suite,
                              const eval::IterationRecord& rec);

// The full mission as a packet stream, iterations in order.
std::vector<FleetPacket> mission_packets(std::uint64_t robot,
                                         const sensors::SensorSuite& suite,
                                         const eval::MissionResult& mission);

// Empty string when the two reports are bit-identical in every
// externally meaningful output (iteration, selected mode, weights, state
// estimate/covariance, full decision incl. attribution, health/quarantine,
// availability, anomaly estimates); otherwise a one-line description of
// the first difference found.
std::string compare_reports(const core::DetectionReport& a,
                            const core::DetectionReport& b);

}  // namespace roboads::fleet
