// Seeded rearrangements of a robot's packet stream for the fleet's
// metamorphic tests (tests/fleet_session_test.cc, tests/fleet_service_test.cc):
// each one must leave the robot's reports unchanged.
#pragma once

#include <algorithm>
#include <random>
#include <utility>
#include <vector>

#include "fleet/packet.h"

namespace roboads::fleet {

// A random arrival order within `window`: sorting by k + window·U[0, 1)
// puts every packet of iteration k after all packets of iterations
// <= k - window (a tie keeps the in-order position, which agrees).
inline std::vector<FleetPacket> window_shuffle(
    const std::vector<FleetPacket>& in, std::size_t window,
    std::mt19937_64& rng) {
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  std::vector<std::pair<double, std::size_t>> keys;
  for (std::size_t i = 0; i < in.size(); ++i) {
    keys.emplace_back(static_cast<double>(in[i].packet.iteration) +
                          static_cast<double>(window) * unit(rng),
                      i);
  }
  std::stable_sort(keys.begin(), keys.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  std::vector<FleetPacket> out;
  for (const auto& [key, i] : keys) out.push_back(in[i]);
  return out;
}

// `in` with `copies` exact duplicates, each of a random packet and at a
// random position after it: original i keeps key i, a copy of i gets a key
// in (i, size).
inline std::vector<FleetPacket> with_later_copies(
    const std::vector<FleetPacket>& in, std::size_t copies,
    std::mt19937_64& rng) {
  std::vector<std::pair<double, std::size_t>> keys;
  for (std::size_t i = 0; i < in.size(); ++i) keys.emplace_back(i, i);
  std::uniform_int_distribution<std::size_t> pick(0, in.size() - 2);
  for (std::size_t c = 0; c < copies; ++c) {
    const std::size_t i = pick(rng);
    std::uniform_int_distribution<std::size_t> after(i, in.size() - 1);
    keys.emplace_back(static_cast<double>(after(rng)) + 0.5, i);
  }
  std::stable_sort(keys.begin(), keys.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  std::vector<FleetPacket> out;
  for (const auto& [key, i] : keys) out.push_back(in[i]);
  return out;
}

}  // namespace roboads::fleet
