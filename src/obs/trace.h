// Structured per-iteration trace sink (docs/OBSERVABILITY.md).
//
// Instrumented components emit typed events — one "iteration" event per
// detector step (per-mode normalized likelihoods, innovation norms, χ²
// statistics, selected mode, sensor availability mask) plus sparse lifecycle
// events ("health_transition", "containment_floor", "mission_start",
// "mission_end"). The sink buffers events in memory and serializes them as
//
//   * JSONL — every event, one self-describing JSON object per line, for
//     machine consumption (schema pinned by tests/obs_trace_test.cc), and
//   * CSV   — the "iteration" events flattened to a wide numeric table for
//     plotting, with vector-valued fields expanded to indexed columns.
//
// Events are value types with an *ordered* field list, so the emitted key
// order — and therefore the golden JSONL — is deterministic. Emission takes
// a mutex: events originate in the serial sections of the engine/mission
// loop, so the lock is uncontended when missions fly one at a time and
// merely serializes detectors that share a sink across threads (each event
// carries its mission label).
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <mutex>
#include <string>
#include <utility>
#include <variant>
#include <vector>

namespace roboads::obs {

// Flat event payload value. Vectors of numbers cover the per-mode and
// per-sensor series; nested objects are deliberately unsupported.
using TraceValue =
    std::variant<double, std::int64_t, bool, std::string, std::vector<double>>;

struct TraceEvent {
  std::string type;    // "iteration", "health_transition", ...
  std::string label;   // mission label (MissionConfig::obs_label)
  std::size_t k = 0;   // control iteration (0 for run-level events)
  std::vector<std::pair<std::string, TraceValue>> fields;

  TraceEvent() = default;
  TraceEvent(std::string type_, std::size_t k_) : type(std::move(type_)), k(k_) {}
  TraceEvent(std::string type_, std::string label_, std::size_t k_)
      : type(std::move(type_)), label(std::move(label_)), k(k_) {}

  // Out-of-line (trace.cc): keeps the variant move un-inlined, which both
  // trims caller code size and avoids a GCC 12 -Wmaybe-uninitialized false
  // positive on inlined variant storage.
  TraceEvent& add(std::string name, TraceValue value);
};

class TraceSink {
 public:
  // Bumped whenever the emitted event schema changes; serialized into every
  // JSONL header event and checked by the golden-trace test.
  static constexpr int kSchemaVersion = 1;

  void emit(TraceEvent event);

  std::size_t size() const;
  // Snapshot of the buffered events (copy: the sink stays usable).
  std::vector<TraceEvent> events() const;

  // One JSON object per line; first line is a schema header event.
  void write_jsonl(std::ostream& os) const;
  // Flattens "iteration" events (only) into a wide CSV; the column set is
  // derived from the first iteration event.
  void write_csv(std::ostream& os) const;

 private:
  mutable std::mutex mu_;
  std::vector<TraceEvent> events_;
};

// Structural JSONL validation (used by the CI smoke pass and the golden
// test): every non-empty line must be one well-formed JSON object, as
// obs/jsonl.h's bounded parser reads it (nesting deeper than
// json::kMaxNesting is malformed). Returns the number of lines validated;
// throws CheckError with the line number on the first malformed line.
std::size_t validate_jsonl(std::istream& is);

}  // namespace roboads::obs
