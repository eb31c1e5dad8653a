// Causal packet-to-alarm spans for the fleet introspection plane
// (docs/OBSERVABILITY.md "Fleet introspection").
//
// A span decomposes one detector step's critical path into the stages a
// packet crosses on its way to an alarm:
//
//   ingest → ring → reassembly → step → decision/alarm publication
//
// The hot path only *stamps*: SpanStamps is a fixed-size block of steady-
// clock nanoseconds kept per pending-frame slot of the session, so a
// traced robot pays a handful of clock reads per packet and never
// allocates. One TraceEvent materializes per sampled frame at step time
// (make_span_event), emitted through the same pinned-schema JSONL sink the
// per-iteration trace uses (obs/trace.h) — spans and iteration events share
// one file format, one validator, one schema-version discipline.
//
// Sampling is per *robot* (FleetIntrospectConfig::trace_sample = N traces
// every N-th robot): a traced robot's spans form a complete, causally
// ordered story, which a per-packet coin flip would not.
#pragma once

#include <cstdint>

#include "obs/trace.h"

namespace roboads::obs {

// Bumped whenever the span event's field set changes; emitted in every
// span event so offline consumers can gate on it.
inline constexpr int kSpanSchemaVersion = 1;

// Steady-clock stamps accumulated while a frame assembles. All stamps share
// fleet::steady_now_ns()'s clock, so stage durations are same-clock
// differences. Zero = the stage was never reached (e.g. a dark frame
// force-evicted before any packet arrived).
struct SpanStamps {
  std::uint64_t first_ingest_ns = 0;   // first packet submitted
  std::uint64_t last_ingest_ns = 0;    // last packet submitted
  std::uint64_t first_dequeue_ns = 0;  // first packet popped off the ring
  std::uint64_t last_dequeue_ns = 0;   // last packet popped (frame complete)
  std::uint64_t step_start_ns = 0;     // detector step entered
  std::uint64_t step_end_ns = 0;       // detector step returned
  std::uint64_t publish_ns = 0;        // decision/alarm published to sinks
  std::uint32_t packets = 0;           // packets folded into the frame

  // Folds one packet's ingest/dequeue stamps in (0 stamps are skipped).
  void note_packet(std::uint64_t ingest_ns, std::uint64_t dequeue_ns);

  void reset() { *this = SpanStamps{}; }
};

// Step outcome flags carried on the span event.
struct SpanOutcome {
  bool sensor_alarm = false;
  bool actuator_alarm = false;
  bool masked = false;  // stepped with >= 1 sensor unavailable
  bool forced = false;  // force-evicted from the reorder window
};

// Builds the pinned-schema "span" trace event. Field order is fixed (the
// golden-schema discipline of obs/trace.h): robot, span_version, packets,
// ingest_ns, ring_ns, reassembly_ns, step_wait_ns, step_ns, publish_ns,
// total_ns, masked, forced, sensor_alarm, actuator_alarm. Durations are
// saturating differences of the stage stamps (never negative; 0 when a
// stage was skipped).
TraceEvent make_span_event(std::uint64_t robot, std::uint64_t k,
                           const SpanStamps& stamps,
                           const SpanOutcome& outcome);

}  // namespace roboads::obs
