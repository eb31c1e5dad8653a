// End-of-run summary (`roboads_report`): renders a metrics registry as a
// human-readable block — top timers by total time, the mode-selection
// histogram, and fault/quarantine/alarm counters — printable from any
// mission, bench, or sweep (docs/OBSERVABILITY.md).
#pragma once

#include <string>
#include <vector>

#include "obs/metrics.h"

namespace roboads::obs {

// Formats the registry's current state. Stable section order: timers
// (histograms, sorted by total recorded time), mode-selection counters
// (names starting with "engine.mode_selected."), remaining counters,
// gauges. Returns a non-empty string even for an empty registry so callers
// can print unconditionally.
std::string render_report(const MetricsRegistry& registry);

// Same rendering over an already-materialized snapshot — the offline path:
// `roboads_report <metrics.jsonl>` loads a file written by
// MetricsRegistry::write_jsonl and re-renders it.
std::string render_report(const std::vector<MetricSample>& samples);

// Loads a metrics JSONL file back into samples. Loud on anything that
// would otherwise render as a silently empty report: throws CheckError if
// the file is missing, empty, truncated mid-line (no final newline), or
// holds an unparseable/alien line (diagnostics carry the line number).
std::vector<MetricSample> load_metrics_jsonl(const std::string& path);

// A labelled exact histogram snapshot — the fleet tools' second offline
// format: one {"name":"...","histogram":{...}} object per line (written
// with json::write), where the embedded object is the HistogramSnapshot
// codec's (so merged fleet distributions round-trip bit-exactly through
// the file).
struct NamedHistogram {
  std::string name;
  HistogramSnapshot histogram;
};

template <class IO>
void codec(IO& io, NamedHistogram& h) {
  io("name", h.name);
  io("histogram", h.histogram);
}

// Loads a histogram-snapshot JSONL file: named lines as above, or bare
// HistogramSnapshot objects (named "histogram[N]" by position). Same
// loud-failure contract as load_metrics_jsonl.
std::vector<NamedHistogram> load_histograms_jsonl(const std::string& path);

// Renders histogram snapshots as a table (n, mean, p50, p99, max, ±ci95);
// names ending in "_ns" format as human durations.
std::string render_histograms(const std::vector<NamedHistogram>& histograms);

// The `roboads_report <file>` entry: sniffs the first line to decide
// between a metrics registry dump ("metric" key) and histogram-snapshot
// JSONL ("histogram"/"bounds" key), then renders accordingly. Loud on
// missing/empty/truncated files either way.
std::string render_report_file(const std::string& path);

// "17.40us"-style human duration for a nanosecond quantity; shared by the
// report and the live `roboads_shard watch` status renderer.
std::string format_duration_ns(double ns);

}  // namespace roboads::obs
