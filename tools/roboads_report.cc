// Renders a saved offline observability file as a human-readable table:
// either a metrics JSONL dump (the --metrics-out format written by
// obs::MetricsRegistry::write_jsonl, including the fleet service's
// "fleet.*" registry) or a histogram-snapshot JSONL (the roboads_fleet
// --hist-out format: one obs::NamedHistogram record per line, rendered
// with mean/p50/p99/ci95). The format is sniffed from the first line — so
// a CI artifact or a colleague's run can be read without re-running
// anything.
//
//   roboads_report <metrics.jsonl | histograms.jsonl>
//
// Exit status: 0 on success; 2 when the file is missing, empty, truncated
// mid-write, or not a recognized JSONL — each with a message naming the
// file and what is wrong with it, because a silent empty report in CI
// reads as "all green" when the run actually never produced metrics.
#include <cstdio>
#include <string>

#include "obs/report.h"

int main(int argc, char** argv) {
  if (argc != 2 || argv[1][0] == '\0' ||
      std::string(argv[1]) == "--help") {
    std::fprintf(stderr,
                 "usage: roboads_report <metrics.jsonl | histograms.jsonl>\n");
    return 2;
  }
  try {
    std::fputs(roboads::obs::render_report_file(argv[1]).c_str(), stdout);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "roboads_report: %s\n", e.what());
    return 2;
  }
}
