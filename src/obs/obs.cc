#include "obs/obs.h"

#include <fstream>
#include <sstream>

#include "common/check.h"
#include "obs/report.h"

namespace roboads::obs {
namespace {

template <typename WriteFn>
void write_file(const std::string& path, const char* what, WriteFn&& write) {
  std::ofstream file(path);
  ROBOADS_CHECK(file.good(),
                std::string("cannot open ") + what + " file '" + path + "'");
  write(file);
  file.flush();
  ROBOADS_CHECK(!file.fail(),
                std::string("error writing ") + what + " file '" + path + "'");
}

}  // namespace

Observability::Observability(ObsConfig config) : config_(std::move(config)) {
  if (config_.metrics) metrics_ = std::make_unique<MetricsRegistry>();
  if (config_.trace) trace_ = std::make_unique<TraceSink>();
  if (config_.record) {
    FlightRecorderConfig recorder_config;
    recorder_config.enabled = true;
    recorder_config.window = config_.record_window;
    recorder_ = std::make_unique<FlightRecorder>(recorder_config);
  }
}

Instruments Observability::instruments() {
  return Instruments{metrics_.get(), trace_.get(), recorder_.get()};
}

MetricsRegistry& Observability::metrics() {
  ROBOADS_CHECK(metrics_ != nullptr, "metrics collection is disabled");
  return *metrics_;
}

TraceSink& Observability::trace() {
  ROBOADS_CHECK(trace_ != nullptr, "trace collection is disabled");
  return *trace_;
}

FlightRecorder& Observability::recorder() {
  ROBOADS_CHECK(recorder_ != nullptr, "flight recorder is disabled");
  return *recorder_;
}

void Observability::finish() {
  if (finished_) return;
  finished_ = true;
  if (trace_ != nullptr && !config_.trace_jsonl_path.empty()) {
    write_file(config_.trace_jsonl_path, "trace JSONL",
               [&](std::ostream& os) { trace_->write_jsonl(os); });
  }
  if (trace_ != nullptr && !config_.trace_csv_path.empty()) {
    write_file(config_.trace_csv_path, "trace CSV",
               [&](std::ostream& os) { trace_->write_csv(os); });
  }
  if (metrics_ != nullptr && !config_.metrics_jsonl_path.empty()) {
    write_file(config_.metrics_jsonl_path, "metrics JSONL",
               [&](std::ostream& os) { metrics_->write_jsonl(os); });
  }
  if (recorder_ != nullptr && !config_.record_out.empty()) {
    bundle_paths_ =
        write_bundle_files(config_.record_out, recorder_->bundles());
  }
}

std::string Observability::report() const {
  std::ostringstream os;
  if (metrics_ != nullptr) {
    os << render_report(*metrics_);
  } else {
    os << "== roboads_report: metrics collection disabled ==\n";
  }
  if (trace_ != nullptr) {
    os << "trace: " << trace_->size() << " events buffered\n";
  }
  if (recorder_ != nullptr) {
    os << "recorder: " << recorder_->size() << "/"
       << recorder_->config().window << " records held, "
       << recorder_->bundles().size() << " bundle(s) captured";
    if (recorder_->bundles_dropped() > 0) {
      os << " (" << recorder_->bundles_dropped() << " dropped)";
    }
    os << "\n";
  }
  return os.str();
}

}  // namespace roboads::obs
