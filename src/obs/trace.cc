#include "obs/trace.h"

#include <cmath>
#include <istream>
#include <ostream>

#include "common/check.h"
#include "obs/jsonl.h"

namespace roboads::obs {

// --- JSONL lines (obs/jsonl.h record codec). Write-only: an event's field
// names are keys chosen at run time, and its label appears only when set.

template <class IO>
void codec(IO& io, TraceEvent& ev) {
  io("event", ev.type);
  if (!ev.label.empty()) io("label", ev.label);
  io("k", ev.k);
  for (const auto& [name, value] : ev.fields) io(name, value);
}

namespace {

// The first line: the schema and the number of events that follow.
struct TraceHeader {
  std::size_t events = 0;
};

template <class IO>
void codec(IO& io, TraceHeader& h) {
  io.tag("event", "schema");
  io.tag("name", "roboads-detector-trace");
  io.tag("version", TraceSink::kSchemaVersion);
  io("events", h.events);
}

// CSV rendering of one scalar; vectors are expanded by the caller.
void write_csv_scalar(std::ostream& os, const TraceValue& value) {
  if (const auto* d = std::get_if<double>(&value)) {
    if (std::isfinite(*d)) {
      os << *d;
    } else {
      os << (std::isnan(*d) ? "nan" : (*d > 0 ? "inf" : "-inf"));
    }
  } else if (const auto* i = std::get_if<std::int64_t>(&value)) {
    os << *i;
  } else if (const auto* b = std::get_if<bool>(&value)) {
    os << (*b ? 1 : 0);
  } else if (const auto* s = std::get_if<std::string>(&value)) {
    os << *s;  // labels are identifier-like; commas are the caller's bug
  }
}

}  // namespace

TraceEvent& TraceEvent::add(std::string name, TraceValue value) {
  fields.emplace_back(std::move(name), std::move(value));
  return *this;
}

void TraceSink::emit(TraceEvent event) {
  std::lock_guard<std::mutex> lock(mu_);
  events_.push_back(std::move(event));
}

std::size_t TraceSink::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_.size();
}

std::vector<TraceEvent> TraceSink::events() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_;
}

void TraceSink::write_jsonl(std::ostream& os) const {
  const std::vector<TraceEvent> events = this->events();
  json::write_line(os, TraceHeader{events.size()});
  for (const TraceEvent& ev : events) json::write_line(os, ev);
}

void TraceSink::write_csv(std::ostream& os) const {
  const std::vector<TraceEvent> events = this->events();
  const TraceEvent* first = nullptr;
  for (const TraceEvent& ev : events) {
    if (ev.type == "iteration") {
      first = &ev;
      break;
    }
  }
  if (first == nullptr) return;  // nothing tabular to write

  // Header from the first iteration event; vector fields expand by their
  // length there, which is fixed for a given detector configuration.
  os << "k";
  for (const auto& [name, value] : first->fields) {
    if (const auto* vec = std::get_if<std::vector<double>>(&value)) {
      for (std::size_t i = 0; i < vec->size(); ++i) {
        os << ',' << name << '_' << i;
      }
    } else {
      os << ',' << name;
    }
  }
  os << '\n';

  for (const TraceEvent& ev : events) {
    if (ev.type != "iteration") continue;
    ROBOADS_CHECK_EQ(ev.fields.size(), first->fields.size(),
                     "iteration events must share one field layout");
    os << ev.k;
    for (std::size_t f = 0; f < ev.fields.size(); ++f) {
      ROBOADS_CHECK(ev.fields[f].first == first->fields[f].first,
                    "iteration events must share one field layout");
      const TraceValue& value = ev.fields[f].second;
      if (const auto* vec = std::get_if<std::vector<double>>(&value)) {
        for (double v : *vec) {
          os << ',';
          write_csv_scalar(os, v);
        }
      } else {
        os << ',';
        write_csv_scalar(os, value);
      }
    }
    os << '\n';
  }
}

// --- JSONL structural validation. ---

std::size_t validate_jsonl(std::istream& is) {
  std::string line;
  std::size_t n = 0;
  while (std::getline(is, line)) {
    ++n;
    if (line.empty()) continue;
    json::parse_object_line(line, "JSONL line " + std::to_string(n));
  }
  return n;
}

}  // namespace roboads::obs
