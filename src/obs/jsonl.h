// Line-oriented JSON: the one writer/parser pair behind every JSONL schema
// in the library (postmortem bundles, shard manifests, checkpoints, merged
// campaign reports). Each line is a single flat-ish JSON object; values may
// be null / bool / number / string / array / object, nested arbitrarily.
//
// Numbers are emitted with round-trip precision (obs/json.h) and parsed via
// strtod, so doubles survive a write→parse cycle exactly — which is what
// lets two independently produced files be compared byte-for-byte. Non-
// finite doubles serialize as null and read back as NaN in numeric context.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "obs/json.h"

namespace roboads::obs::json {

// One parsed JSON value. `num` doubles as the NaN payload of null so flat
// numeric readers can treat null-in-numeric-context uniformly.
struct Value {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool b = false;
  double num = 0.0;
  std::string str;
  std::vector<Value> items;               // kArray
  std::map<std::string, Value> members;   // kObject
};

// Parses one line holding exactly one JSON object; throws CheckError with
// `context` (e.g. "bundle line 12") prefixed to every diagnostic.
std::map<std::string, Value> parse_object_line(const std::string& line,
                                               const std::string& context);

// Typed field access over a parsed object with loud, context-tagged
// failures — schema drift should be a clear error, not a default-initialized
// record.
class Fields {
 public:
  Fields(std::map<std::string, Value> fields, std::string context)
      : fields_(std::move(fields)), context_(std::move(context)) {}

  bool has(const char* key) const { return fields_.count(key) != 0; }
  const Value& at(const char* key) const;

  // null parses as NaN, mirroring the writer.
  double number(const char* key) const;
  std::int64_t integer(const char* key) const;
  bool boolean(const char* key) const;
  const std::string& string(const char* key) const;
  // Array of numbers/nulls (null → NaN). Throws on non-numeric elements.
  std::vector<double> numbers(const char* key) const;
  std::vector<std::int64_t> integers(const char* key) const;
  std::vector<std::string> strings(const char* key) const;
  // Array of objects, re-wrapped as Fields sharing this object's context.
  std::vector<Fields> objects(const char* key) const;

 private:
  [[noreturn]] void fail(const char* key, const char* want) const;

  std::map<std::string, Value> fields_;
  std::string context_;
};

// --- Emission helpers shared by every JSONL writer (obs/json.h carries the
// escaping and number formatting; these add the structural glue).

// Writes `,"key":` (or `"key":` when first) — callers open the object with
// '{' and close with '}'.
void write_field_key(std::ostream& os, const char* key, bool first = false);

void write_doubles(std::ostream& os, const std::vector<double>& v);
void write_ints(std::ostream& os, const std::vector<std::int64_t>& v);
void write_strings(std::ostream& os, const std::vector<std::string>& v);

// Atomically replaces `path` with `line` plus a newline: writes `path`.tmp,
// checks the stream after the flush, then renames it over `path`, so a
// reader sees the previous line or the new one, never a torn or failed
// write. `what` names the file in errors ("status", "heartbeat"). Throws
// CheckError.
void publish_line(const std::string& path, const std::string& line,
                  const std::string& what);

// --- Torn-tail-tolerant reading of append-only JSONL stream files (shard
// checkpoints, worker telemetry). A process killed mid-append leaves at most
// one damaged line, and by construction it is the last one.

struct TailTolerantRead {
  std::size_t lines = 0;  // complete lines handed to `consume`
  bool torn = false;      // a torn tail was dropped (and repaired if asked)
};

// Reads `path` line by line, invoking `consume(line, line_no)` for each
// newline-terminated line. The *final* line is allowed to be mid-write: if
// it lacks its newline, is empty, or `consume` throws on it, it is dropped
// (and the file truncated back to the valid prefix when `repair` is set).
// A line that fails anywhere *earlier* is real corruption, not a torn tail
// — silently dropping completed records would undercount — so the consume
// exception is rethrown through `on_corrupt` (which must throw; defaults
// to CheckError tagged with `path`). A missing file reads as empty.
TailTolerantRead read_jsonl_tail_tolerant(
    const std::string& path,
    const std::function<void(const std::string& line, std::size_t line_no)>&
        consume,
    bool repair,
    const std::function<void(const std::exception&)>& on_corrupt = {});

}  // namespace roboads::obs::json
