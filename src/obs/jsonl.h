// Line-oriented JSON: the one writer/parser pair behind every JSON line the
// library writes (shard manifests, checkpoints, telemetry, heartbeats,
// status snapshots, fleet status, postmortem bundles, histogram snapshots,
// metrics dumps, merged reports, frontier results, detector traces). Each
// line is a single JSON object; values may be null / bool / number /
// string / array / object, nested up to kMaxNesting deep.
//
// Every record type declares its wire form once — a `codec` visitor that
// names its fields in wire order — and that one list drives both the
// writer and the typed, loud reader (see "Record codec" below), so a
// schema's writer and reader cannot drift apart.
//
// Doubles are emitted with round-trip precision (write_number) and parsed
// via strtod, so they survive a write→parse cycle exactly — which is what
// lets two independently produced files be compared byte-for-byte.
// Non-finite doubles serialize as null and read back as NaN. Integers are
// written as digits and read back exactly from the literal's own text.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <optional>
#include <ostream>
#include <sstream>
#include <string>
#include <string_view>
#include <tuple>
#include <type_traits>
#include <variant>
#include <vector>

#include "common/check.h"
#include "common/parse.h"

namespace roboads::obs::json {

// Deepest container nesting a line may have. The deepest schema nests 5
// (fleet status → shards → shard → histogram → bounds); anything far past
// that is hostile input and fails loudly instead of exhausting the
// parser's stack.
inline constexpr std::size_t kMaxNesting = 64;

// One parsed JSON value. `num` doubles as the NaN payload of null so
// numeric readers can treat null-in-numeric-context uniformly.
struct Value {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool b = false;
  double num = 0.0;
  // kString: the decoded text. kNumber: the literal's token as written,
  // which integer fields parse exactly (a double holds only 53 bits).
  std::string str;
  std::vector<Value> items;               // kArray
  std::map<std::string, Value> members;   // kObject
};

using Object = std::map<std::string, Value>;

// Parses one line holding exactly one JSON object; throws CheckError with
// `context` (e.g. "bundle line 12") prefixed to every diagnostic. A
// repeated key is an error, and `\u` escapes decode to UTF-8 (a surrogate
// pair as one code point; a lone surrogate is an error).
Object parse_object_line(const std::string& line, const std::string& context);

// Writes `s` inside JSON double quotes, escaping quotes, backslashes and
// control characters.
void write_escaped(std::ostream& os, std::string_view s);

// JSON has no NaN/Inf literal; non-finite values serialize as null so every
// emitted line stays parseable (a -inf log-likelihood is a *legitimate*
// value in a quarantine trace, not an encoding error).
void write_number(std::ostream& os, double v);

// --- Record codec ----------------------------------------------------------
//
// A record type declares its fields once, in wire order, as a function
// template found by argument-dependent lookup:
//
//   template <class IO>
//   void codec(IO& io, OutcomeDelay& d) {
//     io("label", d.label);
//     io("triggered_at", d.triggered_at);
//     io("seconds", d.seconds);
//   }
//
// Writer walks the list to emit `{"label":...,"triggered_at":...}`; Reader
// walks the same list to fill a record from a parsed object. Members may
// be strings, bools, integers (written as digits, read exactly — null,
// fractions, exponents, signs on unsigned fields and out-of-range values
// are errors), doubles (write_number; null reads back as NaN),
// std::optional<double> (nullopt ↔ null), vectors of any of these, and
// nested records (their own codec, as a JSON object). The writer also
// takes a std::variant of these (the alternative it holds) and run-time
// keys, which it escapes like any string. The special shapes:
//
//   io("sensor", std::tie(a, b, c, d))  fixed-length array
//   io("kind", e, kNames)                enum written as kNames[e]
//   io.tag("event", "outcome")           constant, checked when read
//   io.keyed("groups", "group", map)     map as an array of objects whose
//                                        first field is the key
//
// A codec may branch on a field it already visited (fields chosen by kind)
// and may inline another record's fields by calling its codec directly.
// `IO::kReads` tells a codec it is reading, e.g. to validate a histogram.
// A write-only record (merged report lines, trace events, run summaries:
// nothing reads them back) may also pass computed values and skip fields
// by its own state.
//
// The writer visits through a non-const reference it never writes through.
// Reader failures throw CheckError naming the context and the field path
// (e.g. "fleet_status.json: field 'shards[1].steps' is not an unsigned
// integer"); entry points whose schema documents another exception type
// translate it.

class Writer {
 public:
  static constexpr bool kReads = false;

  explicit Writer(std::ostream& os) : os_(os) {}

  template <class T>
  void operator()(std::string_view key, const T& value) {
    write_key(key);
    put(value);
  }

  template <class... Ts>
  void operator()(std::string_view key, std::tuple<Ts&...> fixed) {
    write_key(key);
    os_ << '[';
    std::apply(
        [&](const Ts&... v) {
          bool first = true;
          ((os_ << (first ? "" : ","), first = false, put(v)), ...);
        },
        fixed);
    os_ << ']';
  }

  template <class E, std::size_t N>
  void operator()(std::string_view key, const E& value,
                  const char* const (&names)[N]) {
    write_key(key);
    write_escaped(os_, names[static_cast<std::size_t>(value)]);
  }

  void tag(std::string_view key, const char* value) {
    write_key(key);
    write_escaped(os_, value);
  }
  void tag(std::string_view key, int value) {
    write_key(key);
    os_ << value;
  }

  template <class R>
  void keyed(std::string_view key, const char* name_key,
             const std::map<std::string, R>& rows) {
    write_key(key);
    os_ << '[';
    bool first = true;
    for (const auto& [name, row] : rows) {
      if (!first) os_ << ',';
      first = false;
      os_ << '{';
      Writer nested(os_);
      nested(name_key, name);
      codec(nested, const_cast<R&>(row));
      os_ << '}';
    }
    os_ << ']';
  }

 private:
  void write_key(std::string_view key) {
    if (!first_) os_ << ',';
    first_ = false;
    write_escaped(os_, key);
    os_ << ':';
  }

  template <class T>
  void put(const T& v);

  std::ostream& os_;
  bool first_ = true;
};

class Reader {
 public:
  static constexpr bool kReads = true;

  // `path` prefixes field names in diagnostics ("shards[1]." for a nested
  // record).
  Reader(const Object& object, const std::string& context,
         std::string path = {})
      : object_(object), context_(context), path_(std::move(path)) {}

  template <class T>
  void operator()(const char* key, T& out) {
    get(at(key), key, kNoIndex, out);
  }

  template <class... Ts>
  void operator()(const char* key, std::tuple<Ts&...> fixed) {
    const Value& v = at(key);
    if (v.kind != Value::Kind::kArray || v.items.size() != sizeof...(Ts)) {
      fail(key, kNoIndex,
           "is not an array of " + std::to_string(sizeof...(Ts)));
    }
    std::size_t i = 0;
    std::apply([&](Ts&... out) { ((get(v.items[i], key, i, out), ++i), ...); },
               fixed);
  }

  template <class E, std::size_t N>
  void operator()(const char* key, E& out, const char* const (&names)[N]) {
    std::string word;
    (*this)(key, word);
    for (std::size_t i = 0; i < N; ++i) {
      if (word == names[i]) {
        out = static_cast<E>(i);
        return;
      }
    }
    fail(key, kNoIndex, "has unknown value \"" + word + "\"");
  }

  void tag(const char* key, const char* want) {
    std::string got;
    (*this)(key, got);
    if (got != want) {
      fail(key, kNoIndex,
           "is \"" + got + "\", expected \"" + std::string(want) + "\"");
    }
  }
  void tag(const char* key, int want) {
    std::int64_t got = 0;
    (*this)(key, got);
    if (got != want) {
      fail(key, kNoIndex,
           "is " + std::to_string(got) + ", expected " + std::to_string(want));
    }
  }

  template <class R>
  void keyed(const char* key, const char* name_key,
             std::map<std::string, R>& rows) {
    const Value& v = at(key);
    if (v.kind != Value::Kind::kArray) fail(key, kNoIndex, "is not an array");
    for (std::size_t i = 0; i < v.items.size(); ++i) {
      const Value& item = v.items[i];
      if (item.kind != Value::Kind::kObject) {
        fail(key, i, "is not an object");
      }
      Reader nested(item.members, context_, name(key, i) + ".");
      std::string row_name;
      nested(name_key, row_name);
      R row;
      codec(nested, row);
      rows.emplace(std::move(row_name), std::move(row));
    }
  }

  // Throws CheckError naming the context and `key` (validation failures
  // in a codec).
  [[noreturn]] void fail(const char* key, const std::string& what) const {
    fail(key, kNoIndex, what);
  }

 private:
  static constexpr std::size_t kNoIndex = static_cast<std::size_t>(-1);

  const Value& at(const char* key) const {
    const auto it = object_.find(key);
    if (it == object_.end()) {
      throw CheckError(context_ + ": missing field '" + path_ + key + "'");
    }
    return it->second;
  }

  std::string name(const char* key, std::size_t index) const {
    std::string out = path_ + key;
    if (index != kNoIndex) out += "[" + std::to_string(index) + "]";
    return out;
  }

  [[noreturn]] void fail(const char* key, std::size_t index,
                         const std::string& what) const {
    throw CheckError(context_ + ": field '" + name(key, index) + "' " + what);
  }

  template <class T>
  void get(const Value& v, const char* key, std::size_t index, T& out);

  const Object& object_;
  const std::string& context_;
  std::string path_;
};

namespace detail {
template <class T>
struct IsVector : std::false_type {};
template <class T>
struct IsVector<std::vector<T>> : std::true_type {};
template <class T>
struct IsVariant : std::false_type {};
template <class... Ts>
struct IsVariant<std::variant<Ts...>> : std::true_type {};
}  // namespace detail

template <class T>
void Writer::put(const T& v) {
  if constexpr (std::is_same_v<T, std::string>) {
    write_escaped(os_, v);
  } else if constexpr (std::is_same_v<T, bool>) {
    os_ << (v ? "true" : "false");
  } else if constexpr (std::is_integral_v<T>) {
    os_ << v;
  } else if constexpr (std::is_same_v<T, double>) {
    write_number(os_, v);
  } else if constexpr (std::is_same_v<T, std::optional<double>>) {
    if (v.has_value()) {
      write_number(os_, *v);
    } else {
      os_ << "null";
    }
  } else if constexpr (detail::IsVector<T>::value) {
    os_ << '[';
    for (std::size_t i = 0; i < v.size(); ++i) {
      if (i > 0) os_ << ',';
      put(v[i]);
    }
    os_ << ']';
  } else if constexpr (detail::IsVariant<T>::value) {
    std::visit([this](const auto& held) { put(held); }, v);
  } else {
    os_ << '{';
    Writer nested(os_);
    codec(nested, const_cast<T&>(v));
    os_ << '}';
  }
}

template <class T>
void Reader::get(const Value& v, const char* key, std::size_t index, T& out) {
  using Kind = Value::Kind;
  if constexpr (std::is_same_v<T, std::string>) {
    if (v.kind != Kind::kString) fail(key, index, "is not a string");
    out = v.str;
  } else if constexpr (std::is_same_v<T, bool>) {
    if (v.kind != Kind::kBool) fail(key, index, "is not a bool");
    out = v.b;
  } else if constexpr (std::is_integral_v<T>) {
    // Exactly from the token: strtod would round past 2^53 and accept
    // fractions, exponents and null.
    if constexpr (std::is_unsigned_v<T>) {
      const std::optional<unsigned long long> n =
          v.kind == Kind::kNumber ? common::parse_u64(v.str) : std::nullopt;
      if (!n || *n > std::numeric_limits<T>::max()) {
        fail(key, index, "is not an unsigned integer");
      }
      out = static_cast<T>(*n);
    } else {
      const std::optional<long long> n =
          v.kind == Kind::kNumber ? common::parse_i64(v.str) : std::nullopt;
      if (!n || *n < std::numeric_limits<T>::min() ||
          *n > std::numeric_limits<T>::max()) {
        fail(key, index, "is not an integer");
      }
      out = static_cast<T>(*n);
    }
  } else if constexpr (std::is_same_v<T, double>) {
    if (v.kind != Kind::kNumber && v.kind != Kind::kNull) {
      fail(key, index, "is not a number");
    }
    out = v.num;
  } else if constexpr (std::is_same_v<T, std::optional<double>>) {
    if (v.kind == Kind::kNull) {
      out.reset();
    } else {
      if (v.kind != Kind::kNumber) fail(key, index, "is not a number");
      out = v.num;
    }
  } else if constexpr (detail::IsVector<T>::value) {
    if (v.kind != Kind::kArray) fail(key, index, "is not an array");
    out.clear();
    out.resize(v.items.size());
    for (std::size_t i = 0; i < v.items.size(); ++i) {
      get(v.items[i], key, i, out[i]);
    }
  } else {
    if (v.kind != Kind::kObject) fail(key, index, "is not an object");
    Reader nested(v.members, context_, name(key, index) + ".");
    codec(nested, out);
  }
}

// Writes `record` as one JSON object (no trailing newline).
template <class T>
void write(std::ostream& os, const T& record) {
  os << '{';
  Writer writer(os);
  codec(writer, const_cast<T&>(record));
  os << '}';
}

// Writes `record` as one JSON line: the object, then a newline.
template <class T>
void write_line(std::ostream& os, const T& record) {
  write(os, record);
  os << '\n';
}

template <class T>
std::string encode(const T& record) {
  std::ostringstream os;
  write(os, record);
  return os.str();
}

// Fills `out` from a parsed object; throws CheckError tagged `context`.
template <class T>
void read(const Object& object, const std::string& context, T& out) {
  Reader reader(object, context);
  codec(reader, out);
}

template <class T>
T decode(const std::string& line, const std::string& context) {
  T out;
  read(parse_object_line(line, context), context, out);
  return out;
}

// --- Append-only streams (shard checkpoints, worker telemetry) -----------

// A headered JSONL stream's schema: a `{"event","name","version"}` header
// line, then one `Record` per line. `Error` is the exception its readers
// throw.
template <class Record, class Error>
struct Stream {
  const char* event;
  const char* name;
  int version;
};

// The header line: written as tags, checked as tags when read.
template <class IO, class Record, class Error>
void codec(IO& io, const Stream<Record, Error>& stream) {
  io.tag("event", stream.event);
  io.tag("name", stream.name);
  io.tag("version", stream.version);
}

// Writes (and flushes) the header line of a fresh stream file.
template <class Record, class Error>
void write_header(std::ostream& os, const Stream<Record, Error>& stream) {
  write_line(os, stream);
  os.flush();
}

// Appends one record line and flushes, so a kill loses at most that line.
template <class Record>
void append(std::ostream& os, const Record& record) {
  write_line(os, record);
  os.flush();
}

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

// Every record of a stream file, tolerating a torn tail: a kill
// mid-append leaves at most one damaged line, by construction the last, so
// a final line that does not parse is dropped (and with `repair` the file
// is truncated back to the last good line so appends resume cleanly). A
// torn or missing header reads as empty. A bad line *before* the final one
// is real corruption and throws `Error`. A missing file reads as empty.
template <class Record, class Error>
std::vector<Record> read_stream(const std::string& path,
                                const Stream<Record, Error>& stream,
                                bool repair) {
  std::vector<Record> records;
  bool saw_header = false;
  read_jsonl_tail_tolerant(
      path,
      [&](const std::string& line, std::size_t line_no) {
        const std::string context =
            std::string(stream.name) + " line " + std::to_string(line_no);
        const Object object = parse_object_line(line, context);
        if (saw_header) {
          Record record;
          read(object, context, record);
          records.push_back(std::move(record));
          return;
        }
        Reader header(object, context);
        codec(header, stream);
        saw_header = true;
      },
      repair,
      [&](const std::exception& e) {
        throw Error(path + ": corrupt " + stream.name + " (" + e.what() +
                    ")");
      });
  return records;
}

// --- Published snapshots (status.json, fleet_status.json, heartbeats) ----

// A single-line file replaced atomically on every publish.
template <class Record>
struct SnapshotFile {
  const char* what;  // names the file in diagnostics ("status")
  const char* hint;  // appended when the file is missing: how to get one
};

// Atomically replaces `path` with `line` plus a newline: writes `path`.tmp,
// checks the stream after the flush, then renames it over `path`, so a
// reader sees the previous line or the new one, never a torn or failed
// write. `what` names the file in errors. Throws CheckError.
void publish_line(const std::string& path, const std::string& line,
                  const std::string& what);

template <class Record>
void publish(const std::string& path, const Record& record,
             const SnapshotFile<Record>& file) {
  publish_line(path, encode(record), file.what);
}

// The first line of a published snapshot; throws CheckError naming the
// file when it is missing (with the file's hint) or empty.
std::string read_snapshot_line(const std::string& path, const char* what,
                               const char* hint);

template <class Record>
Record read_snapshot(const std::string& path,
                     const SnapshotFile<Record>& file) {
  return decode<Record>(read_snapshot_line(path, file.what, file.hint),
                        path);
}

}  // namespace roboads::obs::json
