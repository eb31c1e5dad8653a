#include "obs/jsonl.h"

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <ostream>
#include <sstream>

#include "common/check.h"

namespace roboads::obs::json {
namespace {

class LineParser {
 public:
  LineParser(const std::string& line, const std::string& context)
      : s_(line), context_(context) {}

  std::map<std::string, Value> parse_object_line() {
    skip_ws();
    Value v = parse_value();
    if (v.kind != Value::Kind::kObject) fail("expected an object");
    skip_ws();
    if (i_ != s_.size()) fail("trailing characters after object");
    return std::move(v.members);
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw CheckError(context_ + ": " + what);
  }

  char peek() const {
    if (i_ >= s_.size()) fail("unexpected end of line");
    return s_[i_];
  }
  char next() {
    const char c = peek();
    ++i_;
    return c;
  }
  void expect(char c) {
    if (next() != c) fail(std::string("expected '") + c + "'");
  }
  void skip_ws() {
    while (i_ < s_.size() &&
           (s_[i_] == ' ' || s_[i_] == '\t' || s_[i_] == '\r')) {
      ++i_;
    }
  }
  bool literal(const char* word) {
    const std::size_t n = std::char_traits<char>::length(word);
    if (s_.compare(i_, n, word) != 0) return false;
    i_ += n;
    return true;
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      const char c = next();
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      const char e = next();
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (i_ + 4 > s_.size()) fail("truncated \\u escape");
          const std::string hex = s_.substr(i_, 4);
          i_ += 4;
          out += static_cast<char>(std::strtoul(hex.c_str(), nullptr, 16));
          break;
        }
        default: fail("unsupported escape");
      }
    }
  }

  double parse_number() {
    const char* begin = s_.c_str() + i_;
    char* end = nullptr;
    const double v = std::strtod(begin, &end);
    if (end == begin) fail("malformed number");
    i_ += static_cast<std::size_t>(end - begin);
    return v;
  }

  Value parse_value() {
    skip_ws();
    Value v;
    const char c = peek();
    if (c == 'n') {
      if (!literal("null")) fail("bad literal");
      v.kind = Value::Kind::kNull;
      v.num = std::numeric_limits<double>::quiet_NaN();
    } else if (c == 't' || c == 'f') {
      v.kind = Value::Kind::kBool;
      if (literal("true")) {
        v.b = true;
      } else if (literal("false")) {
        v.b = false;
      } else {
        fail("bad literal");
      }
    } else if (c == '"') {
      v.kind = Value::Kind::kString;
      v.str = parse_string();
    } else if (c == '[') {
      ++i_;
      v.kind = Value::Kind::kArray;
      skip_ws();
      if (peek() == ']') {
        ++i_;
        return v;
      }
      while (true) {
        v.items.push_back(parse_value());
        skip_ws();
        const char e = next();
        if (e == ']') break;
        if (e != ',') fail("expected ',' or ']'");
      }
    } else if (c == '{') {
      ++i_;
      v.kind = Value::Kind::kObject;
      skip_ws();
      if (peek() == '}') {
        ++i_;
        return v;
      }
      while (true) {
        skip_ws();
        std::string key = parse_string();
        skip_ws();
        expect(':');
        v.members[std::move(key)] = parse_value();
        skip_ws();
        const char e = next();
        if (e == '}') break;
        if (e != ',') fail("expected ',' or '}'");
      }
    } else {
      v.kind = Value::Kind::kNumber;
      v.num = parse_number();
    }
    return v;
  }

  const std::string& s_;
  std::size_t i_ = 0;
  const std::string& context_;
};

}  // namespace

std::map<std::string, Value> parse_object_line(const std::string& line,
                                               const std::string& context) {
  return LineParser(line, context).parse_object_line();
}

const Value& Fields::at(const char* key) const {
  const auto it = fields_.find(key);
  if (it == fields_.end()) {
    throw CheckError(context_ + ": missing field '" + key + "'");
  }
  return it->second;
}

double Fields::number(const char* key) const {
  const Value& v = at(key);
  if (v.kind != Value::Kind::kNumber && v.kind != Value::Kind::kNull) {
    fail(key, "number");
  }
  return v.num;
}

std::int64_t Fields::integer(const char* key) const {
  return static_cast<std::int64_t>(number(key));
}

bool Fields::boolean(const char* key) const {
  const Value& v = at(key);
  if (v.kind != Value::Kind::kBool) fail(key, "bool");
  return v.b;
}

const std::string& Fields::string(const char* key) const {
  const Value& v = at(key);
  if (v.kind != Value::Kind::kString) fail(key, "string");
  return v.str;
}

std::vector<double> Fields::numbers(const char* key) const {
  const Value& v = at(key);
  if (v.kind != Value::Kind::kArray) fail(key, "array");
  std::vector<double> out;
  out.reserve(v.items.size());
  for (const Value& item : v.items) {
    if (item.kind != Value::Kind::kNumber &&
        item.kind != Value::Kind::kNull) {
      fail(key, "numeric array");
    }
    out.push_back(item.num);
  }
  return out;
}

std::vector<std::int64_t> Fields::integers(const char* key) const {
  const std::vector<double> nums = numbers(key);
  std::vector<std::int64_t> out(nums.size());
  for (std::size_t i = 0; i < nums.size(); ++i) {
    out[i] = static_cast<std::int64_t>(nums[i]);
  }
  return out;
}

std::vector<std::string> Fields::strings(const char* key) const {
  const Value& v = at(key);
  if (v.kind != Value::Kind::kArray) fail(key, "array");
  std::vector<std::string> out;
  out.reserve(v.items.size());
  for (const Value& item : v.items) {
    if (item.kind != Value::Kind::kString) fail(key, "string array");
    out.push_back(item.str);
  }
  return out;
}

std::vector<Fields> Fields::objects(const char* key) const {
  const Value& v = at(key);
  if (v.kind != Value::Kind::kArray) fail(key, "array");
  std::vector<Fields> out;
  out.reserve(v.items.size());
  for (const Value& item : v.items) {
    if (item.kind != Value::Kind::kObject) fail(key, "object array");
    out.emplace_back(item.members, context_);
  }
  return out;
}

void Fields::fail(const char* key, const char* want) const {
  throw CheckError(context_ + ": field '" + std::string(key) +
                   "' is not a " + want);
}

void write_field_key(std::ostream& os, const char* key, bool first) {
  if (!first) os << ',';
  os << '"' << key << "\":";
}

void write_doubles(std::ostream& os, const std::vector<double>& v) {
  os << '[';
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i > 0) os << ',';
    write_number(os, v[i]);
  }
  os << ']';
}

void write_ints(std::ostream& os, const std::vector<std::int64_t>& v) {
  os << '[';
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i > 0) os << ',';
    os << v[i];
  }
  os << ']';
}

void write_strings(std::ostream& os, const std::vector<std::string>& v) {
  os << '[';
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i > 0) os << ',';
    write_escaped(os, v[i]);
  }
  os << ']';
}

void publish_line(const std::string& path, const std::string& line,
                  const std::string& what) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream os(tmp, std::ios::trunc | std::ios::binary);
    ROBOADS_CHECK(static_cast<bool>(os), "cannot write " + what + " " + tmp);
    os << line << '\n';
    os.flush();
    ROBOADS_CHECK(static_cast<bool>(os), "write failed for " + tmp);
  }
  ROBOADS_CHECK(std::rename(tmp.c_str(), path.c_str()) == 0,
                "cannot publish " + what + " " + path);
}

TailTolerantRead read_jsonl_tail_tolerant(
    const std::string& path,
    const std::function<void(const std::string& line, std::size_t line_no)>&
        consume,
    bool repair,
    const std::function<void(const std::exception&)>& on_corrupt) {
  TailTolerantRead result;
  std::ifstream is(path, std::ios::binary);
  if (!is) return result;
  std::ostringstream buffer;
  buffer << is.rdbuf();
  const std::string text = buffer.str();

  std::size_t line_no = 0;
  std::size_t offset = 0;    // start of the current line
  std::size_t good_end = 0;  // byte length of the valid prefix
  while (offset < text.size()) {
    const std::size_t newline = text.find('\n', offset);
    const bool complete = newline != std::string::npos;
    const std::string line =
        text.substr(offset, complete ? newline - offset : std::string::npos);
    ++line_no;
    // A line without a terminating newline is by definition mid-write.
    bool ok = complete && !line.empty();
    if (ok) {
      try {
        consume(line, line_no);
        ++result.lines;
      } catch (const std::exception& e) {
        ok = false;
        const bool final_line = newline + 1 >= text.size();
        if (!final_line) {
          if (on_corrupt) on_corrupt(e);
          throw CheckError(path + ": corrupt record (" +
                           std::string(e.what()) + ")");
        }
      }
    }
    if (!ok) {
      result.torn = true;
      break;
    }
    good_end = newline + 1;
    offset = newline + 1;
  }

  if (result.torn && repair) {
    std::filesystem::resize_file(path, good_end);
  }
  return result;
}

}  // namespace roboads::obs::json
