#include "obs/jsonl.h"

#include <charconv>
#include <cmath>
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

  Object parse_object_line() {
    skip_ws();
    Value v = parse_value(0);
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
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': append_utf8(out, parse_code_point()); break;
        default: fail("unsupported escape");
      }
    }
  }

  // Exactly four hex digits after a `\u` (no sign, prefix or space).
  unsigned parse_hex4() {
    unsigned unit = 0;
    const char* begin = s_.data() + i_;
    if (s_.size() - i_ < 4 ||
        std::from_chars(begin, begin + 4, unit, 16).ptr != begin + 4) {
      fail("\\u escape needs four hex digits");
    }
    i_ += 4;
    return unit;
  }

  // The code point of a `\u` escape (the `\u` already consumed): a high
  // surrogate must be followed by an escaped low surrogate, and the pair
  // names one code point past U+FFFF.
  unsigned parse_code_point() {
    const unsigned unit = parse_hex4();
    if (unit >= 0xDC00 && unit <= 0xDFFF) fail("lone low surrogate");
    if (unit < 0xD800 || unit > 0xDBFF) return unit;
    if (!literal("\\u")) fail("lone high surrogate");
    const unsigned low = parse_hex4();
    if (low < 0xDC00 || low > 0xDFFF) fail("lone high surrogate");
    return 0x10000 + ((unit - 0xD800) << 10) + (low - 0xDC00);
  }

  static void append_utf8(std::string& out, unsigned cp) {
    if (cp < 0x80) {
      out += static_cast<char>(cp);
    } else if (cp < 0x800) {
      out += static_cast<char>(0xC0 | (cp >> 6));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    } else if (cp < 0x10000) {
      out += static_cast<char>(0xE0 | (cp >> 12));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    } else {
      out += static_cast<char>(0xF0 | (cp >> 18));
      out += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    }
  }

  // A JSON number literal: -?digits(.digits)?([eE][+-]?digits)?. The
  // token is kept so integer fields can parse it exactly.
  void parse_number(Value& v) {
    const std::size_t begin = i_;
    const auto digits = [&] {
      const std::size_t start = i_;
      while (i_ < s_.size() && s_[i_] >= '0' && s_[i_] <= '9') ++i_;
      if (i_ == start) fail("malformed number");
    };
    if (i_ < s_.size() && s_[i_] == '-') ++i_;
    digits();
    if (i_ < s_.size() && s_[i_] == '.') {
      ++i_;
      digits();
    }
    if (i_ < s_.size() && (s_[i_] == 'e' || s_[i_] == 'E')) {
      ++i_;
      if (i_ < s_.size() && (s_[i_] == '+' || s_[i_] == '-')) ++i_;
      digits();
    }
    v.kind = Value::Kind::kNumber;
    v.str = s_.substr(begin, i_ - begin);
    v.num = std::strtod(v.str.c_str(), nullptr);
  }

  // `depth` counts the containers enclosing this value.
  Value parse_value(std::size_t depth) {
    skip_ws();
    Value v;
    const char c = peek();
    if ((c == '[' || c == '{') && depth >= kMaxNesting) {
      fail("nesting deeper than " + std::to_string(kMaxNesting));
    }
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
        v.items.push_back(parse_value(depth + 1));
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
        const auto [slot, fresh] = v.members.try_emplace(std::move(key));
        if (!fresh) fail("duplicate key \"" + slot->first + "\"");
        slot->second = parse_value(depth + 1);
        skip_ws();
        const char e = next();
        if (e == '}') break;
        if (e != ',') fail("expected ',' or '}'");
      }
    } else {
      parse_number(v);
    }
    return v;
  }

  const std::string& s_;
  std::size_t i_ = 0;
  const std::string& context_;
};

}  // namespace

Object parse_object_line(const std::string& line, const std::string& context) {
  return LineParser(line, context).parse_object_line();
}

void write_escaped(std::ostream& os, std::string_view s) {
  os << '"';
  for (char c : s) {
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\r': os << "\\r"; break;
      case '\t': os << "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          os << buf;
        } else {
          os << c;
        }
    }
  }
  os << '"';
}

void write_number(std::ostream& os, double v) {
  if (!std::isfinite(v)) {
    os << "null";
    return;
  }
  // Round-trip precision; integral values print without an exponent so the
  // common case (iterations, indices, masks) stays human-readable. The
  // magnitude check comes first: casting |v| >= 2^63 to long long is
  // undefined behavior.
  if (std::abs(v) < 1e15 &&
      v == static_cast<double>(static_cast<long long>(v))) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
    os << buf;
    return;
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  os << buf;
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

std::string read_snapshot_line(const std::string& path, const char* what,
                               const char* hint) {
  std::ifstream is(path, std::ios::binary);
  if (!is) {
    throw CheckError(path + ": no " + what + " snapshot (" + hint + ")");
  }
  std::string line;
  ROBOADS_CHECK(static_cast<bool>(std::getline(is, line)),
                path + ": empty " + what + " snapshot");
  return line;
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
