// Strict numeric parsing for CLI flags and serialized fields, and the one
// `--name=value` flag splitter the command-line tools share.
//
// Every surface that accepts a number — bench flags, shard worker argv,
// merged-report group names — must reject malformed input with a diagnostic
// instead of crashing (raw std::stoi/std::stoul throw std::invalid_argument
// straight through argv loops) or silently misreading it (atoi-style prefix
// parses). These helpers parse the *entire* string or return nullopt:
// no leading whitespace, no trailing junk, no empty input, and for the
// unsigned forms no "-0"-style negative sneaking through strtoul's wraparound.
#pragma once

#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <optional>
#include <string>

namespace roboads::common {

// `--name=value` flags: true, with `*value` set, when `arg` is `name=...`.
inline bool flag_value(const std::string& arg, const std::string& name,
                       std::string* value) {
  const std::string prefix = name + "=";
  if (arg.rfind(prefix, 0) != 0) return false;
  *value = arg.substr(prefix.size());
  return true;
}

// Whole-string unsigned integer. Rejects empty input, signs, whitespace,
// trailing junk, and out-of-range values.
inline std::optional<unsigned long long> parse_u64(const std::string& text) {
  if (text.empty() || !std::isdigit(static_cast<unsigned char>(text[0]))) {
    return std::nullopt;
  }
  errno = 0;
  char* end = nullptr;
  const unsigned long long value = std::strtoull(text.c_str(), &end, 10);
  if (end != text.c_str() + text.size() || errno == ERANGE) {
    return std::nullopt;
  }
  return value;
}

// Whole-string signed integer. Allows one leading '-'; otherwise as strict
// as parse_u64.
inline std::optional<long long> parse_i64(const std::string& text) {
  const bool negative = !text.empty() && text[0] == '-';
  const std::size_t digits_at = negative ? 1 : 0;
  if (text.size() <= digits_at ||
      !std::isdigit(static_cast<unsigned char>(text[digits_at]))) {
    return std::nullopt;
  }
  errno = 0;
  char* end = nullptr;
  const long long value = std::strtoll(text.c_str(), &end, 10);
  if (end != text.c_str() + text.size() || errno == ERANGE) {
    return std::nullopt;
  }
  return value;
}

// Whole-string finite double. Accepts the usual strtod forms ("0.5", "1e-3",
// "-2.") but rejects empty input, trailing junk, leading whitespace, and
// inf/nan spellings (a telemetry interval of "nan" is never intentional).
inline std::optional<double> parse_double(const std::string& text) {
  if (text.empty() ||
      std::isspace(static_cast<unsigned char>(text[0]))) {
    return std::nullopt;
  }
  const char first = text[0] == '-' || text[0] == '+'
                         ? (text.size() > 1 ? text[1] : '\0')
                         : text[0];
  if (!std::isdigit(static_cast<unsigned char>(first)) && first != '.') {
    return std::nullopt;  // rejects "inf", "nan", "x1"
  }
  errno = 0;
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  if (end != text.c_str() + text.size() || errno == ERANGE) {
    return std::nullopt;
  }
  return value;
}

}  // namespace roboads::common
