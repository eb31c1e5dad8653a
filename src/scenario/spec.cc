#include "scenario/spec.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <sstream>

namespace roboads::scenario {
namespace {

// Round-trip double formatting shared by the serializer: integral values
// print without an exponent (onsets, masks, whole-number magnitudes stay
// human-readable), everything else at %.17g so parse(serialize(x)) == x
// exactly and the canonical form is unique per double. The magnitude check
// comes first: casting |v| >= 2^63 to long long is undefined behavior.
std::string format_number(double v) {
  char buf[40];
  if (std::abs(v) < 1e15 &&
      v == static_cast<double>(static_cast<long long>(v))) {
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
  } else {
    std::snprintf(buf, sizeof(buf), "%.17g", v);
  }
  return buf;
}

void write_quoted(std::ostream& os, const std::string& s) {
  os << '"';
  for (char c : s) {
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\t': os << "\\t"; break;
      default: os << c;
    }
  }
  os << '"';
}

void write_vector(std::ostream& os, const Vector& v) {
  os << '[';
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i != 0) os << ", ";
    os << format_number(v[i]);
  }
  os << ']';
}

void write_mask(std::ostream& os, const std::vector<bool>& mask) {
  os << '[';
  for (std::size_t i = 0; i < mask.size(); ++i) {
    if (i != 0) os << ", ";
    os << (mask[i] ? '1' : '0');
  }
  os << ']';
}

// ---- Parsing -------------------------------------------------------------

[[noreturn]] void parse_error(std::size_t line, const std::string& message) {
  throw SpecError("spec parse error at line " + std::to_string(line) + ": " +
                  message);
}

// Line tokenizer: bare words, quoted strings (one token, unescaped), and
// bracketed lists (one token per element, wrapped in "[" / "]" markers).
std::vector<std::string> tokenize(const std::string& line, std::size_t num) {
  std::vector<std::string> tokens;
  std::size_t i = 0;
  while (i < line.size()) {
    const char c = line[i];
    if (std::isspace(static_cast<unsigned char>(c)) || c == ',') {
      ++i;
      continue;
    }
    if (c == '[' || c == ']') {
      tokens.push_back(std::string(1, c));
      ++i;
      continue;
    }
    if (c == '"') {
      std::string out;
      ++i;
      bool closed = false;
      while (i < line.size()) {
        const char d = line[i++];
        if (d == '"') {
          closed = true;
          break;
        }
        if (d == '\\') {
          if (i >= line.size()) parse_error(num, "dangling escape");
          const char e = line[i++];
          switch (e) {
            case '"': out += '"'; break;
            case '\\': out += '\\'; break;
            case 'n': out += '\n'; break;
            case 't': out += '\t'; break;
            default: parse_error(num, std::string("bad escape \\") + e);
          }
        } else {
          out += d;
        }
      }
      if (!closed) parse_error(num, "unterminated string");
      tokens.push_back("\"" + out);  // leading quote marks a string token
      continue;
    }
    std::string word;
    while (i < line.size()) {
      const char d = line[i];
      if (std::isspace(static_cast<unsigned char>(d)) || d == ',' ||
          d == '[' || d == ']') {
        break;
      }
      word += d;
      ++i;
    }
    tokens.push_back(word);
  }
  return tokens;
}

class TokenCursor {
 public:
  TokenCursor(std::vector<std::string> tokens, std::size_t line)
      : tokens_(std::move(tokens)), line_(line) {}

  bool done() const { return pos_ >= tokens_.size(); }
  std::size_t line() const { return line_; }

  const std::string& next(const char* what) {
    if (done()) parse_error(line_, std::string("expected ") + what);
    return tokens_[pos_++];
  }

  std::string next_string(const char* what) {
    const std::string& t = next(what);
    if (t.empty() || t[0] != '"') {
      parse_error(line_, std::string("expected quoted ") + what);
    }
    return t.substr(1);
  }

  std::string next_word(const char* what) {
    const std::string& t = next(what);
    if (!t.empty() && t[0] == '"') {
      parse_error(line_, std::string("expected bare word for ") + what);
    }
    return t;
  }

  double next_number(const char* what) {
    const std::string t = next_word(what);
    char* end = nullptr;
    const double v = std::strtod(t.c_str(), &end);
    // No spec quantity is infinite or NaN (an endless attack is spelled
    // "forever"); one would only poison the mission it drives.
    if (end == t.c_str() || *end != '\0' || !std::isfinite(v)) {
      parse_error(line_, std::string("bad number for ") + what + ": \"" + t +
                             "\"");
    }
    return v;
  }

  std::size_t next_index(const char* what) {
    const double v = next_number(what);
    // 2^64 and up do not fit: casting them is undefined behavior.
    if (v < 0.0 || v != std::floor(v) || v >= 18446744073709551616.0) {
      parse_error(line_, std::string(what) + " must be a non-negative integer");
    }
    return static_cast<std::size_t>(v);
  }

  std::uint64_t next_u64(const char* what) {
    const std::string t = next_word(what);
    char* end = nullptr;
    const unsigned long long v = std::strtoull(t.c_str(), &end, 10);
    if (end == t.c_str() || *end != '\0') {
      parse_error(line_, std::string("bad integer for ") + what + ": \"" + t +
                             "\"");
    }
    return static_cast<std::uint64_t>(v);
  }

  std::vector<double> next_list(const char* what) {
    if (next(what) != "[") {
      parse_error(line_, std::string("expected [ to open ") + what);
    }
    std::vector<double> out;
    while (true) {
      if (done()) parse_error(line_, std::string("unterminated ") + what);
      if (tokens_[pos_] == "]") {
        ++pos_;
        return out;
      }
      out.push_back(next_number(what));
    }
  }

 private:
  std::vector<std::string> tokens_;
  std::size_t pos_ = 0;
  std::size_t line_ = 0;
};

AttackShape shape_from(const std::string& word, std::size_t line) {
  if (word == "bias") return AttackShape::kBias;
  if (word == "ramp") return AttackShape::kRamp;
  if (word == "freeze") return AttackShape::kFreeze;
  if (word == "replace") return AttackShape::kReplace;
  if (word == "scale") return AttackShape::kScale;
  if (word == "noise") return AttackShape::kNoise;
  if (word == "flat-obstruction") return AttackShape::kFlatObstruction;
  parse_error(line, "unknown attack shape \"" + word + "\"");
}

Target target_from(const std::string& word, std::size_t line) {
  if (word == "sensor") return Target::kSensor;
  if (word == "lidar-raw") return Target::kLidarRaw;
  if (word == "actuator") return Target::kActuator;
  parse_error(line, "unknown attack target \"" + word + "\"");
}

AttackSpec parse_attack(TokenCursor& cur) {
  AttackSpec attack;
  attack.shape = shape_from(cur.next_word("attack shape"), cur.line());
  attack.target = target_from(cur.next_word("attack target"), cur.line());
  attack.workflow = cur.next_string("workflow name");
  // Fixed keyed fields, in canonical order; shape-specific keys afterwards.
  while (!cur.done()) {
    const std::string key = cur.next_word("attack field");
    if (key == "onset") {
      attack.onset = cur.next_index("onset");
    } else if (key == "duration") {
      // "forever" or an iteration count.
      const std::string value = cur.next_word("duration");
      if (value == "forever") {
        attack.duration = kForever;
      } else {
        char* end = nullptr;
        const unsigned long long v = std::strtoull(value.c_str(), &end, 10);
        if (end == value.c_str() || *end != '\0') {
          parse_error(cur.line(), "bad duration \"" + value + "\"");
        }
        attack.duration = static_cast<std::size_t>(v);
      }
    } else if (key == "magnitude") {
      attack.magnitude = Vector(cur.next_list("magnitude"));
    } else if (key == "mask") {
      const std::vector<double> raw = cur.next_list("mask");
      attack.mask.clear();
      for (double v : raw) {
        if (v != 0.0 && v != 1.0) {
          parse_error(cur.line(), "mask entries must be 0 or 1");
        }
        attack.mask.push_back(v != 0.0);
      }
    } else if (key == "noise-seed") {
      attack.noise_seed = cur.next_u64("noise-seed");
    } else if (key == "beams") {
      const std::vector<double> beams = cur.next_list("beams");
      if (beams.size() != 2 || beams[0] < 0 || beams[1] < 0 ||
          beams[0] != std::floor(beams[0]) || beams[1] != std::floor(beams[1])) {
        parse_error(cur.line(), "beams expects [first, last]");
      }
      attack.first_beam = static_cast<std::size_t>(beams[0]);
      attack.last_beam = static_cast<std::size_t>(beams[1]);
    } else if (key == "distance") {
      attack.distance = cur.next_number("distance");
    } else if (key == "center") {
      attack.center_angle = cur.next_number("center");
    } else {
      parse_error(cur.line(), "unknown attack field \"" + key + "\"");
    }
  }
  return attack;
}

FaultSpec parse_fault(TokenCursor& cur) {
  FaultSpec fault;
  fault.sensor = cur.next_string("fault sensor name");
  while (!cur.done()) {
    const std::string key = cur.next_word("fault field");
    if (key == "drop") {
      fault.drop_rate = cur.next_number("drop");
    } else if (key == "stale") {
      fault.stale_rate = cur.next_number("stale");
    } else if (key == "duplicate") {
      fault.duplicate_rate = cur.next_number("duplicate");
    } else if (key == "freeze-at") {
      fault.freeze_at = cur.next_index("freeze-at");
    } else if (key == "freeze-duration") {
      fault.freeze_duration = cur.next_index("freeze-duration");
    } else {
      parse_error(cur.line(), "unknown fault field \"" + key + "\"");
    }
  }
  return fault;
}

}  // namespace

const char* to_string(AttackShape shape) {
  switch (shape) {
    case AttackShape::kBias: return "bias";
    case AttackShape::kRamp: return "ramp";
    case AttackShape::kFreeze: return "freeze";
    case AttackShape::kReplace: return "replace";
    case AttackShape::kScale: return "scale";
    case AttackShape::kNoise: return "noise";
    case AttackShape::kFlatObstruction: return "flat-obstruction";
  }
  return "?";
}

const char* to_string(Target target) {
  switch (target) {
    case Target::kSensor: return "sensor";
    case Target::kLidarRaw: return "lidar-raw";
    case Target::kActuator: return "actuator";
  }
  return "?";
}

std::string serialize(const ScenarioSpec& spec) {
  std::ostringstream os;
  os << "roboads-scenario-spec v1\n";
  os << "name ";
  write_quoted(os, spec.name);
  os << "\nplatform " << spec.platform;
  os << "\niterations " << spec.iterations;
  os << "\nseed " << spec.seed;
  os << "\ndescription ";
  write_quoted(os, spec.description);
  os << '\n';
  for (const AttackSpec& a : spec.attacks) {
    os << "attack " << to_string(a.shape) << ' ' << to_string(a.target) << ' ';
    write_quoted(os, a.workflow);
    os << " onset " << a.onset << " duration ";
    if (a.duration == kForever) {
      os << "forever";
    } else {
      os << a.duration;
    }
    switch (a.shape) {
      case AttackShape::kBias:
      case AttackShape::kRamp:
      case AttackShape::kScale:
        os << " magnitude ";
        write_vector(os, a.magnitude);
        break;
      case AttackShape::kNoise:
        os << " magnitude ";
        write_vector(os, a.magnitude);
        os << " noise-seed " << a.noise_seed;
        break;
      case AttackShape::kReplace:
        if (!a.mask.empty()) {
          os << " mask ";
          write_mask(os, a.mask);
        }
        os << " magnitude ";
        write_vector(os, a.magnitude);
        break;
      case AttackShape::kFreeze:
        break;
      case AttackShape::kFlatObstruction:
        os << " beams [" << a.first_beam << ", " << a.last_beam
           << "] distance " << format_number(a.distance);
        if (a.center_angle.has_value()) {
          os << " center " << format_number(*a.center_angle);
        }
        break;
    }
    os << '\n';
  }
  for (const FaultSpec& f : spec.faults) {
    os << "fault ";
    write_quoted(os, f.sensor);
    // Canonical form: only non-zero fields, in fixed order, so the
    // serializer output stays unique per spec.
    if (f.drop_rate != 0.0) os << " drop " << format_number(f.drop_rate);
    if (f.stale_rate != 0.0) os << " stale " << format_number(f.stale_rate);
    if (f.duplicate_rate != 0.0) {
      os << " duplicate " << format_number(f.duplicate_rate);
    }
    if (f.freeze_at != 0) os << " freeze-at " << f.freeze_at;
    if (f.freeze_duration != 0) os << " freeze-duration " << f.freeze_duration;
    os << '\n';
  }
  if (!spec.faults.empty()) os << "fault-seed " << spec.fault_seed << '\n';
  os << "end\n";
  return os.str();
}

ScenarioSpec parse(const std::string& text) {
  std::istringstream is(text);
  std::string line;
  std::size_t num = 0;
  ScenarioSpec spec;
  bool saw_header = false;
  bool saw_end = false;
  while (std::getline(is, line)) {
    ++num;
    // Comments and blank lines are accepted on input (handy for corpus
    // files), though the canonical serializer never emits them.
    const std::size_t first = line.find_first_not_of(" \t\r");
    if (first == std::string::npos || line[first] == '#') continue;
    if (!saw_header) {
      if (line.substr(first) != "roboads-scenario-spec v1") {
        parse_error(num, "expected header \"roboads-scenario-spec v1\"");
      }
      saw_header = true;
      continue;
    }
    if (saw_end) parse_error(num, "content after \"end\"");
    TokenCursor cur(tokenize(line, num), num);
    const std::string key = cur.next_word("directive");
    if (key == "end") {
      if (!cur.done()) parse_error(num, "trailing tokens after \"end\"");
      saw_end = true;
    } else if (key == "name") {
      spec.name = cur.next_string("name");
    } else if (key == "platform") {
      spec.platform = cur.next_word("platform");
    } else if (key == "iterations") {
      spec.iterations = cur.next_index("iterations");
    } else if (key == "seed") {
      spec.seed = cur.next_u64("seed");
    } else if (key == "description") {
      spec.description = cur.next_string("description");
    } else if (key == "attack") {
      spec.attacks.push_back(parse_attack(cur));
      continue;  // parse_attack consumes the rest of the line
    } else if (key == "fault") {
      spec.faults.push_back(parse_fault(cur));
      continue;  // parse_fault consumes the rest of the line
    } else if (key == "fault-seed") {
      spec.fault_seed = cur.next_u64("fault-seed");
    } else {
      parse_error(num, "unknown directive \"" + key + "\"");
    }
    if (key != "end" && !cur.done()) {
      parse_error(num, "trailing tokens after \"" + key + "\"");
    }
  }
  if (!saw_header) throw SpecError("spec parse error: empty input");
  if (!saw_end) parse_error(num, "missing \"end\"");  // num: the last line
  return spec;
}

attacks::GroundTruth spec_truth_at(const ScenarioSpec& spec, std::size_t k,
                                   const sensors::SensorSuite& suite) {
  attacks::GroundTruth truth;
  for (const AttackSpec& a : spec.attacks) {
    if (!a.active_at(k)) continue;
    if (a.target == Target::kActuator) {
      truth.actuator_corrupted = true;
    } else {
      truth.corrupted_sensors.push_back(suite.index_of(a.workflow));
    }
  }
  std::sort(truth.corrupted_sensors.begin(), truth.corrupted_sensors.end());
  truth.corrupted_sensors.erase(std::unique(truth.corrupted_sensors.begin(),
                                            truth.corrupted_sensors.end()),
                                truth.corrupted_sensors.end());
  return truth;
}

}  // namespace roboads::scenario
