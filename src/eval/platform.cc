#include "eval/platform.h"

#include "eval/khepera.h"
#include "eval/tamiya.h"

namespace roboads::eval {

std::string Platform::condition_name(
    const std::vector<std::size_t>& corrupted_sensors) const {
  if (corrupted_sensors.empty()) return "S0";
  std::string out = "S{";
  for (std::size_t i = 0; i < corrupted_sensors.size(); ++i) {
    if (i) out += ",";
    out += suite().sensor(corrupted_sensors[i]).name();
  }
  return out + "}";
}

attacks::Scenario Platform::clean_scenario() {
  return attacks::Scenario("clean", "no attacks or failures", {});
}

std::vector<std::string> platform_names() { return {"khepera", "tamiya"}; }

std::unique_ptr<Platform> make_platform(const std::string& name) {
  if (name == "khepera") return std::make_unique<KheperaPlatform>();
  if (name == "tamiya") return std::make_unique<TamiyaPlatform>();
  throw CheckError("unknown platform \"" + name +
                   "\" (expected \"khepera\" or \"tamiya\")");
}

}  // namespace roboads::eval
