// fw-lint-fixture-path: plan/printer.cc
// MUST pass: human-readable rendering outside the persisted-format files
// may use string streams — nothing reads these bytes back.
#include <sstream>
#include <string>

namespace fw {

std::string Describe(int operators) {
  std::ostringstream os;
  os << operators << " operators";
  return os.str();
}

}  // namespace fw
