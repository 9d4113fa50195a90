// fw-lint-fixture-path: exec/checkpoint.cc
// MUST be flagged: a stringstream codec in persisted-format code is a
// second wire format beside common/codec.h, with its own parsing,
// versioning, and bounds checks to get wrong (the fixture-path
// directive above makes this file lint as that path).
#include <cstdint>
#include <sstream>
#include <string>

namespace fw {

std::string EncodeCount(uint64_t count) {
  std::ostringstream os;
  os << "count " << count << "\n";
  return os.str();
}

}  // namespace fw
