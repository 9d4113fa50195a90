#include "durability/crc32c.h"

#include <array>

namespace fw {
namespace durability {

namespace {

/// Slicing-by-8 tables, generated once at first use. Table 0 is the
/// classic byte-at-a-time table; table k maps a byte to its CRC after k
/// further zero bytes, so the main loop folds eight input bytes per
/// step with eight independent lookups and no platform-specific code.
struct Crc32cTables {
  std::array<std::array<uint32_t, 256>, 8> t;

  Crc32cTables() {
    constexpr uint32_t kPoly = 0x82F63B78u;  // Reflected Castagnoli.
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t crc = i;
      for (int bit = 0; bit < 8; ++bit) {
        crc = (crc >> 1) ^ ((crc & 1u) ? kPoly : 0u);
      }
      t[0][i] = crc;
    }
    for (size_t k = 1; k < t.size(); ++k) {
      for (uint32_t i = 0; i < 256; ++i) {
        t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
      }
    }
  }
};

const Crc32cTables& Tables() {
  static const Crc32cTables tables;
  return tables;
}

/// Four bytes at `p` as a little-endian word (byte loads, so no
/// alignment or host byte-order assumption).
uint32_t LoadLe32(const unsigned char* p) {
  return static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
         (static_cast<uint32_t>(p[2]) << 16) |
         (static_cast<uint32_t>(p[3]) << 24);
}

}  // namespace

uint32_t Crc32c(uint32_t crc, const void* data, size_t size) {
  const Crc32cTables& tables = Tables();
  const auto* p = static_cast<const unsigned char*>(data);
  crc = ~crc;
  while (size >= 8) {
    const uint32_t lo = crc ^ LoadLe32(p);
    const uint32_t hi = LoadLe32(p + 4);
    crc = tables.t[7][lo & 0xFFu] ^ tables.t[6][(lo >> 8) & 0xFFu] ^
          tables.t[5][(lo >> 16) & 0xFFu] ^ tables.t[4][lo >> 24] ^
          tables.t[3][hi & 0xFFu] ^ tables.t[2][(hi >> 8) & 0xFFu] ^
          tables.t[1][(hi >> 16) & 0xFFu] ^ tables.t[0][hi >> 24];
    p += 8;
    size -= 8;
  }
  while (size-- > 0) {
    crc = (crc >> 8) ^ tables.t[0][(crc ^ *p++) & 0xFFu];
  }
  return ~crc;
}

}  // namespace durability
}  // namespace fw
