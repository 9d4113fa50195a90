#ifndef FW_DURABILITY_CRC32C_H_
#define FW_DURABILITY_CRC32C_H_

#include <cstddef>
#include <cstdint>

namespace fw {
namespace durability {

/// CRC-32C (Castagnoli, polynomial 0x1EDC6F41, reflected 0x82F63B78) —
/// the checksum framing every durability file uses (DESIGN.md §16). A
/// portable table-driven implementation: the on-disk format must verify
/// identically on every host, so no hardware-specific instructions.
/// Slicing-by-8 (eight 256-entry tables, eight bytes per step) — every
/// snapshot load, changelog read and WAL append pays this per byte.
///
/// Extends `crc` (the running value of a previous call, or 0 to start)
/// over `size` bytes at `data`. The final value is already output-
/// reflected and xor-ed; feed it back in unchanged to continue.
uint32_t Crc32c(uint32_t crc, const void* data, size_t size);

}  // namespace durability
}  // namespace fw

#endif  // FW_DURABILITY_CRC32C_H_
