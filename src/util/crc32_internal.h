#ifndef SURVEYOR_UTIL_CRC32_INTERNAL_H_
#define SURVEYOR_UTIL_CRC32_INTERNAL_H_

#include <cstdint>
#include <string_view>

// The two CRC-32 kernels behind Crc32Update, exposed so tests can check
// each against a bitwise reference on any CPU. Callers use util/crc32.h.

namespace surveyor {
namespace crc32_internal {

/// Slice-by-8: eight input bytes per step through eight 256-entry tables.
/// Portable; any length.
uint32_t UpdateTable(uint32_t state, std::string_view data);

/// True when this build has the carry-less-multiply kernel (x86-64) and
/// the CPU it runs on has PCLMULQDQ. Decided once per process.
bool HaveClmul();

/// 128-bit PCLMULQDQ folding, four lanes of 16 bytes per 64-byte step,
/// then a Barrett reduction; UpdateTable takes inputs under 64 bytes and
/// the last length % 16 bytes. Call only when HaveClmul().
uint32_t UpdateClmul(uint32_t state, std::string_view data);

}  // namespace crc32_internal
}  // namespace surveyor

#endif  // SURVEYOR_UTIL_CRC32_INTERNAL_H_
