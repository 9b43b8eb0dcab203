#include "util/crc32.h"

#include <array>

namespace surveyor {

namespace {

/// Slice-by-8 remainder tables for polynomial 0xEDB88320, computed at
/// compile time. kTables[0] is the classic byte-at-a-time table;
/// kTables[k][b] is the remainder of byte b followed by k zero bytes, so
/// eight lookups fold eight input bytes at once.
constexpr std::array<std::array<uint32_t, 256>, 8> MakeTables() {
  std::array<std::array<uint32_t, 256>, 8> tables{};
  for (uint32_t byte = 0; byte < 256; ++byte) {
    uint32_t remainder = byte;
    for (int bit = 0; bit < 8; ++bit) {
      remainder = (remainder >> 1) ^ ((remainder & 1u) ? 0xEDB88320u : 0u);
    }
    tables[0][byte] = remainder;
  }
  for (size_t k = 1; k < 8; ++k) {
    for (uint32_t byte = 0; byte < 256; ++byte) {
      const uint32_t previous = tables[k - 1][byte];
      tables[k][byte] = (previous >> 8) ^ tables[0][previous & 0xFFu];
    }
  }
  return tables;
}

constexpr std::array<std::array<uint32_t, 256>, 8> kTables = MakeTables();

/// Little-endian u32 at `p`, whatever the host's byte order.
uint32_t LoadLe32(const char* p) {
  return static_cast<uint32_t>(static_cast<uint8_t>(p[0])) |
         static_cast<uint32_t>(static_cast<uint8_t>(p[1])) << 8 |
         static_cast<uint32_t>(static_cast<uint8_t>(p[2])) << 16 |
         static_cast<uint32_t>(static_cast<uint8_t>(p[3])) << 24;
}

}  // namespace

uint32_t Crc32Update(uint32_t state, std::string_view data) {
  const char* p = data.data();
  size_t n = data.size();
  for (; n >= 8; p += 8, n -= 8) {
    const uint32_t low = LoadLe32(p) ^ state;
    const uint32_t high = LoadLe32(p + 4);
    state = kTables[7][low & 0xFFu] ^ kTables[6][(low >> 8) & 0xFFu] ^
            kTables[5][(low >> 16) & 0xFFu] ^ kTables[4][low >> 24] ^
            kTables[3][high & 0xFFu] ^ kTables[2][(high >> 8) & 0xFFu] ^
            kTables[1][(high >> 16) & 0xFFu] ^ kTables[0][high >> 24];
  }
  for (; n > 0; ++p, --n) {
    state = (state >> 8) ^
            kTables[0][(state ^ static_cast<uint8_t>(*p)) & 0xFFu];
  }
  return state;
}

}  // namespace surveyor
