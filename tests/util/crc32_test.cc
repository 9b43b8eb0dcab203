#include "util/crc32.h"

#include <cstdint>
#include <string>
#include <string_view>

#include "gtest/gtest.h"

namespace surveyor {
namespace {

/// The textbook bit-at-a-time CRC-32 (polynomial 0xEDB88320), the
/// reference the table-driven Crc32Update must match bit for bit.
uint32_t ReferenceUpdate(uint32_t state, std::string_view data) {
  for (const char c : data) {
    state ^= static_cast<uint8_t>(c);
    for (int bit = 0; bit < 8; ++bit) {
      state = (state >> 1) ^ ((state & 1u) ? 0xEDB88320u : 0u);
    }
  }
  return state;
}

TEST(Crc32Test, MatchesTheStandardCheckValue) {
  EXPECT_EQ(Crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(Crc32(""), 0u);
}

TEST(Crc32Test, MatchesTheBitwiseReferenceAtEveryLengthAndOffset) {
  std::string bytes;
  uint32_t x = 12345;
  for (int i = 0; i < 300; ++i) {
    x = x * 1103515245u + 12345u;
    bytes.push_back(static_cast<char>(x >> 24));
  }
  const std::string_view all(bytes);
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t length = 0; offset + length <= 100; ++length) {
      const std::string_view data = all.substr(offset, length);
      EXPECT_EQ(Crc32Update(kCrc32Init, data),
                ReferenceUpdate(kCrc32Init, data))
          << "offset " << offset << " length " << length;
    }
  }
  // Incremental updates over uneven chunks compose to the one-shot value.
  uint32_t state = kCrc32Init;
  for (size_t at = 0, chunk = 1; at < all.size(); at += chunk, chunk += 3) {
    state = Crc32Update(state, all.substr(at, chunk));
  }
  EXPECT_EQ(Crc32Finalize(state), Crc32(all));
}

}  // namespace
}  // namespace surveyor
