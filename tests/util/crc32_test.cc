#include "util/crc32.h"

#include <cstdint>
#include <string>
#include <string_view>

#include "gtest/gtest.h"
#include "util/crc32_internal.h"

namespace surveyor {
namespace {

/// The textbook bit-at-a-time CRC-32 (polynomial 0xEDB88320), the
/// reference both kernels behind Crc32Update must match bit for bit.
uint32_t ReferenceUpdate(uint32_t state, std::string_view data) {
  for (const char c : data) {
    state ^= static_cast<uint8_t>(c);
    for (int bit = 0; bit < 8; ++bit) {
      state = (state >> 1) ^ ((state & 1u) ? 0xEDB88320u : 0u);
    }
  }
  return state;
}

std::string PseudoRandomBytes(size_t size) {
  std::string bytes;
  bytes.reserve(size);
  uint32_t x = 12345;
  for (size_t i = 0; i < size; ++i) {
    x = x * 1103515245u + 12345u;
    bytes.push_back(static_cast<char>(x >> 24));
  }
  return bytes;
}

using Kernel = uint32_t (*)(uint32_t, std::string_view);

/// Every length 0..300 at offsets 0..15 (so the 16-byte loads of the fold
/// land at every alignment), from a non-initial state too.
void ExpectMatchesReferenceAtEveryLengthAndOffset(Kernel kernel) {
  const std::string bytes = PseudoRandomBytes(316);
  const std::string_view all(bytes);
  for (size_t offset = 0; offset < 16; ++offset) {
    for (size_t length = 0; length <= 300; ++length) {
      const std::string_view data = all.substr(offset, length);
      ASSERT_EQ(kernel(kCrc32Init, data), ReferenceUpdate(kCrc32Init, data))
          << "offset " << offset << " length " << length;
      ASSERT_EQ(kernel(0x12345678u, data), ReferenceUpdate(0x12345678u, data))
          << "offset " << offset << " length " << length;
    }
  }
}

/// One 4 MiB buffer, about a snapshot's size, whole and misaligned.
void ExpectMatchesReferenceOnFourMebibytes(Kernel kernel) {
  const std::string bytes = PseudoRandomBytes(4 << 20);
  const std::string_view all(bytes);
  EXPECT_EQ(kernel(kCrc32Init, all), ReferenceUpdate(kCrc32Init, all));
  EXPECT_EQ(kernel(kCrc32Init, all.substr(3)),
            ReferenceUpdate(kCrc32Init, all.substr(3)));
}

/// Chunks that end just short of, on and just past the 64-byte fold
/// boundary compose to the one-shot value.
void ExpectChunksAcrossTheFoldBoundaryCompose(Kernel kernel) {
  const std::string bytes = PseudoRandomBytes(4096);
  const std::string_view all(bytes);
  const uint32_t whole = ReferenceUpdate(kCrc32Init, all);
  constexpr size_t kChunks[] = {63, 64, 65, 1, 127, 16, 129};
  for (const size_t first : {1, 15, 16, 17, 63, 64, 65, 127, 128, 129}) {
    uint32_t state = kernel(kCrc32Init, all.substr(0, first));
    for (size_t at = first, i = 0; at < all.size(); at += kChunks[i++ % 7]) {
      state = kernel(state, all.substr(at, kChunks[i % 7]));
    }
    EXPECT_EQ(state, whole) << "first chunk " << first;
  }
}

TEST(Crc32Test, MatchesTheStandardCheckValue) {
  EXPECT_EQ(Crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(Crc32(""), 0u);
}

TEST(Crc32Test, MatchesTheBitwiseReferenceAtEveryLengthAndOffset) {
  ExpectMatchesReferenceAtEveryLengthAndOffset(Crc32Update);
  ExpectMatchesReferenceOnFourMebibytes(Crc32Update);
  // Incremental updates over uneven chunks compose to the one-shot value.
  const std::string bytes = PseudoRandomBytes(300);
  const std::string_view all(bytes);
  uint32_t state = kCrc32Init;
  for (size_t at = 0, chunk = 1; at < all.size(); at += chunk, chunk += 3) {
    state = Crc32Update(state, all.substr(at, chunk));
  }
  EXPECT_EQ(Crc32Finalize(state), Crc32(all));
}

TEST(Crc32Test, CombineJoinsChecksumsOfAdjacentChunks) {
  const std::string bytes = PseudoRandomBytes(3000);
  const std::string_view all(bytes);
  // Every split of a short buffer, empty halves included.
  const uint32_t whole = Crc32(all.substr(0, 300));
  for (size_t split = 0; split <= 300; ++split) {
    const std::string_view a = all.substr(0, split);
    const std::string_view b = all.substr(split, 300 - split);
    ASSERT_EQ(Crc32Combine(Crc32(a), Crc32(b), b.size()), whole) << split;
  }
  // Uneven chunks folded left to right, as a partitioned check joins them.
  uint32_t crc = 0;
  for (size_t at = 0, chunk = 1; at < all.size(); at += chunk, chunk *= 3) {
    const std::string_view piece = all.substr(at, chunk);
    crc = Crc32Combine(crc, Crc32(piece), piece.size());
  }
  EXPECT_EQ(crc, Crc32(all));
  EXPECT_EQ(Crc32Combine(0, 0xCBF43926u, 9), 0xCBF43926u);
  EXPECT_EQ(Crc32Combine(0xCBF43926u, 0, 0), 0xCBF43926u);
}

TEST(Crc32Test, TableKernelMatchesTheBitwiseReference) {
  ExpectMatchesReferenceAtEveryLengthAndOffset(crc32_internal::UpdateTable);
  ExpectMatchesReferenceOnFourMebibytes(crc32_internal::UpdateTable);
  ExpectChunksAcrossTheFoldBoundaryCompose(crc32_internal::UpdateTable);
}

TEST(Crc32Test, ClmulKernelMatchesTheBitwiseReference) {
  if (!crc32_internal::HaveClmul()) {
    GTEST_SKIP() << "no PCLMULQDQ kernel on this build or CPU";
  }
  ExpectMatchesReferenceAtEveryLengthAndOffset(crc32_internal::UpdateClmul);
  ExpectMatchesReferenceOnFourMebibytes(crc32_internal::UpdateClmul);
  ExpectChunksAcrossTheFoldBoundaryCompose(crc32_internal::UpdateClmul);
}

}  // namespace
}  // namespace surveyor
