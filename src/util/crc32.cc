#include "util/crc32.h"

#include <array>
#include <cstddef>

#include "util/crc32_internal.h"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define SURVEYOR_CRC32_CLMUL 1
#include <emmintrin.h>
#include <wmmintrin.h>
#endif

namespace surveyor {
namespace crc32_internal {
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

#ifdef SURVEYOR_CRC32_CLMUL

// Folding constants of the bit-reflected domain, from Gopal et al., "Fast
// CRC Computation for Generic Polynomials Using PCLMULQDQ Instruction"
// (Intel, 2009). Each is (x^d mod P)' << 1 for a fold distance d; the low
// 64-bit lane multiplies an accumulator's low half, the high lane its high
// half.
//   four lanes ahead (512 bits):  d = 4*128+32 | 4*128-32
//   one lane ahead (128 bits):    d = 128+32 | 128-32
//   128 -> 64 bits:               d = 64
//   Barrett: P' = 0x1DB710641, mu = (x^64 / P)' = 0x1F7011641.
constexpr long long kFold4Low = 0x154442bd4, kFold4High = 0x1c6e41596;
constexpr long long kFold1Low = 0x1751997d0, kFold1High = 0x0ccaa009e;
constexpr long long kFold64 = 0x163cd6124;
constexpr long long kPoly = 0x1db710641, kMu = 0x1f7011641;

__m128i Load128(const char* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

/// Moves a 128-bit remainder forward by the distance `k` encodes.
__attribute__((target("pclmul"))) __m128i Fold(__m128i acc, __m128i k) {
  const __m128i low = _mm_clmulepi64_si128(acc, k, 0x00);
  const __m128i high = _mm_clmulepi64_si128(acc, k, 0x11);
  return _mm_xor_si128(low, high);
}

/// CRC state after `n` bytes at `p`; n >= 64 and a multiple of 16.
__attribute__((target("pclmul"))) uint32_t FoldClmul(uint32_t state,
                                                     const char* p, size_t n) {
  const __m128i fold4 = _mm_set_epi64x(kFold4High, kFold4Low);
  const __m128i fold1 = _mm_set_epi64x(kFold1High, kFold1Low);
  const __m128i seed = _mm_cvtsi32_si128(static_cast<int>(state));
  __m128i a0 = _mm_xor_si128(Load128(p), seed);
  __m128i a1 = Load128(p + 16);
  __m128i a2 = Load128(p + 32);
  __m128i a3 = Load128(p + 48);
  for (p += 64, n -= 64; n >= 64; p += 64, n -= 64) {
    a0 = _mm_xor_si128(Fold(a0, fold4), Load128(p));
    a1 = _mm_xor_si128(Fold(a1, fold4), Load128(p + 16));
    a2 = _mm_xor_si128(Fold(a2, fold4), Load128(p + 32));
    a3 = _mm_xor_si128(Fold(a3, fold4), Load128(p + 48));
  }
  a0 = _mm_xor_si128(Fold(a0, fold1), a1);
  a0 = _mm_xor_si128(Fold(a0, fold1), a2);
  a0 = _mm_xor_si128(Fold(a0, fold1), a3);
  for (; n >= 16; p += 16, n -= 16) {
    a0 = _mm_xor_si128(Fold(a0, fold1), Load128(p));
  }

  // 128 -> 64 bits, then Barrett-reduce the 64 to the 32-bit remainder.
  const __m128i low32 = _mm_setr_epi32(-1, 0, -1, 0);
  const __m128i fold64 = _mm_set_epi64x(0, kFold64);
  const __m128i barrett = _mm_set_epi64x(kMu, kPoly);
  __m128i t = _mm_clmulepi64_si128(a0, fold1, 0x10);
  __m128i x = _mm_xor_si128(_mm_srli_si128(a0, 8), t);
  t = _mm_clmulepi64_si128(_mm_and_si128(x, low32), fold64, 0x00);
  x = _mm_xor_si128(_mm_srli_si128(x, 4), t);
  t = _mm_clmulepi64_si128(_mm_and_si128(x, low32), barrett, 0x10);
  t = _mm_clmulepi64_si128(_mm_and_si128(t, low32), barrett, 0x00);
  x = _mm_xor_si128(x, t);
  return static_cast<uint32_t>(_mm_cvtsi128_si32(_mm_srli_si128(x, 4)));
}

#endif  // SURVEYOR_CRC32_CLMUL

}  // namespace

uint32_t UpdateTable(uint32_t state, std::string_view data) {
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

#ifdef SURVEYOR_CRC32_CLMUL

bool HaveClmul() {
  static const bool have = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("pclmul") != 0;
  }();
  return have;
}

uint32_t UpdateClmul(uint32_t state, std::string_view data) {
  if (data.size() < 64) return UpdateTable(state, data);
  const size_t folded = data.size() & ~size_t{15};
  state = FoldClmul(state, data.data(), folded);
  return UpdateTable(state, data.substr(folded));
}

#else  // !SURVEYOR_CRC32_CLMUL

bool HaveClmul() { return false; }

uint32_t UpdateClmul(uint32_t state, std::string_view data) {
  return UpdateTable(state, data);
}

#endif  // SURVEYOR_CRC32_CLMUL

}  // namespace crc32_internal

uint32_t Crc32Update(uint32_t state, std::string_view data) {
  if (crc32_internal::HaveClmul()) {
    return crc32_internal::UpdateClmul(state, data);
  }
  return crc32_internal::UpdateTable(state, data);
}

namespace {

/// a * b modulo the polynomial, both bit-reflected as the checksum is: bit
/// 31 holds x^0 and bit 0 holds x^31.
constexpr uint32_t MultiplyModPoly(uint32_t a, uint32_t b) {
  uint32_t product = 0;
  for (uint32_t term = 1u << 31; term != 0; term >>= 1) {
    if ((a & term) != 0) product ^= b;
    b = (b & 1u) != 0 ? (b >> 1) ^ 0xEDB88320u : b >> 1;  // b *= x
  }
  return product;
}

/// kPowers[k] = x^(2^k) modulo the polynomial, reflected, for every k a
/// 64-bit byte count's bits reach: 8 * 2^63 = 2^66.
constexpr std::array<uint32_t, 67> MakePowers() {
  std::array<uint32_t, 67> powers{};
  powers[0] = 1u << 30;  // x^1
  for (size_t k = 1; k < powers.size(); ++k) {
    powers[k] = MultiplyModPoly(powers[k - 1], powers[k - 1]);
  }
  return powers;
}

constexpr std::array<uint32_t, 67> kPowers = MakePowers();

}  // namespace

uint32_t Crc32Combine(uint32_t crc_a, uint32_t crc_b, uint64_t length_b) {
  // x^(8 * length_b), one factor x^(2^k) per set bit of 8 * length_b.
  uint32_t shift = 1u << 31;  // x^0
  for (size_t k = 3; length_b != 0; length_b >>= 1, ++k) {
    if ((length_b & 1u) != 0) shift = MultiplyModPoly(kPowers[k], shift);
  }
  return MultiplyModPoly(shift, crc_a) ^ crc_b;
}

}  // namespace surveyor
