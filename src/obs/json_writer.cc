#include "obs/json_writer.h"

#include <algorithm>
#include <array>
#include <bit>
#include <charconv>
#include <cmath>
#include <cstring>

#include "util/hotpath.h"
#include "util/logging.h"

namespace surveyor {
namespace obs {
namespace {

bool NeedsEscape(unsigned char c) { return c < 0x20 || c == '"' || c == '\\'; }

uint64_t LoadWord(const char* p) {
  uint64_t word;
  std::memcpy(&word, p, sizeof(word));
  return word;
}

/// Whether any of the eight bytes of `word` needs an escape: the
/// bit tricks for "a byte below 0x20" and "a zero byte", the latter on the
/// word xor'ed with quotes and with backslashes. Each is exact about
/// whether some byte matches, which is all that is asked.
bool WordNeedsEscape(uint64_t word) {
  constexpr uint64_t kOnes = 0x0101010101010101ULL;
  constexpr uint64_t kHigh = 0x8080808080808080ULL;
  const auto has_zero = [](uint64_t v) { return (v - kOnes) & ~v & kHigh; };
  const uint64_t control = (word - 0x20 * kOnes) & ~word & kHigh;
  return (control | has_zero(word ^ ('"' * kOnes)) |
          has_zero(word ^ ('\\' * kOnes))) != 0;
}

/// 10^0 .. 10^19, every power of ten a uint64_t holds.
constexpr std::array<uint64_t, 20> kPow10 = [] {
  std::array<uint64_t, 20> powers{};
  uint64_t power = 1;
  for (uint64_t& entry : powers) {
    entry = power;
    power *= 10;  // wraps once, past the last entry
  }
  return powers;
}();

/// "00", "01", ..., "99", end to end.
constexpr char kDigitPairs[] =
    "0001020304050607080910111213141516171819"
    "2021222324252627282930313233343536373839"
    "4041424344454647484950515253545556575859"
    "6061626364656667686970717273747576777879"
    "8081828384858687888990919293949596979899";

/// printf("%.10g", value) for a finite `value` in [1e-10, 1), written to
/// `out`; returns its length. `value` is mantissa x 2^-shift exactly, so
/// mantissa x 10^k / 2^shift is value x 10^k exactly, in 128-bit integers.
/// For the k that puts the quotient in [10^9, 10^10), its ten digits,
/// rounded half-even on the exact remainder, are the ten significant
/// digits printf and std::to_chars print.
SURVEYOR_HOT_FUNCTION
size_t FormatUnitFraction(double value, char* out) {
  using U128 = unsigned __int128;
  const uint64_t bits = std::bit_cast<uint64_t>(value);
  const uint64_t mantissa =
      (bits & ((uint64_t{1} << 52) - 1)) | (uint64_t{1} << 52);
  const int shift = 1075 - static_cast<int>(bits >> 52);  // 53..86
  // value lies in [2^(52 - shift), 2^(53 - shift)), so its decimal
  // exponent is floor((52 - shift) log10 2) or one more (78913 / 2^18 is
  // log10 2 closely enough over this range), and at least -10.
  int exponent = std::max(((52 - shift) * 78913) >> 18, -10);
  U128 scaled = U128{mantissa} * kPow10[9 - exponent];
  if (scaled >= U128{kPow10[10]} << shift) {
    ++exponent;
    scaled = U128{mantissa} * kPow10[9 - exponent];
  }
  auto digits = static_cast<uint64_t>(scaled >> shift);
  const U128 remainder = scaled - (U128{digits} << shift);
  const U128 half = U128{1} << (shift - 1);
  if (remainder > half || (remainder == half && (digits & 1) != 0)) ++digits;
  if (digits == kPow10[10]) {  // rounded up to the next power of ten
    digits = kPow10[9];
    ++exponent;
  }
  char text[10];
  for (int i = 8; i >= 0; i -= 2) {
    const size_t pair = 2 * (digits % 100);
    digits /= 100;
    text[i] = kDigitPairs[pair];
    text[i + 1] = kDigitPairs[pair + 1];
  }
  size_t significant = 10;
  while (significant > 1 && text[significant - 1] == '0') --significant;

  char* p = out;
  if (exponent == 0) {  // it rounded up to 1
    *p++ = '1';
  } else if (exponent >= -4) {  // 0.000ddd: printf's fixed form
    *p++ = '0';
    *p++ = '.';
    for (int zeros = -exponent - 1; zeros > 0; --zeros) *p++ = '0';
    std::memcpy(p, text, significant);
    p += significant;
  } else {  // d.ddde-XX: printf's exponent form
    *p++ = text[0];
    if (significant > 1) {
      *p++ = '.';
      std::memcpy(p, text + 1, significant - 1);
      p += significant - 1;
    }
    *p++ = 'e';
    *p++ = '-';
    *p++ = static_cast<char>('0' + -exponent / 10);
    *p++ = static_cast<char>('0' + -exponent % 10);
  }
  return static_cast<size_t>(p - out);
}

}  // namespace

SURVEYOR_HOT_FUNCTION
size_t JsonEscapedSize(std::string_view text) {
  // A name rarely needs an escape, so a text of eight bytes or more is
  // first checked a word at a time, the last word overlapping the one
  // before it.
  if (text.size() >= 8) {
    size_t i = 0;
    while (i + 8 < text.size() && !WordNeedsEscape(LoadWord(text.data() + i))) {
      i += 8;
    }
    if (i + 8 >= text.size() &&
        !WordNeedsEscape(LoadWord(text.data() + text.size() - 8))) {
      return text.size();
    }
  }
  size_t size = text.size();
  for (const char byte : text) {
    const auto c = static_cast<unsigned char>(byte);
    if (!NeedsEscape(c)) continue;
    const bool short_form =
        c == '"' || c == '\\' || c == '\n' || c == '\r' || c == '\t';
    size += short_form ? 1 : 5;
  }
  return size;
}

SURVEYOR_HOT_FUNCTION
char* WriteJsonEscaped(std::string_view text, char* out) {
  static constexpr char kHex[] = "0123456789abcdef";
  if (text.empty()) return out;  // its data() may be null, memcpy's may not
  // Copies each run of bytes that need no escape in one call.
  size_t run = 0;
  for (size_t i = 0; i < text.size(); ++i) {
    const auto c = static_cast<unsigned char>(text[i]);
    if (!NeedsEscape(c)) continue;
    std::memcpy(out, text.data() + run, i - run);
    out += i - run;
    run = i + 1;
    *out++ = '\\';
    switch (c) {
      case '"':
        *out++ = '"';
        break;
      case '\\':
        *out++ = '\\';
        break;
      case '\n':
        *out++ = 'n';
        break;
      case '\r':
        *out++ = 'r';
        break;
      case '\t':
        *out++ = 't';
        break;
      default: {
        const char escape[5] = {'u', '0', '0', kHex[c >> 4], kHex[c & 0xf]};
        std::memcpy(out, escape, sizeof(escape));
        out += sizeof(escape);
      }
    }
  }
  std::memcpy(out, text.data() + run, text.size() - run);
  return out + (text.size() - run);
}

SURVEYOR_HOT_FUNCTION
void AppendJsonEscaped(std::string_view text, std::string* out) {
  const size_t start = out->size();
  out->resize(start + JsonEscapedSize(text));
  WriteJsonEscaped(text, out->data() + start);
}

SURVEYOR_HOT_FUNCTION
size_t FormatJsonNumber(double value, char* buffer) {
  if (value >= 1e-10 && value < 1.0) return FormatUnitFraction(value, buffer);
  if (!std::isfinite(value)) {
    std::memcpy(buffer, "null", 4);
    return 4;
  }
  char* const end = buffer + kJsonNumberBufferSize;
  std::to_chars_result result;
  // Integral values print without a fraction so counters stay readable.
  if (value == std::floor(value) && std::fabs(value) < 9.007199254740992e15) {
    result = std::to_chars(buffer, end, static_cast<long long>(value));
  } else {
    // The same digits as printf("%.10g").
    result = std::to_chars(buffer, end, value, std::chars_format::general, 10);
  }
  return static_cast<size_t>(result.ptr - buffer);
}

SURVEYOR_HOT_FUNCTION
void AppendJsonNumber(double value, std::string* out) {
  char buffer[kJsonNumberBufferSize];
  out->append(buffer, FormatJsonNumber(value, buffer));
}

std::string JsonNumber(double value) {
  std::string out;
  AppendJsonNumber(value, &out);
  return out;
}

void JsonWriter::Prefix() {
  if (after_key_) {
    after_key_ = false;
    return;
  }
  if (!has_element_.empty()) {
    if (has_element_.back()) out_ += ',';
    has_element_.back() = true;
  }
}

JsonWriter& JsonWriter::BeginObject() {
  Prefix();
  out_ += '{';
  has_element_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::EndObject() {
  SURVEYOR_CHECK(!has_element_.empty());
  has_element_.pop_back();
  out_ += '}';
  return *this;
}

JsonWriter& JsonWriter::BeginArray() {
  Prefix();
  out_ += '[';
  has_element_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::EndArray() {
  SURVEYOR_CHECK(!has_element_.empty());
  has_element_.pop_back();
  out_ += ']';
  return *this;
}

JsonWriter& JsonWriter::Key(std::string_view key) {
  Prefix();
  out_ += '"';
  AppendJsonEscaped(key, &out_);
  out_ += "\":";
  after_key_ = true;
  return *this;
}

JsonWriter& JsonWriter::Value(double value) {
  Prefix();
  AppendJsonNumber(value, &out_);
  return *this;
}

JsonWriter& JsonWriter::Value(int64_t value) {
  Prefix();
  out_ += std::to_string(value);
  return *this;
}

JsonWriter& JsonWriter::Value(uint64_t value) {
  Prefix();
  out_ += std::to_string(value);
  return *this;
}

JsonWriter& JsonWriter::Value(bool value) {
  Prefix();
  out_ += value ? "true" : "false";
  return *this;
}

JsonWriter& JsonWriter::RawValue(std::string_view json) {
  Prefix();
  out_ += json;
  return *this;
}

JsonWriter& JsonWriter::Value(std::string_view value) {
  Prefix();
  out_ += '"';
  AppendJsonEscaped(value, &out_);
  out_ += '"';
  return *this;
}

}  // namespace obs
}  // namespace surveyor
