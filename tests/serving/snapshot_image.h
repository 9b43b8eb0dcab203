#ifndef SURVEYOR_TESTS_SERVING_SNAPSHOT_IMAGE_H_
#define SURVEYOR_TESTS_SERVING_SNAPSHOT_IMAGE_H_

// Byte-level editing of serialized snapshot images, for tests that break
// them on purpose: read and overwrite little-endian fields, find a
// section's payload through the section table, and re-stamp the section
// CRCs after an edit so the structural checks decide, not the CRC.

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "serving/snapshot.h"
#include "util/crc32.h"

namespace surveyor {
namespace serving {
namespace image {

inline uint64_t Get(const std::string& bytes, size_t at, size_t width) {
  uint64_t v = 0;
  for (size_t i = 0; i < width; ++i) {
    v |= static_cast<uint64_t>(static_cast<unsigned char>(bytes[at + i]))
         << (8 * i);
  }
  return v;
}

inline uint32_t GetU32(const std::string& bytes, size_t at) {
  return static_cast<uint32_t>(Get(bytes, at, 4));
}

inline void Put(std::string* bytes, size_t at, uint64_t v, size_t width) {
  for (size_t i = 0; i < width; ++i) {
    (*bytes)[at + i] = static_cast<char>((v >> (8 * i)) & 0xFF);
  }
}

inline void PutU32(std::string* bytes, size_t at, uint32_t v) {
  Put(bytes, at, v, 4);
}

inline void PutU64(std::string* bytes, size_t at, uint64_t v) {
  Put(bytes, at, v, 8);
}

/// Section table entries that fit in the image (a mutated header may
/// claim more than there are).
inline size_t SectionCount(const std::string& bytes) {
  if (bytes.size() < kSnapshotHeaderSize) return 0;
  const size_t fit =
      (bytes.size() - kSnapshotHeaderSize) / kSnapshotSectionEntrySize;
  const size_t declared = GetU32(bytes, 12);
  return declared < fit ? declared : fit;
}

inline size_t SectionEntryAt(size_t i) {
  return kSnapshotHeaderSize + kSnapshotSectionEntrySize * i;
}

struct SectionSpan {
  size_t offset = 0;
  size_t size = 0;
};

/// The payload of section `id` per the section table; an empty span at 0
/// when the table lists no in-bounds section with that id.
inline SectionSpan FindSection(const std::string& bytes, uint32_t id) {
  for (size_t i = 0; i < SectionCount(bytes); ++i) {
    const size_t entry = SectionEntryAt(i);
    const uint64_t offset = Get(bytes, entry + 8, 8);
    const uint64_t size = Get(bytes, entry + 16, 8);
    if (GetU32(bytes, entry) == id && offset <= bytes.size() &&
        size <= bytes.size() - offset) {
      return {static_cast<size_t>(offset), static_cast<size_t>(size)};
    }
  }
  return {};
}

/// Recomputes the CRC of every section whose payload lies in the image.
inline void RestampCrcs(std::string* bytes) {
  for (size_t i = 0; i < SectionCount(*bytes); ++i) {
    const size_t entry = SectionEntryAt(i);
    const uint64_t offset = Get(*bytes, entry + 8, 8);
    const uint64_t size = Get(*bytes, entry + 16, 8);
    if (offset > bytes->size() || size > bytes->size() - offset) continue;
    PutU32(bytes, entry + 4,
           Crc32(std::string_view(*bytes).substr(offset, size)));
  }
}

}  // namespace image
}  // namespace serving
}  // namespace surveyor

#endif  // SURVEYOR_TESTS_SERVING_SNAPSHOT_IMAGE_H_
