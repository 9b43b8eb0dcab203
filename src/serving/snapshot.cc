#include "serving/snapshot.h"

#include <sched.h>

#include <algorithm>
#include <atomic>
#include <barrier>
#include <bit>
#include <cstddef>
#include <cstring>
#include <iterator>
#include <limits>
#include <optional>
#include <system_error>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "obs/trace.h"
#include "serving/snapshot_internal.h"
#include "util/crc32.h"
#include "util/durable_file.h"
#include "util/fault.h"
#include "util/string_util.h"

namespace surveyor {
namespace serving {
namespace {

constexpr uint32_t kEmptySlot = 0xFFFFFFFFu;

void AppendU32(std::string* out, uint32_t v) {
  char buf[4];
  for (int i = 0; i < 4; ++i) buf[i] = static_cast<char>((v >> (8 * i)) & 0xFF);
  out->append(buf, sizeof(buf));
}

void AppendU64(std::string* out, uint64_t v) {
  char buf[8];
  for (int i = 0; i < 8; ++i) buf[i] = static_cast<char>((v >> (8 * i)) & 0xFF);
  out->append(buf, sizeof(buf));
}

void AppendF64(std::string* out, double v) {
  AppendU64(out, std::bit_cast<uint64_t>(v));
}

void PadTo8(std::string* out) {
  while (out->size() % 8 != 0) out->push_back('\0');
}

// Little-endian decodes written out byte by byte: GCC and Clang fold the
// shift-or into one load on little-endian hosts, where a loop stays a loop
// at -O2. Every query and the validator's every record decode through
// these. They are forced inline because GCC's inliner sizes them before
// that folding: left to it, each record read would be a call or two,
// about a sixth of Open's validation pass.
[[gnu::always_inline]] inline uint32_t DecodeU32(const char* p) {
  const auto* b = reinterpret_cast<const unsigned char*>(p);
  return static_cast<uint32_t>(b[0]) | static_cast<uint32_t>(b[1]) << 8 |
         static_cast<uint32_t>(b[2]) << 16 | static_cast<uint32_t>(b[3]) << 24;
}

[[gnu::always_inline]] inline uint64_t DecodeU64(const char* p) {
  return static_cast<uint64_t>(DecodeU32(p)) |
         static_cast<uint64_t>(DecodeU32(p + 4)) << 32;
}

[[gnu::always_inline]] inline double DecodeF64(const char* p) {
  return std::bit_cast<double>(DecodeU64(p));
}

/// Record `i` of a block's run (Snapshot::ReadRecord, for other files).
[[gnu::always_inline]] inline Snapshot::RecordView DecodeRecord(
    const char* records, size_t i) {
  const char* p = records + i * kSnapshotRecordSize;
  Snapshot::RecordView view;
  view.posterior = DecodeF64(p);
  view.entity_index = DecodeU32(p + 8);
  view.polarity = static_cast<Polarity>(static_cast<int8_t>(p[12]));
  return view;
}

/// The u32 field `field` of entry `i` in a table of `width`-byte entries.
uint32_t Field(std::string_view table, size_t width, size_t i, size_t field) {
  return DecodeU32(table.data() + i * width + 4 * field);
}

/// The byte names are compared and hashed by: ASCII-lowercased, unsigned.
/// The writer's keys are ToLower'd with the same AsciiLower, so both sides
/// agree on every order and hash.
unsigned char Fold(char c) { return static_cast<unsigned char>(AsciiLower(c)); }

/// Compares `a` and `b` ASCII-lowercased, as unsigned bytes: <0, 0, >0.
int CompareFolded(std::string_view a, std::string_view b) {
  const size_t n = std::min(a.size(), b.size());
  for (size_t i = 0; i < n; ++i) {
    const unsigned char x = Fold(a[i]);
    const unsigned char y = Fold(b[i]);
    if (x != y) return x < y ? -1 : 1;
  }
  if (a.size() == b.size()) return 0;
  return a.size() < b.size() ? -1 : 1;
}

/// Fold applied to each byte of an 8-byte word at once: a byte in
/// 'A'..'Z' gains 0x20. The sums stay within their bytes because each
/// adds at most 0x3F to a byte below 0x80, and a byte of 0x80 or more is
/// never upper case.
uint64_t FoldWord(uint64_t word) {
  constexpr uint64_t kOnes = 0x0101010101010101ULL;
  constexpr uint64_t kHigh = 0x8080808080808080ULL;
  const uint64_t low = word & ~kHigh;
  const uint64_t from_a = low + (0x80 - 'A') * kOnes;     // top bit: >= 'A'
  const uint64_t past_z = low + (0x80 - 'Z' - 1) * kOnes;  // top bit: > 'Z'
  const uint64_t upper = from_a & ~past_z & ~word & kHigh;
  return word | (upper >> 2);
}

uint64_t LoadWord(const char* p) {
  uint64_t word;
  std::memcpy(&word, p, sizeof(word));
  return word;
}

/// Whether `a` and `b` are equal ASCII-lowercased: a slot probe's
/// confirmation, eight bytes a step.
bool EqualsFolded(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  size_t i = 0;
  for (; i + 8 <= a.size(); i += 8) {
    if (FoldWord(LoadWord(a.data() + i)) != FoldWord(LoadWord(b.data() + i))) {
      return false;
    }
  }
  for (; i < a.size(); ++i) {
    if (Fold(a[i]) != Fold(b[i])) return false;
  }
  return true;
}

/// Name `i` of a name table whose entries start {offset, length}.
std::string_view NameAt(std::string_view names, std::string_view table,
                        size_t width, uint32_t i) {
  return std::string_view(names.data() + Field(table, width, i, 0),
                          Field(table, width, i, 1));
}

/// The first index in [lo, hi) for which `before` is false; `before` must
/// hold on a prefix of the range (every table here is sorted for it).
template <typename Before>
uint32_t PartitionPoint(uint32_t lo, uint32_t hi, Before before) {
  while (lo < hi) {
    const uint32_t mid = lo + (hi - lo) / 2;
    if (before(mid)) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

/// The index a slot table leads `name` to, or kNone: a walk from the
/// name's home slot to the slot naming it or to the first empty one.
/// `slot_at(s)` reads slot s and `name_of(i)` name i; the table must hold
/// an empty slot, which Open proves of the entity slots and builds into
/// the others.
template <typename SlotAt, typename NameOf>
uint32_t Probe(std::string_view name, uint32_t home, uint32_t mask,
               SlotAt slot_at, NameOf name_of) {
  for (uint32_t slot = home;; slot = (slot + 1) & mask) {
    const uint32_t index = slot_at(slot);
    if (index == kEmptySlot) return Snapshot::kNone;
    if (EqualsFolded(name_of(index), name)) return index;
  }
}

/// Where the probe for `name` starts in a table of mask + 1 slots.
uint32_t HomeSlot(std::string_view name, uint32_t mask) {
  return static_cast<uint32_t>(SnapshotNameHash(name) & mask);
}

/// Probe of a slot table Open built; kNone from the empty table of a
/// snapshot that was never opened.
template <typename NameOf>
uint32_t ProbeBuilt(const std::vector<uint32_t>& slots, std::string_view name,
                    NameOf name_of) {
  if (slots.empty()) return Snapshot::kNone;
  const auto mask = static_cast<uint32_t>(slots.size() - 1);
  return Probe(
      name, HomeSlot(name, mask), mask,
      [&slots](uint32_t slot) { return slots[slot]; }, name_of);
}

/// A slot table over names 0..count-1 as Probe reads it: linear probing
/// from SnapshotNameHash & mask, at most half full.
template <typename NameOf>
std::vector<uint32_t> BuildSlots(uint32_t count, NameOf name_of) {
  std::vector<uint32_t> slots(std::bit_ceil(2 * size_t{count}), kEmptySlot);
  const size_t mask = slots.size() - 1;
  for (uint32_t i = 0; i < count; ++i) {
    size_t slot = SnapshotNameHash(name_of(i)) & mask;
    while (slots[slot] != kEmptySlot) slot = (slot + 1) & mask;
    slots[slot] = i;
  }
  return slots;
}

Status Invalid(const std::string& rule) {
  return Status::InvalidArgument("snapshot " + rule);
}

/// Records `spelling` in a lowercased name -> spelling table, keeping the
/// smallest spelling seen; returns the lowercased name.
std::string Intern(std::map<std::string, std::string>* names,
                   const std::string& spelling) {
  std::string lower = ToLower(spelling);
  auto [it, inserted] = names->try_emplace(lower, spelling);
  if (!inserted && spelling < it->second) it->second = spelling;
  return lower;
}

}  // namespace

uint64_t SnapshotNameHash(std::string_view name) {
  uint64_t hash = 0xcbf29ce484222325ULL;
  for (const char c : name) {
    hash ^= Fold(c);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

// --- Writer ---------------------------------------------------------------

std::string SnapshotWriter::InternEntity(const std::string& spelling,
                                         const std::string& type) {
  std::string lower = ToLower(spelling);
  auto [it, inserted] =
      entities_.try_emplace(lower, EntityInfo{spelling, type});
  if (!inserted) {
    if (spelling < it->second.spelling) it->second.spelling = spelling;
    if (type < it->second.type) it->second.type = type;
  }
  return lower;
}

Status SnapshotWriter::Add(const SnapshotOpinion& opinion) {
  if (opinion.entity.empty() || opinion.type.empty() ||
      opinion.property.empty()) {
    return Status::InvalidArgument(
        "snapshot opinion needs entity, type and property");
  }
  if (opinion.polarity == Polarity::kNeutral) {
    return Status::InvalidArgument("snapshot stores decisions, not neutral");
  }
  if (!(opinion.posterior >= 0.0 && opinion.posterior <= 1.0)) {
    return Status::InvalidArgument("posterior must be in [0, 1]");
  }
  const std::string type = Intern(&types_, opinion.type);
  const std::string property = Intern(&properties_, opinion.property);
  Block& block = blocks_[{type, property}];
  block.degraded = block.degraded || opinion.degraded;
  block.records[InternEntity(opinion.entity, type)] =
      Record{opinion.posterior, opinion.polarity};
  return Status::OK();
}

void SnapshotWriter::AddProvenance(const std::string& entity,
                                   const std::string& type,
                                   const std::string& property,
                                   std::vector<StatementRef> refs) {
  if (refs.empty()) return;
  const std::string entity_key =
      InternEntity(entity, Intern(&types_, type));
  provenance_[{entity_key, Intern(&properties_, property)}] = std::move(refs);
}

Status SnapshotWriter::AddResult(const PipelineResult& result,
                                 const KnowledgeBase& kb) {
  for (const PropertyTypeResult& pair : result.pairs) {
    const std::string& type_name = kb.TypeName(pair.evidence.type);
    for (size_t i = 0; i < pair.evidence.entities.size(); ++i) {
      if (pair.polarity[i] == Polarity::kNeutral) continue;
      SnapshotOpinion opinion;
      opinion.entity = kb.entity(pair.evidence.entities[i]).canonical_name;
      opinion.type = type_name;
      opinion.property = pair.evidence.property;
      opinion.posterior = pair.posterior[i];
      opinion.polarity = pair.polarity[i];
      opinion.degraded = pair.degraded;
      SURVEYOR_RETURN_IF_ERROR(Add(opinion));
    }
  }
  for (const auto& [key, refs] : result.provenance) {
    const Entity& entity = kb.entity(key.first);
    AddProvenance(entity.canonical_name, kb.TypeName(entity.most_notable_type),
                  key.second, refs);
  }
  return Status::OK();
}

std::string SnapshotWriter::Serialize() const {
  // Every table is a std::map keyed by lowercased name, so iteration order
  // is table order and a key's rank is its index.
  auto index_of = [](const auto& table) {
    std::map<std::string_view, uint32_t> index;
    uint32_t next = 0;
    for (const auto& entry : table) index.emplace(entry.first, next++);
    return index;
  };
  const auto type_index = index_of(types_);
  const auto property_index = index_of(properties_);
  const auto entity_index = index_of(entities_);
  std::vector<std::string_view> entity_spelling;
  entity_spelling.reserve(entities_.size());
  for (const auto& [lower, info] : entities_) {
    entity_spelling.push_back(info.spelling);
  }

  // --- blocks, records, postings ------------------------------------------
  struct PairRef {
    uint32_t entity, property, block, record;
  };
  struct Positive {
    double posterior;
    std::string_view spelling;
    uint32_t record;
  };
  std::vector<PairRef> pair_refs;
  std::string blocks, records, postings;
  uint32_t block_number = 0, record_begin = 0, posting_begin = 0;
  for (const auto& [key, block] : blocks_) {
    const uint32_t property = property_index.at(key.second);
    std::vector<Positive> positives;
    uint32_t r = 0;
    for (const auto& [entity, record] : block.records) {
      const uint32_t e = entity_index.at(entity);
      AppendF64(&records, record.posterior);
      AppendU32(&records, e);
      records.push_back(static_cast<char>(record.polarity));
      records.append(3, '\0');
      if (record.polarity == Polarity::kPositive) {
        positives.push_back({record.posterior, entity_spelling[e], r});
      }
      pair_refs.push_back({e, property, block_number, r});
      ++r;
    }
    // Scan order: posterior descending, then entity name ascending.
    std::sort(positives.begin(), positives.end(),
              [](const Positive& a, const Positive& b) {
                if (a.posterior != b.posterior) {
                  return a.posterior > b.posterior;
                }
                return a.spelling < b.spelling;
              });
    for (const Positive& positive : positives) {
      AppendU32(&postings, positive.record);
    }
    const auto positive_count = static_cast<uint32_t>(positives.size());
    for (const uint32_t field :
         {type_index.at(key.first), property, block.degraded ? 1u : 0u,
          record_begin, r, posting_begin, positive_count}) {
      AppendU32(&blocks, field);
    }
    record_begin += r;
    posting_begin += positive_count;
    ++block_number;
  }

  // --- pair runs: per (entity, property), the block of the type sorting
  // last (blocks are in (type, property) order, so the largest block).
  std::sort(pair_refs.begin(), pair_refs.end(),
            [](const PairRef& a, const PairRef& b) {
              return std::tie(a.entity, a.property, a.block) <
                     std::tie(b.entity, b.property, b.block);
            });
  std::string pairs;
  std::vector<uint32_t> run_length(entities_.size(), 0);
  for (size_t i = 0; i < pair_refs.size(); ++i) {
    const PairRef& ref = pair_refs[i];
    if (i + 1 < pair_refs.size() && pair_refs[i + 1].entity == ref.entity &&
        pair_refs[i + 1].property == ref.property) {
      continue;
    }
    AppendU32(&pairs, ref.property);
    AppendU32(&pairs, ref.block);
    AppendU32(&pairs, ref.record);
    ++run_length[ref.entity];
  }

  // --- names and name tables ----------------------------------------------
  std::string names;
  auto add_name = [&names](std::string* table, std::string_view spelling) {
    AppendU32(table, static_cast<uint32_t>(names.size()));
    AppendU32(table, static_cast<uint32_t>(spelling.size()));
    names += spelling;
  };
  std::string types, properties, entities;
  for (const auto& [lower, spelling] : types_) add_name(&types, spelling);
  for (const auto& [lower, spelling] : properties_) {
    add_name(&properties, spelling);
  }
  uint32_t pair_begin = 0, e = 0;
  for (const auto& [lower, info] : entities_) {
    add_name(&entities, info.spelling);
    AppendU32(&entities, type_index.at(info.type));
    AppendU32(&entities, pair_begin);
    pair_begin += run_length[e++];
  }

  // --- entity slots: linear probing, load <= 0.5 ---------------------------
  const size_t slot_count = std::bit_ceil(2 * entities_.size());
  std::vector<uint32_t> slots(slot_count, kEmptySlot);
  e = 0;
  for (const auto& [lower, info] : entities_) {
    size_t slot = SnapshotNameHash(lower) & (slot_count - 1);
    while (slots[slot] != kEmptySlot) slot = (slot + 1) & (slot_count - 1);
    slots[slot] = e++;
  }
  std::string slot_table;
  for (const uint32_t slot : slots) AppendU32(&slot_table, slot);

  // --- provenance -----------------------------------------------------------
  std::string provenance, refs;
  uint32_t ref_begin = 0;
  for (const auto& [key, list] : provenance_) {
    AppendU32(&provenance, entity_index.at(key.first));
    AppendU32(&provenance, property_index.at(key.second));
    AppendU32(&provenance, ref_begin);
    AppendU32(&provenance, static_cast<uint32_t>(list.size()));
    ref_begin += static_cast<uint32_t>(list.size());
    for (const StatementRef& ref : list) {
      AppendU64(&refs, static_cast<uint64_t>(ref.doc_id));
      AppendU32(&refs, static_cast<uint32_t>(ref.sentence_index));
      AppendU32(&refs, ref.positive ? 1 : 0);
    }
  }

  std::string meta;
  AppendU64(&meta, record_begin);
  AppendU64(&meta, blocks_.size());
  AppendU32(&meta, static_cast<uint32_t>(label_.size()));
  meta += label_;

  // --- assembly: sections 1..12 in id order ---------------------------------
  const std::string* sections[kSnapshotSectionCount] = {
      &meta,   &names,   &types,    &properties, &entities,   &slot_table,
      &blocks, &records, &postings, &pairs,      &provenance, &refs};
  const size_t table_end =
      kSnapshotHeaderSize + kSnapshotSectionEntrySize * kSnapshotSectionCount;
  std::string table;
  std::string payload;  // everything after the section table
  for (uint32_t i = 0; i < kSnapshotSectionCount; ++i) {
    PadTo8(&payload);
    AppendU32(&table, i + 1);
    AppendU32(&table, Crc32(*sections[i]));
    AppendU64(&table, table_end + payload.size());
    AppendU64(&table, sections[i]->size());
    payload += *sections[i];
  }
  PadTo8(&payload);

  std::string out;
  out.reserve(table_end + payload.size());
  out.append(kSnapshotMagic, sizeof(kSnapshotMagic));
  AppendU32(&out, kSnapshotFormatVersion);
  AppendU32(&out, kSnapshotSectionCount);
  AppendU64(&out, table_end + payload.size());  // total file size
  AppendU64(&out, 0);                           // reserved
  out += table;
  out += payload;
  return out;
}

Status SnapshotWriter::WriteToFile(const std::string& path) const {
  // Publish atomically: a crash (or a full disk) mid-write must never
  // leave a torn file at the final path — the serving tier hot-swaps off
  // this file while queries are in flight, and a restart trusts whatever
  // it finds there. WriteFileDurable reports short writes as errors
  // instead of silently truncating.
  return WriteFileDurable(path, Serialize());
}

// --- Reader ---------------------------------------------------------------

Snapshot::RecordView Snapshot::ReadRecord(const char* records, size_t i) {
  return DecodeRecord(records, i);
}

uint32_t Snapshot::ReadPosting(const char* postings, size_t i) {
  return DecodeU32(postings + 4 * i);
}

std::string_view Snapshot::TypeName(uint32_t index) const {
  return NameAt(names_, types_, kSnapshotNameEntrySize, index);
}

std::string_view Snapshot::PropertyName(uint32_t index) const {
  return NameAt(names_, properties_, kSnapshotNameEntrySize, index);
}

std::string_view Snapshot::EntityName(uint32_t index) const {
  return NameAt(names_, entities_, kSnapshotEntityEntrySize, index);
}

uint32_t Snapshot::EntityType(uint32_t index) const {
  return Field(entities_, kSnapshotEntityEntrySize, index, 2);
}

Snapshot::BlockView Snapshot::Block(uint32_t index) const {
  auto field = [this, index](size_t f) {
    return Field(blocks_, kSnapshotBlockEntrySize, index, f);
  };
  BlockView view;
  view.type_index = field(0);
  view.property_index = field(1);
  view.degraded = field(2) != 0;
  view.records = records_.data() + size_t{field(3)} * kSnapshotRecordSize;
  view.record_count = field(4);
  view.postings = postings_.data() + size_t{field(5)} * 4;
  view.positive_count = field(6);
  return view;
}

void Snapshot::BuildNameSlots() {
  type_slots_ = BuildSlots(num_types_, [this](uint32_t t) {
    return TypeName(t);
  });
  property_slots_ = BuildSlots(num_properties_, [this](uint32_t p) {
    return PropertyName(p);
  });
}

uint32_t Snapshot::FindType(std::string_view name) const {
  return ProbeBuilt(type_slots_, name,
                    [this](uint32_t t) { return TypeName(t); });
}

uint32_t Snapshot::FindProperty(std::string_view name) const {
  return ProbeBuilt(property_slots_, name,
                    [this](uint32_t p) { return PropertyName(p); });
}

uint32_t Snapshot::EntitySlot(uint32_t slot) const {
  return DecodeU32(slots_.data() + 4 * size_t{slot});
}

uint32_t Snapshot::ProbeEntity(std::string_view name, uint32_t home) const {
  // Open proved every entity reachable from its home slot and at least
  // one slot empty, so this probe ends.
  return Probe(
      name, home, slot_mask_,
      [this](uint32_t slot) { return EntitySlot(slot); },
      [this](uint32_t e) { return EntityName(e); });
}

uint32_t Snapshot::FindEntity(std::string_view name) const {
  return ProbeEntity(name, HomeSlot(name, slot_mask_));
}

std::pair<uint32_t, uint32_t> Snapshot::EntityPrefixRange(
    std::string_view prefix) const {
  // Names are sorted lowercased, so their first |prefix| bytes are too.
  auto head_order = [this, prefix](uint32_t entity) {
    const std::string_view name = EntityName(entity);
    return CompareFolded(name.substr(0, std::min(name.size(), prefix.size())),
                         prefix);
  };
  return {PartitionPoint(0, num_entities_,
                         [&](uint32_t e) { return head_order(e) < 0; }),
          PartitionPoint(0, num_entities_,
                         [&](uint32_t e) { return head_order(e) <= 0; })};
}

uint32_t Snapshot::FindBlock(uint32_t type, uint32_t property) const {
  auto key = [this](uint32_t b) {
    return std::pair(Field(blocks_, kSnapshotBlockEntrySize, b, 0),
                     Field(blocks_, kSnapshotBlockEntrySize, b, 1));
  };
  const uint32_t b = PartitionPoint(0, num_blocks_, [&](uint32_t mid) {
    return key(mid) < std::pair(type, property);
  });
  return b < num_blocks_ && key(b) == std::pair(type, property) ? b : kNone;
}

uint32_t Snapshot::FindRecord(const BlockView& block, uint32_t entity) {
  const uint32_t r = PartitionPoint(0, block.record_count, [&](uint32_t mid) {
    return ReadRecord(block.records, mid).entity_index < entity;
  });
  if (r == block.record_count) return kNone;
  return ReadRecord(block.records, r).entity_index == entity ? r : kNone;
}

Snapshot::RecordLoc Snapshot::FindPair(uint32_t entity,
                                       uint32_t property) const {
  if (entity >= num_entities_) return {};
  const uint32_t end =
      entity + 1 < num_entities_
          ? Field(entities_, kSnapshotEntityEntrySize, entity + 1, 3)
          : num_pairs_;
  auto key = [this](uint32_t k) {
    return Field(pairs_, kSnapshotPairEntrySize, k, 0);
  };
  const uint32_t k = PartitionPoint(
      Field(entities_, kSnapshotEntityEntrySize, entity, 3), end,
      [&](uint32_t mid) { return key(mid) < property; });
  if (k == end || key(k) != property) return {};
  return {Field(pairs_, kSnapshotPairEntrySize, k, 1),
          Field(pairs_, kSnapshotPairEntrySize, k, 2)};
}

void Snapshot::FindPairs(const NamePair* pairs, size_t count,
                         uint32_t* entities, RecordLoc* locs) const {
  // Each pass reads what the pass before it requested: the home slot, the
  // first entity there, and that entity's name and pair run. A probe past
  // the home slot, or to another entity, waits as FindEntity would.
  uint32_t home[kPairGroup];
  for (size_t i = 0; i < count; ++i) {
    home[i] = HomeSlot(pairs[i].first, slot_mask_);
    __builtin_prefetch(slots_.data() + 4 * size_t{home[i]});
  }
  for (size_t i = 0; i < count; ++i) {
    const uint32_t entity = EntitySlot(home[i]);
    if (entity == kEmptySlot) continue;
    __builtin_prefetch(entities_.data() +
                       size_t{entity} * kSnapshotEntityEntrySize);
  }
  for (size_t i = 0; i < count; ++i) {
    const uint32_t entity = EntitySlot(home[i]);
    if (entity == kEmptySlot) continue;
    __builtin_prefetch(EntityName(entity).data());
    __builtin_prefetch(
        pairs_.data() +
        size_t{Field(entities_, kSnapshotEntityEntrySize, entity, 3)} *
            kSnapshotPairEntrySize);
  }
  for (size_t i = 0; i < count; ++i) {
    entities[i] = ProbeEntity(pairs[i].first, home[i]);
    locs[i] = entities[i] == kNone
                  ? RecordLoc{}
                  : FindPair(entities[i], FindProperty(pairs[i].second));
    if (locs[i].block == kNone) continue;
    __builtin_prefetch(Block(locs[i].block).records +
                       size_t{locs[i].record} * kSnapshotRecordSize);
  }
}

Snapshot::ProvenanceKey Snapshot::ProvenanceKeyAt(size_t i) const {
  return {Field(provenance_, kSnapshotProvenanceEntrySize, i, 0),
          Field(provenance_, kSnapshotProvenanceEntrySize, i, 1)};
}

Snapshot::ProvenanceRange Snapshot::Provenance(uint32_t entity,
                                               uint32_t property) const {
  auto key = [this](uint32_t i) {
    const ProvenanceKey k = ProvenanceKeyAt(i);
    return std::pair(k.entity_index, k.property_index);
  };
  const uint32_t i = PartitionPoint(0, num_provenance_, [&](uint32_t mid) {
    return key(mid) < std::pair(entity, property);
  });
  if (i == num_provenance_ || key(i) != std::pair(entity, property)) {
    return {};
  }
  const uint32_t begin =
      Field(provenance_, kSnapshotProvenanceEntrySize, i, 2);
  return {refs_.data() + size_t{begin} * kSnapshotRefSize,
          Field(provenance_, kSnapshotProvenanceEntrySize, i, 3)};
}

StatementRef Snapshot::ProvenanceRange::operator[](size_t i) const {
  const char* p = refs_ + i * kSnapshotRefSize;
  StatementRef ref;
  ref.doc_id = static_cast<int64_t>(DecodeU64(p));
  ref.sentence_index = static_cast<int>(DecodeU32(p + 8));
  ref.positive = DecodeU32(p + 12) != 0;
  return ref;
}

Status Snapshot::Open(const std::string& path) {
  SURVEYOR_SPAN("snapshot.open");
  if (SURVEYOR_FAULT("snapshot_read")) {
    return Status::Internal("injected fault at snapshot_read: " + path);
  }
  MmapFile file;
  SURVEYOR_RETURN_IF_ERROR(file.Open(path));
  // Swap in only after full validation: a failed Open leaves the previous
  // snapshot (if any) untouched.
  Snapshot fresh;
  fresh.file_ = std::move(file);
  SURVEYOR_RETURN_IF_ERROR(fresh.Validate(fresh.file_.data(), 0));
  fresh.BuildNameSlots();
  *this = std::move(fresh);
  return Status::OK();
}

// --- Validation -------------------------------------------------------------
// Everything a query assumes is proved here, once, so the query path reads
// the mapping without a bounds check: every index, offset and count is in
// range, and every order a binary search, slot probe or slice relies on
// holds. Each failure names its rule.
//
// Validate reads the header and the section table on the calling thread,
// then runs the content passes. A pass runs its validators over `parts`
// index ranges each: the caller and parts - 1 threads, started once per
// Open, claim the ranges in walk order, and all meet at a barrier after
// the pass, where the last to arrive reduces it and runs the sequential
// checks that follow it. A pass starts only after every earlier one
// passed, and holds validators that read only what earlier passes proved.
// The failure reported is the one the sequential walk meets first:
// validators in walk order, then ranges in index order, each range
// stopping at its first failure. A range checks its first entry against
// the entry before it, which an earlier range owns; where that entry is
// broken, the earlier range fails first and its failure is the one
// reported.

namespace snapshot_internal {

int UsableCpus() {
  cpu_set_t cpus;
  CPU_ZERO(&cpus);
  if (sched_getaffinity(0, sizeof(cpus), &cpus) != 0) return 1;
  return std::max(1, CPU_COUNT(&cpus));
}

int DefaultParts(uint64_t opinions) {
  const uint64_t by_size = opinions / kOpinionsPerPart;
  const auto cpus = static_cast<uint64_t>(UsableCpus());
  return static_cast<int>(std::clamp<uint64_t>(by_size, 1, cpus));
}

Status ValidateImage(std::string_view image, int parts) {
  Snapshot snapshot;
  return snapshot.Validate(image, std::max(1, parts));
}

}  // namespace snapshot_internal

namespace {

/// The validators in walk order.
enum Check : size_t {
  kCheckCrc,
  kCheckTypeNames,
  kCheckPropertyNames,
  kCheckEntityNames,
  kCheckSlotScan,
  kCheckSlotProbes,
  kCheckBlocks,
  kCheckPairs,
  kCheckProvenance,
  kCheckEnd,
};

/// Pass p runs the validators [kPassBegin[p], kPassBegin[p + 1]): the
/// CRCs; the names and the slot scan; the slot probes, which need the
/// scan's count, and the blocks, which compare entity names; the pairs,
/// which need the decoded blocks, and the provenance.
constexpr size_t kPassBegin[] = {kCheckCrc, kCheckTypeNames, kCheckSlotProbes,
                                 kCheckPairs, kCheckEnd};
constexpr size_t kPassCount = std::size(kPassBegin) - 1;

/// Start of range `part` of `parts` near-equal ranges over [0, n).
uint64_t RangeBegin(uint64_t n, size_t part, size_t parts) {
  return n * part / parts;
}

/// Where the last entry of `table` ends, when its u32 fields `start` and
/// `start + 1` hold where it begins and how many it spans: the end of the
/// walk's running sum once every entry began where the one before it
/// ended. 0 for an empty table.
uint64_t EndOfLast(std::string_view table, size_t width, size_t start) {
  const size_t count = table.size() / width;
  if (count == 0) return 0;
  const uint64_t begin = Field(table, width, count - 1, start);
  return begin + Field(table, width, count - 1, start + 1);
}

}  // namespace

/// What the section table lists, up to its first broken entry.
struct SectionTable {
  std::string_view payloads[kSnapshotSectionCount];
  uint32_t crcs[kSnapshotSectionCount] = {};
  /// Entries before the first broken one.
  uint32_t listed = 0;
  /// The first broken entry's failure. The walk meets it after the CRC
  /// checks of the listed sections, so the CRC pass reports it.
  Status broken;
};

class Snapshot::Validation {
 public:
  Validation(Snapshot* snapshot, const SectionTable& table, size_t parts)
      : snapshot_(*snapshot),
        table_(table),
        parts_(parts),
        crc_pieces_(parts * kSnapshotSectionCount),
        slot_counts_(parts),
        block_begin_(parts + 1),
        sync_(static_cast<std::ptrdiff_t>(parts), Completion{this}) {
    StartPass(0);
  }
  Validation(const Validation&) = delete;
  Validation& operator=(const Validation&) = delete;

  /// Runs every pass on parts - 1 threads and the caller; returns once
  /// they are joined.
  Status Run() {
    {
      std::vector<std::jthread> helpers;
      helpers.reserve(parts_ - 1);
      for (size_t t = 1; t < parts_; ++t) {
        try {
          helpers.emplace_back([this] { Participate(/*helper=*/true); });
        } catch (const std::system_error&) {
          // No thread: the others claim its ranges, and the barrier
          // stops counting it.
          sync_.arrive_and_drop();
        }
      }
      Participate(/*helper=*/false);
    }
    return result_;
  }

 private:
  struct Completion {
    Validation* validation;
    void operator()() noexcept { validation->FinishPass(); }
  };
  /// One range's share of one section's CRC.
  struct CrcPiece {
    uint32_t crc = 0;
    uint64_t size = 0;
  };
  struct SlotCount {
    uint32_t occupied = 0;
    bool out_of_range = false;
  };

  /// Claims ranges pass by pass. Only the caller reads the result, so a
  /// helper leaves after its last pass without waiting at the barrier:
  /// by the time Run joins it, it has mostly exited. noexcept: the others
  /// would wait at the barrier forever for a participant an exception
  /// (a failed allocation) took away, so one ends the process instead.
  void Participate(bool helper) noexcept {
    for (;;) {
      for (size_t unit = Claim(); unit < units_; unit = Claim()) {
        statuses_[unit] = RunRange(unit);
      }
      if (helper && pass_ + 1 == kPassCount) {
        static_cast<void>(sync_.arrive());
        return;
      }
      sync_.arrive_and_wait();
      if (done_) return;
    }
  }

  size_t Claim() { return next_unit_.fetch_add(1, std::memory_order_relaxed); }

  void StartPass(size_t pass) {
    pass_ = pass;
    units_ = (kPassBegin[pass + 1] - kPassBegin[pass]) * parts_;
    statuses_.assign(units_, Status::OK());
    next_unit_.store(0, std::memory_order_relaxed);
  }

  /// The barrier's completion: runs on the last thread to arrive, before
  /// any is released.
  void FinishPass() {
    const size_t first = kPassBegin[pass_];
    const size_t last = kPassBegin[pass_ + 1];
    size_t unit = 0;
    for (size_t check = first; check < last; ++check) {
      for (size_t part = 0; part < parts_; ++part, ++unit) {
        if (!statuses_[unit].ok()) return Stop(std::move(statuses_[unit]));
      }
      Status concluded = Conclude(static_cast<Check>(check));
      if (!concluded.ok()) return Stop(std::move(concluded));
    }
    if (pass_ + 1 == kPassCount) return Stop(Status::OK());
    StartPass(pass_ + 1);
  }

  void Stop(Status result) {
    result_ = std::move(result);
    done_ = true;
  }

  /// Runs range `unit % parts` of the pass's validator `unit / parts`.
  Status RunRange(size_t unit) {
    const auto check = static_cast<Check>(kPassBegin[pass_] + unit / parts_);
    const size_t part = unit % parts_;
    const Snapshot& s = snapshot_;
    auto begin = [&](uint64_t n) {
      return static_cast<uint32_t>(RangeBegin(n, part, parts_));
    };
    auto end = [&](uint64_t n) {
      return static_cast<uint32_t>(RangeBegin(n, part + 1, parts_));
    };
    switch (check) {
      case kCheckCrc:
        ChecksumRange(part);
        return Status::OK();
      case kCheckTypeNames:
        return s.ValidateNames(s.types_, kSnapshotNameEntrySize, "type",
                               begin(s.num_types_), end(s.num_types_));
      case kCheckPropertyNames:
        return s.ValidateNames(s.properties_, kSnapshotNameEntrySize,
                               "property", begin(s.num_properties_),
                               end(s.num_properties_));
      case kCheckEntityNames:
        return s.ValidateNames(s.entities_, kSnapshotEntityEntrySize,
                               "entity", begin(s.num_entities_),
                               end(s.num_entities_));
      case kCheckSlotScan:
        s.ScanEntitySlots(begin(num_slots_), end(num_slots_),
                          &slot_counts_[part].occupied,
                          &slot_counts_[part].out_of_range);
        return Status::OK();
      case kCheckSlotProbes:
        return s.ValidateEntitySlots(begin(s.num_entities_),
                                     end(s.num_entities_));
      case kCheckBlocks:
        return s.ValidateBlocks(block_begin_[part], block_begin_[part + 1],
                                decoded_.data());
      case kCheckPairs:
        return s.ValidatePairs(begin(s.num_entities_), end(s.num_entities_),
                               decoded_.data());
      case kCheckProvenance:
        return s.ValidateProvenance(begin(s.num_provenance_),
                                    end(s.num_provenance_));
      case kCheckEnd:
        break;
    }
    return Status::OK();
  }

  /// The CRC of this range's bytes of each listed section, the sections'
  /// payloads taken end to end.
  void ChecksumRange(size_t part) {
    uint64_t total = 0;
    for (uint32_t i = 0; i < table_.listed; ++i) {
      total += table_.payloads[i].size();
    }
    const uint64_t begin = RangeBegin(total, part, parts_);
    const uint64_t end = RangeBegin(total, part + 1, parts_);
    uint64_t section_begin = 0;
    for (uint32_t i = 0; i < table_.listed; ++i) {
      const std::string_view payload = table_.payloads[i];
      const uint64_t from = std::max(begin, section_begin);
      const uint64_t to = std::min(end, section_begin + payload.size());
      if (from < to) {
        CrcPiece& piece = crc_pieces_[part * kSnapshotSectionCount + i];
        piece.size = to - from;
        piece.crc = Crc32(payload.substr(from - section_begin, piece.size));
      }
      section_begin += payload.size();
    }
  }

  /// The sequential checks the walk makes after `check`'s ranges.
  Status Conclude(Check check) {
    switch (check) {
      case kCheckCrc:
        return ConcludeCrc();
      case kCheckSlotScan:
        return ConcludeSlotScan();
      case kCheckBlocks:
        return ConcludeBlocks();
      case kCheckPairs:
        return ConcludePairs();
      case kCheckProvenance:
        return ConcludeProvenance();
      default:
        return Status::OK();
    }
  }

  /// Joins each listed section's pieces and compares its CRC, then reads
  /// the counts the content passes need.
  Status ConcludeCrc() {
    for (uint32_t i = 0; i < table_.listed; ++i) {
      uint32_t crc = 0;  // the CRC of no bytes
      for (size_t part = 0; part < parts_; ++part) {
        const CrcPiece& piece = crc_pieces_[part * kSnapshotSectionCount + i];
        if (piece.size != 0) crc = Crc32Combine(crc, piece.crc, piece.size);
      }
      if (crc != table_.crcs[i]) {
        return Status::Internal("snapshot section " + std::to_string(i + 1) +
                                " failed its CRC check (corrupt file)");
      }
    }
    if (!table_.broken.ok()) return table_.broken;
    Snapshot& s = snapshot_;
    SURVEYOR_RETURN_IF_ERROR(s.ReadCounts(table_.payloads, &num_slots_));

    // Block ranges hold near-equal shares of the records, which is where
    // a block's work is. The block starts they are found by are not
    // checked yet, so they only balance the ranges, which tile [0, blocks)
    // whatever the starts hold.
    decoded_.resize(s.num_blocks_);
    block_begin_.front() = 0;
    block_begin_.back() = s.num_blocks_;
    for (size_t part = 1; part < parts_; ++part) {
      const uint64_t share = RangeBegin(s.num_opinions_, part, parts_);
      const uint32_t begin = PartitionPoint(0, s.num_blocks_, [&](uint32_t b) {
        return Field(s.blocks_, kSnapshotBlockEntrySize, b, 3) < share;
      });
      block_begin_[part] = std::max(block_begin_[part - 1], begin);
    }
    return Status::OK();
  }

  Status ConcludeSlotScan() {
    Snapshot& s = snapshot_;
    if (!std::has_single_bit(num_slots_) ||
        num_slots_ < 2 * uint64_t{s.num_entities_}) {
      return Invalid(
          "entity slot table is not a power of two of at least 2 x entities "
          "slots");
    }
    s.slot_mask_ = num_slots_ - 1;
    uint32_t occupied = 0;
    for (const SlotCount& count : slot_counts_) {
      if (count.out_of_range) return Invalid("entity slot out of range");
      occupied += count.occupied;
    }
    if (occupied != s.num_entities_) {
      return Invalid("entity slot table holds " + std::to_string(occupied) +
                     " entities, the entity table " +
                     std::to_string(s.num_entities_));
    }
    return Status::OK();
  }

  Status ConcludeBlocks() {
    const Snapshot& s = snapshot_;
    const size_t width = kSnapshotBlockEntrySize;
    const uint64_t record_end = EndOfLast(s.blocks_, width, 3);
    const uint64_t posting_end = EndOfLast(s.blocks_, width, 5);
    if (record_end != s.num_opinions_ || posting_end != s.num_postings_) {
      return Invalid("blocks do not cover the records and postings sections");
    }
    return Status::OK();
  }

  Status ConcludePairs() {
    // With no entities there are no runs for the ranges to check.
    const Snapshot& s = snapshot_;
    if (s.num_entities_ == 0 && s.num_pairs_ != 0) {
      return Invalid("entity pair runs out of range or order");
    }
    return Status::OK();
  }

  Status ConcludeProvenance() {
    const Snapshot& s = snapshot_;
    const size_t width = kSnapshotProvenanceEntrySize;
    if (EndOfLast(s.provenance_, width, 2) != s.num_refs_) {
      return Invalid("provenance refs out of bounds");
    }
    return Status::OK();
  }

  Snapshot& snapshot_;
  const SectionTable& table_;
  const size_t parts_;
  uint32_t num_slots_ = 0;
  /// Range-major: range r's piece of section i at r * sections + i.
  std::vector<CrcPiece> crc_pieces_;
  std::vector<SlotCount> slot_counts_;
  /// Range r of the blocks is [block_begin_[r], block_begin_[r + 1]).
  std::vector<uint32_t> block_begin_;
  std::vector<BlockView> decoded_;

  // Written by the completion while every participant waits at the
  // barrier, so plain members: the barrier orders them.
  size_t pass_ = 0;
  /// The ranges of the pass's validators, validator-major.
  size_t units_ = 0;
  std::vector<Status> statuses_;
  bool done_ = false;
  Status result_;
  std::atomic<size_t> next_unit_{0};
  std::barrier<Completion> sync_;
};

Status Snapshot::Validate(std::string_view file, int parts) {
  if (file.size() < kSnapshotHeaderSize) {
    return Status::InvalidArgument("snapshot too small for a header");
  }
  if (std::memcmp(file.data(), kSnapshotMagic, sizeof(kSnapshotMagic)) != 0) {
    return Status::InvalidArgument("not an opinion snapshot (bad magic)");
  }
  const uint32_t version = DecodeU32(file.data() + 8);
  if (version != kSnapshotFormatVersion) {
    return Status::InvalidArgument(
        "snapshot format version " + std::to_string(version) +
        " unsupported (this build reads version " +
        std::to_string(kSnapshotFormatVersion) + ")");
  }
  const uint32_t section_count = DecodeU32(file.data() + 12);
  const uint64_t declared_size = DecodeU64(file.data() + 16);
  if (declared_size != file.size()) {
    return Status::InvalidArgument(
        "snapshot truncated: header declares " +
        std::to_string(declared_size) + " bytes, file has " +
        std::to_string(file.size()));
  }
  if (section_count != kSnapshotSectionCount) {
    return Invalid("section count " + std::to_string(section_count) +
                   " is not " + std::to_string(kSnapshotSectionCount));
  }
  const size_t table_end =
      kSnapshotHeaderSize + kSnapshotSectionEntrySize * section_count;
  if (file.size() < table_end) {
    return Status::InvalidArgument("snapshot truncated in section table");
  }

  SectionTable table;
  for (; table.listed < section_count; ++table.listed) {
    const uint32_t i = table.listed;
    const char* entry =
        file.data() + kSnapshotHeaderSize + kSnapshotSectionEntrySize * i;
    const uint32_t id = DecodeU32(entry);
    const uint64_t offset = DecodeU64(entry + 8);
    const uint64_t size = DecodeU64(entry + 16);
    if (id != i + 1) {
      table.broken = Invalid("section table must list sections 1.." +
                             std::to_string(kSnapshotSectionCount) +
                             " in order");
      break;
    }
    if (offset < table_end || offset > file.size() ||
        size > file.size() - offset) {
      table.broken = Status::InvalidArgument("snapshot section out of bounds");
      break;
    }
    table.payloads[i] = file.substr(offset, size);
    table.crcs[i] = DecodeU32(entry + 4);
  }
  if (parts == 0) {
    const std::string_view records = table.payloads[kSectionRecords - 1];
    const uint64_t opinions = records.size() / kSnapshotRecordSize;
    parts = snapshot_internal::DefaultParts(opinions);
  }
  Validation validation(this, table, static_cast<size_t>(parts));
  return validation.Run();
}

Status Snapshot::ReadCounts(
    const std::string_view (&payloads)[kSnapshotSectionCount],
    uint32_t* num_slots) {
  // --- section sizes give the table counts --------------------------------
  const struct {
    uint32_t id;
    size_t width;
    const char* name;
    std::string_view* view;
    uint32_t* count;
  } tables[] = {
      {kSectionTypes, kSnapshotNameEntrySize, "types", &types_, &num_types_},
      {kSectionProperties, kSnapshotNameEntrySize, "properties", &properties_,
       &num_properties_},
      {kSectionEntities, kSnapshotEntityEntrySize, "entities", &entities_,
       &num_entities_},
      {kSectionEntitySlots, 4, "entity slots", &slots_, num_slots},
      {kSectionBlocks, kSnapshotBlockEntrySize, "blocks", &blocks_,
       &num_blocks_},
      {kSectionRecords, kSnapshotRecordSize, "records", &records_,
       &num_opinions_},
      {kSectionPostings, 4, "postings", &postings_, &num_postings_},
      {kSectionPairs, kSnapshotPairEntrySize, "pairs", &pairs_, &num_pairs_},
      {kSectionProvenance, kSnapshotProvenanceEntrySize, "provenance",
       &provenance_, &num_provenance_},
      {kSectionRefs, kSnapshotRefSize, "refs", &refs_, &num_refs_},
  };
  for (const auto& table : tables) {
    const std::string_view body = payloads[table.id - 1];
    if (body.size() % table.width != 0 ||
        body.size() / table.width > std::numeric_limits<uint32_t>::max()) {
      return Invalid(std::string(table.name) +
                     " section is not a whole number of entries");
    }
    *table.view = body;
    *table.count = static_cast<uint32_t>(body.size() / table.width);
  }
  names_ = payloads[kSectionNames - 1];

  // --- meta ---------------------------------------------------------------
  const std::string_view meta = payloads[kSectionMeta - 1];
  if (meta.size() < 20 || meta.size() - 20 != DecodeU32(meta.data() + 16)) {
    return Invalid("meta section is malformed");
  }
  label_ = meta.substr(20);
  const uint64_t meta_opinions = DecodeU64(meta.data());
  const uint64_t meta_blocks = DecodeU64(meta.data() + 8);
  if (meta_opinions != num_opinions_ || meta_blocks != num_blocks_) {
    return Invalid("meta count mismatch: meta says " +
                   std::to_string(meta_opinions) + " opinions in " +
                   std::to_string(meta_blocks) + " blocks, the sections hold " +
                   std::to_string(num_opinions_) + " in " +
                   std::to_string(num_blocks_));
  }
  return Status::OK();
}

Status Snapshot::ValidateNames(std::string_view table, size_t entry_size,
                               const char* what, uint32_t begin,
                               uint32_t end) const {
  auto name_at = [&](uint32_t i) -> std::optional<std::string_view> {
    const uint32_t offset = Field(table, entry_size, i, 0);
    const uint32_t length = Field(table, entry_size, i, 1);
    if (offset > names_.size() || length > names_.size() - offset) {
      return std::nullopt;
    }
    return names_.substr(offset, length);
  };
  // The name before the range; when it is out of bounds, its range fails.
  std::optional<std::string_view> previous;
  if (begin > 0) previous = name_at(begin - 1);
  for (uint32_t i = begin; i < end; ++i) {
    const std::optional<std::string_view> name = name_at(i);
    if (!name) return Invalid(std::string(what) + " name out of bounds");
    if (previous && CompareFolded(*previous, *name) >= 0) {
      return Invalid(std::string(what) +
                     " names are not sorted and unique (case-insensitive)");
    }
    previous = name;
  }
  return Status::OK();
}

void Snapshot::ScanEntitySlots(uint32_t begin, uint32_t end, uint32_t* occupied,
                               bool* out_of_range) const {
  // Empty and occupied slots interleave at random, so the scan counts
  // without branching on which is which.
  uint32_t used_slots = 0;
  bool beyond = false;
  for (uint32_t slot = begin; slot < end; ++slot) {
    const uint32_t entity = DecodeU32(slots_.data() + 4 * size_t{slot});
    const bool used = entity != kEmptySlot;
    used_slots += used ? 1 : 0;
    beyond |= used & (entity >= num_entities_);
  }
  *occupied = used_slots;
  *out_of_range = beyond;
}

Status Snapshot::ValidateEntitySlots(uint32_t begin, uint32_t end) const {
  // With one occupied slot per entity, reaching every entity from its home
  // slot also proves each is in the table exactly once.
  for (uint32_t entity = begin; entity < end; ++entity) {
    if (EntityType(entity) >= num_types_) {
      return Invalid("entity references a type beyond the type table");
    }
    auto slot = static_cast<uint32_t>(SnapshotNameHash(EntityName(entity)) &
                                      slot_mask_);
    while (DecodeU32(slots_.data() + 4 * size_t{slot}) != entity) {
      if (DecodeU32(slots_.data() + 4 * size_t{slot}) == kEmptySlot) {
        return Invalid("entity slot table does not lead to entity " +
                       std::to_string(entity));
      }
      slot = (slot + 1) & slot_mask_;
    }
  }
  return Status::OK();
}

Status Snapshot::ValidateBlocks(uint32_t begin, uint32_t end,
                                BlockView* decoded) const {
  auto field = [this](uint32_t block, size_t f) {
    return Field(blocks_, kSnapshotBlockEntrySize, block, f);
  };
  // The walk's running sums at `begin`: where the block before it ends.
  // When that is past a section, the block before it, or one earlier,
  // fails its tiling check in an earlier range, and this one stops before
  // reading past the section.
  uint64_t record_end = 0;
  uint64_t posting_end = 0;
  if (begin > 0) {
    record_end = uint64_t{field(begin - 1, 3)} + field(begin - 1, 4);
    posting_end = uint64_t{field(begin - 1, 5)} + field(begin - 1, 6);
    if (record_end > num_opinions_) {
      return Invalid("block records do not tile the records section");
    }
    if (posting_end > num_postings_) {
      return Invalid("block postings do not tile the postings section");
    }
  }
  for (uint32_t b = begin; b < end; ++b) {
    if (field(b, 0) >= num_types_ || field(b, 1) >= num_properties_) {
      return Invalid("block references beyond its name tables");
    }
    if (field(b, 2) > 1) return Invalid("block degraded flag is not 0 or 1");
    if (b > 0 && std::pair(field(b, 0), field(b, 1)) <=
                     std::pair(field(b - 1, 0), field(b - 1, 1))) {
      return Invalid("blocks are not sorted and unique by (type, property)");
    }
    if (field(b, 3) != record_end ||
        field(b, 4) > num_opinions_ - record_end) {
      return Invalid("block records do not tile the records section");
    }
    if (field(b, 5) != posting_end ||
        field(b, 6) > num_postings_ - posting_end) {
      return Invalid("block postings do not tile the postings section");
    }
    const BlockView block = Block(b);
    record_end += block.record_count;
    posting_end += block.positive_count;

    uint32_t positives = 0;
    uint32_t previous_entity = 0;
    for (uint32_t r = 0; r < block.record_count; ++r) {
      const RecordView record = DecodeRecord(block.records, r);
      if (record.entity_index >= num_entities_) {
        return Invalid("record references beyond the entity table");
      }
      if (r > 0 && record.entity_index <= previous_entity) {
        return Invalid("block entity indices do not increase");
      }
      previous_entity = record.entity_index;
      if (record.polarity != Polarity::kPositive &&
          record.polarity != Polarity::kNegative) {
        return Invalid("record has a non-decision polarity");
      }
      if (!(record.posterior >= 0.0 && record.posterior <= 1.0)) {
        return Invalid("record posterior outside [0, 1]");
      }
      if (record.polarity == Polarity::kPositive) ++positives;
    }
    if (positives != block.positive_count) {
      return Invalid("posting list length differs from the block's " +
                     std::to_string(positives) + " positive records");
    }
    // Postings are distinct positives in strict (posterior descending,
    // name ascending) order, so with the count above they are exactly the
    // block's positives. Each is checked against the one before it,
    // carried from the previous step.
    uint32_t previous_r = 0;
    RecordView previous;
    for (uint32_t i = 0; i < block.positive_count; ++i) {
      const uint32_t r = ReadPosting(block.postings, i);
      if (r >= block.record_count) {
        return Invalid("posting list entry out of range");
      }
      const RecordView record = DecodeRecord(block.records, r);
      if (record.polarity != Polarity::kPositive) {
        return Invalid("posting list holds a negative record");
      }
      if (i > 0) {
        if (r == previous_r) {
          return Invalid("posting list holds a record twice");
        }
        if (record.posterior > previous.posterior) {
          return Invalid("posting list is out of posterior order");
        }
        if (record.posterior == previous.posterior &&
            EntityName(previous.entity_index) >=
                EntityName(record.entity_index)) {
          return Invalid("posting list ties are out of entity name order");
        }
      }
      previous_r = r;
      previous = record;
    }
    decoded[b] = block;
  }
  return Status::OK();
}

Status Snapshot::ValidatePairs(uint32_t begin, uint32_t end,
                               const BlockView* blocks) const {
  for (uint32_t entity = begin; entity < end; ++entity) {
    const uint32_t run_begin =
        Field(entities_, kSnapshotEntityEntrySize, entity, 3);
    const uint32_t run_end =
        entity + 1 < num_entities_
            ? Field(entities_, kSnapshotEntityEntrySize, entity + 1, 3)
            : num_pairs_;
    if ((entity == 0 && run_begin != 0) || run_begin > run_end ||
        run_end > num_pairs_) {
      return Invalid("entity pair runs out of range or order");
    }
    uint32_t previous_property = 0;
    for (uint32_t k = run_begin; k < run_end; ++k) {
      const char* pair = pairs_.data() + size_t{k} * kSnapshotPairEntrySize;
      const uint32_t property = DecodeU32(pair);
      const uint32_t b = DecodeU32(pair + 4);
      const uint32_t r = DecodeU32(pair + 8);
      if (property >= num_properties_ || b >= num_blocks_) {
        return Invalid("pair-run entry out of range");
      }
      const BlockView& block = blocks[b];
      if (r >= block.record_count) {
        return Invalid("pair-run entry out of range");
      }
      if (block.property_index != property) {
        return Invalid("pair-run entry points at another property's record");
      }
      if (DecodeRecord(block.records, r).entity_index != entity) {
        return Invalid("pair-run entry points at another entity's record");
      }
      if (k > run_begin && property <= previous_property) {
        return Invalid("pair run is not sorted by property");
      }
      previous_property = property;
    }
  }
  return Status::OK();
}

Status Snapshot::ValidateProvenance(uint32_t begin, uint32_t end) const {
  auto field = [this](uint32_t i, size_t f) {
    return Field(provenance_, kSnapshotProvenanceEntrySize, i, f);
  };
  // As for blocks: the running sum is where the entry before `begin` ends.
  uint64_t ref_end = 0;
  if (begin > 0) {
    ref_end = uint64_t{field(begin - 1, 2)} + field(begin - 1, 3);
    if (ref_end > num_refs_) return Invalid("provenance refs out of bounds");
  }
  for (uint32_t i = begin; i < end; ++i) {
    const ProvenanceKey key = ProvenanceKeyAt(i);
    if (key.entity_index >= num_entities_ ||
        key.property_index >= num_properties_) {
      return Invalid("provenance references beyond its name tables");
    }
    if (i > 0) {
      const ProvenanceKey previous = ProvenanceKeyAt(i - 1);
      if (std::pair(key.entity_index, key.property_index) <=
          std::pair(previous.entity_index, previous.property_index)) {
        return Invalid(
            "provenance is not sorted and unique by (entity, property)");
      }
    }
    const uint32_t refs_begin = field(i, 2);
    const uint32_t count = field(i, 3);
    if (refs_begin != ref_end || count > num_refs_ - ref_end) {
      return Invalid("provenance refs out of bounds");
    }
    ref_end += count;
  }
  return Status::OK();
}

}  // namespace serving
}  // namespace surveyor
