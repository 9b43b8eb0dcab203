#ifndef SURVEYOR_SERVING_SNAPSHOT_H_
#define SURVEYOR_SERVING_SNAPSHOT_H_

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <map>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "extraction/aggregator.h"
#include "kb/knowledge_base.h"
#include "model/opinion.h"
#include "surveyor/pipeline.h"
#include "util/mmap_file.h"
#include "util/status.h"
#include "util/statusor.h"

namespace surveyor {
namespace serving {

/// The opinion snapshot: a versioned, immutable binary artifact holding
/// everything a serving process needs to answer subjective queries — the
/// durable hand-off between the offline mining run (the paper's 5000-node
/// extraction) and the online query engine that outlives it. Its sections
/// are the lookup structures themselves, so opening one is a map, a CRC
/// check, one validation pass and two small slot tables over the type and
/// property names: nothing else is sorted, hashed or copied.
///
/// File layout (format version 2, little-endian, every section 8-byte
/// aligned, all indices u32):
///
///   FileHeader        magic "SURVSNP\n", format version, section count,
///                     total file size (truncation check), reserved u64
///   SectionEntry[12]  id, CRC-32 of the payload, offset, size; ids 1..12
///                     in this order, every one present (possibly empty)
///   payloads:
///     1  meta         u64 opinions, u64 blocks, u32 label length, label
///     2  names        every name's bytes, one blob
///     3  types        8 B {name offset, name length} per type
///     4  properties   8 B {name offset, name length} per property
///     5  entities     16 B {name offset, name length, type, pair begin};
///                     the entity's pair run ends at the next entity's
///                     pair begin (the last one's at the pair count)
///     6  entity slots u32 entity index per slot, 0xFFFFFFFF = empty; a
///                     power-of-two table of at least 2 x entities slots,
///                     linear probing from SnapshotNameHash(name) & mask
///     7  blocks       28 B {type, property, degraded, record begin,
///                     record count, posting begin, posting count}, one
///                     per (type, property), sorted by (type, property)
///     8  records      16 B {f64 posterior, u32 entity, i8 polarity,
///                     3 B zero}, block by block, entity order within one
///     9  postings     u32 record index (within its block) per positive
///                     record, block by block, in scan order: posterior
///                     descending, then entity name ascending (bytes)
///     10 pairs        12 B {property, block, record} per (entity,
///                     property), entity by entity, property order within
///                     a run; an entity with opinions on one property
///                     under two types points at the type sorting last
///     11 provenance   16 B {entity, property, ref begin, ref count},
///                     sorted by (entity, property)
///     12 refs         16 B {i64 doc id, u32 sentence, u32 positive}
///
/// Types, properties and entities are each sorted by ASCII-lowercased
/// name, strictly: names are case-insensitive identifiers, so a table
/// index is also the rank of the lowercased name. A name lookup is one
/// probe of a slot table: the entity slots of section 6, or the type and
/// property slots Open builds in memory from the validated name tables.
///
/// Open checks every section's CRC-32, then every index, offset and count
/// and every order a binary search, slot probe or slice relies on, so bit
/// rot, truncation and hostile bytes are rejected before a single query
/// is answered. The reader is zero-copy: it mmaps the file and decodes
/// entries from the mapping on access. Each table is walked once: the
/// block table is decoded once and every pair is checked against it, and
/// each posting against the one before it. An image of 50,000 opinions or
/// more is walked in ranges, one per usable CPU up to one per 25,000
/// opinions, on threads that live only as long as Open; a smaller one is
/// walked on the calling thread. Either way the verdict and its message
/// are the ones a single in-order walk gives. Warm, on a 4-vCPU Xeon VM,
/// the CRC costs about 0.06 ns per byte (PCLMULQDQ folding) and the
/// validation 17-23 ns per opinion on one thread, so perfbench's seed-1
/// image (4.2 MB, 126,717 opinions) validates in 2.2-3.0 ms on one thread
/// and 0.75-0.95 ms on four.
inline constexpr char kSnapshotMagic[8] = {'S', 'U', 'R', 'V',
                                           'S', 'N', 'P', '\n'};
inline constexpr uint32_t kSnapshotFormatVersion = 2;

/// Section ids of format version 2, in file order.
enum SnapshotSection : uint32_t {
  kSectionMeta = 1,
  kSectionNames = 2,
  kSectionTypes = 3,
  kSectionProperties = 4,
  kSectionEntities = 5,
  kSectionEntitySlots = 6,
  kSectionBlocks = 7,
  kSectionRecords = 8,
  kSectionPostings = 9,
  kSectionPairs = 10,
  kSectionProvenance = 11,
  kSectionRefs = 12,
};
inline constexpr uint32_t kSnapshotSectionCount = 12;

/// Fixed sizes of the v2 layout, in bytes.
inline constexpr size_t kSnapshotHeaderSize = 32;
inline constexpr size_t kSnapshotSectionEntrySize = 24;
inline constexpr size_t kSnapshotNameEntrySize = 8;
inline constexpr size_t kSnapshotEntityEntrySize = 16;
inline constexpr size_t kSnapshotBlockEntrySize = 28;
inline constexpr size_t kSnapshotRecordSize = 16;
inline constexpr size_t kSnapshotPairEntrySize = 12;
inline constexpr size_t kSnapshotProvenanceEntrySize = 16;
inline constexpr size_t kSnapshotRefSize = 16;

/// The slot tables' hash: FNV-1a 64 over the ASCII-lowercased bytes of
/// `name` (offset basis 0xcbf29ce484222325, prime 0x100000001b3), folding
/// each byte as it hashes it.
uint64_t SnapshotNameHash(std::string_view name);

/// One mined opinion as the snapshot stores it, with names resolved — a
/// snapshot is self-contained and serves without the knowledge base that
/// produced it.
struct SnapshotOpinion {
  std::string entity;
  std::string type;
  std::string property;
  double posterior = 0.5;
  Polarity polarity = Polarity::kNeutral;
  /// True when the pair's EM fit fell back to the SMV baseline.
  bool degraded = false;
};

/// Builds a snapshot deterministically: output bytes depend only on the
/// opinions, provenance and label added, never on insertion order (every
/// table is sorted before serialization), so write -> read -> rebuild ->
/// write is bit-identical. Names are case-insensitive identifiers, as in
/// the knowledge base: spellings that differ only in case name one entity
/// (type, property), which keeps the byte-wise smallest spelling.
class SnapshotWriter {
 public:
  SnapshotWriter() = default;

  /// Free-form label stored in the meta section (e.g. "mine /tmp/ws").
  void set_label(std::string label) { label_ = std::move(label); }

  /// Adds one opinion; a second Add for the same (type, entity, property)
  /// replaces the first. Neutral-polarity opinions are rejected: they
  /// carry no decision.
  Status Add(const SnapshotOpinion& opinion);

  /// Adds supporting-statement samples for one (entity, property) pair.
  void AddProvenance(const std::string& entity, const std::string& type,
                     const std::string& property,
                     std::vector<StatementRef> refs);

  /// Adds every non-neutral opinion (and any provenance samples) of a
  /// pipeline result, resolving entity/type names through `kb`.
  Status AddResult(const PipelineResult& result, const KnowledgeBase& kb);

  /// Serializes the snapshot image.
  std::string Serialize() const;

  Status WriteToFile(const std::string& path) const;

 private:
  struct Record {
    double posterior = 0.5;
    Polarity polarity = Polarity::kNeutral;
  };
  struct Block {
    bool degraded = false;
    /// lowercased entity name -> record; map for deterministic order.
    std::map<std::string, Record> records;
  };
  struct EntityInfo {
    std::string spelling;
    /// Lowercased name of the entity's type (the smallest seen).
    std::string type;
  };

  /// Records an entity under its lowercased name, keeping the smallest
  /// spelling and type seen; returns the lowercased name.
  std::string InternEntity(const std::string& spelling,
                           const std::string& type);

  std::string label_;
  /// Lowercased name -> spelling, per name table.
  std::map<std::string, std::string> types_;
  std::map<std::string, std::string> properties_;
  std::map<std::string, EntityInfo> entities_;
  /// Lowercased (type, property) -> block.
  std::map<std::pair<std::string, std::string>, Block> blocks_;
  /// Lowercased (entity, property) -> refs.
  std::map<std::pair<std::string, std::string>, std::vector<StatementRef>>
      provenance_;
};

/// Iteration over a view that decodes its i-th element on access: `View`
/// has operator[](size_t), which returns by value. The iterator holds a
/// copy of the (small) view, so it may outlive a temporary view, but never
/// the mapping the view reads.
template <typename View>
class DecodingIterator {
 public:
  using iterator_category = std::input_iterator_tag;
  using value_type =
      std::remove_cvref_t<decltype(std::declval<const View&>()[0])>;
  using difference_type = std::ptrdiff_t;
  using pointer = void;
  using reference = value_type;

  DecodingIterator() = default;
  DecodingIterator(const View& view, size_t index)
      : view_(view), index_(index) {}
  value_type operator*() const { return view_[index_]; }
  DecodingIterator& operator++() {
    ++index_;
    return *this;
  }
  DecodingIterator operator++(int) {
    DecodingIterator previous = *this;
    ++index_;
    return previous;
  }
  /// Iterators compare by position: only those of one view are compared.
  bool operator==(const DecodingIterator& other) const {
    return index_ == other.index_;
  }

 private:
  View view_{};
  size_t index_ = 0;
};

namespace snapshot_internal {
// Declared here so Snapshot can befriend it; see snapshot_internal.h.
Status ValidateImage(std::string_view image, int parts);
}  // namespace snapshot_internal

/// Read side: validates the whole file at Open and then answers from the
/// mapping. A Snapshot is immutable once open; concurrent readers need no
/// synchronization. The Find* methods take names in any ASCII case, fold
/// them as they hash and compare, and return kNone on a miss.
class Snapshot {
 public:
  static constexpr uint32_t kNone = 0xFFFFFFFFu;

  Snapshot() = default;
  Snapshot(Snapshot&&) = default;
  Snapshot& operator=(Snapshot&&) = default;

  /// Maps and validates `path`, then builds the type and property slot
  /// tables. InvalidArgument for format problems (bad magic, version
  /// mismatch, truncation, malformed tables, any broken index, count or
  /// order, each naming its rule); Internal for payload corruption (CRC
  /// mismatch). The "snapshot_read" fault point fires here as a simulated
  /// transient I/O failure (Internal), which OpinionIndex absorbs with
  /// bounded retries. A failed Open leaves the snapshot as it was.
  Status Open(const std::string& path);

  std::string_view label() const { return label_; }

  size_t num_types() const { return num_types_; }
  size_t num_entities() const { return num_entities_; }
  size_t num_properties() const { return num_properties_; }
  size_t num_opinions() const { return num_opinions_; }

  std::string_view TypeName(uint32_t index) const;
  std::string_view EntityName(uint32_t index) const;
  uint32_t EntityType(uint32_t index) const;
  std::string_view PropertyName(uint32_t index) const;

  /// One per-(type, property) block. `records` points at `record_count`
  /// 16-byte records inside the mapping; `postings` at `positive_count`
  /// u32 record indices, the block's positive records in scan order.
  struct BlockView {
    uint32_t type_index = 0;
    uint32_t property_index = 0;
    bool degraded = false;
    uint32_t record_count = 0;
    const char* records = nullptr;
    uint32_t positive_count = 0;
    const char* postings = nullptr;
  };

  /// The blocks in (type, property) order, decoded from the mapping on
  /// access.
  class BlockRange {
   public:
    explicit BlockRange(const Snapshot* snapshot) : snapshot_(snapshot) {}
    size_t size() const { return snapshot_->num_blocks_; }
    bool empty() const { return size() == 0; }
    BlockView operator[](size_t index) const {
      return snapshot_->Block(static_cast<uint32_t>(index));
    }
    DecodingIterator<BlockRange> begin() const { return {*this, 0}; }
    DecodingIterator<BlockRange> end() const { return {*this, size()}; }

   private:
    const Snapshot* snapshot_;
  };
  BlockRange blocks() const { return BlockRange(this); }

  struct RecordView {
    double posterior = 0.5;
    uint32_t entity_index = 0;
    Polarity polarity = Polarity::kNeutral;
  };
  static RecordView ReadRecord(const char* records, size_t i);
  /// The block-local record index of a block's i-th positive record.
  static uint32_t ReadPosting(const char* postings, size_t i);

  /// Table index of the name, or kNone: one slot probe each.
  uint32_t FindType(std::string_view name) const;
  uint32_t FindProperty(std::string_view name) const;
  uint32_t FindEntity(std::string_view name) const;
  /// [begin, end) of the entities whose names start with `prefix`, both
  /// ASCII-lowercased, in name order.
  std::pair<uint32_t, uint32_t> EntityPrefixRange(
      std::string_view prefix) const;
  /// Index of the (type, property) block, or kNone.
  uint32_t FindBlock(uint32_t type, uint32_t property) const;
  /// Index of `entity`'s record within `block`, or kNone: a binary
  /// search, since Open proved a block's entity indices increase. Unlike
  /// FindPair it answers for the block's type even when the entity's name
  /// also has an opinion on the property under another type.
  static uint32_t FindRecord(const BlockView& block, uint32_t entity);

  /// Where the answer to one (entity, property) pair lives; block is
  /// kNone when the entity has no opinion on the property.
  struct RecordLoc {
    uint32_t block = kNone;
    uint32_t record = 0;
  };
  RecordLoc FindPair(uint32_t entity, uint32_t property) const;

  /// An (entity, property) pair of names.
  using NamePair = std::pair<std::string_view, std::string_view>;
  /// The most pairs FindPairs resolves at once.
  static constexpr size_t kPairGroup = 16;
  /// For each of `count` (at most kPairGroup) name pairs, the entity's
  /// index (kNone when unknown) into entities[i] and, for a known entity,
  /// FindPair of it and the property into locs[i] (block kNone for an
  /// unknown entity too): the answers of FindEntity and FindPair one pair
  /// at a time. The loads of each step are started for every pair before
  /// any pair waits on one, so the pairs' cache misses overlap, and the
  /// line of each found record is requested for the caller's read.
  void FindPairs(const NamePair* pairs, size_t count, uint32_t* entities,
                 RecordLoc* locs) const;

  /// Provenance entries, sorted by (entity, property).
  struct ProvenanceKey {
    uint32_t entity_index = 0;
    uint32_t property_index = 0;
  };
  size_t num_provenance() const { return num_provenance_; }
  ProvenanceKey ProvenanceKeyAt(size_t i) const;

  /// One pair's supporting-statement samples: a run of the mapped ref
  /// array, each ref decoded on access. Valid while the snapshot is open.
  class ProvenanceRange {
   public:
    ProvenanceRange() = default;
    ProvenanceRange(const char* refs, uint32_t count)
        : refs_(refs), count_(count) {}
    size_t size() const { return count_; }
    bool empty() const { return count_ == 0; }
    StatementRef operator[](size_t i) const;
    DecodingIterator<ProvenanceRange> begin() const { return {*this, 0}; }
    DecodingIterator<ProvenanceRange> end() const { return {*this, size()}; }

   private:
    const char* refs_ = nullptr;
    uint32_t count_ = 0;
  };
  /// The pair's samples; empty when it has none.
  ProvenanceRange Provenance(uint32_t entity, uint32_t property) const;

 private:
  friend Status snapshot_internal::ValidateImage(std::string_view image,
                                                 int parts);
  /// Runs the content passes of one Validate (snapshot.cc).
  class Validation;

  BlockView Block(uint32_t index) const;
  /// Validates a mapped image with each content pass split into `parts`
  /// ranges; 0 picks snapshot_internal::DefaultParts of its opinions.
  Status Validate(std::string_view file, int parts);
  /// Takes the table counts from the section sizes, and the label and
  /// counts of the meta section; `num_slots` gets the slot count.
  Status ReadCounts(const std::string_view (&payloads)[kSnapshotSectionCount],
                    uint32_t* num_slots);
  // The range validators: each checks the entries [begin, end) of its
  // table, the first of them against the entry before it, and returns its
  // first failure. Over [0, count) each is the whole sequential check.
  Status ValidateNames(std::string_view table, size_t entry_size,
                       const char* what, uint32_t begin, uint32_t end) const;
  /// Counts the occupied slots in [begin, end) into `occupied` and sets
  /// `out_of_range` if one names an entity beyond the table.
  void ScanEntitySlots(uint32_t begin, uint32_t end, uint32_t* occupied,
                       bool* out_of_range) const;
  /// Entities [begin, end): each one's type, and its slot reachable from
  /// its home slot.
  Status ValidateEntitySlots(uint32_t begin, uint32_t end) const;
  /// Validates blocks [begin, end) and stores each, decoded, at its index
  /// in `decoded`, the table ValidatePairs checks every pair against.
  Status ValidateBlocks(uint32_t begin, uint32_t end, BlockView* decoded) const;
  /// The pair runs of entities [begin, end).
  Status ValidatePairs(uint32_t begin, uint32_t end,
                       const BlockView* blocks) const;
  Status ValidateProvenance(uint32_t begin, uint32_t end) const;
  /// Fills type_slots_ and property_slots_ from the validated name tables.
  void BuildNameSlots();
  /// The entity slot probe for `name` from its home slot.
  uint32_t ProbeEntity(std::string_view name, uint32_t home) const;
  /// The u32 in entity slot `slot`.
  uint32_t EntitySlot(uint32_t slot) const;

  MmapFile file_;
  std::string_view label_;
  /// Section payloads inside the mapping.
  std::string_view names_, types_, properties_, entities_, slots_, blocks_,
      records_, postings_, pairs_, provenance_, refs_;
  uint32_t num_types_ = 0;
  uint32_t num_entities_ = 0;
  uint32_t num_properties_ = 0;
  uint32_t num_blocks_ = 0;
  uint32_t num_opinions_ = 0;
  uint32_t num_postings_ = 0;
  uint32_t num_pairs_ = 0;
  uint32_t num_provenance_ = 0;
  uint32_t num_refs_ = 0;
  uint32_t slot_mask_ = 0;
  /// Type and property indices by slot, probed as the entity slots are: a
  /// power-of-two table of at least 2 x names slots (one for none), kNone
  /// for empty. Built by Open; empty on a snapshot that was never opened,
  /// which finds no type or property.
  std::vector<uint32_t> type_slots_;
  std::vector<uint32_t> property_slots_;
};

}  // namespace serving
}  // namespace surveyor

#endif  // SURVEYOR_SERVING_SNAPSHOT_H_
