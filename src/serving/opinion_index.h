#ifndef SURVEYOR_SERVING_OPINION_INDEX_H_
#define SURVEYOR_SERVING_OPINION_INDEX_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "extraction/aggregator.h"
#include "obs/metrics.h"
#include "serving/snapshot.h"
#include "util/mutex.h"
#include "util/retry.h"
#include "util/status.h"
#include "util/statusor.h"
#include "util/thread_annotations.h"

namespace surveyor {
namespace serving {

/// One answer of the query engine: views into the mapped snapshot of the
/// generation that was pinned to find it. It holds no pin of its own, so
/// it is valid only while that pin is held — a request pins once and
/// renders every answer before it lets go, and the self-pinning query
/// methods hand the pin back with the answer (Pinned).
struct ServedOpinion {
  std::string_view entity;
  std::string_view type;
  std::string_view property;
  double posterior = 0.5;
  Polarity polarity = Polarity::kNeutral;
  bool degraded = false;
  Snapshot::ProvenanceRange provenance;
};

/// A type scan's answers, strongest first: a slice of one block's posting
/// list, each answer decoded on access. Valid, like ServedOpinion, while
/// the scanned generation is pinned.
class ScanRange {
 public:
  ScanRange() = default;
  ScanRange(const Snapshot* snapshot, const Snapshot::BlockView& block,
            size_t count)
      : snapshot_(snapshot), block_(block), count_(count) {}
  size_t size() const { return count_; }
  bool empty() const { return count_ == 0; }
  ServedOpinion operator[](size_t i) const;
  DecodingIterator<ScanRange> begin() const { return {*this, 0}; }
  DecodingIterator<ScanRange> end() const { return {*this, count_}; }

 private:
  const Snapshot* snapshot_ = nullptr;
  Snapshot::BlockView block_;
  size_t count_ = 0;
};

/// Entity names in snapshot casing and name order: a run of the mapped
/// name table. Valid while the generation is pinned.
class NameRange {
 public:
  NameRange() = default;
  NameRange(const Snapshot* snapshot, uint32_t begin, uint32_t count)
      : snapshot_(snapshot), begin_(begin), count_(count) {}
  size_t size() const { return count_; }
  bool empty() const { return count_ == 0; }
  std::string_view operator[](size_t i) const {
    return snapshot_->EntityName(begin_ + static_cast<uint32_t>(i));
  }
  DecodingIterator<NameRange> begin() const { return {*this, 0}; }
  DecodingIterator<NameRange> end() const { return {*this, count_}; }

 private:
  const Snapshot* snapshot_ = nullptr;
  uint32_t begin_ = 0;
  uint32_t count_ = 0;
};

struct OpinionIndexOptions {
  /// Lookup and generation counters land here; nullptr uses an
  /// index-local registry (still inspectable through metrics()).
  obs::MetricRegistry* metrics = nullptr;
  /// Bounded retries around the snapshot open, absorbing transient read
  /// failures (the "snapshot_read" fault point).
  RetryPolicy retry;
};

/// One loaded snapshot generation. The mapped snapshot is the whole
/// index, so this holds no container: Load is an open plus a validation
/// pass. Immutable once published, shared out by std::shared_ptr so
/// in-flight queries pin the generation they started on while a newer one
/// swaps in — RCU with shared_ptr as the grace period. Every answer is a
/// view into the pinned snapshot, valid while the pin is held.
class LoadedGeneration {
 public:
  LoadedGeneration() = default;
  LoadedGeneration(const LoadedGeneration&) = delete;
  LoadedGeneration& operator=(const LoadedGeneration&) = delete;

  /// Generation id this state was loaded as (monotonic per index; the
  /// GenerationStore id when loaded through one).
  uint64_t id() const { return id_; }

  const Snapshot& snapshot() const { return snapshot_; }

  /// Seconds since this generation was swapped in (the /metrics age
  /// gauge; monotonic clock, immune to wall-clock steps).
  double AgeSeconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         loaded_at_)
        .count();
  }

 private:
  friend class OpinionIndex;

  uint64_t id_ = 0;
  Snapshot snapshot_;
  std::chrono::steady_clock::time_point loaded_at_;
};

/// A pinned generation: holding one keeps the snapshot mapping alive
/// regardless of concurrent swaps.
using GenerationPtr = std::shared_ptr<const LoadedGeneration>;

/// An answer together with the pin on the generation it was read from —
/// what the self-pinning query methods return. The views inside the
/// answer point into that generation's mapping, so they are valid exactly
/// as long as this object is. A request that answers several things pins
/// once (OpinionIndex::generation()) and calls the methods that take the
/// pin instead.
template <typename T>
class Pinned {
 public:
  Pinned(GenerationPtr generation, T value)
      : generation_(std::move(generation)), value_(std::move(value)) {}
  const T& operator*() const { return value_; }
  const T* operator->() const { return &value_; }
  /// nullptr when nothing was loaded.
  const GenerationPtr& generation() const { return generation_; }

 private:
  // Declared first, so the pin is released after the views.
  GenerationPtr generation_;
  T value_;
};

/// The online half of Surveyor: loads opinion snapshot generations and
/// answers the paper's two query shapes — point lookups ("is this kitten
/// cute?") and type scans ("safe cities") — plus the prefix scan an
/// autocomplete box needs. Every query method is const, thread-safe, and
/// runs entirely against one pinned generation — the caller's, or one it
/// pins on entry and returns with the answer — so answers are internally
/// consistent even while Load publishes a newer generation with one
/// pointer swap. A failed Load keeps the previous generation
/// serving and increments surveyor_generation_swap_failures_total. Name
/// matching is case-insensitive, like the knowledge base.
class OpinionIndex {
 public:
  explicit OpinionIndex(OpinionIndexOptions options = {});

  /// Opens and validates `path` off to the side (with bounded retries on
  /// transient failures) and atomically swaps the new generation in as id
  /// generation_id() + 1. On failure the index keeps serving its previous
  /// generation, if any.
  Status Load(const std::string& path);

  /// Load with an explicit generation id (the GenerationStore id), so
  /// /statusz and the metrics report the store's numbering — including
  /// backwards for an explicit rollback.
  Status LoadGeneration(const std::string& path, uint64_t generation_id);

  /// The currently served generation (pinned — safe to use across
  /// concurrent swaps), or nullptr before the first successful Load.
  /// The pin is a shared_ptr copy under a tiny mutex rather than
  /// std::atomic<shared_ptr>: libstdc++'s _Sp_atomic reads its pointer
  /// word outside any release/acquire pairing (the spinlock unlocks
  /// relaxed on the load path), which ThreadSanitizer correctly flags,
  /// and this repo's TSan CI runs with halt_on_error. This mutex is the
  /// only lock a query takes. It is uncontended except during a swap, but
  /// every pin still writes the mutex word and the shared_ptr refcount
  /// that all serving threads share.
  GenerationPtr generation() const SURVEYOR_EXCLUDES(current_mutex_) {
    MutexLock lock(current_mutex_);
    return current_;
  }

  /// True once a generation is serving. Atomic-clean: readable while
  /// Load runs.
  bool loaded() const { return generation() != nullptr; }

  /// Id of the serving generation; 0 before the first successful Load.
  uint64_t generation_id() const {
    const GenerationPtr generation = this->generation();
    return generation == nullptr ? 0 : generation->id();
  }

  /// The mined opinion for one (entity, property) pair, read from
  /// `generation` — a pin the caller holds (nullptr answers
  /// FailedPrecondition). kNotFound both for an unknown entity and for a
  /// known entity with no opinion on the property: a miss is one status
  /// code whichever shape it has. The messages differ so operators can
  /// tell the two cases apart. Traced as opinion_index.lookup, with the
  /// decode under snapshot.materialize.
  StatusOr<ServedOpinion> Lookup(const GenerationPtr& generation,
                                 std::string_view entity,
                                 std::string_view property) const;

  /// Lookup for each of `count` (at most Snapshot::kPairGroup) pairs,
  /// into answers[0, count), without spans of its own: a batch is traced
  /// as one span however many pairs it holds, and answered a group at a
  /// time. The answers and counts are those of one Lookup per pair; the
  /// pairs' reads of the snapshot overlap (Snapshot::FindPairs).
  void FindGroup(const GenerationPtr& generation,
                 const Snapshot::NamePair* pairs, size_t count,
                 std::optional<StatusOr<ServedOpinion>>* answers) const;

  /// Subjective query ("safe cities") on `generation`: entities of `type`
  /// whose dominant opinion affirms `property`, strongest posterior first
  /// with ties by entity name, at most `limit` results (0 = no limit).
  /// Empty when the pin is null or the block does not exist.
  ScanRange QueryType(const GenerationPtr& generation, std::string_view type,
                      std::string_view property, size_t limit = 0) const;

  /// Entity names on `generation` starting with `prefix`
  /// (case-insensitive), sorted, at most `limit` (0 = no limit). Names
  /// come back in snapshot casing.
  NameRange PrefixScan(const GenerationPtr& generation,
                       std::string_view prefix, size_t limit = 0) const;

  // The same queries on the serving generation, each pinning it for
  // itself and returning the pin with the answer.

  Pinned<StatusOr<ServedOpinion>> Lookup(std::string_view entity,
                                         std::string_view property) const;

  /// One answer per pair, preserving order, found a group at a time
  /// (FindGroup); individual misses are per-entry kNotFound, never a
  /// whole-batch failure. The whole batch is answered from one pin.
  Pinned<std::vector<StatusOr<ServedOpinion>>> BatchLookup(
      const std::vector<std::pair<std::string, std::string>>& pairs) const;

  Pinned<ScanRange> QueryType(std::string_view type,
                              std::string_view property,
                              size_t limit = 0) const;

  Pinned<NameRange> PrefixScan(std::string_view prefix,
                               size_t limit = 0) const;

  /// The registry holding the lookup and generation counters (the
  /// configured one, or the index-local fallback).
  obs::MetricRegistry& metrics() const { return *metrics_; }

 private:
  /// Where `generation` keeps the pair's record; counts the lookup and
  /// any miss.
  StatusOr<Snapshot::RecordLoc> Locate(const GenerationPtr& generation,
                                       std::string_view entity,
                                       std::string_view property) const;
  /// A found pair's record, or its miss, counted: `entity_index` and
  /// `loc` are what the snapshot's finds gave for the names.
  StatusOr<Snapshot::RecordLoc> Located(std::string_view entity,
                                        std::string_view property,
                                        uint32_t entity_index,
                                        Snapshot::RecordLoc loc) const;

  OpinionIndexOptions options_;
  /// Fallback registry when options_.metrics is null.
  std::unique_ptr<obs::MetricRegistry> own_metrics_;
  obs::MetricRegistry* metrics_ = nullptr;
  obs::Counter* lookups_ = nullptr;
  obs::Counter* not_found_ = nullptr;
  obs::Counter* swaps_ = nullptr;
  obs::Counter* swap_failures_ = nullptr;
  obs::Gauge* generation_gauge_ = nullptr;

  /// Serializes Load/LoadGeneration (reload handler vs SIGHUP loop);
  /// queries never touch it.
  Mutex load_mutex_;
  /// Guards only the pointer swap/pin below — never held while loading
  /// a snapshot or answering a query.
  mutable Mutex current_mutex_;
  /// The serving generation (RCU-style: queries pin a ref on entry and
  /// run lock-free against it; a swap replaces the pointer and the old
  /// generation frees when its last pin drops).
  GenerationPtr current_ SURVEYOR_GUARDED_BY(current_mutex_);
};

}  // namespace serving
}  // namespace surveyor

#endif  // SURVEYOR_SERVING_OPINION_INDEX_H_
