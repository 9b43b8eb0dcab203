#include "serving/opinion_index.h"

#include <algorithm>
#include <utility>

#include "obs/request_trace.h"
#include "obs/trace.h"
#include "util/fault.h"
#include "util/hotpath.h"

namespace surveyor {
namespace serving {
namespace {

/// The one decode: a record of `block` as an answer whose names and
/// provenance are views into the mapping.
SURVEYOR_HOT_FUNCTION
ServedOpinion ReadOpinion(const Snapshot& snapshot,
                          const Snapshot::BlockView& block, uint32_t record) {
  const Snapshot::RecordView view = Snapshot::ReadRecord(block.records, record);
  ServedOpinion opinion;
  opinion.entity = snapshot.EntityName(view.entity_index);
  opinion.type = snapshot.TypeName(block.type_index);
  opinion.property = snapshot.PropertyName(block.property_index);
  opinion.posterior = view.posterior;
  opinion.polarity = view.polarity;
  opinion.degraded = block.degraded;
  opinion.provenance =
      snapshot.Provenance(view.entity_index, block.property_index);
  return opinion;
}

}  // namespace

OpinionIndex::OpinionIndex(OpinionIndexOptions options)
    : options_(std::move(options)) {
  if (options_.metrics != nullptr) {
    metrics_ = options_.metrics;
  } else {
    own_metrics_ = std::make_unique<obs::MetricRegistry>();
    metrics_ = own_metrics_.get();
  }
  lookups_ = metrics_->GetCounter("surveyor_query_lookups_total");
  not_found_ = metrics_->GetCounter("surveyor_query_not_found_total");
  swaps_ = metrics_->GetCounter("surveyor_generation_swaps_total");
  swap_failures_ =
      metrics_->GetCounter("surveyor_generation_swap_failures_total");
  generation_gauge_ = metrics_->GetGauge("surveyor_generation_id");
  metrics_->SetHelp("surveyor_generation_swaps_total",
                    "Snapshot generations hot-swapped into the index");
  metrics_->SetHelp("surveyor_generation_swap_failures_total",
                    "Failed loads (the previous generation kept serving)");
  metrics_->SetHelp("surveyor_generation_id",
                    "Generation id currently serving (0 = none)");
}

Status OpinionIndex::Load(const std::string& path) {
  return LoadGeneration(path, generation_id() + 1);
}

Status OpinionIndex::LoadGeneration(const std::string& path,
                                    uint64_t generation_id) {
  SURVEYOR_SPAN("opinion_index.load");
  MutexLock load_lock(load_mutex_);
  // Everything below builds off to the side: queries keep hitting the
  // current generation untouched until the single publish store at the
  // bottom. Any failure leaves the index exactly as it was.
  auto fail = [this](Status status) {
    swap_failures_->Increment();
    return status;
  };

  auto generation = std::make_shared<LoadedGeneration>();
  generation->id_ = generation_id;
  const RetryResult result =
      RetryWithBackoff(options_.retry, [&generation, &path] {
        return generation->snapshot_.Open(path);
      });
  if (result.attempts > 1) {
    if (obs::RequestStats* stats = obs::CurrentRequestStats()) {
      stats->retries += result.attempts - 1;
    }
  }
  if (!result.status.ok()) return fail(result.status);
  generation->loaded_at_ = std::chrono::steady_clock::now();

  // The "generation_swap" fault simulates a swap that dies after all the
  // I/O succeeded but before publication — the previous generation must
  // keep serving and the failure must be visible on /metrics. A first load
  // has no previous generation to keep serving, so it is not a swap and
  // the point is not evaluated (DESIGN.md §14): a one-shot reader's only
  // load fails only when its Open does.
  if (loaded() && SURVEYOR_FAULT("generation_swap")) {
    return fail(
        Status::Internal("injected fault at generation_swap: " + path));
  }

  // The swap: one pointer exchange under current_mutex_. In-flight
  // queries finish on the generation they pinned; its mapping dies with
  // the last reference. When that is ours, the old generation is torn
  // down below, after the unlock: every query pins through this mutex,
  // so a teardown under it would stall them all.
  GenerationPtr retired;
  {
    MutexLock lock(current_mutex_);
    retired = std::exchange(current_, std::move(generation));
  }
  retired.reset();
  swaps_->Increment();
  const GenerationPtr published = this->generation();
  generation_gauge_->Set(static_cast<double>(published->id()));
  metrics_->GetGauge("surveyor_snapshot_opinions")
      ->Set(static_cast<double>(published->snapshot().num_opinions()));
  metrics_->GetGauge("surveyor_snapshot_entities")
      ->Set(static_cast<double>(published->snapshot().num_entities()));
  return Status::OK();
}

SURVEYOR_HOT_FUNCTION
ServedOpinion ScanRange::operator[](size_t i) const {
  return ReadOpinion(*snapshot_, block_,
                     Snapshot::ReadPosting(block_.postings, i));
}

SURVEYOR_HOT_FUNCTION
StatusOr<Snapshot::RecordLoc> OpinionIndex::Locate(
    const GenerationPtr& generation, std::string_view entity,
    std::string_view property) const {
  lookups_->Increment();
  if (generation == nullptr) {
    return Status::FailedPrecondition("no snapshot loaded");
  }
  const Snapshot& snapshot = generation->snapshot();
  const uint32_t entity_index = snapshot.FindEntity(entity);
  return Located(entity, property, entity_index,
                 entity_index == Snapshot::kNone
                     ? Snapshot::RecordLoc{}
                     : snapshot.FindPair(entity_index,
                                         snapshot.FindProperty(property)));
}

SURVEYOR_HOT_FUNCTION
StatusOr<Snapshot::RecordLoc> OpinionIndex::Located(
    std::string_view entity, std::string_view property,
    uint32_t entity_index, Snapshot::RecordLoc loc) const {
  if (entity_index == Snapshot::kNone) {
    not_found_->Increment();
    return Status::NotFound("unknown entity '" + std::string(entity) + "'");
  }
  if (loc.block == Snapshot::kNone) {
    not_found_->Increment();
    return Status::NotFound("no opinion for entity '" + std::string(entity) +
                            "' property '" + std::string(property) + "'");
  }
  return loc;
}

SURVEYOR_HOT_FUNCTION
StatusOr<ServedOpinion> OpinionIndex::Lookup(const GenerationPtr& generation,
                                             std::string_view entity,
                                             std::string_view property) const {
  SURVEYOR_SPAN("opinion_index.lookup");
  const StatusOr<Snapshot::RecordLoc> loc =
      Locate(generation, entity, property);
  if (!loc.ok()) return loc.status();
  SURVEYOR_SPAN("snapshot.materialize");
  const Snapshot& snapshot = generation->snapshot();
  return ReadOpinion(snapshot, snapshot.blocks()[loc->block], loc->record);
}

SURVEYOR_HOT_FUNCTION
void OpinionIndex::FindGroup(
    const GenerationPtr& generation, const Snapshot::NamePair* pairs,
    size_t count, std::optional<StatusOr<ServedOpinion>>* answers) const {
  lookups_->Increment(static_cast<int64_t>(count));
  if (generation == nullptr) {
    for (size_t i = 0; i < count; ++i) {
      answers[i].emplace(Status::FailedPrecondition("no snapshot loaded"));
    }
    return;
  }
  const Snapshot& snapshot = generation->snapshot();
  uint32_t entities[Snapshot::kPairGroup];
  Snapshot::RecordLoc locs[Snapshot::kPairGroup];
  snapshot.FindPairs(pairs, count, entities, locs);
  for (size_t i = 0; i < count; ++i) {
    const StatusOr<Snapshot::RecordLoc> loc =
        Located(pairs[i].first, pairs[i].second, entities[i], locs[i]);
    if (loc.ok()) {
      answers[i].emplace(
          ReadOpinion(snapshot, snapshot.blocks()[loc->block], loc->record));
    } else {
      answers[i].emplace(loc.status());
    }
  }
}

SURVEYOR_HOT_FUNCTION
ScanRange OpinionIndex::QueryType(const GenerationPtr& generation,
                                  std::string_view type,
                                  std::string_view property,
                                  size_t limit) const {
  if (generation == nullptr) return {};
  const Snapshot& snapshot = generation->snapshot();
  const uint32_t type_index = snapshot.FindType(type);
  const uint32_t b = snapshot.FindBlock(
      type_index, snapshot.FindProperty(property));
  if (b == Snapshot::kNone) return {};
  // The block's posting list is already in scan order: a scan is a slice.
  const Snapshot::BlockView block = snapshot.blocks()[b];
  return {&snapshot, block,
          limit == 0 ? block.positive_count
                     : std::min<size_t>(limit, block.positive_count)};
}

SURVEYOR_HOT_FUNCTION
NameRange OpinionIndex::PrefixScan(const GenerationPtr& generation,
                                   std::string_view prefix,
                                   size_t limit) const {
  if (generation == nullptr) return {};
  const Snapshot& snapshot = generation->snapshot();
  const auto [begin, end] = snapshot.EntityPrefixRange(prefix);
  const uint32_t count =
      limit == 0 ? end - begin
                 : static_cast<uint32_t>(std::min<size_t>(limit, end - begin));
  return {&snapshot, begin, count};
}

Pinned<StatusOr<ServedOpinion>> OpinionIndex::Lookup(
    std::string_view entity, std::string_view property) const {
  GenerationPtr generation = this->generation();
  StatusOr<ServedOpinion> answer = Lookup(generation, entity, property);
  return {std::move(generation), std::move(answer)};
}

Pinned<std::vector<StatusOr<ServedOpinion>>> OpinionIndex::BatchLookup(
    const std::vector<std::pair<std::string, std::string>>& pairs) const {
  // Pin once: the whole batch is answered from one generation even if a
  // swap lands mid-batch.
  GenerationPtr generation = this->generation();
  std::vector<StatusOr<ServedOpinion>> answers;
  answers.reserve(pairs.size());
  Snapshot::NamePair group[Snapshot::kPairGroup];
  std::optional<StatusOr<ServedOpinion>> found[Snapshot::kPairGroup];
  for (size_t first = 0; first < pairs.size();
       first += Snapshot::kPairGroup) {
    const size_t count =
        std::min(Snapshot::kPairGroup, pairs.size() - first);
    for (size_t i = 0; i < count; ++i) {
      group[i] = {pairs[first + i].first, pairs[first + i].second};
    }
    FindGroup(generation, group, count, found);
    for (size_t i = 0; i < count; ++i) answers.push_back(std::move(*found[i]));
  }
  return {std::move(generation), std::move(answers)};
}

Pinned<ScanRange> OpinionIndex::QueryType(std::string_view type,
                                          std::string_view property,
                                          size_t limit) const {
  GenerationPtr generation = this->generation();
  const ScanRange answers = QueryType(generation, type, property, limit);
  return {std::move(generation), answers};
}

Pinned<NameRange> OpinionIndex::PrefixScan(std::string_view prefix,
                                           size_t limit) const {
  GenerationPtr generation = this->generation();
  const NameRange names = PrefixScan(generation, prefix, limit);
  return {std::move(generation), names};
}

}  // namespace serving
}  // namespace surveyor
