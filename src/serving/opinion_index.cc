#include "serving/opinion_index.h"

#include <algorithm>
#include <cctype>

#include "obs/request_trace.h"
#include "obs/trace.h"
#include "util/fault.h"
#include "util/hotpath.h"
#include "util/string_util.h"

namespace surveyor {
namespace serving {
namespace {

uint64_t PairKey(uint32_t entity_index, uint32_t property_index) {
  return (static_cast<uint64_t>(entity_index) << 32) | property_index;
}

/// Lower-cases into a reused thread-local buffer. Point lookups are the
/// serving fast path; after warm-up this never allocates. The reference
/// is valid until the next call on the same thread.
const std::string& LowerScratch(std::string_view text) {
  thread_local std::string scratch;
  scratch.resize(text.size());
  for (size_t i = 0; i < text.size(); ++i) {
    scratch[i] =
        static_cast<char>(std::tolower(static_cast<unsigned char>(text[i])));
  }
  return scratch;
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

  Snapshot snapshot;
  const RetryResult result = RetryWithBackoff(
      options_.retry, [&snapshot, &path] { return snapshot.Open(path); });
  if (result.attempts > 1) {
    if (obs::RequestStats* stats = obs::CurrentRequestStats()) {
      stats->retries += result.attempts - 1;
    }
  }
  if (!result.status.ok()) return fail(result.status);

  auto generation = std::make_shared<LoadedGeneration>();
  generation->id_ = generation_id;
  generation->entity_by_name_.reserve(snapshot.num_entities());
  generation->sorted_entities_.reserve(snapshot.num_entities());
  for (uint32_t i = 0; i < snapshot.num_entities(); ++i) {
    std::string name = ToLower(snapshot.EntityName(i));
    generation->entity_by_name_[name] = i;
    generation->sorted_entities_.emplace_back(std::move(name), i);
  }
  std::sort(generation->sorted_entities_.begin(),
            generation->sorted_entities_.end());

  generation->property_by_name_.reserve(snapshot.num_properties());
  for (uint32_t i = 0; i < snapshot.num_properties(); ++i) {
    generation->property_by_name_[ToLower(snapshot.PropertyName(i))] = i;
  }
  generation->type_by_name_.reserve(snapshot.num_types());
  for (uint32_t i = 0; i < snapshot.num_types(); ++i) {
    generation->type_by_name_[ToLower(snapshot.TypeName(i))] = i;
  }

  generation->records_by_pair_.reserve(snapshot.num_opinions());
  generation->blocks_by_type_.resize(snapshot.num_types());
  const auto& blocks = snapshot.blocks();
  for (uint32_t b = 0; b < blocks.size(); ++b) {
    generation->blocks_by_type_[blocks[b].type_index].push_back(b);
    for (uint32_t r = 0; r < blocks[b].record_count; ++r) {
      const Snapshot::RecordView record =
          Snapshot::ReadRecord(blocks[b].records, r);
      generation->records_by_pair_[PairKey(
          record.entity_index, blocks[b].property_index)] =
          LoadedGeneration::RecordLoc{b, r};
    }
  }

  const auto& provenance = snapshot.provenance();
  generation->provenance_by_pair_.reserve(provenance.size());
  for (uint32_t i = 0; i < provenance.size(); ++i) {
    generation->provenance_by_pair_[PairKey(provenance[i].entity_index,
                                            provenance[i].property_index)] =
        i;
  }

  generation->snapshot_ = std::move(snapshot);
  generation->loaded_at_ = std::chrono::steady_clock::now();

  // The "generation_swap" fault simulates a load that dies after all the
  // I/O succeeded but before publication — the previous generation must
  // keep serving and the failure must be visible on /metrics.
  if (SURVEYOR_FAULT("generation_swap")) {
    return fail(
        Status::Internal("injected fault at generation_swap: " + path));
  }

  // The swap: one pointer assignment under current_mutex_. In-flight
  // queries finish on the generation they pinned; its snapshot and
  // indexes die with the last reference.
  {
    MutexLock lock(current_mutex_);
    current_ = std::move(generation);
  }
  swaps_->Increment();
  const GenerationPtr published = this->generation();
  generation_gauge_->Set(static_cast<double>(published->id()));
  metrics_->GetGauge("surveyor_snapshot_opinions")
      ->Set(static_cast<double>(published->snapshot().num_opinions()));
  metrics_->GetGauge("surveyor_snapshot_entities")
      ->Set(static_cast<double>(published->snapshot().num_entities()));
  return Status::OK();
}

ServedOpinion OpinionIndex::Materialize(
    const LoadedGeneration& generation,
    const LoadedGeneration::RecordLoc& loc) const {
  SURVEYOR_SPAN("snapshot.materialize");
  const Snapshot& snapshot = generation.snapshot_;
  const Snapshot::BlockView& block = snapshot.blocks()[loc.block];
  const Snapshot::RecordView record =
      Snapshot::ReadRecord(block.records, loc.record);
  ServedOpinion opinion;
  opinion.entity = std::string(snapshot.EntityName(record.entity_index));
  opinion.type = std::string(snapshot.TypeName(block.type_index));
  opinion.property = std::string(snapshot.PropertyName(block.property_index));
  opinion.posterior = record.posterior;
  opinion.polarity = record.polarity;
  opinion.degraded = block.degraded;
  auto prov = generation.provenance_by_pair_.find(
      PairKey(record.entity_index, block.property_index));
  if (prov != generation.provenance_by_pair_.end()) {
    opinion.provenance = snapshot.provenance()[prov->second].refs;
  }
  return opinion;
}

SURVEYOR_HOT_FUNCTION
StatusOr<ServedOpinion> OpinionIndex::Lookup(std::string_view entity,
                                             std::string_view property) const {
  SURVEYOR_SPAN("opinion_index.lookup");
  lookups_->Increment();
  const GenerationPtr generation = this->generation();
  if (generation == nullptr) {
    return Status::FailedPrecondition("no snapshot loaded");
  }
  return LookupIn(*generation, entity, property);
}

SURVEYOR_HOT_FUNCTION
StatusOr<ServedOpinion> OpinionIndex::LookupIn(
    const LoadedGeneration& generation, std::string_view entity,
    std::string_view property) const {
  // The scratch is reused for the property find below; only the mapped
  // index survives each find, never the key string.
  auto entity_it = generation.entity_by_name_.find(LowerScratch(entity));
  if (entity_it == generation.entity_by_name_.end()) {
    not_found_->Increment();
    return Status::NotFound("unknown entity '" + std::string(entity) + "'");
  }
  auto property_it = generation.property_by_name_.find(LowerScratch(property));
  if (property_it == generation.property_by_name_.end()) {
    not_found_->Increment();
    return Status::NotFound("no opinion for entity '" + std::string(entity) +
                            "' property '" + std::string(property) + "'");
  }
  auto record_it = generation.records_by_pair_.find(
      PairKey(entity_it->second, property_it->second));
  if (record_it == generation.records_by_pair_.end()) {
    not_found_->Increment();
    return Status::NotFound("no opinion for entity '" + std::string(entity) +
                            "' property '" + std::string(property) + "'");
  }
  return Materialize(generation, record_it->second);
}

std::vector<StatusOr<ServedOpinion>> OpinionIndex::BatchLookup(
    const std::vector<std::pair<std::string, std::string>>& pairs) const {
  std::vector<StatusOr<ServedOpinion>> out;
  out.reserve(pairs.size());
  // Pin once: the whole batch is answered from one generation even if a
  // swap lands mid-batch.
  const GenerationPtr generation = this->generation();
  for (const auto& [entity, property] : pairs) {
    SURVEYOR_SPAN("opinion_index.lookup");
    lookups_->Increment();
    if (generation == nullptr) {
      out.push_back(Status::FailedPrecondition("no snapshot loaded"));
    } else {
      out.push_back(LookupIn(*generation, entity, property));
    }
  }
  return out;
}

std::vector<ServedOpinion> OpinionIndex::QueryType(std::string_view type,
                                                   std::string_view property,
                                                   size_t limit) const {
  std::vector<ServedOpinion> out;
  const GenerationPtr pinned = this->generation();
  if (pinned == nullptr) return out;
  const LoadedGeneration& generation = *pinned;
  auto type_it = generation.type_by_name_.find(ToLower(type));
  auto property_it = generation.property_by_name_.find(ToLower(property));
  if (type_it == generation.type_by_name_.end() ||
      property_it == generation.property_by_name_.end()) {
    return out;
  }
  for (uint32_t b : generation.blocks_by_type_[type_it->second]) {
    const Snapshot::BlockView& block = generation.snapshot_.blocks()[b];
    if (block.property_index != property_it->second) continue;
    for (uint32_t r = 0; r < block.record_count; ++r) {
      const Snapshot::RecordView record =
          Snapshot::ReadRecord(block.records, r);
      if (record.polarity != Polarity::kPositive) continue;
      out.push_back(
          Materialize(generation, LoadedGeneration::RecordLoc{b, r}));
    }
  }
  std::sort(out.begin(), out.end(),
            [](const ServedOpinion& a, const ServedOpinion& b) {
              if (a.posterior != b.posterior) return a.posterior > b.posterior;
              return a.entity < b.entity;
            });
  if (limit > 0 && out.size() > limit) out.resize(limit);
  return out;
}

std::vector<std::string> OpinionIndex::PrefixScan(std::string_view prefix,
                                                  size_t limit) const {
  std::vector<std::string> out;
  const GenerationPtr pinned = this->generation();
  if (pinned == nullptr) return out;
  const LoadedGeneration& generation = *pinned;
  const std::string needle = ToLower(prefix);
  auto it = std::lower_bound(
      generation.sorted_entities_.begin(), generation.sorted_entities_.end(),
      needle,
      [](const auto& entry, const std::string& p) { return entry.first < p; });
  for (; it != generation.sorted_entities_.end(); ++it) {
    if (it->first.compare(0, needle.size(), needle) != 0) break;
    out.emplace_back(generation.snapshot_.EntityName(it->second));
    if (limit > 0 && out.size() >= limit) break;
  }
  return out;
}

}  // namespace serving
}  // namespace surveyor
