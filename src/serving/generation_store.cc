#include "serving/generation_store.h"

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <utility>

#include "obs/trace.h"
#include "serving/snapshot.h"
#include "util/crc32.h"
#include "util/durable_file.h"
#include "util/fault.h"
#include "util/logging.h"
#include "util/mmap_file.h"
#include "util/retry.h"
#include "util/string_util.h"

namespace surveyor {
namespace serving {
namespace {

namespace fs = std::filesystem;

constexpr char kManifestMagic[] = "SURVGEN 1";
constexpr char kSnapshotFileName[] = "snapshot.surv";

/// Parses a full unsigned decimal; false on junk, empty, or overflow-ish
/// input (a manifest is trusted only after its CRC, but parse strictly
/// anyway).
bool ParseU64(std::string_view text, uint64_t* out) {
  if (text.empty() || text.size() > 19) return false;
  uint64_t value = 0;
  for (char c : text) {
    if (c < '0' || c > '9') return false;
    value = value * 10 + static_cast<uint64_t>(c - '0');
  }
  *out = value;
  return true;
}

}  // namespace

GenerationStore::GenerationStore(std::string root,
                                 GenerationStoreOptions options)
    : root_(std::move(root)), options_(options) {
  if (options_.retain == 0) options_.retain = 1;
  if (options_.metrics != nullptr) {
    obs::MetricRegistry* metrics = options_.metrics;
    published_ = metrics->GetCounter("surveyor_generation_published_total");
    publish_failures_ =
        metrics->GetCounter("surveyor_generation_publish_failures_total");
    pruned_ = metrics->GetCounter("surveyor_generation_pruned_total");
    latest_gauge_ = metrics->GetGauge("surveyor_generation_latest");
    retained_gauge_ = metrics->GetGauge("surveyor_generations_retained");
    metrics->SetHelp("surveyor_generation_published_total",
                     "Snapshot generations committed to the manifest");
    metrics->SetHelp("surveyor_generation_publish_failures_total",
                     "Publishes that failed before commit (store unchanged)");
    metrics->SetHelp("surveyor_generation_pruned_total",
                     "Old generations removed by retention");
    metrics->SetHelp("surveyor_generation_latest",
                     "Latest committed generation id (0 = empty store)");
    metrics->SetHelp("surveyor_generations_retained",
                     "Generations currently on disk per the manifest");
  }
}

std::string GenerationStore::GenerationDir(uint64_t id) const {
  return root_ + "/" + StrFormat("gen-%06llu",
                                 static_cast<unsigned long long>(id));
}

std::string GenerationStore::ManifestPath() const {
  return root_ + "/MANIFEST";
}

std::string GenerationStore::SnapshotPath(uint64_t id) const {
  return GenerationDir(id) + "/" + kSnapshotFileName;
}

std::string GenerationStore::RenderManifest(
    const std::vector<uint64_t>& ids) {
  std::string text = std::string(kManifestMagic) + "\n";
  text += "latest " +
          std::to_string(ids.empty() ? 0 : ids.back()) + "\n";
  for (uint64_t id : ids) {
    text += "generation " + std::to_string(id) + "\n";
  }
  text += StrFormat("crc32 %08x\n", Crc32(text));
  return text;
}

Status GenerationStore::ParseManifest(std::string_view text,
                                      std::vector<uint64_t>* ids) {
  // The CRC footer covers every byte before its own line; a manifest is
  // only ever replaced whole (write-temp -> fsync -> rename), so a CRC
  // mismatch means bit rot or tampering, not a torn write.
  const size_t crc_line = text.rfind("crc32 ");
  if (crc_line == std::string_view::npos ||
      (crc_line != 0 && text[crc_line - 1] != '\n')) {
    return Status::Internal("generation manifest has no CRC footer");
  }
  std::string_view crc_text = text.substr(crc_line + 6);
  while (!crc_text.empty() &&
         (crc_text.back() == '\n' || crc_text.back() == '\r')) {
    crc_text.remove_suffix(1);
  }
  uint32_t declared = 0;
  if (crc_text.size() != 8) {
    return Status::Internal("generation manifest CRC footer malformed");
  }
  for (char c : crc_text) {
    int digit;
    if (c >= '0' && c <= '9') {
      digit = c - '0';
    } else if (c >= 'a' && c <= 'f') {
      digit = c - 'a' + 10;
    } else {
      return Status::Internal("generation manifest CRC footer malformed");
    }
    declared = declared * 16 + static_cast<uint32_t>(digit);
  }
  if (Crc32(text.substr(0, crc_line)) != declared) {
    return Status::Internal(
        "generation manifest failed its CRC check (corrupt file)");
  }

  std::istringstream lines{std::string(text.substr(0, crc_line))};
  std::string line;
  if (!std::getline(lines, line) || line != kManifestMagic) {
    return Status::Internal("generation manifest has a bad header");
  }
  if (!std::getline(lines, line) || line.rfind("latest ", 0) != 0) {
    return Status::Internal("generation manifest missing 'latest'");
  }
  uint64_t latest = 0;
  if (!ParseU64(std::string_view(line).substr(7), &latest)) {
    return Status::Internal("generation manifest 'latest' malformed");
  }
  ids->clear();
  while (std::getline(lines, line)) {
    if (line.empty()) continue;
    if (line.rfind("generation ", 0) != 0) {
      return Status::Internal("generation manifest has an unknown line");
    }
    uint64_t id = 0;
    if (!ParseU64(std::string_view(line).substr(11), &id) || id == 0) {
      return Status::Internal("generation manifest id malformed");
    }
    if (!ids->empty() && id <= ids->back()) {
      return Status::Internal("generation manifest ids not ascending");
    }
    ids->push_back(id);
  }
  if ((ids->empty() && latest != 0) ||
      (!ids->empty() && latest != ids->back())) {
    return Status::Internal(
        "generation manifest 'latest' disagrees with its generation list");
  }
  return Status::OK();
}

Status GenerationStore::LoadManifest() {
  const std::string path = ManifestPath();
  std::error_code ec;
  if (!fs::exists(path, ec)) {
    generations_.clear();
    return Status::OK();
  }
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::Internal("cannot read '" + path + "'");
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  std::vector<uint64_t> ids;
  SURVEYOR_RETURN_IF_ERROR(ParseManifest(text, &ids));
  // Every committed generation must be servable: the snapshot rename and
  // its fsyncs happen strictly before the manifest commit, so a listed
  // generation with no snapshot file means outside interference.
  for (uint64_t id : ids) {
    if (!fs::exists(SnapshotPath(id), ec)) {
      return Status::Internal("generation manifest lists generation " +
                              std::to_string(id) +
                              " but its snapshot file is missing");
    }
  }
  generations_ = std::move(ids);
  return Status::OK();
}

void GenerationStore::SweepOrphans() {
  std::error_code ec;
  std::vector<fs::path> doomed;
  for (const auto& entry : fs::directory_iterator(root_, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind(".tmp-", 0) == 0 ||
        (name.rfind("MANIFEST.tmp", 0) == 0)) {
      doomed.push_back(entry.path());
      continue;
    }
    if (name.rfind("gen-", 0) == 0) {
      uint64_t id = 0;
      const bool listed =
          ParseU64(std::string_view(name).substr(4), &id) &&
          std::find(generations_.begin(), generations_.end(), id) !=
              generations_.end();
      // An unlisted gen-<N> directory is the corpse of a publish that
      // died between the directory rename and the manifest commit. It
      // was never visible to readers; remove it so the id can be reused.
      if (!listed) doomed.push_back(entry.path());
    }
  }
  for (const fs::path& path : doomed) {
    fs::remove_all(path, ec);
    if (ec) {
      SURVEYOR_LOG(Warning) << "generation store: cannot sweep orphan '"
                            << path.string() << "': " << ec.message();
    }
  }
}

Status GenerationStore::Open() {
  SURVEYOR_SPAN("generation_store.open");
  MutexLock lock(mutex_);
  std::error_code ec;
  fs::create_directories(root_, ec);
  if (ec) {
    return Status::Internal("cannot create generation root '" + root_ +
                            "': " + ec.message());
  }
  SURVEYOR_RETURN_IF_ERROR(LoadManifest());
  SweepOrphans();
  opened_ = true;
  if (latest_gauge_ != nullptr) {
    latest_gauge_->Set(static_cast<double>(
        generations_.empty() ? 0 : generations_.back()));
    retained_gauge_->Set(static_cast<double>(generations_.size()));
  }
  return Status::OK();
}

Status GenerationStore::Refresh() {
  MutexLock lock(mutex_);
  if (!opened_) return Status::FailedPrecondition("store not opened");
  return LoadManifest();
}

StatusOr<uint64_t> GenerationStore::PublishFile(
    const std::string& source_path) {
  // Mapped, not streamed: PublishImage takes the image as one view.
  MmapFile source;
  const Status opened = source.Open(source_path);
  if (opened.code() == StatusCode::kNotFound) {
    return Status::NotFound("cannot read snapshot '" + source_path + "'");
  }
  SURVEYOR_RETURN_IF_ERROR(opened);
  return PublishImage(source.data());
}

StatusOr<uint64_t> GenerationStore::PublishImage(std::string_view image) {
  SURVEYOR_SPAN("generation_store.publish");
  MutexLock lock(mutex_);
  if (!opened_) return Status::FailedPrecondition("store not opened");

  std::error_code ec;
  const uint64_t id = (generations_.empty() ? 0 : generations_.back()) + 1;
  const std::string tmp_dir =
      root_ + "/" + StrFormat(".tmp-gen-%06llu",
                              static_cast<unsigned long long>(id));
  // Everything before the manifest commit is invisible to readers; on any
  // failure undo the scratch state so the store is exactly as before.
  auto fail = [&](Status status) -> StatusOr<uint64_t> {
    std::error_code cleanup_ec;
    fs::remove_all(tmp_dir, cleanup_ec);
    fs::remove_all(GenerationDir(id), cleanup_ec);
    if (publish_failures_ != nullptr) publish_failures_->Increment();
    return status;
  };

  // Fault point #1: death before any byte is written.
  if (SURVEYOR_FAULT("generation_publish")) {
    return fail(Status::Internal(
        "injected fault at generation_publish (before snapshot write)"));
  }

  fs::remove_all(tmp_dir, ec);
  fs::create_directories(tmp_dir, ec);
  if (ec) {
    return fail(Status::Internal("cannot create '" + tmp_dir +
                                 "': " + ec.message()));
  }
  const std::string tmp_snapshot =
      tmp_dir + "/" + kSnapshotFileName;
  const Status written = WriteFileDurable(tmp_snapshot, image);
  if (!written.ok()) return fail(written);

  // Validate before publication: a corrupt image (torn upstream file,
  // version skew) must be rejected here, not discovered by the first
  // query after a swap. A transient read failure is retried as
  // OpinionIndex retries it, so it does not fail the publish.
  {
    Snapshot probe;
    const RetryResult opened =
        RetryWithBackoff(RetryPolicy(), [&probe, &tmp_snapshot] {
          return probe.Open(tmp_snapshot);
        });
    if (!opened.status.ok()) {
      return fail(Status::Internal("snapshot image failed validation: " +
                                   std::string(opened.status.message())));
    }
  }

  // Fault point #2: death after the bytes are durable but before the
  // generation becomes nameable.
  if (SURVEYOR_FAULT("generation_publish")) {
    return fail(Status::Internal(
        "injected fault at generation_publish (before generation rename)"));
  }

  // A pre-existing gen-<id> directory is an orphan of a publish that died
  // before its manifest commit (same id, never visible); replace it.
  fs::remove_all(GenerationDir(id), ec);
  {
    const Status renamed = RenamePath(tmp_dir, GenerationDir(id));
    if (!renamed.ok()) return fail(renamed);
    const Status synced = SyncDir(root_);
    if (!synced.ok()) return fail(synced);
  }

  std::vector<uint64_t> retained = generations_;
  retained.push_back(id);
  std::vector<uint64_t> dropped;
  while (retained.size() > options_.retain) {
    dropped.push_back(retained.front());
    retained.erase(retained.begin());
  }

  // Fault point #3: death between the generation rename and the manifest
  // commit — the classic torn-publish window. The previous manifest is
  // still intact; gen-<id> is an orphan the next Open sweeps.
  if (SURVEYOR_FAULT("generation_manifest")) {
    return fail(Status::Internal(
        "injected fault at generation_manifest (before manifest commit)"));
  }

  const Status committed =
      WriteFileDurable(ManifestPath(), RenderManifest(retained));
  if (!committed.ok()) return fail(committed);

  // Committed. Retention pruning happens strictly after: a crash here
  // leaves unlisted gen dirs, which Open sweeps.
  generations_ = std::move(retained);
  for (uint64_t old : dropped) {
    fs::remove_all(GenerationDir(old), ec);
    if (pruned_ != nullptr) pruned_->Increment();
  }
  if (published_ != nullptr) published_->Increment();
  if (latest_gauge_ != nullptr) {
    latest_gauge_->Set(static_cast<double>(id));
    retained_gauge_->Set(static_cast<double>(generations_.size()));
  }
  return id;
}

uint64_t GenerationStore::latest() const {
  MutexLock lock(mutex_);
  return generations_.empty() ? 0 : generations_.back();
}

std::vector<uint64_t> GenerationStore::generations() const {
  MutexLock lock(mutex_);
  return generations_;
}

bool GenerationStore::Contains(uint64_t id) const {
  MutexLock lock(mutex_);
  return std::find(generations_.begin(), generations_.end(), id) !=
         generations_.end();
}

}  // namespace serving
}  // namespace surveyor
