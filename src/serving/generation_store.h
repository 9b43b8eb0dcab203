#ifndef SURVEYOR_SERVING_GENERATION_STORE_H_
#define SURVEYOR_SERVING_GENERATION_STORE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/statusor.h"
#include "util/thread_annotations.h"

namespace surveyor {
namespace serving {

struct GenerationStoreOptions {
  /// Generations kept on disk, newest inclusive. Publishing the (N+1)-th
  /// prunes the oldest after the manifest commits. Must be >= 1; older
  /// retained generations are the rollback targets of /v1/admin/reload.
  size_t retain = 4;
  /// Publish/prune counters and the latest-generation gauge land here;
  /// nullptr records nothing.
  obs::MetricRegistry* metrics = nullptr;
};

/// Crash-safe snapshot generations: the durable hand-off of the
/// "Subjective Databases" loop (mine -> publish -> serve -> re-mine). A
/// store is one directory:
///
///   <root>/MANIFEST            committed state, CRC-32 checked
///   <root>/gen-000007/         one published generation
///       snapshot.surv
///   <root>/.tmp-gen-000008     an in-flight publish (invisible until
///                              renamed; swept at Open)
///
/// Publish ordering (every arrow is an fsync barrier):
///
///   write snapshot into .tmp dir -> rename .tmp -> gen-<N> ->
///   write MANIFEST.tmp -> rename over MANIFEST -> prune old gen dirs
///
/// A publisher that dies at ANY instruction leaves the previous MANIFEST
/// intact, so a reopening store always sees the last complete generation
/// and never a half-visible one: a gen-<N> directory not named by the
/// manifest is an orphan (crashed between the two renames) and is swept,
/// never served. The fault points `generation_publish` (evaluated before
/// the snapshot write and again before the directory rename) and
/// `generation_manifest` (before the manifest replace) simulate those
/// deaths under test and in the chaos CI profile.
///
/// Thread-safe; Publish assumes one publishing process per store (ids are
/// allocated from the manifest read at Open/Refresh).
class GenerationStore {
 public:
  explicit GenerationStore(std::string root,
                           GenerationStoreOptions options = {});

  /// Creates the root directory if needed, loads and CRC-checks the
  /// manifest (an absent manifest is an empty store, not an error),
  /// verifies every listed generation's snapshot file exists, and sweeps
  /// the leftovers of crashed publishes (.tmp-* and unlisted gen-*
  /// directories). Internal on a corrupt manifest or a listed-but-missing
  /// generation — serving must not guess.
  Status Open() SURVEYOR_EXCLUDES(mutex_);

  /// Re-reads the manifest from disk, picking up generations published by
  /// another process (the mine -> /v1/admin/reload loop). Same validation
  /// as Open, without the sweep.
  Status Refresh() SURVEYOR_EXCLUDES(mutex_);

  /// Publishes `image` (a serialized snapshot) as the next generation and
  /// returns its id. The image is validated by a full snapshot open
  /// before the generation becomes visible — a corrupt image is rejected,
  /// never published. On any failure the store (and its manifest) is
  /// exactly as before.
  StatusOr<uint64_t> PublishImage(std::string_view image)
      SURVEYOR_EXCLUDES(mutex_);

  /// Reads `source_path` and publishes its bytes (the CLI's
  /// `mine --publish` hand-off from SnapshotWriter::WriteToFile output).
  StatusOr<uint64_t> PublishFile(const std::string& source_path)
      SURVEYOR_EXCLUDES(mutex_);

  /// Latest committed generation id; 0 when the store is empty.
  uint64_t latest() const SURVEYOR_EXCLUDES(mutex_);

  /// Committed generation ids, oldest first (the rollback menu).
  std::vector<uint64_t> generations() const SURVEYOR_EXCLUDES(mutex_);

  /// True when `id` is committed (and therefore loadable).
  bool Contains(uint64_t id) const SURVEYOR_EXCLUDES(mutex_);

  /// Path of generation `id`'s snapshot file. The id need not be
  /// committed (used internally during publish); callers should check
  /// Contains first.
  std::string SnapshotPath(uint64_t id) const;

  const std::string& root() const { return root_; }

 private:
  std::string GenerationDir(uint64_t id) const;
  std::string ManifestPath() const;

  /// Serializes `ids` (+ latest) into manifest text with the CRC footer.
  static std::string RenderManifest(const std::vector<uint64_t>& ids);

  /// Parses + CRC-checks manifest text into `ids` (ascending).
  static Status ParseManifest(std::string_view text,
                              std::vector<uint64_t>* ids);

  /// Loads the manifest into members; shared by Open and Refresh.
  Status LoadManifest() SURVEYOR_REQUIRES(mutex_);

  /// Removes .tmp-* and gen-* directories the manifest does not name.
  void SweepOrphans() SURVEYOR_REQUIRES(mutex_);

  const std::string root_;
  GenerationStoreOptions options_;

  obs::Counter* published_ = nullptr;
  obs::Counter* publish_failures_ = nullptr;
  obs::Counter* pruned_ = nullptr;
  obs::Gauge* latest_gauge_ = nullptr;
  obs::Gauge* retained_gauge_ = nullptr;

  mutable Mutex mutex_;
  bool opened_ SURVEYOR_GUARDED_BY(mutex_) = false;
  std::vector<uint64_t> generations_ SURVEYOR_GUARDED_BY(mutex_);
};

}  // namespace serving
}  // namespace surveyor

#endif  // SURVEYOR_SERVING_GENERATION_STORE_H_
