#ifndef SURVEYOR_SERVING_SNAPSHOT_INTERNAL_H_
#define SURVEYOR_SERVING_SNAPSHOT_INTERNAL_H_

#include <cstdint>
#include <string_view>

#include "util/status.h"

// How Snapshot::Open splits its validation across threads, exposed so
// tests can validate an image at any part count. Callers use
// serving/snapshot.h.

namespace surveyor {
namespace serving {
namespace snapshot_internal {

/// Opinions per validation part. Open validates an image of n opinions in
/// clamp(n / kOpinionsPerPart, 1, UsableCpus()) parts, so one of fewer
/// than 2 x kOpinionsPerPart opinions validates on the calling thread
/// without creating a thread. A part of this size takes at least about
/// ten times as long as starting and joining a thread (DESIGN.md §10).
inline constexpr uint64_t kOpinionsPerPart = 25000;

/// The CPUs this thread may run on (sched_getaffinity), at least 1.
int UsableCpus();

/// The part count Open validates an image of `opinions` opinions in.
int DefaultParts(uint64_t opinions);

/// Validates `image` as Snapshot::Open validates a mapped file, with each
/// content pass split into exactly `parts` (>= 1) ranges, on parts - 1
/// threads and the caller. The verdict and message do not depend on
/// `parts`.
Status ValidateImage(std::string_view image, int parts);

}  // namespace snapshot_internal
}  // namespace serving
}  // namespace surveyor

#endif  // SURVEYOR_SERVING_SNAPSHOT_INTERNAL_H_
