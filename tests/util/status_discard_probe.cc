// Must not compile: each statement below drops a Status or StatusOr, and
// both are [[nodiscard]], so the project's -Wall -Wextra -Werror rejects
// every one. Built only by the ctest `discarded_status_does_not_compile`
// (tests/CMakeLists.txt), which passes on GCC's diagnostic for them.

#include "util/status.h"
#include "util/statusor.h"

namespace surveyor {
namespace status_discard_probe {

Status Save() { return Status::OK(); }

StatusOr<int> Count() { return 1; }

class Store {
 public:
  Status Flush() { return Status::OK(); }
};

void DropsEveryResult(Store* store) {
  Save();
  Count();
  store->Flush();
}

}  // namespace status_discard_probe
}  // namespace surveyor
