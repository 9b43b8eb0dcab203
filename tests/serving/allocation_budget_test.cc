// Heap allocations per /v1 request through AdminServer::Handle with the
// production AdminServerOptions: request scope, tracing, access log,
// dispatch, lookup and rendering. The counting global operator new below
// replaces the library's for this whole executable, which is why this
// test is a binary of its own.
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "obs/admin_server.h"
#include "obs/metrics.h"
#include "serving/opinion_index.h"
#include "serving/query_service.h"
#include "serving/snapshot.h"
#include "util/fault.h"

namespace {

std::atomic<int64_t> g_allocations{0};

void* CountedAlloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void* CountedAlignedAlloc(std::size_t size, std::align_val_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  const auto alignment = static_cast<std::size_t>(align);
  const std::size_t rounded = (size + alignment - 1) / alignment * alignment;
  if (void* p = std::aligned_alloc(alignment, rounded == 0 ? alignment
                                                           : rounded)) {
    return p;
  }
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return CountedAlloc(size); }
void* operator new[](std::size_t size) { return CountedAlloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}
void* operator new(std::size_t size, std::align_val_t align) {
  return CountedAlignedAlloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return CountedAlignedAlloc(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace surveyor {
namespace serving {
namespace {

constexpr int kTypes = 4;
constexpr int kEntitiesPerType = 80;
constexpr int kProperties = 3;

std::string EntityName(int type, int entity) {
  return "entity-" + std::to_string(type) + "-" + std::to_string(entity);
}

std::string WriteSnapshot() {
  SnapshotWriter writer;
  for (int t = 0; t < kTypes; ++t) {
    for (int e = 0; e < kEntitiesPerType; ++e) {
      for (int p = 0; p < kProperties; ++p) {
        SnapshotOpinion opinion;
        opinion.entity = EntityName(t, e);
        opinion.type = "type" + std::to_string(t);
        opinion.property = "prop" + std::to_string(p);
        opinion.posterior = 0.01 + 0.98 * ((e * 7 + p * 13) % 97) / 96.0;
        opinion.polarity = opinion.posterior >= 0.5 ? Polarity::kPositive
                                                    : Polarity::kNegative;
        EXPECT_TRUE(writer.Add(opinion).ok());
      }
    }
  }
  const std::string path = testing::TempDir() + "/allocation_budget.surv";
  EXPECT_TRUE(writer.WriteToFile(path).ok());
  return path;
}

struct Request {
  std::string method;
  std::string target;
  std::string body;
};

/// `n` requests of one shape, cycling over the snapshot's names.
std::vector<Request> PointRequests(int n) {
  std::vector<Request> requests;
  for (int i = 0; i < n; ++i) {
    requests.push_back(
        {"GET",
         "/v1/query?entity=" + EntityName(i % kTypes, i % kEntitiesPerType) +
             "&property=prop" + std::to_string(i % kProperties),
         ""});
  }
  return requests;
}

std::vector<Request> ScanRequests(int n) {
  std::vector<Request> requests;
  for (int i = 0; i < n; ++i) {
    requests.push_back({"GET",
                        "/v1/query?type=type" + std::to_string(i % kTypes) +
                            "&property=prop" + std::to_string(i % kProperties) +
                            "&limit=10",
                        ""});
  }
  return requests;
}

std::vector<Request> BatchRequests(int n, int pairs) {
  std::vector<Request> requests;
  for (int i = 0; i < n; ++i) {
    std::string body = "{\"queries\":[";
    for (int k = 0; k < pairs; ++k) {
      const int j = i * 31 + k;
      if (k > 0) body += ',';
      body += "{\"entity\":\"" +
              EntityName(j % kTypes, j % kEntitiesPerType) +
              "\",\"property\":\"prop" + std::to_string(j % kProperties) +
              "\"}";
    }
    body += "]}";
    requests.push_back({"POST", "/v1/query/batch", std::move(body)});
  }
  return requests;
}

class AllocationBudgetTest : public testing::Test {
 protected:
  AllocationBudgetTest()
      : service_(&index_, nullptr, &metrics_),
        server_(&metrics_, nullptr, nullptr, obs::AdminServerOptions{}) {
    EXPECT_TRUE(index_.Load(WriteSnapshot()).ok());
    service_.Register(&server_);
    // Enough mixed traffic to wrap the 512-entry access-log ring several
    // times, so every slot's strings have grown to a request's length.
    std::vector<Request> warm = PointRequests(2000);
    for (std::vector<Request> more :
         {ScanRequests(1000), BatchRequests(300, 32), BatchRequests(50, 256)}) {
      warm.insert(warm.end(), more.begin(), more.end());
    }
    for (size_t i = 0; i < warm.size(); ++i) {
      // Interleave the shapes the way a mixed workload does.
      const Request& request = warm[(i * 7919) % warm.size()];
      EXPECT_EQ(Send(request).status, 200);
    }
  }

  obs::AdminResponse Send(const Request& request) {
    return server_.Handle(request.method, request.target, request.body);
  }

  /// Allocations of each request, asserted against `budget` for every
  /// request whose trace the tracer did not keep (a kept trace copies its
  /// strings and spans out, by design, for 1% of requests); the mean over
  /// all requests, kept ones included, is held to the budget too.
  void ExpectBudget(const std::vector<Request>& requests, int64_t budget) {
    int64_t total = 0;
    int64_t kept = 0;
    for (const Request& request : requests) {
      const int64_t kept_before = server_.request_tracer().traces_kept();
      const int64_t before = g_allocations.load(std::memory_order_relaxed);
      const obs::AdminResponse response = Send(request);
      const int64_t allocations =
          g_allocations.load(std::memory_order_relaxed) - before;
      ASSERT_EQ(response.status, 200) << request.target;
      total += allocations;
      if (server_.request_tracer().traces_kept() != kept_before) {
        ++kept;
        continue;
      }
      EXPECT_LE(allocations, budget) << request.method << " "
                                     << request.target;
    }
    EXPECT_LT(kept, static_cast<int64_t>(requests.size()) / 10);
    EXPECT_LE(static_cast<double>(total) / requests.size(),
              static_cast<double>(budget));
  }

  ScopedFaults disarm_{""};
  OpinionIndex index_;
  obs::MetricRegistry metrics_;
  QueryService service_;
  obs::AdminServer server_;
};

TEST_F(AllocationBudgetTest, PointLookup) {
  ExpectBudget(PointRequests(500), 3);
}

TEST_F(AllocationBudgetTest, TypeScanOfTen) {
  ExpectBudget(ScanRequests(500), 3);
}

TEST_F(AllocationBudgetTest, BatchOf32) {
  ExpectBudget(BatchRequests(300, 32), 3);
}

TEST_F(AllocationBudgetTest, BatchOf256) {
  ExpectBudget(BatchRequests(100, 256), 4);
}

}  // namespace
}  // namespace serving
}  // namespace surveyor
