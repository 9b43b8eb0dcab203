// Socket-level integration of the serving tier: the full stack (store +
// index + reload + query service on the epoll AdminServer) hammered by
// concurrent keep-alive clients while another client hot-swaps
// generations through POST /v1/admin/reload — the TSan proof that the
// serving threads, the connection hand-offs between them, and the
// generation swap are free of data races, and that the /v1 surface
// answers correctly over a real wire while the removed legacy paths 404.
#include <atomic>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#if defined(__linux__)

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "gtest/gtest.h"
#include "obs/admin_server.h"
#include "obs/metrics.h"
#include "serving/generation_store.h"
#include "serving/opinion_index.h"
#include "serving/query_service.h"
#include "serving/reload_service.h"
#include "serving/snapshot.h"
#include "util/fault.h"

namespace surveyor {
namespace serving {
namespace {

namespace fs = std::filesystem;

std::string MakeImage(const std::string& extra_entity) {
  SnapshotWriter writer;
  writer.set_label("serving socket test");
  for (const std::string& entity : {std::string("kitten"), extra_entity}) {
    SnapshotOpinion opinion;
    opinion.entity = entity;
    opinion.type = "animal";
    opinion.property = "cute";
    opinion.posterior = 0.9;
    opinion.polarity = Polarity::kPositive;
    EXPECT_TRUE(writer.Add(opinion).ok());
  }
  return writer.Serialize();
}

/// Minimal keep-alive HTTP/1.1 client with receive timeouts.
class Client {
 public:
  explicit Client(int port) : port_(port) {}
  ~Client() { Disconnect(); }

  /// Sends one request and returns the full response (head + body), or
  /// "" on a transport failure.
  std::string Roundtrip(const std::string& request) {
    if (fd_ < 0 && !Connect()) return "";
    if (!Send(request)) {
      Disconnect();
      if (!Connect() || !Send(request)) return "";
    }
    std::string response = ReadResponse();
    if (response.empty()) Disconnect();
    return response;
  }

  std::string Get(const std::string& target) {
    return Roundtrip("GET " + target + " HTTP/1.1\r\nHost: t\r\n\r\n");
  }

  std::string Post(const std::string& target) {
    return Roundtrip("POST " + target +
                     " HTTP/1.1\r\nHost: t\r\nContent-Length: 0\r\n\r\n");
  }

 private:
  bool Connect() {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return false;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port_));
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
        0) {
      Disconnect();
      return false;
    }
    return true;
  }

  void Disconnect() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
    buffer_.clear();
  }

  bool Send(const std::string& data) {
    size_t sent = 0;
    while (sent < data.size()) {
      const ssize_t n = ::send(fd_, data.data() + sent, data.size() - sent,
                               MSG_NOSIGNAL);
      if (n <= 0) return false;
      sent += static_cast<size_t>(n);
    }
    return true;
  }

  bool Fill() {
    pollfd pfd{fd_, POLLIN, 0};
    if (::poll(&pfd, 1, 5000) <= 0) return false;
    char chunk[4096];
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n <= 0) return false;
    buffer_.append(chunk, static_cast<size_t>(n));
    return true;
  }

  std::string ReadResponse() {
    size_t head_end;
    while ((head_end = buffer_.find("\r\n\r\n")) == std::string::npos) {
      if (!Fill()) return "";
    }
    size_t content_length = 0;
    const size_t marker = buffer_.find("Content-Length: ");
    if (marker != std::string::npos && marker < head_end) {
      for (size_t i = marker + 16;
           i < buffer_.size() && buffer_[i] >= '0' && buffer_[i] <= '9';
           ++i) {
        content_length =
            content_length * 10 + static_cast<size_t>(buffer_[i] - '0');
      }
    }
    const size_t total = head_end + 4 + content_length;
    while (buffer_.size() < total) {
      if (!Fill()) return "";
    }
    std::string response = buffer_.substr(0, total);
    buffer_.erase(0, total);
    return response;
  }

  int port_;
  int fd_ = -1;
  std::string buffer_;
};

/// Full serving stack over a real socket. Chaos faults from the
/// environment are disarmed: this suite proves thread-safety, not fault
/// recovery (the chaos integration suite covers that).
class ServingSocketTest : public testing::Test {
 protected:
  ServingSocketTest()
      : root_(testing::TempDir() + "/serving_socket_" +
              testing::UnitTest::GetInstance()->current_test_info()->name()),
        store_(root_, StoreOptions()),
        index_(IndexOptions()),
        reload_(&store_, &index_, &metrics_),
        query_(&index_, nullptr, &metrics_),
        admin_(&metrics_, nullptr, nullptr, AdminOptions()) {
    fs::remove_all(root_);
    EXPECT_TRUE(store_.Open().ok());
    reload_.Register(&admin_);
    query_.Register(&admin_);
  }

  ~ServingSocketTest() override { admin_.Stop(); }

  GenerationStoreOptions StoreOptions() {
    GenerationStoreOptions options;
    options.metrics = &metrics_;
    return options;
  }

  OpinionIndexOptions IndexOptions() {
    OpinionIndexOptions options;
    options.metrics = &metrics_;
    options.retry.max_attempts = 1;
    return options;
  }

  obs::AdminServerOptions AdminOptions() {
    obs::AdminServerOptions options;
    options.handler_threads = 3;
    // Writable alias of the scraped registry, so the transport metrics
    // (surveyor_http_*) land on /metrics.
    options.profiler_metrics = &metrics_;
    return options;
  }

  ScopedFaults disarm_{""};
  std::string root_;
  obs::MetricRegistry metrics_;
  GenerationStore store_;
  OpinionIndex index_;
  ReloadService reload_;
  QueryService query_;
  obs::AdminServer admin_;
};

TEST_F(ServingSocketTest, V1SurfaceAndShimsAnswerOverTheWire) {
  ASSERT_TRUE(store_.PublishImage(MakeImage("koala")).ok());
  ASSERT_TRUE(admin_.Start().ok());
  Client client(admin_.port());

  // Reload through the versioned path; envelope on the wire.
  const std::string reload = client.Post("/v1/admin/reload");
  EXPECT_NE(reload.find("HTTP/1.1 200 OK"), std::string::npos) << reload;
  EXPECT_NE(reload.find("\"data\":{\"generation\":1"), std::string::npos)
      << reload;
  EXPECT_EQ(reload.find("Deprecation:"), std::string::npos);

  // Query through the versioned path.
  const std::string query = client.Get("/v1/query?entity=kitten&property=cute");
  EXPECT_NE(query.find("HTTP/1.1 200 OK"), std::string::npos) << query;
  EXPECT_NE(query.find("\"data\":{\"entity\":\"kitten\""),
            std::string::npos)
      << query;

  // Errors speak the envelope too.
  const std::string miss =
      client.Get("/v1/query?entity=kitten&property=haunted");
  EXPECT_NE(miss.find("HTTP/1.1 404"), std::string::npos) << miss;
  EXPECT_NE(miss.find("\"error\":{\"code\":\"not_found\""),
            std::string::npos)
      << miss;

  // The legacy /query, /query/batch and /reloadz paths are gone: each is
  // a 404 in the error envelope, whatever the method.
  for (const std::string& removed :
       {client.Get("/query?entity=kitten&property=cute"),
        client.Post("/query/batch"), client.Post("/reloadz")}) {
    EXPECT_NE(removed.find("HTTP/1.1 404"), std::string::npos) << removed;
    EXPECT_NE(removed.find("\"error\":{\"code\":\"not_found\""),
              std::string::npos)
        << removed;
    EXPECT_EQ(removed.find("Deprecation:"), std::string::npos) << removed;
  }

  // The admin plane rides the same event loop.
  const std::string metrics = client.Get("/metrics");
  EXPECT_NE(metrics.find("surveyor_http_requests_total"), std::string::npos);
  const std::string tracez = client.Get("/tracez");
  EXPECT_NE(tracez.find("HTTP/1.1 200 OK"), std::string::npos);
}

TEST_F(ServingSocketTest, ConcurrentClientsAcrossLiveGenerationSwaps) {
  ASSERT_TRUE(store_.PublishImage(MakeImage("gen1")).ok());
  ASSERT_TRUE(store_.PublishImage(MakeImage("gen2")).ok());
  ASSERT_TRUE(admin_.Start().ok());
  {
    Client warm(admin_.port());
    ASSERT_NE(warm.Post("/v1/admin/reload").find("200 OK"),
              std::string::npos);
  }

  constexpr int kClients = 3;
  constexpr int kRequestsEach = 60;
  std::atomic<int> query_ok{0};
  std::atomic<int> query_bad{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      Client client(admin_.port());
      for (int i = 0; i < kRequestsEach; ++i) {
        // Mix the query surface with admin scrapes, all keep-alive.
        const std::string response =
            i % 10 == 9
                ? client.Get(c % 2 == 0 ? "/metrics" : "/tracez")
                : client.Get("/v1/query?entity=kitten&property=cute");
        if (response.find("HTTP/1.1 200 OK") != std::string::npos) {
          query_ok.fetch_add(1);
        } else {
          query_bad.fetch_add(1);
        }
      }
    });
  }

  // Meanwhile: hot-swap generations back and forth through the wire.
  std::atomic<int> swaps_ok{0};
  std::thread swapper([&] {
    Client client(admin_.port());
    for (int i = 0; i < 24; ++i) {
      const std::string target =
          "/v1/admin/reload?generation=" + std::to_string(1 + i % 2);
      if (client.Post(target).find("200 OK") != std::string::npos) {
        swaps_ok.fetch_add(1);
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });

  for (std::thread& client : clients) client.join();
  swapper.join();

  // Every query answered 200 across every swap — the hot swap never
  // blocks or breaks the serving path — and every swap landed.
  EXPECT_EQ(query_ok.load(), kClients * kRequestsEach);
  EXPECT_EQ(query_bad.load(), 0);
  EXPECT_EQ(swaps_ok.load(), 24);
  EXPECT_GE(metrics_.GetCounter("surveyor_reloads_total")->Value(), 2);
}

}  // namespace
}  // namespace serving
}  // namespace surveyor

#endif  // defined(__linux__)
