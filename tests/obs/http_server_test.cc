#include "obs/http_server.h"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "obs/metrics.h"

#if defined(__linux__)

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

namespace surveyor {
namespace obs {
namespace {

/// Raw blocking client with a receive timeout, so a server bug shows up
/// as a test failure instead of a hung test binary.
class RawClient {
 public:
  explicit RawClient(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd_, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port));
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    EXPECT_EQ(::connect(fd_, reinterpret_cast<sockaddr*>(&addr),
                        sizeof(addr)),
              0);
  }

  ~RawClient() { Close(); }

  void Close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
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

  /// Reads until `terminator` appears in the buffered stream (or times
  /// out) and consumes through it; pipelined bytes past the terminator
  /// stay buffered for the next read.
  std::string ReadUntil(const std::string& terminator,
                        int timeout_ms = 5000) {
    size_t end;
    while ((end = buffer_.find(terminator)) == std::string::npos) {
      if (!Fill(timeout_ms)) {
        std::string rest = std::move(buffer_);
        buffer_.clear();
        return rest;
      }
    }
    std::string data = buffer_.substr(0, end + terminator.size());
    buffer_.erase(0, end + terminator.size());
    return data;
  }

  /// Reads and consumes one full response: head + Content-Length body.
  std::string ReadResponse(int timeout_ms = 5000) {
    size_t head_end;
    while ((head_end = buffer_.find("\r\n\r\n")) == std::string::npos) {
      if (!Fill(timeout_ms)) {
        std::string rest = std::move(buffer_);
        buffer_.clear();
        return rest;
      }
    }
    size_t content_length = 0;
    const size_t marker = buffer_.find("Content-Length: ");
    if (marker != std::string::npos && marker < head_end) {
      for (size_t i = marker + 16; i < buffer_.size() &&
                                   buffer_[i] >= '0' && buffer_[i] <= '9';
           ++i) {
        content_length = content_length * 10 +
                         static_cast<size_t>(buffer_[i] - '0');
      }
    }
    const size_t total = head_end + 4 + content_length;
    while (buffer_.size() < total) {
      if (!Fill(timeout_ms)) break;
    }
    std::string data = buffer_.substr(0, total);
    buffer_.erase(0, std::min(total, buffer_.size()));
    return data;
  }

  /// Reads until the peer closes; "" on timeout with nothing read.
  std::string ReadToEof(int timeout_ms = 5000) {
    while (Fill(timeout_ms)) {
    }
    std::string data = std::move(buffer_);
    buffer_.clear();
    return data;
  }

  /// True when the peer has closed (EOF within the timeout).
  bool AtEof(int timeout_ms = 5000) {
    pollfd pfd{fd_, POLLIN, 0};
    if (::poll(&pfd, 1, timeout_ms) <= 0) return false;
    char byte;
    return ::recv(fd_, &byte, 1, MSG_PEEK) == 0;
  }

 private:
  bool Fill(int timeout_ms) {
    pollfd pfd{fd_, POLLIN, 0};
    if (::poll(&pfd, 1, timeout_ms) <= 0) return false;
    char chunk[4096];
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n <= 0) return false;
    buffer_.append(chunk, static_cast<size_t>(n));
    return true;
  }

  int fd_ = -1;
  std::string buffer_;
};

/// An echo-ish handler: 200 with the method and target in the body so
/// tests can match responses to requests.
HttpResponse EchoHandler(std::string_view method, std::string_view target,
                         std::string_view body) {
  HttpResponse response;
  response.body = std::string(method) + " " + std::string(target);
  if (!body.empty()) {
    response.body += " body=" + std::string(body);
  }
  response.body += "\n";
  return response;
}

HttpServerOptions SmallOptions() {
  HttpServerOptions options;
  options.handler_threads = 2;
  return options;
}

TEST(HttpServerTest, KeepAliveServesManyRequestsOnOneConnection) {
  HttpServer server(EchoHandler, SmallOptions());
  ASSERT_TRUE(server.Start().ok());
  RawClient client(server.port());
  for (int i = 0; i < 5; ++i) {
    const std::string target = "/ping?n=" + std::to_string(i);
    ASSERT_TRUE(client.Send("GET " + target +
                            " HTTP/1.1\r\nHost: t\r\n\r\n"));
    const std::string response = client.ReadResponse();
    EXPECT_NE(response.find("HTTP/1.1 200 OK"), std::string::npos);
    EXPECT_NE(response.find("Connection: keep-alive"), std::string::npos);
    EXPECT_NE(response.find("GET " + target), std::string::npos);
  }
  // All five answers came over the same accepted connection.
  EXPECT_EQ(server.open_connections(), 1u);
  server.Stop();
}

TEST(HttpServerTest, Http10ConnectionClosesAfterResponse) {
  HttpServer server(EchoHandler, SmallOptions());
  ASSERT_TRUE(server.Start().ok());
  RawClient client(server.port());
  ASSERT_TRUE(client.Send("GET /one HTTP/1.0\r\nHost: t\r\n\r\n"));
  const std::string response = client.ReadToEof();
  EXPECT_NE(response.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(response.find("Connection: close"), std::string::npos);
  server.Stop();
}

TEST(HttpServerTest, PipelinedRequestsAnswerInOrder) {
  HttpServer server(EchoHandler, SmallOptions());
  ASSERT_TRUE(server.Start().ok());
  RawClient client(server.port());
  ASSERT_TRUE(client.Send(
      "GET /first HTTP/1.1\r\nHost: t\r\n\r\n"
      "GET /second HTTP/1.1\r\nHost: t\r\n\r\n"
      "GET /third HTTP/1.1\r\nHost: t\r\n\r\n"));
  const std::string r1 = client.ReadResponse();
  const std::string r2 = client.ReadResponse();
  const std::string r3 = client.ReadResponse();
  EXPECT_NE(r1.find("GET /first"), std::string::npos) << r1;
  EXPECT_NE(r2.find("GET /second"), std::string::npos) << r2;
  EXPECT_NE(r3.find("GET /third"), std::string::npos) << r3;
  server.Stop();
}

TEST(HttpServerTest, HeadEndsAtItsFirstTerminatorCrlfOrBareLf) {
  // A blank line in a CRLF request's body is body, and a bare-LF request
  // pipelined behind it still parses, as does a bare-LF head whose body
  // holds a CRLF blank line.
  HttpServer server(EchoHandler, SmallOptions());
  ASSERT_TRUE(server.Start().ok());
  RawClient client(server.port());
  const std::string lf_body = "line one\n\nline two";
  const std::string crlf_body = "line one\r\n\r\nline two";
  ASSERT_TRUE(client.Send(
      "POST /crlf HTTP/1.1\r\nHost: t\r\nContent-Length: " +
      std::to_string(lf_body.size()) + "\r\n\r\n" + lf_body +
      "GET /bare HTTP/1.1\nHost: t\n\n"
      "POST /bare-body HTTP/1.1\nContent-Length: " +
      std::to_string(crlf_body.size()) + "\n\n" + crlf_body));
  const std::string r1 = client.ReadResponse();
  const std::string r2 = client.ReadResponse();
  const std::string r3 = client.ReadResponse();
  EXPECT_NE(r1.find("HTTP/1.1 200 OK"), std::string::npos) << r1;
  EXPECT_NE(r1.find("POST /crlf body=" + lf_body), std::string::npos) << r1;
  EXPECT_NE(r2.find("HTTP/1.1 200 OK"), std::string::npos) << r2;
  EXPECT_NE(r2.find("GET /bare\n"), std::string::npos) << r2;
  EXPECT_NE(r3.find("POST /bare-body body=" + crlf_body), std::string::npos)
      << r3;
  server.Stop();
}

TEST(HttpServerTest, SlowLorisPartialRequestIsAnswered408AndClosed) {
  MetricRegistry metrics;
  HttpServerOptions options = SmallOptions();
  options.idle_timeout_seconds = 0.2;
  options.metrics = &metrics;
  HttpServer server(EchoHandler, options);
  ASSERT_TRUE(server.Start().ok());
  RawClient client(server.port());
  // A request head that never finishes.
  ASSERT_TRUE(client.Send("GET /slow HTTP/1.1\r\nHost: t\r\n"));
  const std::string response = client.ReadToEof();
  EXPECT_NE(response.find("HTTP/1.1 408"), std::string::npos) << response;
  EXPECT_GE(
      metrics.GetCounter("surveyor_http_idle_timeouts_total")->Value(), 1);
  server.Stop();
}

TEST(HttpServerTest, IdleKeepAliveConnectionIsReapedQuietly) {
  HttpServerOptions options = SmallOptions();
  options.idle_timeout_seconds = 0.2;
  HttpServer server(EchoHandler, options);
  ASSERT_TRUE(server.Start().ok());
  RawClient client(server.port());
  ASSERT_TRUE(client.Send("GET /ok HTTP/1.1\r\nHost: t\r\n\r\n"));
  EXPECT_NE(client.ReadResponse().find("200 OK"), std::string::npos);
  // Idle with no partial request: the sweep closes without a response.
  EXPECT_TRUE(client.AtEof());
  EXPECT_EQ(server.open_connections(), 0u);
  server.Stop();
}

TEST(HttpServerTest, OversizedHeadIsRejected431) {
  HttpServerOptions options = SmallOptions();
  options.max_header_bytes = 256;
  HttpServer server(EchoHandler, options);
  ASSERT_TRUE(server.Start().ok());
  RawClient client(server.port());
  ASSERT_TRUE(client.Send("GET /big HTTP/1.1\r\nHost: t\r\nX-Pad: " +
                          std::string(512, 'x') + "\r\n\r\n"));
  const std::string response = client.ReadToEof();
  EXPECT_NE(response.find("HTTP/1.1 431"), std::string::npos) << response;
  server.Stop();
}

TEST(HttpServerTest, MalformedRequestLineIsRejected400) {
  HttpServer server(EchoHandler, SmallOptions());
  ASSERT_TRUE(server.Start().ok());
  RawClient client(server.port());
  ASSERT_TRUE(client.Send("NONSENSE\r\n\r\n"));
  const std::string response = client.ReadToEof();
  EXPECT_NE(response.find("HTTP/1.1 400"), std::string::npos) << response;
  server.Stop();
}

TEST(HttpServerTest, OversizedBodyIsRejected413) {
  HttpServerOptions options = SmallOptions();
  options.max_body_bytes = 64;
  HttpServer server(EchoHandler, options);
  ASSERT_TRUE(server.Start().ok());
  RawClient client(server.port());
  ASSERT_TRUE(client.Send("POST /p HTTP/1.1\r\nHost: t\r\n"
                          "Content-Length: 1000\r\n\r\n"));
  const std::string response = client.ReadToEof();
  EXPECT_NE(response.find("HTTP/1.1 413"), std::string::npos) << response;
  server.Stop();
}

TEST(HttpServerTest, ChunkedEncodingIsRejected501) {
  HttpServer server(EchoHandler, SmallOptions());
  ASSERT_TRUE(server.Start().ok());
  RawClient client(server.port());
  ASSERT_TRUE(client.Send("POST /c HTTP/1.1\r\nHost: t\r\n"
                          "Transfer-Encoding: chunked\r\n\r\n"));
  const std::string response = client.ReadToEof();
  EXPECT_NE(response.find("HTTP/1.1 501"), std::string::npos) << response;
  server.Stop();
}

TEST(HttpServerTest, PostBodyReachesTheHandler) {
  HttpServer server(EchoHandler, SmallOptions());
  ASSERT_TRUE(server.Start().ok());
  RawClient client(server.port());
  const std::string body = "{\"hello\":\"world\"}";
  ASSERT_TRUE(client.Send("POST /submit HTTP/1.1\r\nHost: t\r\n"
                          "Content-Length: " + std::to_string(body.size()) +
                          "\r\n\r\n" + body));
  const std::string response = client.ReadResponse();
  EXPECT_NE(response.find("body=" + body), std::string::npos) << response;
  server.Stop();
}

TEST(HttpServerTest, HeadKeepsContentLengthButSuppressesBody) {
  HttpServer server(EchoHandler, SmallOptions());
  ASSERT_TRUE(server.Start().ok());
  RawClient client(server.port());
  // HEAD then GET pipelined: the HEAD response must not carry a body, or
  // the GET response would be misframed.
  ASSERT_TRUE(client.Send("HEAD /h HTTP/1.1\r\nHost: t\r\n\r\n"
                          "GET /after HTTP/1.1\r\nHost: t\r\n\r\n"));
  const std::string head = client.ReadUntil("\r\n\r\n");
  EXPECT_NE(head.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(head.find("Content-Length:"), std::string::npos);
  const std::string after = client.ReadResponse();
  EXPECT_NE(after.find("GET /after"), std::string::npos) << after;
  server.Stop();
}

TEST(HttpServerTest, Expect100ContinueIsAcknowledged) {
  HttpServer server(EchoHandler, SmallOptions());
  ASSERT_TRUE(server.Start().ok());
  RawClient client(server.port());
  const std::string body = "late-body";
  ASSERT_TRUE(client.Send("POST /e HTTP/1.1\r\nHost: t\r\n"
                          "Expect: 100-continue\r\n"
                          "Content-Length: " + std::to_string(body.size()) +
                          "\r\n\r\n"));
  const std::string interim = client.ReadUntil("\r\n\r\n");
  EXPECT_NE(interim.find("HTTP/1.1 100 Continue"), std::string::npos)
      << interim;
  ASSERT_TRUE(client.Send(body));
  const std::string response = client.ReadResponse();
  EXPECT_NE(response.find("body=" + body), std::string::npos) << response;
  server.Stop();
}

TEST(HttpServerTest, ExtraResponseHeadersAreWrittenVerbatim) {
  HttpServer server(
      [](std::string_view, std::string_view, std::string_view) {
        HttpResponse response;
        response.body = "ok\n";
        response.headers.emplace_back("Deprecation", "true");
        response.headers.emplace_back("Retry-After", "1");
        return response;
      },
      SmallOptions());
  ASSERT_TRUE(server.Start().ok());
  RawClient client(server.port());
  ASSERT_TRUE(client.Send("GET / HTTP/1.1\r\nHost: t\r\n\r\n"));
  const std::string response = client.ReadResponse();
  EXPECT_NE(response.find("Deprecation: true"), std::string::npos);
  EXPECT_NE(response.find("Retry-After: 1"), std::string::npos);
  server.Stop();
}

/// A handler latch: `Hold()` parks handlers until `Release()`, and
/// `WaitEntered()` returns once one is parked. A hold gives up after 10 s
/// as a last resort; a ReleaseOnExit declared after the server frees it
/// first.
class HandlerLatch {
 public:
  /// Releases the latch when the test's scope ends, also through an
  /// ASSERT_* that returns early. Declared after the server, it runs
  /// before the server's destructor drains the parked handler.
  struct ReleaseOnExit {
    ~ReleaseOnExit() { latch.Release(); }
    HandlerLatch& latch;
  };

  void Hold() {
    std::unique_lock<std::mutex> lock(mutex_);
    entered_ = true;
    cv_.notify_all();
    cv_.wait_for(lock, std::chrono::seconds(10), [this] { return released_; });
  }

  bool WaitEntered() {
    std::unique_lock<std::mutex> lock(mutex_);
    return cv_.wait_for(lock, std::chrono::seconds(5),
                        [this] { return entered_; });
  }

  void Release() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      released_ = true;
    }
    cv_.notify_all();
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  bool entered_ = false;
  bool released_ = false;
};

TEST(HttpServerTest, QueueOverflowIsShedWith429RetryAfter) {
  // One handler slot wedged on a latch + a one-deep queue: the third
  // concurrent request has nowhere to go and must be shed immediately.
  MetricRegistry metrics;
  HttpServerOptions options = SmallOptions();
  options.handler_threads = 1;
  options.queue_high_water = 1;
  options.metrics = &metrics;
  HandlerLatch latch;
  HttpServer server(
      [&](std::string_view, std::string_view, std::string_view) {
        latch.Hold();
        HttpResponse response;
        response.body = "done\n";
        return response;
      },
      options);
  const HandlerLatch::ReleaseOnExit release{latch};
  ASSERT_TRUE(server.Start().ok());

  // Each request is in place before the next one is sent, so the probe
  // is the one that finds the queue full.
  RawClient blocked(server.port());  // occupies the handler slot
  ASSERT_TRUE(blocked.Send("GET /a HTTP/1.1\r\nHost: t\r\n\r\n"));
  ASSERT_TRUE(latch.WaitEntered());
  RawClient queued(server.port());  // fills the queue
  ASSERT_TRUE(queued.Send("GET /b HTTP/1.1\r\nHost: t\r\n\r\n"));
  const Gauge* depth = metrics.GetGauge("surveyor_http_queue_depth");
  for (int i = 0; i < 5000 && depth->Value() != 1; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(depth->Value(), 1);

  RawClient probe(server.port());
  ASSERT_TRUE(probe.Send("GET /c HTTP/1.1\r\nHost: t\r\n\r\n"));
  const std::string shed_response = probe.ReadResponse();
  ASSERT_NE(shed_response.find("HTTP/1.1 429"), std::string::npos)
      << shed_response;
  EXPECT_NE(shed_response.find("Retry-After:"), std::string::npos);
  // The shed connection stays usable — admission control rejects the
  // request, not the client.
  EXPECT_NE(shed_response.find("Connection: keep-alive"),
            std::string::npos);
  EXPECT_EQ(server.shed_count(), 1);
  EXPECT_EQ(metrics.GetCounter("surveyor_http_shed_total")->Value(), 1);

  latch.Release();
  EXPECT_NE(blocked.ReadResponse().find("200 OK"), std::string::npos);
  EXPECT_NE(queued.ReadResponse().find("200 OK"), std::string::npos);
  server.Stop();
}

TEST(HttpServerTest, SlowHandlerDoesNotStallOtherConnections) {
  // A handler wedged on one connection holds one of two slots; another
  // connection's keep-alive requests keep flowing meanwhile.
  HttpServerOptions options = SmallOptions();
  options.handler_threads = 2;
  HandlerLatch latch;
  HttpServer server(
      [&](std::string_view method, std::string_view target,
          std::string_view body) {
        if (target == "/wedge") latch.Hold();
        return EchoHandler(method, target, body);
      },
      options);
  const HandlerLatch::ReleaseOnExit release{latch};
  ASSERT_TRUE(server.Start().ok());

  RawClient wedged(server.port());
  ASSERT_TRUE(wedged.Send("GET /wedge HTTP/1.1\r\nHost: t\r\n\r\n"));
  ASSERT_TRUE(latch.WaitEntered());

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  RawClient other(server.port());
  for (int i = 0; i < 50; ++i) {
    const std::string target = "/fast?n=" + std::to_string(i);
    ASSERT_TRUE(other.Send("GET " + target + " HTTP/1.1\r\nHost: t\r\n\r\n"));
    const std::string response = other.ReadResponse(/*timeout_ms=*/1000);
    ASSERT_NE(response.find("GET " + target), std::string::npos) << response;
  }
  EXPECT_LT(std::chrono::steady_clock::now(), deadline);

  latch.Release();
  EXPECT_NE(wedged.ReadResponse().find("200 OK"), std::string::npos);
  server.Stop();
}

TEST(HttpServerTest, RequestsStayOnTheirConnectionsThread) {
  // Each connection is homed on one serving thread's loop, and only the
  // stall guard reads its requests elsewhere, counting each one it does.
  MetricRegistry metrics;
  HttpServerOptions options;
  options.metrics = &metrics;
  constexpr int kConnections = 4;
  constexpr int kRequestsEach = 50;
  std::mutex mutex;
  std::vector<std::map<std::thread::id, int>> served(kConnections);
  HttpServer server(
      [&](std::string_view method, std::string_view target,
          std::string_view body) {
        const int connection = target[2] - '0';  // "/c<i>?r=<j>"
        {
          std::lock_guard<std::mutex> lock(mutex);
          ++served[connection][std::this_thread::get_id()];
        }
        return EchoHandler(method, target, body);
      },
      options);
  ASSERT_TRUE(server.Start().ok());
  const auto request = [](int connection, int r) {
    return "/c" + std::to_string(connection) + "?r=" + std::to_string(r);
  };

  // Each connection is answered once before the next connects, so every
  // placement counts the connections placed before it.
  std::vector<std::unique_ptr<RawClient>> clients;
  for (int c = 0; c < kConnections; ++c) {
    clients.push_back(std::make_unique<RawClient>(server.port()));
    ASSERT_TRUE(clients[c]->Send("GET " + request(c, 0) +
                                 " HTTP/1.1\r\nHost: t\r\n\r\n"));
    ASSERT_NE(clients[c]->ReadResponse().find("200 OK"), std::string::npos);
  }
  std::atomic<int> ok{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < kConnections; ++c) {
    threads.emplace_back([&, c] {
      for (int r = 1; r < kRequestsEach; ++r) {
        const std::string target = request(c, r);
        if (!clients[c]->Send("GET " + target +
                              " HTTP/1.1\r\nHost: t\r\n\r\n")) {
          return;
        }
        if (clients[c]->ReadResponse().find("GET " + target) !=
            std::string::npos) {
          ok.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(ok.load(), kConnections * (kRequestsEach - 1));

  // A connection's home thread is the one that served most of its
  // requests; the rest were read off it.
  std::set<std::thread::id> homes;
  int64_t off_home = 0;
  {
    std::lock_guard<std::mutex> lock(mutex);
    for (const auto& by_thread : served) {
      auto home = by_thread.begin();
      int total = 0;
      for (auto it = by_thread.begin(); it != by_thread.end(); ++it) {
        total += it->second;
        if (it->second > home->second) home = it;
      }
      ASSERT_EQ(total, kRequestsEach);
      homes.insert(home->first);
      off_home += total - home->second;
    }
  }
  EXPECT_EQ(homes.size(), static_cast<size_t>(kConnections));
  EXPECT_LE(off_home,
            metrics.GetCounter("surveyor_http_stolen_total")->Value());
  server.Stop();
}

TEST(HttpServerTest, WedgedThreadStrandsNoConnection) {
  // One handler slot, a one-deep queue, two serving threads. The wedged
  // handler holds the slot and its thread, and new connections are homed
  // on both loops in turn; those on the wedged thread's loop must still
  // be read, then queued or shed, by the other thread within the stall
  // bound.
  MetricRegistry metrics;
  HttpServerOptions options;
  options.handler_threads = 1;
  options.queue_high_water = 1;
  options.metrics = &metrics;
  HandlerLatch latch;
  HttpServer server(
      [&](std::string_view, std::string_view, std::string_view) {
        latch.Hold();
        HttpResponse response;
        response.body = "done\n";
        return response;
      },
      options);
  const HandlerLatch::ReleaseOnExit release{latch};
  ASSERT_TRUE(server.Start().ok());
  RawClient wedged(server.port());
  ASSERT_TRUE(wedged.Send("GET /wedge HTTP/1.1\r\nHost: t\r\n\r\n"));
  ASSERT_TRUE(latch.WaitEntered());

  constexpr int kClients = 6;
  std::vector<std::unique_ptr<RawClient>> clients;
  for (int i = 0; i < kClients; ++i) {
    clients.push_back(std::make_unique<RawClient>(server.port()));
    ASSERT_TRUE(clients[i]->Send("GET /r" + std::to_string(i) +
                                 " HTTP/1.1\r\nHost: t\r\n\r\n"));
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(250);
  int shed = 0;
  std::vector<RawClient*> waiting;
  for (const auto& client : clients) {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - std::chrono::steady_clock::now());
    const int left_ms = static_cast<int>(std::max<int64_t>(0, left.count()));
    const std::string response = client->ReadResponse(left_ms);
    if (response.find("HTTP/1.1 429") != std::string::npos) {
      ++shed;
    } else {
      EXPECT_EQ(response, "");
      waiting.push_back(client.get());
    }
  }
  EXPECT_EQ(shed, kClients - 1);
  ASSERT_EQ(waiting.size(), 1u);
  EXPECT_EQ(metrics.GetGauge("surveyor_http_queue_depth")->Value(), 1);
  EXPECT_GT(metrics.GetCounter("surveyor_http_stolen_total")->Value(), 0);

  latch.Release();
  EXPECT_NE(wedged.ReadResponse().find("200 OK"), std::string::npos);
  EXPECT_NE(waiting[0]->ReadResponse().find("200 OK"), std::string::npos);
  server.Stop();
}

TEST(HttpServerTest, IdleThreadIsWokenToWatchAStalledLoop) {
  // With the sweep off, an idle thread blocks until something wakes it. A
  // handler that starts while another connection is homed on its thread
  // wakes one, which reads that connection's request once the handler has
  // run for the stall bound.
  MetricRegistry metrics;
  HttpServerOptions options;
  options.handler_threads = 1;
  options.queue_high_water = 1;
  options.idle_timeout_seconds = 0;
  options.metrics = &metrics;
  HandlerLatch latch;
  constexpr int kConnections = 3;
  std::mutex mutex;
  std::vector<std::map<std::thread::id, int>> served(kConnections);
  HttpServer server(
      [&](std::string_view method, std::string_view target,
          std::string_view body) {
        if (target == "/wedge") {
          latch.Hold();
        } else if (target.substr(0, 2) == "/c") {
          std::lock_guard<std::mutex> lock(mutex);
          ++served[target[2] - '0'][std::this_thread::get_id()];
        }
        return EchoHandler(method, target, body);
      },
      options);
  const HandlerLatch::ReleaseOnExit release{latch};
  ASSERT_TRUE(server.Start().ok());

  // Three connections over two loops: two share a home thread, the one
  // that serves most of each one's requests.
  std::vector<std::unique_ptr<RawClient>> clients;
  for (int c = 0; c < kConnections; ++c) {
    clients.push_back(std::make_unique<RawClient>(server.port()));
    for (int r = 0; r < 5; ++r) {
      ASSERT_TRUE(clients[c]->Send("GET /c" + std::to_string(c) +
                                   " HTTP/1.1\r\nHost: t\r\n\r\n"));
      ASSERT_NE(clients[c]->ReadResponse().find("200 OK"),
                std::string::npos);
    }
  }
  std::vector<std::thread::id> homes;
  {
    std::lock_guard<std::mutex> lock(mutex);
    for (const auto& by_thread : served) {
      auto home = by_thread.begin();
      for (auto it = by_thread.begin(); it != by_thread.end(); ++it) {
        if (it->second > home->second) home = it;
      }
      homes.push_back(home->first);
    }
  }
  RawClient* wedged = nullptr;
  RawClient* stranded = nullptr;
  for (int a = 0; a < kConnections && wedged == nullptr; ++a) {
    for (int b = a + 1; b < kConnections; ++b) {
      if (homes[a] == homes[b]) {
        wedged = clients[a].get();
        stranded = clients[b].get();
        break;
      }
    }
  }
  ASSERT_NE(wedged, nullptr);
  // Both threads go back to their unbounded waits.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const Counter* stolen = metrics.GetCounter("surveyor_http_stolen_total");
  const int64_t stolen_before = stolen->Value();

  ASSERT_TRUE(wedged->Send("GET /wedge HTTP/1.1\r\nHost: t\r\n\r\n"));
  ASSERT_TRUE(latch.WaitEntered());
  ASSERT_TRUE(stranded->Send("GET /next HTTP/1.1\r\nHost: t\r\n\r\n"));
  const Gauge* depth = metrics.GetGauge("surveyor_http_queue_depth");
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(250);
  while (depth->Value() != 1 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(depth->Value(), 1);
  EXPECT_EQ(stolen->Value() - stolen_before, 1);

  latch.Release();
  EXPECT_NE(wedged->ReadResponse().find("GET /wedge"), std::string::npos);
  EXPECT_NE(stranded->ReadResponse().find("GET /next"), std::string::npos);
  server.Stop();
}

TEST(HttpServerTest, ConnectionsOverTheCapAreRefused503) {
  HttpServerOptions options = SmallOptions();
  options.max_connections = 2;
  HttpServer server(EchoHandler, options);
  ASSERT_TRUE(server.Start().ok());
  RawClient first(server.port());
  RawClient second(server.port());
  // Make sure both are really registered before the third connects.
  ASSERT_TRUE(first.Send("GET /1 HTTP/1.1\r\nHost: t\r\n\r\n"));
  ASSERT_TRUE(second.Send("GET /2 HTTP/1.1\r\nHost: t\r\n\r\n"));
  EXPECT_NE(first.ReadResponse().find("200 OK"), std::string::npos);
  EXPECT_NE(second.ReadResponse().find("200 OK"), std::string::npos);
  RawClient third(server.port());
  const std::string refused = third.ReadToEof();
  EXPECT_NE(refused.find("HTTP/1.1 503"), std::string::npos) << refused;
  EXPECT_NE(refused.find("Retry-After:"), std::string::npos);
  server.Stop();
}

TEST(HttpServerTest, StopDrainsInFlightRequests) {
  std::atomic<bool> entered{false};
  HttpServer server(
      [&](std::string_view, std::string_view, std::string_view) {
        entered.store(true);
        std::this_thread::sleep_for(std::chrono::milliseconds(200));
        HttpResponse response;
        response.body = "drained\n";
        return response;
      },
      SmallOptions());
  ASSERT_TRUE(server.Start().ok());
  RawClient client(server.port());
  ASSERT_TRUE(client.Send("GET /slow HTTP/1.1\r\nHost: t\r\n\r\n"));
  while (!entered.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::thread stopper([&server] { server.Stop(); });
  const std::string response = client.ReadToEof();
  stopper.join();
  EXPECT_NE(response.find("HTTP/1.1 200 OK"), std::string::npos) << response;
  EXPECT_NE(response.find("drained"), std::string::npos);
}

TEST(HttpServerTest, StopIsIdempotentAndServerRestartable) {
  HttpServer server(EchoHandler, SmallOptions());
  ASSERT_TRUE(server.Start().ok());
  const int first_port = server.port();
  EXPECT_GT(first_port, 0);
  server.Stop();
  server.Stop();
  ASSERT_TRUE(server.Start().ok());
  RawClient client(server.port());
  ASSERT_TRUE(client.Send("GET /again HTTP/1.1\r\nHost: t\r\n\r\n"));
  EXPECT_NE(client.ReadResponse().find("200 OK"), std::string::npos);
  server.Stop();
}

TEST(HttpServerTest, ManyConcurrentKeepAliveClients) {
  MetricRegistry metrics;
  HttpServerOptions options = SmallOptions();
  options.metrics = &metrics;
  HttpServer server(EchoHandler, options);
  ASSERT_TRUE(server.Start().ok());
  constexpr int kClients = 8;
  constexpr int kRequestsEach = 20;
  std::vector<std::thread> clients;
  std::atomic<int> ok{0};
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      RawClient client(server.port());
      for (int i = 0; i < kRequestsEach; ++i) {
        const std::string target =
            "/c" + std::to_string(c) + "/r" + std::to_string(i);
        if (!client.Send("GET " + target + " HTTP/1.1\r\nHost: t\r\n\r\n")) {
          return;
        }
        const std::string response = client.ReadResponse();
        if (response.find("GET " + target) != std::string::npos) {
          ok.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& client : clients) client.join();
  EXPECT_EQ(ok.load(), kClients * kRequestsEach);
  EXPECT_EQ(
      metrics.GetCounter("surveyor_http_requests_total")->Value(),
      kClients * kRequestsEach);
  server.Stop();
}

}  // namespace
}  // namespace obs
}  // namespace surveyor

#endif  // defined(__linux__)
