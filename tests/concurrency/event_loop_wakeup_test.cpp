// Wake-up rules of the EventLoopServer's reactor/worker handoff.
//
// The reactor signals one worker per parsed frame, and a worker writes the
// reactor's eventfd only when its completion lands in an empty queue (the
// reactor takes the whole queue per wake).  Each rule can fail two ways:
// it can wake too many threads (every idle worker per frame: a cost), or
// too few (a frame or a reply that waits for some unrelated later event:
// a stall).  One test here pins each:
//   * SequentialRoundTripsWakeOneWorker counts voluntary context switches
//     per echo round trip; waking all 8 workers per frame reads about 10.
//   * OneReadOfEightFramesRunsOnEightWorkers fails if one read of several
//     frames wakes fewer workers than it has frames.
//   * NoCompletionIsStranded fails (by client timeout) if a completion can
//     sit in the queue with no eventfd write to come for it.
// Run under -fsanitize=thread (RPROXY_SANITIZE=thread) as well.
#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "net/event_loop.hpp"
#include "net/tcp_transport.hpp"

namespace rproxy {
namespace {

/// Cheapest possible handler: isolates the transport's own cost.
class EchoNode final : public net::Node {
 public:
  net::Envelope handle(const net::Envelope& request) override {
    net::Envelope reply = request;
    reply.type = net::MsgType::kAppReply;
    return reply;
  }
};

net::Envelope echo_request(std::string payload) {
  net::Envelope e;
  e.from = "client";
  e.to = "node";
  e.type = net::MsgType::kAppRequest;
  e.payload = util::to_bytes(payload);
  return e;
}

long voluntary_switches() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return usage.ru_nvcsw;
}

// One sequential round trip should block about three threads once each:
// the client in recv, one worker on the task queue, the reactor in
// epoll_wait.  Waking every idle worker per frame adds one switch per
// worker that goes straight back to sleep.
TEST(EventLoopWakeup, SequentialRoundTripsWakeOneWorker) {
  EchoNode echo;
  net::EventLoopServer server;  // default Options: 8 workers
  server.attach("node", echo);
  ASSERT_TRUE(server.start().is_ok());

  net::TcpClient client;
  ASSERT_TRUE(
      client.connect("127.0.0.1", server.port(), 5 * util::kSecond).is_ok());
  const net::Envelope request = echo_request(std::string(200, 'x'));
  for (int i = 0; i < 200; ++i) {  // warm-up: threads parked, buffers sized
    ASSERT_TRUE(client.rpc(request).is_ok());
  }

  constexpr int kRoundTrips = 2000;
  const long before = voluntary_switches();
  for (int i = 0; i < kRoundTrips; ++i) {
    auto reply = client.rpc(request);
    ASSERT_TRUE(reply.is_ok()) << reply.status();
  }
  const long switches = voluntary_switches() - before;
  const double per_round_trip = static_cast<double>(switches) / kRoundTrips;
  RecordProperty("voluntary_switches_per_round_trip",
                 std::to_string(per_round_trip));
  EXPECT_LT(per_round_trip, 5.0)
      << switches << " voluntary context switches over " << kRoundTrips
      << " round trips";
}

// Parks each handler until all kFrames of them have entered, so the
// test passes only if every frame of one read reached its own worker.
class RendezvousNode final : public net::Node {
 public:
  explicit RendezvousNode(int parties) : parties_(parties) {}

  net::Envelope handle(const net::Envelope& request) override {
    {
      std::unique_lock lock(mutex_);
      arrived_ += 1;
      cv_.notify_all();
      if (!cv_.wait_for(lock, std::chrono::seconds(2),
                        [this] { return arrived_ >= parties_; })) {
        timeouts_ += 1;
      }
    }
    net::Envelope reply = request;
    reply.type = net::MsgType::kAppReply;
    return reply;
  }

  int timeouts() {
    std::lock_guard lock(mutex_);
    return timeouts_;
  }

 private:
  const int parties_;
  std::mutex mutex_;
  std::condition_variable cv_;
  int arrived_ = 0;
  int timeouts_ = 0;
};

/// Length-prefixed wire frame of `e`, as both transports read it.
util::Bytes frame_of(const net::Envelope& e) {
  wire::Encoder enc;
  net::encode_envelope(enc, e);
  const util::BytesView body = enc.view();
  const auto len = static_cast<std::uint32_t>(body.size());
  util::Bytes out = {static_cast<std::uint8_t>(len >> 24),
                     static_cast<std::uint8_t>(len >> 16),
                     static_cast<std::uint8_t>(len >> 8),
                     static_cast<std::uint8_t>(len)};
  out.insert(out.end(), body.begin(), body.end());
  return out;
}

bool read_exact(int fd, std::uint8_t* buffer, std::size_t n) {
  std::size_t done = 0;
  while (done < n) {
    const ssize_t got = ::recv(fd, buffer + done, n - done, 0);
    if (got <= 0) return false;
    done += static_cast<std::size_t>(got);
  }
  return true;
}

TEST(EventLoopWakeup, OneReadOfEightFramesRunsOnEightWorkers) {
  constexpr int kFrames = 8;
  RendezvousNode node(kFrames);
  net::EventLoopServer::Options options;
  options.workers = kFrames;
  net::EventLoopServer server(options);
  server.attach("node", node);
  ASSERT_TRUE(server.start().is_ok());
  // Let every worker park on the task queue first: a worker still starting
  // up takes a queued frame without being signalled, and would hide a
  // reactor that wakes too few.
  std::this_thread::sleep_for(std::chrono::milliseconds(200));

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  timeval tv{};
  tv.tv_sec = 5;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server.port());
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  ASSERT_EQ(
      ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);

  // All eight frames in ONE send, so the reactor parses them from one
  // read and must hand them to eight workers itself.
  util::Bytes burst;
  for (int i = 0; i < kFrames; ++i) {
    const util::Bytes f = frame_of(echo_request(std::to_string(i)));
    burst.insert(burst.end(), f.begin(), f.end());
  }
  ASSERT_EQ(::send(fd, burst.data(), burst.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(burst.size()));

  for (int i = 0; i < kFrames; ++i) {
    std::uint8_t header[4];
    ASSERT_TRUE(read_exact(fd, header, 4)) << "reply " << i << " missing";
    const std::uint32_t len =
        (std::uint32_t{header[0]} << 24) | (std::uint32_t{header[1]} << 16) |
        (std::uint32_t{header[2]} << 8) | std::uint32_t{header[3]};
    util::Bytes body(len);
    ASSERT_TRUE(len == 0 || read_exact(fd, body.data(), len));
    wire::Decoder dec(body);
    const net::Envelope reply = net::decode_envelope(dec);
    ASSERT_TRUE(dec.finish().is_ok());
    EXPECT_EQ(reply.type, net::MsgType::kAppReply);
    EXPECT_EQ(util::to_string(reply.payload), std::to_string(i));
  }
  ::close(fd);
  EXPECT_EQ(node.timeouts(), 0)
      << "a frame of the burst waited for a worker that was never woken";
}

/// Echo after a short sleep derived from the payload (a seeded 0-200 µs),
/// so completions land in every order against the reactor's drains.
class JitterNode final : public net::Node {
 public:
  net::Envelope handle(const net::Envelope& request) override {
    std::uint64_t h = 1469598103934665603ull;  // FNV-1a of the payload
    for (const std::uint8_t b : request.payload) {
      h = (h ^ b) * 1099511628211ull;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(h % 201));
    net::Envelope reply = request;
    reply.type = net::MsgType::kAppReply;
    return reply;
  }
};

// A completion pushed into a non-empty queue writes no eventfd; it relies
// on the reactor taking the whole queue after its wake.  If one could be
// left behind, its client would wait for an unrelated later event — here
// there may be none, and the 5 s receive timeout fails the round trip.
TEST(EventLoopWakeup, NoCompletionIsStranded) {
  constexpr int kConnections = 4;
  constexpr int kRoundTrips = 1000;
  JitterNode node;
  net::EventLoopServer server;
  server.attach("node", node);
  ASSERT_TRUE(server.start().is_ok());

  std::atomic<int> completed{0};
  std::atomic<int> failed{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kConnections; ++c) {
    clients.emplace_back([&, c] {
      net::TcpClient client;
      if (!client.connect("127.0.0.1", server.port(), 5 * util::kSecond)
               .is_ok()) {
        failed.fetch_add(kRoundTrips);
        return;
      }
      for (int i = 0; i < kRoundTrips; ++i) {
        const std::string payload =
            std::to_string(c) + ":" + std::to_string(i);
        auto reply = client.rpc(echo_request(payload));
        if (!reply.is_ok() ||
            util::to_string(reply.value().payload) != payload) {
          failed.fetch_add(kRoundTrips - i);
          return;
        }
        completed.fetch_add(1);
      }
    });
  }
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(failed.load(), 0);
  EXPECT_EQ(completed.load(), kConnections * kRoundTrips);
  EXPECT_EQ(server.requests_served(),
            static_cast<std::uint64_t>(kConnections * kRoundTrips));
}

}  // namespace
}  // namespace rproxy
