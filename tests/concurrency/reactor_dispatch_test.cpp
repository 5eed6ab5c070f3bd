// Which thread runs a handler on the EventLoopServer, and what that costs.
//
// A reactor runs a frame itself when its node's may_block(type) is false
// and hands every other frame to the worker pool.  Each test pins one
// consequence:
//   * InlineFramesPassAParkedPoolAndKeepTheirSlot: with the only pool
//     worker parked, a challenge on another connection is still answered
//     (it ran on a reactor), and a challenge pipelined behind the parked
//     request on the same connection is answered after it.
//   * SequentialInlineEchoSwitchesFewerThanTwoAndAHalfTimes counts
//     voluntary context switches per sequential round trip: 1.1-2.0
//     inline, 3.0-4.0 when each frame goes to a worker and back (two or
//     four threads that each block at most once; how often one finds
//     its work already there varies with the host's state).
//   * MixedPipelinedLoadMatchesEveryReply runs inline and pooled frames
//     interleaved on 8 connections across 4 reactors.
// Run under -fsanitize=thread (RPROXY_SANITIZE=thread) as well.
#include <gtest/gtest.h>
#include <sys/resource.h>

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
#include "util/rng.hpp"

namespace rproxy {
namespace {

using namespace std::chrono_literals;

net::Envelope request(net::MsgType type, std::string payload) {
  net::Envelope e;
  e.from = "client";
  e.to = "node";
  e.type = type;
  e.payload = util::to_bytes(payload);
  return e;
}

net::Envelope echo(const net::Envelope& request) {
  net::Envelope reply = request;
  reply.type = request.type == net::MsgType::kAppRequest
                   ? net::MsgType::kAppReply
                   : net::MsgType::kPresentChallengeReply;
  return reply;
}

/// Polls `done` for up to 5 s.
template <typename Pred>
bool eventually(Pred done) {
  const auto deadline = std::chrono::steady_clock::now() + 5s;
  while (!done()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(1ms);
  }
  return true;
}

/// An app request may block: it parks until release().  A challenge
/// cannot, and is answered at once.
class LatchNode final : public net::Node {
 public:
  net::Envelope handle(const net::Envelope& request) override {
    if (request.type == net::MsgType::kAppRequest) {
      std::unique_lock lock(mutex_);
      parked_ += 1;
      cv_.wait_for(lock, 10s, [this] { return released_; });
    } else {
      challenges_.fetch_add(1);
    }
    return echo(request);
  }

  [[nodiscard]] bool may_block(net::MsgType type) const override {
    return type == net::MsgType::kAppRequest;
  }

  void release() {
    {
      std::lock_guard lock(mutex_);
      released_ = true;
    }
    cv_.notify_all();
  }
  int parked() {
    std::lock_guard lock(mutex_);
    return parked_;
  }
  [[nodiscard]] int challenges() const { return challenges_.load(); }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  bool released_ = false;
  int parked_ = 0;
  std::atomic<int> challenges_{0};
};

TEST(ReactorDispatch, InlineFramesPassAParkedPoolAndKeepTheirSlot) {
  LatchNode node;
  net::EventLoopServer::Options options;
  options.workers = 1;  // one reactor and one pool worker
  net::EventLoopServer server(options);
  server.attach("node", node);
  ASSERT_TRUE(server.start().is_ok());

  net::TcpClient first;
  ASSERT_TRUE(first.connect("127.0.0.1", server.port(), 5 * util::kSecond)
                  .is_ok());
  ASSERT_TRUE(first.send(request(net::MsgType::kAppRequest, "app")).is_ok());
  ASSERT_TRUE(
      first.send(request(net::MsgType::kPresentChallengeRequest, "behind"))
          .is_ok());
  ASSERT_TRUE(eventually([&] { return node.parked() == 1; }));

  // The pool's only worker is parked, so this reply can only come from a
  // handler run on the reactor.
  net::TcpClient second;
  ASSERT_TRUE(second.connect("127.0.0.1", server.port(), 5 * util::kSecond)
                  .is_ok());
  auto other = second.rpc(request(net::MsgType::kPresentChallengeRequest,
                                  "other"));
  ASSERT_TRUE(other.is_ok()) << other.status();
  EXPECT_EQ(util::to_string(other.value().payload), "other");
  EXPECT_EQ(node.parked(), 1) << "the parked handler finished early";

  // The challenge behind the parked request has run too; its reply waits
  // for the app reply's slot.
  ASSERT_TRUE(eventually([&] { return node.challenges() == 2; }));
  node.release();
  auto app = first.receive();
  ASSERT_TRUE(app.is_ok()) << app.status();
  EXPECT_EQ(app.value().type, net::MsgType::kAppReply);
  EXPECT_EQ(util::to_string(app.value().payload), "app");
  auto behind = first.receive();
  ASSERT_TRUE(behind.is_ok()) << behind.status();
  EXPECT_EQ(behind.value().type, net::MsgType::kPresentChallengeReply);
  EXPECT_EQ(util::to_string(behind.value().payload), "behind");
}

/// Echoes both request types on the reading thread.
class InlineEchoNode final : public net::Node {
 public:
  net::Envelope handle(const net::Envelope& request) override {
    return echo(request);
  }
  [[nodiscard]] bool may_block(net::MsgType /*type*/) const override {
    return false;
  }
};

long voluntary_switches() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return usage.ru_nvcsw;
}

// A sequential round trip on an inline handler blocks two threads once
// each: the client in recv and the reactor in epoll_wait.  Handing the
// frame to a worker adds the worker's sleep and the reactor's second one.
TEST(ReactorDispatch, SequentialInlineEchoSwitchesFewerThanTwoAndAHalfTimes) {
  InlineEchoNode node;
  net::EventLoopServer server;  // default Options: 8 reactors
  server.attach("node", node);
  ASSERT_TRUE(server.start().is_ok());

  net::TcpClient client;
  ASSERT_TRUE(
      client.connect("127.0.0.1", server.port(), 5 * util::kSecond).is_ok());
  const net::Envelope echo_request =
      request(net::MsgType::kAppRequest, std::string(200, 'x'));
  for (int i = 0; i < 200; ++i) {  // warm-up: threads parked, buffers sized
    ASSERT_TRUE(client.rpc(echo_request).is_ok());
  }

  constexpr int kRoundTrips = 2000;
  const long before = voluntary_switches();
  for (int i = 0; i < kRoundTrips; ++i) {
    auto reply = client.rpc(echo_request);
    ASSERT_TRUE(reply.is_ok()) << reply.status();
  }
  const long switches = voluntary_switches() - before;
  const double per_round_trip = static_cast<double>(switches) / kRoundTrips;
  RecordProperty("voluntary_switches_per_round_trip",
                 std::to_string(per_round_trip));
  EXPECT_LT(per_round_trip, 2.5)
      << switches << " voluntary context switches over " << kRoundTrips
      << " round trips";
}

/// App requests may block and run on the pool after a payload-seeded
/// 0-50 µs sleep, so their completions land in every order.  Challenges
/// run inline.
class MixedNode final : public net::Node {
 public:
  net::Envelope handle(const net::Envelope& request) override {
    if (request.type == net::MsgType::kAppRequest) {
      std::uint64_t h = 1469598103934665603ull;  // FNV-1a of the payload
      for (const std::uint8_t b : request.payload) {
        h = (h ^ b) * 1099511628211ull;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(h % 51));
    }
    return echo(request);
  }
  [[nodiscard]] bool may_block(net::MsgType type) const override {
    return type == net::MsgType::kAppRequest;
  }
};

TEST(ReactorDispatch, MixedPipelinedLoadMatchesEveryReply) {
  constexpr int kClients = 8;
  constexpr int kBursts = 100;
  constexpr int kDepth = 12;
  MixedNode node;
  net::EventLoopServer::Options options;
  options.workers = 4;
  // Smaller than a burst, so pauses and resumes interleave with both
  // dispatch paths.
  options.max_pipeline = 5;
  net::EventLoopServer server(options);
  server.attach("node", node);
  ASSERT_TRUE(server.start().is_ok());

  std::atomic<int> mismatches{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      util::Rng rng(static_cast<std::uint64_t>(c) + 1);
      net::TcpClient client;
      if (!client.connect("127.0.0.1", server.port(), 5 * util::kSecond)
               .is_ok()) {
        failures.fetch_add(1);
        return;
      }
      for (int b = 0; b < kBursts; ++b) {
        std::vector<net::Envelope> burst;
        for (int i = 0; i < kDepth; ++i) {
          const net::MsgType type = rng.chance(0.5)
                                        ? net::MsgType::kAppRequest
                                        : net::MsgType::kPresentChallengeRequest;
          burst.push_back(request(type, std::to_string(c) + ":" +
                                            std::to_string(b) + ":" +
                                            std::to_string(i)));
        }
        auto replies = client.rpc_pipelined(burst);
        if (!replies.is_ok()) {
          failures.fetch_add(1);
          return;
        }
        for (int i = 0; i < kDepth; ++i) {
          const net::Envelope& sent = burst[static_cast<std::size_t>(i)];
          const net::Envelope& got =
              replies.value()[static_cast<std::size_t>(i)];
          if (got.payload != sent.payload ||
              got.type != echo(sent).type) {
            mismatches.fetch_add(1);
          }
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(server.requests_served(),
            static_cast<std::uint64_t>(kClients * kBursts * kDepth));
}

}  // namespace
}  // namespace rproxy
