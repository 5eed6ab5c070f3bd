// FanoutClient: pipelined connections to several servers at once, where a
// slow server must not stall replies that fast servers already produced
// (the gap rpc_pipelined leaves — its collect loop blocks per connection).
#include "net/fanout.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <string>
#include <thread>

#include "net/event_loop.hpp"
#include "net/rpc.hpp"

namespace rproxy::net {
namespace {

/// Echoes the payload back; sleeps `delay` first (a slow shard).  It
/// keeps the default may_block, so the servers run it on their pools.
class EchoNode final : public Node {
 public:
  explicit EchoNode(std::chrono::milliseconds delay = {}) : delay_(delay) {}

  Envelope handle(const Envelope& request) override {
    if (delay_.count() > 0) std::this_thread::sleep_for(delay_);
    Envelope reply = request;
    reply.from = request.to;
    reply.to = request.from;
    reply.type = MsgType::kAppReply;
    return reply;
  }

 private:
  std::chrono::milliseconds delay_;
};

Envelope request_to(const std::string& server, std::uint8_t tag) {
  Envelope e;
  e.from = "client";
  e.to = server;
  e.type = MsgType::kAppRequest;
  e.payload = {tag};
  return e;
}

TEST(FanoutClient, CollectsFromSeveralServers) {
  EchoNode a, b;
  EventLoopServer server_a, server_b;
  server_a.attach("a", a);
  server_b.attach("b", b);
  ASSERT_TRUE(server_a.start().is_ok());
  ASSERT_TRUE(server_b.start().is_ok());

  FanoutClient fanout;
  ASSERT_TRUE(fanout.connect("a", "127.0.0.1", server_a.port()).is_ok());
  ASSERT_TRUE(fanout.connect("b", "127.0.0.1", server_b.port()).is_ok());
  ASSERT_TRUE(fanout.send("a", request_to("a", 1)).is_ok());
  ASSERT_TRUE(fanout.send("b", request_to("b", 2)).is_ok());
  ASSERT_TRUE(fanout.send("a", request_to("a", 3)).is_ok());
  EXPECT_EQ(fanout.inflight(), 3u);

  int got_a = 0, got_b = 0;
  std::uint8_t last_a_tag = 0;
  for (int i = 0; i < 3; ++i) {
    auto completion = fanout.next(/*timeout_ms=*/5000);
    ASSERT_TRUE(completion.is_ok()) << completion.status();
    if (completion.value().key == "a") {
      got_a += 1;
      // Per-connection ordering: a's replies arrive 1 then 3.
      EXPECT_GT(completion.value().reply.payload[0], last_a_tag);
      last_a_tag = completion.value().reply.payload[0];
    } else {
      got_b += 1;
      EXPECT_EQ(completion.value().reply.payload[0], 2);
    }
  }
  EXPECT_EQ(got_a, 2);
  EXPECT_EQ(got_b, 1);
  EXPECT_EQ(fanout.inflight(), 0u);
}

TEST(FanoutClient, SlowServerDoesNotStallFastReplies) {
  // The satellite's point: request 1 goes to a server that sleeps 300ms,
  // requests 2..4 to a fast server.  next() must hand back the fast
  // replies while the slow one is still cooking — under rpc_pipelined
  // semantics (collect in send order on one connection) they would wait.
  EchoNode slow(std::chrono::milliseconds(300));
  EchoNode fast;
  EventLoopServer slow_server, fast_server;
  slow_server.attach("slow", slow);
  fast_server.attach("fast", fast);
  ASSERT_TRUE(slow_server.start().is_ok());
  ASSERT_TRUE(fast_server.start().is_ok());

  FanoutClient fanout;
  ASSERT_TRUE(fanout.connect("slow", "127.0.0.1", slow_server.port()).is_ok());
  ASSERT_TRUE(fanout.connect("fast", "127.0.0.1", fast_server.port()).is_ok());
  ASSERT_TRUE(fanout.send("slow", request_to("slow", 1)).is_ok());
  for (std::uint8_t tag = 2; tag <= 4; ++tag) {
    ASSERT_TRUE(fanout.send("fast", request_to("fast", tag)).is_ok());
  }

  // All three fast replies must complete before the slow one.
  for (int i = 0; i < 3; ++i) {
    auto completion = fanout.next(/*timeout_ms=*/5000);
    ASSERT_TRUE(completion.is_ok()) << completion.status();
    EXPECT_EQ(completion.value().key, "fast") << "stalled behind slow server";
  }
  auto last = fanout.next(/*timeout_ms=*/5000);
  ASSERT_TRUE(last.is_ok()) << last.status();
  EXPECT_EQ(last.value().key, "slow");
}

TEST(FanoutClient, NextWithNothingInFlightIsAProtocolError) {
  FanoutClient fanout;
  auto completion = fanout.next(10);
  ASSERT_FALSE(completion.is_ok());
  EXPECT_EQ(completion.status().code(), util::ErrorCode::kProtocolError);
}

TEST(FanoutClient, TimeoutSurfacesWhenNoReplyArrives) {
  // A server that never answers within the window: next() must report
  // kTimeout, leaving the request in flight for a later next().
  EchoNode slow(std::chrono::milliseconds(500));
  EventLoopServer server;
  server.attach("slow", slow);
  ASSERT_TRUE(server.start().is_ok());

  FanoutClient fanout;
  ASSERT_TRUE(fanout.connect("slow", "127.0.0.1", server.port()).is_ok());
  ASSERT_TRUE(fanout.send("slow", request_to("slow", 1)).is_ok());
  auto timed_out = fanout.next(/*timeout_ms=*/20);
  ASSERT_FALSE(timed_out.is_ok());
  EXPECT_EQ(timed_out.status().code(), util::ErrorCode::kTimeout);
  EXPECT_EQ(fanout.inflight(), 1u);

  auto eventually = fanout.next(/*timeout_ms=*/5000);
  ASSERT_TRUE(eventually.is_ok()) << eventually.status();
  EXPECT_EQ(eventually.value().key, "slow");
}

TEST(FanoutClient, SendToUnknownKeyFails) {
  FanoutClient fanout;
  EXPECT_FALSE(fanout.send("nope", request_to("nope", 1)).is_ok());
}

TEST(FanoutClient, PeerHangupWithRepliesOwedIsUnavailable) {
  EchoNode node;
  auto server = std::make_unique<EventLoopServer>();
  server->attach("a", node);
  ASSERT_TRUE(server->start().is_ok());

  FanoutClient fanout;
  ASSERT_TRUE(fanout.connect("a", "127.0.0.1", server->port()).is_ok());
  ASSERT_TRUE(fanout.send("a", request_to("a", 1)).is_ok());
  // Drain the first reply so the connection is quiescent, then kill the
  // server and queue another request.
  ASSERT_TRUE(fanout.next(5000).is_ok());
  server.reset();
  if (fanout.send("a", request_to("a", 2)).is_ok()) {
    auto completion = fanout.next(/*timeout_ms=*/5000);
    ASSERT_FALSE(completion.is_ok());
    EXPECT_EQ(completion.status().code(), util::ErrorCode::kUnavailable);
  }
  // Either the send already failed (connection reset) or next() reported
  // the hangup — both surface the dead peer instead of hanging.
}

}  // namespace
}  // namespace rproxy::net
