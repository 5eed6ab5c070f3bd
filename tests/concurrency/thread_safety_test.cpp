// Thread-safety of the stateful server caches and of SimNet: hammered from
// many threads, the single-use guarantees must hold EXACTLY (no double
// acceptance, no lost entries, no crashes under TSAN/ASAN), and SimNet's
// counters must stay readable while round trips run.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>

#include "core/accept_once_cache.hpp"
#include "core/challenge_registry.hpp"
#include "crypto/random.hpp"
#include "kdc/replay_cache.hpp"
#include "net/simnet.hpp"
#include "wire/encoder.hpp"

namespace rproxy {
namespace {

constexpr int kThreads = 8;
constexpr int kPerThread = 200;

TEST(ThreadSafety, ReplayCacheAcceptsEachItemExactlyOnce) {
  kdc::ReplayCache cache;
  std::atomic<int> accepted{0};
  // All threads race to insert the SAME kPerThread items.
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) {
        wire::Encoder enc;
        enc.u32(static_cast<std::uint32_t>(i));
        if (cache.check_and_insert(enc.view(), 1000 * util::kSecond, 0)
                .is_ok()) {
          accepted.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(accepted.load(), kPerThread);  // each item won exactly once
  EXPECT_EQ(cache.size(), static_cast<std::size_t>(kPerThread));
}

TEST(ThreadSafety, AcceptOnceCacheSingleWinnerPerIdentifier) {
  core::AcceptOnceCache cache;
  std::atomic<int> accepted{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (std::uint64_t id = 0; id < kPerThread; ++id) {
        if (cache.check_and_insert("grantor", id, 1000 * util::kSecond, 0)
                .is_ok()) {
          accepted.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(accepted.load(), kPerThread);
  for (std::uint64_t id = 0; id < kPerThread; ++id) {
    EXPECT_TRUE(cache.seen("grantor", id, 0));
  }
}

TEST(ThreadSafety, ChallengeRegistrySingleUseUnderContention) {
  core::ChallengeRegistry registry;
  // Issue challenges from one thread while all threads race to take each.
  std::vector<core::ChallengeRegistry::Challenge> issued;
  for (int i = 0; i < kPerThread; ++i) issued.push_back(registry.issue(0));

  std::atomic<int> taken{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (const auto& challenge : issued) {
        if (registry.take(challenge.id, 0).is_ok()) taken.fetch_add(1);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(taken.load(), kPerThread);  // each challenge consumed once
  EXPECT_EQ(registry.outstanding(), 0u);
}

TEST(ThreadSafety, MixedIssueAndTake) {
  core::ChallengeRegistry registry;
  std::atomic<bool> stop{false};
  std::atomic<int> issued{0}, consumed{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads / 2; ++t) {
    threads.emplace_back([&] {
      while (!stop.load()) {
        const auto c = registry.issue(0);
        issued.fetch_add(1);
        if (registry.take(c.id, 0).is_ok()) consumed.fetch_add(1);
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  stop.store(true);
  for (std::thread& t : threads) t.join();
  // Every challenge issued by a thread was immediately consumable by it
  // regardless of interleaving with others.
  EXPECT_EQ(issued.load(), consumed.load());
  EXPECT_GT(issued.load(), 0);
}

/// Replies with the request's payload.
class EchoNode final : public net::Node {
 public:
  net::Envelope handle(const net::Envelope& request) override {
    net::Envelope reply;
    reply.type = net::MsgType::kAppReply;
    reply.payload = request.payload;
    return reply;
  }
};

TEST(ThreadSafety, SimNetStatsReadWhileRpcsRun) {
  util::SimClock clock;
  net::SimNet net(clock);
  EchoNode echo;
  net.attach("echo", echo);
  constexpr int kCallers = 4;
  constexpr int kCalls = 500;
  std::atomic<bool> done{false};
  // The poller reads the counters the callers' round trips update.
  std::thread poller([&] {
    std::uint64_t last = 0;
    while (!done.load()) {
      const net::NetStats stats = net.stats();
      EXPECT_GE(stats.rpcs, last);  // counters only grow
      EXPECT_GE(stats.messages, stats.rpcs);
      last = stats.rpcs;
    }
  });
  std::vector<std::thread> callers;
  for (int t = 0; t < kCallers; ++t) {
    callers.emplace_back([&] {
      for (int i = 0; i < kCalls; ++i) {
        EXPECT_TRUE(
            net.rpc("client", "echo", net::MsgType::kAppRequest, {1, 2, 3})
                .is_ok());
      }
    });
  }
  for (std::thread& t : callers) t.join();
  done.store(true);
  poller.join();
  EXPECT_EQ(net.stats().rpcs, std::uint64_t{kCallers * kCalls});
  EXPECT_EQ(net.stats().messages, std::uint64_t{2 * kCallers * kCalls});
}

/// The first request it handles waits (bounded) until a second one
/// enters; records whether one did.
class OverlapNode final : public net::Node {
 public:
  net::Envelope handle(const net::Envelope& request) override {
    std::unique_lock lock(mutex_);
    entered_ += 1;
    cv_.notify_all();
    if (entered_ == 1) {
      overlapped_ = cv_.wait_for(lock, std::chrono::seconds(2),
                                 [&] { return entered_ > 1; });
    }
    net::Envelope reply;
    reply.type = net::MsgType::kAppReply;
    reply.payload = request.payload;
    return reply;
  }
  [[nodiscard]] bool overlapped() {
    std::lock_guard lock(mutex_);
    return overlapped_;
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  int entered_ = 0;
  bool overlapped_ = false;
};

TEST(ThreadSafety, SimNetRunsHandlersOfConcurrentRpcsInParallel) {
  // Two round trips from two threads: the second handler must be able to
  // start while the first is still running, so the net holds no lock
  // across handle().
  util::SimClock clock;
  net::SimNet net(clock);
  OverlapNode node;
  net.attach("node", node);
  std::vector<std::thread> callers;
  for (int t = 0; t < 2; ++t) {
    callers.emplace_back([&] {
      EXPECT_TRUE(
          net.rpc("client", "node", net::MsgType::kAppRequest, {}).is_ok());
    });
  }
  for (std::thread& t : callers) t.join();
  EXPECT_TRUE(node.overlapped());
}

}  // namespace
}  // namespace rproxy
