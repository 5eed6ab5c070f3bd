// T11 — event-loop transport + journal group commit (EXPERIMENTS.md T11).
//
// Two claims under measurement, one per tentpole half:
//
//   1. Transport: the EventLoopServer's cost per request, sequential
//      (depth 1) and pipelined (depth 8) on persistent connections.  The
//      echo handler cannot block, so a reactor runs it inline; the slow
//      handler stands in for one that waits downstream and runs on the
//      pool, where `depth` requests per connection overlap.  Every row
//      gets a server of its own (Setup/Teardown), so no row inherits
//      another's connections or parked threads.
//
//   2. Durability: FsyncPolicy::kGroup recovers most of the every-record
//      fsync tax once writers are concurrent — N parked committers share
//      one barrier, so durable throughput grows with N instead of
//      serializing on the disk.  Every reply still leaves only after the
//      fsync covering its record (the recovery tests prove the ordering;
//      this file prices it).
//
// Compare items_per_second across /threads:N and between every_record and
// group rows.  avg_group on the group rows shows how many records one
// fsync amortized.
#include <chrono>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "accounting/accounting_server.hpp"
#include "bench_util.hpp"
#include "core/request.hpp"
#include "net/event_loop.hpp"
#include "net/tcp_transport.hpp"
#include "storage/journal.hpp"
#include "testing/tempdir.hpp"

namespace {

using namespace rproxy;

// ---------------------------------------------------------------------------
// Transport: sequential vs pipelined, inline vs pooled handlers.

/// Stands in for a handler blocked on downstream I/O (peer-bank
/// collection, KDC exchange): holds no locks, just waits.  It keeps the
/// default may_block, so it runs on the pool.
struct SlowNode : net::Node {
  net::Envelope handle(const net::Envelope& request) override {
    std::this_thread::sleep_for(std::chrono::microseconds(500));
    net::Envelope reply = request;
    reply.type = net::MsgType::kAppReply;
    return reply;
  }
};

/// Cheapest possible handler: echo.  Isolates pure transport overhead;
/// it cannot block, so the reactor that reads a request runs it.
struct EchoNode : net::Node {
  net::Envelope handle(const net::Envelope& request) override {
    net::Envelope reply = request;
    reply.type = net::MsgType::kAppReply;
    return reply;
  }
  [[nodiscard]] bool may_block(net::MsgType /*type*/) const override {
    return false;
  }
};

/// The server of the row being run.
struct TransportWorld {
  SlowNode slow;
  EchoNode echo;
  net::EventLoopServer loop{net::EventLoopServer::Options{
      .workers = 16, .idle_timeout = 0, .max_pipeline = 128}};
};
std::unique_ptr<TransportWorld> transport_world;

/// Setup/Teardown run once per row run, around all of its threads.
void start_transport(const benchmark::State& /*state*/) {
  transport_world = std::make_unique<TransportWorld>();
  transport_world->loop.attach("slow", transport_world->slow);
  transport_world->loop.attach("echo", transport_world->echo);
  if (!transport_world->loop.start().is_ok()) std::abort();
}
void stop_transport(const benchmark::State& /*state*/) {
  transport_world.reset();
}

/// One client thread: bursts of `depth` pipelined requests per round on a
/// persistent connection (depth 1 = plain sequential rpc).
void run_transport_rows(benchmark::State& state, const char* node) {
  const std::int64_t depth = state.range(0);
  net::TcpClient client;
  const util::Status connected =
      client.connect("127.0.0.1", transport_world->loop.port());
  if (!connected.is_ok()) {
    state.SkipWithError(connected.to_string().c_str());
    return;
  }
  std::vector<net::Envelope> burst;
  for (std::int64_t i = 0; i < depth; ++i) {
    net::Envelope e;
    e.from = "alice";
    e.to = node;
    e.type = net::MsgType::kAppRequest;
    burst.push_back(std::move(e));
  }
  for (auto _ : state) {
    auto replies = client.rpc_pipelined(burst);
    if (!replies.is_ok()) {
      state.SkipWithError(replies.status().to_string().c_str());
      return;
    }
    benchmark::DoNotOptimize(replies);
  }
  // Items = requests, so items_per_second is directly comparable across
  // depths.
  state.SetItemsProcessed(state.iterations() * depth);
  state.SetLabel("depth=" + std::to_string(depth));
}

void BM_LoopSlowHandler(benchmark::State& state) {
  run_transport_rows(state, "slow");
}
void BM_LoopEcho(benchmark::State& state) { run_transport_rows(state, "echo"); }

// Slow handler: the dispatch-concurrency case the pool exists for; the
// loop holds `depth` requests per connection in flight.
BENCHMARK(BM_LoopSlowHandler)
    ->ArgName("depth")
    ->Arg(1)
    ->Arg(8)
    ->Threads(1)
    ->Threads(8)
    ->Threads(16)
    ->Setup(start_transport)
    ->Teardown(stop_transport)
    ->UseRealTime();
// Echo: pure transport overhead, run inline on the reactors.
BENCHMARK(BM_LoopEcho)
    ->ArgName("depth")
    ->Arg(1)
    ->Arg(8)
    ->Threads(1)
    ->Threads(8)
    ->Setup(start_transport)
    ->Teardown(stop_transport)
    ->UseRealTime();

// ---------------------------------------------------------------------------
// Journal: raw group commit vs per-record fsync under concurrent writers.

/// N threads in lockstep: append under a caller mutex (the accounting
/// server's discipline), then make the record durable.  Arg: 0 =
/// every_record (fsync inside append), 1 = group (commit parks on the
/// shared barrier).
void BM_JournalDurableAppend(benchmark::State& state) {
  const bool group = state.range(0) == 1;
  // Shared across the bench threads; rebuilt for each thread-count run.
  struct Shared {
    rproxy::testing::TempDir dir;
    std::mutex append_mutex;
    util::Result<storage::JournalWriter> writer;
    explicit Shared(bool group)
        : writer(storage::JournalWriter::create(
              dir.sub("bench.wal"), 1,
              storage::JournalWriter::Config{
                  .fsync_policy = group ? storage::FsyncPolicy::kGroup
                                        : storage::FsyncPolicy::kEveryRecord,
                  .batch_records = 8,
                  .crash = nullptr})) {}
  };
  static Shared* shared = nullptr;
  if (state.thread_index() == 0) {
    shared = new Shared(group);
    if (!shared->writer.is_ok()) {
      state.SkipWithError("journal create failed");
      return;
    }
  }
  const util::Bytes payload(256, 0x5A);
  for (auto _ : state) {
    std::uint64_t lsn = 0;
    {
      std::lock_guard lock(shared->append_mutex);
      auto appended = shared->writer.value().append(1, payload);
      if (!appended.is_ok()) {
        state.SkipWithError("append failed");
        return;
      }
      lsn = appended.value();
    }
    auto committed = shared->writer.value().commit(lsn);
    if (!committed.is_ok()) {
      state.SkipWithError("commit failed");
      return;
    }
  }
  state.SetItemsProcessed(state.iterations());
  if (state.thread_index() == 0) {
    const auto stats = shared->writer.value().group_stats();
    if (stats.fsyncs > 0) {
      state.counters["avg_group"] = benchmark::Counter(
          static_cast<double>(stats.committed) /
          static_cast<double>(stats.fsyncs));
    }
    delete shared;
    shared = nullptr;
  }
  state.SetLabel(group ? "group" : "every_record");
}
BENCHMARK(BM_JournalDurableAppend)
    ->ArgName("policy")
    ->Arg(0)
    ->Arg(1)
    ->Threads(1)
    ->Threads(8)
    ->Threads(16)
    ->UseRealTime();

// ---------------------------------------------------------------------------
// End to end: authenticated transfers over TCP against a storage-backed
// bank — the acceptance row.  Arg: 0 = every_record, 1 = group.

struct DurableWorld {
  testing::World world;
  rproxy::testing::TempDir dir;
  std::unique_ptr<accounting::AccountingServer> bank;
  net::EventLoopServer loop;

  explicit DurableWorld(storage::FsyncPolicy policy)
      : loop(net::EventLoopServer::Options{
            .workers = 16, .idle_timeout = 0, .max_pipeline = 128}) {
    world.add_principal("alice");
    world.add_principal("bank");
    auto config = world.accounting_config("bank");
    config.storage_dir = dir.sub("bank");
    config.storage_key = crypto::SymmetricKey::generate();
    config.fsync_policy = policy;
    bank = std::make_unique<accounting::AccountingServer>(std::move(config));
    if (!bank->recover().is_ok()) std::abort();
    bank->open_account("a", "alice",
                       accounting::Balances{{"usd", 1LL << 40}});
    bank->open_account("b", "alice");
    loop.attach("bank", *bank);
    if (!loop.start().is_ok()) std::abort();
  }
};

DurableWorld& durable_world(bool group) {
  static DurableWorld* every = new DurableWorld(
      storage::FsyncPolicy::kEveryRecord);
  static DurableWorld* grouped =
      new DurableWorld(storage::FsyncPolicy::kGroup);
  return group ? *grouped : *every;
}

/// One full durable mutation per item: challenge round trip, signed
/// transfer, journaled posting, reply released only once its record is
/// covered by a completed fsync.  N bench threads = N concurrent durable
/// writers sharing (under kGroup) the commit barrier.
void BM_DurableTransferConcurrent(benchmark::State& state) {
  const bool group = state.range(0) == 1;
  DurableWorld& w = durable_world(group);
  net::TcpClient client;
  const util::Status connected =
      client.connect("127.0.0.1", w.loop.port());
  if (!connected.is_ok()) {
    state.SkipWithError(connected.to_string().c_str());
    return;
  }
  const testing::Principal& alice = w.world.principal("alice");
  for (auto _ : state) {
    net::Envelope ce;
    ce.from = "alice";
    ce.to = "bank";
    ce.type = net::MsgType::kPresentChallengeRequest;
    ce.payload = wire::encode_to_bytes(core::ChallengeRequest{});
    auto creply = client.rpc(ce);
    if (!creply.is_ok()) {
      state.SkipWithError(creply.status().to_string().c_str());
      return;
    }
    auto challenge =
        wire::decode_from_bytes<core::ChallengeRegistry::Challenge>(
            creply.value().payload);
    if (!challenge.is_ok()) {
      state.SkipWithError("bad challenge reply");
      return;
    }
    accounting::TransferPayload req;
    req.challenge_id = challenge.value().id;
    req.from_account = "a";
    req.to_account = "b";
    req.currency = "usd";
    req.amount = 1;
    req.identity = core::prove_delegate_pk(
        alice.cert, alice.identity, challenge.value().nonce, "bank",
        w.world.clock.now(),
        core::request_digest("transfer", "a->b", {{"usd", 1}}));
    net::Envelope te;
    te.from = "alice";
    te.to = "bank";
    te.type = net::MsgType::kTransferRequest;
    te.payload = wire::encode_to_bytes(req);
    auto reply = client.rpc(te);
    if (!reply.is_ok() || !net::status_of(reply.value()).is_ok()) {
      state.SkipWithError("transfer failed");
      return;
    }
    benchmark::DoNotOptimize(reply);
  }
  state.SetItemsProcessed(state.iterations());
  if (state.thread_index() == 0 && group) {
    const auto stats = w.bank->journal_group_stats();
    if (stats.fsyncs > 0) {
      state.counters["avg_group"] = benchmark::Counter(
          static_cast<double>(stats.committed) /
          static_cast<double>(stats.fsyncs));
    }
  }
  state.SetLabel(group ? "group" : "every_record");
}
// Acceptance: /threads:8 group >= 5x /threads:8 every_record.
BENCHMARK(BM_DurableTransferConcurrent)
    ->ArgName("policy")
    ->Arg(0)
    ->Arg(1)
    ->Threads(1)
    ->Threads(8)
    ->Threads(16)
    ->UseRealTime();

}  // namespace
