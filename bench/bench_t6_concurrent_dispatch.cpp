// T6 — concurrent service dispatch over the TCP transport.
//
// Measures aggregate request throughput against one TcpServer as the
// number of concurrent client threads grows.  Before the dispatch lock was
// removed a single mutex serialized every handler, so adding clients could
// not add throughput; with per-node internal locking the aggregate rate
// should scale until cores (or the accept path) saturate.  Run with
// --benchmark_counters_tabular=true and compare items_per_second between
// /threads:1 and /threads:8.
//
// Three workloads:
//   * Challenge  — the cheapest round trip (issue a single-use nonce);
//     stresses the transport itself (frame, dispatch, per-node locks).
//   * Presentation — a full capability presentation (challenge + Ed25519
//     possession proof + chain verification + audited read); stresses
//     concurrent handler CPU under the per-node locks.
//   * SlowHandler — a handler that waits on simulated downstream I/O
//     (what an accounting server does during a peer-bank collection or a
//     proxy issuer during a KDC exchange).  This isolates DISPATCH
//     concurrency from CPU capacity: under the old global dispatch lock
//     aggregate throughput was pinned at 1/handler-latency no matter how
//     many clients connected; with concurrent dispatch it scales with the
//     client count even on a single core.
#include <chrono>
#include <thread>

#include "bench_util.hpp"
#include "net/tcp_transport.hpp"

namespace {

using namespace rproxy;

/// Stands in for a handler blocked on a downstream RPC (peer-bank
/// collection, KDC exchange): holds no locks, just waits.
struct SlowNode : net::Node {
  net::Envelope handle(const net::Envelope& request) override {
    std::this_thread::sleep_for(std::chrono::microseconds(500));
    net::Envelope reply = request;
    reply.type = net::MsgType::kAppReply;
    return reply;
  }
};

/// Shared live deployment: a file server behind a real TCP listener.
/// Function-local singleton so every benchmark thread hits the same server
/// (leaked deliberately; the process exits right after the benchmarks).
struct TcpWorld {
  testing::World world;
  std::unique_ptr<server::FileServer> file_server;
  SlowNode slow_node;
  net::TcpServer tcp;

  TcpWorld() {
    world.add_principal("alice");
    world.add_principal("file-server");
    file_server = std::make_unique<server::FileServer>(
        world.end_server_config("file-server"));
    file_server->put_file("/doc", "bench");
    file_server->acl().add(authz::AclEntry{{"alice"}, {}, {}, {}});
    tcp.attach("file-server", *file_server);
    tcp.attach("slow", slow_node);
    const util::Status started = tcp.start();
    if (!started.is_ok()) std::abort();
  }
};

TcpWorld& tcp_world() {
  static TcpWorld* w = new TcpWorld();
  return *w;
}

void BM_TcpChallengeThroughput(benchmark::State& state) {
  TcpWorld& w = tcp_world();
  // One persistent connection per client thread (a connection per request
  // would exhaust the loopback ephemeral-port range under load and
  // measure TIME_WAIT churn instead of dispatch).
  net::TcpClient client;
  const util::Status connected =
      client.connect("127.0.0.1", w.tcp.port());
  if (!connected.is_ok()) {
    state.SkipWithError(connected.to_string().c_str());
    return;
  }
  net::Envelope e;
  e.from = "alice";
  e.to = "file-server";
  e.type = net::MsgType::kPresentChallengeRequest;
  for (auto _ : state) {
    auto reply = client.rpc(e);
    if (!reply.is_ok()) {
      state.SkipWithError(reply.status().to_string().c_str());
      return;
    }
    benchmark::DoNotOptimize(reply);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TcpChallengeThroughput)
    ->Threads(1)
    ->Threads(2)
    ->Threads(4)
    ->Threads(8)
    ->UseRealTime();

void BM_TcpPresentationThroughput(benchmark::State& state) {
  TcpWorld& w = tcp_world();
  net::TcpClient client;
  const util::Status connected =
      client.connect("127.0.0.1", w.tcp.port());
  if (!connected.is_ok()) {
    state.SkipWithError(connected.to_string().c_str());
    return;
  }
  // Per-thread capability; the proof inside the loop is per-request.
  const core::Proxy cap = authz::make_capability_pk(
      "alice", w.world.principal("alice").identity, "file-server",
      {core::ObjectRights{"/doc", {"read"}}}, w.world.clock.now(),
      8 * util::kHour);

  for (auto _ : state) {
    // Challenge round trip.
    net::Envelope ce;
    ce.from = "alice";
    ce.to = "file-server";
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
      state.SkipWithError(challenge.status().to_string().c_str());
      return;
    }

    // Authenticated presentation.
    server::AppRequestPayload req;
    req.operation = "read";
    req.object = "/doc";
    req.challenge_id = challenge.value().id;
    core::PresentedCredential cred;
    cred.chain = cap.chain;
    cred.proof = core::prove_bearer(cap, challenge.value().nonce,
                                    "file-server", w.world.clock.now(),
                                    req.digest());
    req.credentials.push_back(cred);
    net::Envelope ae;
    ae.from = "alice";
    ae.to = "file-server";
    ae.type = net::MsgType::kAppRequest;
    ae.payload = wire::encode_to_bytes(req);
    auto reply = client.rpc(ae);
    if (!reply.is_ok() || !net::status_of(reply.value()).is_ok()) {
      state.SkipWithError("presentation failed");
      return;
    }
    benchmark::DoNotOptimize(reply);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TcpPresentationThroughput)
    ->Threads(1)
    ->Threads(2)
    ->Threads(4)
    ->Threads(8)
    ->UseRealTime();

void BM_TcpSlowHandlerScaling(benchmark::State& state) {
  TcpWorld& w = tcp_world();
  net::TcpClient client;
  const util::Status connected =
      client.connect("127.0.0.1", w.tcp.port());
  if (!connected.is_ok()) {
    state.SkipWithError(connected.to_string().c_str());
    return;
  }
  net::Envelope e;
  e.from = "alice";
  e.to = "slow";
  e.type = net::MsgType::kAppRequest;
  for (auto _ : state) {
    auto reply = client.rpc(e);
    if (!reply.is_ok()) {
      state.SkipWithError(reply.status().to_string().c_str());
      return;
    }
    benchmark::DoNotOptimize(reply);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TcpSlowHandlerScaling)
    ->Threads(1)
    ->Threads(2)
    ->Threads(4)
    ->Threads(8)
    ->UseRealTime();

}  // namespace
