// Spans for the traced run.
//
// Spans are recorded from the benchmark's own code around calls into each
// layer's public entry points: the driver's op and client RPC, the front
// Node::handle behind the event loop, the nested SimNet handlers (drawee,
// standby), the replication barrier, and KeyResolver::resolve.  Nested
// spans find their parent through a thread-local on the handler thread;
// a front-handler span joins its client RPC through envelope_key(), which
// both ends compute.  Spans stay in per-thread buffers until the run ends.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "net/simnet.hpp"

namespace e2e {

enum class SpanName : std::uint8_t {
  kDriverOp,       ///< driver: intended send time to final reply
  kTcpRpc,         ///< driver: one request frame sent to its reply read
  kServerHandle,   ///< EndServer::handle behind the event loop
  kAcctChallenge,  ///< AccountingServer::handle, challenge, front
  kAcctQuery,      ///< ... balance query, front
  kAcctTransfer,   ///< ... transfer, front
  kAcctDeposit,    ///< ... check deposit at the payee bank, front
  kSimChallenge,   ///< drawee bank's challenge, reached over SimNet
  kSettle,         ///< drawee bank's deposit handler, reached over SimNet
  kBarrier,        ///< replication barrier (JournalShipper::ship_until)
  kStandbyApply,   ///< StandbyReplayer::handle
  kKeyResolve,     ///< core::KeyResolver::resolve
};

[[nodiscard]] std::string_view span_name(SpanName name);
/// The src/ module a span's time is charged to.
[[nodiscard]] std::string_view span_layer(SpanName name);

struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0: root, or joined to a client RPC by key
  std::uint64_t key = 0;     ///< envelope key (RPC and front spans)
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  SpanName name = SpanName::kDriverOp;
  bool error = false;  ///< the reply was an error envelope
};

/// FNV-1a over an envelope's type, sender and payload.
[[nodiscard]] std::uint64_t envelope_key(const rproxy::net::Envelope& e);

class Tracer {
 public:
  Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  [[nodiscard]] std::uint64_t next_id() { return next_id_.fetch_add(1) + 1; }
  void record(const Span& span);
  /// Every span recorded so far; buffers are emptied.  Call quiesced.
  [[nodiscard]] std::vector<Span> drain();

 private:
  /// One per recording thread.  Its mutex is uncontended except while
  /// drain() reads it.
  struct Buffer {
    std::mutex mutex;
    std::vector<Span> spans;
  };
  Buffer& local_();

  const std::uint64_t generation_;
  std::atomic<std::uint64_t> next_id_{0};
  std::mutex mutex_;
  std::vector<std::unique_ptr<Buffer>> buffers_;
};

/// Times one call; a no-op without a tracer.  A span made with a key is
/// a root (front handler); one made without inherits the enclosing span
/// on this thread as parent.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, SpanName name, std::uint64_t key = 0);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  void set_error() { span_.error = true; }

 private:
  Tracer* tracer_;
  Span span_;
  std::uint64_t saved_id_ = 0;
  std::uint64_t saved_key_ = 0;
};

/// Wraps a served Node with a span per request.  Front wrappers (behind
/// the event loop) key their span by envelope; nested ones (on SimNet)
/// inherit the caller's span.  Counts kWrongShard replies.
class TracedNode final : public rproxy::net::Node {
 public:
  using Classify = SpanName (*)(rproxy::net::MsgType);

  TracedNode(rproxy::net::Node& inner, Tracer& tracer, bool front,
             Classify classify, std::atomic<std::uint64_t>& wrong_shard)
      : inner_(inner),
        tracer_(tracer),
        front_(front),
        classify_(classify),
        wrong_shard_(wrong_shard) {}

  rproxy::net::Envelope handle(const rproxy::net::Envelope& request) override;

 private:
  rproxy::net::Node& inner_;
  Tracer& tracer_;
  const bool front_;
  const Classify classify_;
  std::atomic<std::uint64_t>& wrong_shard_;
};

/// Per-layer and per-span aggregates of one traced phase.
struct TraceSummary {
  struct Layer {
    double count = 0;
    double busy_ns = 0;
    double self_ns = 0;
  };
  std::map<std::string, Layer> layers;
  /// Durations (µs) of error-free spans, by span name.
  std::map<SpanName, std::vector<double>> durations_us;
  /// Client RPCs that found their front-handler span.
  std::size_t joined_rpcs = 0;
  double mean_rpc_us = 0;
  double mean_front_us = 0;
};

/// Aggregates spans: a span's self time is its duration minus the part
/// its children cover (same-thread children by parent id; a client RPC's
/// child is its front-handler span, matched by key in start order).
[[nodiscard]] TraceSummary summarize(const std::vector<Span>& spans);

/// Writes spans as CSV (id,parent,key,name,start_ns,end_ns,error).
bool write_spans_csv(const std::vector<Span>& spans, const std::string& path);

}  // namespace e2e
