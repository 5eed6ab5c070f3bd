#include "driver/trace.hpp"

#include <algorithm>
#include <fstream>
#include <unordered_map>

#include "driver/util.hpp"

namespace e2e {

namespace {

/// The enclosing span on this thread (handler threads nest SimNet calls).
struct SpanContext {
  std::uint64_t id = 0;
  std::uint64_t key = 0;
};
thread_local SpanContext t_current;

/// Tracers are made one after another; a thread's cached buffer belongs to
/// the tracer whose generation it carries.
std::atomic<std::uint64_t> g_generation{0};
struct LocalBuffer {
  std::uint64_t generation = 0;
  void* buffer = nullptr;
};
thread_local LocalBuffer t_buffer;

}  // namespace

std::string_view span_name(SpanName name) {
  switch (name) {
    case SpanName::kDriverOp: return "driver.op";
    case SpanName::kTcpRpc: return "net.tcp_rpc";
    case SpanName::kServerHandle: return "server.handle";
    case SpanName::kAcctChallenge: return "accounting.challenge";
    case SpanName::kAcctQuery: return "accounting.query";
    case SpanName::kAcctTransfer: return "accounting.transfer";
    case SpanName::kAcctDeposit: return "accounting.deposit";
    case SpanName::kSimChallenge: return "accounting.peer_challenge";
    case SpanName::kSettle: return "accounting.settle";
    case SpanName::kBarrier: return "replication.barrier";
    case SpanName::kStandbyApply: return "replication.standby_apply";
    case SpanName::kKeyResolve: return "core.key_resolve";
  }
  return "unknown";
}

std::string_view span_layer(SpanName name) {
  const std::string_view full = span_name(name);
  return full.substr(0, full.find('.'));
}

std::uint64_t envelope_key(const rproxy::net::Envelope& e) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto mix = [&h](std::uint8_t b) {
    h ^= b;
    h *= 0x100000001b3ull;
  };
  const auto type = static_cast<std::uint16_t>(e.type);
  mix(static_cast<std::uint8_t>(type >> 8));
  mix(static_cast<std::uint8_t>(type));
  for (char c : e.from) mix(static_cast<std::uint8_t>(c));
  for (std::uint8_t b : e.payload) mix(b);
  return h == 0 ? 1 : h;
}

Tracer::Tracer() : generation_(g_generation.fetch_add(1) + 1) {}

Tracer::Buffer& Tracer::local_() {
  if (t_buffer.generation != generation_) {
    std::lock_guard lock(mutex_);
    buffers_.push_back(std::make_unique<Buffer>());
    buffers_.back()->spans.reserve(1 << 14);
    t_buffer = LocalBuffer{generation_, buffers_.back().get()};
  }
  return *static_cast<Buffer*>(t_buffer.buffer);
}

void Tracer::record(const Span& span) {
  Buffer& buffer = local_();
  std::lock_guard lock(buffer.mutex);
  buffer.spans.push_back(span);
}

std::vector<Span> Tracer::drain() {
  std::lock_guard lock(mutex_);
  std::vector<Span> all;
  for (const auto& buffer : buffers_) {
    std::lock_guard buffer_lock(buffer->mutex);
    all.insert(all.end(), buffer->spans.begin(), buffer->spans.end());
    buffer->spans.clear();
  }
  return all;
}

ScopedSpan::ScopedSpan(Tracer* tracer, SpanName name, std::uint64_t key)
    : tracer_(tracer) {
  if (tracer_ == nullptr) return;
  saved_id_ = t_current.id;
  saved_key_ = t_current.key;
  span_.id = tracer_->next_id();
  span_.name = name;
  if (key != 0) {
    span_.key = key;
  } else {
    span_.parent = t_current.id;
    span_.key = t_current.key;
  }
  t_current = SpanContext{span_.id, span_.key};
  span_.start_ns = now_ns();
}

ScopedSpan::~ScopedSpan() {
  if (tracer_ == nullptr) return;
  span_.end_ns = now_ns();
  tracer_->record(span_);
  t_current = SpanContext{saved_id_, saved_key_};
}

rproxy::net::Envelope TracedNode::handle(
    const rproxy::net::Envelope& request) {
  ScopedSpan span(&tracer_, classify_(request.type),
                  front_ ? envelope_key(request) : 0);
  rproxy::net::Envelope reply = inner_.handle(request);
  if (reply.type == rproxy::net::MsgType::kError) {
    span.set_error();
    if (rproxy::net::status_of(reply).code() ==
        rproxy::util::ErrorCode::kWrongShard) {
      wrong_shard_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  return reply;
}

TraceSummary summarize(const std::vector<Span>& spans) {
  TraceSummary out;
  std::unordered_map<std::uint64_t, double> covered_ns;  // parent id -> sum
  for (const Span& s : spans) {
    if (s.parent != 0) {
      covered_ns[s.parent] += static_cast<double>(s.end_ns - s.start_ns);
    }
  }

  // Join each client RPC to its front-handler span: same key, k-th with
  // k-th in start order (identical envelopes, e.g. two challenge requests
  // from one principal, pair off in the order they were sent).
  const auto is_front = [](SpanName n) {
    return n == SpanName::kServerHandle || n == SpanName::kAcctChallenge ||
           n == SpanName::kAcctQuery || n == SpanName::kAcctTransfer ||
           n == SpanName::kAcctDeposit;
  };
  std::unordered_map<std::uint64_t, std::vector<const Span*>> rpcs;
  std::unordered_map<std::uint64_t, std::vector<const Span*>> fronts;
  for (const Span& s : spans) {
    if (s.name == SpanName::kTcpRpc) rpcs[s.key].push_back(&s);
    if (is_front(s.name) && s.parent == 0) fronts[s.key].push_back(&s);
  }
  const auto by_start = [](const Span* a, const Span* b) {
    return a->start_ns < b->start_ns;
  };
  double rpc_sum = 0;
  double front_sum = 0;
  for (auto& [key, list] : rpcs) {
    auto it = fronts.find(key);
    if (it == fronts.end()) continue;
    std::sort(list.begin(), list.end(), by_start);
    std::sort(it->second.begin(), it->second.end(), by_start);
    const std::size_t n = std::min(list.size(), it->second.size());
    for (std::size_t i = 0; i < n; ++i) {
      const double front = static_cast<double>(it->second[i]->end_ns -
                                               it->second[i]->start_ns);
      covered_ns[list[i]->id] += front;
      rpc_sum += static_cast<double>(list[i]->end_ns - list[i]->start_ns);
      front_sum += front;
    }
    out.joined_rpcs += n;
  }
  if (out.joined_rpcs > 0) {
    out.mean_rpc_us = rpc_sum / 1e3 / static_cast<double>(out.joined_rpcs);
    out.mean_front_us = front_sum / 1e3 / static_cast<double>(out.joined_rpcs);
  }

  // Busy time counts a layer's outermost spans only, so a nested call into
  // the same layer (payee bank -> drawee bank) is not counted twice.
  std::unordered_map<std::uint64_t, SpanName> name_of;
  for (const Span& s : spans) name_of[s.id] = s.name;
  for (const Span& s : spans) {
    const double dur = static_cast<double>(s.end_ns - s.start_ns);
    const auto cov = covered_ns.find(s.id);
    const double self =
        std::max(0.0, dur - (cov == covered_ns.end() ? 0.0 : cov->second));
    const std::string_view layer_name = span_layer(s.name);
    const auto parent = name_of.find(s.parent);
    const bool outermost = parent == name_of.end() ||
                           span_layer(parent->second) != layer_name;
    TraceSummary::Layer& layer = out.layers[std::string(layer_name)];
    layer.count += 1;
    if (outermost) layer.busy_ns += dur;
    layer.self_ns += self;
    if (!s.error) out.durations_us[s.name].push_back(dur / 1e3);
  }
  return out;
}

bool write_spans_csv(const std::vector<Span>& spans, const std::string& path) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  out << "id,parent,key,name,start_ns,end_ns,error\n";
  for (const Span& s : spans) {
    out << s.id << ',' << s.parent << ',' << s.key << ','
        << span_name(s.name) << ',' << s.start_ns << ',' << s.end_ns << ','
        << (s.error ? 1 : 0) << '\n';
  }
  return static_cast<bool>(out);
}

}  // namespace e2e
