// Real-socket transport: the wire format and the client side.
//
// Everything in this library speaks net::Envelope through the net::Node
// interface; SimNet delivers envelopes in-process for deterministic tests
// and benches, and net::EventLoopServer (event_loop.hpp) hosts the very
// same Node objects behind a real TCP loopback listener.  This header
// holds what both ends of that socket share — the envelope codec and the
// frame bound — plus the blocking clients: TcpClient and tcp_rpc.
//
// Framing: u32 big-endian length, then the wire-encoded Envelope
// (`from, to, type: u16, payload`).  A connection carries any number of
// requests, pipelined or not; the server replies in request order (see
// DESIGN.md §5b).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "net/message.hpp"
#include "util/clock.hpp"

namespace rproxy::net {

/// Envelope codec shared by both transport ends.
void encode_envelope(wire::Encoder& enc, const Envelope& e);
[[nodiscard]] Envelope decode_envelope(wire::Decoder& dec);

/// Largest accepted wire frame (length prefix excluded).  Shared by the
/// server and the client: a corrupt or hostile length prefix must never
/// provoke a multi-gigabyte allocation.
inline constexpr std::size_t kMaxFrameBytes = 4u << 20;  // generous for chains

/// A persistent client connection: many request/reply rounds over one
/// TCP connection (the server serves frames until the peer closes).
/// Reuse matters beyond latency — a connection-per-request client leaves
/// a client-side TIME_WAIT per call and exhausts the ephemeral port
/// range under load.  Not thread-safe; use one per client thread.
class TcpClient {
 public:
  TcpClient() = default;
  ~TcpClient() { close(); }
  TcpClient(const TcpClient&) = delete;
  TcpClient& operator=(const TcpClient&) = delete;

  /// Connects and applies `timeout` (wall-clock microseconds, 0 = wait
  /// forever) to every subsequent send/receive.
  [[nodiscard]] util::Status connect(const std::string& host,
                                     std::uint16_t port,
                                     util::Duration timeout = 0);

  /// One blocking request/reply round.  A stalled server surfaces as
  /// ErrorCode::kTimeout; any I/O failure closes the connection.
  [[nodiscard]] util::Result<Envelope> rpc(const Envelope& request);

  /// Pipelining half-calls: send() pushes a request frame without waiting
  /// for its reply; receive() blocks for the next reply frame.  The server
  /// contract is that replies come back in request order, so after k
  /// sends the next k receives match them 1:1.  Any I/O failure closes
  /// the connection.
  [[nodiscard]] util::Status send(const Envelope& request);
  [[nodiscard]] util::Result<Envelope> receive();

  /// Sends every request back-to-back, then collects the replies — one
  /// write burst, many requests in flight at once on the server.  Returns
  /// replies in request order, or the first I/O error (transport-level
  /// failures only; per-request errors come back as kError envelopes in
  /// their slot).
  [[nodiscard]] util::Result<std::vector<Envelope>> rpc_pipelined(
      const std::vector<Envelope>& requests);

  [[nodiscard]] bool connected() const { return fd_ >= 0; }
  void close();

 private:
  int fd_ = -1;
};

/// One blocking request/reply round trip over TCP on a fresh connection
/// (connect, exchange, close).  `timeout` bounds each socket send/receive
/// in wall-clock microseconds (0 = wait forever); a stalled server
/// surfaces as ErrorCode::kTimeout instead of hanging the caller.  For
/// anything hotter than occasional calls, hold a TcpClient instead.
[[nodiscard]] util::Result<Envelope> tcp_rpc(const std::string& host,
                                             std::uint16_t port,
                                             const Envelope& request,
                                             util::Duration timeout = 0);

}  // namespace rproxy::net
