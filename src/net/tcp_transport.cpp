#include "net/tcp_transport.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace rproxy::net {

using util::ErrorCode;

void encode_envelope(wire::Encoder& enc, const Envelope& e) {
  // Exact frame size: two length-prefixed strings, the type, and the
  // length-prefixed payload — one allocation for the whole frame.
  enc.reserve(3 * sizeof(std::uint32_t) + sizeof(std::uint16_t) +
              e.from.size() + e.to.size() + e.payload.size());
  enc.str(e.from);
  enc.str(e.to);
  enc.u16(static_cast<std::uint16_t>(e.type));
  enc.bytes(e.payload);
}

Envelope decode_envelope(wire::Decoder& dec) {
  Envelope e;
  e.from = dec.str();
  e.to = dec.str();
  e.type = static_cast<MsgType>(dec.u16());
  e.payload = dec.bytes();
  return e;
}

namespace {

/// Outcome of a socket read/write, so callers can tell a peer hangup from
/// a stalled peer (SO_RCVTIMEO/SO_SNDTIMEO expiry) from a hard error.
enum class IoStatus { kOk, kClosed, kTimeout, kError };

/// Reads exactly n bytes.  Retries on EINTR; EAGAIN/EWOULDBLOCK (the
/// socket timeout expiring) reports kTimeout rather than a bogus EOF.
IoStatus read_exact(int fd, std::uint8_t* buffer, std::size_t n) {
  std::size_t done = 0;
  while (done < n) {
    const ssize_t got = ::recv(fd, buffer + done, n - done, 0);
    if (got > 0) {
      done += static_cast<std::size_t>(got);
      continue;
    }
    if (got == 0) return IoStatus::kClosed;
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return IoStatus::kTimeout;
    return IoStatus::kError;
  }
  return IoStatus::kOk;
}

/// Writes exactly n bytes.  MSG_NOSIGNAL keeps a peer that closed early
/// from killing the process with SIGPIPE (the write fails with EPIPE
/// instead).  Short writes (e.g. under SO_SNDTIMEO pressure) resume where
/// they left off; EINTR retries.
IoStatus write_exact(int fd, const std::uint8_t* buffer, std::size_t n) {
  std::size_t done = 0;
  while (done < n) {
    const ssize_t put = ::send(fd, buffer + done, n - done, MSG_NOSIGNAL);
    if (put >= 0) {
      done += static_cast<std::size_t>(put);
      continue;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return IoStatus::kTimeout;
    return IoStatus::kError;
  }
  return IoStatus::kOk;
}

IoStatus read_frame(int fd, util::Bytes& out) {
  std::uint8_t header[4];
  IoStatus st = read_exact(fd, header, 4);
  if (st != IoStatus::kOk) return st;
  const std::uint32_t len = (std::uint32_t{header[0]} << 24) |
                            (std::uint32_t{header[1]} << 16) |
                            (std::uint32_t{header[2]} << 8) |
                            std::uint32_t{header[3]};
  if (len > kMaxFrameBytes) return IoStatus::kError;
  out.resize(len);
  return len == 0 ? IoStatus::kOk : read_exact(fd, out.data(), len);
}

/// Header and body go out as ONE send: a split write would let Nagle hold
/// the body until the header is acked (a full delayed-ACK stall on quiet
/// connections), and one syscall is cheaper anyway.
IoStatus write_frame(int fd, util::BytesView frame) {
  const auto len = static_cast<std::uint32_t>(frame.size());
  util::Bytes out(4 + frame.size());
  out[0] = static_cast<std::uint8_t>(len >> 24);
  out[1] = static_cast<std::uint8_t>(len >> 16);
  out[2] = static_cast<std::uint8_t>(len >> 8);
  out[3] = static_cast<std::uint8_t>(len);
  if (!frame.empty()) std::memcpy(out.data() + 4, frame.data(), frame.size());
  return write_exact(fd, out.data(), out.size());
}

/// Applies a wall-clock send+receive timeout (microseconds) to a socket.
void set_io_timeout(int fd, util::Duration timeout) {
  if (timeout <= 0) return;
  timeval tv{};
  tv.tv_sec = static_cast<time_t>(timeout / util::kSecond);
  tv.tv_usec = static_cast<suseconds_t>(timeout % util::kSecond);
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
}

void set_nodelay(int fd) {
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

}  // namespace

util::Status TcpClient::connect(const std::string& host, std::uint16_t port,
                                util::Duration timeout) {
  close();
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) return util::fail(ErrorCode::kInternal, "socket() failed");
  set_io_timeout(fd_, timeout);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    close();
    return util::fail(ErrorCode::kInternal, "bad address '" + host + "'");
  }
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    close();
    return util::fail(ErrorCode::kNotFound,
                      "cannot connect to " + host + ":" +
                          std::to_string(port));
  }
  set_nodelay(fd_);
  return util::Status::ok();
}

util::Result<Envelope> TcpClient::rpc(const Envelope& request) {
  RPROXY_RETURN_IF_ERROR(send(request));
  return receive();
}

util::Status TcpClient::send(const Envelope& request) {
  if (fd_ < 0) {
    return util::fail(ErrorCode::kInternal, "not connected");
  }
  wire::Encoder enc;
  encode_envelope(enc, request);
  switch (write_frame(fd_, enc.view())) {
    case IoStatus::kOk:
      return util::Status::ok();
    case IoStatus::kTimeout:
      close();
      return util::fail(ErrorCode::kTimeout, "send timed out");
    default:
      close();
      return util::fail(ErrorCode::kInternal, "send failed");
  }
}

util::Result<Envelope> TcpClient::receive() {
  if (fd_ < 0) {
    return util::fail(ErrorCode::kInternal, "not connected");
  }
  util::Bytes frame;
  switch (read_frame(fd_, frame)) {
    case IoStatus::kOk:
      break;
    case IoStatus::kTimeout:
      close();
      return util::fail(ErrorCode::kTimeout,
                        "no reply within the receive timeout");
    default:
      close();
      return util::fail(ErrorCode::kInternal, "connection closed mid-reply");
  }
  wire::Decoder dec(frame);
  Envelope reply = decode_envelope(dec);
  RPROXY_RETURN_IF_ERROR(dec.finish());
  return reply;
}

util::Result<std::vector<Envelope>> TcpClient::rpc_pipelined(
    const std::vector<Envelope>& requests) {
  for (const Envelope& request : requests) {
    RPROXY_RETURN_IF_ERROR(send(request));
  }
  std::vector<Envelope> replies;
  replies.reserve(requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    RPROXY_ASSIGN_OR_RETURN(Envelope reply, receive());
    replies.push_back(std::move(reply));
  }
  return replies;
}

void TcpClient::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

util::Result<Envelope> tcp_rpc(const std::string& host, std::uint16_t port,
                               const Envelope& request,
                               util::Duration timeout) {
  TcpClient client;
  RPROXY_RETURN_IF_ERROR(client.connect(host, port, timeout));
  return client.rpc(request);
}

}  // namespace rproxy::net
