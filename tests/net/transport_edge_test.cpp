// Persistent-connection edge cases the server must survive: a client
// vanishing mid-frame, an oversized or garbage frame, a slow-loris peer
// dribbling header bytes, and a pipelined burst with a failing request in
// the middle.  The wire contract (one frame per request, replies strictly
// in request order) holds whichever thread runs a handler, so the suite
// runs twice: once with the echo handler inline on the reactors, once on
// the worker pool.
#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <memory>
#include <string>

#include "net/event_loop.hpp"
#include "net/tcp_transport.hpp"

namespace rproxy {
namespace {

/// Echoes the payload back; a payload of "fail" provokes an error reply
/// (the failing-request-in-the-middle case).  `inline_ok` picks the
/// thread that runs it: the reactor, or a pool worker.
class EchoNode final : public net::Node {
 public:
  explicit EchoNode(bool inline_ok) : inline_ok_(inline_ok) {}

  [[nodiscard]] bool may_block(net::MsgType /*type*/) const override {
    return !inline_ok_;
  }

  net::Envelope handle(const net::Envelope& request) override {
    if (util::to_string(request.payload) == "fail") {
      return net::make_error_reply(
          request, util::fail(util::ErrorCode::kProtocolError,
                              "injected handler failure"));
    }
    net::Envelope reply = request;
    reply.type = net::MsgType::kAppReply;
    return reply;
  }

 private:
  const bool inline_ok_;
};

constexpr util::Duration kIdleTimeout = 150 * util::kMillisecond;

class TransportEdge : public ::testing::TestWithParam<const char*> {
 protected:
  TransportEdge() : echo_(std::string(GetParam()) == "inline") {}

  void SetUp() override {
    net::EventLoopServer::Options options;
    options.workers = 4;
    options.idle_timeout = kIdleTimeout;
    // Deliberately smaller than the bursts below so the backpressure
    // pause/resume path is exercised, not just configured.
    options.max_pipeline = 4;
    loop_ = std::make_unique<net::EventLoopServer>(options);
    loop_->attach("echo", echo_);
    const util::Status started = loop_->start();
    ASSERT_TRUE(started.is_ok()) << started;
  }

  [[nodiscard]] std::uint16_t port() const { return loop_->port(); }

  [[nodiscard]] net::Envelope request(const std::string& payload) const {
    net::Envelope e;
    e.from = "client";
    e.to = "echo";
    e.type = net::MsgType::kAppRequest;
    e.payload = util::to_bytes(payload);
    return e;
  }

  /// Raw loopback socket with a 5 s receive timeout, so a server that
  /// wrongly keeps a connection open fails the test instead of hanging it.
  [[nodiscard]] static int raw_connect(std::uint16_t port) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd, 0);
    timeval tv{};
    tv.tv_sec = 5;
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr),
                        sizeof(addr)),
              0);
    return fd;
  }

  static void raw_send(int fd, const util::Bytes& bytes) {
    ASSERT_EQ(::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(bytes.size()));
  }

  /// Frames `body` with the u32 length prefix the server expects.
  [[nodiscard]] static util::Bytes frame(const util::Bytes& body) {
    const auto len = static_cast<std::uint32_t>(body.size());
    util::Bytes out;
    out.push_back(static_cast<std::uint8_t>(len >> 24));
    out.push_back(static_cast<std::uint8_t>(len >> 16));
    out.push_back(static_cast<std::uint8_t>(len >> 8));
    out.push_back(static_cast<std::uint8_t>(len));
    out.insert(out.end(), body.begin(), body.end());
    return out;
  }

  /// Reads one whole reply frame; fails the test on EOF or timeout.
  [[nodiscard]] static util::Bytes raw_read_frame(int fd) {
    auto read_exact = [fd](std::uint8_t* buffer, std::size_t n) {
      std::size_t done = 0;
      while (done < n) {
        const ssize_t got = ::recv(fd, buffer + done, n - done, 0);
        if (got <= 0) return false;
        done += static_cast<std::size_t>(got);
      }
      return true;
    };
    std::uint8_t header[4];
    EXPECT_TRUE(read_exact(header, 4));
    const std::uint32_t len = (std::uint32_t{header[0]} << 24) |
                              (std::uint32_t{header[1]} << 16) |
                              (std::uint32_t{header[2]} << 8) |
                              std::uint32_t{header[3]};
    util::Bytes body(len);
    if (len > 0) {
      EXPECT_TRUE(read_exact(body.data(), len));
    }
    return body;
  }

  /// True when the server closed its end: recv sees EOF before the 5 s
  /// socket timeout.
  [[nodiscard]] static bool server_closed(int fd) {
    std::uint8_t byte = 0;
    return ::recv(fd, &byte, 1, 0) == 0;
  }

  EchoNode echo_;
  std::unique_ptr<net::EventLoopServer> loop_;
};

TEST_P(TransportEdge, PipelinedBurstRepliesArriveInOrder) {
  net::TcpClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", port()).is_ok());
  std::vector<net::Envelope> requests;
  for (int i = 0; i < 20; ++i) {
    requests.push_back(request("payload-" + std::to_string(i)));
  }
  auto replies = client.rpc_pipelined(requests);
  ASSERT_TRUE(replies.is_ok()) << replies.status();
  ASSERT_EQ(replies.value().size(), 20u);
  for (int i = 0; i < 20; ++i) {
    const net::Envelope& reply = replies.value()[static_cast<size_t>(i)];
    EXPECT_EQ(reply.type, net::MsgType::kAppReply);
    EXPECT_EQ(util::to_string(reply.payload),
              "payload-" + std::to_string(i))
        << "reply " << i << " out of order";
  }
}

TEST_P(TransportEdge, FailingMiddleRequestDoesNotDisturbLaterReplies) {
  net::TcpClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", port()).is_ok());
  std::vector<net::Envelope> requests;
  for (int i = 0; i < 15; ++i) {
    requests.push_back(request(i == 7 ? "fail" : std::to_string(i)));
  }
  auto replies = client.rpc_pipelined(requests);
  ASSERT_TRUE(replies.is_ok()) << replies.status();
  ASSERT_EQ(replies.value().size(), 15u);
  for (int i = 0; i < 15; ++i) {
    const net::Envelope& reply = replies.value()[static_cast<size_t>(i)];
    if (i == 7) {
      EXPECT_EQ(net::status_of(reply).code(),
                util::ErrorCode::kProtocolError);
    } else {
      EXPECT_EQ(reply.type, net::MsgType::kAppReply);
      EXPECT_EQ(util::to_string(reply.payload), std::to_string(i))
          << "reply " << i << " displaced by the failing request";
    }
  }
}

TEST_P(TransportEdge, MidFrameDisconnectLeavesServerServing) {
  const int fd = raw_connect(port());
  // Header promising 100 bytes, then 10, then gone.
  util::Bytes partial = frame(util::Bytes(100, 0x42));
  partial.resize(4 + 10);
  raw_send(fd, partial);
  ::close(fd);

  // The abandoned stub must not wedge, crash, or poison the server.
  net::TcpClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", port()).is_ok());
  auto reply = client.rpc(request("still alive?"));
  ASSERT_TRUE(reply.is_ok()) << reply.status();
  EXPECT_EQ(util::to_string(reply.value().payload), "still alive?");
}

TEST_P(TransportEdge, OversizedFrameClosesTheConnection) {
  const int fd = raw_connect(port());
  // A length prefix past kMaxFrameBytes cannot be resynchronized — the
  // only safe answer is to drop the connection (and certainly not to
  // allocate what the prefix claims).
  const std::uint32_t huge =
      static_cast<std::uint32_t>(net::kMaxFrameBytes) + 1;
  util::Bytes header = {static_cast<std::uint8_t>(huge >> 24),
                        static_cast<std::uint8_t>(huge >> 16),
                        static_cast<std::uint8_t>(huge >> 8),
                        static_cast<std::uint8_t>(huge)};
  raw_send(fd, header);
  EXPECT_TRUE(server_closed(fd));
  ::close(fd);

  // Other connections are unaffected.
  net::TcpClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", port()).is_ok());
  EXPECT_TRUE(client.rpc(request("ok")).is_ok());
}

TEST_P(TransportEdge, GarbageFrameAnswersInSlotAndKeepsStreamAlive) {
  // A frame that is well-delimited but does not decode as an envelope:
  // the stream itself is intact, so the server answers kParseError in
  // the frame's slot and keeps serving the connection.
  const int fd = raw_connect(port());
  raw_send(fd, frame(util::Bytes{0xde, 0xad, 0xbe, 0xef}));
  wire::Encoder enc;
  net::encode_envelope(enc, request("after the garbage"));
  raw_send(fd, frame(util::Bytes(enc.view().begin(), enc.view().end())));

  const util::Bytes first_frame = raw_read_frame(fd);
  wire::Decoder first(first_frame);
  const net::Envelope error_reply = net::decode_envelope(first);
  ASSERT_TRUE(first.finish().is_ok());
  EXPECT_EQ(net::status_of(error_reply).code(),
            util::ErrorCode::kParseError);

  const util::Bytes second_frame = raw_read_frame(fd);
  wire::Decoder second(second_frame);
  const net::Envelope echo_reply = net::decode_envelope(second);
  ASSERT_TRUE(second.finish().is_ok());
  EXPECT_EQ(util::to_string(echo_reply.payload), "after the garbage");
  ::close(fd);
}

TEST_P(TransportEdge, SlowLorisPartialHeaderIsClosedByTheIdleGuard) {
  const int fd = raw_connect(port());
  // Two header bytes, then silence: never enough to parse a frame, so
  // nothing is ever in flight — exactly the state the idle guard exists
  // for.  The server must close within its timeout (well inside our 5 s
  // read deadline), not hold the stub open forever.
  raw_send(fd, util::Bytes{0x00, 0x00});
  EXPECT_TRUE(server_closed(fd));
  ::close(fd);
  EXPECT_GE(loop_->idle_closed(), 1u);
}

INSTANTIATE_TEST_SUITE_P(BothDispatchPaths, TransportEdge,
                         ::testing::Values("inline", "pooled"),
                         [](const auto& info) {
                           return std::string(info.param);
                         });

}  // namespace
}  // namespace rproxy
