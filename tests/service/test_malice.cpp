/// Protocol-malice tests at the frame boundary: a hostile peer can send
/// anything — oversized length prefixes, zero-length bodies, stale
/// versions, garbage endpoint ids, half a frame then EOF — and the server
/// must answer with a typed error or drop that one connection, never
/// crash, hang, or leak (the asan-ubsan CI job runs this file too).
#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <cstring>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "axc/obs/obs.hpp"
#include "axc/service/protocol.hpp"
#include "axc/service/reactor.hpp"
#include "axc/service/tcp.hpp"
#include "axc/service/transport.hpp"

namespace axc::service {
namespace {

class MaliceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::set_enabled(true);
    obs::reset();
  }
};

std::uint64_t counter_value(const std::string& name) {
  const auto snap = obs::snapshot();
  const auto it = snap.counters.find(name);
  return it == snap.counters.end() ? 0 : it->second;
}

/// A client that speaks raw bytes, not the protocol — the attacker's view.
class RawSocket {
 public:
  explicit RawSocket(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) throw std::runtime_error("socket");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof addr) < 0) {
      ::close(fd_);
      throw std::runtime_error("connect");
    }
  }

  ~RawSocket() {
    if (fd_ >= 0) ::close(fd_);
  }

  RawSocket(const RawSocket&) = delete;
  RawSocket& operator=(const RawSocket&) = delete;

  void send_bytes(const std::vector<std::uint8_t>& bytes) {
    std::size_t sent = 0;
    while (sent < bytes.size()) {
      const ssize_t n = ::send(fd_, bytes.data() + sent, bytes.size() - sent,
                               MSG_NOSIGNAL);
      ASSERT_GT(n, 0);
      sent += static_cast<std::size_t>(n);
    }
  }

  /// One framed payload back, or nullopt when the server closed first.
  std::optional<Bytes> read_frame(int timeout_ms = 5000) {
    std::uint8_t header[4];
    if (!read_exact(header, sizeof header, timeout_ms)) return std::nullopt;
    const std::uint32_t length =
        static_cast<std::uint32_t>(header[0]) | (header[1] << 8) |
        (header[2] << 16) | (static_cast<std::uint32_t>(header[3]) << 24);
    Bytes payload(length);
    if (length > 0 && !read_exact(payload.data(), length, timeout_ms)) {
      return std::nullopt;
    }
    return payload;
  }

  /// True once the peer closes/resets the stream within the timeout.
  bool wait_for_peer_close(int timeout_ms = 5000) {
    std::uint8_t byte = 0;
    return !read_exact(&byte, 1, timeout_ms);
  }

  void half_close() { ::shutdown(fd_, SHUT_WR); }

 private:
  bool read_exact(std::uint8_t* data, std::size_t size, int timeout_ms) {
    std::size_t got = 0;
    while (got < size) {
      pollfd pfd{fd_, POLLIN, 0};
      const int ready = ::poll(&pfd, 1, timeout_ms);
      if (ready < 0) {
        if (errno == EINTR) continue;
        return false;
      }
      if (ready == 0) return false;  // timed out waiting for the peer
      const ssize_t n = ::read(fd_, data + got, size - got);
      if (n == 0) return false;                   // orderly close
      if (n < 0 && errno == ECONNRESET) return false;  // reset counts too
      if (n < 0) {
        if (errno == EINTR) continue;
        return false;
      }
      got += static_cast<std::size_t>(n);
    }
    return true;
  }

  int fd_ = -1;
};

std::vector<std::uint8_t> frame(const Bytes& payload) {
  Bytes framed;
  append_frame(framed, payload);
  return framed;
}

/// The server must still answer a well-behaved client after the attack.
void expect_server_still_serves(ReactorServer& reactor) {
  TcpConnection connection("127.0.0.1", reactor.port());
  Client client(connection);
  EXPECT_NO_THROW(client.call(PingRequest{}));
}

TEST_F(MaliceTest, OversizedLengthPrefixDropsOnlyThatConnection) {
  Server server(ServerOptions{});
  ReactorServer reactor(server, {});

  RawSocket attacker(reactor.port());
  // Announce a 4 GiB frame; the server must refuse to allocate it.
  attacker.send_bytes({0xFF, 0xFF, 0xFF, 0xFF});
  EXPECT_TRUE(attacker.wait_for_peer_close());
  EXPECT_EQ(counter_value("service.reactor.connections_dropped"), 1u);

  expect_server_still_serves(reactor);
  reactor.stop();
  server.stop();
}

TEST_F(MaliceTest, ZeroLengthBodyAnswersBadRequestAndKeepsTheStream) {
  Server server(ServerOptions{});
  ReactorServer reactor(server, {});

  RawSocket attacker(reactor.port());
  attacker.send_bytes({0x00, 0x00, 0x00, 0x00});  // empty payload frame
  const std::optional<Bytes> response = attacker.read_frame();
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response_status(*response), Status::BadRequest);

  // An unparseable *request* is an application error, not a framing
  // violation: the stream survives and a valid request still works.
  attacker.send_bytes(frame(encode_request(Endpoint::Ping)));
  const std::optional<Bytes> pong = attacker.read_frame();
  ASSERT_TRUE(pong.has_value());
  EXPECT_EQ(response_status(*pong), Status::Ok);

  reactor.stop();
  server.stop();
}

TEST_F(MaliceTest, StaleProtocolVersionAnswersBadRequest) {
  Server server(ServerOptions{});
  ReactorServer reactor(server, {});

  Bytes request = encode_request(Endpoint::Ping);
  request[0] = 1;  // the pre-served_level wire version
  RawSocket attacker(reactor.port());
  attacker.send_bytes(frame(request));
  const std::optional<Bytes> response = attacker.read_frame();
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response_status(*response), Status::BadRequest);

  reactor.stop();
  server.stop();
}

TEST_F(MaliceTest, GarbageEndpointIdAnswersBadRequest) {
  Server server(ServerOptions{});
  ReactorServer reactor(server, {});

  Bytes request = encode_request(Endpoint::Ping);
  request[1] = 0xEE;  // no such endpoint
  RawSocket attacker(reactor.port());
  attacker.send_bytes(frame(request));
  const std::optional<Bytes> response = attacker.read_frame();
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response_status(*response), Status::BadRequest);

  reactor.stop();
  server.stop();
}

TEST_F(MaliceTest, MidFrameEofDropsCleanly) {
  Server server(ServerOptions{});
  ReactorServer reactor(server, {});

  {
    RawSocket attacker(reactor.port());
    // Promise 100 bytes, deliver 10, walk away.
    attacker.send_bytes({100, 0x00, 0x00, 0x00});
    attacker.send_bytes({1, 2, 3, 4, 5, 6, 7, 8, 9, 10});
    attacker.half_close();
    EXPECT_TRUE(attacker.wait_for_peer_close());
  }

  // The drop is counted and contained.
  EXPECT_EQ(counter_value("service.reactor.connections_dropped"), 1u);
  expect_server_still_serves(reactor);
  reactor.stop();
  server.stop();
}

TEST_F(MaliceTest, ClientReadTimeoutIsTypedNotAHang) {
  // A listener that accepts and then never answers: the wedged-server
  // case the read deadline exists for.
  const int listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(listen_fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = 0;
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  ASSERT_EQ(::bind(listen_fd, reinterpret_cast<const sockaddr*>(&addr),
                   sizeof addr),
            0);
  ASSERT_EQ(::listen(listen_fd, 1), 0);
  sockaddr_in bound{};
  socklen_t bound_len = sizeof bound;
  ASSERT_EQ(::getsockname(listen_fd, reinterpret_cast<sockaddr*>(&bound),
                          &bound_len),
            0);
  const std::uint16_t port = ntohs(bound.sin_port);

  std::thread silent([listen_fd] {
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd >= 0) {
      // Swallow whatever arrives, answer nothing.
      std::this_thread::sleep_for(std::chrono::milliseconds(1500));
      ::close(fd);
    }
  });

  TcpConnectionOptions options;
  options.read_timeout_ms = 100;
  TcpConnection connection("127.0.0.1", port, options);
  const auto start = std::chrono::steady_clock::now();
  try {
    (void)connection.roundtrip(encode_request(Endpoint::Ping));
    FAIL() << "silent peer must time out";
  } catch (const TransportError& error) {
    EXPECT_EQ(error.kind(), TransportError::Kind::Timeout);
  }
  const auto waited = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - start);
  EXPECT_LT(waited.count(), 1200);  // deadline honoured, not the full stall

  silent.join();
  ::close(listen_fd);
}

TEST_F(MaliceTest, MaliciousServerFrameOverflowIsTypedOnTheClient) {
  // A "server" announcing a 4 GiB response: the client must refuse it.
  const int listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(listen_fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = 0;
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  ASSERT_EQ(::bind(listen_fd, reinterpret_cast<const sockaddr*>(&addr),
                   sizeof addr),
            0);
  ASSERT_EQ(::listen(listen_fd, 1), 0);
  sockaddr_in bound{};
  socklen_t bound_len = sizeof bound;
  ASSERT_EQ(::getsockname(listen_fd, reinterpret_cast<sockaddr*>(&bound),
                          &bound_len),
            0);
  const std::uint16_t port = ntohs(bound.sin_port);

  std::thread evil([listen_fd] {
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd >= 0) {
      const std::uint8_t huge[4] = {0xFF, 0xFF, 0xFF, 0xFF};
      (void)::send(fd, huge, sizeof huge, MSG_NOSIGNAL);
      std::this_thread::sleep_for(std::chrono::milliseconds(200));
      ::close(fd);
    }
  });

  TcpConnection connection("127.0.0.1", port);
  try {
    (void)connection.roundtrip(encode_request(Endpoint::Ping));
    FAIL() << "oversized response frame must be rejected";
  } catch (const TransportError& error) {
    EXPECT_EQ(error.kind(), TransportError::Kind::FrameOverflow);
  }

  evil.join();
  ::close(listen_fd);
}

}  // namespace
}  // namespace axc::service
