/// ReactorServer: the epoll transport must serve old clients (legacy
/// frames, responses in request order) and new multiplexed clients
/// (tagged frames, out-of-order completion) from the same loop, survive
/// byte-trickled and interleaved input, hold hundreds of idle
/// connections on one thread, and produce responses byte-identical to
/// the loopback path. FrameAssembler — the per-connection read state
/// machine — is unit-tested here too.
#include "axc/service/reactor.hpp"

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "axc/obs/obs.hpp"
#include "axc/service/framing.hpp"
#include "axc/service/tcp.hpp"
#include "axc/service/transport.hpp"

namespace axc::service {
namespace {

std::uint64_t counter_value(const std::string& name) {
  const auto snap = obs::snapshot();
  const auto it = snap.counters.find(name);
  return it == snap.counters.end() ? 0 : it->second;
}

Bytes adder_request(std::uint32_t param_a) {
  CharacterizeAdderRequest req;
  req.width = 8;
  req.param_a = param_a;
  req.param_b = 2;
  return encode_request(req);
}

// --- FrameAssembler -------------------------------------------------------

TEST(FrameAssembler, OneByteTrickleAssemblesLegacyAndMuxFrames) {
  Bytes wire;
  const Bytes legacy_payload = {1, 2, 3};
  append_frame(wire, legacy_payload);
  const Bytes mux_payload = {9, 8, 7, 6};
  append_mux_frame(wire, 0xDEADBEEF, mux_payload);

  FrameAssembler assembler;
  std::vector<Frame> frames;
  for (const std::uint8_t byte : wire) {
    assembler.feed({&byte, 1});
    while (assembler.has_frame()) frames.push_back(assembler.next_frame());
  }
  EXPECT_FALSE(assembler.mid_frame());
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_FALSE(frames[0].mux);
  EXPECT_EQ(frames[0].payload, legacy_payload);
  EXPECT_TRUE(frames[1].mux);
  EXPECT_EQ(frames[1].request_id, 0xDEADBEEFu);
  EXPECT_EQ(frames[1].payload, mux_payload);
}

TEST(FrameAssembler, WholeBufferAndZeroLengthFrames) {
  Bytes wire;
  append_frame(wire, Bytes{});
  append_mux_frame(wire, 7, Bytes{});
  append_frame(wire, Bytes{42});

  FrameAssembler assembler;
  assembler.feed(wire);
  ASSERT_TRUE(assembler.has_frame());
  EXPECT_TRUE(assembler.next_frame().payload.empty());
  Frame mux = assembler.next_frame();
  EXPECT_TRUE(mux.mux);
  EXPECT_EQ(mux.request_id, 7u);
  EXPECT_TRUE(mux.payload.empty());
  EXPECT_EQ(assembler.next_frame().payload, Bytes{42});
  EXPECT_FALSE(assembler.has_frame());
  EXPECT_FALSE(assembler.mid_frame());
}

TEST(FrameAssembler, MidFrameStateIsVisible) {
  Bytes wire;
  append_frame(wire, Bytes{1, 2, 3, 4});
  FrameAssembler assembler;
  assembler.feed({wire.data(), 2});  // half a header
  EXPECT_TRUE(assembler.mid_frame());
  EXPECT_FALSE(assembler.has_frame());
  assembler.feed({wire.data() + 2, 4});  // rest of header + 2 body bytes
  EXPECT_TRUE(assembler.mid_frame());
  assembler.feed({wire.data() + 6, wire.size() - 6});
  EXPECT_TRUE(assembler.has_frame());
  EXPECT_FALSE(assembler.mid_frame());
}

TEST(FrameAssembler, OversizedFrameAnnouncementThrows) {
  // kMaxFrameBytes + 1 has no high bits set, so it parses as a legacy
  // length — and must be rejected before any allocation.
  const std::uint32_t length = kMaxFrameBytes + 1;
  const std::uint8_t header[4] = {
      static_cast<std::uint8_t>(length), static_cast<std::uint8_t>(length >> 8),
      static_cast<std::uint8_t>(length >> 16),
      static_cast<std::uint8_t>(length >> 24)};
  FrameAssembler assembler;
  EXPECT_THROW(assembler.feed(header), TransportError);
}

TEST(FrameAssembler, OversizedMuxAnnouncementThrowsBeforeTheIdWord) {
  // The length word alone decides an overflow: a mux-flagged oversized
  // announcement must fail at its fourth byte, not wait for an id word a
  // hostile peer never sends.
  const std::uint8_t header[4] = {0xFF, 0xFF, 0xFF, 0xFF};
  FrameAssembler assembler;
  EXPECT_THROW(assembler.feed(header), TransportError);
}

// --- Raw socket helpers ---------------------------------------------------

/// Blocking client socket with no framing smarts: the tests below use it
/// to control exactly which bytes hit the reactor and when.
class RawSocket {
 public:
  explicit RawSocket(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) throw std::runtime_error("RawSocket: socket failed");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    if (::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr) != 1 ||
        ::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof addr) != 0) {
      ::close(fd_);
      fd_ = -1;
      throw std::runtime_error("RawSocket: connect failed");
    }
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  }
  ~RawSocket() {
    if (fd_ >= 0) ::close(fd_);
  }

  void send_bytes(std::span<const std::uint8_t> bytes) {
    std::size_t sent = 0;
    while (sent < bytes.size()) {
      const ssize_t n = ::send(fd_, bytes.data() + sent, bytes.size() - sent,
                               MSG_NOSIGNAL);
      ASSERT_GT(n, 0);
      sent += static_cast<std::size_t>(n);
    }
  }

  /// Reads exactly \p size bytes; fails the test on premature EOF.
  Bytes recv_exact(std::size_t size) {
    Bytes out(size);
    std::size_t got = 0;
    while (got < size) {
      const ssize_t n = ::read(fd_, out.data() + got, size - got);
      EXPECT_GT(n, 0) << "peer closed after " << got << "/" << size;
      if (n <= 0) return {};
      got += static_cast<std::size_t>(n);
    }
    return out;
  }

  /// Reads one mux response frame; returns {request_id, payload}.
  std::pair<std::uint32_t, Bytes> recv_mux_frame() {
    const Bytes header = recv_exact(kMuxFrameHeaderBytes);
    if (header.size() < kMuxFrameHeaderBytes) return {0, {}};
    const auto u32 = [&header](std::size_t at) {
      return static_cast<std::uint32_t>(header[at]) |
             (static_cast<std::uint32_t>(header[at + 1]) << 8) |
             (static_cast<std::uint32_t>(header[at + 2]) << 16) |
             (static_cast<std::uint32_t>(header[at + 3]) << 24);
    };
    const std::uint32_t word = u32(0);
    EXPECT_NE(word & kMuxFrameFlag, 0u) << "expected a mux response frame";
    return {u32(4), recv_exact(word & ~kMuxFrameFlag)};
  }

  /// True when the peer closed the stream (orderly EOF).
  bool eof() {
    std::uint8_t byte = 0;
    return ::read(fd_, &byte, 1) == 0;
  }

  int fd() const { return fd_; }

 private:
  int fd_ = -1;
};

// --- ReactorServer --------------------------------------------------------

TEST(Reactor, LegacyClientAllEndpointsRoundTrip) {
  // A pre-PR 8 client — plain TcpConnection, serial frames — must work
  // against the reactor completely unchanged.
  Server server({.workers = 2});
  ReactorServer reactor(server, {});
  ASSERT_NE(reactor.port(), 0);

  TcpConnection connection("127.0.0.1", reactor.port());
  Client client(connection);

  EXPECT_NO_THROW(client.call(PingRequest{}));
  const CharacterizeResponse adder =
      client.call(
          CharacterizeAdderRequest{.width = 8, .param_a = 2, .param_b = 2});
  EXPECT_GT(adder.area_ge, 0.0);
  EvaluateErrorRequest eval;
  eval.gear = {8, 2, 2};
  EXPECT_TRUE(client.call(eval).exhaustive);
  GearDesignSpaceRequest space;
  space.width = 8;
  EXPECT_FALSE(client.call(space).points.empty());
  EncodeProbeRequest probe;
  probe.width = 32;
  probe.height = 32;
  probe.frames = 2;
  EXPECT_GT(client.call(probe).total_bits, 0u);

  reactor.stop();
  EXPECT_TRUE(reactor.stopped());
  server.stop();
}

TEST(Reactor, ResponsesMatchLoopbackByteForByte) {
  Server server({.workers = 2});
  ReactorServer reactor(server, {});
  LoopbackConnection loopback(server);

  // Serial and multiplexed TCP must both produce the loopback bytes.
  TcpConnection serial("127.0.0.1", reactor.port());
  TcpConnection mux("127.0.0.1", reactor.port(), {.multiplex = true});
  for (std::uint32_t a = 1; a <= 3; ++a) {
    const Bytes request = adder_request(a);
    const Bytes expected = loopback.roundtrip(request);
    EXPECT_EQ(serial.roundtrip(request), expected);
    EXPECT_EQ(mux.roundtrip(request), expected);
  }

  reactor.stop();
  server.stop();
}

TEST(Reactor, MuxCollectOutOfOrderReturnsIdenticalBytes) {
  Server server({.workers = 2});
  ReactorServer reactor(server, {});
  LoopbackConnection loopback(server);
  TcpConnection mux("127.0.0.1", reactor.port(), {.multiplex = true});

  std::vector<Bytes> requests;
  for (std::uint32_t a = 1; a <= 6; ++a) requests.push_back(adder_request(a));
  std::vector<Bytes> expected;
  for (const Bytes& r : requests) expected.push_back(loopback.roundtrip(r));

  std::vector<std::uint32_t> ids;
  for (const Bytes& r : requests) ids.push_back(mux.submit(r));
  // Collect in reverse submission order: responses complete whenever the
  // workers finish them; the ids route every one to its caller.
  for (std::size_t i = requests.size(); i-- > 0;) {
    EXPECT_EQ(mux.collect(ids[i]), expected[i]) << "request " << i;
  }
  EXPECT_THROW(mux.collect(ids[0]), std::invalid_argument);  // spent

  reactor.stop();
  server.stop();
}

TEST(Reactor, TrickledBytesOneAtATimeStillParse) {
  // Two pipelined mux requests, their bytes delivered one per send():
  // every byte boundary lands mid-header or mid-body at least once.
  Server server({.workers = 2});
  ReactorServer reactor(server, {});
  LoopbackConnection loopback(server);

  const Bytes ping = encode_request(Endpoint::Ping);
  const Bytes adder = adder_request(2);
  Bytes wire;
  append_mux_frame(wire, 7, ping);
  append_mux_frame(wire, 9, adder);

  RawSocket raw(reactor.port());
  for (const std::uint8_t byte : wire) raw.send_bytes({&byte, 1});

  Bytes by_id[2];
  for (int i = 0; i < 2; ++i) {
    auto [id, payload] = raw.recv_mux_frame();
    ASSERT_TRUE(id == 7 || id == 9) << "unexpected id " << id;
    by_id[id == 7 ? 0 : 1] = std::move(payload);
  }
  EXPECT_EQ(by_id[0], loopback.roundtrip(ping));
  EXPECT_EQ(by_id[1], loopback.roundtrip(adder));

  reactor.stop();
  server.stop();
}

TEST(Reactor, InterleavedPipelinedFramesInOddChunks) {
  // The same two requests sent pipelined in 7-byte slices, so chunk
  // boundaries straddle the frame boundary and both headers.
  Server server({.workers = 2});
  ReactorServer reactor(server, {});
  LoopbackConnection loopback(server);

  const Bytes eval_req = [] {
    EvaluateErrorRequest req;
    req.gear = {8, 2, 2};
    return encode_request(req);
  }();
  const Bytes adder = adder_request(3);
  Bytes wire;
  append_mux_frame(wire, 21, eval_req);
  append_mux_frame(wire, 22, adder);

  RawSocket raw(reactor.port());
  for (std::size_t at = 0; at < wire.size(); at += 7) {
    const std::size_t len = std::min<std::size_t>(7, wire.size() - at);
    raw.send_bytes({wire.data() + at, len});
  }

  Bytes by_id[2];
  for (int i = 0; i < 2; ++i) {
    auto [id, payload] = raw.recv_mux_frame();
    ASSERT_TRUE(id == 21 || id == 22) << "unexpected id " << id;
    by_id[id == 21 ? 0 : 1] = std::move(payload);
  }
  EXPECT_EQ(by_id[0], loopback.roundtrip(eval_req));
  EXPECT_EQ(by_id[1], loopback.roundtrip(adder));

  reactor.stop();
  server.stop();
}

TEST(Reactor, SerialAndMuxFramesMixOnOneConnection) {
  // A client library may upgrade mid-stream: legacy frames keep strict
  // request-order responses while mux frames interleave freely.
  Server server({.workers = 2});
  ReactorServer reactor(server, {});
  LoopbackConnection loopback(server);

  const Bytes ping = encode_request(Endpoint::Ping);
  const Bytes adder = adder_request(4);
  Bytes wire;
  append_frame(wire, ping);          // serial #0
  append_mux_frame(wire, 5, adder);  // mux id 5
  append_frame(wire, adder);         // serial #1

  RawSocket raw(reactor.port());
  raw.send_bytes(wire);

  // The two serial responses must arrive in request order relative to
  // each other; the mux response may land anywhere between them.
  std::vector<Bytes> serial_payloads;
  Bytes mux_payload;
  FrameAssembler assembler;
  std::uint8_t buf[4096];
  while (serial_payloads.size() < 2 || mux_payload.empty()) {
    const ssize_t n = ::read(raw.fd(), buf, sizeof buf);
    ASSERT_GT(n, 0);
    assembler.feed({buf, static_cast<std::size_t>(n)});
    while (assembler.has_frame()) {
      Frame frame = assembler.next_frame();
      if (frame.mux) {
        EXPECT_EQ(frame.request_id, 5u);
        mux_payload = std::move(frame.payload);
      } else {
        serial_payloads.push_back(std::move(frame.payload));
      }
    }
  }
  EXPECT_EQ(serial_payloads[0], loopback.roundtrip(ping));
  EXPECT_EQ(serial_payloads[1], loopback.roundtrip(adder));
  EXPECT_EQ(mux_payload, loopback.roundtrip(adder));

  reactor.stop();
  server.stop();
}

TEST(Reactor, HoldsManyIdleConnectionsWithOneThread) {
  Server server({.workers = 2});
  const std::uint64_t threads_before =
      counter_value("service.reactor.threads");
  ReactorServer reactor(server, {});

  constexpr std::size_t kConnections = 256;
  std::vector<std::unique_ptr<TcpConnection>> held;
  held.reserve(kConnections);
  for (std::size_t i = 0; i < kConnections; ++i) {
    held.push_back(
        std::make_unique<TcpConnection>("127.0.0.1", reactor.port()));
  }
  // Accepts complete asynchronously on the reactor; wait for all of them.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (reactor.open_connections() < kConnections &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(reactor.open_connections(), kConnections);
  // One reactor thread, no matter how many peers are parked.
  EXPECT_EQ(counter_value("service.reactor.threads") - threads_before, 1u);

  // The parked crowd must not starve a live request.
  Client client(*held.front());
  EXPECT_NO_THROW(client.call(PingRequest{}));

  held.clear();  // orderly EOFs
  reactor.stop();
  server.stop();
}

TEST(Reactor, RemoteShutdownRejectedUnlessEnabled) {
  Server server({.workers = 1});
  ReactorServer reactor(server, {});  // allow_remote_shutdown = false
  TcpConnection connection("127.0.0.1", reactor.port());
  Client client(connection);

  try {
    client.call(ShutdownRequest{});
    FAIL() << "expected ServiceError";
  } catch (const ServiceError& e) {
    EXPECT_EQ(e.status(), Status::BadRequest);
  }
  EXPECT_FALSE(reactor.stopped());
  EXPECT_NO_THROW(client.call(PingRequest{}));

  reactor.stop();
  server.stop();
}

TEST(Reactor, RemoteShutdownDrainsWhenEnabled) {
  Server server({.workers = 2});
  ReactorServer reactor(server, {.allow_remote_shutdown = true});
  {
    TcpConnection connection("127.0.0.1", reactor.port());
    Client client(connection);
    EXPECT_NO_THROW(client.call(PingRequest{}));
    EXPECT_NO_THROW(client.call(ShutdownRequest{}));  // acknowledged before the stop
  }
  reactor.wait();
  EXPECT_TRUE(reactor.stopped());
  server.stop();
}

TEST(Reactor, OversizedFrameDropsOnlyThatConnection) {
  Server server({.workers = 1});
  ReactorServer reactor(server, {});
  const std::uint64_t dropped_before =
      counter_value("service.reactor.connections_dropped");

  {
    RawSocket hostile(reactor.port());
    const std::uint32_t length = kMaxFrameBytes + 1;
    const std::uint8_t header[4] = {
        static_cast<std::uint8_t>(length),
        static_cast<std::uint8_t>(length >> 8),
        static_cast<std::uint8_t>(length >> 16),
        static_cast<std::uint8_t>(length >> 24)};
    hostile.send_bytes(header);
    EXPECT_TRUE(hostile.eof());  // server hung up on us
  }
  EXPECT_GE(counter_value("service.reactor.connections_dropped"),
            dropped_before + 1);

  // The server is unharmed for everyone else.
  TcpConnection connection("127.0.0.1", reactor.port());
  Client client(connection);
  EXPECT_NO_THROW(client.call(PingRequest{}));

  reactor.stop();
  server.stop();
}

TEST(Reactor, MidFrameEofCountsAsDrop) {
  Server server({.workers = 1});
  ReactorServer reactor(server, {});
  const std::uint64_t dropped_before =
      counter_value("service.reactor.connections_dropped");
  {
    RawSocket quitter(reactor.port());
    const Bytes request = adder_request(2);
    Bytes wire;
    append_frame(wire, request);
    quitter.send_bytes({wire.data(), wire.size() - 3});  // stop mid-body
  }  // destructor closes mid-frame
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (counter_value("service.reactor.connections_dropped") <
             dropped_before + 1 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GE(counter_value("service.reactor.connections_dropped"),
            dropped_before + 1);
  reactor.stop();
  server.stop();
}

TEST(Reactor, MuxRequestIdWraparoundSkipsInFlightIds) {
  // Regression: a wrapped id counter could reissue an id still in
  // outstanding_; the set-insert no-opped, the server answered the same
  // id twice, and collect() paired the wrong payload (or died Corrupt).
  Server server({.workers = 2});
  ReactorServer reactor(server, {});
  TcpConnection mux("127.0.0.1", reactor.port(), {.multiplex = true});
  LoopbackConnection oracle(server);

  const std::uint32_t first = mux.submit(adder_request(1));
  mux.set_next_request_id(0);  // wrapped counter: 0 is reserved
  const std::uint32_t second = mux.submit(adder_request(2));
  EXPECT_NE(second, 0u);
  mux.set_next_request_id(first);  // wrap straight onto the in-flight id
  const std::uint32_t third = mux.submit(adder_request(3));
  EXPECT_NE(third, first);

  EXPECT_EQ(mux.collect(third), oracle.roundtrip(adder_request(3)));
  EXPECT_EQ(mux.collect(first), oracle.roundtrip(adder_request(1)));
  EXPECT_EQ(mux.collect(second), oracle.roundtrip(adder_request(2)));

  reactor.stop();
  server.stop();
}

TEST(Reactor, DrainDeliversDepositedResponsesDespitePartialTrailingFrame) {
  // Regression for the shutdown race: a pipelining client has frame A
  // fully sent (in flight on a worker) and frame B half-written when the
  // server drains. begin_drain()'s SHUT_RD surfaces EOF with the
  // assembler mid-frame on B, and the old mid-frame path dropped the
  // whole connection — discarding A's response, which the server had
  // already promised. The drain path must flush deposited frames.
  std::promise<void> release;
  std::shared_future<void> gate(release.get_future());
  std::atomic<int> entered{0};
  ServerOptions options;
  options.workers = 1;
  options.dispatcher = [&](std::span<const std::uint8_t>, unsigned) {
    ++entered;
    gate.wait();
    return encode_ok_response();
  };
  Server server(options);
  ReactorServer reactor(server, {});

  RawSocket client(reactor.port());
  Bytes wire;
  append_mux_frame(wire, 1, adder_request(2));  // frame A, complete
  Bytes partial;
  append_frame(partial, adder_request(3));
  partial.resize(2);  // frame B: half a header, assembler stays mid-frame
  wire.insert(wire.end(), partial.begin(), partial.end());
  client.send_bytes(wire);

  // Wait until A is genuinely in flight (held inside the dispatcher).
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (entered.load() < 1 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_GE(entered.load(), 1);

  reactor.request_stop();  // drain: SHUT_RD makes our socket EOF mid-frame
  // Give the reactor time to process the self-inflicted EOF while A is
  // still in flight — the exact window the old code lost the response in.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  release.set_value();  // A completes and deposits its response

  const auto [id, payload] = client.recv_mux_frame();
  EXPECT_EQ(id, 1u);
  EXPECT_EQ(payload, encode_ok_response());
  EXPECT_TRUE(client.eof());  // then an orderly close

  reactor.wait();
  server.stop();
}

}  // namespace
}  // namespace axc::service
