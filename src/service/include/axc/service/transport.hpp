/// \file transport.hpp
/// Transport abstraction of the service: one interface, two realizations.
///
///  - LoopbackConnection binds a client directly to an in-process Server —
///    no sockets, no scheduling noise — which is what the deterministic
///    unit/integration tests and the service_throughput bench run on.
///  - TcpConnection (tcp.hpp) carries the same frames over a POSIX socket
///    for real traffic.
///
/// Client is the typed facade over either (TypedClient::call): it
/// serializes requests, applies a per-request deadline, and decodes
/// responses (throwing ServiceError on non-Ok statuses), so call sites
/// never touch wire bytes.
#pragma once

#include <cstdint>
#include <future>
#include <map>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>

#include "axc/service/protocol.hpp"
#include "axc/service/server.hpp"

namespace axc::service {

/// Typed transport failure. Derives std::runtime_error so legacy catch
/// sites keep working; the Kind tells retry policies what went wrong and
/// whether the connection is still usable (it never is, except Timeout on
/// loopback-style transports — retrying clients drop the connection on any
/// TransportError and reconnect, which is always safe).
class TransportError : public std::runtime_error {
 public:
  enum class Kind : std::uint8_t {
    Connect,        ///< could not establish the connection
    BrokenStream,   ///< peer vanished / mid-frame EOF / write to dead peer
    Timeout,        ///< read deadline expired (or a frame was dropped)
    Corrupt,        ///< response bytes fail header validation
    FrameOverflow,  ///< peer announced a frame above kMaxFrameBytes
    Injected,       ///< synthetic fault from axc::chaos
  };

  TransportError(Kind kind, const std::string& message)
      : std::runtime_error("transport/" + std::string(kind_name(kind)) +
                           ": " + message),
        kind_(kind) {}

  Kind kind() const { return kind_; }

  static std::string_view kind_name(Kind kind) {
    switch (kind) {
      case Kind::Connect: return "connect";
      case Kind::BrokenStream: return "broken_stream";
      case Kind::Timeout: return "timeout";
      case Kind::Corrupt: return "corrupt";
      case Kind::FrameOverflow: return "frame_overflow";
      case Kind::Injected: return "injected";
    }
    return "unknown";
  }

 private:
  Kind kind_;
};

/// One bidirectional request/response channel. Implementations may be
/// used from one thread at a time (open one connection per client thread).
class Connection {
 public:
  virtual ~Connection() = default;

  /// Sends one request payload and blocks for its response payload.
  /// Throws TransportError (a std::runtime_error) on transport failure.
  virtual Bytes roundtrip(std::span<const std::uint8_t> request) = 0;

  /// Pipelining: enqueues one request and returns a connection-local
  /// request id; collect() returns the response for an id, collectable in
  /// any order. The default implementation defers the exchange — it holds
  /// the request bytes and performs one roundtrip() per collect() — so
  /// every Connection (loopback, chaos, plain TCP) supports the API with
  /// serial depth-1 semantics and chaos/fault decorators keep observing
  /// every exchange through roundtrip(). Multiplexed transports override
  /// both to put many requests on the wire at once (TcpConnection with
  /// multiplex enabled, LoopbackConnection).
  virtual std::uint32_t submit(std::span<const std::uint8_t> request);

  /// Blocks for the response to \p request_id. Throws std::invalid_argument
  /// for an id that was never submitted (or collected twice), and
  /// TransportError like roundtrip() on transport failure — after which
  /// every outstanding id on this connection is lost with the stream
  /// (retrying clients resubmit on a fresh connection; responses are pure
  /// functions of request bytes, so that is always safe).
  virtual Bytes collect(std::uint32_t request_id);

  /// Test hook (wraparound regression coverage): the next submit() starts
  /// probing ids at \p id. Allocation always skips 0 and any id still in
  /// flight, so forcing a collision exercises the skip path without 2^32
  /// real submits.
  virtual void set_next_request_id(std::uint32_t id) {
    next_deferred_id_ = id;
  }

 private:
  std::uint32_t next_deferred_id_ = 1;
  std::map<std::uint32_t, Bytes> deferred_;
};

/// In-process transport: roundtrip() submits to the Server and waits.
/// Rejections (Overloaded, ShuttingDown, ...) arrive as ordinary response
/// payloads, exactly as they would over TCP. submit()/collect() pipeline
/// for real: every submitted request enters the server's job queue
/// immediately, workers complete them out of order, and collect() blocks
/// on just the asked-for id — the pure in-process mirror of the reactor's
/// multiplexed TCP path, which is what the deterministic pipelining tests
/// run on.

class LoopbackConnection final : public Connection {
 public:
  explicit LoopbackConnection(Server& server) : server_(server) {}

  Bytes roundtrip(std::span<const std::uint8_t> request) override {
    return server_.call(request);
  }

  std::uint32_t submit(std::span<const std::uint8_t> request) override;
  Bytes collect(std::uint32_t request_id) override;

  void set_next_request_id(std::uint32_t id) override { next_id_ = id; }

 private:
  Server& server_;
  std::uint32_t next_id_ = 1;
  std::map<std::uint32_t, std::future<Bytes>> pending_;
};

/// The typed surface every client shares: one call(request) template over
/// the derived client's call_bytes(), which each client implements on its
/// own transport (one connection, retries, or ring routing). The request
/// type picks the endpoint and the response type from EndpointTable.
template <class Derived>
class TypedClient {
 public:
  /// Deadline stamped on every subsequent request; 0 = none.
  void set_deadline_ms(std::uint32_t deadline_ms) {
    deadline_ms_ = deadline_ms;
  }
  std::uint32_t deadline_ms() const { return deadline_ms_; }

  /// Served accuracy level of the last successful call (0 = full
  /// fidelity; >0 = the server degraded this answer under overload).
  std::uint8_t last_served_level() const { return last_served_level_; }

  /// Throws ServiceError when the server answers a non-Ok status,
  /// DecodeError on malformed bytes, std::runtime_error (TransportError)
  /// on transport failure.
  template <WireRequest Req>
  ResponseOf<Req> call(const Req& request) {
    return decode_response<ResponseOf<Req>>(
        static_cast<Derived&>(*this).call_bytes(
            encode_request(request, deadline_ms_)));
  }

 protected:
  std::uint32_t deadline_ms_ = 0;
  std::uint8_t last_served_level_ = 0;
};

/// Typed client over any Connection.
class Client : public TypedClient<Client> {
 public:
  explicit Client(Connection& connection) : connection_(connection) {}

  /// One fully-encoded request -> raw response bytes.
  Bytes call_bytes(const Bytes& request);

  /// --- Pipelining -------------------------------------------------------
  /// submit(request) puts one typed request in flight and returns its
  /// connection-local id; collect<Response>(id) blocks for (decodes,
  /// status-checks) that response. Ids are collectable in ANY order — on a
  /// multiplexed transport the server completes them out of order and the
  /// response payloads are byte-identical to serial submission, which is
  /// pinned by tests/service/test_pipeline.cpp.
  template <WireRequest Req>
  std::uint32_t submit(const Req& request) {
    return submit_bytes(encode_request(request, deadline_ms_));
  }
  template <WireResponse Resp>
  Resp collect(std::uint32_t request_id) {
    return decode_response<Resp>(collect_bytes(request_id));
  }

  /// Raw-bytes pipelining (harnesses that byte-compare responses).
  std::uint32_t submit_bytes(const Bytes& request);
  Bytes collect_bytes(std::uint32_t request_id);

 private:
  Connection& connection_;
};

}  // namespace axc::service
