/// \file tcp.hpp
/// POSIX TCP client transport: the same [length u32 LE][payload] frames as
/// the loopback path, carried over a socket to a ReactorServer
/// (reactor.hpp), the one server-side transport.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>

#include "axc/service/framing.hpp"
#include "axc/service/transport.hpp"

namespace axc::service {

struct TcpConnectionOptions {
  /// Per-roundtrip read deadline: when the server has not produced the
  /// next byte of the response within this budget the call throws
  /// TransportError(Timeout) instead of blocking forever on a dead or
  /// wedged peer. 0 = wait indefinitely (the historical behavior).
  std::uint32_t read_timeout_ms = 0;
  /// Send multiplexed frames (framing.hpp): submit() puts requests on the
  /// wire immediately tagged with request ids, the server may answer out
  /// of order, and collect() routes responses by id. Opt-in: legacy
  /// framing keeps one request in flight per connection, and both framings
  /// may share one ReactorServer.
  bool multiplex = false;
};

/// Client side: connects on construction (numeric IPv4 address), throws
/// TransportError (a std::runtime_error) on connect/IO failures.
///
/// With options.multiplex set, submit()/collect() pipeline for real:
/// submits buffer their tagged frames and the first collect() flushes the
/// whole batch in one write — N requests, one syscall. collect(id) then
/// reads socket-sized chunks through a FrameAssembler (one read can carry
/// many responses), stashing other ids as they arrive, until the
/// asked-for response shows up. roundtrip() remains available (it
/// degenerates to submit+collect of one id).
class TcpConnection final : public Connection {
 public:
  TcpConnection(const std::string& host, std::uint16_t port,
                const TcpConnectionOptions& options = {});
  ~TcpConnection() override;

  TcpConnection(const TcpConnection&) = delete;
  TcpConnection& operator=(const TcpConnection&) = delete;

  Bytes roundtrip(std::span<const std::uint8_t> request) override;

  std::uint32_t submit(std::span<const std::uint8_t> request) override;
  Bytes collect(std::uint32_t request_id) override;

  void set_next_request_id(std::uint32_t id) override {
    if (options_.multiplex) {
      next_id_ = id;
    } else {
      Connection::set_next_request_id(id);
    }
  }

 private:
  int fd_ = -1;
  TcpConnectionOptions options_;
  std::uint32_t next_id_ = 1;                  ///< mux mode only
  Bytes send_buffer_;                          ///< submitted, not yet written
  FrameAssembler assembler_;                   ///< mux-mode response parser
  std::set<std::uint32_t> outstanding_;        ///< ids submitted, not collected
  std::map<std::uint32_t, Bytes> received_;    ///< responses awaiting collect
};

}  // namespace axc::service
