/// \file reactor.hpp
/// The TCP server: one epoll reactor thread in front of the same
/// bounded-queue job server the loopback transport feeds.
///
/// ReactorServer is the only server-side socket transport. Rather than
/// spending one OS thread per peer, it holds every connection on a single
/// epoll loop:
///
///   epoll_wait ── listen fd readable ──> accept4(NONBLOCK) loop
///             ├── wake eventfd        ──> flush responses / shutdown
///             └── conn fd readable    ──> read() until EAGAIN
///                                          └─> FrameAssembler
///                                               └─> Server::submit(...)
///                  conn fd writable   ──> drain outbox until EAGAIN
///
/// Per-connection state is a framing state machine (framing.hpp): short
/// reads park mid-header or mid-body, short writes park the remainder in
/// an outbox and arm EPOLLOUT. Workers complete jobs out of order; the
/// response callback frames the payload, deposits it on the owning
/// connection's outbox and signals the eventfd — multiplexed responses
/// (request-id frames) ship as soon as they are done, while responses to
/// legacy frames are released strictly in request order, so a client
/// that never multiplexes cannot observe the reordering. The Server,
/// dispatcher, worker pool, result cache and overload ladder are
/// untouched: the reactor is purely the I/O front end.
///
/// Thread budget: exactly one reactor thread regardless of connection
/// count, plus the Server's fixed worker pool. service.reactor.* obs
/// instruments (epoll wakeups, ready events, accepted/closed/dropped
/// connections, frames in/out, partial writes) land in the shutdown
/// report; scripts/service_smoke.sh asserts them while holding 256 idle
/// connections.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "axc/service/server.hpp"
#include "axc/service/transport.hpp"

namespace axc::service {

struct ReactorServerOptions {
  /// Numeric IPv4 address to bind; loopback by default.
  std::string bind_address = "127.0.0.1";
  /// 0 = ephemeral; the chosen port is readable via port().
  std::uint16_t port = 0;
  /// Honour Endpoint::Shutdown frames from clients. Off by default: a
  /// remote peer must not be able to stop a server that didn't opt in.
  bool allow_remote_shutdown = false;
  /// listen(2) backlog.
  int backlog = 256;
};

class ReactorServer {
 public:
  /// Binds, listens, starts the reactor thread. Throws std::runtime_error
  /// when the socket/epoll setup fails. \p server must outlive this.
  ReactorServer(Server& server, const ReactorServerOptions& options = {});
  ~ReactorServer();

  ReactorServer(const ReactorServer&) = delete;
  ReactorServer& operator=(const ReactorServer&) = delete;

  /// The bound port (resolves ephemeral requests).
  std::uint16_t port() const { return port_; }

  /// Graceful stop: stops accepting, lets every in-flight request finish
  /// and flush its response, then joins the reactor. Idempotent.
  void stop();

  /// Async-signal-safe stop signal: atomic flag + one eventfd write. The
  /// reactor wakes immediately — no polling interval to wait out.
  void request_stop() noexcept;

  /// Blocks until the transport has stopped (stop() or remote Shutdown).
  void wait();

  bool stopped() const { return stopped_.load(); }

  /// Connections currently registered with the reactor (test/ops aid;
  /// sampled without synchronization beyond the atomic).
  std::size_t open_connections() const { return open_connections_.load(); }

 private:
  struct Conn;

  void loop();
  void accept_ready();
  void read_ready(const std::shared_ptr<Conn>& conn);
  void handle_frame(const std::shared_ptr<Conn>& conn, bool mux,
                    std::uint32_t request_id, Bytes payload);
  void complete(const std::shared_ptr<Conn>& conn, bool mux,
                std::uint32_t request_id, std::uint64_t serial_seq,
                Bytes response);
  /// Drains \p conn's outbox with non-blocking writes; arms/disarms
  /// EPOLLOUT, closes the connection when it is finished. Reactor thread
  /// only.
  void flush_writes(const std::shared_ptr<Conn>& conn);
  void close_conn(const std::shared_ptr<Conn>& conn, bool dropped);
  void update_interest(Conn& conn);
  void signal_wakeup() noexcept;
  void begin_drain();

  Server& server_;
  ReactorServerOptions options_;
  std::uint16_t port_ = 0;
  int listen_fd_ = -1;
  int epoll_fd_ = -1;
  int wake_fd_ = -1;

  std::atomic<bool> stop_requested_{false};
  std::atomic<bool> stopped_{false};
  std::atomic<std::size_t> open_connections_{0};
  /// Response callbacks created but not yet finished. stop() waits for
  /// zero after joining the reactor so a worker-thread callback tail can
  /// never touch a destroyed ReactorServer.
  std::atomic<std::uint64_t> outstanding_callbacks_{0};
  bool draining_ = false;  ///< reactor thread only

  std::thread reactor_;
  std::mutex join_mutex_;  ///< serializes reactor_ joins
  std::mutex stopped_mutex_;
  std::condition_variable stopped_cv_;

  /// Registered connections, reactor thread only (callbacks never touch
  /// this map — they reach their Conn through the shared_ptr they hold).
  std::unordered_map<int, std::shared_ptr<Conn>> conns_;

  /// Connections with freshly deposited responses, awaiting a flush by
  /// the reactor. Shared with worker callbacks.
  std::mutex pending_mutex_;
  std::vector<std::shared_ptr<Conn>> pending_flush_;
};

}  // namespace axc::service
