#include "axc/service/reactor.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <deque>
#include <map>
#include <stdexcept>

#include "axc/obs/obs.hpp"
#include "axc/service/framing.hpp"

namespace axc::service {

namespace {

[[noreturn]] void throw_errno(const std::string& what) {
  throw std::runtime_error(what + ": " + std::strerror(errno));
}

struct ReactorInstruments {
  obs::Counter& wakeups = obs::counter("service.reactor.epoll_wakeups");
  obs::Counter& ready_events = obs::counter("service.reactor.ready_events");
  obs::Counter& accepted =
      obs::counter("service.reactor.connections_accepted");
  obs::Counter& closed = obs::counter("service.reactor.connections_closed");
  obs::Counter& dropped =
      obs::counter("service.reactor.connections_dropped");
  obs::Counter& accept_errors =
      obs::counter("service.reactor.accept_errors");
  obs::Counter& frames_in = obs::counter("service.reactor.frames_in");
  obs::Counter& mux_frames_in =
      obs::counter("service.reactor.mux_frames_in");
  obs::Counter& frames_out = obs::counter("service.reactor.frames_out");
  obs::Counter& partial_writes =
      obs::counter("service.reactor.partial_writes");
  obs::Counter& threads = obs::counter("service.reactor.threads");
  obs::Histogram& open_conns =
      obs::histogram("service.reactor.open_connections");
};

ReactorInstruments& instruments() {
  static ReactorInstruments instance;
  return instance;
}

}  // namespace

/// Per-connection state. The read-side framing state machine (assembler,
/// serial_seq_next) belongs to the reactor thread alone; everything under
/// \c m is shared with worker-thread response callbacks.
struct ReactorServer::Conn {
  int fd = -1;

  // --- reactor thread only ---
  FrameAssembler assembler;
  std::uint64_t serial_seq_next = 0;  ///< order tag for legacy frames
  bool want_write = false;            ///< EPOLLOUT currently armed

  // --- shared with response callbacks (guarded by m) ---
  std::mutex m;
  std::deque<Bytes> outbox;  ///< fully framed responses, send order
  std::size_t out_offset = 0;  ///< bytes of outbox.front() already sent
  /// Responses to legacy frames completed out of order, held until every
  /// earlier serial response has shipped.
  std::map<std::uint64_t, Bytes> serial_ready;
  std::uint64_t serial_flush_next = 0;
  std::uint32_t inflight = 0;  ///< requests submitted, response not yet framed
  bool read_closed = false;
  bool dead = false;  ///< fd closed and deregistered; discard responses
};

ReactorServer::ReactorServer(Server& server,
                             const ReactorServerOptions& options)
    : server_(server), options_(options) {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
  if (listen_fd_ < 0) throw_errno("socket");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.bind_address.c_str(), &addr.sin_addr) !=
      1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error("invalid bind address: " +
                             options_.bind_address);
  }
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof addr) < 0 ||
      ::listen(listen_fd_, options_.backlog) < 0) {
    const int saved = errno;
    ::close(listen_fd_);
    listen_fd_ = -1;
    errno = saved;
    throw_errno("bind/listen " + options_.bind_address + ":" +
                std::to_string(options_.port));
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof bound;
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                    &bound_len) == 0) {
    port_ = ntohs(bound.sin_port);
  }

  epoll_fd_ = ::epoll_create1(0);
  if (epoll_fd_ < 0) {
    ::close(listen_fd_);
    throw_errno("epoll_create1");
  }
  wake_fd_ = ::eventfd(0, EFD_NONBLOCK);
  if (wake_fd_ < 0) {
    ::close(listen_fd_);
    ::close(epoll_fd_);
    throw_errno("eventfd");
  }
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = listen_fd_;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev) < 0) {
    throw_errno("epoll_ctl(listen)");
  }
  ev.events = EPOLLIN;
  ev.data.fd = wake_fd_;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev) < 0) {
    throw_errno("epoll_ctl(wake)");
  }

  reactor_ = std::thread([this] { loop(); });
}

ReactorServer::~ReactorServer() {
  stop();
  if (wake_fd_ >= 0) ::close(wake_fd_);
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
  // listen_fd_ is closed by the drain inside loop(); cover construction
  // paths where the thread never ran.
  if (listen_fd_ >= 0) ::close(listen_fd_);
}

void ReactorServer::signal_wakeup() noexcept {
  const std::uint64_t one = 1;
  // Async-signal-safe; EAGAIN (counter saturated) still wakes the reactor.
  [[maybe_unused]] const ssize_t n =
      ::write(wake_fd_, &one, sizeof one);
}

void ReactorServer::request_stop() noexcept {
  stop_requested_.store(true);
  signal_wakeup();
}

void ReactorServer::stop() {
  request_stop();
  {
    const std::lock_guard<std::mutex> lock(join_mutex_);
    if (reactor_.joinable()) reactor_.join();
  }
  // The reactor only exits once every connection's in-flight count hit
  // zero, i.e. every response callback has deposited its response. A
  // callback's tail (pending-list push + wakeup) may still be running on a
  // worker thread; outstanding_callbacks_ reaches zero only after the
  // callback's final member access, so waiting here makes destruction safe.
  while (outstanding_callbacks_.load(std::memory_order_acquire) != 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

void ReactorServer::wait() {
  {
    std::unique_lock<std::mutex> lock(stopped_mutex_);
    stopped_cv_.wait(lock, [this] { return stopped_.load(); });
  }
  stop();  // join exactly once even when wait(), stop() and ~ race
}

void ReactorServer::update_interest(Conn& conn) {
  epoll_event ev{};
  ev.events = (conn.read_closed ? 0u : static_cast<unsigned>(EPOLLIN)) |
              (conn.want_write ? static_cast<unsigned>(EPOLLOUT) : 0u);
  ev.data.fd = conn.fd;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn.fd, &ev);
}

void ReactorServer::accept_ready() {
  ReactorInstruments& ins = instruments();
  for (;;) {
    const int fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK);
    if (fd < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == ECONNABORTED) continue;
      if (errno == EBADF || errno == EINVAL) return;  // listen fd gone
      ins.accept_errors.add();
      if (errno == EMFILE || errno == ENFILE || errno == ENOBUFS ||
          errno == ENOMEM) {
        // Resource exhaustion: brief backoff so the pending backlog does
        // not spin the loop; serving connections will finish and free
        // fds.
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
      return;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    auto conn = std::make_shared<Conn>();
    conn->fd = fd;
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = fd;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) < 0) {
      ::close(fd);
      ins.accept_errors.add();
      continue;
    }
    conns_.emplace(fd, std::move(conn));
    open_connections_.store(conns_.size());
    ins.accepted.add();
    ins.open_conns.record(static_cast<std::int64_t>(conns_.size()));
    if (draining_) {
      // Raced into a draining server: no new work from this peer.
      ::shutdown(fd, SHUT_RD);
    }
  }
}

void ReactorServer::close_conn(const std::shared_ptr<Conn>& conn,
                               bool dropped) {
  ReactorInstruments& ins = instruments();
  {
    const std::lock_guard<std::mutex> lock(conn->m);
    if (conn->dead) return;
    conn->dead = true;
  }
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn->fd, nullptr);
  conns_.erase(conn->fd);
  open_connections_.store(conns_.size());
  // Publish counters before ::close so a peer that observes our EOF also
  // observes the drop/close accounted for.
  (dropped ? ins.dropped : ins.closed).add();
  ins.open_conns.record(static_cast<std::int64_t>(conns_.size()));
  ::close(conn->fd);
}

void ReactorServer::handle_frame(const std::shared_ptr<Conn>& conn,
                                 bool mux, std::uint32_t request_id,
                                 Bytes payload) {
  ReactorInstruments& ins = instruments();
  ins.frames_in.add();
  if (mux) ins.mux_frames_in.add();
  const std::uint64_t seq = mux ? 0 : conn->serial_seq_next++;

  const std::optional<RequestHeader> header =
      parse_request_header(payload);
  if (header && header->endpoint == Endpoint::Shutdown) {
    // Transport-level, never dispatched: the job server keeps running
    // (its owner decides when to drain it).
    {
      const std::lock_guard<std::mutex> lock(conn->m);
      conn->inflight++;
    }
    outstanding_callbacks_.fetch_add(1, std::memory_order_relaxed);
    if (options_.allow_remote_shutdown) {
      complete(conn, mux, request_id, seq, encode_ok_response());
      stop_requested_.store(true);  // drain begins at the next loop head
    } else {
      complete(conn, mux, request_id, seq,
               encode_error_response(
                   Status::BadRequest,
                   "remote shutdown not enabled on this server"));
    }
    return;
  }

  {
    const std::lock_guard<std::mutex> lock(conn->m);
    conn->inflight++;
  }
  outstanding_callbacks_.fetch_add(1, std::memory_order_relaxed);
  server_.submit(std::move(payload),
                 [this, conn, mux, request_id, seq](Bytes response) {
                   complete(conn, mux, request_id, seq,
                            std::move(response));
                 });
}

void ReactorServer::complete(const std::shared_ptr<Conn>& conn, bool mux,
                             std::uint32_t request_id,
                             std::uint64_t serial_seq, Bytes response) {
  // Frame the payload outside the lock.
  Bytes framed;
  if (mux) {
    framed.reserve(response.size() + kMuxFrameHeaderBytes);
    append_mux_frame(framed, request_id, response);
  } else {
    framed.reserve(response.size() + kFrameHeaderBytes);
    append_frame(framed, response);
  }
  {
    const std::lock_guard<std::mutex> lock(conn->m);
    if (mux) {
      // Multiplexed responses ship as soon as they are done — the id is
      // what lets the client match them, so order is free to vary.
      conn->outbox.push_back(std::move(framed));
    } else {
      // Legacy frames keep the PR 5 contract: responses in request order.
      conn->serial_ready.emplace(serial_seq, std::move(framed));
      while (true) {
        const auto it = conn->serial_ready.find(conn->serial_flush_next);
        if (it == conn->serial_ready.end()) break;
        conn->outbox.push_back(std::move(it->second));
        conn->serial_ready.erase(it);
        ++conn->serial_flush_next;
      }
    }
    --conn->inflight;
  }
  bool need_signal = false;
  {
    const std::lock_guard<std::mutex> lock(pending_mutex_);
    // One eventfd write wakes the reactor for the whole pending batch;
    // later deposits ride along without their own syscall.
    need_signal = pending_flush_.empty();
    pending_flush_.push_back(conn);
  }
  if (need_signal) signal_wakeup();
  // Last member access: stop() waits for this to reach zero before the
  // object may be destroyed.
  outstanding_callbacks_.fetch_sub(1, std::memory_order_release);
}

void ReactorServer::flush_writes(const std::shared_ptr<Conn>& conn) {
  ReactorInstruments& ins = instruments();
  std::unique_lock<std::mutex> lock(conn->m);
  if (conn->dead) return;
  while (!conn->outbox.empty()) {
    // Gather queued responses into one sendmsg: a pipelined burst of N
    // responses costs one syscall, not N.
    iovec iov[64];
    std::size_t iov_count = 0;
    for (const Bytes& framed : conn->outbox) {
      const std::size_t skip = iov_count == 0 ? conn->out_offset : 0;
      iov[iov_count].iov_base =
          const_cast<std::uint8_t*>(framed.data() + skip);
      iov[iov_count].iov_len = framed.size() - skip;
      if (++iov_count == std::size(iov)) break;
    }
    msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = iov_count;
    const ssize_t n = ::sendmsg(conn->fd, &msg, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        // Socket buffer full: park the remainder and let EPOLLOUT resume.
        ins.partial_writes.add();
        if (!conn->want_write) {
          conn->want_write = true;
          update_interest(*conn);
        }
        return;
      }
      // Peer vanished mid-response: drop the connection; in-flight
      // callbacks will find it dead and discard their responses.
      lock.unlock();
      close_conn(conn, /*dropped=*/true);
      return;
    }
    std::size_t sent = static_cast<std::size_t>(n);
    while (sent > 0) {
      const std::size_t remaining =
          conn->outbox.front().size() - conn->out_offset;
      if (sent >= remaining) {
        sent -= remaining;
        conn->outbox.pop_front();
        conn->out_offset = 0;
        ins.frames_out.add();
      } else {
        conn->out_offset += sent;
        sent = 0;
      }
    }
  }
  if (conn->want_write) {
    conn->want_write = false;
    update_interest(*conn);
  }
  if (conn->read_closed && conn->inflight == 0) {
    // Orderly end: everything the peer asked for has been answered and
    // written; mirror its close.
    lock.unlock();
    close_conn(conn, /*dropped=*/false);
  }
}

void ReactorServer::read_ready(const std::shared_ptr<Conn>& conn) {
  std::uint8_t buf[16384];
  for (;;) {
    const ssize_t n = ::read(conn->fd, buf, sizeof buf);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      close_conn(conn, /*dropped=*/true);
      return;
    }
    if (n == 0) {
      if (conn->assembler.mid_frame() && !draining_) {
        // EOF in the middle of a frame: the peer vanished mid-request.
        // During a drain this EOF is self-inflicted — begin_drain()'s
        // SHUT_RD truncates whatever the peer was mid-way through
        // writing — so a partial trailing frame must NOT drop the
        // completed responses already deposited in the outbox; fall
        // through to the orderly half-close path, which flushes them.
        close_conn(conn, /*dropped=*/true);
        return;
      }
      bool close_now = false;
      {
        const std::lock_guard<std::mutex> lock(conn->m);
        conn->read_closed = true;
        close_now = conn->inflight == 0 && conn->outbox.empty();
      }
      if (close_now) {
        close_conn(conn, /*dropped=*/false);
      } else {
        // Half-close: keep the fd registered for EPOLLOUT only while the
        // in-flight responses finish and flush.
        update_interest(*conn);
      }
      return;
    }
    try {
      conn->assembler.feed({buf, static_cast<std::size_t>(n)});
    } catch (const TransportError&) {
      // Oversized frame announcement — hostile or corrupt peer.
      close_conn(conn, /*dropped=*/true);
      return;
    }
    while (conn->assembler.has_frame()) {
      Frame frame = conn->assembler.next_frame();
      handle_frame(conn, frame.mux, frame.request_id,
                   std::move(frame.payload));
    }
  }
}

void ReactorServer::begin_drain() {
  if (draining_) return;
  draining_ = true;
  if (listen_fd_ >= 0) {
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, listen_fd_, nullptr);
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  // Stop reading everywhere: each connection finishes (and flushes) its
  // in-flight requests, then closes via the read_closed path.
  for (const auto& [fd, conn] : conns_) {
    ::shutdown(fd, SHUT_RD);
  }
}

void ReactorServer::loop() {
  ReactorInstruments& ins = instruments();
  ins.threads.add();  // structural: one reactor thread, ever

  epoll_event events[128];
  std::vector<std::shared_ptr<Conn>> to_flush;
  for (;;) {
    if (stop_requested_.load()) begin_drain();
    if (draining_ && conns_.empty()) break;

    const int n = ::epoll_wait(epoll_fd_, events,
                               static_cast<int>(std::size(events)), -1);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;  // epoll itself failing is not survivable
    }
    ins.wakeups.add();
    ins.ready_events.add(static_cast<std::uint64_t>(n));

    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      const std::uint32_t ev = events[i].events;
      if (fd == wake_fd_) {
        std::uint64_t drain = 0;
        while (::read(wake_fd_, &drain, sizeof drain) > 0) {
        }
        continue;
      }
      if (fd == listen_fd_) {
        accept_ready();
        continue;
      }
      const auto it = conns_.find(fd);
      if (it == conns_.end()) continue;  // closed earlier this batch
      const std::shared_ptr<Conn> conn = it->second;
      if ((ev & (EPOLLERR | EPOLLHUP)) != 0) {
        close_conn(conn, /*dropped=*/true);
        continue;
      }
      if ((ev & EPOLLOUT) != 0) flush_writes(conn);
      if ((ev & EPOLLIN) != 0) read_ready(conn);
    }

    // Responses deposited by workers (or synchronously during the reads
    // above) since the last pass.
    {
      const std::lock_guard<std::mutex> lock(pending_mutex_);
      to_flush.swap(pending_flush_);
    }
    for (const std::shared_ptr<Conn>& conn : to_flush) {
      bool dead;
      {
        const std::lock_guard<std::mutex> lock(conn->m);
        dead = conn->dead;
      }
      if (!dead) flush_writes(conn);
    }
    to_flush.clear();
  }

  // Loop exit: draining and no connections left. Close anything still
  // registered (error-path exits) and report stopped.
  for (const auto& [fd, conn] : conns_) {
    const std::lock_guard<std::mutex> lock(conn->m);
    conn->dead = true;
    ::close(fd);
  }
  conns_.clear();
  open_connections_.store(0);
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  {
    const std::lock_guard<std::mutex> lock(stopped_mutex_);
    stopped_.store(true);
  }
  stopped_cv_.notify_all();
}

}  // namespace axc::service
