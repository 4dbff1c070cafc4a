#include "axc/service/tcp.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <stdexcept>

#include "axc/service/framing.hpp"

namespace axc::service {

namespace {

[[noreturn]] void throw_transport_errno(TransportError::Kind kind,
                                        const std::string& what) {
  throw TransportError(kind, what + ": " + std::strerror(errno));
}

/// Reads exactly \p size bytes; false on orderly EOF at a frame boundary.
/// Throws TransportError(BrokenStream) on mid-frame EOF or IO errors and
/// TransportError(Timeout) when \p timeout_ms > 0 and the deadline for the
/// *whole* chunk expires (poll-gated, so a peer trickling one byte per
/// minute cannot stretch the budget).
bool read_exact(int fd, std::uint8_t* data, std::size_t size,
                bool eof_ok_at_start, std::uint32_t timeout_ms) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  std::size_t got = 0;
  while (got < size) {
    if (timeout_ms > 0) {
      const auto remaining =
          std::chrono::duration_cast<std::chrono::milliseconds>(
              deadline - std::chrono::steady_clock::now())
              .count();
      if (remaining <= 0) {
        throw TransportError(TransportError::Kind::Timeout,
                             "read timed out after " +
                                 std::to_string(timeout_ms) + "ms");
      }
      pollfd pfd{fd, POLLIN, 0};
      const int ready = ::poll(&pfd, 1, static_cast<int>(remaining));
      if (ready < 0) {
        if (errno == EINTR) continue;
        throw_transport_errno(TransportError::Kind::BrokenStream, "poll");
      }
      if (ready == 0) {
        throw TransportError(TransportError::Kind::Timeout,
                             "read timed out after " +
                                 std::to_string(timeout_ms) + "ms");
      }
    }
    const ssize_t n = ::read(fd, data + got, size - got);
    if (n == 0) {
      if (got == 0 && eof_ok_at_start) return false;
      throw TransportError(TransportError::Kind::BrokenStream,
                           "connection closed mid-frame");
    }
    if (n < 0) {
      if (errno == EINTR) continue;
      throw_transport_errno(TransportError::Kind::BrokenStream, "read");
    }
    got += static_cast<std::size_t>(n);
  }
  return true;
}

void write_all(int fd, const std::uint8_t* data, std::size_t size) {
  std::size_t sent = 0;
  while (sent < size) {
    // MSG_NOSIGNAL: writing to a peer that died mid-exchange must surface
    // as a typed error on this call, not a process-wide SIGPIPE.
    const ssize_t n =
        ::send(fd, data + sent, size - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw_transport_errno(TransportError::Kind::BrokenStream, "send");
    }
    sent += static_cast<std::size_t>(n);
  }
}

/// Receives one frame payload. False on orderly EOF before a new frame.
bool read_frame(int fd, Bytes& payload, std::uint32_t timeout_ms = 0) {
  std::uint8_t header[4];
  if (!read_exact(fd, header, sizeof header, /*eof_ok_at_start=*/true,
                  timeout_ms)) {
    return false;
  }
  const std::uint32_t length =
      static_cast<std::uint32_t>(header[0]) | (header[1] << 8) |
      (header[2] << 16) | (static_cast<std::uint32_t>(header[3]) << 24);
  if (length > kMaxFrameBytes) {
    throw TransportError(TransportError::Kind::FrameOverflow,
                         "frame length " + std::to_string(length) +
                             " exceeds kMaxFrameBytes");
  }
  payload.resize(length);
  if (length > 0) {
    read_exact(fd, payload.data(), length, /*eof_ok_at_start=*/false,
               timeout_ms);
  }
  return true;
}

void write_frame(int fd, std::span<const std::uint8_t> payload) {
  Bytes framed;
  framed.reserve(payload.size() + 4);
  append_frame(framed, payload);
  write_all(fd, framed.data(), framed.size());
}

/// Reads whatever the socket has (up to \p size), poll-gated by the same
/// deadline semantics as read_exact. Returns 0 on orderly EOF. The mux
/// client reads through this into a FrameAssembler so one syscall can
/// deliver many pipelined responses.
std::size_t read_some(int fd, std::uint8_t* data, std::size_t size,
                      std::uint32_t timeout_ms) {
  for (;;) {
    if (timeout_ms > 0) {
      pollfd pfd{fd, POLLIN, 0};
      const int ready = ::poll(&pfd, 1, static_cast<int>(timeout_ms));
      if (ready < 0) {
        if (errno == EINTR) continue;
        throw_transport_errno(TransportError::Kind::BrokenStream, "poll");
      }
      if (ready == 0) {
        throw TransportError(TransportError::Kind::Timeout,
                             "read timed out after " +
                                 std::to_string(timeout_ms) + "ms");
      }
    }
    const ssize_t n = ::read(fd, data, size);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw_transport_errno(TransportError::Kind::BrokenStream, "read");
    }
    return static_cast<std::size_t>(n);
  }
}

}  // namespace

// --- TcpConnection --------------------------------------------------------

TcpConnection::TcpConnection(const std::string& host, std::uint16_t port,
                             const TcpConnectionOptions& options)
    : options_(options) {
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) {
    throw_transport_errno(TransportError::Kind::Connect, "socket");
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd_);
    fd_ = -1;
    throw TransportError(TransportError::Kind::Connect,
                         "invalid host address: " + host);
  }
  int rc;
  do {
    rc = ::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                   sizeof addr);
  } while (rc < 0 && errno == EINTR);
  // A connect interrupted by a signal completes asynchronously; the retry
  // then reports EISCONN, which is success.
  if (rc < 0 && errno == EISCONN) rc = 0;
  if (rc < 0) {
    const int saved = errno;
    ::close(fd_);
    fd_ = -1;
    errno = saved;
    throw_transport_errno(TransportError::Kind::Connect,
                          "connect " + host + ":" + std::to_string(port));
  }
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
}

TcpConnection::~TcpConnection() {
  if (fd_ >= 0) ::close(fd_);
}

Bytes TcpConnection::roundtrip(std::span<const std::uint8_t> request) {
  if (options_.multiplex) return collect(submit(request));
  write_frame(fd_, request);
  Bytes response;
  if (!read_frame(fd_, response, options_.read_timeout_ms)) {
    throw TransportError(TransportError::Kind::BrokenStream,
                         "server closed the connection");
  }
  return response;
}

std::uint32_t TcpConnection::submit(std::span<const std::uint8_t> request) {
  // Without multiplex the deferred base-class path applies: one legacy
  // roundtrip per collect(), safe against any server.
  if (!options_.multiplex) return Connection::submit(request);
  // Wraparound-safe allocation: after 2^32 submits the counter wraps to 0
  // (reserved) and can land on an id whose response is still in flight —
  // reusing it would tag two requests identically, and collect() would
  // pair the wrong payload with the survivor. Skip until free.
  while (next_id_ == 0 ||
         outstanding_.find(next_id_) != outstanding_.end() ||
         received_.find(next_id_) != received_.end()) {
    ++next_id_;
  }
  const std::uint32_t id = next_id_++;
  // Buffered, not written: the whole pipelined batch goes out in one
  // write when the first collect() needs a response.
  append_mux_frame(send_buffer_, id, request);
  outstanding_.insert(id);
  return id;
}

Bytes TcpConnection::collect(std::uint32_t request_id) {
  if (!options_.multiplex) return Connection::collect(request_id);
  if (const auto it = received_.find(request_id); it != received_.end()) {
    Bytes response = std::move(it->second);
    received_.erase(it);
    return response;
  }
  if (outstanding_.find(request_id) == outstanding_.end()) {
    throw std::invalid_argument("TcpConnection::collect: unknown request id " +
                                std::to_string(request_id));
  }
  if (!send_buffer_.empty()) {
    write_all(fd_, send_buffer_.data(), send_buffer_.size());
    send_buffer_.clear();
  }
  // Read socket-sized chunks through the assembler — one read may carry
  // many responses — stashing other ids as they arrive; the server
  // completes out of order.
  for (;;) {
    while (assembler_.has_frame()) {
      Frame frame = assembler_.next_frame();
      if (!frame.mux) {
        throw TransportError(
            TransportError::Kind::Corrupt,
            "unmultiplexed response frame on a multiplexed connection");
      }
      if (outstanding_.erase(frame.request_id) == 0) {
        throw TransportError(TransportError::Kind::Corrupt,
                             "response for unknown request id " +
                                 std::to_string(frame.request_id));
      }
      if (frame.request_id == request_id) return std::move(frame.payload);
      received_.emplace(frame.request_id, std::move(frame.payload));
    }
    std::uint8_t buf[16384];
    const std::size_t n = read_some(fd_, buf, sizeof buf,
                                    options_.read_timeout_ms);
    if (n == 0) {
      throw TransportError(TransportError::Kind::BrokenStream,
                           "server closed the connection");
    }
    assembler_.feed({buf, n});  // throws FrameOverflow on a hostile length
  }
}

}  // namespace axc::service
