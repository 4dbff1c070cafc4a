// Workload `serve_hot`: request traffic over TCP to one ReactorServer whose
// result cache a timed warm-up has filled. A single generator thread sends
// mux frames on a few connections, encoding each request when it is sent
// and decoding each response with the typed decoders. Traffic is a Zipf
// mix over a pool much smaller than the cache, so almost every request is
// a cache hit: the time goes to the reactor, framing, protocol and cache
// reads, not to compute. It bypasses accel/arith, logic and error.
//
// The load is a closed loop with a fixed number of requests in flight per
// connection. An open-loop rate ladder was tried first: on a shared VM its
// tails followed host stalls of several milliseconds and did not repeat
// from run to run (see perfbench/README.md).
#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <memory>
#include <sstream>
#include <stdexcept>

#include "axc/service/endpoints.hpp"
#include "axc/service/framing.hpp"
#include "axc/service/reactor.hpp"
#include "axc/service/transport.hpp"
#include "common.hpp"
#include "requests.hpp"

namespace perfbench {
namespace {

namespace svc = axc::service;
using TransportError = svc::TransportError;

constexpr unsigned kServerWorkers = 2;
constexpr std::size_t kConnections = 4;
constexpr std::size_t kDepth = 8;  // closed loop: requests in flight per conn
constexpr std::size_t kSlots = kConnections * kDepth;
constexpr std::size_t kPoolSize = 64;  // cache capacity is 1024 entries
// Ping's place in the Zipf ranking: last, about 0.3% of the traffic. Ping
// is not cacheable and takes the worker-queue path; with a share near or
// above 1% its worker wake-ups would decide the p99.
constexpr std::size_t kPingRank = kPoolSize - 1;
constexpr double kZipfExponent = 1.0;
constexpr double kTailPercentile = 95.0;
// End-to-end numbers are medians over windows of kWindow answers (tens of
// milliseconds each), so host stalls of a few milliseconds, which hit a
// minority of windows, do not move them.
constexpr std::size_t kWindow = 10000;
constexpr std::size_t kMinWindows = 10;
constexpr double kMinCacheHitRatio = 0.99;
// The traced run sums protocol time over every request but keeps spans for
// one request in kSpanSample, so millions of requests leave a span file
// of tens of thousands of spans.
constexpr std::uint64_t kSpanSample = 256;
constexpr int kMinSetupReps = 9;
constexpr std::int64_t kDrainTimeoutNs = 2'000'000'000;
constexpr std::int64_t kWarmupTimeoutNs = 60'000'000'000;

void check_errno(bool ok, const char* what) {
  if (!ok) {
    throw TransportError(TransportError::Kind::BrokenStream,
                         std::string(what) + ": " + std::strerror(errno));
  }
}

/// An owned file descriptor.
class Fd {
 public:
  explicit Fd(int fd = -1) : fd_(fd) {}
  ~Fd() {
    if (fd_ >= 0) ::close(fd_);
  }
  Fd(const Fd&) = delete;
  Fd& operator=(const Fd&) = delete;
  int get() const { return fd_; }

 private:
  int fd_;
};

/// The generator's side of the connections: non-blocking sockets with
/// per-connection send buffers and frame assemblers, polled through epoll
/// without sleeping so a wake-up is never charged to a request.
class Client {
 public:
  explicit Client(std::uint16_t port) : epoll_(::epoll_create1(0)) {
    check_errno(epoll_.get() >= 0, "epoll_create1");
    for (std::size_t c = 0; c < kConnections; ++c) {
      auto conn = std::make_unique<Conn>();
      conn->fd = std::make_unique<Fd>(::socket(AF_INET, SOCK_STREAM, 0));
      const int fd = conn->fd->get();
      check_errno(fd >= 0, "socket");
      sockaddr_in addr{};
      addr.sin_family = AF_INET;
      addr.sin_port = htons(port);
      addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
      check_errno(::connect(fd, reinterpret_cast<sockaddr*>(&addr),
                            sizeof(addr)) == 0,
                  "connect");
      const int one = 1;
      check_errno(
          ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one)) == 0,
          "TCP_NODELAY");
      check_errno(::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK) == 0,
                  "O_NONBLOCK");
      epoll_event ev{};
      ev.events = EPOLLIN;
      ev.data.u64 = c;
      check_errno(::epoll_ctl(epoll_.get(), EPOLL_CTL_ADD, fd, &ev) == 0,
                  "epoll_ctl");
      conns_.push_back(std::move(conn));
    }
  }

  /// Queues \p payload as a mux frame with id \p id on connection \p c.
  void queue(std::size_t c, std::uint32_t id,
             std::span<const std::uint8_t> payload) {
    svc::append_mux_frame(conns_[c]->out, id, payload);
  }

  /// Writes as much queued data as the sockets take without blocking.
  void flush() {
    for (auto& conn : conns_) {
      while (conn->out_off < conn->out.size()) {
        const ssize_t n =
            ::send(conn->fd->get(), conn->out.data() + conn->out_off,
                   conn->out.size() - conn->out_off, MSG_NOSIGNAL);
        if (n > 0) {
          conn->out_off += static_cast<std::size_t>(n);
          continue;
        }
        if (n < 0 && (errno == EAGAIN || errno == EINTR)) break;
        check_errno(false, "send");
      }
      if (conn->out_off == conn->out.size()) {
        conn->out.clear();
        conn->out_off = 0;
      }
    }
  }

  /// Reads whatever has arrived (waiting at most \p timeout_ns) and calls
  /// \p on_frame(frame) for every complete response frame.
  template <typename F>
  void poll(std::int64_t timeout_ns, F&& on_frame) {
    std::array<epoll_event, kConnections> events{};
    timespec timeout{};
    timeout.tv_sec = static_cast<time_t>(timeout_ns / 1'000'000'000);
    timeout.tv_nsec = static_cast<long>(timeout_ns % 1'000'000'000);
    const int ready =
        ::epoll_pwait2(epoll_.get(), events.data(),
                       static_cast<int>(events.size()), &timeout, nullptr);
    if (ready < 0 && errno == EINTR) return;
    check_errno(ready >= 0, "epoll_wait");
    for (int e = 0; e < ready; ++e) {
      Conn& conn = *conns_[events[static_cast<std::size_t>(e)].data.u64];
      for (;;) {
        const ssize_t n = ::read(conn.fd->get(), buffer_.data(), buffer_.size());
        if (n > 0) {
          conn.in.feed(std::span<const std::uint8_t>(
              buffer_.data(), static_cast<std::size_t>(n)));
          continue;
        }
        if (n < 0 && (errno == EAGAIN || errno == EINTR)) break;
        if (n == 0) {
          throw TransportError(TransportError::Kind::BrokenStream,
                               "server closed a connection");
        }
        check_errno(false, "read");
      }
      while (conn.in.has_frame()) on_frame(conn.in.next_frame());
    }
  }

 private:
  struct Conn {
    std::unique_ptr<Fd> fd;
    svc::Bytes out;
    std::size_t out_off = 0;
    svc::FrameAssembler in;
  };

  Fd epoll_;
  std::vector<std::unique_ptr<Conn>> conns_;
  std::array<std::uint8_t, 1 << 16> buffer_{};
};

/// The hot pool: ping at a fixed Zipf rank, every other entry a distinct
/// cacheable request, the families in a fixed rotation so the traffic mix
/// is the same for every seed.
std::vector<AnyRequest> make_pool(std::uint64_t seed) {
  RequestSource source(seed, kAllFamilies);
  std::vector<AnyRequest> pool;
  for (std::size_t i = 0; i < kPoolSize; ++i) {
    pool.push_back(i == kPingRank ? AnyRequest{} : source.next_typed());
  }
  return pool;
}

/// Decodes \p response with the typed decoder of \p request's endpoint;
/// throws on a malformed or non-Ok response.
void decode(const AnyRequest& request, std::span<const std::uint8_t> response) {
  switch (request.index()) {
    case 0: svc::decode_ok_response(response); break;
    case 1:
    case 2: svc::decode_characterize_response(response); break;
    case 3: svc::decode_evaluate_error_response(response); break;
    case 4: svc::decode_gear_design_space_response(response); break;
    case 5: svc::decode_hetero_adder_design_space_response(response); break;
    case 6: svc::decode_array_mul_design_space_response(response); break;
    case 7: svc::decode_static_adder_design_space_response(response); break;
    default: svc::decode_encode_probe_response(response); break;
  }
}

/// One server under test with its generator-side connections.
struct Rig {
  std::unique_ptr<svc::Server> server;
  std::unique_ptr<svc::ReactorServer> reactor;
  std::unique_ptr<Client> client;
  std::vector<AnyRequest> pool;
  std::vector<svc::Bytes> warm_responses;
  double warmup_ms = 0.0;  ///< the cache warm-up alone
};

/// Starts a server and reactor, connects, and fills the cache by sending
/// every pool request once (closed loop) and waiting for the answers.
std::unique_ptr<Rig> start_rig(std::uint64_t seed, bool traced) {
  auto rig = std::make_unique<Rig>();
  svc::ServerOptions options;
  options.workers = kServerWorkers;
  if (traced) options.dispatcher = timing_dispatcher();
  rig->server = std::make_unique<svc::Server>(options);
  rig->reactor = std::make_unique<svc::ReactorServer>(*rig->server);
  rig->client = std::make_unique<Client>(rig->reactor->port());
  rig->pool = make_pool(seed);
  rig->warm_responses.assign(kPoolSize, {});
  const std::int64_t warm_start = trace::now_ns();
  for (std::size_t i = 0; i < kPoolSize; ++i) {
    rig->client->queue(i % kConnections, static_cast<std::uint32_t>(i),
                       encode(rig->pool[i]));
  }
  std::size_t received = 0;
  const std::int64_t deadline = trace::now_ns() + kWarmupTimeoutNs;
  while (received < kPoolSize) {
    if (trace::now_ns() > deadline) {
      throw TransportError(TransportError::Kind::Timeout, "cache warm-up");
    }
    rig->client->flush();
    rig->client->poll(1'000'000, [&](svc::Frame frame) {
      if (frame.request_id < kPoolSize &&
          rig->warm_responses[frame.request_id].empty()) {
        rig->warm_responses[frame.request_id] = std::move(frame.payload);
        ++received;
      }
    });
  }
  rig->warmup_ms = static_cast<double>(trace::now_ns() - warm_start) / 1e6;
  return rig;
}

/// Seeded Zipf(kZipfExponent) draws of pool indices.
class ZipfSampler {
 public:
  explicit ZipfSampler(std::uint64_t seed) : rng_(seed) {
    double total = 0.0;
    for (std::size_t i = 0; i < kPoolSize; ++i) {
      total += 1.0 / std::pow(static_cast<double>(i + 1), kZipfExponent);
      cdf_[i] = total;
    }
  }
  std::uint32_t next() {
    const double u = rng_.uniform() * cdf_.back();
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
    return static_cast<std::uint32_t>(
        std::min<std::size_t>(kPoolSize - 1, it - cdf_.begin()));
  }

 private:
  axc::Rng rng_;
  std::array<double, kPoolSize> cdf_{};
};

/// The generator's per-request work: encode the typed request when it is
/// sent, decode the answer with the typed decoder and compare its bytes
/// with the direct dispatch's. Protocol time is summed (and sampled into
/// spans) only in the traced phase.
struct Traffic {
  Rig& rig;
  const std::vector<svc::Bytes>& expected;
  bool traced = trace::enabled();
  double encode_ns = 0.0;
  double decode_ns = 0.0;

  static bool sampled(std::uint64_t request) {
    return request % kSpanSample == 0;
  }

  svc::Bytes encode_request(std::uint32_t pool, std::uint64_t request) {
    const std::int64_t t0 = traced ? trace::now_ns() : 0;
    svc::Bytes payload = encode(rig.pool[pool]);
    if (traced) {
      const std::int64_t t1 = trace::now_ns();
      encode_ns += static_cast<double>(t1 - t0);
      if (sampled(request)) trace::record("protocol.encode", request, t0, t1);
    }
    return payload;
  }

  /// True when \p payload is the right answer to pool entry \p pool.
  bool check_response(std::uint32_t pool, std::uint64_t request,
                      const svc::Bytes& payload) {
    const std::int64_t t0 = traced ? trace::now_ns() : 0;
    try {
      decode(rig.pool[pool], payload);
    } catch (const std::exception&) {
      return false;
    }
    if (traced) {
      const std::int64_t t1 = trace::now_ns();
      decode_ns += static_cast<double>(t1 - t0);
      if (sampled(request)) trace::record("protocol.decode", request, t0, t1);
    }
    return payload == expected[pool];
  }
};

struct Phase {
  EndToEnd e2e;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  double latency_sum_ms = 0.0;
  double encode_ns = 0.0;
  double decode_ns = 0.0;
  axc::obs::Snapshot before;
  axc::obs::Snapshot after;
};

/// Closed loop for \p seconds: every connection keeps kDepth requests in
/// flight, each answer immediately releasing the next request. The mux
/// request id is the in-flight slot, reused once its answer is in.
Phase run_closed(Rig& rig, const std::vector<svc::Bytes>& expected,
                 std::uint64_t seed, double seconds, Result& result) {
  struct Slot {
    bool busy = false;
    std::uint32_t pool = 0;
    std::uint64_t request = 0;
    std::int64_t sent_ns = 0;
  };
  Phase phase;
  Traffic traffic{rig, expected};
  ZipfSampler zipf(seed ^ 0x21F0A11ULL);
  std::array<Slot, kSlots> slots{};
  std::uint64_t issued = 0;
  std::size_t busy = 0;
  const trace::Scoped span("serve_hot.closed_loop", seed);
  phase.before = axc::obs::snapshot();
  const std::int64_t start = trace::now_ns();
  const std::int64_t stop = start + static_cast<std::int64_t>(seconds * 1e9);
  WindowedStats windows(kWindow, kTailPercentile, start);

  const auto issue = [&](std::size_t s) {
    Slot& slot = slots[s];
    slot.pool = zipf.next();
    slot.request = issued++;
    const svc::Bytes payload = traffic.encode_request(slot.pool, slot.request);
    rig.client->queue(s / kDepth, static_cast<std::uint32_t>(s), payload);
    slot.sent_ns = trace::now_ns();
    slot.busy = true;
    ++busy;
  };
  const auto on_frame = [&](svc::Frame frame) {
    const std::int64_t now = trace::now_ns();
    if (frame.request_id >= kSlots || !slots[frame.request_id].busy) {
      ++phase.failed;  // an id with no request in flight
      return;
    }
    Slot& slot = slots[frame.request_id];
    slot.busy = false;
    --busy;
    ++phase.completed;
    windows.record(now, now - slot.sent_ns);
    phase.latency_sum_ms += static_cast<double>(now - slot.sent_ns) / 1e6;
    if (traffic.traced && Traffic::sampled(slot.request)) {
      trace::record("client.request", slot.request, slot.sent_ns, now);
    }
    if (!traffic.check_response(slot.pool, slot.request, frame.payload)) {
      ++phase.failed;
    }
    if (now < stop) issue(frame.request_id);
  };

  try {
    for (std::size_t s = 0; s < kSlots; ++s) issue(s);
    while (busy > 0 && trace::now_ns() < stop + kDrainTimeoutNs) {
      rig.client->flush();
      rig.client->poll(0, on_frame);
    }
  } catch (const TransportError& e) {
    result.fail(std::string("serve_hot transport error: ") + e.what());
  }
  phase.failed += busy;  // never answered
  phase.after = axc::obs::snapshot();
  phase.e2e.peak_rss_mb = peak_rss_mb();
  phase.encode_ns = traffic.encode_ns;
  phase.decode_ns = traffic.decode_ns;
  phase.e2e.throughput_ops_s = windows.per_s();
  phase.e2e.latency_p50_ms = windows.p50_ms();
  phase.e2e.latency_tail_ms = windows.tail_ms();
  if (windows.windows() < kMinWindows) {
    result.fail("too few answers for " + std::to_string(kMinWindows) +
                " windows of " + std::to_string(kWindow));
  }
  return phase;
}

/// Counts the phase's requests and failures and checks the self-guard.
void account(const Phase& phase, Result& result) {
  result.attempted += phase.completed + phase.failed;
  result.failed += phase.failed;
  if (phase.failed > 0) {
    result.fail(std::to_string(phase.failed) +
                " serve_hot requests failed or mismatched");
  }
  const ObsDelta delta(phase.before, phase.after);
  const double hit_ratio =
      delta.ratio("service.cache.hits", "service.cache.misses");
  if (hit_ratio < kMinCacheHitRatio) {
    result.fail("self-guard: cache hit ratio " + std::to_string(hit_ratio) +
                " below " + std::to_string(kMinCacheHitRatio));
  }
  std::ostringstream note;
  note << "serve_hot: closed loop, " << kConnections << " connections x "
       << kDepth << " in flight, " << phase.completed
       << " requests, medians over windows of " << kWindow << ", tail = p"
       << kTailPercentile;
  result.note(note.str());
}

/// Direct service::dispatch of every pool request at level 0, outside any
/// timed region; the warm-up's answers must already match.
std::vector<svc::Bytes> expected_responses(const Rig& rig, Result& result) {
  std::vector<svc::Bytes> expected;
  for (std::size_t i = 0; i < kPoolSize; ++i) {
    expected.push_back(svc::dispatch(encode(rig.pool[i]), {1, 0}));
    if (svc::response_status(expected.back()) != svc::Status::Ok ||
        svc::response_level(expected.back()) != 0) {
      result.fail("pool request " + std::to_string(i) + " is not served Ok");
    }
    if (rig.warm_responses[i] != expected.back()) {
      result.fail("warm-up response " + std::to_string(i) +
                  " differs from a direct dispatch");
    }
  }
  return expected;
}

}  // namespace

void run_serve_hot(const Args& args, Result& result) {
  // Each rep warms a fresh server with its own pool, so no rep profits
  // from the library's process-wide caches filled by an earlier one.
  std::unique_ptr<Rig> rig;
  std::vector<double> warmup_ms;
  std::uint64_t reps = 0;
  const double setup_s = median_setup_s(
      kMinSetupReps,
      [&](int) { rig = start_rig(args.seed + reps++, false); },
      [&](int) {
        warmup_ms.push_back(rig->warmup_ms);
        rig.reset();
      });
  warmup_ms.push_back(rig->warmup_ms);
  result.note("cache warm-up (median of setup reps) = " +
              std::to_string(median(warmup_ms)) + " ms");
  std::vector<svc::Bytes> expected = expected_responses(*rig, result);
  const Phase phase =
      run_closed(*rig, expected, args.seed, args.seconds, result);
  account(phase, result);
  EndToEnd e2e = phase.e2e;
  e2e.setup_s = setup_s;
  if (!args.trace) {
    set_end_to_end(result, e2e);
    return;
  }

  rig.reset();
  rig = start_rig(args.seed + reps, true);
  expected = expected_responses(*rig, result);
  trace::clear();
  trace::set_enabled(true);
  const Phase traced =
      run_closed(*rig, expected, args.seed, args.seconds, result);
  trace::set_enabled(false);
  account(traced, result);

  const auto totals = trace::totals(trace::spans());
  const ObsDelta delta(traced.before, traced.after);
  set_dispatch_metrics(result, totals, delta);
  const double requests = static_cast<double>(traced.completed);
  result.set("service.protocol.encode_ns", traced.encode_ns / requests, "ns");
  result.set("service.protocol.decode_ns", traced.decode_ns / requests, "ns");
  const double frames_in = delta.counter("service.reactor.frames_in");
  const double wakeups = delta.counter("service.reactor.epoll_wakeups");
  result.set("service.reactor.frames_in", frames_in, "count");
  result.set("service.reactor.epoll_wakeups", wakeups, "count");
  result.set("service.reactor.frames_per_wakeup",
             wakeups > 0 ? frames_in / wakeups : 0.0, "ratio");
  result.set("service.reactor.partial_writes",
             delta.counter("service.reactor.partial_writes"), "count");
  // Mean per request of client latency not spent in dispatch: reactor,
  // framing, cache lookup, queueing and the network path.
  result.set("service.server.outside_dispatch_ms",
             (traced.latency_sum_ms -
              result.metrics["service.server.dispatch_ms"].value) /
                 requests,
             "ms");
  result.set("service.cache.warmup_ms", median(warmup_ms), "ms");
  set_trace_overhead(result, e2e, traced.e2e);
  write_trace_file(args, result);
}

}  // namespace perfbench
