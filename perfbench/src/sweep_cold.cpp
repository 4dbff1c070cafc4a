// Workload `sweep_cold`: closed-loop design-space exploration against an
// in-process two-node cluster. Fixed-size ClusterClient::sweep calls carry
// requests that are all distinct (fresh seeds and configs drawn from the
// workload seed), so every request misses the service cache, computes,
// inserts and replicates: the cache write path, the logic, error,
// designspace and core layers, and cluster routing. It bypasses the
// reactor, video and accel.
#include <algorithm>
#include <atomic>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <optional>
#include <string_view>
#include <sstream>
#include <thread>
#include <utility>

#include "axc/cluster/local.hpp"
#include "axc/service/endpoints.hpp"
#include "axc/service/protocol.hpp"
#include "common.hpp"
#include "requests.hpp"

namespace perfbench {
namespace {

namespace svc = axc::service;

constexpr std::size_t kNodes = 2;
constexpr std::size_t kReplication = 2;
constexpr unsigned kWorkersPerNode = 1;
constexpr std::size_t kSweepSize = 32;
constexpr double kTailPercentile = 90.0;  // see perfbench/README.md
// End-to-end numbers are medians over windows of kWindow sweeps, in the
// order they complete, so a host stall that slows a minority of windows
// does not move them. A run covers at least kMinWindows windows.
constexpr std::size_t kWindow = 100;
constexpr std::size_t kMinWindows = 5;
constexpr int kMinSetupReps = 101;
// Self-guard: unique requests should never hit the service cache.
constexpr double kMaxCacheHitRatio = 0.01;
// Concurrent callers, each a closed loop of sweeps: with one caller both
// nodes idle at every sweep boundary, and the idle time, made of thread
// wake-ups on a shared VM, varied more between runs than the compute did.
constexpr unsigned kCallers = 2;
// peak_rss_mb is read once this many sweeps are done, not at the end: the
// library's characterization cache has no size limit and the check keeps
// one digest per answer, so memory at the end grows with throughput.
constexpr std::size_t kRssSweeps = 256;

std::unique_ptr<axc::cluster::LocalCluster> start_cluster(bool traced) {
  axc::cluster::LocalClusterOptions options;
  options.nodes = kNodes;
  options.replication = kReplication;
  options.server.workers = kWorkersPerNode;
  if (traced) options.server.dispatcher = timing_dispatcher();
  return std::make_unique<axc::cluster::LocalCluster>(options);
}

/// A response kept for the check after the timed phase: its status, level,
/// length and two independent 64-bit hashes of its bytes. Digests rather
/// than bytes keep the benchmark's own memory small beside the library's.
struct Digest {
  std::optional<svc::Status> status;
  std::optional<std::uint8_t> level;
  std::size_t size = 0;
  std::uint64_t fnv = 0;
  std::size_t std_hash = 0;

  explicit Digest(const svc::Bytes& bytes)
      : status(svc::response_status(bytes)),
        level(svc::response_level(bytes)),
        size(bytes.size()),
        fnv(fnv1a(bytes)),
        std_hash(std::hash<std::string_view>{}(std::string_view(
            reinterpret_cast<const char*>(bytes.data()), bytes.size()))) {}
  bool operator==(const Digest&) const = default;
};

/// What one caller sent and got back.
struct CallerLog {
  explicit CallerLog(const RequestSource& start) : source(start) {}

  /// The caller's generator as the phase found it: replaying it
  /// regenerates the caller's requests, in order, for the check.
  RequestSource source;
  std::deque<Digest> responses;  // grows in small chunks, unlike a vector
  /// Per sweep: when it completed and how long it took.
  std::vector<std::pair<std::int64_t, std::int64_t>> done_latency_ns;
  std::uint64_t failovers = 0;
};

struct Phase {
  EndToEnd e2e;
  std::vector<CallerLog> callers;
  std::uint64_t requests = 0;
  std::uint64_t failovers = 0;
  double elapsed_ns = 0.0;
  axc::obs::Snapshot before;
  axc::obs::Snapshot after;
};

/// kCallers closed loops, each sending one sweep at a time through its own
/// ClusterClient, until \p seconds have passed and kMinWindows windows and
/// kRssSweeps sweeps are done.
Phase timed_phase(axc::cluster::LocalCluster& cluster,
                  std::vector<RequestSource>& sources, double seconds) {
  Phase phase;
  for (const RequestSource& source : sources) phase.callers.emplace_back(source);
  std::atomic<std::size_t> sweeps{0};
  double rss_mb = 0.0;  // set by the caller that completes sweep kRssSweeps
  std::vector<std::exception_ptr> errors(kCallers);
  phase.before = axc::obs::snapshot();
  const std::int64_t start = trace::now_ns();
  const auto deadline = start + static_cast<std::int64_t>(seconds * 1e9);
  const auto caller = [&](unsigned c) {
    try {
      axc::cluster::ClusterClient client = cluster.make_client();
      CallerLog& log = phase.callers[c];
      while (trace::now_ns() < deadline || sweeps.load() < kRssSweeps ||
             sweeps.load() < kMinWindows * kWindow) {
        std::vector<svc::Bytes> batch;
        for (std::size_t i = 0; i < kSweepSize; ++i) {
          batch.push_back(sources[c].next());
        }
        const std::int64_t t0 = trace::now_ns();
        std::vector<svc::Bytes> out;
        {
          const trace::Scoped span("cluster.sweep", c);
          out = client.sweep(batch);
        }
        const std::int64_t t1 = trace::now_ns();
        log.done_latency_ns.emplace_back(t1, t1 - t0);
        if (++sweeps == kRssSweeps) rss_mb = peak_rss_mb();
        for (std::size_t i = 0; i < batch.size(); ++i) {
          log.responses.emplace_back(i < out.size() ? out[i] : svc::Bytes{});
        }
      }
      log.failovers = client.failovers();
    } catch (...) {
      errors[c] = std::current_exception();
    }
  };
  std::vector<std::thread> threads;
  for (unsigned c = 0; c < kCallers; ++c) threads.emplace_back(caller, c);
  for (std::thread& t : threads) t.join();
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }
  phase.elapsed_ns = static_cast<double>(trace::now_ns() - start);
  phase.after = axc::obs::snapshot();
  phase.e2e.peak_rss_mb = rss_mb;
  std::vector<std::pair<std::int64_t, std::int64_t>> done_latency_ns;
  for (const CallerLog& log : phase.callers) {
    phase.requests += log.responses.size();
    phase.failovers += log.failovers;
    done_latency_ns.insert(done_latency_ns.end(), log.done_latency_ns.begin(),
                           log.done_latency_ns.end());
  }
  std::sort(done_latency_ns.begin(), done_latency_ns.end());
  WindowedStats windows(kWindow, kTailPercentile, start);
  for (const auto& [done, latency] : done_latency_ns) {
    windows.record(done, latency);
  }
  phase.e2e.throughput_ops_s =
      windows.per_s() * static_cast<double>(kSweepSize);
  phase.e2e.latency_p50_ms = windows.p50_ms();
  phase.e2e.latency_tail_ms = windows.tail_ms();
  return phase;
}

/// After the timed phase: every response must be Ok, served at level 0 and
/// equal (by length and both hashes) to a direct service::dispatch of the
/// same request bytes, replayed from each caller's generator on a thread of
/// its own. Returns the number of failing responses.
std::uint64_t verify(const Phase& phase, Result& result) {
  struct Tally {
    std::uint64_t not_ok = 0;
    std::uint64_t degraded = 0;
    std::uint64_t mismatch = 0;
    std::string example;
  };
  std::vector<Tally> tally(phase.callers.size());
  std::vector<std::thread> pool;
  for (std::size_t c = 0; c < phase.callers.size(); ++c) {
    pool.emplace_back([&, c] {
      Tally& mine = tally[c];
      RequestSource replay = phase.callers[c].source;
      for (const Digest& got : phase.callers[c].responses) {
        const svc::Bytes request = replay.next();
        const auto header = svc::parse_request_header(request);
        const std::string endpoint =
            header ? std::string(svc::endpoint_name(header->endpoint)) : "?";
        if (got.status != svc::Status::Ok) {
          ++mine.not_ok;
        } else if (got.level != 0) {
          ++mine.degraded;
        } else if (Digest(svc::dispatch(request, {1, 0})) != got) {
          ++mine.mismatch;
        } else {
          continue;
        }
        if (mine.example.empty()) mine.example = endpoint;
      }
    });
  }
  for (std::thread& th : pool) th.join();
  Tally sum;
  for (const Tally& t : tally) {
    sum.not_ok += t.not_ok;
    sum.degraded += t.degraded;
    sum.mismatch += t.mismatch;
    if (sum.example.empty()) sum.example = t.example;
  }
  const std::uint64_t total = sum.not_ok + sum.degraded + sum.mismatch;
  if (total > 0) {
    result.fail(std::to_string(sum.not_ok) + " failed, " +
                std::to_string(sum.degraded) + " degraded and " +
                std::to_string(sum.mismatch) +
                " mismatching sweep responses, e.g. " + sum.example);
  }
  return total;
}

/// Records the phase's requests and checks the workload's self-guards.
void account(const Phase& phase, Result& result) {
  result.attempted += phase.requests;
  result.failed += verify(phase, result);
  const ObsDelta delta(phase.before, phase.after);
  const double hit_ratio =
      delta.ratio("service.cache.hits", "service.cache.misses");
  if (hit_ratio > kMaxCacheHitRatio) {
    result.fail("self-guard: service cache hit ratio " +
                std::to_string(hit_ratio) + " above " +
                std::to_string(kMaxCacheHitRatio));
  }
  if (phase.failovers != 0 ||
      delta.counter("service.cluster.failovers") != 0) {
    result.fail("self-guard: cluster failovers during the sweep");
  }
}

}  // namespace

void run_sweep_cold(const Args& args, Result& result) {
  std::unique_ptr<axc::cluster::LocalCluster> cluster;
  const double setup_s = median_setup_s(
      kMinSetupReps, [&](int) { cluster = start_cluster(false); },
      [&](int) { cluster.reset(); });
  std::vector<RequestSource> sources;
  for (unsigned c = 0; c < kCallers; ++c) {
    sources.emplace_back(args.seed * kCallers + c, kComputeFamilies);
  }
  const Phase phase = timed_phase(*cluster, sources, args.seconds);
  account(phase, result);
  EndToEnd e2e = phase.e2e;
  e2e.setup_s = setup_s;
  {
    std::ostringstream note;
    note << "sweep_cold: " << phase.requests << " requests in sweeps of "
         << kSweepSize << " from " << kCallers << " callers over " << kNodes
         << " nodes x " << kWorkersPerNode << " worker, medians over windows"
         << " of " << kWindow << " sweeps, tail = p" << kTailPercentile;
    result.note(note.str());
  }
  if (!args.trace) {
    set_end_to_end(result, e2e);
    return;
  }

  cluster.reset();
  cluster = start_cluster(true);
  trace::clear();
  trace::set_enabled(true);
  const Phase tphase = timed_phase(*cluster, sources, args.seconds);
  trace::set_enabled(false);
  account(tphase, result);

  const auto totals = trace::totals(trace::spans());
  const ObsDelta delta(tphase.before, tphase.after);
  set_dispatch_metrics(result, totals, delta);
  const auto sweeps = totals.find("cluster.sweep");
  const double dispatch_ms = result.metrics["service.server.dispatch_ms"].value;
  result.set("cluster.sweep_ms",
             sweeps == totals.end()
                 ? 0.0
                 : static_cast<double>(sweeps->second.total_ns) / 1e6 /
                       static_cast<double>(sweeps->second.count),
             "ms");
  result.set("cluster.fanout_efficiency",
             dispatch_ms * 1e6 /
                 (static_cast<double>(kNodes) * tphase.elapsed_ns),
             "ratio");
  result.set("cluster.routed", delta.counter("service.cluster.routed"),
             "count");
  result.set("cluster.replications",
             delta.counter("service.cluster.replications"), "count");
  result.set("cluster.failovers", delta.counter("service.cluster.failovers"),
             "count");
  set_trace_overhead(result, e2e, tphase.e2e);
  write_trace_file(args, result);
}

}  // namespace perfbench
