// Shared plumbing of the three workloads: arguments, the result record and
// its JSON line, obs counter deltas, and small utilities.
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "axc/obs/obs.hpp"
#include "axc/service/server.hpp"
#include "stats.hpp"
#include "trace.hpp"

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory the traced run writes its span file into.
  std::string out_dir = ".";
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// What one run reports. Workloads append failures with fail(), which
/// also marks the run incorrect; a failed self-guard or correctness check
/// is a failure even when no single operation failed.
struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool correct = true;
  std::vector<std::string> problems;
  std::map<std::string, Metric> metrics;  ///< the JSON line's metrics
  std::vector<std::string> notes;         ///< human-readable extras

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
  }
  void fail(const std::string& problem) {
    correct = false;
    problems.push_back(problem);
  }
  void note(const std::string& line) { notes.push_back(line); }
};

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// Every per-layer metric, in the order BENCHMARK.json lists them. The
/// traced run of every workload prints all of them; a layer the workload
/// bypasses reads 0 (the "flat" prediction).
extern const std::vector<MetricSpec> kPerLayerMetrics;

/// Peak resident set size of this process so far, in MiB (VmHWM).
double peak_rss_mb();

/// Set-up reps run for at least this long. A shared host's speed shifts by
/// up to a third for a second or so at a time; reps spread over several
/// seconds give a median that repeats from run to run, where a burst of
/// reps in a few milliseconds reads whichever speed the host had then.
inline constexpr double kSetupSeconds = 5.0;

/// Median wall time, in seconds, of calls of \p setup(rep), repeated until
/// at least \p min_reps have run and kSetupSeconds have passed.
/// \p teardown(rep) runs untimed before every rep after the first, so a
/// rep that replaces the previous one's state is not charged for
/// destroying it.
template <typename Setup, typename Teardown>
double median_setup_s(int min_reps, Setup&& setup, Teardown&& teardown) {
  std::vector<double> times;
  const std::int64_t begin = trace::now_ns();
  const auto until = begin + static_cast<std::int64_t>(kSetupSeconds * 1e9);
  for (int i = 0; i < min_reps || trace::now_ns() < until; ++i) {
    if (i > 0) teardown(i);
    const std::int64_t start = trace::now_ns();
    setup(i);
    times.push_back(static_cast<double>(trace::now_ns() - start) / 1e9);
  }
  return median(times);
}

/// Nearest-rank percentile \p p of \p latency_ms. The workloads fix \p p
/// in advance; a run with fewer than 10 samples beyond it fails, since its
/// tail would not be measured.
double tail_latency_ms(Result& result, const std::vector<double>& latency_ms,
                       double p);

/// FNV-1a over bytes: a request id that client and server sides derive
/// from the same bytes.
std::uint64_t fnv1a(std::span<const std::uint8_t> bytes);

/// Counter/histogram deltas between two obs snapshots.
class ObsDelta {
 public:
  ObsDelta(const axc::obs::Snapshot& before, const axc::obs::Snapshot& after)
      : before_(before), after_(after) {}
  double counter(const std::string& name) const;
  /// Mean of the values a histogram recorded between the snapshots.
  double histogram_mean(const std::string& name) const;
  /// a / (a + b) over two counter deltas; 0 when both are 0.
  double ratio(const std::string& a, const std::string& b) const;

 private:
  const axc::obs::Snapshot& before_;
  const axc::obs::Snapshot& after_;
};

/// The end-to-end metrics every workload reports in its untraced run.
struct EndToEnd {
  double setup_s = 0.0;
  double throughput_ops_s = 0.0;
  double latency_p50_ms = 0.0;
  double latency_tail_ms = 0.0;
  /// Read right after the timed phase, before the correctness checks that
  /// follow it in some workloads.
  double peak_rss_mb = 0.0;
};

/// Copies \p e2e into \p result's metrics under the names BENCHMARK.json
/// declares.
void set_end_to_end(Result& result, const EndToEnd& e2e);

/// Records the tracing overhead: the traced phase's end-to-end numbers
/// against the untraced phase's of the same run, as per-layer metrics.
void set_trace_overhead(Result& result, const EndToEnd& untraced,
                        const EndToEnd& traced);

/// Writes the recorded spans to <out_dir>/trace-<workload>-<seed>.json.
void write_trace_file(const Args& args, Result& result);

/// The service::dispatch the Server runs by default, wrapped in one span
/// per call named after the layer that serves the endpoint
/// ("dispatch.characterize", "dispatch.designspace", ...). The request id
/// is fnv1a of the request bytes, which the client side can derive too;
/// the span is a root, since it runs on a server worker thread.
axc::service::Dispatcher timing_dispatcher();

/// Per-layer metrics derived from the dispatch spans and the obs deltas of
/// a traced service phase: server dispatch calls and busy time, the mean
/// dispatch time per call of the logic, error, designspace and core
/// endpoints, and those layers' obs counters.
void set_dispatch_metrics(Result& result,
                          const std::map<std::string, trace::NameTotals>& t,
                          const ObsDelta& delta);

void run_encode(const Args& args, Result& result);
void run_serve_hot(const Args& args, Result& result);
void run_sweep_cold(const Args& args, Result& result);

}  // namespace perfbench
