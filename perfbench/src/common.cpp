#include "common.hpp"

#include <fstream>
#include <sstream>
#include <string>

#include "axc/service/endpoints.hpp"

namespace perfbench {

const std::vector<MetricSpec> kPerLayerMetrics = {
    {"video.inter_frames", "count"},
    {"video.frame_ms", "ms"},
    {"video.self_ms", "ms"},
    {"video.bits", "bits"},
    {"accel.sad_batch.calls", "count"},
    {"accel.sad_batch.candidates", "count"},
    {"accel.sad_batch.busy_ms", "ms"},
    {"accel.ns_per_candidate", "ns"},
    {"accel.share_of_frame", "ratio"},
    {"arith.adds", "count"},
    {"arith.ns_per_add", "ns"},
    {"service.protocol.encode_ns", "ns"},
    {"service.protocol.decode_ns", "ns"},
    {"service.reactor.frames_in", "count"},
    {"service.reactor.epoll_wakeups", "count"},
    {"service.reactor.frames_per_wakeup", "ratio"},
    {"service.reactor.partial_writes", "count"},
    {"service.server.dispatch_calls", "count"},
    {"service.server.dispatch_ms", "ms"},
    {"service.server.outside_dispatch_ms", "ms"},
    {"service.queue_depth.mean", "jobs"},
    {"service.rejected.overloaded", "count"},
    {"service.cache.hit_ratio", "ratio"},
    {"service.cache.misses", "count"},
    {"service.cache.warmup_ms", "ms"},
    {"logic.characterize_ms", "ms"},
    {"logic.compile.hit_ratio", "ratio"},
    {"logic.characterize_cache.hit_ratio", "ratio"},
    {"logic.sim.passes", "count"},
    {"error.evaluate_ms", "ms"},
    {"error.eval.samples", "count"},
    {"error.ns_per_sample", "ns"},
    {"designspace.sweep_ms", "ms"},
    {"core.gear_space_ms", "ms"},
    {"cluster.routed", "count"},
    {"cluster.replications", "count"},
    {"cluster.failovers", "count"},
    {"cluster.sweep_ms", "ms"},
    {"cluster.fanout_efficiency", "ratio"},
    {"trace.spans", "count"},
    {"trace.overhead_throughput_pct", "%"},
    {"trace.overhead_latency_p50_pct", "%"},
};

double peak_rss_mb() {
  // VmHWM, not getrusage: Linux carries ru_maxrss across execve, so a
  // child started by a large parent would report the parent's peak.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  return 0.0;
}

double tail_latency_ms(Result& result, const std::vector<double>& latency_ms,
                       double p) {
  if (latency_ms.empty()) {
    result.fail("no latency samples");
    return 0.0;
  }
  const double highest = highest_percentile_with_tail(
      latency_ms.size(), {50, 90, 95, 99, 99.9});
  std::ostringstream note;
  note << latency_ms.size() << " latency samples, tail p" << p
       << "; highest percentile with 10 samples beyond it: p" << highest;
  result.note(note.str());
  if (samples_beyond(latency_ms.size(), p) < 10) {
    result.fail("too few samples for 10 beyond the tail percentile");
  }
  return percentile(latency_ms, p);
}

std::uint64_t fnv1a(std::span<const std::uint8_t> bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const std::uint8_t b : bytes) {
    h ^= b;
    h *= 0x100000001b3ULL;
  }
  return h;
}

double ObsDelta::counter(const std::string& name) const {
  const auto get = [&](const axc::obs::Snapshot& s) -> double {
    const auto it = s.counters.find(name);
    return it == s.counters.end() ? 0.0 : static_cast<double>(it->second);
  };
  return get(after_) - get(before_);
}

double ObsDelta::histogram_mean(const std::string& name) const {
  const auto a = after_.histograms.find(name);
  if (a == after_.histograms.end()) return 0.0;
  double count = static_cast<double>(a->second.count);
  double sum = static_cast<double>(a->second.sum);
  const auto b = before_.histograms.find(name);
  if (b != before_.histograms.end()) {
    count -= static_cast<double>(b->second.count);
    sum -= static_cast<double>(b->second.sum);
  }
  return count > 0.0 ? sum / count : 0.0;
}

double ObsDelta::ratio(const std::string& a, const std::string& b) const {
  const double x = counter(a);
  const double total = x + counter(b);
  return total > 0.0 ? x / total : 0.0;
}

void set_end_to_end(Result& result, const EndToEnd& e2e) {
  result.set("setup_s", e2e.setup_s, "s");
  result.set("throughput_ops_s", e2e.throughput_ops_s, "ops/s");
  result.set("latency_p50_ms", e2e.latency_p50_ms, "ms");
  result.set("latency_tail_ms", e2e.latency_tail_ms, "ms");
  result.set("peak_rss_mb", e2e.peak_rss_mb, "MiB");
}

void set_trace_overhead(Result& result, const EndToEnd& untraced,
                        const EndToEnd& traced) {
  const auto pct = [](double base, double with) {
    return base > 0.0 ? 100.0 * (with - base) / base : 0.0;
  };
  // Positive = tracing cost: lower throughput, higher latency.
  result.set("trace.overhead_throughput_pct",
             -pct(untraced.throughput_ops_s, traced.throughput_ops_s), "%");
  result.set("trace.overhead_latency_p50_pct",
             pct(untraced.latency_p50_ms, traced.latency_p50_ms), "%");
}

void write_trace_file(const Args& args, Result& result) {
  const std::vector<trace::Span> spans = trace::spans();
  result.set("trace.spans", static_cast<double>(spans.size()), "count");
  const std::string path = args.out_dir + "/trace-" + args.workload + "-" +
                           std::to_string(args.seed) + ".json";
  if (trace::write_json(path, spans)) {
    result.note("spans written to " + path);
  } else {
    result.fail("could not write the span file " + path);
  }
}

axc::service::Dispatcher timing_dispatcher() {
  return [](std::span<const std::uint8_t> request, unsigned level) {
    const auto header = axc::service::parse_request_header(request);
    const char* name = "dispatch.other";
    if (header) {
      using axc::service::Endpoint;
      switch (header->endpoint) {
        case Endpoint::CharacterizeAdder:
        case Endpoint::CharacterizeMultiplier:
          name = "dispatch.characterize";
          break;
        case Endpoint::EvaluateError: name = "dispatch.evaluate_error"; break;
        case Endpoint::GearDesignSpace: name = "dispatch.gear_space"; break;
        case Endpoint::HeteroAdderDesignSpace:
        case Endpoint::ArrayMulDesignSpace:
        case Endpoint::StaticAdderDesignSpace:
          name = "dispatch.designspace";
          break;
        default: break;
      }
    }
    const std::int64_t start = trace::now_ns();
    axc::service::Bytes response =
        axc::service::dispatch(request, {/*eval_threads=*/1, level});
    trace::record(name, fnv1a(request), start, trace::now_ns());
    return response;
  };
}

void set_dispatch_metrics(Result& result,
                          const std::map<std::string, trace::NameTotals>& t,
                          const ObsDelta& delta) {
  // Busy time summed over the phase, and the mean per call.
  const auto busy_ms = [&](std::initializer_list<const char*> names) {
    double total = 0.0;
    for (const char* name : names) {
      const auto it = t.find(name);
      if (it != t.end()) total += static_cast<double>(it->second.total_ns);
    }
    return total / 1e6;
  };
  const auto mean_ms = [&](const char* name) {
    const auto it = t.find(name);
    return it == t.end() || it->second.count == 0
               ? 0.0
               : static_cast<double>(it->second.total_ns) / 1e6 /
                     static_cast<double>(it->second.count);
  };
  double calls = 0.0;
  for (const auto& [name, totals] : t) {
    if (name.rfind("dispatch.", 0) == 0) {
      calls += static_cast<double>(totals.count);
    }
  }
  const double dispatch_ms =
      busy_ms({"dispatch.characterize", "dispatch.evaluate_error",
               "dispatch.gear_space", "dispatch.designspace",
               "dispatch.other"});
  result.set("service.server.dispatch_calls", calls, "count");
  result.set("service.server.dispatch_ms", dispatch_ms, "ms");
  result.set("service.queue_depth.mean",
             delta.histogram_mean("service.queue_depth"), "jobs");
  result.set("service.rejected.overloaded",
             delta.counter("service.rejected.overloaded"), "count");
  result.set("service.cache.hit_ratio",
             delta.ratio("service.cache.hits", "service.cache.misses"),
             "ratio");
  result.set("service.cache.misses", delta.counter("service.cache.misses"),
             "count");
  result.set("logic.characterize_ms", mean_ms("dispatch.characterize"), "ms");
  result.set("logic.compile.hit_ratio",
             delta.ratio("logic.compile.hits", "logic.compile.misses"),
             "ratio");
  result.set("logic.characterize_cache.hit_ratio",
             delta.ratio("logic.characterize_cache.hits",
                         "logic.characterize_cache.misses"),
             "ratio");
  result.set("logic.sim.passes", delta.counter("logic.sim.passes"), "count");
  const double eval_busy_ms = busy_ms({"dispatch.evaluate_error"});
  const double samples = delta.counter("error.eval.samples");
  result.set("error.evaluate_ms", mean_ms("dispatch.evaluate_error"), "ms");
  result.set("error.eval.samples", samples, "count");
  result.set("error.ns_per_sample",
             samples > 0 ? eval_busy_ms * 1e6 / samples : 0.0, "ns");
  result.set("designspace.sweep_ms", mean_ms("dispatch.designspace"), "ms");
  result.set("core.gear_space_ms", mean_ms("dispatch.gear_space"), "ms");
}

}  // namespace perfbench
