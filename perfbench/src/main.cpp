// axc_perfbench: runs one benchmark workload and prints its result.
//
//   axc_perfbench --workload <encode|serve_hot|sweep_cold> --seed <n>
//                 --seconds <s> --trace <0|1> [--out-dir <dir>]
//
// Human-readable lines come first; the last line of stdout is one JSON
// object {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
// metrics are the end-to-end ones; with --trace 1 the run measures an
// untraced and then a traced phase and reports the per-layer metrics plus
// the tracing overhead. Exit status: 0 when every correctness check and
// self-guard passed, 1 when one failed, 2 on a usage or runtime error.
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <map>
#include <string>

#include "common.hpp"

namespace {

int usage(const std::string& problem) {
  std::cerr << "axc_perfbench: " << problem
            << "\nusage: axc_perfbench --workload <encode|serve_hot|"
               "sweep_cold> --seed <n> --seconds <s> --trace <0|1> "
               "[--out-dir <dir>]\n";
  return 2;
}

std::string number(double value) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), value);
  return std::string(buf, res.ptr);
}

std::string json_line(const perfbench::Result& r) {
  std::string out = "{\"correct\": ";
  out += r.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(r.attempted);
  out += ", \"failed\": " + std::to_string(r.failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : r.metrics) {
    if (!first) out += ", ";
    first = false;
    out += "\"" + name + "\": {\"value\": " + number(metric.value) +
           ", \"unit\": \"" + metric.unit + "\"}";
  }
  return out + "}}";
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  bool have_seed = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage("missing value for " + flag);
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0') return usage("bad --seed " + value);
      have_seed = true;
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !(args.seconds > 0.0) ||
          args.seconds > 120.0) {
        return usage("bad --seconds " + value);
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return usage("bad --trace " + value);
      args.trace = value == "1";
      have_trace = true;
    } else if (flag == "--out-dir") {
      args.out_dir = value;
    } else {
      return usage("unknown flag " + flag);
    }
  }
  if (!have_seed || !have_trace) return usage("--seed and --trace required");

  // obs stays on, the way users run the library (AXC_OBS=0 would also
  // blind the self-guards that read its counters).
  axc::obs::set_enabled(true);
  perfbench::Result result;
  try {
    if (args.workload == "encode") {
      perfbench::run_encode(args, result);
    } else if (args.workload == "serve_hot") {
      perfbench::run_serve_hot(args, result);
    } else if (args.workload == "sweep_cold") {
      perfbench::run_sweep_cold(args, result);
    } else {
      return usage("unknown workload '" + args.workload + "'");
    }
  } catch (const std::exception& e) {
    std::cerr << "axc_perfbench: " << args.workload << " failed: " << e.what()
              << "\n";
    return 2;
  }

  if (args.trace) {
    // The traced run prints every per-layer metric on every workload, and
    // only those; a layer the workload bypasses reads 0.
    std::map<std::string, perfbench::Metric> per_layer;
    for (const perfbench::MetricSpec& spec : perfbench::kPerLayerMetrics) {
      const auto it = result.metrics.find(spec.name);
      per_layer[spec.name] = it != result.metrics.end()
                                 ? it->second
                                 : perfbench::Metric{0.0, spec.unit};
    }
    result.metrics = std::move(per_layer);
  }
  for (auto& [name, metric] : result.metrics) {
    if (std::isfinite(metric.value)) continue;
    result.fail(name + " is not finite");
    metric.value = 0.0;
  }

  std::cout << "workload=" << args.workload << " seed=" << args.seed
            << " seconds=" << args.seconds << " trace=" << args.trace << "\n";
  for (const std::string& note : result.notes) std::cout << "  " << note << "\n";
  for (const auto& [name, metric] : result.metrics) {
    std::cout << "  " << name << " = " << number(metric.value) << " "
              << metric.unit << "\n";
  }
  for (const std::string& p : result.problems) {
    std::cout << "  FAILED: " << p << "\n";
  }
  std::cout << json_line(result) << std::endl;
  return result.correct ? 0 : 1;
}
