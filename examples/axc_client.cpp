/// Example: typed command-line client for axc_server.
///
/// One subcommand per service endpoint (its endpoint_name with dashes),
/// found through the endpoint table; each command lists its flags once,
/// and every response prints through one generic printer driven by the
/// response's wire fields: a flat key=value line of its scalar fields, then
/// one line per list element, so smoke scripts can grep them. Non-Ok
/// statuses (bad_request, overloaded, deadline_exceeded, ...) exit 3,
/// transport failures exit 1, usage errors exit 2.
///
/// With --ring <file> (one host:port per line, ring order) the client
/// routes through a ClusterClient instead of a single connection: each
/// request goes to the node owning its canonical hash, failing over
/// along the replica ranking when a node is dead or draining (see
/// DESIGN.md §12). Typed commands work identically in both modes;
/// pipeline/hold/shutdown are single-connection tools and stay non-ring.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "axc/cluster/client.hpp"
#include "axc/service/protocol.hpp"
#include "axc/service/retry.hpp"
#include "axc/service/tcp.hpp"
#include "axc/service/transport.hpp"
#include "cli_util.hpp"

namespace {

constexpr const char* kUsage =
    "usage: axc_client [--host <addr>] [--port <n>] [--deadline-ms <n>]\n"
    "                  <command> [command options]\n"
    "\n"
    "commands:\n"
    "  ping                     health check\n"
    "  characterize-adder       --family gear|loa|etai|ripple --width N\n"
    "                           --param-a R|lsbs [--param-b P] [--cell 0..5]\n"
    "                           [--vectors N] [--seed S]\n"
    "  characterize-multiplier  --structure recursive|wallace --width N\n"
    "                           [--block accurate|soa|ours] [--cell 0..5]\n"
    "                           [--approx-lsbs N] [--vectors N] [--seed S]\n"
    "  evaluate-error           --target gear|multiplier\n"
    "                           gear: [--n N --r R --p P] [--correction K]\n"
    "                           mul:  [--mul-width N] [--block ...]\n"
    "                                 [--cell 0..5] [--approx-lsbs N]\n"
    "                           [--max-exhaustive-bits B] [--samples N]\n"
    "                           [--seed S]\n"
    "  gear-design-space        [--width N] [--min-p P] [--include-exact]\n"
    "                           [--estimate-power] [--min-accuracy PCT]\n"
    "  hetero-adder-design-space\n"
    "                           [--width N] [--block-width B]\n"
    "                           [--no-truncated] [--estimate-power]\n"
    "                           [--min-accuracy PCT]\n"
    "  array-mul-design-space   [--width N] [--max-approx-columns C]\n"
    "                           [--estimate-power] [--min-accuracy PCT]\n"
    "  static-adder-design-space\n"
    "                           [--width N] [--max-approx-lsbs K]\n"
    "                           [--estimate-power] [--min-accuracy PCT]\n"
    "  encode-probe             [--width W] [--height H] [--frames F]\n"
    "                           [--objects K] [--sequence-seed S]\n"
    "                           [--sad-variant 0..5] [--approx-lsbs N]\n"
    "                           [--block-size B] [--search-range R]\n"
    "                           [--quant-step Q]\n"
    "  pipeline                 [--count N] pipelined pings over one\n"
    "                           multiplexed connection: N submits, one\n"
    "                           flush, responses collected in reverse\n"
    "                           order\n"
    "  hold                     [--connections N] [--hold-ms T] open N\n"
    "                           idle connections, ping through the first\n"
    "                           and last, hold them T ms (for probing\n"
    "                           server thread counts under load)\n"
    "  shutdown                 ask the server to stop (needs\n"
    "                           --allow-remote-shutdown server-side)\n"
    "\n"
    "global options:\n"
    "  --host <addr>        numeric IPv4 server address (default 127.0.0.1)\n"
    "  --port <n>           server port (required unless --ring)\n"
    "  --ring <file>        route through a cluster ring instead of one\n"
    "                       server: one host:port per line, line i = ring\n"
    "                       index i (must match the servers' --ring-file);\n"
    "                       typed commands only\n"
    "  --deadline-ms <n>    per-request deadline, 0 = none (default 0)\n"
    "  --retries <n>        retry transport failures up to n times with\n"
    "                       exponential backoff, reconnecting each time\n"
    "                       (default 0 = fail fast)\n"
    "  --retry-base-ms <n>  base backoff before the first retry; doubles\n"
    "                       per attempt, jittered (default 50)\n"
    "  --read-timeout-ms <n> per-response read deadline, 0 = wait forever\n"
    "                       (default 0)\n"
    "  -h, --help           this text\n";

using axc::cli::flag_value;
using axc::cli::require_double;
using axc::cli::require_long;
using axc::cli::usage_error;

namespace svc = axc::service;

// --- Request flags --------------------------------------------------------

/// One flag of a typed command and how it sets the request.
struct Flag {
  const char* name;
  bool takes_value;
  std::function<void(const char*)> set;
};

template <class T>
Flag number(const char* name, T& field, long min, long max) {
  return {name, true, [name, &field, min, max](const char* text) {
            field = static_cast<T>(require_long(kUsage, name, text, min, max));
          }};
}

Flag percent(const char* name, double& field) {
  return {name, true, [name, &field](const char* text) {
            field = require_double(kUsage, name, text, 0.0, 100.0);
          }};
}

Flag toggle(const char* name, bool& field, bool value) {
  return {name, false, [&field, value](const char*) { field = value; }};
}

template <class E>
Flag choice(const char* name, E& field,
            std::vector<std::pair<std::string, E>> names) {
  return {name, true, [name, &field, names](const char* text) {
            std::string valid;
            for (const auto& [word, value] : names) {
              if (word == text) {
                field = value;
                return;
              }
              valid += (valid.empty() ? "" : "|") + word;
            }
            usage_error(kUsage, std::string(name) + " must be " + valid +
                                    ", got '" + text + "'");
          }};
}

Flag cell(const char* name, axc::arith::FullAdderKind& field) {
  return number(name, field, 0, axc::arith::kFullAdderKindCount - 1);
}

Flag block(const char* name, axc::arith::Mul2x2Kind& field) {
  using axc::arith::Mul2x2Kind;
  return choice(name, field, {{"accurate", Mul2x2Kind::Accurate},
                              {"soa", Mul2x2Kind::SoA},
                              {"ours", Mul2x2Kind::Ours}});
}

Flag seed(std::uint64_t& field) {
  return number("--seed", field, 0, 1L << 62);
}

/// The command-line flags of each endpoint a user may call; an endpoint
/// without a flags() overload (cache_insert) has no command.
std::vector<Flag> flags(svc::PingRequest&) { return {}; }
std::vector<Flag> flags(svc::ShutdownRequest&) { return {}; }

std::vector<Flag> flags(svc::CharacterizeAdderRequest& r) {
  using svc::AdderFamily;
  return {choice("--family", r.family,
                 {{"gear", AdderFamily::Gear},
                  {"loa", AdderFamily::Loa},
                  {"etai", AdderFamily::Etai},
                  {"ripple", AdderFamily::Ripple}}),
          number("--width", r.width, 1, 64),
          number("--param-a", r.param_a, 0, 64),
          number("--param-b", r.param_b, 0, 64),
          cell("--cell", r.cell),
          number("--vectors", r.vectors, 1, 1 << 20),
          seed(r.seed)};
}

std::vector<Flag> flags(svc::CharacterizeMultiplierRequest& r) {
  using svc::MultiplierStructure;
  return {choice("--structure", r.structure,
                 {{"recursive", MultiplierStructure::Recursive},
                  {"wallace", MultiplierStructure::Wallace}}),
          number("--width", r.width, 2, 16),
          block("--block", r.block),
          cell("--cell", r.cell),
          number("--approx-lsbs", r.approx_lsbs, 0, 32),
          number("--vectors", r.vectors, 1, 1 << 20),
          seed(r.seed)};
}

std::vector<Flag> flags(svc::EvaluateErrorRequest& r) {
  using svc::EvalTarget;
  return {choice("--target", r.target,
                 {{"gear", EvalTarget::GearAdder},
                  {"multiplier", EvalTarget::Multiplier}}),
          number("--n", r.gear.n, 2, 64),
          number("--r", r.gear.r, 1, 64),
          number("--p", r.gear.p, 0, 64),
          number("--correction", r.correction_iterations, 0, 64),
          number("--mul-width", r.mul_width, 2, 16),
          block("--block", r.mul_block),
          cell("--cell", r.mul_cell),
          number("--approx-lsbs", r.mul_approx_lsbs, 0, 32),
          number("--max-exhaustive-bits", r.max_exhaustive_bits, 0, 24),
          number("--samples", r.samples, 1, 1 << 24),
          seed(r.seed)};
}

std::vector<Flag> flags(svc::GearDesignSpaceRequest& r) {
  return {number("--width", r.width, 2, 16),
          number("--min-p", r.min_p, 1, 16),
          toggle("--include-exact", r.include_exact, true),
          toggle("--estimate-power", r.estimate_power, true),
          percent("--min-accuracy", r.min_accuracy)};
}

std::vector<Flag> flags(svc::HeteroAdderDesignSpaceRequest& r) {
  return {number("--width", r.width, 2, 32),
          number("--block-width", r.block_width, 1, 8),
          toggle("--no-truncated", r.include_truncated, false),
          toggle("--estimate-power", r.estimate_power, true),
          percent("--min-accuracy", r.min_accuracy)};
}

std::vector<Flag> flags(svc::ArrayMulDesignSpaceRequest& r) {
  return {number("--width", r.width, 2, 16),
          number("--max-approx-columns", r.max_approx_columns, 0, 32),
          toggle("--estimate-power", r.estimate_power, true),
          percent("--min-accuracy", r.min_accuracy)};
}

std::vector<Flag> flags(svc::StaticAdderDesignSpaceRequest& r) {
  return {number("--width", r.width, 2, 32),
          number("--max-approx-lsbs", r.max_approx_lsbs, 0, 10),
          toggle("--estimate-power", r.estimate_power, true),
          percent("--min-accuracy", r.min_accuracy)};
}

std::vector<Flag> flags(svc::EncodeProbeRequest& r) {
  return {number("--width", r.width, 8, 256),
          number("--height", r.height, 8, 256),
          number("--frames", r.frames, 1, 32),
          number("--objects", r.objects, 0, 16),
          number("--sequence-seed", r.sequence_seed, 0, 1L << 62),
          number("--sad-variant", r.sad_variant, 0, 5),
          number("--approx-lsbs", r.approx_lsbs, 0, 15),
          number("--block-size", r.block_size, 4, 64),
          number("--search-range", r.search_range, 1, 16),
          number("--quant-step", r.quant_step, 1, 255)};
}

void parse_flags(const std::string& command, const std::vector<Flag>& flags,
                 int argc, char** argv, int i) {
  for (; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto flag = std::find_if(flags.begin(), flags.end(),
                                   [&](const Flag& f) { return arg == f.name; });
    if (flag == flags.end()) {
      usage_error(kUsage, "unknown " + command + " argument '" + arg + "'");
    }
    flag->set(flag->takes_value ? flag_value(kUsage, argc, argv, i) : nullptr);
  }
}

// --- Response printing ----------------------------------------------------

std::string text(bool value) { return value ? "1" : "0"; }
std::string text(double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "%.9g", value);
  return buffer;
}
std::string text(axc::designspace::HeteroSubAdder kind) {
  return axc::designspace::hetero_sub_adder_name(kind);
}
std::string text(axc::designspace::CompressorKind kind) {
  return axc::designspace::compressor_kind_name(kind);
}
std::string text(axc::designspace::StaticAdderKind kind) {
  return axc::designspace::static_adder_kind_name(kind);
}
template <class T>
  requires std::is_integral_v<T>
std::string text(T value) {
  return std::to_string(value);
}

/// Field visitor: one `name=value` line of a struct's scalar fields (a
/// list shows its length), plus one such line per list element.
struct FieldPrinter {
  std::string line;
  std::vector<std::string> rows;

  template <class T>
  FieldPrinter& operator()(const char* name, const T& value) {
    if constexpr (svc::wire::is_vector<T>::value) {
      add(name, std::to_string(value.size()));
      for (const auto& element : value) {
        FieldPrinter row;
        T::value_type::fields(element, row);
        rows.push_back(row.line);
      }
    } else {
      add(name, text(value));
    }
    return *this;
  }

  void add(const char* name, const std::string& value) {
    line += (line.empty() ? "" : " ") + std::string(name) + "=" + value;
  }
};

const char* acknowledgement(const svc::PingRequest&) { return "pong"; }
const char* acknowledgement(const svc::ShutdownRequest&) {
  return "shutdown acknowledged";
}

template <class Request, class Response>
void print(const Request& request, const Response& response) {
  if constexpr (std::is_same_v<Response, svc::OkResponse>) {
    std::printf("%s\n", acknowledgement(request));
  } else {
    FieldPrinter printer;
    Response::fields(response, printer);
    std::printf("%s\n", printer.line.c_str());
    for (const std::string& row : printer.rows) {
      std::printf("%s\n", row.c_str());
    }
  }
}

/// "gear_design_space" -> "gear-design-space".
std::string command_name(std::string_view endpoint) {
  std::string name(endpoint);
  std::replace(name.begin(), name.end(), '_', '-');
  return name;
}

/// Typed-command dispatch over the endpoint table, shared between the
/// single-server RetryingClient and the ring-routing ClusterClient.
template <class ClientT>
int run_command(ClientT& client, const std::string& command, int argc,
                char** argv, int i) {
  bool known = false;
  svc::for_each_endpoint([&](auto spec) {
    using Spec = decltype(spec);
    using Request = typename Spec::Request;
    if constexpr (requires(Request& r) { flags(r); }) {
      if (known || command != command_name(Spec::name)) return;
      known = true;
      Request request;
      parse_flags(command, flags(request), argc, argv, i);
      print(request, client.call(request));
    }
  });
  if (!known) usage_error(kUsage, "unknown command '" + command + "'");
  if (client.last_served_level() > 0) {
    std::fprintf(stderr,
                 "axc_client: note: server degraded this response "
                 "(served_level=%u)\n",
                 static_cast<unsigned>(client.last_served_level()));
  }
  if (client.retries() > 0) {
    std::fprintf(stderr, "axc_client: note: %llu retr%s\n",
                 static_cast<unsigned long long>(client.retries()),
                 client.retries() == 1 ? "y" : "ies");
  }
  if constexpr (requires { client.failovers(); }) {
    if (client.failovers() > 0) {
      std::fprintf(stderr,
                   "axc_client: note: %llu failover%s (dead or draining "
                   "nodes routed around)\n",
                   static_cast<unsigned long long>(client.failovers()),
                   client.failovers() == 1 ? "" : "s");
    }
  }
  return 0;
}

int run_pipeline(const std::string& host, std::uint16_t port,
                 svc::TcpConnectionOptions options, int argc,
                 char** argv, int i) {
  long count = 8;
  for (; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--count") {
      count = require_long(kUsage, "--count", flag_value(kUsage, argc, argv, i),
                           1, 1 << 16);
    } else {
      usage_error(kUsage, "unknown pipeline argument '" + arg + "'");
    }
  }
  options.multiplex = true;
  svc::TcpConnection connection(host, port, options);
  svc::Client client(connection);
  std::vector<std::uint32_t> ids;
  ids.reserve(static_cast<std::size_t>(count));
  for (long k = 0; k < count; ++k) {
    ids.push_back(client.submit(svc::PingRequest{}));
  }
  // Collect newest-first: exercises out-of-order completion routing.
  for (auto it = ids.rbegin(); it != ids.rend(); ++it) {
    client.collect<svc::OkResponse>(*it);
  }
  std::printf("pipelined=%ld collected=reverse ok\n", count);
  return 0;
}

/// One "host:port" per line, line i = ring index i — the same file the
/// servers were started with.
std::vector<svc::RetryingClient::ConnectionFactory>
ring_factories(const std::string& path,
               const svc::TcpConnectionOptions& options) {
  std::ifstream in(path);
  if (!in) usage_error(kUsage, "--ring: cannot open '" + path + "'");
  std::vector<svc::RetryingClient::ConnectionFactory> factories;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    const std::size_t colon = line.rfind(':');
    const long port =
        colon == std::string::npos || colon + 1 >= line.size()
            ? 0
            : std::strtol(line.c_str() + colon + 1, nullptr, 10);
    if (port < 1 || port > 65535) {
      usage_error(kUsage, "--ring: bad line '" + line +
                              "' in '" + path + "' (want host:port)");
    }
    const std::string host = line.substr(0, colon);
    factories.push_back([host, port, options] {
      return std::make_unique<svc::TcpConnection>(
          host, static_cast<std::uint16_t>(port), options);
    });
  }
  if (factories.empty()) {
    usage_error(kUsage, "--ring: '" + path + "' lists no nodes");
  }
  return factories;
}

int run_hold(const std::string& host, std::uint16_t port,
             const svc::TcpConnectionOptions& options, int argc,
             char** argv, int i) {
  long connections = 64;
  long hold_ms = 1000;
  for (; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--connections") {
      connections = require_long(kUsage, "--connections",
                                 flag_value(kUsage, argc, argv, i), 1, 4096);
    } else if (arg == "--hold-ms") {
      hold_ms = require_long(kUsage, "--hold-ms",
                             flag_value(kUsage, argc, argv, i), 0, 600000);
    } else {
      usage_error(kUsage, "unknown hold argument '" + arg + "'");
    }
  }
  std::vector<std::unique_ptr<svc::TcpConnection>> held;
  held.reserve(static_cast<std::size_t>(connections));
  for (long k = 0; k < connections; ++k) {
    held.push_back(
        std::make_unique<svc::TcpConnection>(host, port, options));
  }
  svc::Client(*held.front()).call(svc::PingRequest{});
  svc::Client(*held.back()).call(svc::PingRequest{});
  std::printf("holding=%ld for %ldms\n", connections, hold_ms);
  std::fflush(stdout);
  std::this_thread::sleep_for(std::chrono::milliseconds(hold_ms));
  svc::Client(*held.front()).call(svc::PingRequest{});
  std::printf("held=%ld ok\n", connections);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace axc;

  if (cli::wants_help(argc, argv)) {
    cli::print_usage(kUsage);
    return 0;
  }

  std::string host = "127.0.0.1";
  std::string ring_file;
  long port = -1;
  long deadline_ms = 0;
  long retries = 0;
  long retry_base_ms = 50;
  long read_timeout_ms = 0;
  int i = 1;
  for (; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--host") {
      host = flag_value(kUsage, argc, argv, i);
    } else if (arg == "--port") {
      port = require_long(kUsage, "--port", flag_value(kUsage, argc, argv, i),
                          1, 65535);
    } else if (arg == "--ring") {
      ring_file = flag_value(kUsage, argc, argv, i);
    } else if (arg == "--deadline-ms") {
      deadline_ms = require_long(kUsage, "--deadline-ms",
                                 flag_value(kUsage, argc, argv, i), 0,
                                 1L << 31);
    } else if (arg == "--retries") {
      retries = require_long(kUsage, "--retries",
                             flag_value(kUsage, argc, argv, i), 0, 100);
    } else if (arg == "--retry-base-ms") {
      retry_base_ms = require_long(kUsage, "--retry-base-ms",
                                   flag_value(kUsage, argc, argv, i), 1,
                                   60000);
    } else if (arg == "--read-timeout-ms") {
      read_timeout_ms = require_long(kUsage, "--read-timeout-ms",
                                     flag_value(kUsage, argc, argv, i), 0,
                                     1L << 31);
    } else if (!arg.empty() && arg[0] == '-') {
      usage_error(kUsage, "unknown global option '" + arg + "'");
    } else {
      break;  // first non-flag token = command
    }
  }
  if (i >= argc) usage_error(kUsage, "missing command");
  if (ring_file.empty() && port < 0) {
    usage_error(kUsage, "--port is required (or --ring)");
  }
  if (!ring_file.empty() && port >= 0) {
    usage_error(kUsage, "--port and --ring are mutually exclusive");
  }
  const std::string command = argv[i++];

  try {
    // Reconnect-on-retry: the factory dials a fresh TCP connection for
    // every attempt that follows a transport failure, so the client can
    // out-wait a server restart (scripts/service_smoke.sh exercises this).
    service::TcpConnectionOptions connection_options;
    connection_options.read_timeout_ms =
        static_cast<std::uint32_t>(read_timeout_ms);

    // Transport-level commands drive raw connections, not RetryingClient.
    if (command == "pipeline" || command == "hold") {
      if (!ring_file.empty()) {
        usage_error(kUsage, command +
                                " drives one raw connection and has no "
                                "ring mode (drop --ring)");
      }
      if (command == "pipeline") {
        return run_pipeline(host, static_cast<std::uint16_t>(port),
                            connection_options, argc, argv, i);
      }
      return run_hold(host, static_cast<std::uint16_t>(port),
                      connection_options, argc, argv, i);
    }

    service::RetryPolicy policy;
    policy.max_attempts = 1 + static_cast<unsigned>(retries);
    policy.base_backoff_ms = static_cast<std::uint32_t>(retry_base_ms);
    policy.max_backoff_ms =
        static_cast<std::uint32_t>(std::min(32 * retry_base_ms, 60000L));

    if (!ring_file.empty()) {
      if (command == "shutdown") {
        usage_error(kUsage,
                    "shutdown is a single-server command (drop --ring and "
                    "point --host/--port at one node)");
      }
      cluster::ClusterClientOptions options;
      options.retry = policy;
      options.deadline_ms = static_cast<std::uint32_t>(deadline_ms);
      cluster::ClusterClient client(
          ring_factories(ring_file, connection_options), options);
      return run_command(client, command, argc, argv, i);
    }

    service::RetryingClient client(
        [host, port, connection_options] {
          return std::make_unique<service::TcpConnection>(
              host, static_cast<std::uint16_t>(port), connection_options);
        },
        policy);
    client.set_deadline_ms(static_cast<std::uint32_t>(deadline_ms));
    return run_command(client, command, argc, argv, i);
  } catch (const service::ServiceError& e) {
    std::fprintf(stderr, "axc_client: %s: %s\n",
                 std::string(service::status_name(e.status())).c_str(),
                 e.what());
    return 3;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "axc_client: error: %s\n", e.what());
    return 1;
  }
}
