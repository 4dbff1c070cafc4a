/// Example: the axc design-space service as a long-running TCP server.
///
/// Serves the eight characterization/evaluation endpoints (plus ping and,
/// when enabled, remote shutdown) over the framed wire protocol, with a
/// bounded job queue, worker pool and sharded response cache. On graceful
/// shutdown — SIGINT/SIGTERM or a client Shutdown request with
/// --allow-remote-shutdown — in-flight jobs drain and an axc::obs run
/// report (per-endpoint request counters, queue depth, cache hit rate,
/// rejection counters) is written.
///
/// With --ring-file/--ring-index the process becomes one node of a
/// consistent-hash ring (see DESIGN.md §12): it accepts CacheInsert
/// frames from peers and forwards every *new* full-fidelity cache entry
/// it computes to the other XOR-closest replica nodes, so a killed node's
/// answers survive on its replicas.
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "axc/cluster/node_id.hpp"
#include "axc/cluster/ring.hpp"
#include "axc/obs/obs.hpp"
#include "axc/obs/report.hpp"
#include "axc/service/protocol.hpp"
#include "axc/service/reactor.hpp"
#include "axc/service/server.hpp"
#include "axc/service/tcp.hpp"
#include "cli_util.hpp"

namespace {

constexpr const char* kUsage =
    "usage: axc_server [options]\n"
    "\n"
    "Serve the axc design-space endpoints (characterize_adder,\n"
    "characterize_multiplier, evaluate_error, gear_design_space,\n"
    "hetero_adder_design_space, array_mul_design_space,\n"
    "static_adder_design_space, encode_probe, ping) over TCP through one\n"
    "epoll reactor thread; legacy and multiplexed clients may share it.\n"
    "\n"
    "options:\n"
    "  --port <n>              TCP port, 0 = ephemeral (default 0)\n"
    "  --bind <addr>           numeric IPv4 bind address (default\n"
    "                          127.0.0.1)\n"
    "  --workers <n>           worker threads, 0 = hardware (default 0)\n"
    "  --queue <k>             pending-job bound; excess requests get an\n"
    "                          `overloaded` response (default 64)\n"
    "  --cache <n>             response-cache entries, 0 disables\n"
    "                          (default 1024)\n"
    "  --eval-threads <n>      threads inside one job (default 1;\n"
    "                          results are identical for any value)\n"
    "  --allow-remote-shutdown honour client Shutdown requests\n"
    "  --ring-file <path>      join a cluster ring: one host:port per\n"
    "                          line, line i = ring index i (read lazily,\n"
    "                          so nodes on ephemeral ports can start\n"
    "                          before the file exists); implies accepting\n"
    "                          CacheInsert frames from peers\n"
    "  --ring-index <i>        this node's line in the ring file\n"
    "                          (required with --ring-file)\n"
    "  --replication <k>       cache entries live on the k XOR-closest\n"
    "                          nodes (default 2)\n"
    "  --port-file <path>      write the bound port (for scripts that\n"
    "                          start on an ephemeral port)\n"
    "  --report <path>         obs run report on shutdown, '-' = none\n"
    "                          (default REPORT_axc_server.json)\n"
    "  -h, --help              this text\n";

/// Forwards new full-fidelity cache entries to the other replica nodes
/// of the ring as Endpoint::CacheInsert frames. Best effort by design: a
/// dead or not-yet-started peer costs a counter bump
/// (service.cluster.replication_failures), never a failed request — the
/// computing node already answered its client from its own cache.
///
/// The ring file is read lazily on the first insert (and re-tried on
/// every insert until it parses) because nodes on ephemeral ports must
/// start before the launcher can know every port and write the file.
class RingReplicator {
 public:
  RingReplicator(std::string ring_file, std::size_t self_index,
                 std::size_t replication)
      : ring_file_(std::move(ring_file)),
        self_(self_index),
        replication_(replication) {}

  /// Called from the owning Server's insert listener (worker threads).
  /// Serialized under one mutex: replication throughput is not what the
  /// example optimizes for, and one outbound connection per peer is
  /// simplest to reason about.
  void replicate(std::span<const std::uint8_t> canonical,
                 const axc::service::Bytes& response) {
    static axc::obs::Counter& sent =
        axc::obs::counter("service.cluster.replications");
    static axc::obs::Counter& failed =
        axc::obs::counter("service.cluster.replication_failures");
    const std::lock_guard<std::mutex> lock(mutex_);
    if (!routing_ && !load()) {
      failed.add();
      return;
    }
    axc::service::CacheInsertRequest insert;
    insert.canonical.assign(canonical.begin(), canonical.end());
    insert.response = response;
    const axc::service::Bytes frame = encode_request(insert);
    const axc::cluster::NodeId key = axc::cluster::key_for_canonical(canonical);
    for (const std::size_t peer : routing_->replicas(key, replication_)) {
      if (peer == self_) continue;
      if (send_to(peer, frame)) {
        sent.add();
      } else {
        failed.add();
      }
    }
  }

 private:
  bool load() {
    std::ifstream in(ring_file_);
    if (!in) return false;
    std::vector<std::pair<std::string, std::uint16_t>> peers;
    std::string line;
    while (std::getline(in, line)) {
      if (line.empty()) continue;
      const std::size_t colon = line.rfind(':');
      if (colon == std::string::npos || colon + 1 >= line.size()) return false;
      const long port = std::strtol(line.c_str() + colon + 1, nullptr, 10);
      if (port < 1 || port > 65535) return false;
      peers.emplace_back(line.substr(0, colon),
                         static_cast<std::uint16_t>(port));
    }
    if (peers.empty() || self_ >= peers.size()) return false;
    peers_ = std::move(peers);
    conns_.clear();
    conns_.resize(peers_.size());
    routing_.emplace(peers_.size());
    return true;
  }

  bool send_to(std::size_t peer, const axc::service::Bytes& frame) {
    try {
      if (!conns_[peer]) {
        conns_[peer] = std::make_unique<axc::service::TcpConnection>(
            peers_[peer].first, peers_[peer].second);
      }
      const axc::service::Bytes response = conns_[peer]->roundtrip(frame);
      return axc::service::response_status(response) ==
             axc::service::Status::Ok;
    } catch (const std::exception&) {
      conns_[peer].reset();  // reconnect on the next insert
      return false;
    }
  }

  std::string ring_file_;
  std::size_t self_;
  std::size_t replication_;
  std::mutex mutex_;
  std::optional<axc::cluster::RoutingTable> routing_;
  std::vector<std::pair<std::string, std::uint16_t>> peers_;
  std::vector<std::unique_ptr<axc::service::TcpConnection>> conns_;
};

axc::service::ReactorServer* g_reactor_server = nullptr;

void handle_signal(int) {
  // Flip the reactor's stop flag and write its wakeup eventfd; the
  // blocked epoll_wait returns immediately, drains connections and wakes
  // wait(). Async-signal-safe: an atomic store plus one write(2).
  if (g_reactor_server != nullptr) g_reactor_server->request_stop();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace axc;
  using cli::flag_value;
  using cli::require_long;

  if (cli::wants_help(argc, argv)) {
    cli::print_usage(kUsage);
    return 0;
  }

  service::ServerOptions server_options;
  service::ReactorServerOptions reactor_options;
  std::string port_file;
  std::string report_path = "REPORT_axc_server.json";
  std::string ring_file;
  long ring_index = -1;
  long replication = 2;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--port") {
      reactor_options.port = static_cast<std::uint16_t>(
          require_long(kUsage, "--port", flag_value(kUsage, argc, argv, i),
                       0, 65535));
    } else if (arg == "--bind") {
      reactor_options.bind_address = flag_value(kUsage, argc, argv, i);
    } else if (arg == "--workers") {
      server_options.workers = static_cast<unsigned>(require_long(
          kUsage, "--workers", flag_value(kUsage, argc, argv, i), 0, 1024));
    } else if (arg == "--queue") {
      server_options.queue_capacity = static_cast<std::size_t>(
          require_long(kUsage, "--queue", flag_value(kUsage, argc, argv, i),
                       1, 1 << 20));
    } else if (arg == "--cache") {
      server_options.cache_capacity = static_cast<std::size_t>(
          require_long(kUsage, "--cache", flag_value(kUsage, argc, argv, i),
                       0, 1 << 24));
    } else if (arg == "--eval-threads") {
      server_options.eval_threads = static_cast<unsigned>(require_long(
          kUsage, "--eval-threads", flag_value(kUsage, argc, argv, i), 1,
          1024));
    } else if (arg == "--allow-remote-shutdown") {
      reactor_options.allow_remote_shutdown = true;
    } else if (arg == "--ring-file") {
      ring_file = flag_value(kUsage, argc, argv, i);
    } else if (arg == "--ring-index") {
      ring_index = require_long(kUsage, "--ring-index",
                                flag_value(kUsage, argc, argv, i), 0, 4095);
    } else if (arg == "--replication") {
      replication = require_long(kUsage, "--replication",
                                 flag_value(kUsage, argc, argv, i), 1, 64);
    } else if (arg == "--port-file") {
      port_file = flag_value(kUsage, argc, argv, i);
    } else if (arg == "--report") {
      report_path = flag_value(kUsage, argc, argv, i);
    } else {
      cli::usage_error(kUsage, "unknown argument '" + arg + "'");
    }
  }

  if (!ring_file.empty() && ring_index < 0) {
    cli::usage_error(kUsage, "--ring-file requires --ring-index");
  }
  if (ring_file.empty() && ring_index >= 0) {
    cli::usage_error(kUsage, "--ring-index requires --ring-file");
  }
  // Ring nodes trust their peers' replication frames (the frames are
  // still validated: well-formed canonical bytes, cacheable endpoint,
  // full-fidelity Ok response — see Server::handle_cache_insert).
  server_options.accept_cache_inserts = !ring_file.empty();

  try {
    // Declared before the Server so it outlives the worker threads that
    // call into it through the insert listener.
    std::optional<RingReplicator> replicator;
    service::Server server(server_options);
    if (!ring_file.empty()) {
      replicator.emplace(ring_file, static_cast<std::size_t>(ring_index),
                         static_cast<std::size_t>(replication));
      server.cache().set_insert_listener(
          [&replicator](std::uint64_t /*key*/,
                        std::span<const std::uint8_t> canonical,
                        const service::Bytes& response) {
            replicator->replicate(canonical, response);
          });
    }
    service::ReactorServer reactor(server, reactor_options);
    g_reactor_server = &reactor;
    const std::uint16_t bound_port = reactor.port();
    std::signal(SIGINT, handle_signal);
    std::signal(SIGTERM, handle_signal);

    std::printf("axc_server: listening on %s:%u (%u workers, queue %zu, "
                "cache %zu)\n",
                reactor_options.bind_address.c_str(), bound_port,
                server.options().workers,
                server.options().queue_capacity,
                server.options().cache_capacity);
    if (!ring_file.empty()) {
      std::printf("axc_server: ring node %ld (file %s, replication %ld)\n",
                  ring_index, ring_file.c_str(), replication);
    }
    std::fflush(stdout);
    if (!port_file.empty()) {
      std::ofstream out(port_file);
      out << bound_port << "\n";
    }

    // Until SIGINT/SIGTERM or a remote Shutdown request.
    reactor.wait();
    g_reactor_server = nullptr;
    server.stop();    // drain queued jobs, join workers

    std::printf("axc_server: drained and stopped\n");
    if (report_path != "-") {
      obs::write_report(report_path);
      std::printf("axc_server: obs run report -> %s\n", report_path.c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "axc_server: fatal: %s\n", e.what());
    return 1;
  }
  return 0;
}
