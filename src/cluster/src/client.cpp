#include "axc/cluster/client.hpp"

#include <exception>
#include <map>
#include <thread>
#include <utility>

#include "axc/common/require.hpp"
#include "axc/obs/obs.hpp"

namespace axc::cluster {

using service::Bytes;
using service::Status;
using service::TransportError;

namespace {

struct ClusterInstruments {
  obs::Counter& routed = obs::counter("service.cluster.routed");
  obs::Counter& failovers = obs::counter("service.cluster.failovers");
};

ClusterInstruments& instruments() {
  static ClusterInstruments instance;
  return instance;
}

}  // namespace

ClusterClient::ClusterClient(
    std::vector<service::RetryingClient::ConnectionFactory> nodes,
    ClusterClientOptions options)
    : routing_(nodes.size()) {
  require(!nodes.empty(), "ClusterClient: need at least one node");
  set_deadline_ms(options.deadline_ms);
  nodes_.reserve(nodes.size());
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    service::RetryPolicy policy = options.retry;
    // Distinct deterministic jitter stream per node: same-seeded clients
    // back off identically, but the ring's nodes never back off lockstep.
    policy.jitter_seed += i;
    nodes_.push_back(std::make_unique<service::RetryingClient>(
        std::move(nodes[i]), policy));
  }
}

std::vector<std::size_t> ClusterClient::ranked_nodes(
    const Bytes& request) const {
  const Bytes canonical = service::canonical_request_bytes(request);
  const NodeId key = key_for_canonical(canonical);
  return routing_.replicas(key, routing_.size());
}

std::size_t ClusterClient::owner_of(const Bytes& request) const {
  const Bytes canonical = service::canonical_request_bytes(request);
  return routing_.owner_index(key_for_canonical(canonical));
}

Bytes ClusterClient::call_bytes(const Bytes& request) {
  ClusterInstruments& ins = instruments();
  ins.routed.add();
  const std::vector<std::size_t> ranked = ranked_nodes(request);
  Bytes draining_response;
  std::exception_ptr last_error;
  for (std::size_t rank = 0; rank < ranked.size(); ++rank) {
    service::RetryingClient& node = *nodes_[ranked[rank]];
    node.set_deadline_ms(deadline_ms_);
    try {
      Bytes response = node.call_bytes(request);
      if (service::response_status(response) == Status::ShuttingDown) {
        // The node is draining, not dead: route around it.
        draining_response = std::move(response);
      } else {
        last_served_level_ = node.last_served_level();
        return response;
      }
    } catch (const TransportError&) {
      last_error = std::current_exception();
    }
    failovers_ += 1;
    ins.failovers.add();
  }
  // Every node was unreachable or draining; surface the most honest
  // failure we saw.
  if (!draining_response.empty()) return draining_response;
  if (last_error) std::rethrow_exception(last_error);
  throw TransportError(TransportError::Kind::Connect, "empty ring");
}

std::vector<Bytes> ClusterClient::sweep(const std::vector<Bytes>& requests) {
  ClusterInstruments& ins = instruments();
  const std::size_t n = requests.size();
  std::vector<Bytes> responses(n);
  last_served_levels_.assign(n, 0);
  if (n == 0) return responses;
  ins.routed.add(n);

  std::vector<std::vector<std::size_t>> ranked(n);
  for (std::size_t i = 0; i < n; ++i) ranked[i] = ranked_nodes(requests[i]);
  std::vector<std::size_t> rank(n, 0);
  std::vector<Bytes> draining(n);  ///< last ShuttingDown answer per request
  std::exception_ptr last_error;

  std::vector<std::size_t> pending(n);
  for (std::size_t i = 0; i < n; ++i) pending[i] = i;

  while (!pending.empty()) {
    // Group the still-pending requests by their current-rank node. A
    // std::map keeps group order deterministic (ring index order).
    std::map<std::size_t, std::vector<std::size_t>> groups;
    std::vector<std::size_t> exhausted;
    for (const std::size_t i : pending) {
      if (rank[i] >= ranked[i].size()) {
        exhausted.push_back(i);
        continue;
      }
      groups[ranked[i][rank[i]]].push_back(i);
    }
    for (const std::size_t i : exhausted) {
      // Whole ring unreachable or draining for this request.
      if (draining[i].empty()) {
        if (last_error) std::rethrow_exception(last_error);
        throw TransportError(TransportError::Kind::Connect,
                             "no reachable node for request");
      }
      responses[i] = std::move(draining[i]);
    }

    struct GroupResult {
      std::vector<std::size_t> escalate;  ///< request indices to re-rank
      std::exception_ptr error;
    };
    std::vector<GroupResult> results(groups.size());
    std::vector<std::thread> threads;
    threads.reserve(groups.size());
    std::size_t slot = 0;
    // One pipelined batch per node, node groups in parallel. Each node's
    // RetryingClient is touched by exactly one thread per round.
    for (auto& [node_index, members] : groups) {
      GroupResult& result = results[slot++];
      threads.emplace_back([this, node_index, &members = members, &result,
                            &requests, &responses, &draining] {
        service::RetryingClient& node = *nodes_[node_index];
        node.set_deadline_ms(deadline_ms_);
        try {
          std::vector<Bytes> batch;
          batch.reserve(members.size());
          for (const std::size_t i : members) batch.push_back(requests[i]);
          std::vector<Bytes> out = node.call_bytes_batch(batch);
          const std::vector<std::uint8_t>& levels =
              node.last_served_levels();
          for (std::size_t j = 0; j < members.size(); ++j) {
            const std::size_t i = members[j];
            if (service::response_status(out[j]) == Status::ShuttingDown) {
              draining[i] = std::move(out[j]);
              result.escalate.push_back(i);
              continue;
            }
            responses[i] = std::move(out[j]);
            last_served_levels_[i] = j < levels.size() ? levels[j] : 0;
          }
        } catch (const TransportError&) {
          result.error = std::current_exception();
          result.escalate = members;  // the whole group died with the node
        }
      });
    }
    for (std::thread& thread : threads) thread.join();

    std::vector<std::size_t> next;
    for (const GroupResult& result : results) {
      if (result.error) last_error = result.error;
      for (const std::size_t i : result.escalate) {
        ++rank[i];
        ++failovers_;
        ins.failovers.add();
        next.push_back(i);
      }
    }
    pending = std::move(next);
  }
  return responses;
}

std::uint64_t ClusterClient::retries() const {
  std::uint64_t total = 0;
  for (const auto& node : nodes_) total += node->retries();
  return total;
}

}  // namespace axc::cluster
