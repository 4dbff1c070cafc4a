/// \file client.hpp
/// Routing-aware cluster client: canonical request hash -> owning node,
/// fan-out sweeps, failover along the replica list.
///
/// The client holds one RetryingClient per ring node (so every per-node
/// transport failure first gets the usual bounded-backoff retries) and a
/// RoutingTable over the deterministic static ring. A single call routes
/// to the key's owner; when the owner is unreachable (TransportError
/// after its retries) or draining (Status::ShuttingDown) the call fails
/// over along the XOR-distance-ranked node list — the K-replica contract
/// means the next-closest node already holds the cached answer, so a
/// node kill costs one extra hop of latency, never a recompute.
///
/// sweep() fans a whole design-space batch out: requests are grouped by
/// their current-rank node, each group ships as one pipelined
/// call_bytes_batch on its own thread, and failed groups escalate to the
/// next rank in later rounds. Results merge positionally, so a sweep
/// over N nodes returns byte-identical results to a 1-node run — the
/// responses are pure functions of canonical bytes and the merge order
/// is the caller's request order.
///
/// Instruments: service.cluster.routed (requests routed),
/// service.cluster.failovers (hops past the preferred node).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "axc/cluster/ring.hpp"
#include "axc/service/protocol.hpp"
#include "axc/service/retry.hpp"

namespace axc::cluster {

struct ClusterClientOptions {
  /// Per-node retry policy (each node gets its own jitter stream derived
  /// from jitter_seed + node index, so backoff stays deterministic but
  /// not lockstep).
  service::RetryPolicy retry{};
  /// Deadline stamped on every request; 0 = none.
  std::uint32_t deadline_ms = 0;
};

class ClusterClient : public service::TypedClient<ClusterClient> {
 public:
  /// One connection factory per ring node, in ring (stencil) order — the
  /// index in this vector IS the node's ring index.
  ClusterClient(std::vector<service::RetryingClient::ConnectionFactory> nodes,
                ClusterClientOptions options = {});

  std::size_t size() const { return nodes_.size(); }
  const RoutingTable& routing() const { return routing_; }

  /// Ring index the request would be routed to first.
  std::size_t owner_of(const service::Bytes& request) const;

  /// One fully-encoded request -> raw response bytes: route to the owner,
  /// fail over along the replica ranking on TransportError (after the
  /// node's own retries) or Status::ShuttingDown. Throws the last node's
  /// TransportError when every node is unreachable.
  service::Bytes call_bytes(const service::Bytes& request);

  /// Fans \p requests out across the ring (grouped by owning node, one
  /// pipelined batch per node per round, groups in parallel) and returns
  /// responses positionally aligned with \p requests — byte-identical to
  /// issuing them serially against a single node.
  std::vector<service::Bytes> sweep(const std::vector<service::Bytes>& requests);

  /// call(request) has RetryingClient's contract, plus routing.
  /// last_served_level() is the served level of the last successful
  /// single call; last_served_levels() the per-request levels of the last
  /// sweep() (positionally aligned).
  const std::vector<std::uint8_t>& last_served_levels() const {
    return last_served_levels_;
  }

  /// Hops past the preferred node, lifetime total (dead/draining nodes
  /// routed around). Retries *within* a node are the per-node clients'
  /// business and counted by service.retries as usual.
  std::uint64_t failovers() const { return failovers_; }
  /// Sum of per-node retry counts.
  std::uint64_t retries() const;

 private:
  /// Ranked node indices for a request (owner first, full ring depth —
  /// failover walks the whole ring rather than giving up after K).
  std::vector<std::size_t> ranked_nodes(const service::Bytes& request) const;

  RoutingTable routing_;
  std::vector<std::unique_ptr<service::RetryingClient>> nodes_;
  std::vector<std::uint8_t> last_served_levels_;
  std::uint64_t failovers_ = 0;
};

}  // namespace axc::cluster
