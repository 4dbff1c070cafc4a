/// The in-process ring end to end: LocalCluster wires N job servers with
/// cache replication, ClusterClient routes and fans out over them. The
/// tentpole invariant pinned here: a 4-node sweep returns byte-identical
/// responses to a 1-node run at any eval thread count — sharding changes
/// where work happens, never what comes back. Plus the failover contract:
/// killing a node costs a routing hop, not a recompute, because the
/// replica already holds the cached answer.
#include "axc/cluster/local.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <set>
#include <string>
#include <vector>

#include "axc/obs/obs.hpp"
#include "axc/service/endpoints.hpp"

namespace axc::cluster {
namespace {

using service::Bytes;

std::uint64_t counter_value(const std::string& name) {
  const auto snap = obs::snapshot();
  const auto it = snap.counters.find(name);
  return it == snap.counters.end() ? 0 : it->second;
}

/// A small mixed design-space batch touching every cacheable endpoint.
std::vector<Bytes> sweep_requests() {
  std::vector<Bytes> out;
  for (std::uint32_t a = 1; a <= 3; ++a) {  // GeAr(8, a, 2), all valid
    service::CharacterizeAdderRequest adder;
    adder.width = 8;
    adder.param_a = a;
    adder.param_b = 2;
    adder.vectors = 64;
    out.push_back(encode_request(adder));
  }
  {
    service::CharacterizeAdderRequest loa;
    loa.family = service::AdderFamily::Loa;
    loa.width = 8;
    loa.param_a = 2;
    loa.vectors = 64;
    out.push_back(encode_request(loa));
  }
  for (std::uint32_t lsbs = 0; lsbs <= 2; ++lsbs) {
    service::CharacterizeMultiplierRequest mul;
    mul.width = 4;
    mul.approx_lsbs = lsbs;
    mul.vectors = 64;
    out.push_back(encode_request(mul));
  }
  for (std::uint32_t r = 1; r <= 3; ++r) {
    service::EvaluateErrorRequest eval;
    eval.gear = {8, r, 2};
    out.push_back(encode_request(eval));
  }
  service::GearDesignSpaceRequest gear;
  gear.width = 8;
  out.push_back(encode_request(gear));
  {
    service::HeteroAdderDesignSpaceRequest hetero;
    hetero.width = 12;
    hetero.block_width = 4;
    out.push_back(encode_request(hetero));
  }
  {
    service::ArrayMulDesignSpaceRequest mul;
    mul.width = 6;
    mul.max_approx_columns = 6;
    out.push_back(encode_request(mul));
  }
  {
    service::StaticAdderDesignSpaceRequest stat;
    stat.width = 10;
    stat.max_approx_lsbs = 4;
    out.push_back(encode_request(stat));
  }
  service::EncodeProbeRequest probe;
  probe.width = 16;
  probe.height = 16;
  probe.frames = 2;
  probe.objects = 1;
  out.push_back(encode_request(probe));
  return out;
}

ClusterClientOptions quiet_client() {
  ClusterClientOptions options;
  options.retry.sleep_ms = [](std::uint32_t) {};
  return options;
}

TEST(Cluster, FourNodeSweepIsByteIdenticalToOneNodeAtAnyThreadCount) {
  const std::vector<Bytes> requests = sweep_requests();

  // The 1-node truth, computed once at eval_threads = 1.
  std::vector<Bytes> expected;
  {
    LocalClusterOptions solo;
    solo.nodes = 1;
    solo.replication = 1;
    solo.server.workers = 2;
    LocalCluster cluster(solo);
    ClusterClient client = cluster.make_client(quiet_client());
    expected = client.sweep(requests);
  }
  ASSERT_EQ(expected.size(), requests.size());
  for (const Bytes& response : expected) {
    ASSERT_EQ(service::response_status(response), service::Status::Ok);
  }

  for (const unsigned eval_threads : {1u, 2u, 8u}) {
    LocalClusterOptions quad;
    quad.nodes = 4;
    quad.replication = 2;
    quad.server.workers = 2;
    quad.server.eval_threads = eval_threads;
    LocalCluster cluster(quad);
    ClusterClient client = cluster.make_client(quiet_client());

    const std::vector<Bytes> responses = client.sweep(requests);
    ASSERT_EQ(responses.size(), requests.size());
    for (std::size_t i = 0; i < requests.size(); ++i) {
      EXPECT_EQ(responses[i], expected[i])
          << "request " << i << " at eval_threads=" << eval_threads;
    }
    EXPECT_EQ(client.failovers(), 0u);

    // The batch must actually shard: with 16 keys over 4 nodes a
    // single-owner layout would mean the routing is degenerate.
    std::set<std::size_t> owners;
    for (const Bytes& request : requests) {
      owners.insert(client.owner_of(request));
    }
    EXPECT_GT(owners.size(), 1u);
  }
}

TEST(Cluster, NewEntriesReplicateToTheKClosestNodes) {
  obs::set_enabled(true);
  obs::reset();
  LocalClusterOptions options;
  options.nodes = 4;
  options.replication = 2;
  options.server.workers = 1;
  LocalCluster cluster(options);
  ClusterClient client = cluster.make_client(quiet_client());

  service::CharacterizeAdderRequest adder;
  adder.width = 8;
  adder.param_a = 3;
  adder.param_b = 2;
  adder.vectors = 64;
  const Bytes request = encode_request(adder);
  const Bytes response = client.call_bytes(request);
  ASSERT_EQ(service::response_status(response), service::Status::Ok);

  // run_job inserts (and the listener replicates) before done() fires, so
  // by now every replica cache must hold the entry, byte for byte.
  const Bytes canonical = service::canonical_request_bytes(request);
  const std::uint64_t key = service::canonical_request_key(canonical);
  const NodeId ring_key = key_for_canonical(canonical);
  const std::vector<std::size_t> replicas =
      cluster.routing().replicas(ring_key, cluster.replication());
  ASSERT_EQ(replicas.size(), 2u);
  for (const std::size_t node : replicas) {
    const auto cached = cluster.node(node).cache().lookup(key, canonical);
    ASSERT_TRUE(cached.has_value()) << "node " << node;
    EXPECT_EQ(*cached, response) << "node " << node;
  }
  EXPECT_EQ(counter_value("service.cluster.replications"), 1u);

  // Non-replica nodes stay clean (replication is K-bounded, not gossip).
  for (std::size_t node = 0; node < cluster.size(); ++node) {
    if (std::find(replicas.begin(), replicas.end(), node) != replicas.end()) {
      continue;
    }
    EXPECT_FALSE(cluster.node(node).cache().lookup(key, canonical))
        << "node " << node;
  }
}

TEST(Cluster, NodeKillServesTheReplicaCopyWithoutRecompute) {
  obs::set_enabled(true);
  obs::reset();
  std::atomic<int> dispatched{0};
  LocalClusterOptions options;
  options.nodes = 4;
  options.replication = 2;
  options.server.workers = 1;
  options.server.dispatcher = [&dispatched](
                                  std::span<const std::uint8_t> request,
                                  unsigned degrade_level) {
    ++dispatched;
    service::DispatchOptions dispatch_options;
    dispatch_options.degrade_level = degrade_level;
    return dispatch(request, dispatch_options);
  };
  LocalCluster cluster(options);
  ClusterClient client = cluster.make_client(quiet_client());

  service::CharacterizeAdderRequest adder;
  adder.width = 8;
  adder.param_a = 2;
  adder.param_b = 2;
  adder.vectors = 64;
  const Bytes request = encode_request(adder);

  const Bytes first = client.call_bytes(request);
  ASSERT_EQ(service::response_status(first), service::Status::Ok);
  EXPECT_EQ(dispatched.load(), 1);
  EXPECT_EQ(client.failovers(), 0u);

  const std::size_t owner = client.owner_of(request);
  cluster.kill(owner);
  EXPECT_FALSE(cluster.alive(owner));

  const std::uint64_t failovers_before =
      counter_value("service.cluster.failovers");
  const Bytes second = client.call_bytes(request);
  // The replica answers from its seeded cache: byte-identical, one
  // routing hop, zero recompute.
  EXPECT_EQ(second, first);
  EXPECT_GE(client.failovers(), 1u);
  EXPECT_GE(counter_value("service.cluster.failovers"),
            failovers_before + 1);
  EXPECT_EQ(dispatched.load(), 1);
}

TEST(Cluster, SweepAfterNodeKillStaysByteIdenticalAndRecomputesNothing) {
  std::atomic<int> dispatched{0};
  LocalClusterOptions options;
  options.nodes = 4;
  options.replication = 2;
  options.server.workers = 2;
  options.server.dispatcher = [&dispatched](
                                  std::span<const std::uint8_t> request,
                                  unsigned degrade_level) {
    ++dispatched;
    service::DispatchOptions dispatch_options;
    dispatch_options.degrade_level = degrade_level;
    return dispatch(request, dispatch_options);
  };
  LocalCluster cluster(options);
  ClusterClient client = cluster.make_client(quiet_client());

  const std::vector<Bytes> requests = sweep_requests();
  const std::vector<Bytes> warm = client.sweep(requests);
  const int computed = dispatched.load();
  EXPECT_EQ(computed, static_cast<int>(requests.size()));

  // Kill the node owning the first request; every key it owned survives
  // on its replica, so the re-sweep is pure cache traffic.
  cluster.kill(client.owner_of(requests[0]));
  const std::vector<Bytes> after = client.sweep(requests);
  ASSERT_EQ(after.size(), warm.size());
  for (std::size_t i = 0; i < warm.size(); ++i) {
    EXPECT_EQ(after[i], warm[i]) << "request " << i;
  }
  EXPECT_GE(client.failovers(), 1u);
  EXPECT_EQ(dispatched.load(), computed);
}

TEST(Cluster, DesignSpaceEndpointsReplicateAndSurviveNodeKill) {
  obs::set_enabled(true);
  obs::reset();
  std::atomic<int> dispatched{0};
  LocalClusterOptions options;
  options.nodes = 4;
  options.replication = 2;
  options.server.workers = 1;
  options.server.dispatcher = [&dispatched](
                                  std::span<const std::uint8_t> request,
                                  unsigned degrade_level) {
    ++dispatched;
    service::DispatchOptions dispatch_options;
    dispatch_options.degrade_level = degrade_level;
    return dispatch(request, dispatch_options);
  };
  LocalCluster cluster(options);
  ClusterClient client = cluster.make_client(quiet_client());

  service::HeteroAdderDesignSpaceRequest hetero;
  hetero.width = 16;
  hetero.block_width = 4;
  service::ArrayMulDesignSpaceRequest mul;
  mul.width = 8;
  mul.max_approx_columns = 8;
  service::StaticAdderDesignSpaceRequest stat;
  stat.width = 16;
  stat.max_approx_lsbs = 6;
  const std::vector<Bytes> requests = {
      encode_request(hetero), encode_request(mul), encode_request(stat)};

  // Cold sweep computes each answer once and replicates it to the K
  // closest nodes on the ring.
  std::vector<Bytes> cold;
  for (const Bytes& request : requests) {
    cold.push_back(client.call_bytes(request));
    ASSERT_EQ(service::response_status(cold.back()), service::Status::Ok);
  }
  EXPECT_EQ(dispatched.load(), 3);
  EXPECT_EQ(counter_value("service.cluster.replications"), 3u);
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const Bytes canonical = service::canonical_request_bytes(requests[i]);
    const std::uint64_t key = service::canonical_request_key(canonical);
    const std::vector<std::size_t> replicas = cluster.routing().replicas(
        key_for_canonical(canonical), cluster.replication());
    ASSERT_EQ(replicas.size(), 2u) << "request " << i;
    for (const std::size_t node : replicas) {
      const auto cached = cluster.node(node).cache().lookup(key, canonical);
      ASSERT_TRUE(cached.has_value()) << "request " << i << " node " << node;
      EXPECT_EQ(*cached, cold[i]) << "request " << i << " node " << node;
    }
  }

  // Typed calls decode the same wire bytes the sweep produced.
  const auto typed = client.call(hetero);
  EXPECT_EQ(typed.points.size(),
            service::decode_hetero_adder_design_space_response(cold[0])
                .points.size());
  EXPECT_GT(client.call(mul).points.size(), 0u);
  EXPECT_GT(client.call(stat).points.size(), 0u);

  // Kill the owner of the hetero request: the replica serves the cached
  // bytes — a routing hop, not a recompute.
  const int computed = dispatched.load();
  cluster.kill(client.owner_of(requests[0]));
  const Bytes after = client.call_bytes(requests[0]);
  EXPECT_EQ(after, cold[0]);
  EXPECT_GE(client.failovers(), 1u);
  EXPECT_EQ(dispatched.load(), computed);
}

TEST(Cluster, TypedCallsRouteAndDecodeLikeARetryingClient) {
  LocalClusterOptions options;
  options.nodes = 3;  // non-power-of-two ring
  options.replication = 2;
  options.server.workers = 1;
  LocalCluster cluster(options);
  ClusterClient client = cluster.make_client(quiet_client());

  EXPECT_NO_THROW(client.call(service::PingRequest{}));

  service::CharacterizeAdderRequest adder;
  adder.width = 8;
  adder.param_a = 2;
  adder.param_b = 2;
  adder.vectors = 64;
  const service::CharacterizeResponse typed =
      client.call(adder);
  EXPECT_GT(typed.gate_count, 0u);
  EXPECT_EQ(client.last_served_level(), 0);

  service::EvaluateErrorRequest eval;
  eval.gear = {8, 2, 2};
  const service::EvaluateErrorResponse error = client.call(eval);
  EXPECT_GT(error.samples, 0u);
  EXPECT_EQ(client.retries(), 0u);
}

}  // namespace
}  // namespace axc::cluster
