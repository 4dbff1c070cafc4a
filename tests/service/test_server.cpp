#include "axc/service/server.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <vector>

#include "axc/designspace/static_adder.hpp"
#include "axc/logic/adder_netlists.hpp"
#include "axc/logic/characterize.hpp"
#include "axc/obs/obs.hpp"
#include "axc/service/endpoints.hpp"
#include "axc/service/transport.hpp"

namespace axc::service {
namespace {

class ServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::set_enabled(true);
    obs::reset();
  }
};

std::uint64_t counter_value(const std::string& name) {
  const auto snap = obs::snapshot();
  const auto it = snap.counters.find(name);
  return it == snap.counters.end() ? 0 : it->second;
}

// A dispatcher the test can hold closed: workers block inside run_job until
// release() fires, which lets the test fill the bounded queue at will.
class GatedDispatcher {
 public:
  Dispatcher dispatcher() {
    return [this](std::span<const std::uint8_t> request,
                  unsigned degrade_level) {
      {
        std::unique_lock<std::mutex> lock(mutex_);
        ++entered_;
        entered_cv_.notify_all();
        gate_cv_.wait(lock, [this] { return open_; });
      }
      DispatchOptions options;
      options.degrade_level = degrade_level;
      return dispatch(request, options);
    };
  }
  void wait_for_entered(int n) {
    std::unique_lock<std::mutex> lock(mutex_);
    entered_cv_.wait(lock, [this, n] { return entered_ >= n; });
  }
  void release() {
    const std::lock_guard<std::mutex> lock(mutex_);
    open_ = true;
    gate_cv_.notify_all();
  }

 private:
  std::mutex mutex_;
  std::condition_variable gate_cv_;
  std::condition_variable entered_cv_;
  bool open_ = false;
  int entered_ = 0;
};

TEST_F(ServerTest, CharacterizeAdderMatchesDirectLibraryCall) {
  Server server({.workers = 2});
  LoopbackConnection connection(server);
  Client client(connection);

  CharacterizeAdderRequest req;
  req.family = AdderFamily::Loa;
  req.width = 12;
  req.param_a = 5;
  req.vectors = 256;
  req.seed = 3;
  const CharacterizeResponse got = client.call(req);

  const logic::Netlist netlist =
      logic::ripple_adder_netlist(designspace::static_adder_cells(
          designspace::StaticAdderKind::Loa, 12, 5));
  const logic::Characterization want =
      logic::characterize(netlist, std::nullopt, 256, 3);
  EXPECT_DOUBLE_EQ(got.area_ge, want.area_ge);
  EXPECT_DOUBLE_EQ(got.power_nw, want.power_nw);
  EXPECT_EQ(got.gate_count, netlist.gate_count());
}

TEST_F(ServerTest, AllEndpointsAnswerOverLoopback) {
  Server server({.workers = 2});
  LoopbackConnection connection(server);
  Client client(connection);

  const CharacterizeResponse adder =
      client.call(
          CharacterizeAdderRequest{.width = 8, .param_a = 2, .param_b = 2});
  EXPECT_GT(adder.area_ge, 0.0);
  EXPECT_GT(adder.gate_count, 0u);

  const CharacterizeResponse mul = client.call(CharacterizeMultiplierRequest{
      .width = 4, .block = arith::Mul2x2Kind::Ours, .vectors = 128});
  EXPECT_GT(mul.area_ge, 0.0);

  EvaluateErrorRequest eval;
  eval.gear = {8, 2, 2};
  const EvaluateErrorResponse stats = client.call(eval);
  EXPECT_TRUE(stats.exhaustive);  // 16 input bits <= default exhaustive cap
  EXPECT_EQ(stats.samples, 65536u);
  EXPECT_GT(stats.error_rate, 0.0);

  GearDesignSpaceRequest space;
  space.width = 8;
  const GearDesignSpaceResponse points = client.call(space);
  ASSERT_FALSE(points.points.empty());
  EXPECT_LT(points.max_accuracy_index, points.points.size());
  bool any_pareto = false;
  for (const auto& p : points.points) any_pareto |= p.on_pareto_front;
  EXPECT_TRUE(any_pareto);

  EncodeProbeRequest probe;
  probe.width = 32;
  probe.height = 32;
  probe.frames = 2;
  const EncodeProbeResponse enc = client.call(probe);
  EXPECT_GT(enc.total_bits, 0u);
  EXPECT_GT(enc.sad_calls, 0u);

  EXPECT_NO_THROW(client.call(PingRequest{}));
  EXPECT_EQ(counter_value("service.requests"), 6u);
  EXPECT_EQ(counter_value("service.ping.requests"), 1u);
  EXPECT_EQ(counter_value("service.encode_probe.requests"), 1u);
}

TEST_F(ServerTest, MalformedRequestsAnswerBadRequestSynchronously) {
  Server server({.workers = 1});

  // Garbage header.
  const Bytes garbage = {0xFF, 0xFF, 0, 0, 0, 0};
  ASSERT_EQ(response_status(server.call(garbage)), Status::BadRequest);

  // Valid header, truncated body.
  Bytes truncated = encode_request(CharacterizeAdderRequest{});
  truncated.resize(truncated.size() - 2);
  ASSERT_EQ(response_status(server.call(truncated)), Status::BadRequest);

  // Valid encoding, out-of-policy payload (width beyond the cap).
  CharacterizeAdderRequest huge;
  huge.family = AdderFamily::Loa;
  huge.width = DispatchLimits::kMaxAdderWidth + 1;
  huge.param_a = 1;
  ASSERT_EQ(response_status(server.call(encode_request(huge))),
            Status::BadRequest);

  // Shutdown is transport-level; the job server rejects it.
  ASSERT_EQ(response_status(server.call(encode_request(Endpoint::Shutdown))),
            Status::BadRequest);

  EXPECT_EQ(counter_value("service.rejected.bad_request"), 4u);
}

// The backpressure contract: queue bound K, one blocked worker; K queued
// jobs are accepted, submissions K+1.. answer Overloaded synchronously,
// and nothing hangs or is lost once the gate opens.
TEST_F(ServerTest, BoundedQueueShedsLoadExplicitly) {
  constexpr std::size_t kQueue = 3;
  GatedDispatcher gate;
  Server server({.workers = 1,
                 .queue_capacity = kQueue,
                 .cache_capacity = 0,  // every submit must reach the queue
                 .dispatcher = gate.dispatcher()});

  const Bytes ping = encode_request(Endpoint::Ping);

  std::mutex mutex;
  std::condition_variable cv;
  std::vector<Status> finished;
  const auto record = [&](Bytes response) {
    const auto status = response_status(response);
    const std::lock_guard<std::mutex> lock(mutex);
    finished.push_back(status.value_or(Status::InternalError));
    cv.notify_all();
  };

  // One job occupies the worker inside the gate...
  server.submit(ping, record);
  gate.wait_for_entered(1);
  // ...then K jobs fill the queue...
  for (std::size_t i = 0; i < kQueue; ++i) server.submit(ping, record);
  EXPECT_EQ(server.queue_depth(), kQueue);

  // ...so the next submissions must be shed, synchronously.
  std::size_t overloaded = 0;
  for (int i = 0; i < 4; ++i) {
    server.submit(ping, [&](Bytes response) {
      if (response_status(response) == Status::Overloaded) ++overloaded;
    });
  }
  EXPECT_EQ(overloaded, 4u);
  EXPECT_EQ(counter_value("service.rejected.overloaded"), 4u);

  gate.release();
  {
    std::unique_lock<std::mutex> lock(mutex);
    cv.wait(lock, [&] { return finished.size() == 1 + kQueue; });
  }
  for (const Status status : finished) EXPECT_EQ(status, Status::Ok);
  server.stop();
}

TEST_F(ServerTest, ExpiredDeadlineRejectsQueuedJob) {
  GatedDispatcher gate;
  Server server({.workers = 1,
                 .queue_capacity = 8,
                 .cache_capacity = 0,
                 .dispatcher = gate.dispatcher()});

  server.submit(encode_request(Endpoint::Ping), [](Bytes) {});
  gate.wait_for_entered(1);  // worker held; anything else sits in queue

  std::mutex mutex;
  std::condition_variable cv;
  std::optional<Status> doomed;
  server.submit(encode_request(Endpoint::Ping, /*deadline_ms=*/1),
                [&](Bytes response) {
                  const std::lock_guard<std::mutex> lock(mutex);
                  doomed = response_status(response);
                  cv.notify_all();
                });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  gate.release();

  {
    std::unique_lock<std::mutex> lock(mutex);
    cv.wait(lock, [&] { return doomed.has_value(); });
  }
  EXPECT_EQ(*doomed, Status::DeadlineExceeded);
  EXPECT_EQ(counter_value("service.rejected.deadline"), 1u);
  server.stop();
}

TEST_F(ServerTest, RepeatedRequestIsServedFromCache) {
  Server server({.workers = 2});
  CharacterizeAdderRequest req;
  req.width = 8;
  req.param_a = 2;
  req.param_b = 2;
  req.vectors = 128;

  const Bytes first = server.call(encode_request(req));
  ASSERT_EQ(response_status(first), Status::Ok);
  EXPECT_EQ(counter_value("service.cache.hits"), 0u);
  EXPECT_EQ(counter_value("service.cache.misses"), 1u);

  const Bytes second = server.call(encode_request(req));
  EXPECT_EQ(second, first);  // byte-identical replay
  EXPECT_EQ(counter_value("service.cache.hits"), 1u);

  // A different deadline is the same query: still a hit.
  const Bytes third = server.call(encode_request(req, /*deadline_ms=*/9999));
  EXPECT_EQ(third, first);
  EXPECT_EQ(counter_value("service.cache.hits"), 2u);

  // A different seed is a different query: miss.
  req.seed += 1;
  (void)server.call(encode_request(req));
  EXPECT_EQ(counter_value("service.cache.misses"), 2u);
  EXPECT_EQ(server.cache().size(), 2u);
}

// The PR 2/3 thread-invariance contract, observed end to end: the same
// request bytes produce byte-identical responses whatever the per-job
// evaluation parallelism.
TEST_F(ServerTest, ResponsesAreByteIdenticalAcrossEvalThreads) {
  EvaluateErrorRequest eval;
  eval.gear = {10, 2, 4};
  eval.correction_iterations = 1;
  EncodeProbeRequest probe;
  probe.width = 32;
  probe.height = 32;
  probe.frames = 3;
  probe.sad_variant = 3;
  probe.approx_lsbs = 4;
  const Bytes eval_wire = encode_request(eval);
  const Bytes probe_wire = encode_request(probe);

  std::vector<Bytes> eval_responses;
  std::vector<Bytes> probe_responses;
  for (const unsigned threads : {1u, 2u, 8u}) {
    // cache_capacity 0: every server must *compute* its answer.
    Server server(
        {.workers = 2, .cache_capacity = 0, .eval_threads = threads});
    eval_responses.push_back(server.call(eval_wire));
    probe_responses.push_back(server.call(probe_wire));
    ASSERT_EQ(response_status(eval_responses.back()), Status::Ok);
    ASSERT_EQ(response_status(probe_responses.back()), Status::Ok);
  }
  EXPECT_EQ(eval_responses[0], eval_responses[1]);
  EXPECT_EQ(eval_responses[0], eval_responses[2]);
  EXPECT_EQ(probe_responses[0], probe_responses[1]);
  EXPECT_EQ(probe_responses[0], probe_responses[2]);
}

TEST_F(ServerTest, StopDrainsEveryAcceptedJob) {
  GatedDispatcher gate;
  Server server({.workers = 2,
                 .queue_capacity = 16,
                 .cache_capacity = 0,
                 .dispatcher = gate.dispatcher()});

  std::atomic<int> completed{0};
  for (int i = 0; i < 10; ++i) {
    server.submit(encode_request(Endpoint::Ping), [&](Bytes response) {
      if (response_status(response) == Status::Ok) completed.fetch_add(1);
    });
  }
  gate.wait_for_entered(1);
  gate.release();
  server.stop();  // must block until all ten callbacks fired
  EXPECT_EQ(completed.load(), 10);

  // A stopped server sheds new work instead of hanging.
  ASSERT_EQ(response_status(server.call(encode_request(Endpoint::Ping))),
            Status::ShuttingDown);
  EXPECT_EQ(counter_value("service.rejected.shutting_down"), 1u);
}

TEST_F(ServerTest, RequestStopFlipsAcceptingWithoutJoining) {
  Server server({.workers = 1});
  EXPECT_FALSE(server.stopping());
  server.request_stop();
  EXPECT_TRUE(server.stopping());
  ASSERT_EQ(response_status(server.call(encode_request(Endpoint::Ping))),
            Status::ShuttingDown);
  server.stop();
}

// --- Endpoint::CacheInsert (cluster replication) --------------------------

namespace {
CacheInsertRequest valid_cache_insert() {
  // A genuine canonical/response pair harvested from a plain server, so
  // the accepting server's validation sees exactly what a replicating
  // peer would send.
  CharacterizeAdderRequest adder;
  adder.width = 8;
  adder.param_a = 2;
  adder.param_b = 2;
  const Bytes request = encode_request(adder, 500);
  Server oracle({.workers = 1});
  CacheInsertRequest insert;
  insert.canonical = canonical_request_bytes(request);
  insert.response = oracle.call(request);
  oracle.stop();
  return insert;
}
}  // namespace

TEST_F(ServerTest, CacheInsertRejectedUnlessEnabled) {
  Server server({.workers = 1});  // accept_cache_inserts defaults to false
  const Bytes response = server.call(encode_request(valid_cache_insert()));
  EXPECT_EQ(response_status(response), Status::BadRequest);
  EXPECT_EQ(counter_value("service.cluster.cache_inserts"), 0u);
  EXPECT_EQ(counter_value("service.cluster.cache_insert_rejects"), 1u);
  server.stop();
}

TEST_F(ServerTest, CacheInsertSeedsCacheAndSkipsRecompute) {
  const CacheInsertRequest insert = valid_cache_insert();

  std::atomic<int> dispatched{0};
  ServerOptions options;
  options.workers = 1;
  options.accept_cache_inserts = true;
  options.dispatcher = [&dispatched](std::span<const std::uint8_t> request,
                                     unsigned) {
    ++dispatched;
    DispatchOptions dispatch_options;
    return dispatch(request, dispatch_options);
  };
  Server server(options);

  ASSERT_EQ(response_status(server.call(encode_request(insert))),
            Status::Ok);
  EXPECT_EQ(counter_value("service.cluster.cache_inserts"), 1u);

  // The seeded entry must serve the original request verbatim, without
  // ever reaching the dispatcher. Deadline differs on purpose: canonical
  // identity strips it.
  Bytes original(insert.canonical);
  original.insert(original.begin() + 2, {0, 0, 0, 0});  // deadline = 0
  EXPECT_EQ(server.call(original), insert.response);
  EXPECT_EQ(dispatched.load(), 0);
  EXPECT_EQ(counter_value("service.cache.hits"), 1u);
  server.stop();
}

TEST_F(ServerTest, CacheInsertRejectsPoisonedEntries) {
  ServerOptions options;
  options.workers = 1;
  options.accept_cache_inserts = true;
  Server server(options);
  const CacheInsertRequest good = valid_cache_insert();

  const auto expect_rejected = [&server](const CacheInsertRequest& bad) {
    EXPECT_EQ(response_status(server.call(encode_request(bad))),
              Status::BadRequest);
  };

  CacheInsertRequest degraded = good;
  set_response_level(degraded.response, 1);  // not full fidelity
  expect_rejected(degraded);

  CacheInsertRequest error = good;
  error.response = encode_error_response(Status::InternalError, "boom");
  expect_rejected(error);

  CacheInsertRequest wrong_version = good;
  wrong_version.canonical[0] = kProtocolVersion + 1;
  expect_rejected(wrong_version);

  for (const Endpoint endpoint :
       {Endpoint::Ping, Endpoint::Shutdown, Endpoint::CacheInsert}) {
    CacheInsertRequest uncacheable = good;
    uncacheable.canonical[1] = static_cast<std::uint8_t>(endpoint);
    expect_rejected(uncacheable);
  }

  CacheInsertRequest out_of_range = good;
  out_of_range.canonical[1] = 200;  // not even an Endpoint
  expect_rejected(out_of_range);

  CacheInsertRequest empty;
  expect_rejected(empty);

  EXPECT_EQ(counter_value("service.cluster.cache_insert_rejects"), 8u);
  EXPECT_EQ(counter_value("service.cluster.cache_inserts"), 0u);
  EXPECT_EQ(server.cache().size(), 0u);
  server.stop();
}

// Replication must cover every endpoint whose answers the server caches,
// the design-space sweeps included, and nothing else.
TEST_F(ServerTest, CacheInsertAcceptedForEveryCacheableEndpoint) {
  CharacterizeAdderRequest adder;
  adder.vectors = 64;
  CharacterizeMultiplierRequest mul;
  mul.width = 4;
  mul.vectors = 64;
  EvaluateErrorRequest eval;
  eval.max_exhaustive_bits = 16;
  GearDesignSpaceRequest gear;
  gear.width = 6;
  EncodeProbeRequest probe;
  probe.width = 16;
  probe.height = 16;
  probe.frames = 2;
  HeteroAdderDesignSpaceRequest hetero;
  hetero.width = 8;
  ArrayMulDesignSpaceRequest array_mul;
  array_mul.width = 4;
  array_mul.max_approx_columns = 2;
  StaticAdderDesignSpaceRequest static_adder;
  static_adder.width = 8;
  static_adder.max_approx_lsbs = 2;
  const std::vector<Bytes> requests = {
      encode_request(adder),     encode_request(mul),
      encode_request(eval),      encode_request(gear),
      encode_request(probe),     encode_request(hetero),
      encode_request(array_mul), encode_request(static_adder)};

  std::atomic<int> dispatched{0};
  ServerOptions options;
  options.workers = 1;
  options.accept_cache_inserts = true;
  options.dispatcher = [&dispatched](std::span<const std::uint8_t> request,
                                     unsigned) {
    ++dispatched;
    return dispatch(request);
  };
  Server server(options);

  for (const Bytes& request : requests) {
    const auto endpoint = parse_request_header(request)->endpoint;
    CacheInsertRequest insert;
    insert.canonical = canonical_request_bytes(request);
    insert.response = dispatch(request);
    ASSERT_EQ(response_status(insert.response), Status::Ok)
        << endpoint_name(endpoint);
    EXPECT_EQ(response_status(server.call(encode_request(insert))),
              Status::Ok)
        << endpoint_name(endpoint);
    EXPECT_EQ(server.call(request), insert.response)
        << endpoint_name(endpoint);
  }
  EXPECT_EQ(dispatched.load(), 0) << "every answer must come from the cache";
  EXPECT_EQ(counter_value("service.cluster.cache_inserts"), requests.size());
  EXPECT_EQ(counter_value("service.cluster.cache_insert_rejects"), 0u);
  EXPECT_EQ(counter_value("service.cache.hits"), requests.size());
  server.stop();
}

}  // namespace
}  // namespace axc::service
