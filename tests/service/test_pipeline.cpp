/// Pipelined submit()/collect() semantics across every Connection flavour:
/// the base-class deferred fallback, LoopbackConnection's true-async
/// override, chaos decorators riding the fallback, and the retrying
/// client's batch call. The load-bearing contract in each case: responses
/// collected out of order are byte-identical to serial roundtrips.
#include <gtest/gtest.h>

#include <vector>

#include "axc/chaos/chaos.hpp"
#include "axc/service/retry.hpp"
#include "axc/service/server.hpp"
#include "axc/service/transport.hpp"

namespace axc::service {
namespace {

Bytes adder_request(std::uint32_t param_a) {
  CharacterizeAdderRequest req;
  req.width = 8;
  req.param_a = param_a;
  req.param_b = 2;
  return encode_request(req);
}

TEST(Pipeline, LoopbackOutOfOrderCollectMatchesSerialBytes) {
  Server server({.workers = 2});
  LoopbackConnection serial(server);
  LoopbackConnection pipelined(server);

  std::vector<Bytes> requests;
  for (std::uint32_t a = 1; a <= 4; ++a) requests.push_back(adder_request(a));

  std::vector<Bytes> expected;
  for (const Bytes& r : requests) expected.push_back(serial.roundtrip(r));

  std::vector<std::uint32_t> ids;
  for (const Bytes& r : requests) ids.push_back(pipelined.submit(r));
  // Collect in reverse: workers may complete in any order anyway; the ids
  // must route each response regardless of collection order.
  for (std::size_t i = requests.size(); i-- > 0;) {
    EXPECT_EQ(pipelined.collect(ids[i]), expected[i]) << "request " << i;
  }

  server.stop();
}

TEST(Pipeline, LoopbackCollectUnknownOrSpentIdThrows) {
  Server server({.workers = 1});
  LoopbackConnection conn(server);

  EXPECT_THROW(conn.collect(42), std::invalid_argument);
  const std::uint32_t id = conn.submit(adder_request(2));
  EXPECT_NO_THROW(conn.collect(id));
  EXPECT_THROW(conn.collect(id), std::invalid_argument);  // spent

  server.stop();
}

TEST(Pipeline, DeferredFallbackServesDecoratedConnections) {
  // FaultyConnection does not override submit()/collect(), so it gets the
  // base-class deferred path: one roundtrip per collect, every exchange
  // still flowing through the decorator (stats see them all).
  Server server({.workers = 2});
  LoopbackConnection inner(server);
  chaos::FaultyConnection faulty(inner, {});  // zero fault probabilities

  std::vector<std::uint32_t> ids;
  for (std::uint32_t a = 1; a <= 3; ++a) {
    ids.push_back(faulty.submit(adder_request(a)));
  }
  EXPECT_EQ(faulty.stats().roundtrips, 0u);  // deferred: nothing sent yet

  LoopbackConnection serial(server);
  for (std::size_t i = ids.size(); i-- > 0;) {
    EXPECT_EQ(faulty.collect(ids[i]),
              serial.roundtrip(adder_request(static_cast<std::uint32_t>(i) +
                                             1)));
  }
  EXPECT_EQ(faulty.stats().roundtrips, 3u);
  EXPECT_THROW(faulty.collect(ids[0]), std::invalid_argument);

  server.stop();
}

TEST(Pipeline, TypedClientSubmitCollectMatchesSerialCalls) {
  Server server({.workers = 2});
  LoopbackConnection serial_conn(server);
  LoopbackConnection pipe_conn(server);
  Client serial(serial_conn);
  Client pipelined(pipe_conn);

  CharacterizeAdderRequest adder;
  adder.width = 8;
  adder.param_a = 2;
  adder.param_b = 2;
  EvaluateErrorRequest eval;
  eval.gear = {8, 2, 2};

  const std::uint32_t ping_id = pipelined.submit(PingRequest{});
  const std::uint32_t adder_id = pipelined.submit(adder);
  const std::uint32_t eval_id = pipelined.submit(eval);

  // Collect out of submission order.
  const EvaluateErrorResponse eval_piped =
      pipelined.collect<EvaluateErrorResponse>(eval_id);
  const CharacterizeResponse adder_piped =
      pipelined.collect<CharacterizeResponse>(adder_id);
  EXPECT_NO_THROW(pipelined.collect<OkResponse>(ping_id));

  const CharacterizeResponse adder_serial = serial.call(adder);
  const EvaluateErrorResponse eval_serial = serial.call(eval);
  EXPECT_EQ(adder_piped.gate_count, adder_serial.gate_count);
  EXPECT_EQ(adder_piped.area_ge, adder_serial.area_ge);
  EXPECT_EQ(eval_piped.exhaustive, eval_serial.exhaustive);
  EXPECT_EQ(eval_piped.mean_error_distance, eval_serial.mean_error_distance);

  server.stop();
}

TEST(Pipeline, RetryingClientBatchMatchesSerialBytes) {
  Server server({.workers = 2});
  LoopbackConnection serial(server);

  RetryPolicy policy;
  policy.sleep_ms = [](std::uint32_t) {};
  RetryingClient client(
      [&server]() -> std::unique_ptr<Connection> {
        return std::make_unique<LoopbackConnection>(server);
      },
      policy);

  std::vector<Bytes> requests;
  for (std::uint32_t a = 1; a <= 5; ++a) requests.push_back(adder_request(a));
  const std::vector<Bytes> batch = client.call_bytes_batch(requests);

  ASSERT_EQ(batch.size(), requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    EXPECT_EQ(batch[i], serial.roundtrip(requests[i])) << "request " << i;
  }
  EXPECT_EQ(client.retries(), 0u);

  server.stop();
}

TEST(Pipeline, LoopbackRequestIdWraparoundSkipsInFlightIds) {
  // Regression: after 2^32 submits the id counter wraps; handing out an
  // id that is still awaiting collection aliased two exchanges, and the
  // duplicate's future was silently discarded (emplace on an existing
  // key is a no-op), so one collect() hung on the wrong state.
  Server server({.workers = 2});
  LoopbackConnection conn(server);
  LoopbackConnection serial(server);

  const std::uint32_t first = conn.submit(adder_request(1));
  conn.set_next_request_id(0);  // simulate the wrapped counter
  const std::uint32_t second = conn.submit(adder_request(2));
  EXPECT_NE(second, 0u);  // id 0 stays reserved
  conn.set_next_request_id(first);  // wrap straight onto an in-flight id
  const std::uint32_t third = conn.submit(adder_request(3));
  EXPECT_NE(third, first);
  EXPECT_NE(third, second);

  EXPECT_EQ(conn.collect(third), serial.roundtrip(adder_request(3)));
  EXPECT_EQ(conn.collect(first), serial.roundtrip(adder_request(1)));
  EXPECT_EQ(conn.collect(second), serial.roundtrip(adder_request(2)));
  server.stop();
}

TEST(Pipeline, DeferredFallbackRequestIdWraparoundSkipsInFlightIds) {
  // Same contract on the base-class deferred path (any undecorated
  // Connection, here a zero-fault chaos wrapper).
  Server server({.workers = 1});
  LoopbackConnection inner(server);
  LoopbackConnection serial(server);
  chaos::FaultyConnection faulty(inner, {});

  const std::uint32_t first = faulty.submit(adder_request(1));
  faulty.set_next_request_id(first);
  const std::uint32_t second = faulty.submit(adder_request(2));
  EXPECT_NE(second, first);
  EXPECT_EQ(faulty.collect(second), serial.roundtrip(adder_request(2)));
  EXPECT_EQ(faulty.collect(first), serial.roundtrip(adder_request(1)));
  server.stop();
}

TEST(Pipeline, RetryingClientBatchSurvivesChaos) {
  // A fault schedule that drops/corrupts frames and disconnects streams:
  // the batch must still deliver every response, byte-identical to a
  // clean serial exchange. This is the PR 6 "zero client-visible
  // failures" contract extended to pipelined batches.
  Server server({.workers = 2});
  LoopbackConnection inner(server);
  LoopbackConnection clean(server);

  chaos::ChaosOptions chaos_options;
  chaos_options.seed = 1234;
  chaos_options.disconnect = 0.05;
  chaos_options.drop_request = 0.05;
  chaos_options.drop_response = 0.05;
  chaos_options.corrupt_response = 0.05;
  chaos_options.sleep_ms = [](std::uint32_t) {};

  RetryPolicy policy;
  policy.max_attempts = 16;  // out-wait an unlucky fault streak
  policy.sleep_ms = [](std::uint32_t) {};
  std::uint64_t connection_count = 0;
  RetryingClient client(
      [&]() -> std::unique_ptr<Connection> {
        ++connection_count;
        chaos::ChaosOptions per_connection = chaos_options;
        per_connection.seed = chaos_options.seed + connection_count;
        struct Owned final : Connection {
          Owned(Connection& inner, const chaos::ChaosOptions& options)
              : faulty(inner, options) {}
          Bytes roundtrip(std::span<const std::uint8_t> request) override {
            return faulty.roundtrip(request);
          }
          chaos::FaultyConnection faulty;
        };
        return std::make_unique<Owned>(inner, per_connection);
      },
      policy);

  std::vector<Bytes> requests;
  for (std::uint32_t a = 1; a <= 8; ++a) requests.push_back(adder_request(a));
  const std::vector<Bytes> batch = client.call_bytes_batch(requests);

  ASSERT_EQ(batch.size(), requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    EXPECT_EQ(batch[i], clean.roundtrip(requests[i])) << "request " << i;
  }

  server.stop();
}

}  // namespace
}  // namespace axc::service
