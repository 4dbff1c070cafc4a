#include "axc/service/retry.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "axc/chaos/chaos.hpp"
#include "axc/obs/obs.hpp"
#include "axc/service/protocol.hpp"
#include "axc/service/server.hpp"
#include "axc/service/transport.hpp"

namespace axc::service {
namespace {

class RetryTest : public ::testing::Test {
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

/// Shared across factory-made connections, like a flaky network is shared
/// across reconnect attempts.
struct FlakyState {
  int remaining_failures = 0;
  TransportError::Kind kind = TransportError::Kind::BrokenStream;
};

/// Fails the next `remaining_failures` roundtrips, then delegates.
class FlakyConnection final : public Connection {
 public:
  FlakyConnection(Connection& inner, FlakyState& state)
      : inner_(inner), state_(state) {}

  Bytes roundtrip(std::span<const std::uint8_t> request) override {
    if (state_.remaining_failures > 0) {
      --state_.remaining_failures;
      throw TransportError(state_.kind, "flaky network");
    }
    return inner_.roundtrip(request);
  }

 private:
  Connection& inner_;
  FlakyState& state_;
};

/// Replays a canned response script; repeats the last entry when drained.
class ScriptedConnection final : public Connection {
 public:
  explicit ScriptedConnection(std::vector<Bytes> script)
      : script_(std::move(script)) {}

  Bytes roundtrip(std::span<const std::uint8_t>) override {
    const std::size_t i = std::min(index_, script_.size() - 1);
    ++index_;
    return script_[i];
  }

  std::size_t calls() const { return index_; }

 private:
  std::vector<Bytes> script_;
  std::size_t index_ = 0;
};

TEST_F(RetryTest, SucceedsAfterTransportFailuresAndCountsBackoff) {
  Server server(ServerOptions{});
  LoopbackConnection inner(server);
  FlakyState state;
  state.remaining_failures = 2;

  std::vector<std::uint32_t> slept;
  RetryPolicy policy;
  policy.max_attempts = 4;
  policy.base_backoff_ms = 4;
  policy.max_backoff_ms = 64;
  policy.sleep_ms = [&](std::uint32_t ms) { slept.push_back(ms); };
  RetryingClient client(
      [&] { return std::make_unique<FlakyConnection>(inner, state); }, policy);

  EXPECT_NO_THROW(client.call(PingRequest{}));
  EXPECT_EQ(client.retries(), 2u);
  EXPECT_EQ(client.reconnects(), 2u);  // each failed stream was dropped
  ASSERT_EQ(slept.size(), 2u);
  // Backoff k draws from [d/2, d], d = min(max, base << k).
  EXPECT_GE(slept[0], 2u);
  EXPECT_LE(slept[0], 4u);
  EXPECT_GE(slept[1], 4u);
  EXPECT_LE(slept[1], 8u);
  EXPECT_EQ(client.backoff_total_ms(),
            static_cast<std::uint64_t>(slept[0]) + slept[1]);
  EXPECT_EQ(counter_value("service.retries"), 2u);
  server.stop();
}

TEST_F(RetryTest, BackoffScheduleIsDeterministicPerSeed) {
  Server server(ServerOptions{});
  LoopbackConnection inner(server);

  const auto run = [&](std::uint64_t seed) {
    FlakyState state;
    state.remaining_failures = 5;
    std::vector<std::uint32_t> slept;
    RetryPolicy policy;
    policy.max_attempts = 8;
    policy.base_backoff_ms = 2;
    policy.max_backoff_ms = 16;
    policy.jitter_seed = seed;
    policy.sleep_ms = [&](std::uint32_t ms) { slept.push_back(ms); };
    RetryingClient client(
        [&] { return std::make_unique<FlakyConnection>(inner, state); },
        policy);
    client.call(PingRequest{});
    return slept;
  };

  const std::vector<std::uint32_t> first = run(42);
  const std::vector<std::uint32_t> second = run(42);
  EXPECT_EQ(first, second);
  ASSERT_EQ(first.size(), 5u);
  // Capped growth: d = min(16, 2 << k) -> 2, 4, 8, 16, 16.
  EXPECT_LE(first[3], 16u);
  EXPECT_GE(first[4], 8u);
  EXPECT_LE(first[4], 16u);
  server.stop();
}

TEST_F(RetryTest, ExhaustedAttemptsSurfaceTheLastTransportError) {
  FlakyState state;
  state.remaining_failures = 1000;
  state.kind = TransportError::Kind::Timeout;
  Server server(ServerOptions{});
  LoopbackConnection inner(server);
  RetryPolicy policy;
  policy.max_attempts = 3;
  policy.sleep_ms = [](std::uint32_t) {};
  RetryingClient client(
      [&] { return std::make_unique<FlakyConnection>(inner, state); }, policy);

  try {
    client.call(PingRequest{});
    FAIL() << "exhausted retries must rethrow";
  } catch (const TransportError& error) {
    EXPECT_EQ(error.kind(), TransportError::Kind::Timeout);
  }
  EXPECT_EQ(client.retries(), 2u);  // 3 attempts = 2 retries
  server.stop();
}

TEST_F(RetryTest, FactoryFailuresCountAsAttempts) {
  // A client pointed at a dead server: every factory call throws Connect.
  RetryPolicy policy;
  policy.max_attempts = 3;
  policy.sleep_ms = [](std::uint32_t) {};
  int factory_calls = 0;
  RetryingClient client(
      [&]() -> std::unique_ptr<Connection> {
        ++factory_calls;
        throw TransportError(TransportError::Kind::Connect,
                             "connection refused");
      },
      policy);

  EXPECT_THROW(client.call(PingRequest{}), TransportError);
  EXPECT_EQ(factory_calls, 3);
}

TEST_F(RetryTest, OverloadedIsRetriedOnTheSameConnection) {
  std::vector<Bytes> script;
  script.push_back(encode_error_response(Status::Overloaded, "queue full"));
  script.push_back(encode_error_response(Status::Overloaded, "queue full"));
  script.push_back(encode_ok_response());
  auto owned = std::make_unique<ScriptedConnection>(std::move(script));
  ScriptedConnection* scripted = owned.get();

  RetryPolicy policy;
  policy.sleep_ms = [](std::uint32_t) {};
  bool handed_out = false;
  RetryingClient client(
      [&]() -> std::unique_ptr<Connection> {
        EXPECT_FALSE(handed_out) << "Overloaded must not reconnect";
        handed_out = true;
        return std::move(owned);
      },
      policy);

  EXPECT_NO_THROW(client.call(PingRequest{}));
  EXPECT_EQ(scripted->calls(), 3u);
  EXPECT_EQ(client.retries(), 2u);
  EXPECT_EQ(client.reconnects(), 0u);
}

TEST_F(RetryTest, OverloadedSurfacesWhenRetryDisabled) {
  std::vector<Bytes> script;
  script.push_back(encode_error_response(Status::Overloaded, "queue full"));
  RetryPolicy policy;
  policy.retry_overloaded = false;
  policy.sleep_ms = [](std::uint32_t) {};
  RetryingClient client(
      [&] {
        return std::make_unique<ScriptedConnection>(script);
      },
      policy);

  try {
    client.call(PingRequest{});
    FAIL() << "Overloaded must surface as ServiceError";
  } catch (const ServiceError& error) {
    EXPECT_EQ(error.status(), Status::Overloaded);
  }
  EXPECT_EQ(client.retries(), 0u);
}

TEST_F(RetryTest, BadRequestIsNotRetriedByDefault) {
  std::vector<Bytes> script;
  script.push_back(encode_error_response(Status::BadRequest, "malformed"));
  script.push_back(encode_ok_response());
  RetryPolicy policy;
  policy.sleep_ms = [](std::uint32_t) {};
  RetryingClient client(
      [&] { return std::make_unique<ScriptedConnection>(script); }, policy);

  EXPECT_THROW(client.call(PingRequest{}), ServiceError);
  EXPECT_EQ(client.retries(), 0u);

  // Chaos harnesses that corrupt requests in flight opt in.
  RetryPolicy lenient = policy;
  lenient.retry_bad_request = true;
  RetryingClient forgiving(
      [&] { return std::make_unique<ScriptedConnection>(script); }, lenient);
  EXPECT_NO_THROW(forgiving.call(PingRequest{}));
  EXPECT_EQ(forgiving.retries(), 1u);
}

TEST_F(RetryTest, UnparseableResponseIsTreatedAsCorruptTransport) {
  // One scripted stream shared across reconnects, so the garbage frame is
  // consumed once and the retry lands on the Ok entry.
  auto shared = std::make_shared<ScriptedConnection>(
      std::vector<Bytes>{Bytes{0xFF, 0x00}, encode_ok_response()});
  class Delegate final : public Connection {
   public:
    explicit Delegate(std::shared_ptr<ScriptedConnection> target)
        : target_(std::move(target)) {}
    Bytes roundtrip(std::span<const std::uint8_t> request) override {
      return target_->roundtrip(request);
    }

   private:
    std::shared_ptr<ScriptedConnection> target_;
  };

  RetryPolicy policy;
  policy.sleep_ms = [](std::uint32_t) {};
  RetryingClient client([&] { return std::make_unique<Delegate>(shared); },
                        policy);

  EXPECT_NO_THROW(client.call(PingRequest{}));
  EXPECT_EQ(client.retries(), 1u);
  EXPECT_EQ(client.reconnects(), 1u);  // corrupt frame killed the stream
  EXPECT_EQ(shared->calls(), 2u);
}

TEST_F(RetryTest, ChaosRoundTripEndToEndWithZeroClientVisibleFailures) {
  Server server(ServerOptions{});
  LoopbackConnection loopback(server);

  chaos::ChaosOptions chaos;
  chaos.seed = 31337;
  chaos.delay = 0.02;
  chaos.disconnect = 0.03;
  chaos.drop_request = 0.03;
  chaos.corrupt_request = 0.03;
  chaos.drop_response = 0.03;
  chaos.corrupt_response = 0.03;
  chaos.sleep_ms = [](std::uint32_t) {};

  RetryPolicy policy;
  policy.max_attempts = 10;
  policy.retry_bad_request = true;  // corrupted requests parse as BadRequest
  policy.sleep_ms = [](std::uint32_t) {};

  std::uint64_t connection_counter = 0;
  std::uint64_t total_faults = 0;
  RetryingClient client(
      [&]() -> std::unique_ptr<Connection> {
        // Fresh seeded decorator per (re)connect, like a fresh socket.
        chaos::ChaosOptions per_connection = chaos;
        per_connection.seed = chaos.seed + (++connection_counter);
        struct Tracked final : Connection {
          Tracked(Connection& inner, const chaos::ChaosOptions& options,
                  std::uint64_t& sink)
              : faulty(inner, options), sink_(sink) {}
          ~Tracked() override { sink_ += faulty.stats().faults(); }
          Bytes roundtrip(std::span<const std::uint8_t> request) override {
            return faulty.roundtrip(request);
          }
          chaos::FaultyConnection faulty;
          std::uint64_t& sink_;
        };
        return std::make_unique<Tracked>(loopback, per_connection,
                                         total_faults);
      },
      policy);

  // Mixed workload: every call must succeed despite the fault schedule.
  for (int i = 0; i < 100; ++i) {
    EXPECT_NO_THROW(client.call(PingRequest{})) << "call " << i;
  }
  CharacterizeAdderRequest characterize;
  characterize.vectors = 128;
  EXPECT_NO_THROW((void)client.call(characterize));

  EXPECT_GT(total_faults, 0u) << "the schedule must actually inject faults";
  EXPECT_GT(client.retries(), 0u);
  EXPECT_EQ(counter_value("service.retries"), client.retries());
  server.stop();
}

TEST_F(RetryTest, BatchSurfacesPerRequestServedLevels) {
  // Regression: call_bytes_batch used to leave last_served_level() at
  // whichever response happened to be collected LAST, hiding a degraded
  // answer anywhere else in the batch. The per-request view plus the
  // max-over-batch scalar make degradation visible wherever it lands.
  ServerOptions options;
  options.workers = 1;  // FIFO queue: request i meets levels[i]
  const std::vector<std::uint8_t> levels = {0, 3, 1};
  std::size_t next = 0;
  options.dispatcher = [&levels, &next](std::span<const std::uint8_t>,
                                        unsigned) {
    Bytes response = encode_ok_response();
    set_response_level(response, levels[next++ % levels.size()]);
    return response;
  };
  Server server(options);

  RetryPolicy policy;
  policy.sleep_ms = [](std::uint32_t) {};
  RetryingClient client(
      [&server]() -> std::unique_ptr<Connection> {
        return std::make_unique<LoopbackConnection>(server);
      },
      policy);

  std::vector<Bytes> requests;
  for (std::uint32_t a = 1; a <= 3; ++a) {
    CharacterizeAdderRequest req;
    req.width = 8;
    req.param_a = a;
    req.param_b = 2;
    requests.push_back(encode_request(req));
  }
  const std::vector<Bytes> responses = client.call_bytes_batch(requests);
  ASSERT_EQ(responses.size(), 3u);

  EXPECT_EQ(client.last_served_levels(), levels);
  // The worst rung across the batch, not the final response's level (1).
  EXPECT_EQ(client.last_served_level(), 3);
  server.stop();
}

}  // namespace
}  // namespace axc::service
