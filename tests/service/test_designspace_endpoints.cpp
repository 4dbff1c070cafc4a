/// The four axc::designspace endpoints (gear_design_space,
/// hetero_adder_design_space, array_mul_design_space,
/// static_adder_design_space): typed round-trips match the library sweeps
/// and their core::rank_space ranking, gear power is priced exactly as
/// characterize_adder prices the same netlist, responses are
/// byte-identical across eval thread counts, warm requests serve from the
/// ResultCache, out-of-policy requests answer BadRequest, and the degrade
/// ladder sheds the power sim visibly (served_level) without touching the
/// analytic ranking.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "axc/core/pareto.hpp"
#include "axc/designspace/explorer.hpp"
#include "axc/obs/obs.hpp"
#include "axc/service/endpoints.hpp"
#include "axc/service/server.hpp"
#include "axc/service/transport.hpp"

namespace axc::service {
namespace {

class DesignspaceEndpointsTest : public ::testing::Test {
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

TEST_F(DesignspaceEndpointsTest, GearEndpointMatchesLibrarySweep) {
  Server server({.workers = 2});
  LoopbackConnection connection(server);
  Client client(connection);

  GearDesignSpaceRequest req;
  req.width = 11;
  req.min_accuracy = 90.0;
  const GearDesignSpaceResponse got = client.call(req);

  const auto want = designspace::explore_gear_space(11, 1, false);
  const core::Ranking ranking = core::rank_space(want, 90.0);
  ASSERT_EQ(got.points.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got.points[i].r, want[i].config.r) << i;
    EXPECT_EQ(got.points[i].p, want[i].config.p) << i;
    EXPECT_DOUBLE_EQ(got.points[i].area_ge, want[i].point.area_ge) << i;
    EXPECT_DOUBLE_EQ(got.points[i].accuracy_percent,
                     want[i].point.accuracy_percent)
        << i;
    const bool on_front =
        std::find(ranking.pareto_front.begin(), ranking.pareto_front.end(),
                  i) != ranking.pareto_front.end();
    EXPECT_EQ(got.points[i].on_pareto_front, on_front) << i;
  }
  EXPECT_EQ(got.max_accuracy_index, ranking.max_accuracy_index);
  EXPECT_EQ(got.min_area_index, ranking.min_area_index);
  ASSERT_LT(got.min_area_index, got.points.size());
  EXPECT_GE(got.points[got.min_area_index].accuracy_percent, 90.0);
}

TEST_F(DesignspaceEndpointsTest, GearSweepPowerMatchesCharacterizeAdder) {
  // Every family prices power the way characterize_adder prices one
  // netlist: same calibrated model, same stimulus.
  GearDesignSpaceRequest req;
  req.width = 8;
  req.estimate_power = true;
  const auto sweep = decode_response<GearDesignSpaceResponse>(
      dispatch(encode_request(req), {}));
  ASSERT_FALSE(sweep.points.empty());
  for (const GearDesignSpacePoint& point : sweep.points) {
    CharacterizeAdderRequest single;
    single.family = AdderFamily::Gear;
    single.width = 8;
    single.param_a = point.r;
    single.param_b = point.p;
    single.vectors = designspace::kSweepPowerVectors;
    single.seed = designspace::kSweepPowerSeed;
    const auto want = decode_response<CharacterizeResponse>(
        dispatch(encode_request(single), {}));
    EXPECT_GT(point.power_nw, 0.0);
    EXPECT_DOUBLE_EQ(point.power_nw, want.power_nw)
        << "R=" << point.r << " P=" << point.p;
  }
}

TEST_F(DesignspaceEndpointsTest, HeteroEndpointMatchesLibrarySweep) {
  Server server({.workers = 2});
  LoopbackConnection connection(server);
  Client client(connection);

  HeteroAdderDesignSpaceRequest req;
  req.width = 12;
  req.block_width = 4;
  req.include_truncated = true;
  const HeteroAdderDesignSpaceResponse got =
      client.call(req);

  const auto want = designspace::explore_hetero_space(12, 4, true);
  ASSERT_EQ(got.points.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got.points[i].low_kind, want[i].low_kind) << i;
    EXPECT_EQ(got.points[i].approx_blocks, want[i].approx_blocks) << i;
    EXPECT_DOUBLE_EQ(got.points[i].area_ge, want[i].point.area_ge) << i;
    EXPECT_DOUBLE_EQ(got.points[i].accuracy_percent,
                     want[i].point.accuracy_percent)
        << i;
    EXPECT_DOUBLE_EQ(got.points[i].med, want[i].model.med) << i;
    EXPECT_EQ(got.points[i].wce, want[i].model.wce) << i;
  }
  // The all-accurate baseline is the unique 100%-accuracy point.
  EXPECT_EQ(got.max_accuracy_index, 0u);
  ASSERT_LT(got.max_accuracy_index, got.points.size());
  EXPECT_TRUE(got.points[got.min_area_index].accuracy_percent >= 90.0);
}

TEST_F(DesignspaceEndpointsTest, ArrayMulEndpointMatchesLibrarySweep) {
  Server server({.workers = 2});
  LoopbackConnection connection(server);
  Client client(connection);

  ArrayMulDesignSpaceRequest req;
  req.width = 6;
  req.max_approx_columns = 6;
  const ArrayMulDesignSpaceResponse got = client.call(req);

  const auto want = designspace::explore_compressor_mul_space(6, 6);
  ASSERT_EQ(got.points.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got.points[i].compressor, want[i].kind) << i;
    EXPECT_EQ(got.points[i].approx_columns, want[i].approx_columns) << i;
    EXPECT_DOUBLE_EQ(got.points[i].med_est, want[i].model.med_est) << i;
    EXPECT_EQ(got.points[i].model_exact, want[i].model.exact) << i;
  }
  EXPECT_EQ(got.max_accuracy_index, 0u);  // exact baseline wins
  bool any_pareto = false;
  for (const auto& p : got.points) any_pareto |= p.on_pareto_front;
  EXPECT_TRUE(any_pareto);
}

TEST_F(DesignspaceEndpointsTest, StaticAdderEndpointMatchesLibrarySweep) {
  Server server({.workers = 2});
  LoopbackConnection connection(server);
  Client client(connection);

  StaticAdderDesignSpaceRequest req;
  req.width = 10;
  req.max_approx_lsbs = 4;
  const StaticAdderDesignSpaceResponse got =
      client.call(req);

  const auto want = designspace::explore_static_adder_space(10, 4);
  ASSERT_EQ(got.points.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got.points[i].kind, want[i].kind) << i;
    EXPECT_EQ(got.points[i].approx_lsbs, want[i].approx_lsbs) << i;
    EXPECT_DOUBLE_EQ(got.points[i].error_rate, want[i].model.error_rate)
        << i;
    EXPECT_EQ(got.points[i].wce, want[i].model.wce) << i;
  }
  ASSERT_LT(got.min_area_index, got.points.size());
  EXPECT_GE(got.points[got.min_area_index].accuracy_percent, 90.0);
}

TEST_F(DesignspaceEndpointsTest, ResponsesAreByteIdenticalAcrossEvalThreads) {
  HeteroAdderDesignSpaceRequest hetero;
  hetero.width = 16;
  hetero.block_width = 4;
  ArrayMulDesignSpaceRequest mul;
  mul.width = 8;
  mul.max_approx_columns = 8;
  StaticAdderDesignSpaceRequest stat;
  stat.width = 16;
  stat.max_approx_lsbs = 6;
  const std::vector<Bytes> wires = {encode_request(hetero),
                                    encode_request(mul),
                                    encode_request(stat)};

  std::vector<std::vector<Bytes>> responses(wires.size());
  for (const unsigned threads : {1u, 2u, 8u}) {
    // cache_capacity 0: every server must *compute* its answer.
    Server server(
        {.workers = 2, .cache_capacity = 0, .eval_threads = threads});
    for (std::size_t i = 0; i < wires.size(); ++i) {
      responses[i].push_back(server.call(wires[i]));
      ASSERT_EQ(response_status(responses[i].back()), Status::Ok);
    }
  }
  for (std::size_t i = 0; i < wires.size(); ++i) {
    EXPECT_EQ(responses[i][0], responses[i][1]) << "endpoint " << i;
    EXPECT_EQ(responses[i][0], responses[i][2]) << "endpoint " << i;
  }
}

TEST_F(DesignspaceEndpointsTest, WarmRequestsServeFromCache) {
  Server server({.workers = 2});
  std::uint64_t expected_hits = 0;
  for (const Bytes& wire :
       {encode_request(HeteroAdderDesignSpaceRequest{}),
        encode_request(ArrayMulDesignSpaceRequest{}),
        encode_request(StaticAdderDesignSpaceRequest{})}) {
    const Bytes first = server.call(wire);
    ASSERT_EQ(response_status(first), Status::Ok);
    const Bytes second = server.call(wire);
    EXPECT_EQ(second, first);  // byte-identical replay
    EXPECT_EQ(counter_value("service.cache.hits"), ++expected_hits);
  }
}

TEST_F(DesignspaceEndpointsTest, OutOfPolicyRequestsAnswerBadRequest) {
  Server server({.workers = 1});

  HeteroAdderDesignSpaceRequest wide;
  wide.width = 33;
  EXPECT_EQ(response_status(server.call(encode_request(wide))),
            Status::BadRequest);

  HeteroAdderDesignSpaceRequest block;
  block.width = 4;
  block.block_width = 6;  // block wider than the operand
  EXPECT_EQ(response_status(server.call(encode_request(block))),
            Status::BadRequest);

  ArrayMulDesignSpaceRequest mul;
  mul.width = 17;
  EXPECT_EQ(response_status(server.call(encode_request(mul))),
            Status::BadRequest);

  ArrayMulDesignSpaceRequest cols;
  cols.width = 4;
  cols.max_approx_columns = 9;  // exceeds the 2N product width
  EXPECT_EQ(response_status(server.call(encode_request(cols))),
            Status::BadRequest);

  StaticAdderDesignSpaceRequest lsbs;
  lsbs.width = 16;
  lsbs.max_approx_lsbs = 11;  // beyond kMaxStaticApproxLsbs
  EXPECT_EQ(response_status(server.call(encode_request(lsbs))),
            Status::BadRequest);

  StaticAdderDesignSpaceRequest accuracy;
  accuracy.min_accuracy = 101.0;
  EXPECT_EQ(response_status(server.call(encode_request(accuracy))),
            Status::BadRequest);
}

/// Checks one design-space request type under the degrade ladder.
template <class Request>
void expect_degrade_sheds_power(Request req) {
  using Response = ResponseOf<Request>;
  SCOPED_TRACE(std::string(SpecOf<Request>::name));
  req.estimate_power = true;

  DispatchOptions full;
  const Bytes baseline = dispatch(encode_request(req), full);
  ASSERT_EQ(response_status(baseline), Status::Ok);
  EXPECT_EQ(response_level(baseline).value(), 0u);
  const auto full_points = decode_response<Response>(baseline);
  ASSERT_FALSE(full_points.points.empty());
  EXPECT_GT(full_points.points[0].power_nw, 0.0);

  DispatchOptions degraded;
  degraded.degrade_level = 2;
  const Bytes shed = dispatch(encode_request(req), degraded);
  ASSERT_EQ(response_status(shed), Status::Ok);
  EXPECT_EQ(response_level(shed).value(), 2u);
  const auto shed_points = decode_response<Response>(shed);
  ASSERT_EQ(shed_points.points.size(), full_points.points.size());
  for (std::size_t i = 0; i < shed_points.points.size(); ++i) {
    EXPECT_EQ(shed_points.points[i].power_nw, 0.0) << i;
    // The analytic ranking survives degradation untouched.
    EXPECT_DOUBLE_EQ(shed_points.points[i].accuracy_percent,
                     full_points.points[i].accuracy_percent)
        << i;
    EXPECT_DOUBLE_EQ(shed_points.points[i].area_ge,
                     full_points.points[i].area_ge)
        << i;
  }

  // Without a power sim there is nothing to shed: level stays 0.
  req.estimate_power = false;
  const Bytes nothing_to_shed = dispatch(encode_request(req), degraded);
  ASSERT_EQ(response_status(nothing_to_shed), Status::Ok);
  EXPECT_EQ(response_level(nothing_to_shed).value(), 0u);
}

TEST_F(DesignspaceEndpointsTest, DegradeShedsPowerSimAndStampsLevel) {
  GearDesignSpaceRequest gear;
  gear.width = 8;
  HeteroAdderDesignSpaceRequest hetero;
  hetero.width = 8;
  hetero.block_width = 4;
  ArrayMulDesignSpaceRequest mul;
  mul.width = 4;
  mul.max_approx_columns = 2;
  StaticAdderDesignSpaceRequest stat;
  stat.width = 8;
  stat.max_approx_lsbs = 2;
  expect_degrade_sheds_power(gear);
  expect_degrade_sheds_power(hetero);
  expect_degrade_sheds_power(mul);
  expect_degrade_sheds_power(stat);
}

}  // namespace
}  // namespace axc::service
