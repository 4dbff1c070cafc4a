#include "axc/resilience/fault.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "axc/accel/sad.hpp"
#include "axc/accel/sad_netlist.hpp"
#include "axc/common/rng.hpp"
#include "axc/designspace/static_adder.hpp"
#include "axc/logic/adder_netlists.hpp"
#include "axc/logic/mul_netlists.hpp"
#include "axc/logic/simulator.hpp"

namespace axc::resilience {
namespace {

logic::Netlist loa_netlist(unsigned width, unsigned k) {
  return logic::ripple_adder_netlist(designspace::static_adder_cells(
      designspace::StaticAdderKind::Loa, width, k));
}

TEST(FaultInjector, ZeroProbabilityIsTransparent) {
  FaultInjector injector({0.0, 42});
  for (std::uint64_t w : {std::uint64_t{0}, std::uint64_t{0xDEADBEEF},
                          ~std::uint64_t{0}}) {
    EXPECT_EQ(injector.corrupt(w, 32), w & 0xFFFFFFFFu);
  }
  EXPECT_EQ(injector.bits_flipped(), 0u);
  EXPECT_EQ(injector.words_corrupted(), 0u);
}

TEST(FaultInjector, CertainFlipInvertsEveryBit) {
  FaultInjector injector({1.0, 7});
  EXPECT_EQ(injector.corrupt(0, 8), 0xFFu);
  EXPECT_EQ(injector.corrupt(0xA5, 8), 0x5Au);
  EXPECT_EQ(injector.bits_flipped(), 16u);
  EXPECT_EQ(injector.words_corrupted(), 2u);
}

TEST(FaultInjector, SeededCampaignsReproduce) {
  FaultInjector lhs({0.25, 99});
  FaultInjector rhs({0.25, 99});
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t word = static_cast<std::uint64_t>(i) * 0x9E37u;
    ASSERT_EQ(lhs.corrupt(word, 16), rhs.corrupt(word, 16)) << i;
  }
  EXPECT_EQ(lhs.bits_flipped(), rhs.bits_flipped());
  EXPECT_GT(lhs.bits_flipped(), 0u);
}

TEST(FaultInjector, ReseedRestartsTheProcess) {
  FaultInjector injector({0.5, 5});
  std::vector<std::uint64_t> first;
  for (int i = 0; i < 64; ++i) first.push_back(injector.corrupt(0, 16));
  injector.reseed(5);
  EXPECT_EQ(injector.bits_flipped(), 0u);
  for (int i = 0; i < 64; ++i) {
    ASSERT_EQ(injector.corrupt(0, 16), first[static_cast<std::size_t>(i)]);
  }
}

TEST(FaultInjector, FlipRateTracksProbability) {
  FaultInjector injector({0.1, 11});
  constexpr int kWords = 20000;
  for (int i = 0; i < kWords; ++i) injector.corrupt(0, 16);
  const double rate = static_cast<double>(injector.bits_flipped()) /
                      (16.0 * kWords);
  EXPECT_NEAR(rate, 0.1, 0.01);
}

TEST(FaultInjector, RejectsInvalidProbability) {
  EXPECT_THROW(FaultInjector({-0.1, 1}), std::invalid_argument);
  EXPECT_THROW(FaultInjector({1.5, 1}), std::invalid_argument);
}

TEST(FaultySimulator, FaultFreeMatchesPlainSimulator) {
  const logic::Netlist netlist = loa_netlist(8, 2);
  FaultySimulator faulty(netlist, {0.0, 3});
  logic::Simulator plain(netlist);
  Rng rng(31);
  for (int i = 0; i < 2000; ++i) {
    const std::uint64_t word = rng.bits(17);
    ASSERT_EQ(faulty.apply_word(word), plain.apply_word(word));
  }
  EXPECT_EQ(faulty.faults_injected(), 0u);
}

TEST(FaultySimulator, GateUpsetsPerturbOutputs) {
  const logic::Netlist netlist = loa_netlist(8, 0);
  FaultySimulator faulty(netlist, {0.05, 17});
  logic::Simulator plain(netlist);
  Rng rng(32);
  int differing = 0;
  for (int i = 0; i < 2000; ++i) {
    const std::uint64_t word = rng.bits(17);
    differing += faulty.apply_word(word) != plain.apply_word(word);
  }
  EXPECT_GT(differing, 0);
  EXPECT_LT(differing, 2000);
  EXPECT_GT(faulty.faults_injected(), 0u);
}

TEST(FaultySimulator, SeededRunsAreDeterministic) {
  const logic::Netlist netlist = loa_netlist(6, 1);
  FaultySimulator lhs(netlist, {0.1, 77});
  FaultySimulator rhs(netlist, {0.1, 77});
  Rng rng(33);
  for (int i = 0; i < 500; ++i) {
    const std::uint64_t word = rng.bits(13);
    ASSERT_EQ(lhs.apply_word(word), rhs.apply_word(word)) << i;
  }
}

// Golden campaigns: seeded FaultySimulator runs over three netlists, two
// fault rates and a 64/17/1/64 lane pattern, pinned as an FNV-1a digest
// of every output word plus the injected-fault count. The constants were
// generated once and must never move: any change to the RNG draw order,
// the gate evaluation or the lane handling of the fault path shows here.
constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;

std::uint64_t fnv_word(std::uint64_t hash, std::uint64_t word) {
  for (int byte = 0; byte < 8; ++byte) {
    hash ^= (word >> (8 * byte)) & 0xFFu;
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

struct CampaignGolden {
  std::uint64_t digest;
  std::uint64_t faults;
};

CampaignGolden run_campaign(const logic::Netlist& netlist, double p) {
  FaultySimulator sim(netlist, {p, 2024});
  Rng stimulus(77);
  std::vector<std::uint64_t> words(netlist.inputs().size());
  std::uint64_t digest = kFnvOffset;
  for (const unsigned lanes : {64u, 17u, 1u, 64u}) {
    for (auto& word : words) word = stimulus();
    for (const std::uint64_t out : sim.apply_lanes(words, lanes)) {
      digest = fnv_word(digest, out);
    }
  }
  return {digest, sim.faults_injected()};
}

logic::Netlist golden_ripple() {
  std::vector<arith::FullAdderKind> cells(8, arith::FullAdderKind::Accurate);
  std::fill(cells.begin(), cells.begin() + 3, arith::FullAdderKind::Apx3);
  return logic::ripple_adder_netlist(cells);
}

void expect_golden(const logic::Netlist& netlist, double p,
                   CampaignGolden golden) {
  const CampaignGolden got = run_campaign(netlist, p);
  EXPECT_EQ(got.digest, golden.digest) << netlist.name() << " p=" << p;
  EXPECT_EQ(got.faults, golden.faults) << netlist.name() << " p=" << p;
}

TEST(FaultGolden, RippleAdderCampaignsAreBitExact) {
  const logic::Netlist netlist = golden_ripple();
  expect_golden(netlist, 0.01, {0xbd05b6eadb50f745ULL, 31});
  expect_golden(netlist, 0.5, {0xdab2aeeae591df4fULL, 1542});
}

TEST(FaultGolden, WallaceCampaignsAreBitExact) {
  const logic::Netlist netlist =
      logic::wallace_netlist(8, arith::FullAdderKind::Accurate, 0);
  expect_golden(netlist, 0.01, {0x1f90be7933de7df7ULL, 421});
  expect_golden(netlist, 0.5, {0x12ada5efb2f61d8fULL, 20115});
}

TEST(FaultGolden, SadNetlistCampaignsAreBitExact) {
  const logic::Netlist netlist = accel::sad_netlist(accel::accu_sad(64));
  expect_golden(netlist, 0.01, {0x5d75d300c68f44d9ULL, 9431});
  expect_golden(netlist, 0.5, {0x61264a501a3c0a0dULL, 459978});
}

TEST(FaultGolden, FaultyNetlistSadWindowIsBitExact) {
  // One 9x9 full-search window: 81 candidates = a 64-lane pass plus a
  // 17-lane remainder.
  const FaultyNetlistSad sad(accel::apx_sad_variant(3, 4, 64), {0.01, 606});
  Rng pixels(88);
  std::vector<std::uint8_t> current(64);
  std::vector<std::uint8_t> candidates(81 * 64);
  for (auto& px : current) px = static_cast<std::uint8_t>(pixels.bits(8));
  for (auto& px : candidates) px = static_cast<std::uint8_t>(pixels.bits(8));
  std::vector<std::uint64_t> out(81);
  sad.sad_batch(current, candidates, out);
  std::uint64_t digest = kFnvOffset;
  for (const std::uint64_t value : out) digest = fnv_word(digest, value);
  EXPECT_EQ(digest, 0x82be9622b28bba0cULL);
  EXPECT_EQ(sad.faults_injected(), 4541u);
}

accel::Datapath small_sad_datapath() {
  accel::Datapath dp("sad4");
  build_sad_datapath(dp, 4);
  return dp;
}

TEST(DatapathFaults, FaultFreeHookMatchesEvaluate) {
  const accel::Datapath dp = small_sad_datapath();
  FaultInjector injector({0.0, 1});
  const std::vector<std::uint64_t> inputs = {10, 200, 30, 40,
                                             12, 190, 35, 38};
  EXPECT_EQ(evaluate_with_faults(dp, inputs, injector), dp.evaluate(inputs));
}

TEST(DatapathFaults, NodeUpsetsChangeTheSum) {
  const accel::Datapath dp = small_sad_datapath();
  FaultInjector injector({0.05, 23});
  const std::vector<std::uint64_t> inputs = {10, 200, 30, 40,
                                             12, 190, 35, 38};
  const std::uint64_t golden = dp.evaluate(inputs).front();
  int differing = 0;
  for (int i = 0; i < 500; ++i) {
    differing += evaluate_with_faults(dp, inputs, injector).front() != golden;
  }
  EXPECT_GT(differing, 0);
  EXPECT_GT(injector.bits_flipped(), 0u);
}

TEST(FaultySad, FaultFreeWrapsTransparently) {
  const accel::SadAccelerator inner(accel::accu_sad(16));
  const FaultySad faulty(inner, {0.0, 9});
  EXPECT_EQ(faulty.block_pixels(), 16u);
  EXPECT_EQ(faulty.name(), "Faulty<" + inner.name() + ">");
  EXPECT_FALSE(faulty.is_exact());
  Rng rng(41);
  std::vector<std::uint8_t> a(16), b(16);
  for (int i = 0; i < 200; ++i) {
    for (auto& px : a) px = static_cast<std::uint8_t>(rng.bits(8));
    for (auto& px : b) px = static_cast<std::uint8_t>(rng.bits(8));
    ASSERT_EQ(faulty.sad(a, b), inner.sad(a, b));
  }
  EXPECT_EQ(faulty.faults_injected(), 0u);
}

TEST(FaultySad, ResultWordUpsetsAreSeededAndVisible) {
  const accel::SadAccelerator inner(accel::accu_sad(16));
  const FaultySad lhs(inner, {0.08, 1234});
  const FaultySad rhs(inner, {0.08, 1234});
  Rng rng(42);
  std::vector<std::uint8_t> a(16), b(16);
  int differing = 0;
  for (int i = 0; i < 500; ++i) {
    for (auto& px : a) px = static_cast<std::uint8_t>(rng.bits(8));
    for (auto& px : b) px = static_cast<std::uint8_t>(rng.bits(8));
    const std::uint64_t faulted = lhs.sad(a, b);
    ASSERT_EQ(faulted, rhs.sad(a, b)) << "fault campaign must be seeded";
    differing += faulted != inner.sad(a, b);
  }
  EXPECT_GT(differing, 0);
  EXPECT_GT(lhs.faults_injected(), 0u);
}

}  // namespace
}  // namespace axc::resilience
