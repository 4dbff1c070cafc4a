#include "axc/logic/characterize.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "axc/logic/adder_netlists.hpp"
#include "axc/logic/synth.hpp"

namespace axc::logic {
namespace {

using arith::FullAdderKind;
using arith::Mul2x2Kind;

TEST(NetlistTruthTable, RecoversFullAdderFunction) {
  const TruthTable table =
      netlist_truth_table(full_adder_netlist(FullAdderKind::Accurate));
  for (unsigned w = 0; w < 8; ++w) {
    const unsigned a = w & 1u, b = (w >> 1) & 1u, cin = (w >> 2) & 1u;
    EXPECT_EQ(table.value(w), (a + b + cin == 1 || a + b + cin == 3
                                   ? 1u
                                   : 0u) |
                                  ((a + b + cin >= 2 ? 1u : 0u) << 1));
  }
}

TEST(Characterize, FullAdderErrorCasesMatchTableIii) {
  for (const FullAdderKind kind : arith::kAllFullAdderKinds) {
    const Characterization c = characterize_full_adder(kind);
    EXPECT_EQ(static_cast<int>(c.error_cases),
              arith::full_adder_error_cases(kind))
        << arith::full_adder_name(kind);
    EXPECT_EQ(c.input_space, 8u);
  }
}

TEST(Characterize, AccurateFullAdderPowerNearPaperCalibration) {
  // The calibration constant targets ~1130 nW for AccuFA (Table III).
  const Characterization c =
      characterize_full_adder(FullAdderKind::Accurate);
  EXPECT_GT(c.power_nw, 700.0);
  EXPECT_LT(c.power_nw, 1600.0);
}

TEST(Characterize, PowerOrderingTracksApproximationDepth) {
  // ApxFA5 is wires only: zero area and zero power; everything else sits
  // strictly between 0 and the accurate adder.
  const double acc =
      characterize_full_adder(FullAdderKind::Accurate).power_nw;
  const Characterization apx5 = characterize_full_adder(FullAdderKind::Apx5);
  EXPECT_DOUBLE_EQ(apx5.power_nw, 0.0);
  EXPECT_DOUBLE_EQ(apx5.area_ge, 0.0);
  for (const FullAdderKind kind :
       {FullAdderKind::Apx1, FullAdderKind::Apx2, FullAdderKind::Apx3,
        FullAdderKind::Apx4}) {
    const double p = characterize_full_adder(kind).power_nw;
    EXPECT_GT(p, 0.0) << arith::full_adder_name(kind);
    EXPECT_LT(p, acc) << arith::full_adder_name(kind);
  }
}

TEST(Characterize, Mul2x2QualityColumnsMatchFig5) {
  const Characterization soa = characterize_mul2x2(Mul2x2Kind::SoA, false);
  EXPECT_EQ(soa.error_cases, 1u);
  EXPECT_EQ(soa.max_error, 2u);
  const Characterization ours = characterize_mul2x2(Mul2x2Kind::Ours, false);
  EXPECT_EQ(ours.error_cases, 3u);
  EXPECT_EQ(ours.max_error, 1u);
  const Characterization acc =
      characterize_mul2x2(Mul2x2Kind::Accurate, false);
  EXPECT_EQ(acc.error_cases, 0u);
  EXPECT_EQ(acc.max_error, 0u);
}

TEST(Characterize, CfgMulAreaRelationMatchesPaper)
{
  const double acc = characterize_mul2x2(Mul2x2Kind::Accurate, false).area_ge;
  const double cfg_soa = characterize_mul2x2(Mul2x2Kind::SoA, true).area_ge;
  const double cfg_ours = characterize_mul2x2(Mul2x2Kind::Ours, true).area_ge;
  EXPECT_GT(cfg_soa, acc);
  EXPECT_LT(cfg_ours, cfg_soa);
}

TEST(Characterize, SynthesizedVsHandMappedAblation) {
  // Both implementations realize the same function; the hand-mapped one
  // may use complex cells the two-level mapper doesn't infer, so it should
  // never be larger by more than the XOR-decomposition gap, and both must
  // characterize to identical error counts.
  for (const FullAdderKind kind : arith::kAllFullAdderKinds) {
    const Netlist hand = full_adder_netlist(kind);
    if (hand.gate_count() == 0) continue;  // ApxFA5: nothing to synthesize
    const TruthTable spec = netlist_truth_table(hand);
    const Netlist synth_nl = synthesize(spec, "synth");
    EXPECT_EQ(netlist_truth_table(synth_nl), spec)
        << arith::full_adder_name(kind);
  }
}

TEST(CharacterizationCache, IdenticalRebuildsHitDifferentConfigsMiss) {
  clear_characterization_cache();
  const std::vector<FullAdderKind> accurate(4, FullAdderKind::Accurate);
  const std::vector<FullAdderKind> approx(4, FullAdderKind::Apx1);
  const Netlist nl = ripple_adder_netlist(accurate);
  const Characterization first = characterize(nl, std::nullopt, 256, 7);
  const auto after_first = characterization_cache_stats();
  EXPECT_EQ(after_first.hits, 0u);
  EXPECT_EQ(after_first.misses, 1u);

  // Structurally identical rebuild: full hit, identical record.
  const Netlist rebuilt = ripple_adder_netlist(accurate);
  const Characterization second = characterize(rebuilt, std::nullopt, 256, 7);
  const auto after_second = characterization_cache_stats();
  EXPECT_EQ(after_second.hits, 1u);
  EXPECT_EQ(after_second.misses, 1u);
  EXPECT_DOUBLE_EQ(second.area_ge, first.area_ge);
  EXPECT_DOUBLE_EQ(second.power_nw, first.power_nw);

  // Any knob change is a distinct key: vectors, seed, structure.
  characterize(nl, std::nullopt, 512, 7);
  characterize(nl, std::nullopt, 256, 8);
  characterize(ripple_adder_netlist(approx), std::nullopt, 256, 7);
  const auto after_variants = characterization_cache_stats();
  EXPECT_EQ(after_variants.hits, 1u);
  EXPECT_EQ(after_variants.misses, 4u);
}

TEST(CharacterizationCache, BoundedAndIdenticalOnHitMissAndReMiss) {
  clear_characterization_cache();
  const Netlist nl = full_adder_netlist(FullAdderKind::Apx2);
  const auto run = [&](std::uint64_t seed) {
    return characterize(nl, std::nullopt, 64, seed);
  };
  const Characterization first = run(0);
  // Capacity more distinct keys (seeds) push the first record out.
  for (std::uint64_t seed = 1; seed <= kCharacterizationCacheCapacity;
       ++seed) {
    run(seed);
    ASSERT_LE(characterization_cache_stats().entries,
              kCharacterizationCacheCapacity);
  }
  EXPECT_EQ(characterization_cache_stats().hits, 0u);
  const auto same = [&](const Characterization& c) {
    return c.name == first.name && c.area_ge == first.area_ge &&
           c.power_nw == first.power_nw && c.gate_count == first.gate_count &&
           c.error_cases == first.error_cases &&
           c.max_error == first.max_error &&
           c.input_space == first.input_space;
  };
  const auto before = characterization_cache_stats();
  EXPECT_TRUE(same(run(0)));  // re-miss: recomputed
  const auto after_remiss = characterization_cache_stats();
  EXPECT_EQ(after_remiss.misses, before.misses + 1);
  EXPECT_TRUE(same(run(0)));  // hit
  EXPECT_EQ(characterization_cache_stats().hits, before.hits + 1);
  EXPECT_EQ(characterization_cache_stats().entries,
            kCharacterizationCacheCapacity);
  clear_characterization_cache();
}

TEST(CharacterizationCache, TruthTableMemoizedOnStructuralHash) {
  clear_characterization_cache();
  const TruthTable a =
      netlist_truth_table(full_adder_netlist(FullAdderKind::Accurate));
  const auto after_miss = characterization_cache_stats();
  EXPECT_EQ(after_miss.misses, 1u);
  const TruthTable b =
      netlist_truth_table(full_adder_netlist(FullAdderKind::Accurate));
  const auto after_hit = characterization_cache_stats();
  EXPECT_EQ(after_hit.hits, 1u);
  EXPECT_EQ(after_hit.misses, 1u);
  EXPECT_EQ(a, b);
  // A different cell is a different structure.
  netlist_truth_table(full_adder_netlist(FullAdderKind::Apx1));
  EXPECT_EQ(characterization_cache_stats().misses, 2u);
}

TEST(CharacterizationCache, ClearResetsStatsAndDropsEntries) {
  clear_characterization_cache();
  netlist_truth_table(full_adder_netlist(FullAdderKind::Accurate));
  clear_characterization_cache();
  const auto stats = characterization_cache_stats();
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 0u);
  netlist_truth_table(full_adder_netlist(FullAdderKind::Accurate));
  EXPECT_EQ(characterization_cache_stats().misses, 1u);  // re-simulated
}

TEST(NetlistTruthTable, TooWideRejected) {
  Netlist nl;
  for (int i = 0; i < 21; ++i) nl.add_input("i");
  nl.mark_output(nl.inputs()[0], "y");
  EXPECT_THROW(netlist_truth_table(nl), std::invalid_argument);
}

}  // namespace
}  // namespace axc::logic
