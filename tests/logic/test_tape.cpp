#include "axc/logic/tape.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "axc/accel/sad_netlist.hpp"
#include "axc/common/rng.hpp"
#include "axc/designspace/compressor_mul.hpp"
#include "axc/designspace/static_adder.hpp"
#include "axc/logic/adder_netlists.hpp"
#include "axc/logic/bitsliced.hpp"
#include "axc/logic/mul_netlists.hpp"
#include "axc/logic/simulator.hpp"
#include "axc/logic/tape_engine.hpp"
#include "axc/obs/obs.hpp"

namespace axc::logic {
namespace {

using arith::FullAdderKind;
using arith::Mul2x2Kind;
using designspace::StaticAdderKind;
using designspace::static_adder_cells;

// ---------------------------------------------------------------------------
// Levelization / compile-time validation.
//
// Netlist's incremental builder cannot express malformed graphs, so the
// deliberately broken inputs below go through Netlist::from_parts — the
// unchecked deserializer path whose validation gate levelize() is.
// ---------------------------------------------------------------------------

void expect_levelize_rejects(const Netlist& netlist,
                             const std::string& diagnostic) {
  try {
    levelize(netlist);
    FAIL() << "levelize accepted '" << netlist.name() << "', expected \""
           << diagnostic << "\"";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(diagnostic), std::string::npos)
        << "actual diagnostic: " << e.what();
  }
}

TEST(Levelize, RejectsCombinationalCycle) {
  // net1 = And2(in0, net2), net2 = Or2(net1, net1): a 2-gate cycle.
  const Netlist cyclic = Netlist::from_parts(
      "cyclic", {CellType::Input, CellType::And2, CellType::Or2},
      {Gate{CellType::And2, {0, 2, 0}, 1}, Gate{CellType::Or2, {1, 1, 0}, 2}},
      {0}, {2});
  expect_levelize_rejects(cyclic, "combinational cycle");
  EXPECT_THROW(compile_netlist(cyclic), std::invalid_argument);
}

TEST(Levelize, RejectsDanglingCellNet) {
  // net1 claims to be an And2 output but nothing drives it; net2 reads it.
  const Netlist dangling = Netlist::from_parts(
      "dangling", {CellType::Input, CellType::And2, CellType::Xor2},
      {Gate{CellType::Xor2, {0, 1, 0}, 2}}, {0}, {2});
  expect_levelize_rejects(dangling, "no driving gate (dangling)");
}

TEST(Levelize, RejectsOutOfRangePin) {
  const Netlist bad_pin = Netlist::from_parts(
      "bad-pin", {CellType::Input, CellType::And2},
      {Gate{CellType::And2, {0, 7, 0}, 1}}, {0}, {1});
  expect_levelize_rejects(bad_pin, "dangling (nonexistent) net");
}

TEST(Levelize, RejectsMultiplyDrivenNet) {
  const Netlist doubled = Netlist::from_parts(
      "doubled", {CellType::Input, CellType::And2},
      {Gate{CellType::And2, {0, 0, 0}, 1}, Gate{CellType::And2, {0, 0, 0}, 1}},
      {0}, {1});
  expect_levelize_rejects(doubled, "driven by more than one gate");
}

TEST(Levelize, RejectsKindMismatch) {
  const Netlist mismatched = Netlist::from_parts(
      "mismatched", {CellType::Input, CellType::Or2},
      {Gate{CellType::And2, {0, 0, 0}, 1}}, {0}, {1});
  expect_levelize_rejects(mismatched, "disagrees with its driving gate");
}

TEST(Levelize, RejectsPseudoCellGate) {
  const Netlist pseudo = Netlist::from_parts(
      "pseudo", {CellType::Input, CellType::Input},
      {Gate{CellType::Input, {0, 0, 0}, 1}}, {0}, {1});
  expect_levelize_rejects(pseudo, "pseudo-cell");
}

TEST(Levelize, RejectsBadIoLists) {
  const Netlist bad_input = Netlist::from_parts(
      "bad-input", {CellType::Input, CellType::And2},
      {Gate{CellType::And2, {0, 0, 0}, 1}}, {0, 1}, {1});
  expect_levelize_rejects(bad_input, "not an Input net");

  const Netlist bad_output = Netlist::from_parts(
      "bad-output", {CellType::Input, CellType::And2},
      {Gate{CellType::And2, {0, 0, 0}, 1}}, {0}, {5});
  expect_levelize_rejects(bad_output, "nonexistent net");
}

TEST(Levelize, LevelsAreTopological) {
  const Netlist nl = wallace_netlist(8, FullAdderKind::Accurate, 0);
  const Levelization levels = levelize(nl);
  ASSERT_EQ(levels.level_of_net.size(), nl.net_count());
  for (const Gate& gate : nl.gates()) {
    for (int pin = 0; pin < cell_fanin(gate.type); ++pin) {
      EXPECT_LT(levels.level_of_net[gate.in[static_cast<std::size_t>(pin)]],
                levels.level_of_net[gate.out]);
    }
  }
  EXPECT_GE(levels.level_count, 2u);
}

// ---------------------------------------------------------------------------
// Tape structure + compile cache.
// ---------------------------------------------------------------------------

TEST(TapeCompile, TapeShapeIsTopologicalAndCoversEveryGate) {
  const Netlist nl = wallace_netlist(8, FullAdderKind::Apx3, 4);
  const auto tape = compile_netlist(nl);
  ASSERT_EQ(tape->ops.size(), nl.gate_count());
  ASSERT_EQ(tape->op_of_gate.size(), nl.gate_count());
  ASSERT_EQ(tape->gate_energy_fj.size(), nl.gate_count());
  EXPECT_EQ(tape->slot_count, nl.net_count());
  EXPECT_EQ(tape->structural_hash, nl.structural_hash());

  // op_of_gate is a permutation and the emission order is topological:
  // every gate-driven input of gate g is emitted before g itself.
  std::vector<std::uint32_t> driver_op(nl.net_count(), UINT32_MAX);
  for (std::size_t g = 0; g < nl.gate_count(); ++g) {
    driver_op[nl.gates()[g].out] = tape->op_of_gate[g];
  }
  std::vector<bool> seen(nl.gate_count(), false);
  for (std::size_t g = 0; g < nl.gate_count(); ++g) {
    const std::uint32_t op = tape->op_of_gate[g];
    ASSERT_LT(op, nl.gate_count());
    EXPECT_FALSE(seen[op]);
    seen[op] = true;
    const Gate& gate = nl.gates()[g];
    for (int pin = 0; pin < cell_fanin(gate.type); ++pin) {
      const std::uint32_t in_op =
          driver_op[gate.in[static_cast<std::size_t>(pin)]];
      if (in_op != UINT32_MAX) EXPECT_LT(in_op, op);
    }
  }

  // Runs tile [0, ops) contiguously and each run is homogeneous.
  std::uint32_t cursor = 0;
  for (const TapeRun& run : tape->runs) {
    EXPECT_EQ(run.begin, cursor);
    EXPECT_LT(run.begin, run.end);
    cursor = run.end;
  }
  EXPECT_EQ(cursor, tape->ops.size());
}

TEST(TapeCompile, CacheHitsMissesAndObsCounters) {
  obs::set_enabled(true);
  clear_compile_cache();
  const auto count = [](const std::string& name) {
    const obs::Snapshot snap = obs::snapshot();
    const auto it = snap.counters.find(name);
    return it == snap.counters.end() ? std::uint64_t{0} : it->second;
  };
  const std::uint64_t hits0 = count("logic.compile.hits");
  const std::uint64_t misses0 = count("logic.compile.misses");

  const Netlist nl = wallace_netlist(4, FullAdderKind::Accurate, 0);
  const auto first = compile_netlist(nl);
  const auto second = compile_netlist(nl);
  EXPECT_EQ(first.get(), second.get()) << "second compile must be a cache hit";

  const CompileCacheStats stats = compile_cache_stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(count("logic.compile.hits"), hits0 + 1);
  EXPECT_EQ(count("logic.compile.misses"), misses0 + 1);

  clear_compile_cache();
  const CompileCacheStats cleared = compile_cache_stats();
  EXPECT_EQ(cleared.hits + cleared.misses, 0u);
  // Tapes held by live engines survive the cache clear.
  EXPECT_EQ(first->ops.size(), nl.gate_count());
}

/// A chain of \p length inverters: distinct lengths are distinct
/// structures, so the test can make as many cache keys as it needs.
Netlist inverter_chain(std::size_t length) {
  Netlist nl("chain" + std::to_string(length));
  NetId net = nl.add_input("x");
  for (std::size_t i = 0; i < length; ++i) {
    net = nl.add_gate(CellType::Inv, net);
  }
  nl.mark_output(net, "y");
  return nl;
}

bool same_ops(const Tape& a, const Tape& b) {
  return std::equal(a.ops.begin(), a.ops.end(), b.ops.begin(), b.ops.end(),
                    [](const TapeOp& x, const TapeOp& y) {
                      return x.in0 == y.in0 && x.in1 == y.in1 &&
                             x.in2 == y.in2 && x.out == y.out;
                    });
}

TEST(TapeCompile, CacheIsBoundedAndRecompilesIdentically) {
  clear_compile_cache();
  const auto first = compile_netlist(inverter_chain(1));
  for (std::size_t length = 2; length <= kCompileCacheCapacity + 1;
       ++length) {
    compile_netlist(inverter_chain(length));
    ASSERT_LE(compile_cache_stats().entries, kCompileCacheCapacity);
  }
  const CompileCacheStats full = compile_cache_stats();
  EXPECT_EQ(full.entries, kCompileCacheCapacity);
  EXPECT_EQ(full.misses, kCompileCacheCapacity + 1);

  // The first tape was evicted: a re-miss compiles an identical tape.
  const auto again = compile_netlist(inverter_chain(1));
  EXPECT_EQ(compile_cache_stats().misses, kCompileCacheCapacity + 2);
  EXPECT_NE(again.get(), first.get());
  EXPECT_TRUE(same_ops(*again, *first));
  EXPECT_EQ(again->slot_count, first->slot_count);
  // ... and is cached again.
  EXPECT_EQ(compile_netlist(inverter_chain(1)).get(), again.get());
  EXPECT_EQ(compile_cache_stats().entries, kCompileCacheCapacity);
  clear_compile_cache();
}

TEST(TapeCompile, KeyCollisionCompilesFreshAndKeepsTheSlot) {
  clear_compile_cache();
  constexpr std::uint64_t kKey = 0xC0111DE;
  const Netlist short_chain = inverter_chain(3);
  const Netlist long_chain = inverter_chain(5);
  const auto cached = detail::compile_netlist_keyed(short_chain, kKey);
  // Same key, different shape: the shape check turns the hit into a fresh
  // compile of the right netlist, returned uncached.
  const auto fresh = detail::compile_netlist_keyed(long_chain, kKey);
  EXPECT_EQ(fresh->ops.size(), long_chain.gate_count());
  EXPECT_TRUE(same_ops(*fresh, *compile_netlist(long_chain)));
  EXPECT_EQ(detail::compile_netlist_keyed(short_chain, kKey).get(),
            cached.get());
  EXPECT_NE(detail::compile_netlist_keyed(long_chain, kKey).get(),
            fresh.get());
  clear_compile_cache();
}

// ---------------------------------------------------------------------------
// Engine equivalence against the scalar reference.
//
// Lane k of a packed run is an independent stimulus stream, so a packed
// engine must behave exactly like one reference Simulator per lane, lane k
// fed bit k of every stimulus word while the lane is active. LaneReplay
// holds those per-lane Simulators; the packed engines under test are the
// observable 64-lane BitslicedSimulator, the raw TapeSimulator<> and a
// 256-lane TapeSimulator<LaneBlock<4>> driven at 64 active lanes. All
// observable state — outputs, per-gate toggles, transition pairs, switched
// energy — must be byte-identical, not merely close.
// ---------------------------------------------------------------------------

class LaneReplay {
 public:
  LaneReplay(const Netlist& nl, unsigned lanes) : nl_(nl) {
    sims_.reserve(lanes);
    for (unsigned k = 0; k < lanes; ++k) sims_.emplace_back(nl);
  }

  /// Feeds lanes [0, lanes) one vector each; returns the packed outputs of
  /// every lane, inactive lanes holding their last active value.
  const std::vector<std::uint64_t>& apply(
      std::span<const std::uint64_t> words, unsigned lanes) {
    out_.resize(nl_.outputs().size());
    std::vector<unsigned> bits(words.size());
    for (unsigned k = 0; k < lanes; ++k) {
      for (std::size_t i = 0; i < words.size(); ++i) {
        bits[i] = static_cast<unsigned>(words[i] >> k & 1u);
      }
      const std::vector<unsigned> out = sims_[k].apply(bits);
      for (std::size_t j = 0; j < out.size(); ++j) {
        out_[j] = (out_[j] & ~(std::uint64_t{1} << k)) |
                  (std::uint64_t{out[j]} << k);
      }
    }
    return out_;
  }

  std::uint64_t gate_toggles(std::size_t g) const {
    std::uint64_t total = 0;
    for (const Simulator& sim : sims_) total += sim.gate_toggles(g);
    return total;
  }

  /// Energy of the summed per-gate toggles, in gate order.
  double switched_energy_fj() const {
    double energy = 0.0;
    for (std::size_t g = 0; g < nl_.gate_count(); ++g) {
      energy += static_cast<double>(gate_toggles(g)) *
                cell_info(nl_.gates()[g].type).energy_fj;
    }
    return energy;
  }

  std::uint64_t vectors_applied() const {
    std::uint64_t total = 0;
    for (const Simulator& sim : sims_) total += sim.vectors_applied();
    return total;
  }

  /// Every lane's first vector is its baseline.
  std::uint64_t transition_pairs() const {
    std::uint64_t total = 0;
    for (const Simulator& sim : sims_) {
      if (sim.vectors_applied() > 0) total += sim.vectors_applied() - 1;
    }
    return total;
  }

 private:
  const Netlist& nl_;
  std::vector<Simulator> sims_;
  std::vector<std::uint64_t> out_;
};

void expect_engines_agree(const Netlist& nl, unsigned steps,
                          std::uint64_t seed) {
  const std::size_t n_in = nl.inputs().size();

  Rng rng(seed);
  std::vector<std::vector<std::uint64_t>> stimulus(
      steps, std::vector<std::uint64_t>(n_in));
  for (auto& words : stimulus) {
    for (auto& word : words) word = rng();
  }

  LaneReplay reference(nl, 64);
  BitslicedSimulator packed(nl);
  TapeSimulator<> tape64(nl);
  TapeSimulator<LaneBlock<4>> wide(nl);
  std::vector<LaneBlock<4>> wide_in(n_in);

  for (unsigned t = 0; t < steps; ++t) {
    const auto& a = reference.apply(stimulus[t], 64);
    const auto b = packed.apply_lanes(stimulus[t]);
    const auto c = tape64.apply_lanes(stimulus[t]);
    for (std::size_t i = 0; i < n_in; ++i) {
      wide_in[i] = LaneBlock<4>{};
      wide_in[i].w[0] = stimulus[t][i];
    }
    const auto d = wide.apply_lanes(wide_in, 64);
    for (std::size_t j = 0; j < a.size(); ++j) {
      ASSERT_EQ(a[j], b[j]) << nl.name() << ": bitsliced output " << j
                            << " step " << t;
      ASSERT_EQ(a[j], c[j]) << nl.name() << ": tape64 output " << j
                            << " step " << t;
      ASSERT_EQ(a[j], d[j].w[0]) << nl.name() << ": wide output " << j
                                 << " step " << t;
    }
  }

  for (std::size_t g = 0; g < nl.gate_count(); ++g) {
    const std::uint64_t toggles = reference.gate_toggles(g);
    ASSERT_EQ(toggles, packed.gate_toggles(g))
        << nl.name() << ": bitsliced gate " << g;
    ASSERT_EQ(toggles, tape64.gate_toggles(g))
        << nl.name() << ": tape64 gate " << g;
    ASSERT_EQ(toggles, wide.gate_toggles(g))
        << nl.name() << ": wide gate " << g;
  }
  const double energy = reference.switched_energy_fj();
  EXPECT_EQ(energy, packed.switched_energy_fj()) << nl.name();
  EXPECT_EQ(energy, tape64.switched_energy_fj()) << nl.name();
  EXPECT_EQ(energy, wide.switched_energy_fj()) << nl.name();
  EXPECT_EQ(reference.vectors_applied(), packed.vectors_applied());
  EXPECT_EQ(reference.transition_pairs(), packed.transition_pairs());
  EXPECT_EQ(reference.transition_pairs(), tape64.transition_pairs());
  EXPECT_EQ(reference.transition_pairs(), wide.transition_pairs());
}

TEST(TapeEquivalence, AllAdderFactories) {
  for (const FullAdderKind kind : arith::kAllFullAdderKinds) {
    expect_engines_agree(full_adder_netlist(kind), 12,
                         0x7A0 + static_cast<int>(kind));
  }
  const arith::RippleAdder ripple =
      arith::RippleAdder::lsb_approximated(8, FullAdderKind::Apx3, 4);
  expect_engines_agree(ripple_adder_netlist(ripple.cells()), 12, 0x7A10);
  expect_engines_agree(
      ripple_adder_netlist(static_adder_cells(StaticAdderKind::Loa, 8, 4)),
      12, 0x7A11);
  expect_engines_agree(etai_adder_netlist(8, 4), 12, 0x7A12);
  expect_engines_agree(gear_adder_netlist({8, 2, 2}), 12, 0x7A13);
}

TEST(TapeEquivalence, AllMultiplierFactories) {
  for (const Mul2x2Kind kind :
       {Mul2x2Kind::Accurate, Mul2x2Kind::SoA, Mul2x2Kind::Ours}) {
    expect_engines_agree(mul2x2_netlist(kind), 12,
                         0x7B0 + static_cast<int>(kind));
    expect_engines_agree(cfg_mul2x2_netlist(kind), 12,
                         0x7B8 + static_cast<int>(kind));
  }
  MulNetlistSpec spec;
  spec.width = 4;
  spec.block = Mul2x2Kind::Ours;
  spec.adder_cell = FullAdderKind::Apx3;
  spec.approx_lsbs = 2;
  expect_engines_agree(multiplier_netlist(spec), 12, 0x7B20);
  expect_engines_agree(wallace_netlist(4, FullAdderKind::Apx3, 2), 12, 0x7B21);
  expect_engines_agree(wallace_netlist(8, FullAdderKind::Accurate, 0), 8,
                       0x7B22);
}

TEST(TapeEquivalence, DesignspaceAdderFactories) {
  const std::vector<HeteroBlockSpec> mixed = {
      {HeteroSubAdder::Truncated, 2},
      {HeteroSubAdder::CarryCut, 3},
      {HeteroSubAdder::Accurate, 3}};
  expect_engines_agree(hetero_adder_netlist(mixed), 12, 0x7C01);
  const std::vector<HeteroBlockSpec> cut_only = {
      {HeteroSubAdder::CarryCut, 4}, {HeteroSubAdder::CarryCut, 4}};
  expect_engines_agree(hetero_adder_netlist(cut_only), 12, 0x7C02);
  expect_engines_agree(
      ripple_adder_netlist(static_adder_cells(StaticAdderKind::Loawa, 8, 3)),
      12, 0x7C03);
  expect_engines_agree(
      ripple_adder_netlist(static_adder_cells(StaticAdderKind::Heaa, 8, 3)),
      12, 0x7C04);
}

TEST(TapeEquivalence, CompressorMulFactories) {
  using designspace::CompressorKind;
  using designspace::compressor_mul_netlist;
  expect_engines_agree(
      compressor_mul_netlist(4, CompressorKind::Exact42, 0), 12, 0x7C10);
  expect_engines_agree(
      compressor_mul_netlist(4, CompressorKind::PairXor, 4), 12, 0x7C11);
  expect_engines_agree(
      compressor_mul_netlist(6, CompressorKind::OrPair, 6), 10, 0x7C12);
}

TEST(TapeEquivalence, SadNetlist) {
  accel::SadConfig config;
  config.block_pixels = 4;
  config.cell = FullAdderKind::Apx3;
  config.approx_lsbs = 2;
  expect_engines_agree(accel::sad_netlist(config), 8, 0x75AD);
}

TEST(TapeEquivalence, ExhaustiveEnumerationMatchesScalarSimulator) {
  const Netlist nl = wallace_netlist(4, FullAdderKind::Apx3, 2);
  const unsigned n_in = static_cast<unsigned>(nl.inputs().size());
  const std::uint64_t total = std::uint64_t{1} << n_in;
  Simulator scalar(nl);
  TapeSimulator<> tape64(nl);
  TapeSimulator<LaneBlock<4>> wide(nl);
  for (std::uint64_t base = 0; base < total; base += 64) {
    const unsigned lanes =
        static_cast<unsigned>(std::min<std::uint64_t>(64, total - base));
    tape64.apply_word_range(base, lanes);
    for (unsigned k = 0; k < lanes; ++k) {
      ASSERT_EQ(tape64.lane_output(k), scalar.apply_word(base + k))
          << "word " << (base + k);
    }
  }
  for (std::uint64_t base = 0; base < total; base += 256) {
    const unsigned lanes =
        static_cast<unsigned>(std::min<std::uint64_t>(256, total - base));
    wide.apply_word_range(base, lanes);
    for (unsigned k = 0; k < lanes; ++k) {
      ASSERT_EQ(wide.lane_output(k), scalar.apply_word(base + k))
          << "word " << (base + k);
    }
  }
}

// The PR 3 lane-mask discipline: shrinking then growing the active lane
// set must keep outputs (inactive lanes included) and toggle accounting
// identical to the per-lane reference at every step.
TEST(TapeEquivalence, ShrinkThenGrowLaneReplay) {
  const Netlist nl =
      ripple_adder_netlist(static_adder_cells(StaticAdderKind::Loa, 8, 4));
  const std::size_t n_in = nl.inputs().size();
  LaneReplay reference(nl, 64);
  BitslicedSimulator packed(nl);
  TapeSimulator<> tape64(nl);

  Rng rng(0x9106);
  std::vector<std::uint64_t> stimulus(n_in);
  unsigned widest = 0;
  for (const unsigned lanes : {64u, 17u, 64u, 5u, 33u, 64u, 1u, 64u, 9u}) {
    for (auto& word : stimulus) word = rng();
    widest = std::max(widest, lanes);
    const std::uint64_t seen =
        widest >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << widest) - 1;
    const auto& a = reference.apply(stimulus, lanes);
    const auto b = packed.apply_lanes(stimulus, lanes);
    const auto c = tape64.apply_lanes(stimulus, lanes);
    for (std::size_t j = 0; j < a.size(); ++j) {
      ASSERT_EQ(a[j] & seen, b[j] & seen)
          << "lanes " << lanes << " output " << j;
      ASSERT_EQ(a[j] & seen, c[j] & seen)
          << "lanes " << lanes << " output " << j;
    }
  }
  for (std::size_t g = 0; g < nl.gate_count(); ++g) {
    ASSERT_EQ(reference.gate_toggles(g), packed.gate_toggles(g)) << g;
    ASSERT_EQ(reference.gate_toggles(g), tape64.gate_toggles(g)) << g;
  }
  EXPECT_EQ(reference.switched_energy_fj(), packed.switched_energy_fj());
  EXPECT_EQ(reference.switched_energy_fj(), tape64.switched_energy_fj());
  EXPECT_EQ(reference.vectors_applied(), packed.vectors_applied());
  EXPECT_EQ(reference.transition_pairs(), packed.transition_pairs());
  EXPECT_EQ(reference.transition_pairs(), tape64.transition_pairs());
}

// ---------------------------------------------------------------------------
// TapeSimulator API details.
// ---------------------------------------------------------------------------

TEST(TapeSimulatorApi, RunStreamMatchesPerStepApplyLanes) {
  const arith::RippleAdder model =
      arith::RippleAdder::lsb_approximated(16, FullAdderKind::Apx2, 6);
  const Netlist nl = ripple_adder_netlist(model.cells());
  const std::size_t n_in = nl.inputs().size();
  const std::size_t n_out = nl.outputs().size();
  const unsigned steps = 24;

  Rng rng(0x57E9);
  std::vector<std::uint64_t> stimulus(steps * n_in);
  for (auto& word : stimulus) word = rng();

  TapeSimulator<> streamed(nl);
  std::vector<std::uint64_t> outputs(steps * n_out);
  streamed.run_stream(stimulus, outputs);

  TapeSimulator<> stepped(nl);
  for (unsigned t = 0; t < steps; ++t) {
    const auto out = stepped.apply_lanes(
        std::span<const std::uint64_t>(stimulus).subspan(t * n_in, n_in));
    for (std::size_t j = 0; j < n_out; ++j) {
      ASSERT_EQ(out[j], outputs[t * n_out + j]) << "step " << t;
    }
  }
  for (std::size_t g = 0; g < nl.gate_count(); ++g) {
    ASSERT_EQ(streamed.gate_toggles(g), stepped.gate_toggles(g)) << g;
  }
  EXPECT_EQ(streamed.switched_energy_fj(), stepped.switched_energy_fj());
  EXPECT_EQ(streamed.vectors_applied(), stepped.vectors_applied());
  EXPECT_EQ(streamed.transition_pairs(), stepped.transition_pairs());
}

TEST(TapeSimulatorApi, FunctionalModeMatchesCountedOutputs) {
  const Netlist nl = wallace_netlist(4, FullAdderKind::Accurate, 0);
  const std::size_t n_in = nl.inputs().size();
  TapeSimulator<> counted(nl);
  TapeSimulator<> functional(nl);
  EXPECT_TRUE(counted.counting());
  functional.set_counting(false);
  EXPECT_FALSE(functional.counting());

  Rng rng(0xF0F0);
  std::vector<std::uint64_t> stimulus(n_in);
  for (unsigned t = 0; t < 12; ++t) {
    for (auto& word : stimulus) word = rng();
    const auto a = counted.apply_lanes(stimulus);
    const auto b = functional.apply_lanes(stimulus);
    for (std::size_t j = 0; j < a.size(); ++j) {
      ASSERT_EQ(a[j], b[j]) << "step " << t << " output " << j;
    }
  }
  // Functional mode never accumulates activity.
  for (std::size_t g = 0; g < nl.gate_count(); ++g) {
    EXPECT_EQ(functional.gate_toggles(g), 0u);
  }
  EXPECT_EQ(functional.transition_pairs(), 0u);
  EXPECT_EQ(functional.switched_energy_fj(), 0.0);
  EXPECT_GT(counted.transition_pairs(), 0u);
}

// Wide lanes are a different temporal pairing of the same per-lane streams:
// a 256-lane counted run over S steps must match, output for output and
// gate for gate, 256 reference Simulators each carrying one lane's stream.
TEST(TapeSimulatorApi, WideLanePartitionKeepsTogglesExact) {
  const arith::RippleAdder model =
      arith::RippleAdder::lsb_approximated(16, FullAdderKind::Accurate, 0);
  const Netlist nl = ripple_adder_netlist(model.cells());
  const std::size_t n_in = nl.inputs().size();
  const std::size_t n_out = nl.outputs().size();
  const unsigned steps = 16;

  Rng rng(0x256A);
  std::vector<LaneBlock<4>> stimulus(steps * n_in);
  for (auto& blk : stimulus) {
    for (auto& w : blk.w) w = rng();
  }

  TapeSimulator<LaneBlock<4>> wide(nl);
  std::vector<LaneBlock<4>> outputs(steps * n_out);
  wide.run_stream(stimulus, outputs);

  std::vector<std::uint64_t> group_toggles(nl.gate_count(), 0);
  std::vector<std::uint64_t> in(n_in);
  for (unsigned grp = 0; grp < 4; ++grp) {
    LaneReplay reference(nl, 64);
    for (unsigned t = 0; t < steps; ++t) {
      for (std::size_t i = 0; i < n_in; ++i) {
        in[i] = stimulus[t * n_in + i].w[grp];
      }
      const auto& out = reference.apply(in, 64);
      for (std::size_t j = 0; j < n_out; ++j) {
        ASSERT_EQ(out[j], outputs[t * n_out + j].w[grp])
            << "group " << grp << " step " << t << " output " << j;
      }
    }
    for (std::size_t g = 0; g < nl.gate_count(); ++g) {
      group_toggles[g] += reference.gate_toggles(g);
    }
  }
  for (std::size_t g = 0; g < nl.gate_count(); ++g) {
    ASSERT_EQ(wide.gate_toggles(g), group_toggles[g]) << "gate " << g;
  }
}

}  // namespace
}  // namespace axc::logic
