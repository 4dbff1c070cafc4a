/// Integration tests: the cross-layer flows the paper's title promises,
/// exercised end to end — logic-layer cells priced by the substrate,
/// selected by the architecture-layer explorer, deployed in application-
/// layer accelerators, and managed at run time.
#include <gtest/gtest.h>

#include "axc/accel/configurable.hpp"
#include "axc/accel/filter.hpp"
#include "axc/accel/sad_netlist.hpp"
#include "axc/common/rng.hpp"
#include "axc/core/cec.hpp"
#include "axc/core/manager.hpp"
#include "axc/core/pareto.hpp"
#include "axc/designspace/explorer.hpp"
#include "axc/error/evaluate.hpp"
#include "axc/image/ssim.hpp"
#include "axc/image/synth.hpp"
#include "axc/logic/mul_netlists.hpp"
#include "axc/logic/verilog.hpp"
#include "axc/video/encoder.hpp"

namespace axc {
namespace {

// Logic -> architecture: explore the GeAr space, pick a config under a
// constraint, instantiate it, and verify the picked accuracy holds on
// real additions.
TEST(CrossLayer, ExploreSelectInstantiateVerify) {
  const auto space = designspace::explore_gear_space(12, 1, false);
  const std::size_t pick = core::rank_space(space, 95.0).min_area_index;
  ASSERT_LT(pick, space.size());
  const arith::GeArAdder adder(space[pick].config);
  error::EvalOptions opts;
  opts.samples = 1u << 18;
  const auto measured = error::evaluate_adder(adder, opts);
  EXPECT_NEAR(measured.accuracy_percent(),
              space[pick].point.accuracy_percent, 0.3);
  EXPECT_GE(measured.accuracy_percent(), 94.5);
}

// Logic -> application: the selected SAD mode's netlist power must
// correlate with the encoder-level bit-rate trade-off (cheaper hardware,
// more bits) for a fixed variant family.
TEST(CrossLayer, SadPowerVsBitrateTradeoffIsMonotone) {
  video::SequenceConfig sc;
  sc.width = 32;
  sc.height = 32;
  sc.frames = 3;
  const video::Sequence seq = video::generate_sequence(sc);
  video::EncoderConfig ec;
  ec.motion.block_size = 8;
  ec.motion.search_range = 2;

  double previous_power = 1e18;
  std::uint64_t previous_bits = 0;
  for (const unsigned lsbs : {2u, 4u, 6u}) {
    const accel::SadConfig config = accel::apx_sad_variant(2, lsbs, 64);
    const double power = accel::characterize_sad(config, 64).power_nw;
    const accel::SadAccelerator sad(config);
    const std::uint64_t bits =
        video::Encoder(ec, sad).encode(seq).total_bits;
    EXPECT_LT(power, previous_power) << "lsbs " << lsbs;
    EXPECT_GE(bits, previous_bits) << "lsbs " << lsbs;
    previous_power = power;
    previous_bits = bits;
  }
}

// Architecture -> run time: characterize modes, let the manager assign
// them, then actually run the assigned accelerators and check the
// assignment's quality ordering is realized.
TEST(CrossLayer, ManagerAssignmentIsExecutable) {
  accel::ConfigurableSad unit({accel::apx_sad_variant(3, 2, 16),
                               accel::apx_sad_variant(3, 6, 16)});
  std::vector<core::AcceleratorMode> modes;
  for (unsigned m = 0; m < unit.mode_count(); ++m) {
    // Quality proxy: 100 - mean relative SAD error on random blocks.
    axc::Rng rng(4);
    unit.select(m);
    double rel = 0.0;
    std::vector<std::uint8_t> a(16), b(16);
    for (int t = 0; t < 200; ++t) {
      std::uint64_t exact = 0;
      for (int i = 0; i < 16; ++i) {
        a[i] = static_cast<std::uint8_t>(rng.bits(8));
        b[i] = static_cast<std::uint8_t>(rng.bits(8));
        exact += a[i] > b[i] ? a[i] - b[i] : b[i] - a[i];
      }
      rel += std::abs(static_cast<double>(unit.sad(a, b)) -
                      static_cast<double>(exact)) /
             static_cast<double>(std::max<std::uint64_t>(exact, 1));
    }
    modes.push_back({unit.mode_config(m).name(), unit.mode_power_nw(m),
                     100.0 * (1.0 - rel / 200.0)});
  }
  const core::ApproximationManager manager(modes);
  const auto assignment = manager.assign_min_power(
      {{"strict", 99.0}, {"lenient", 0.0}});
  ASSERT_TRUE(assignment.feasible);
  // The strict app must not get the aggressive 6-LSB mode.
  EXPECT_NE(modes[assignment.mode_of_app[0]].name,
            accel::apx_sad_variant(3, 6, 16).name());
  // The lenient app gets the cheapest mode overall.
  double cheapest = 1e18;
  for (const auto& mode : modes) cheapest = std::min(cheapest, mode.power_nw);
  EXPECT_DOUBLE_EQ(modes[assignment.mode_of_app[1]].power_nw, cheapest);
}

// Application -> logic: an image filtered on approximate hardware scores
// the SSIM that the accelerator's characterization predicts (same config,
// same substrate), and the hardware can be exported as RTL.
TEST(CrossLayer, FilterQualityAndRtlExportAgreeOnConfig) {
  accel::FilterConfig config;
  config.adder_cell = arith::FullAdderKind::Apx3;
  config.approx_lsbs = 4;
  const accel::FilterAccelerator filter(config);
  const image::Image img =
      image::synthesize_image(image::TestImageKind::Blobs, 48, 48, 6);
  const image::Image exact =
      image::convolve3x3(img, image::Kernel3x3::gaussian());
  const image::Image approx = filter.apply(img, image::Kernel3x3::gaussian());
  EXPECT_GT(image::ssim(exact, approx), 0.8);

  // The same datapath's multiplier lane exports to RTL with the expected
  // interface.
  logic::MulNetlistSpec spec;
  spec.width = 8;
  spec.adder_cell = config.adder_cell;
  spec.approx_lsbs = config.approx_lsbs;
  const std::string v =
      logic::to_verilog(logic::multiplier_netlist(spec), "filter_lane");
  EXPECT_NE(v.find("module filter_lane ("), std::string::npos);
  EXPECT_NE(v.find("input  wire a0,"), std::string::npos);
  EXPECT_NE(v.find("output wire p15"), std::string::npos);
}

// Consolidated error correction closes the loop: an accelerator built on
// GeAr adders plus one output-side flag corrector behaves exactly.
TEST(CrossLayer, GearAcceleratorWithFlagCecIsExact) {
  const arith::GeArConfig config{16, 4, 4};
  const arith::GeArAdder adder(config);
  const core::FlagDrivenCec cec(config);
  axc::Rng rng(8);
  for (int i = 0; i < 50000; ++i) {
    const std::uint64_t a = rng.bits(16);
    const std::uint64_t b = rng.bits(16);
    ASSERT_EQ(cec.correct(adder, a, b), a + b);
  }
}

}  // namespace
}  // namespace axc
