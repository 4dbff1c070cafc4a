/// \file explorer.hpp
/// Design-space sweeps over the four adder/multiplier families (GeAr and
/// the three generator families): enumerate a configuration grid and
/// characterize every point (area from the netlist, optional
/// toggle/energy via the tape engine, accuracy from the analytic error
/// model); core::rank_space then marks the area/error Pareto front and
/// answers the selection queries. The sweeps are
/// deterministic — same grid, same order, same numbers on every run and at
/// any thread count — which is what lets the service layer cache and
/// replicate their responses byte-identically.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "axc/accel/sad_unit.hpp"
#include "axc/arith/gear.hpp"
#include "axc/core/design_point.hpp"
#include "axc/designspace/compressor_mul.hpp"
#include "axc/designspace/hetero_adder.hpp"
#include "axc/designspace/static_adder.hpp"
#include "axc/error/metrics.hpp"

namespace axc::designspace {

/// Power characterization simulates kSweepPowerVectors random input
/// vectors drawn from kSweepPowerSeed on the tape engine (memoized
/// process-wide by structural hash), exactly as logic::characterize does
/// for a single netlist.
inline constexpr std::uint64_t kSweepPowerVectors = 1024;
inline constexpr std::uint64_t kSweepPowerSeed = 1;

/// Common sweep knobs. With estimate_power off, power_nw stays 0 and the
/// sweep is purely analytic + structural.
struct SweepOptions {
  bool estimate_power = false;
};

/// One GeAr sweep point (Table IV / Fig. 4). accuracy_percent comes from
/// the analytic GeAr error model.
struct GearEntry {
  arith::GeArConfig config;
  core::DesignPoint point;
};

/// Grid: arith::enumerate_gear_configs(width, min_p, include_exact), in
/// its order (R ascending, then P ascending).
std::vector<GearEntry> explore_gear_space(unsigned width, unsigned min_p,
                                          bool include_exact,
                                          const SweepOptions& options = {});

/// One heterogeneous-adder sweep point. accuracy_percent follows the gear
/// convention: 100 * (1 - error_rate).
struct HeteroEntry {
  std::vector<HeteroBlockSpec> blocks;
  HeteroSubAdder low_kind = HeteroSubAdder::Accurate;
  unsigned approx_blocks = 0;
  core::DesignPoint point;
  error::AdderErrorModel model;
};

/// Grid: the all-accurate baseline, then CarryCut x m for m = 1..K, then
/// (if include_truncated) Truncated x m for m = 1..K, where K is the block
/// count of make_hetero_blocks(width, block_width, ...).
std::vector<HeteroEntry> explore_hetero_space(unsigned width,
                                              unsigned block_width,
                                              bool include_truncated,
                                              const SweepOptions& options = {});

/// One compressor-multiplier sweep point.
struct MulEntry {
  CompressorKind kind = CompressorKind::Exact42;
  unsigned approx_columns = 0;
  core::DesignPoint point;
  MulErrorModel model;
};

/// Grid: the all-exact baseline, then PairXor and OrPair with
/// approx_columns = 1..max_approx_columns each.
std::vector<MulEntry> explore_compressor_mul_space(
    unsigned width, unsigned max_approx_columns,
    const SweepOptions& options = {});

/// One static-adder sweep point. The netlist is
/// logic::ripple_adder_netlist of static_adder_cells, named e.g.
/// "LOA16_4"; the model is error::ripple_error_model of the same cells.
struct StaticEntry {
  StaticAdderKind kind = StaticAdderKind::Loa;
  unsigned approx_lsbs = 0;
  core::DesignPoint point;
  error::AdderErrorModel model;
};

/// Grid: the exact baseline (approx_lsbs = 0), then LOA/LOAWA/HEAA with
/// approx_lsbs = 1..max_approx_lsbs each.
std::vector<StaticEntry> explore_static_adder_space(
    unsigned width, unsigned max_approx_lsbs,
    const SweepOptions& options = {});

/// Widens a block configuration to \p target_width by growing the top
/// block (or appending an Accurate block if the config is already
/// all-approximate at the top). Used to lift a sweep-winner adder config
/// to accumulator width before wiring it into the SAD path.
std::vector<HeteroBlockSpec> widen_hetero_blocks(
    std::span<const HeteroBlockSpec> blocks, unsigned target_width);

/// SAD unit whose accumulator runs on a HeteroBlockAdder — the bridge
/// from a design-space sweep winner to end-to-end encoder quality
/// numbers. Absolute differences are exact 8-bit; the accumulation adder
/// is the configured heterogeneous adder, so low-block approximations
/// show up as SAD underestimation exactly as they would in hardware.
class HeteroSadUnit final : public accel::SadUnit {
 public:
  HeteroSadUnit(std::vector<HeteroBlockSpec> blocks, unsigned block_pixels);

  unsigned block_pixels() const override { return block_pixels_; }
  std::string name() const override;
  std::uint64_t sad(std::span<const std::uint8_t> a,
                    std::span<const std::uint8_t> b) const override;
  bool is_exact() const override { return adder_.is_exact(); }
  bool is_concurrent_safe() const override { return true; }

 private:
  HeteroBlockAdder adder_;
  unsigned block_pixels_;
};

}  // namespace axc::designspace
