#include "axc/designspace/explorer.hpp"

#include <optional>
#include <string>
#include <utility>

#include "axc/common/require.hpp"
#include "axc/error/gear_model.hpp"
#include "axc/error/ripple_model.hpp"
#include "axc/logic/adder_netlists.hpp"
#include "axc/logic/characterize.hpp"

namespace axc::designspace {

namespace {

/// Area always comes from the structural netlist; power only when asked
/// (it simulates kSweepPowerVectors random vectors on the tape engine,
/// memoized process-wide by structural hash, so repeated sweeps are cheap).
core::DesignPoint characterize_point(const logic::Netlist& netlist,
                                     double accuracy,
                                     const SweepOptions& options) {
  core::DesignPoint point;
  point.name = netlist.name();
  point.area_ge = netlist.area_ge();
  if (options.estimate_power) {
    point.power_nw =
        logic::characterize(netlist, std::nullopt, kSweepPowerVectors,
                            kSweepPowerSeed)
            .power_nw;
  }
  point.accuracy_percent = accuracy;
  return point;
}

double accuracy_from_er(double error_rate) {
  return 100.0 * (1.0 - error_rate);
}

}  // namespace

std::vector<GearEntry> explore_gear_space(unsigned width, unsigned min_p,
                                          bool include_exact,
                                          const SweepOptions& options) {
  std::vector<GearEntry> entries;
  for (const arith::GeArConfig& config :
       arith::enumerate_gear_configs(width, min_p, include_exact)) {
    entries.push_back(
        {config, characterize_point(logic::gear_adder_netlist(config),
                                    error::gear_accuracy_percent(config),
                                    options)});
  }
  return entries;
}

std::vector<HeteroEntry> explore_hetero_space(unsigned width,
                                              unsigned block_width,
                                              bool include_truncated,
                                              const SweepOptions& options) {
  require(width >= 2 && width <= 32, "explore_hetero_space: invalid width");
  require(block_width >= 1 && block_width <= width,
          "explore_hetero_space: invalid block width");
  const unsigned count = (width + block_width - 1) / block_width;

  std::vector<HeteroEntry> entries;
  const auto add_entry = [&](HeteroSubAdder low_kind, unsigned m) {
    HeteroEntry entry;
    entry.blocks = make_hetero_blocks(width, block_width, low_kind, m);
    entry.low_kind = m == 0 ? HeteroSubAdder::Accurate : low_kind;
    entry.approx_blocks = m;
    entry.model = hetero_error_model(entry.blocks);
    entry.point =
        characterize_point(logic::hetero_adder_netlist(entry.blocks),
                           accuracy_from_er(entry.model.error_rate),
                           options);
    entries.push_back(std::move(entry));
  };

  add_entry(HeteroSubAdder::Accurate, 0);
  for (unsigned m = 1; m <= count; ++m) {
    add_entry(HeteroSubAdder::CarryCut, m);
  }
  if (include_truncated) {
    for (unsigned m = 1; m <= count; ++m) {
      add_entry(HeteroSubAdder::Truncated, m);
    }
  }
  return entries;
}

std::vector<MulEntry> explore_compressor_mul_space(
    unsigned width, unsigned max_approx_columns,
    const SweepOptions& options) {
  require(width >= 2 && width <= 16,
          "explore_compressor_mul_space: invalid width");
  require(max_approx_columns <= 2 * width,
          "explore_compressor_mul_space: invalid column count");

  std::vector<MulEntry> entries;
  const auto add_entry = [&](CompressorKind kind, unsigned m) {
    MulEntry entry;
    entry.kind = kind;
    entry.approx_columns = m;
    entry.model = compressor_mul_error_model(width, kind, m);
    entry.point = characterize_point(
        compressor_mul_netlist(width, kind, m),
        accuracy_from_er(entry.model.error_rate_est), options);
    entries.push_back(std::move(entry));
  };

  add_entry(CompressorKind::Exact42, 0);
  for (const CompressorKind kind :
       {CompressorKind::PairXor, CompressorKind::OrPair}) {
    for (unsigned m = 1; m <= max_approx_columns; ++m) {
      add_entry(kind, m);
    }
  }
  return entries;
}

std::vector<StaticEntry> explore_static_adder_space(
    unsigned width, unsigned max_approx_lsbs, const SweepOptions& options) {
  require(width >= 2 && width <= 32,
          "explore_static_adder_space: invalid width");
  require(max_approx_lsbs <= width && max_approx_lsbs <= 10,
          "explore_static_adder_space: invalid lsb count");

  std::vector<StaticEntry> entries;
  const auto add_entry = [&](StaticAdderKind kind, unsigned k) {
    StaticEntry entry;
    entry.kind = kind;
    entry.approx_lsbs = k;
    const std::vector<arith::FullAdderKind> cells =
        static_adder_cells(kind, width, k);
    entry.model = error::ripple_error_model(cells);
    entry.point = characterize_point(
        logic::ripple_adder_netlist(
            cells, static_adder_kind_name(kind) + std::to_string(width) +
                       "_" + std::to_string(k)),
        accuracy_from_er(entry.model.error_rate), options);
    entries.push_back(std::move(entry));
  };

  add_entry(StaticAdderKind::Loa, 0);
  for (const StaticAdderKind kind :
       {StaticAdderKind::Loa, StaticAdderKind::Loawa,
        StaticAdderKind::Heaa}) {
    for (unsigned k = 1; k <= max_approx_lsbs; ++k) {
      add_entry(kind, k);
    }
  }
  return entries;
}

std::vector<HeteroBlockSpec> widen_hetero_blocks(
    std::span<const HeteroBlockSpec> blocks, unsigned target_width) {
  std::vector<HeteroBlockSpec> out(blocks.begin(), blocks.end());
  const unsigned width = hetero_width(out);
  require(target_width >= width,
          "widen_hetero_blocks: target narrower than the config");
  if (target_width == width) return out;
  if (!out.empty() && out.back().kind == HeteroSubAdder::Accurate) {
    out.back().width += target_width - width;
  } else {
    out.push_back({HeteroSubAdder::Accurate, target_width - width});
  }
  return out;
}

HeteroSadUnit::HeteroSadUnit(std::vector<HeteroBlockSpec> blocks,
                             unsigned block_pixels)
    : adder_(std::move(blocks)), block_pixels_(block_pixels) {
  require(block_pixels_ >= 1, "HeteroSadUnit: empty block");
  // The accumulator must be able to hold the worst-case exact SAD, else
  // even the accurate configuration would wrap.
  require(adder_.width() < 64 &&
              static_cast<std::uint64_t>(block_pixels_) * 255 <=
                  ((1ull << adder_.width()) - 1),
          "HeteroSadUnit: adder too narrow for the block size");
}

std::string HeteroSadUnit::name() const {
  return "HeteroSAD<" + adder_.name() + "," +
         std::to_string(block_pixels_) + "px>";
}

std::uint64_t HeteroSadUnit::sad(std::span<const std::uint8_t> a,
                                 std::span<const std::uint8_t> b) const {
  require(a.size() == block_pixels_ && b.size() == block_pixels_,
          "HeteroSadUnit: block size mismatch");
  const std::uint64_t mask = (1ull << adder_.width()) - 1;
  std::uint64_t acc = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const std::uint64_t d =
        a[i] > b[i] ? std::uint64_t(a[i] - b[i]) : std::uint64_t(b[i] - a[i]);
    acc = adder_.add(acc, d, 0) & mask;
  }
  return acc;
}

}  // namespace axc::designspace
