/// Example: explore the GeAr design space for a given operand width and
/// pick a configuration under an accuracy constraint — the Fig. 4 / Table
/// IV workflow as a command-line tool. A second phase runs the same
/// workflow over the heterogeneous block-adder family (axc::designspace)
/// and closes the cross-layer loop: the cheapest sweep winner is widened
/// to accumulator width, dropped into the video encoder's SAD unit, and
/// compared against the exact path on PSNR and bitrate.
#include <algorithm>
#include <iostream>
#include <string>
#include <vector>

#include "axc/accel/sad.hpp"
#include "axc/common/table.hpp"
#include "axc/core/pareto.hpp"
#include "axc/designspace/explorer.hpp"
#include "axc/video/encoder.hpp"
#include "axc/video/sequence.hpp"
#include "cli_util.hpp"

namespace {

constexpr const char* kUsage =
    "usage: design_space_explorer [width] [min_accuracy_percent]\n"
    "\n"
    "Enumerates every GeAr(N, R, P) configuration for the given operand\n"
    "width (default 11, the paper's Table IV), marks the area/accuracy\n"
    "Pareto front and answers the two selection queries. Then repeats the\n"
    "workflow for the heterogeneous block-adder family and wires the\n"
    "cheapest acceptable configuration into the video encoder's SAD\n"
    "accumulator, reporting end-to-end PSNR/bitrate against the exact\n"
    "path.\n"
    "\n"
    "arguments:\n"
    "  width                  operand width N, 2..16 (default 11)\n"
    "  min_accuracy_percent   constraint for the cheapest-config query,\n"
    "                         0..100 (default 90)\n"
    "\n"
    "options:\n"
    "  -h, --help             this text\n";

/// Encodes a small synthetic sequence with \p sad and reports quality.
axc::video::EncodeStats encode_with(const axc::accel::SadUnit& sad) {
  axc::video::SequenceConfig sc;
  sc.width = 64;
  sc.height = 64;
  sc.frames = 4;
  sc.objects = 3;
  sc.seed = 7;
  const axc::video::Sequence sequence = axc::video::generate_sequence(sc);
  axc::video::EncoderConfig ec;
  ec.motion.block_size = 8;
  ec.motion.search_range = 4;
  ec.quant_step = 8;
  return axc::video::Encoder(ec, sad).encode(sequence);
}

/// Prints a swept \p space as one table row per configuration (config,
/// area, accuracy, the family's \p extra_columns filled by \p extra, and
/// "*" on the area/error Pareto front); returns its ranking.
template <class Space, class Extra>
axc::core::Ranking print_space(const Space& space, double min_accuracy,
                               const std::vector<std::string>& extra_columns,
                               Extra extra) {
  const axc::core::Ranking ranking =
      axc::core::rank_space(space, min_accuracy);
  std::vector<std::string> header = {"Config", "Area [GE]", "Accuracy %"};
  header.insert(header.end(), extra_columns.begin(), extra_columns.end());
  header.push_back("Pareto");
  axc::Table table(std::move(header));
  const auto& front = ranking.pareto_front;
  for (std::size_t i = 0; i < space.size(); ++i) {
    const axc::core::DesignPoint& point = space[i].point;
    std::vector<std::string> row = {point.name, axc::fmt(point.area_ge, 1),
                                    axc::fmt(point.accuracy_percent, 3)};
    extra(row, space[i]);
    const bool on_front =
        std::find(front.begin(), front.end(), i) != front.end();
    row.push_back(on_front ? "*" : "");
    table.add_row(std::move(row));
  }
  table.print(std::cout);
  return ranking;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace axc;

  if (cli::wants_help(argc, argv)) {
    cli::print_usage(kUsage);
    return 0;
  }
  if (argc > 3) cli::usage_error(kUsage, "too many arguments");
  const unsigned width =
      argc >= 2 ? static_cast<unsigned>(
                      cli::require_long(kUsage, "width", argv[1], 2, 16))
                : 11;
  const double min_accuracy =
      argc >= 3 ? cli::require_double(kUsage, "min_accuracy_percent",
                                      argv[2], 0.0, 100.0)
                : 90.0;

  std::cout << "Exploring the " << width << "-bit GeAr space (P >= 1)\n\n";
  const auto space = designspace::explore_gear_space(width, 1, false);
  const core::Ranking gear =
      print_space(space, min_accuracy, {}, [](auto&, const auto&) {});
  if (gear.max_accuracy_index == space.size()) {
    std::cout << "\nNo approximate GeAr configuration at width " << width
              << ".\n";
  } else {
    const core::DesignPoint& best = space[gear.max_accuracy_index].point;
    std::cout << "\nHighest accuracy: " << best.name << " ("
              << fmt(best.accuracy_percent, 3) << "%)\n";
  }
  if (gear.min_area_index == space.size()) {
    std::cout << "No configuration reaches " << min_accuracy
              << "% accuracy — the exact adder (L = N) is the only option.\n";
  } else {
    const core::DesignPoint& pick = space[gear.min_area_index].point;
    std::cout << "Cheapest config with >= " << min_accuracy
              << "% accuracy: " << pick.name << " ("
              << fmt(pick.area_ge, 1) << " GE, "
              << fmt(pick.accuracy_percent, 3) << "%)\n";
  }

  // --- Phase 2: heterogeneous block adders, logic to architecture -------
  std::cout << "\nExploring the " << width
            << "-bit heterogeneous block-adder space (4-bit blocks)\n\n";
  const unsigned block_width = std::min(4u, width);
  const auto hetero =
      designspace::explore_hetero_space(width, block_width, true);
  const std::size_t hpick =
      print_space(hetero, min_accuracy, {"MED"},
                  [](std::vector<std::string>& row, const auto& entry) {
                    row.push_back(fmt(entry.model.med, 4));
                  })
          .min_area_index;
  if (hpick == hetero.size()) {
    std::cout << "\nNo heterogeneous configuration reaches " << min_accuracy
              << "% accuracy; skipping the encoder wiring.\n";
    return 0;
  }
  std::cout << "\nCheapest hetero config with >= " << min_accuracy
            << "% accuracy: " << hetero[hpick].point.name << " ("
            << fmt(hetero[hpick].point.area_ge, 1) << " GE)\n";

  // Widen the winner to SAD-accumulator width (8x8 blocks accumulate up
  // to 64 * 255 < 2^16) and encode the same sequence both ways. An
  // all-accurate winner would make the comparison a no-op, so fall back
  // to the mildest carry-cut config: low magnitude error (small MED) even
  // though its error *rate* fails most accuracy floors.
  std::size_t demo = hpick;
  if (hetero[hpick].approx_blocks == 0) {
    for (std::size_t i = 0; i < hetero.size(); ++i) {
      if (hetero[i].low_kind == designspace::HeteroSubAdder::CarryCut &&
          hetero[i].approx_blocks == 1) {
        demo = i;
        std::cout << "Winner is the exact adder; wiring "
                  << hetero[i].point.name
                  << " (MED " << fmt(hetero[i].model.med, 2)
                  << ") into the encoder instead.\n";
        break;
      }
    }
  }
  const auto widened =
      designspace::widen_hetero_blocks(hetero[demo].blocks, 16);
  const designspace::HeteroSadUnit hetero_sad(widened, 64);
  const accel::SadAccelerator exact_sad(accel::accu_sad(64));
  const video::EncodeStats exact = encode_with(exact_sad);
  const video::EncodeStats approx = encode_with(hetero_sad);
  std::cout << "\nEncoder quality, exact vs " << hetero_sad.name() << ":\n"
            << "  exact  : psnr_db=" << fmt(exact.psnr_db, 4)
            << " bits_per_frame=" << fmt(exact.bits_per_frame, 1) << "\n"
            << "  hetero : psnr_db=" << fmt(approx.psnr_db, 4)
            << " bits_per_frame=" << fmt(approx.bits_per_frame, 1) << "\n"
            << "  psnr_delta_db=" << fmt(exact.psnr_db - approx.psnr_db, 4)
            << "\n";
  return 0;
}
