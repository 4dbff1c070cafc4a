/// Example: export the component library as synthesizable structural
/// Verilog — the HDL artifact the paper's open-source release ships next
/// to the behavioural models.
#include <filesystem>
#include <iostream>
#include <string>

#include "axc/designspace/static_adder.hpp"
#include "axc/logic/adder_netlists.hpp"
#include "axc/logic/mul_netlists.hpp"
#include "axc/logic/verilog.hpp"
#include "cli_util.hpp"

namespace {

constexpr const char* kUsage =
    "usage: rtl_export [output_dir]\n"
    "\n"
    "Writes one structural-Verilog module per library component into\n"
    "<output_dir> (default ./rtl), creating the directory if needed.\n"
    "\n"
    "options:\n"
    "  -h, --help    this text\n";

}  // namespace

int main(int argc, char** argv) {
  using namespace axc;

  if (cli::wants_help(argc, argv)) {
    cli::print_usage(kUsage);
    return 0;
  }
  if (argc > 2) cli::usage_error(kUsage, "too many arguments");
  if (argc == 2 && argv[1][0] == '-') {
    cli::usage_error(kUsage, "unknown option '" + std::string(argv[1]) + "'");
  }
  const std::string dir = argc == 2 ? argv[1] : "rtl";

  try {
    std::filesystem::create_directories(dir);

    int files = 0;
    const auto emit = [&](const logic::Netlist& netlist,
                          const std::string& file) {
      const std::string path = dir + "/" + file + ".v";
      logic::write_verilog_file(netlist, path, file);
      std::cout << "  " << path << "  (" << netlist.gate_count()
                << " gates, " << netlist.area_ge() << " GE)\n";
      ++files;
    };

    std::cout << "Exporting the approximate component library to " << dir
              << "/:\n";
    // Table III full adders.
    for (const arith::FullAdderKind kind : arith::kAllFullAdderKinds) {
      emit(logic::full_adder_netlist(kind),
           std::string(arith::full_adder_name(kind)));
    }
    // Fig. 5 multiplier blocks (plain + configurable).
    for (const arith::Mul2x2Kind kind : arith::kAllMul2x2Kinds) {
      emit(logic::mul2x2_netlist(kind),
           std::string(arith::mul2x2_name(kind)));
      emit(logic::cfg_mul2x2_netlist(kind),
           "Cfg" + std::string(arith::mul2x2_name(kind)));
    }
    // Representative multi-bit blocks.
    emit(logic::gear_adder_netlist({16, 4, 4}), "gear_16_4_4");
    emit(logic::gear_adder_netlist({8, 2, 2}), "gear_8_2_2");
    {
      const std::vector<arith::FullAdderKind> cells =
          arith::RippleAdder::lsb_approximated(8, arith::FullAdderKind::Apx3,
                                               4)
              .cells();
      emit(logic::ripple_adder_netlist(cells), "ripple8_apxfa3_x4");
    }
    emit(logic::ripple_adder_netlist(designspace::static_adder_cells(
             designspace::StaticAdderKind::Loa, 16, 8)),
         "loa_16_8");
    emit(logic::etai_adder_netlist(16, 8), "etai_16_8");
    emit(logic::multiplier_netlist(
             {8, arith::Mul2x2Kind::Ours, arith::FullAdderKind::Apx3, 4}),
         "mul8x8_ours_apxfa3");

    std::cout << files
              << " modules written. Feed them to any synthesis or\n"
                 "simulation tool; ports and gate count are in each header.\n";
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
