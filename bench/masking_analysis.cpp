/// The "statistical error masking and propagation analysis" the paper
/// calls for in Sec. 6 (Fig. 7), made concrete: per-node masking profiles
/// of accelerator datapaths, showing *where* in a datapath approximation
/// is cheap (errors masked) and where it is expensive (errors propagate).
#include <iostream>

#include "axc/accel/datapath.hpp"
#include "axc/arith/adder.hpp"
#include "axc/designspace/static_adder.hpp"
#include "bench_util.hpp"

int main() {
  using namespace axc;
  using accel::Datapath;
  using accel::OpKind;
  using arith::FullAdderKind;
  bench::banner("Sec. 6 / Fig. 7",
                "Error masking & propagation in accelerator datapaths");

  // --- SAD tree: where does an approximate adder hurt most? -------------
  Datapath sad("sad8");
  accel::build_sad_datapath(
      sad, 8, arith::ripple_adder_factory(FullAdderKind::Apx3, 4));
  std::cout << "\nSAD-8 datapath, every adder bound to ApxFA3 x4; output "
               "MED when only ONE node is approximate:\n";
  Table profile({"Node", "Op", "Implementation", "solo output MED"});
  const auto entries = sad.masking_profile(1 << 14);
  double leaf_total = 0.0;
  int leaf_count = 0;
  for (const auto& entry : entries) {
    const char* op = entry.kind == OpKind::AbsDiff ? "absdiff" : "add";
    profile.add_row({std::to_string(entry.node), op, entry.impl_name,
                     fmt(entry.solo_output_med, 3)});
    if (entry.kind == OpKind::AbsDiff) {
      leaf_total += entry.solo_output_med;
      ++leaf_count;
    }
  }
  profile.print(std::cout);
  const auto total = sad.analyze(1 << 14);
  std::cout << "Whole-datapath MED (all nodes approximate): "
            << fmt(total.mean_error_distance, 3)
            << "  — vs sum of solo MEDs: errors partially cancel across\n"
               "nodes (abs-diff under/over-estimates average out in the "
               "tree).\n";

  // --- Masking by comparison/clamping ------------------------------------
  std::cout << "\nMasking by a downstream min() (the motion-estimation "
               "mechanism that makes Fig. 8 work):\n";
  Table masking({"Datapath", "output MED"});
  const auto loa = [] {
    return std::make_shared<const arith::RippleAdder>(
        designspace::static_adder_cells(designspace::StaticAdderKind::Loa, 8,
                                        4));
  };
  {
    Datapath open_path("sum only");
    const auto a = open_path.add_input(8);
    const auto b = open_path.add_input(8);
    open_path.mark_output(open_path.add_op(OpKind::Add, a, b, loa()));
    masking.add_row({"a + b (LOA x4)",
                     fmt(open_path.analyze(1 << 15).mean_error_distance, 3)});
  }
  for (const unsigned clamp : {255u, 63u, 15u, 3u}) {
    Datapath clamped("clamped");
    const auto a = clamped.add_input(8);
    const auto b = clamped.add_input(8);
    const auto sum = clamped.add_op(OpKind::Add, a, b, loa());
    const auto limit = clamped.add_const(9, clamp);
    clamped.mark_output(clamped.add_op(OpKind::Min, sum, limit));
    masking.add_row({"min(a + b, " + std::to_string(clamp) + ")",
                     fmt(clamped.analyze(1 << 15).mean_error_distance, 3)});
  }
  masking.print(std::cout);
  std::cout << "\nThe tighter the downstream comparison, the more of the\n"
               "adder's error is masked — quantitative backing for the\n"
               "paper's observation that error masking analysis should\n"
               "drive where approximation is inserted.\n";
  return 0;
}
