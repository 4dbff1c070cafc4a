/// Regenerates Table IV: accuracy (from the analytic error model) and area
/// for every valid (R, P) configuration of an 11-bit GeAr adder.
///
/// The paper reports area in Virtex-6 LUTs; we report gate equivalents of
/// the structural netlist (same role, different unit — EXPERIMENTS.md).
/// The two selection queries quoted in the text are answered at the end.
#include <iostream>

#include "axc/core/pareto.hpp"
#include "axc/designspace/explorer.hpp"
#include "axc/error/evaluate.hpp"
#include "axc/error/gear_model.hpp"
#include "bench_util.hpp"

int main() {
  using namespace axc;
  bench::banner("Table IV", "11-bit GeAr design space: accuracy & area");

  const auto space = designspace::explore_gear_space(11, 1, false);
  Table table({"Config", "R", "P", "k", "Accuracy % (model)",
               "Accuracy % (exhaustive)", "Area [GE]"});
  for (const auto& entry : space) {
    const arith::GeArAdder adder(entry.config);
    error::EvalOptions opts;
    opts.max_exhaustive_bits = 22;
    const auto truth = error::evaluate_adder(adder, opts);
    table.add_row({entry.config.name(), std::to_string(entry.config.r),
                   std::to_string(entry.config.p),
                   std::to_string(entry.config.num_subadders()),
                   fmt(entry.point.accuracy_percent, 3),
                   fmt(truth.accuracy_percent(), 3),
                   fmt(entry.point.area_ge, 1)});
  }
  table.print(std::cout);

  const core::Ranking ranking = core::rank_space(space, 90.0);
  std::cout << "\nSelection queries from the paper's text:\n"
            << "  max accuracy           -> "
            << space[ranking.max_accuracy_index].point.name
            << "  (paper: GeAr(R=1,P=9))\n"
            << "  min area, >= 90%% acc  -> "
            << space[ranking.min_area_index].point.name
            << "  (paper: GeAr(R=3,P=5); our GE area model also admits\n"
            << "   GeAr(R=4,P=3) — see EXPERIMENTS.md)\n";
  return 0;
}
