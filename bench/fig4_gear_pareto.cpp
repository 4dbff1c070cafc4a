/// Regenerates Fig. 4: the area/accuracy design space of the 11-bit GeAr
/// adder as a scatter (one tag per R value, as in the paper's legend),
/// plus the Pareto front and the constraint query discussed in the text.
#include <iostream>

#include "axc/core/pareto.hpp"
#include "axc/designspace/explorer.hpp"
#include "bench_util.hpp"

int main() {
  using namespace axc;
  bench::banner("Fig. 4", "Area/accuracy design space, 11-bit GeAr adder");

  const auto space = designspace::explore_gear_space(11, 1, false);
  std::vector<bench::ScatterPoint> points;
  points.reserve(space.size());
  for (const auto& entry : space) {
    // Tag per R: '1'..'5', mirroring the paper's per-R symbols.
    points.push_back({entry.point.area_ge, entry.point.accuracy_percent,
                      static_cast<char>('0' + entry.config.r)});
  }
  std::cout << "\nScatter (digit = R of the configuration):\n";
  bench::ascii_scatter(std::cout, points, "area [GE]", "accuracy [%]");

  const core::Ranking ranking = core::rank_space(space, 90.0);
  Table table({"Pareto-optimal config", "Area [GE]", "Accuracy %"});
  for (const std::size_t i : ranking.pareto_front) {
    const core::DesignPoint& point = space[i].point;
    table.add_row({point.name, fmt(point.area_ge, 1),
                   fmt(point.accuracy_percent, 3)});
  }
  std::cout << "\nPareto front (min area, max accuracy):\n";
  table.print(std::cout);

  std::cout << "\nConstraint query \"lowest-area config with >= 90% "
               "accuracy\" -> "
            << space[ranking.min_area_index].point.name << " (paper discusses GeAr(R=3,P=5))\n";
  return 0;
}
