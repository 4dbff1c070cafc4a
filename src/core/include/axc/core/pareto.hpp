/// \file pareto.hpp
/// Pareto-front extraction and selection over design points (the "Design
/// Space Exploration: Pareto-optimal points" box of Fig. 7). Every swept
/// space (designspace/explorer.hpp) is ranked through rank_space.
#pragma once

#include <functional>
#include <vector>

#include "axc/core/design_point.hpp"

namespace axc::core {

/// An objective to *minimize* over design points.
using Objective = std::function<double(const DesignPoint&)>;

/// Ready-made objectives.
Objective minimize_area();
Objective minimize_power();
Objective minimize_error();  ///< 100 - accuracy_percent

/// Returns the indices (into \p points) of the Pareto-optimal points under
/// the given objectives: a point survives unless some other point is no
/// worse in every objective and strictly better in at least one.
/// Duplicate-valued points all survive. Order follows the input.
std::vector<std::size_t> pareto_front(
    const std::vector<DesignPoint>& points,
    const std::vector<Objective>& objectives);

/// The selection step of Fig. 7 over one swept space: the area/error
/// Pareto front plus the two queries of Table IV / Fig. 4. Indices point
/// into the ranked points; an index equal to their count means none
/// (empty space) or infeasible (nothing meets the accuracy floor).
struct Ranking {
  std::vector<std::size_t> pareto_front;  ///< {area, error}, input order
  std::size_t max_accuracy_index = 0;     ///< first maximum of accuracy
  std::size_t min_area_index = 0;  ///< first minimum area at >= the floor
};

/// Ranks \p points: pareto_front under {minimize_area, minimize_error},
/// the highest-accuracy point, and the smallest-area point with
/// accuracy_percent >= \p min_accuracy.
Ranking rank_points(const std::vector<DesignPoint>& points,
                    double min_accuracy);

/// rank_points over a swept space whose entries carry a DesignPoint
/// `point` (the designspace sweep entries).
template <class Space>
Ranking rank_space(const Space& space, double min_accuracy) {
  std::vector<DesignPoint> points;
  points.reserve(space.size());
  for (const auto& entry : space) points.push_back(entry.point);
  return rank_points(points, min_accuracy);
}

}  // namespace axc::core
