#include "axc/core/pareto.hpp"

#include "axc/common/require.hpp"

namespace axc::core {

Objective minimize_area() {
  return [](const DesignPoint& p) { return p.area_ge; };
}

Objective minimize_power() {
  return [](const DesignPoint& p) { return p.power_nw; };
}

Objective minimize_error() {
  return [](const DesignPoint& p) { return 100.0 - p.accuracy_percent; };
}

std::vector<std::size_t> pareto_front(
    const std::vector<DesignPoint>& points,
    const std::vector<Objective>& objectives) {
  require(!objectives.empty(), "pareto_front: need at least one objective");
  // Precompute the objective matrix once; O(n^2 m) dominance scan is fine
  // for component libraries (tens to hundreds of points).
  std::vector<std::vector<double>> value(points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    value[i].reserve(objectives.size());
    for (const Objective& obj : objectives) value[i].push_back(obj(points[i]));
  }

  std::vector<std::size_t> front;
  for (std::size_t i = 0; i < points.size(); ++i) {
    bool dominated = false;
    for (std::size_t j = 0; j < points.size() && !dominated; ++j) {
      if (i == j) continue;
      bool no_worse = true;
      bool strictly_better = false;
      for (std::size_t m = 0; m < objectives.size(); ++m) {
        if (value[j][m] > value[i][m]) {
          no_worse = false;
          break;
        }
        if (value[j][m] < value[i][m]) strictly_better = true;
      }
      dominated = no_worse && strictly_better;
    }
    if (!dominated) front.push_back(i);
  }
  return front;
}

Ranking rank_points(const std::vector<DesignPoint>& points,
                    double min_accuracy) {
  const std::size_t none = points.size();
  std::size_t best_accuracy = none;
  std::size_t best_area = none;
  for (std::size_t i = 0; i < points.size(); ++i) {
    if (best_accuracy == none ||
        points[i].accuracy_percent > points[best_accuracy].accuracy_percent) {
      best_accuracy = i;
    }
    if (points[i].accuracy_percent >= min_accuracy &&
        (best_area == none || points[i].area_ge < points[best_area].area_ge)) {
      best_area = i;
    }
  }
  return {pareto_front(points, {minimize_area(), minimize_error()}),
          best_accuracy, best_area};
}

}  // namespace axc::core
