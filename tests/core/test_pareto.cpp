#include "axc/core/pareto.hpp"

#include <gtest/gtest.h>

#include <algorithm>

namespace axc::core {
namespace {

std::vector<DesignPoint> sample_points() {
  // (area, power, accuracy)
  return {
      {"cheap_bad", 1.0, 10.0, 80.0},    // pareto (min area, min power)
      {"mid", 2.0, 20.0, 90.0},          // pareto
      {"exact", 4.0, 40.0, 100.0},       // pareto (max accuracy)
      {"dominated", 3.0, 30.0, 85.0},    // worse than "mid" everywhere
      {"odd", 1.5, 35.0, 95.0},          // pareto (cheap area, high acc)
  };
}

bool contains(const std::vector<std::size_t>& v, std::size_t x) {
  return std::find(v.begin(), v.end(), x) != v.end();
}

TEST(Pareto, FrontContainsExtremesAndDropsDominated) {
  const auto points = sample_points();
  const auto front = pareto_front(
      points, {minimize_area(), minimize_power(), minimize_error()});
  EXPECT_TRUE(contains(front, 0));
  EXPECT_TRUE(contains(front, 1));
  EXPECT_TRUE(contains(front, 2));
  EXPECT_FALSE(contains(front, 3));
  EXPECT_TRUE(contains(front, 4));
}

TEST(Pareto, SingleObjectiveKeepsOnlyMinima) {
  const auto points = sample_points();
  const auto front = pareto_front(points, {minimize_area()});
  ASSERT_EQ(front.size(), 1u);
  EXPECT_EQ(points[front[0]].name, "cheap_bad");
}

TEST(Pareto, DuplicatePointsAllSurvive) {
  std::vector<DesignPoint> points = {{"a", 1.0, 1.0, 90.0},
                                     {"b", 1.0, 1.0, 90.0}};
  const auto front =
      pareto_front(points, {minimize_area(), minimize_error()});
  EXPECT_EQ(front.size(), 2u);
}

TEST(Pareto, FrontOfEmptySetIsEmpty) {
  EXPECT_TRUE(pareto_front({}, {minimize_area()}).empty());
}

TEST(Pareto, NoObjectivesRejected) {
  EXPECT_THROW(pareto_front(sample_points(), {}), std::invalid_argument);
}

// Property: no front member dominates another front member.
TEST(Pareto, FrontIsMutuallyNonDominating) {
  const auto points = sample_points();
  const std::vector<Objective> objectives = {minimize_area(),
                                             minimize_power(),
                                             minimize_error()};
  const auto front = pareto_front(points, objectives);
  for (const std::size_t i : front) {
    for (const std::size_t j : front) {
      if (i == j) continue;
      bool no_worse = true, strictly = false;
      for (const auto& obj : objectives) {
        if (obj(points[j]) > obj(points[i])) no_worse = false;
        if (obj(points[j]) < obj(points[i])) strictly = true;
      }
      EXPECT_FALSE(no_worse && strictly)
          << points[j].name << " dominates " << points[i].name;
    }
  }
}

TEST(SelectMinObjective, RespectsAccuracyFloor) {
  const auto points = sample_points();
  const std::size_t pick = rank_points(points, 90.0).min_area_index;
  ASSERT_LT(pick, points.size());
  EXPECT_EQ(points[pick].name, "odd");  // cheapest with >= 90%
}

TEST(SelectMinObjective, InfeasibleReturnsEnd) {
  const auto points = sample_points();
  EXPECT_EQ(rank_points(points, 100.1).min_area_index, points.size());
}

}  // namespace
}  // namespace axc::core
