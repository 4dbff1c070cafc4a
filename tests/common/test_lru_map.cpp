#include "axc/common/lru_map.hpp"

#include <gtest/gtest.h>

#include <string>

namespace axc {
namespace {

TEST(LruMap, CapacityPlusOneKeysEvictTheLeastRecentlyUsed) {
  LruMap<int, std::string, 3> map;
  for (int key = 0; key <= 3; ++key) {
    map.insert(key, "v" + std::to_string(key));
    EXPECT_LE(map.size(), 3u);
  }
  EXPECT_EQ(map.size(), 3u);
  EXPECT_EQ(map.find(0), nullptr);
  for (int key = 1; key <= 3; ++key) {
    ASSERT_NE(map.find(key), nullptr);
    EXPECT_EQ(*map.find(key), "v" + std::to_string(key));
  }
}

TEST(LruMap, FindRefreshesRecency) {
  LruMap<int, int, 2> map;
  map.insert(1, 10);
  map.insert(2, 20);
  ASSERT_NE(map.find(1), nullptr);  // 2 is now the least recently used
  map.insert(3, 30);
  EXPECT_NE(map.find(1), nullptr);
  EXPECT_EQ(map.find(2), nullptr);
  EXPECT_NE(map.find(3), nullptr);
}

TEST(LruMap, InsertKeepsThePresentValue) {
  LruMap<int, int, 2> map;
  EXPECT_EQ(map.insert(1, 10), 10);
  EXPECT_EQ(map.insert(1, 11), 10);
  EXPECT_EQ(map.size(), 1u);
  map.clear();
  EXPECT_EQ(map.size(), 0u);
  EXPECT_EQ(map.find(1), nullptr);
  EXPECT_EQ(map.insert(1, 12), 12);
}

}  // namespace
}  // namespace axc
