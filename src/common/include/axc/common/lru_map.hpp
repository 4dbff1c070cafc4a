/// \file lru_map.hpp
/// A fixed-capacity map that evicts its least recently used entry — the
/// one bounding mechanism behind the library's process-wide memo caches
/// (compiled tapes, characterization records, truth tables, numeric
/// records). Not synchronized: each cache guards its map with its own
/// mutex.
#pragma once

#include <cstddef>
#include <list>
#include <unordered_map>
#include <utility>

namespace axc {

template <class Key, class Value, std::size_t Capacity>
class LruMap {
  static_assert(Capacity >= 1, "LruMap: capacity must be at least 1");

 public:
  /// The value stored under \p key, now the most recently used; nullptr
  /// on a miss. The pointer stays valid until the next insert() or
  /// clear().
  const Value* find(const Key& key) {
    const auto it = index_.find(key);
    if (it == index_.end()) return nullptr;
    entries_.splice(entries_.begin(), entries_, it->second);
    return &it->second->second;
  }

  /// Stores \p value under \p key unless the key is present (then the
  /// present value is kept, as std::unordered_map::emplace does), evicting
  /// the least recently used entry when the map is full. Returns the
  /// stored value, valid as for find().
  const Value& insert(const Key& key, Value value) {
    if (const Value* present = find(key)) return *present;
    if (entries_.size() == Capacity) {
      index_.erase(entries_.back().first);
      entries_.pop_back();
    }
    entries_.emplace_front(key, std::move(value));
    index_.emplace(key, entries_.begin());
    return entries_.front().second;
  }

  std::size_t size() const { return entries_.size(); }

  void clear() {
    index_.clear();
    entries_.clear();
  }

 private:
  using Entries = std::list<std::pair<Key, Value>>;
  Entries entries_;  ///< most recently used first
  std::unordered_map<Key, typename Entries::iterator> index_;
};

}  // namespace axc
