// LruCache — generic byte-budgeted LRU used by the hot-source result cache
// (core/result_cache.h).
//
// Design: the textbook LRU. A std::list holds the entries in recency order
// (front = most recent, back = eviction victim) and a std::unordered_map
// indexes each key to its list node; eviction erases from both. The cache
// is touched once per request, so node allocations are noise next to the
// query it saves, and the standard containers keep the hot-path
// FlatHashMap2 free of erase.
//
// Eviction is cost-aware: each entry carries a caller-supplied byte cost
// and entries are evicted from the LRU tail until the running total fits
// the budget. A single entry costlier than the whole budget is refused by
// Put (returns false) rather than thrashing the cache.
//
// Not thread safe — callers hold their own lock (ResultCache wraps one
// mutex around an LruCache plus the singleflight table).

#ifndef PRSIM_UTIL_LRU_CACHE_H_
#define PRSIM_UTIL_LRU_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <list>
#include <unordered_map>
#include <utility>
#include <vector>

namespace prsim {

/// Byte-budgeted LRU map. `Key` must be hashable by std::hash and equality
/// comparable; `Value` may be move-only.
template <typename Key, typename Value>
class LruCache {
 public:
  explicit LruCache(size_t byte_budget) : budget_(byte_budget) {}

  LruCache(const LruCache&) = delete;
  LruCache& operator=(const LruCache&) = delete;

  /// Returns the cached value and promotes the entry to most-recent, or
  /// nullptr on miss. Counts a hit or a miss.
  Value* Get(const Key& key) {
    const auto it = index_.find(key);
    if (it == index_.end()) {
      ++misses_;
      return nullptr;
    }
    ++hits_;
    entries_.splice(entries_.begin(), entries_, it->second);
    return &it->second->value;
  }

  /// Inserts or overwrites `key` with `value`, charging `cost_bytes`
  /// against the budget and evicting from the LRU tail to fit. Returns
  /// false (and caches nothing) when cost_bytes alone exceeds the budget.
  bool Put(const Key& key, Value value, size_t cost_bytes) {
    if (cost_bytes > budget_) return false;
    const auto it = index_.find(key);
    if (it != index_.end()) {
      // Overwrite in place, re-costed and promoted.
      Entry& entry = *it->second;
      bytes_ = bytes_ - entry.cost + cost_bytes;
      entry.value = std::move(value);
      entry.cost = cost_bytes;
      entries_.splice(entries_.begin(), entries_, it->second);
    } else {
      entries_.push_front(Entry{key, std::move(value), cost_bytes});
      index_.emplace(key, entries_.begin());
      bytes_ += cost_bytes;
    }
    // The front entry fits by the precondition, so the loop stops before
    // reaching it.
    while (bytes_ > budget_) {
      const Entry& victim = entries_.back();
      bytes_ -= victim.cost;
      index_.erase(victim.key);
      entries_.pop_back();
      ++evictions_;
    }
    return true;
  }

  /// Drops every entry. Counters (hits/misses/evictions) are preserved;
  /// bytes and size go to zero.
  void Clear() {
    entries_.clear();
    index_.clear();
    bytes_ = 0;
  }

  size_t size() const { return entries_.size(); }
  size_t bytes() const { return bytes_; }
  size_t budget() const { return budget_; }
  uint64_t hits() const { return hits_; }
  uint64_t misses() const { return misses_; }
  uint64_t evictions() const { return evictions_; }

  /// Keys ordered most-recent first. O(size); for tests and debugging.
  std::vector<Key> KeysByRecency() const {
    std::vector<Key> keys;
    keys.reserve(entries_.size());
    for (const Entry& entry : entries_) keys.push_back(entry.key);
    return keys;
  }

 private:
  struct Entry {
    Key key;
    Value value;
    size_t cost = 0;
  };

  const size_t budget_;
  std::list<Entry> entries_;
  std::unordered_map<Key, typename std::list<Entry>::iterator> index_;
  size_t bytes_ = 0;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
  uint64_t evictions_ = 0;
};

}  // namespace prsim

#endif  // PRSIM_UTIL_LRU_CACHE_H_
