#ifndef FLEXPATH_COMMON_LRU_CACHE_H_
#define FLEXPATH_COMMON_LRU_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <unordered_map>
#include <utility>

namespace flexpath {

/// A byte-budgeted least-recently-used cache. Values are held as
/// shared_ptr<const V>, so a reader that obtained an entry keeps it alive
/// even if the cache evicts it a moment later — eviction can never
/// invalidate a handed-out result.
///
/// Not thread-safe: a caller that shares an instance across threads
/// guards it with its own mutex (see IrEngine).
template <typename Key, typename Value, typename Hash = std::hash<Key>>
class LruByteCache {
 public:
  explicit LruByteCache(size_t budget_bytes) : budget_(budget_bytes) {}

  LruByteCache(const LruByteCache&) = delete;
  LruByteCache& operator=(const LruByteCache&) = delete;

  /// Returns the entry and marks it most-recently-used; null on miss.
  std::shared_ptr<const Value> Get(const Key& key) {
    auto it = map_.find(key);
    if (it == map_.end()) return nullptr;
    order_.splice(order_.begin(), order_, it->second);
    return it->second->value;
  }

  /// Inserts (or refreshes) `value`, charged at `bytes`, evicting from
  /// the LRU tail until the budget holds. An entry larger than the whole
  /// budget is refused (returns false) rather than flushing everything
  /// for a value that cannot be kept anyway.
  bool Put(const Key& key, std::shared_ptr<const Value> value, size_t bytes) {
    if (bytes > budget_) return false;
    auto it = map_.find(key);
    if (it != map_.end()) {
      bytes_ -= it->second->bytes;
      it->second->value = std::move(value);
      it->second->bytes = bytes;
      bytes_ += bytes;
      order_.splice(order_.begin(), order_, it->second);
    } else {
      order_.push_front(Entry{key, std::move(value), bytes});
      map_.emplace(key, order_.begin());
      bytes_ += bytes;
    }
    EvictToBudget();
    return true;
  }

  size_t size() const { return map_.size(); }
  size_t bytes() const { return bytes_; }
  size_t budget() const { return budget_; }
  uint64_t evictions() const { return evictions_; }

 private:
  struct Entry {
    Key key;
    std::shared_ptr<const Value> value;
    size_t bytes = 0;
  };

  void EvictToBudget() {
    while (bytes_ > budget_ && !order_.empty()) {
      const Entry& back = order_.back();
      bytes_ -= back.bytes;
      map_.erase(back.key);
      order_.pop_back();
      ++evictions_;
    }
  }

  const size_t budget_;
  size_t bytes_ = 0;
  uint64_t evictions_ = 0;
  std::list<Entry> order_;  ///< Front = most recent.
  std::unordered_map<Key, typename std::list<Entry>::iterator, Hash> map_;
};

}  // namespace flexpath

#endif  // FLEXPATH_COMMON_LRU_CACHE_H_
