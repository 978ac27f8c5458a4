#ifndef FLEXPATH_EXEC_TUPLE_ROWS_H_
#define FLEXPATH_EXEC_TUPLE_ROWS_H_

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/hash.h"
#include "xml/corpus.h"

namespace flexpath {

/// Binding placeholder for a deleted (null) variable.
inline constexpr NodeRef kNullRef{UINT32_MAX, UINT32_MAX};

inline bool IsNull(NodeRef ref) { return ref == kNullRef; }

/// std::upper_bound over sorted `list` for `key`, as an index, searched
/// from `cursor` (any index in [0, list.size()], typically the previous
/// probe's result). When the entry before the cursor is <= key the answer
/// lies at or after the cursor: gallop forward in steps of 1, 2, 4, ...,
/// then binary-search the last gap, so a probe landing d entries on costs
/// O(log d) compares. When the key stepped back, binary-search the
/// entries before the cursor.
inline size_t UpperBoundFrom(const std::vector<NodeRef>& list, NodeRef key,
                             size_t cursor) {
  assert(cursor <= list.size());
  const auto first = list.begin();
  if (cursor > 0 && key < list[cursor - 1]) {
    return static_cast<size_t>(std::upper_bound(first, first + cursor, key) -
                               first);
  }
  size_t lo = cursor;       // Every entry before lo is <= key.
  size_t hi = list.size();  // Every entry from hi on is > key.
  for (size_t step = 1; lo < hi; step *= 2) {
    const size_t probe = std::min(lo + step, hi) - 1;
    if (key < list[probe]) {
      hi = probe;
      break;
    }
    lo = probe + 1;
  }
  return static_cast<size_t>(
      std::upper_bound(first + lo, first + hi, key) - first);
}

/// A block of intermediate tuples of the join pipeline (DESIGN.md §5):
/// the tuples alive after plan step s, as fixed-stride rows of bindings —
/// one NodeRef per step bound so far, so the stride is s + 1 — with the
/// violation mask and penalty of the optional predicates in parallel
/// arrays. Extending a tuple copies its parent's row from the previous
/// block and appends the candidate; no tuple owns an allocation of its
/// own.
class TupleRows {
 public:
  TupleRows() = default;
  explicit TupleRows(size_t stride) : stride_(stride) {}

  size_t stride() const { return stride_; }
  size_t size() const { return mask_.size(); }

  const NodeRef* row(size_t i) const {
    assert(i < size());
    return bindings_.data() + i * stride_;
  }
  NodeRef at(size_t i, size_t step) const {
    return bindings_[i * stride_ + step];
  }
  uint64_t mask(size_t i) const { return mask_[i]; }
  double penalty(size_t i) const { return penalty_[i]; }

  void reserve(size_t rows) {
    bindings_.reserve(rows * stride_);
    mask_.reserve(rows);
    penalty_.reserve(rows);
  }

  /// Appends the row `parent` (stride() - 1 bindings from the previous
  /// step's block; null at stride 1) extended by `cand`.
  void Append(const NodeRef* parent, NodeRef cand, uint64_t mask,
              double penalty) {
    assert(stride_ > 0 && (parent != nullptr) == (stride_ > 1));
    if (parent != nullptr) {
      bindings_.insert(bindings_.end(), parent, parent + stride_ - 1);
    }
    bindings_.push_back(cand);
    mask_.push_back(mask);
    penalty_.push_back(penalty);
  }

  /// Appends every row of `src`, in order.
  void AppendAll(const TupleRows& src) {
    assert(src.stride_ == stride_);
    bindings_.insert(bindings_.end(), src.bindings_.begin(),
                     src.bindings_.end());
    mask_.insert(mask_.end(), src.mask_.begin(), src.mask_.end());
    penalty_.insert(penalty_.end(), src.penalty_.begin(),
                    src.penalty_.end());
  }

  /// Keeps exactly the rows for which `keep(i)` holds, in order.
  template <typename Keep>
  void Filter(const Keep& keep) {
    size_t out = 0;
    const size_t n = size();
    for (size_t i = 0; i < n; ++i) {
      if (!keep(i)) continue;
      if (out != i) {
        std::copy_n(row(i), stride_, mutable_row(out));
        mask_[out] = mask_[i];
        penalty_[out] = penalty_[i];
      }
      ++out;
    }
    bindings_.resize(out * stride_);
    mask_.resize(out);
    penalty_.resize(out);
  }

  /// Reorders the rows in place so that row j becomes the old row
  /// `order[j]` (`order` must be a permutation of [0, size())). Follows
  /// the permutation's cycles with one spare row, so reordering costs no
  /// second block.
  void Permute(std::vector<uint32_t> order) {
    assert(order.size() == size());
    std::vector<NodeRef> spare(stride_);
    for (size_t start = 0; start < order.size(); ++start) {
      if (order[start] == start) continue;  // Fixed point or placed.
      std::copy_n(row(start), stride_, spare.begin());
      const uint64_t spare_mask = mask_[start];
      const double spare_penalty = penalty_[start];
      size_t j = start;
      for (;;) {
        const size_t src = order[j];
        order[j] = static_cast<uint32_t>(j);
        if (src == start) {
          std::copy_n(spare.begin(), stride_, mutable_row(j));
          mask_[j] = spare_mask;
          penalty_[j] = spare_penalty;
          break;
        }
        std::copy_n(row(src), stride_, mutable_row(j));
        mask_[j] = mask_[src];
        penalty_[j] = penalty_[src];
        j = src;
      }
    }
  }

  /// Bytes the block's three arrays hold (sizes, not capacities).
  size_t Bytes() const {
    return bindings_.size() * sizeof(NodeRef) +
           mask_.size() * sizeof(uint64_t) + penalty_.size() * sizeof(double);
  }

 private:
  NodeRef* mutable_row(size_t i) {
    assert(i < size());
    return bindings_.data() + i * stride_;
  }

  size_t stride_ = 0;
  std::vector<NodeRef> bindings_;  ///< size() rows of stride_ bindings.
  std::vector<uint64_t> mask_;     ///< Violated optional predicates.
  std::vector<double> penalty_;    ///< Σ π over the mask.
};

/// Hash of one NodeRef key. Goes through HashMix64: the packed
/// (doc << 32) | node word is near-identity under NodeRefHash, and a
/// power-of-two table would mask off the doc half, piling every
/// document's equal node ids into the same slots.
inline uint64_t HashNodeRef(NodeRef r) { return HashMix64(PackNodeRef(r)); }

/// Hash of a row's bindings at `steps` (a dominance key), one HashMix64
/// round per binding.
inline uint64_t HashRowKey(const NodeRef* row, const std::vector<int>& steps) {
  uint64_t h = 0;
  for (int s : steps) h = HashMix64(h ^ PackNodeRef(row[s]));
  return h;
}

/// A small open-addressing hash table that groups items by key: each
/// distinct key gets a dense group id, assigned in first-seen order.
/// Keys are not stored — the caller keeps per-group state (a
/// representative row, a NodeRef, a winner) in vectors indexed by group
/// id and answers key comparisons against it. Linear probing over a
/// power-of-two slot array kept at most half full; a slot holds the
/// group id and the high half of its hash, which picks the home slot,
/// rejects most mismatches without calling back, and lets the table
/// double without the keys. Hashes must be well mixed (HashNodeRef,
/// HashRowKey): a power-of-two mask keeps only some of their bits.
class GroupTable {
 public:
  /// `expected_groups` sizes the table up front; it grows past it.
  explicit GroupTable(size_t expected_groups = 0)
      : slots_(std::bit_ceil(std::max<size_t>(16, 2 * expected_groups))) {}

  /// Returns the group of the key hashing to `hash`, adding a new group
  /// (id == size() before the call) when `same_key(group)` holds for no
  /// group already in the probe sequence. `inserted` reports which.
  template <typename SameKey>
  uint32_t FindOrAdd(uint64_t hash, const SameKey& same_key, bool* inserted) {
    const uint32_t tag = static_cast<uint32_t>(hash >> 32);
    const size_t mask = slots_.size() - 1;
    size_t probe = 0;
    for (size_t i = tag & mask;; i = (i + 1) & mask, ++probe) {
      Slot& slot = slots_[i];
      if (slot.group_plus_one == 0) {
        slot.group_plus_one = ++groups_;
        slot.tag = tag;
        max_probe_ = std::max(max_probe_, probe);
        *inserted = true;
        const uint32_t group = groups_ - 1;
        if (2 * size_t{groups_} > slots_.size()) Grow();
        return group;
      }
      if (slot.tag == tag && same_key(slot.group_plus_one - 1)) {
        max_probe_ = std::max(max_probe_, probe);
        *inserted = false;
        return slot.group_plus_one - 1;
      }
    }
  }

  /// Number of groups.
  size_t size() const { return groups_; }

  /// Longest probe sequence any FindOrAdd has walked (0 = home slot).
  size_t max_probe() const { return max_probe_; }

 private:
  struct Slot {
    uint32_t group_plus_one = 0;  ///< 0 = empty.
    uint32_t tag = 0;             ///< High half of the key's hash.
  };

  void Grow() {
    max_probe_ = 0;  // Displacements start over in the new array.
    std::vector<Slot> old(slots_.size() * 2);
    old.swap(slots_);
    const size_t mask = slots_.size() - 1;
    for (const Slot& slot : old) {
      if (slot.group_plus_one == 0) continue;
      size_t i = slot.tag & mask;
      while (slots_[i].group_plus_one != 0) i = (i + 1) & mask;
      slots_[i] = slot;
    }
  }

  std::vector<Slot> slots_;
  uint32_t groups_ = 0;
  size_t max_probe_ = 0;
};

}  // namespace flexpath

#endif  // FLEXPATH_EXEC_TUPLE_ROWS_H_
