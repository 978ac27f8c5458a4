// The join pipeline's flat tuple blocks and the open-addressing table
// that groups them (exec/tuple_rows.h): grouping and winner choice must
// match a std::unordered_map reference exactly, and probe sequences must
// stay short on the key distribution that defeats a near-identity hash —
// many documents sharing the same node ids. The cursor probe of the
// extend kernel must return std::upper_bound's index from any cursor.
#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <numeric>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "exec/tuple_rows.h"

namespace flexpath {
namespace {

struct Item {
  NodeRef key;
  double penalty;
};

// 40 documents x 1,000 node ids, every (doc, node) pair three times in
// shuffled order, with penalties drawn from a small set so ties are
// common.
std::vector<Item> ClusteredItems() {
  std::vector<Item> items;
  for (int rep = 0; rep < 3; ++rep) {
    for (uint32_t node = 0; node < 1000; ++node) {
      for (uint32_t doc = 0; doc < 40; ++doc) {
        items.push_back(Item{NodeRef{doc, node}, 0.0});
      }
    }
  }
  Rng rng(20261017);
  for (size_t i = items.size(); i > 1; --i) {
    std::swap(items[i - 1], items[rng.Uniform(i)]);
  }
  for (Item& item : items) {
    item.penalty = 0.25 * static_cast<double>(rng.Uniform(4));
  }
  return items;
}

TEST(GroupTableTest, MatchesUnorderedMapOnKeysDifferingOnlyInDoc) {
  const std::vector<Item> items = ClusteredItems();

  // Reference: first-seen on ties, a strictly lower penalty replaces.
  std::unordered_map<NodeRef, size_t, NodeRefHash> ref_winner;
  std::vector<NodeRef> ref_order;  // Keys in first-seen order.
  for (size_t i = 0; i < items.size(); ++i) {
    auto [it, inserted] = ref_winner.emplace(items[i].key, i);
    if (inserted) {
      ref_order.push_back(items[i].key);
    } else if (items[i].penalty < items[it->second].penalty) {
      it->second = i;
    }
  }

  GroupTable table;  // Grows from the minimum size.
  std::vector<NodeRef> key_of;
  std::vector<size_t> winner;
  for (size_t i = 0; i < items.size(); ++i) {
    const NodeRef key = items[i].key;
    bool inserted = false;
    const uint32_t g = table.FindOrAdd(
        HashNodeRef(key), [&](uint32_t group) { return key_of[group] == key; },
        &inserted);
    if (inserted) {
      ASSERT_EQ(g, key_of.size());
      key_of.push_back(key);
      winner.push_back(i);
    } else if (items[i].penalty < items[winner[g]].penalty) {
      winner[g] = i;
    }
  }

  ASSERT_EQ(table.size(), 40000u);
  ASSERT_EQ(key_of, ref_order);  // Group ids follow first-seen order.
  for (size_t g = 0; g < key_of.size(); ++g) {
    EXPECT_EQ(winner[g], ref_winner.at(key_of[g])) << "group " << g;
  }
  // A near-identity hash walks runs of ~40 slots here (every document's
  // copy of a node id lands on the same home slot).
  EXPECT_LE(table.max_probe(), 32u);
}

TEST(GroupTableTest, RowKeysDifferingOnlyInDocStayShort) {
  // Dominance keys over two live steps whose bindings repeat the same
  // node ids in 40 documents.
  TupleRows rows(3);
  for (uint32_t node = 0; node < 1000; ++node) {
    for (uint32_t doc = 0; doc < 40; ++doc) {
      const NodeRef parent[2] = {NodeRef{doc, node}, NodeRef{doc, 7}};
      rows.Append(parent, NodeRef{doc, node + 1}, 0, 0.0);
    }
  }
  const std::vector<int> live = {0, 2};
  GroupTable table(rows.size());
  std::vector<uint32_t> rep;
  for (size_t i = 0; i < rows.size(); ++i) {
    bool inserted = false;
    table.FindOrAdd(
        HashRowKey(rows.row(i), live),
        [&](uint32_t group) {
          return rows.at(rep[group], 0) == rows.at(i, 0) &&
                 rows.at(rep[group], 2) == rows.at(i, 2);
        },
        &inserted);
    ASSERT_TRUE(inserted) << "row " << i;
    rep.push_back(static_cast<uint32_t>(i));
  }
  EXPECT_EQ(table.size(), 40000u);
  EXPECT_LE(table.max_probe(), 32u);
}

TEST(TupleRowsTest, AppendFilterPermute) {
  TupleRows seed(1);
  for (uint32_t n = 0; n < 5; ++n) {
    seed.Append(nullptr, NodeRef{0, n}, n, 0.5 * n);
  }
  TupleRows rows(2);
  for (size_t i = 0; i < seed.size(); ++i) {
    rows.Append(seed.row(i), NodeRef{1, static_cast<uint32_t>(10 + i)},
                seed.mask(i) | 8, seed.penalty(i) + 1.0);
  }
  ASSERT_EQ(rows.size(), 5u);
  EXPECT_EQ(rows.at(3, 0), (NodeRef{0, 3}));
  EXPECT_EQ(rows.at(3, 1), (NodeRef{1, 13}));
  EXPECT_EQ(rows.mask(3), 3u | 8u);
  EXPECT_EQ(rows.penalty(3), 2.5);

  rows.Permute({4, 2, 0, 1, 3});
  const uint32_t permuted[] = {4, 2, 0, 1, 3};
  for (size_t j = 0; j < 5; ++j) {
    EXPECT_EQ(rows.at(j, 0), (NodeRef{0, permuted[j]})) << j;
    EXPECT_EQ(rows.at(j, 1), (NodeRef{1, 10 + permuted[j]})) << j;
    EXPECT_EQ(rows.mask(j), permuted[j] | 8u) << j;
    EXPECT_EQ(rows.penalty(j), 0.5 * permuted[j] + 1.0) << j;
  }

  rows.Filter([&](size_t i) { return rows.at(i, 0).node % 2 == 0; });
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows.at(0, 0), (NodeRef{0, 4}));
  EXPECT_EQ(rows.at(1, 0), (NodeRef{0, 2}));
  EXPECT_EQ(rows.at(2, 0), (NodeRef{0, 0}));
  EXPECT_EQ(rows.at(2, 1), (NodeRef{1, 10}));
}

TEST(TupleRowsTest, PermuteFollowsLongAndShortCycles) {
  Rng rng(7);
  for (size_t n : {1u, 2u, 17u, 256u}) {
    TupleRows rows(1);
    for (uint32_t i = 0; i < n; ++i) {
      rows.Append(nullptr, NodeRef{i, i}, i, static_cast<double>(i));
    }
    std::vector<uint32_t> order(n);
    std::iota(order.begin(), order.end(), 0u);
    for (size_t i = n; i > 1; --i) {
      std::swap(order[i - 1], order[rng.Uniform(i)]);
    }
    rows.Permute(order);
    for (size_t j = 0; j < n; ++j) {
      EXPECT_EQ(rows.at(j, 0), (NodeRef{order[j], order[j]}));
      EXPECT_EQ(rows.mask(j), order[j]);
      EXPECT_EQ(rows.penalty(j), static_cast<double>(order[j]));
    }
  }
}

// A sorted list of `n` refs over `docs` documents whose node ids collide
// across documents and repeat within one.
std::vector<NodeRef> SortedRefs(Rng* rng, size_t n, uint32_t docs) {
  std::vector<NodeRef> list;
  for (size_t i = 0; i < n; ++i) {
    list.push_back(NodeRef{static_cast<uint32_t>(rng->Uniform(docs)),
                           static_cast<uint32_t>(rng->Uniform(16))});
  }
  std::sort(list.begin(), list.end());
  return list;
}

size_t Reference(const std::vector<NodeRef>& list, NodeRef key) {
  return static_cast<size_t>(
      std::upper_bound(list.begin(), list.end(), key) - list.begin());
}

// The probe sequence a chunk of the extend kernel feeds the cursor,
// starting at 0 or at the end: keys that ascend, repeat, step back and
// jump past the last entry, each probe starting from the previous
// result. Every result must be std::upper_bound's.
TEST(UpperBoundFromTest, MatchesUpperBoundAlongKeySequences) {
  Rng rng(20261018);
  for (size_t n : {0u, 1u, 2u, 7u, 64u, 1000u}) {
    for (uint32_t docs : {1u, 3u}) {
      const std::vector<NodeRef> list = SortedRefs(&rng, n, docs);
      // Keys range one document and a few node ids past the list.
      auto key = [&] {
        return NodeRef{static_cast<uint32_t>(rng.Uniform(docs + 1)),
                       static_cast<uint32_t>(rng.Uniform(18))};
      };
      std::vector<NodeRef> ascending(40);
      for (NodeRef& k : ascending) k = key();
      std::sort(ascending.begin(), ascending.end());
      std::vector<NodeRef> keys;
      for (NodeRef k : ascending) keys.insert(keys.end(), {k, k});
      for (int i = 0; i < 40; ++i) keys.push_back(key());
      keys.insert(keys.end(), {NodeRef{docs, 0}, kNullRef, NodeRef{0, 0},
                               kNullRef, kNullRef});
      for (size_t start : {size_t{0}, n}) {
        size_t cursor = start;
        for (size_t i = 0; i < keys.size(); ++i) {
          const size_t got = UpperBoundFrom(list, keys[i], cursor);
          ASSERT_EQ(got, Reference(list, keys[i]))
              << "n=" << n << " docs=" << docs << " start=" << start
              << " probe " << i << " from cursor " << cursor;
          cursor = got;
        }
      }
    }
  }
}

// Every (cursor, key) pair on small lists, whatever the cursor's
// relation to the key.
TEST(UpperBoundFromTest, MatchesUpperBoundFromEveryCursor) {
  Rng rng(7);
  for (size_t n : {0u, 1u, 3u, 9u, 33u}) {
    const std::vector<NodeRef> list = SortedRefs(&rng, n, 2);
    for (size_t cursor = 0; cursor <= n; ++cursor) {
      for (uint32_t doc = 0; doc <= 2; ++doc) {
        for (uint32_t node = 0; node <= 17; ++node) {
          const NodeRef key{doc, node};
          EXPECT_EQ(UpperBoundFrom(list, key, cursor), Reference(list, key))
              << "n=" << n << " cursor=" << cursor << " key " << doc << ":"
              << node;
        }
      }
      EXPECT_EQ(UpperBoundFrom(list, kNullRef, cursor), n);
    }
  }
}

}  // namespace
}  // namespace flexpath
