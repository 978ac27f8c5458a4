// Property tests for the paper's theorems, beyond the per-module tests:
//   Theorem 1 — uniqueness of the core (random removal orders).
//   Theorem 2 — soundness and completeness of the operator algebra:
//     soundness: every operator composition is a valid relaxation;
//     completeness: every valid relaxation (valid drop set per
//     Definition 1) is reachable by composing operators.
#include <algorithm>
#include <random>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "query/logical.h"
#include "query/xpath_parser.h"
#include "relax/relaxation.h"
#include "tests/containment.h"
#include "tests/logical_reference.h"

namespace flexpath {
namespace {

struct QueryCase {
  const char* name;
  const char* xpath;
};

class TheoremTest : public ::testing::TestWithParam<QueryCase> {
 protected:
  Tpq Parse() {
    Result<Tpq> q = ParseXPath(GetParam().xpath, &dict_);
    EXPECT_TRUE(q.ok()) << q.status().ToString();
    return *std::move(q);
  }
  TagDict dict_;
};

TEST_P(TheoremTest, SpaceMembersAreValidRelaxations) {
  // Soundness: every member of the operator-generated space strictly
  // contains the original (or is the original itself).
  Tpq q = Parse();
  std::vector<Tpq> space = RelaxationSpace(q, 600);
  for (const Tpq& r : space) {
    EXPECT_TRUE(ContainedIn(q, r)) << r.CanonicalString();
    EXPECT_TRUE(r.Validate().ok());
  }
}

TEST_P(TheoremTest, CompletenessOverDropSubsets) {
  // Completeness: for every droppable-predicate subset S of the closure
  // that passes Definition 1, the core of C − S must appear in the
  // operator-generated space. We enumerate all subsets when the
  // droppable set is small, otherwise random subsets.
  Tpq q = Parse();
  const LogicalQuery closure = Closure(ToLogical(q));
  std::vector<Predicate> droppable;
  for (const Predicate& p : closure.preds) {
    if (p.kind == PredKind::kTag) continue;
    droppable.push_back(p);
  }

  std::vector<Tpq> space = RelaxationSpace(q, 4000);
  std::set<std::string> canon;
  for (const Tpq& r : space) canon.insert(r.CanonicalString());

  std::mt19937 gen(4242);
  const size_t n = droppable.size();
  const bool exhaustive = n <= 12;
  const size_t trials = exhaustive ? (size_t{1} << n) : 4000;

  size_t valid_count = 0;
  for (size_t t = 0; t < trials; ++t) {
    uint64_t bits = exhaustive ? t : gen();
    std::set<Predicate> dropped;
    for (size_t i = 0; i < n; ++i) {
      if (bits & (uint64_t{1} << i)) dropped.insert(droppable[i]);
    }
    if (dropped.empty()) continue;
    if (!IsValidRelaxationDrop(q, dropped)) continue;
    ++valid_count;
    LogicalQuery remainder = closure;
    for (const Predicate& p : dropped) remainder.preds.erase(p);
    // Re-apply the automatic value-predicate dropping of Section 3.3.
    std::set<VarId> alive;
    for (const Predicate& p : remainder.preds) {
      if (p.kind == PredKind::kPc || p.kind == PredKind::kAd) {
        alive.insert(p.x);
        alive.insert(p.y);
      }
    }
    if (!alive.empty()) {
      for (auto it = remainder.preds.begin(); it != remainder.preds.end();) {
        if ((it->kind == PredKind::kTag ||
             it->kind == PredKind::kContains) &&
            alive.count(it->x) == 0) {
          it = remainder.preds.erase(it);
        } else {
          ++it;
        }
      }
    }
    Result<Tpq> core = LogicalToTpq(remainder);
    ASSERT_TRUE(core.ok());
    EXPECT_TRUE(canon.count(core->CanonicalString()) > 0)
        << "unreachable relaxation, dropped set of " << dropped.size()
        << " predicates, core: " << core->CanonicalString();
  }
  EXPECT_GT(valid_count, 0u) << "the case exercised no valid drops";
}

TEST_P(TheoremTest, CoreUniqueAcrossRemovalOrders) {
  Tpq q = Parse();
  const LogicalQuery closure = Closure(ToLogical(q));
  const LogicalQuery reference = Core(closure);
  std::mt19937 gen(7);
  for (int trial = 0; trial < 10; ++trial) {
    LogicalQuery work = closure;
    bool changed = true;
    while (changed) {
      changed = false;
      std::vector<Predicate> order(work.preds.begin(), work.preds.end());
      std::shuffle(order.begin(), order.end(), gen);
      for (const Predicate& p : order) {
        if (Derivable(work.preds, p)) {
          work.preds.erase(p);
          changed = true;
          break;
        }
      }
    }
    EXPECT_EQ(work.preds, reference.preds)
        << GetParam().name << " trial " << trial;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Queries, TheoremTest,
    ::testing::Values(
        QueryCase{"chain", "//a/b/c"},
        QueryCase{"chain_ad", "//a//b/c"},
        QueryCase{"bush", "//a[./b and ./c]"},
        QueryCase{"deep_bush", "//a[./b/c and ./d]"},
        QueryCase{"paper_q1",
                  "//article[./section[./algorithm and "
                  "./paragraph[.contains(\"XML\" and \"streaming\")]]]"},
        QueryCase{"two_contains",
                  "//a[./b[.contains(\"x\")] and ./c[.contains(\"y\")]]"}),
    [](const ::testing::TestParamInfo<QueryCase>& param_info) {
      return param_info.param.name;
    });

}  // namespace
}  // namespace flexpath
