#include "relax/schedule.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>

namespace flexpath {

namespace {

using Bits = std::vector<uint64_t>;

/// The tree shape a closure is read off: per dense variable index, its
/// parent (-1 for the root), whether it is alive, whether its parent
/// edge is pc, and the (expression, carrier) pair of every contains
/// predicate. Dense indexes are positions in the original query's Vars().
struct TreeState {
  std::vector<int> parent;
  std::vector<uint8_t> alive;
  std::vector<uint8_t> child_edge;
  std::vector<std::pair<int, int>> carriers;
};

/// The original query's closure, indexed once: its predicates in
/// Predicate order (the order a std::set<Predicate> iterates in), π per
/// index, and tables from tree positions to indexes. A relaxed query's
/// closure is then a bitset over those indexes, filled from a TreeState
/// the way TreeClosure reads a Tpq.
class ClosureIndex {
 public:
  ClosureIndex(const Tpq& q, const PenaltyModel& pm) : vars_(q.Vars()) {
    const LogicalQuery closure = TreeClosure(q);
    preds_.assign(closure.preds.begin(), closure.preds.end());
    for (const auto& entry : closure.exprs) keys_.push_back(entry.first);
    const size_t n = vars_.size();
    tag_.assign(n, -1);
    pc_.assign(n * n, -1);
    ad_.assign(n * n, -1);
    contains_.assign(keys_.size() * n, -1);
    all_.assign((preds_.size() + 63) / 64, 0);
    for (size_t i = 0; i < preds_.size(); ++i) {
      const Predicate& p = preds_[i];
      const int idx = static_cast<int>(i);
      switch (p.kind) {
        case PredKind::kTag: tag_[Dense(p.x)] = idx; break;
        case PredKind::kPc: pc_[Dense(p.x) * n + Dense(p.y)] = idx; break;
        case PredKind::kAd: ad_[Dense(p.x) * n + Dense(p.y)] = idx; break;
        case PredKind::kContains:
          contains_[ExprId(p.expr_key) * n + Dense(p.x)] = idx;
          break;
      }
      pi_.push_back(pm.Of(p));
      all_[i / 64] |= uint64_t{1} << (i % 64);
    }
  }

  const Bits& all() const { return all_; }

  size_t Dense(VarId v) const {
    return static_cast<size_t>(std::find(vars_.begin(), vars_.end(), v) -
                               vars_.begin());
  }

  int ExprId(const std::string& key) const {
    return static_cast<int>(std::find(keys_.begin(), keys_.end(), key) -
                            keys_.begin());
  }

  TreeState StateOf(const Tpq& q) const {
    const size_t n = vars_.size();
    TreeState s{std::vector<int>(n, -1), std::vector<uint8_t>(n, 0),
                std::vector<uint8_t>(n, 0), {}};
    for (VarId v : q.Vars()) {
      const size_t d = Dense(v);
      s.alive[d] = 1;
      const VarId p = q.Parent(v);
      if (p != kInvalidVar) {
        s.parent[d] = static_cast<int>(Dense(p));
        s.child_edge[d] = q.AxisOf(v) == Axis::kChild;
      }
      for (const FtExpr& e : q.node(v).contains) {
        s.carriers.emplace_back(ExprId(e.ToString()), static_cast<int>(d));
      }
    }
    return s;
  }

  /// Sets the bit of every original-closure predicate that holds in the
  /// closure of the tree `s` describes.
  void Remaining(const TreeState& s, Bits* bits) const {
    bits->assign(all_.size(), 0);
    const size_t n = vars_.size();
    auto set = [bits](int idx) {
      if (idx >= 0) (*bits)[idx / 64] |= uint64_t{1} << (idx % 64);
    };
    for (size_t d = 0; d < n; ++d) {
      if (!s.alive[d]) continue;
      set(tag_[d]);
      if (s.parent[d] < 0) continue;
      if (s.child_edge[d]) set(pc_[static_cast<size_t>(s.parent[d]) * n + d]);
      for (int a = s.parent[d]; a >= 0; a = s.parent[static_cast<size_t>(a)]) {
        set(ad_[static_cast<size_t>(a) * n + d]);
      }
    }
    for (const auto& [expr, carrier] : s.carriers) {
      for (int a = carrier; a >= 0; a = s.parent[static_cast<size_t>(a)]) {
        set(contains_[static_cast<size_t>(expr) * n +
                      static_cast<size_t>(a)]);
      }
    }
  }

  /// Σ π over the set bits, in ascending index order — the order of a
  /// std::set<Predicate>, which the fixpoint reference schedule in the
  /// tests sums in, so the doubles are bit-identical to it.
  double Penalty(const Bits& bits) const {
    double total = 0.0;
    for (size_t w = 0; w < bits.size(); ++w) {
      for (uint64_t word = bits[w]; word != 0; word &= word - 1) {
        total += pi_[w * 64 + static_cast<size_t>(std::countr_zero(word))];
      }
    }
    return total;
  }

  std::set<Predicate> Materialize(const Bits& bits) const {
    std::set<Predicate> out;
    for (size_t w = 0; w < bits.size(); ++w) {
      for (uint64_t word = bits[w]; word != 0; word &= word - 1) {
        out.insert(out.end(),
                   preds_[w * 64 + static_cast<size_t>(std::countr_zero(word))]);
      }
    }
    return out;
  }

 private:
  std::vector<VarId> vars_;
  std::vector<std::string> keys_;
  std::vector<Predicate> preds_;
  std::vector<double> pi_;
  std::vector<int> tag_, pc_, ad_, contains_;
  Bits all_;
};

/// Applies `op` to the tree `s` describes, as ApplyOp does to a Tpq.
void ApplyToState(const ClosureIndex& index, const RelaxOp& op,
                  TreeState* s) {
  const size_t d = index.Dense(op.var);
  const int parent = s->parent[d];
  switch (op.kind) {
    case RelaxOpKind::kAxisGeneralization:
      s->child_edge[d] = 0;
      break;
    case RelaxOpKind::kLeafDeletion:
      s->alive[d] = 0;
      for (auto& [expr, carrier] : s->carriers) {
        if (carrier == static_cast<int>(d)) carrier = parent;
      }
      break;
    case RelaxOpKind::kSubtreePromotion:
      s->parent[d] = s->parent[static_cast<size_t>(parent)];
      s->child_edge[d] = 0;
      break;
    case RelaxOpKind::kContainsPromotion: {
      const std::pair<int, int> site{index.ExprId(op.expr_key),
                                     static_cast<int>(d)};
      auto it = std::find(s->carriers.begin(), s->carriers.end(), site);
      if (it != s->carriers.end()) it->second = parent;
      break;
    }
  }
}

}  // namespace

std::vector<ScheduleEntry> BuildSchedule(const Tpq& q,
                                         const PenaltyModel& pm) {
  const ClosureIndex index(q, pm);
  std::vector<ScheduleEntry> out;
  Tpq current = q;
  Bits dropped_so_far(index.all().size(), 0);
  TreeState candidate;
  Bits remaining, cumulative, fresh;

  for (;;) {
    // Evaluate every applicable operator's marginal drop set.
    const TreeState state = index.StateOf(current);
    std::optional<RelaxOp> best_op;
    Bits best_cumulative;
    double best_marginal = 0.0;
    for (const RelaxOp& op : ApplicableOps(current)) {
      if (op.kind == RelaxOpKind::kLeafDeletion &&
          op.var == current.distinguished()) {
        continue;  // would change the answer node
      }
      candidate = state;
      ApplyToState(index, op, &candidate);
      index.Remaining(candidate, &remaining);
      // Cumulative drop set relative to the *original* closure.
      cumulative = index.all();
      fresh.assign(cumulative.size(), 0);
      bool grows = false;
      for (size_t w = 0; w < cumulative.size(); ++w) {
        cumulative[w] &= ~remaining[w];
        fresh[w] = cumulative[w] & ~dropped_so_far[w];
        grows |= fresh[w] != 0;
      }
      if (!grows) continue;  // no new predicate dropped
      const double marginal = index.Penalty(fresh);
      if (!best_op || marginal < best_marginal ||
          (marginal == best_marginal && op < *best_op)) {
        best_op = op;
        best_cumulative = cumulative;
        best_marginal = marginal;
      }
    }
    if (!best_op) break;
    Result<Tpq> relaxed = ApplyOp(current, *best_op);
    if (!relaxed.ok()) break;  // ApplicableOps only yields applicable ops

    ScheduleEntry entry;
    entry.op = *std::move(best_op);
    entry.relaxed = *std::move(relaxed);
    entry.dropped = index.Materialize(best_cumulative);
    entry.step_penalty = best_marginal;
    entry.cumulative_penalty =
        (out.empty() ? 0.0 : out.back().cumulative_penalty) + best_marginal;
    current = entry.relaxed;
    dropped_so_far = std::move(best_cumulative);
    out.push_back(std::move(entry));
  }
  return out;
}

}  // namespace flexpath
