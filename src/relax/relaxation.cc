#include "relax/relaxation.h"

#include <deque>
#include <string>
#include <unordered_set>

#include "relax/operators.h"

namespace flexpath {

std::vector<Tpq> RelaxationSpace(const Tpq& q, size_t limit) {
  std::vector<Tpq> out;
  std::unordered_set<std::string> seen;
  std::deque<Tpq> frontier;
  frontier.push_back(q);
  seen.insert(q.CanonicalString());
  while (!frontier.empty() && out.size() < limit) {
    Tpq cur = std::move(frontier.front());
    frontier.pop_front();
    for (const RelaxOp& op : ApplicableOps(cur)) {
      // Deleting the distinguished leaf changes what the query returns —
      // the resulting query no longer *contains* the original, so it is
      // outside the relaxation space of Definition 1 (whose drop sets
      // always retain the distinguished variable).
      if (op.kind == RelaxOpKind::kLeafDeletion &&
          op.var == cur.distinguished()) {
        continue;
      }
      Result<Tpq> next = ApplyOp(cur, op);
      if (!next.ok()) continue;
      std::string key = next->CanonicalString();
      if (seen.insert(std::move(key)).second) {
        frontier.push_back(*std::move(next));
      }
    }
    out.push_back(std::move(cur));
  }
  return out;
}

}  // namespace flexpath
