// Relaxation explorer: shows the machinery of Sections 3 and 4 on the
// paper's running example — the closure of Q1, the applicable operators,
// the greedy increasing-penalty relaxation schedule, and the data-derived
// penalty of every step. Useful for understanding why a given answer got
// the score it did.
#include <cstdio>

#include "core/flexpath.h"
#include "query/logical.h"
#include "relax/operators.h"
#include "relax/penalty.h"
#include "relax/relaxation.h"
#include "relax/schedule.h"

namespace {

constexpr const char* kDocs[] = {
    R"(<article id="a1"><section><algorithm>join</algorithm>
       <paragraph>XML streaming evaluation</paragraph></section></article>)",
    R"(<article id="a2"><section><title>XML streaming engines</title>
       <algorithm>automaton</algorithm>
       <paragraph>engine survey</paragraph></section></article>)",
    R"(<article id="a3"><appendix><algorithm>twig</algorithm></appendix>
       <section><paragraph>XML streaming background</paragraph>
       </section></article>)",
    R"(<article id="a4"><section>
       <paragraph>XML streaming survey</paragraph></section></article>)",
};

}  // namespace

int main() {
  flexpath::FlexPath fp;
  for (const char* xml : kDocs) {
    if (!fp.AddDocumentXml(xml).ok()) return 1;
  }
  if (!fp.Build().ok()) return 1;

  const char* query =
      "//article[./section[./algorithm and "
      "./paragraph[.contains(\"XML\" and \"streaming\")]]]";
  flexpath::Result<flexpath::Tpq> q = fp.Parse(query);
  if (!q.ok()) {
    std::fprintf(stderr, "%s\n", q.status().ToString().c_str());
    return 1;
  }

  const flexpath::TagDict& dict = std::as_const(fp.corpus()).tags();
  std::printf("query: %s\n", fp.Describe(*q).c_str());

  // 1. Logical form and closure (Figures 2 and 4 of the paper).
  flexpath::LogicalQuery logical = flexpath::ToLogical(*q);
  flexpath::LogicalQuery closure = flexpath::TreeClosure(*q);
  std::printf("\nlogical form (%zu predicates):\n  %s\n",
              logical.preds.size(), logical.ToString(&dict).c_str());
  std::printf("\nclosure (%zu predicates):\n  %s\n", closure.preds.size(),
              closure.ToString(&dict).c_str());

  // 2. Applicable relaxation operators (Section 3.5).
  std::printf("\napplicable operators:\n");
  for (const flexpath::RelaxOp& op : flexpath::ApplicableOps(*q)) {
    std::printf("  %s\n", op.ToString().c_str());
  }

  // 3. The greedy increasing-penalty schedule with data-derived penalties
  //    (Section 4.3.1) — what DPO walks round by round and SSO encodes.
  flexpath::PenaltyModel pm(*q, fp.stats(), fp.ir_engine(),
                            flexpath::Weights{});
  std::printf("\nrelaxation schedule (increasing penalty):\n");
  std::printf("  %-28s %10s %10s  %s\n", "operator", "step pi", "cum pi",
              "relaxed query");
  for (const flexpath::ScheduleEntry& entry :
       flexpath::BuildSchedule(*q, pm)) {
    std::printf("  %-28s %10.4f %10.4f  %s\n", entry.op.ToString().c_str(),
                entry.step_penalty, entry.cumulative_penalty,
                fp.Describe(entry.relaxed).c_str());
  }

  // 4. The distinct relaxation space reachable by composing operators.
  std::vector<flexpath::Tpq> space = flexpath::RelaxationSpace(*q, 64);
  std::printf("\nrelaxation space: %zu distinct queries (capped at 64)\n",
              space.size());

  // 5. Every article, with its score under the flexible semantics.
  flexpath::TopKOptions opts;
  opts.k = 10;
  flexpath::Result<std::vector<flexpath::QueryAnswer>> answers =
      fp.Query(query, opts);
  if (!answers.ok()) return 1;
  std::printf("\ntop answers:\n");
  for (const flexpath::QueryAnswer& a : *answers) {
    std::printf("  ss=%.4f ks=%.4f  %s\n", a.score.ss, a.score.ks,
                a.snippet.c_str());
  }
  return 0;
}
