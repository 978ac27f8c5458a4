#ifndef FLEXPATH_RANK_SCORE_H_
#define FLEXPATH_RANK_SCORE_H_

#include <string>
#include <vector>

#include "query/tpq.h"
#include "relax/penalty.h"
#include "xml/corpus.h"

namespace flexpath {

/// The three general ranking schemes of Section 4.3.2. Structure-first
/// and keyword-first order lexicographically on (ss, ks) / (ks, ss);
/// combined orders on ss + ks. All three satisfy relevance scoring and
/// order invariance (Section 4.2); what each one licenses the top-K
/// optimizations to do is one row of kSchemeTable
/// (rank/scheme_registry.h, DESIGN.md §16).
enum class RankScheme : uint8_t {
  kStructureFirst,
  kKeywordFirst,
  kCombined,
};

const char* RankSchemeName(RankScheme scheme);

/// An answer's two orthogonal scores: structural (how well the answer
/// matches the original pattern: base weight minus the penalties of the
/// violated-but-dropped predicates) and keyword (weighted sum of IR
/// scores of the satisfied contains predicates, each in [0, 1]).
struct AnswerScore {
  double ss = 0.0;
  double ks = 0.0;

  double Combined() const { return ss + ks; }

  friend bool operator==(const AnswerScore&, const AnswerScore&) = default;
};

/// Strict-weak ordering placing better answers first under `scheme`.
/// Ties (exact equality under the scheme) compare false both ways.
bool RanksBefore(const AnswerScore& a, const AnswerScore& b,
                 RankScheme scheme);

/// One ranked query answer: a data node (binding of the distinguished
/// variable) with its scores.
struct RankedAnswer {
  NodeRef node;
  AnswerScore score;
};

/// Order-sensitive 64-bit digest of an answer list: every (doc, node)
/// binding and both score doubles (by bit pattern) are chained in rank
/// order, so two result sets digest equal iff they are byte-identical.
/// The workload-capture log records it per query and flexpath_replay
/// compares it after re-execution — the differential check that a
/// captured workload still reproduces the same answers.
uint64_t AnswersDigest(const std::vector<RankedAnswer>& answers);

/// Σ w(p) over the structural predicates present in the original query
/// (its pc/ad edges) — the paper's Σ w(p_i) term of Section 4.3.2, e.g. 3
/// for Q1 under uniform unit weights.
double BaseStructuralScore(const Tpq& q, const Weights& w);

}  // namespace flexpath

#endif  // FLEXPATH_RANK_SCORE_H_
