#include "rank/score.h"

#include "common/hash.h"

namespace flexpath {

const char* RankSchemeName(RankScheme scheme) {
  switch (scheme) {
    case RankScheme::kStructureFirst:
      return "structure-first";
    case RankScheme::kKeywordFirst:
      return "keyword-first";
    case RankScheme::kCombined:
      return "combined";
  }
  return "unknown";
}

bool RanksBefore(const AnswerScore& a, const AnswerScore& b,
                 RankScheme scheme) {
  switch (scheme) {
    case RankScheme::kStructureFirst:
      if (a.ss != b.ss) return a.ss > b.ss;
      return a.ks > b.ks;
    case RankScheme::kKeywordFirst:
      if (a.ks != b.ks) return a.ks > b.ks;
      return a.ss > b.ss;
    case RankScheme::kCombined:
      return a.Combined() > b.Combined();
  }
  return false;
}

double BaseStructuralScore(const Tpq& q, const Weights& w) {
  double total = 0.0;
  for (VarId v : q.Vars()) {
    const VarId parent = q.Parent(v);
    if (parent == kInvalidVar) continue;
    const Predicate p = q.AxisOf(v) == Axis::kChild ? Predicate::Pc(parent, v)
                                                    : Predicate::Ad(parent, v);
    total += w.Of(p);
  }
  return total;
}

uint64_t AnswersDigest(const std::vector<RankedAnswer>& answers) {
  // Seed with the length so a prefix never digests equal to the full set.
  uint64_t h = HashCombine(0x666c65785061746bULL,
                           static_cast<uint64_t>(answers.size()));
  for (const RankedAnswer& a : answers) {
    h = HashCombine(h, static_cast<uint64_t>(a.node.doc));
    h = HashCombine(h, static_cast<uint64_t>(a.node.node));
    h = HashCombine(h, a.score.ss);
    h = HashCombine(h, a.score.ks);
  }
  return h;
}

}  // namespace flexpath
