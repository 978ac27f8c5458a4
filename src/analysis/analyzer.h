#ifndef FLEXPATH_ANALYSIS_ANALYZER_H_
#define FLEXPATH_ANALYSIS_ANALYZER_H_

#include <optional>
#include <string>

#include "analysis/diagnostic.h"
#include "ir/engine.h"
#include "query/tpq.h"
#include "stats/document_stats.h"
#include "stats/element_index.h"
#include "xml/tag_dict.h"

namespace flexpath {

/// Corpus-side inputs of the analysis passes. Every pointer may be null:
/// the analyzer then runs the corpus-independent checks only (FX001 and
/// FX201), which is what pre-Build linting gets. `dict` is used for
/// rendering paths; without it, variables print as bare `$n`.
struct AnalyzerContext {
  const ElementIndex* index = nullptr;  ///< FX101 tag-emptiness.
  const DocumentStats* stats = nullptr;  ///< FX103 dead pc/ad edges.
  IrEngine* ir = nullptr;                ///< FX102 empty contains.
  const TagDict* dict = nullptr;         ///< Path / message rendering.
};

/// The TPQ semantic analyzer ("flexcheck"), read off the tree. Reports a
/// pattern that fails Tpq::Validate (FX001); contains predicates a
/// descendant already implies, whose drop is a no-op relaxation that
/// wastes a DPO round (FX201); and, when `ctx` carries corpus
/// statistics, every proof that the query matches nothing (the FX1xx
/// errors of ProvablyEmptyReason). Diagnostics come in a deterministic
/// order (by code, then variable, then message).
AnalysisReport AnalyzeTpq(const Tpq& q, const AnalyzerContext& ctx);

/// Sound corpus-level emptiness test: returns a reason when the
/// statistics *prove* `q` has no answers on the indexed corpus —
///  - a node's tag occurs in zero elements (subtype-aware via the
///    element index, so sound under a TypeHierarchy);
///  - a contains expression whose satisfying set is empty;
///  - a pc/ad edge between tags with zero such pairs in the corpus
///    (checked only without a TypeHierarchy, where pair counts are
///    exact).
/// The reason is the message of AnalyzeTpq's first FX1xx diagnostic in
/// tree order: both walk the same proofs, and this one stops at the
/// first. nullopt means "cannot prove empty" — never "non-empty".
/// Wildcard nodes and attribute predicates are conservatively ignored.
/// This is the predicate behind TopKOptions::static_prune: a
/// provably-empty relaxation round can be skipped with byte-identical
/// answers.
std::optional<std::string> ProvablyEmptyReason(const Tpq& q,
                                               const AnalyzerContext& ctx);

/// Renders $var plus its spine from the query root, e.g.
/// "$3 (/article//section)". Falls back to "$3" when `q` lacks the
/// variable or `dict` is null.
std::string VarPath(const Tpq& q, VarId var, const TagDict* dict);

}  // namespace flexpath

#endif  // FLEXPATH_ANALYSIS_ANALYZER_H_
