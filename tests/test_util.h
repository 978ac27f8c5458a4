#ifndef FLEXPATH_TESTS_TEST_UTIL_H_
#define FLEXPATH_TESTS_TEST_UTIL_H_

#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "ir/inverted_index.h"
#include "query/tpq.h"
#include "xml/corpus.h"

namespace flexpath {
namespace testing_util {

/// Builds a corpus from XML strings, asserting parse success.
std::unique_ptr<Corpus> CorpusFromXml(const std::vector<std::string>& docs);

/// The running example of the paper's introduction: a small collection of
/// articles with sections, paragraphs, algorithms and abstracts, designed
/// so the queries Q1-Q6 of Figure 1 all have different answer sets.
/// Article layout (see the .cc for the exact text placement):
///   a1: exact Q1 match (section has algorithm + paragraph w/ keywords)
///   a2: keywords in the section title, not in any paragraph    (Q2 only)
///   a3: algorithm outside the keyword section                  (Q3 only)
///   a4: keywords in a paragraph, no algorithm anywhere         (Q5 only)
///   a5: keywords only in the abstract                          (Q6 only)
///   a6: no keywords at all                                     (no match)
std::unique_ptr<Corpus> ArticleCorpus();

/// Generates a random well-formed document over a small tag alphabet —
/// used by property tests that compare engines. Shape: up to `max_nodes`
/// elements, tags a..f, random text drawn from a tiny vocabulary.
Document RandomDocument(Rng* rng, TagDict* dict, size_t max_nodes);

/// Generates a random tree pattern query over RandomDocument's alphabet:
/// 2..max_nodes nodes (tags a..f), each attached to a random earlier node
/// by a random pc/ad axis, occasional contains predicates over the same
/// tiny vocabulary, and a randomly distinguished variable. Always passes
/// Tpq::Validate(); no wildcards or attribute predicates, so every query
/// is evaluable by both the join pipeline and the naive oracle.
Tpq RandomTpq(Rng* rng, TagDict* dict, size_t max_nodes);

/// Sum of tf of `term` over the elements of the subtree of `context`
/// (inclusive), by a linear scan of the term's postings with interval
/// tests. The engine scores by one merge walk per term instead
/// (IrEngine::AddTermScores); this per-node form is the reference the
/// tests compare that walk against.
uint64_t SubtreeTermFrequency(const InvertedIndex& index,
                              const std::string& term, NodeRef context);

}  // namespace testing_util
}  // namespace flexpath

#endif  // FLEXPATH_TESTS_TEST_UTIL_H_
