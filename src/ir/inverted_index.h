#ifndef FLEXPATH_IR_INVERTED_INDEX_H_
#define FLEXPATH_IR_INVERTED_INDEX_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "ir/tokenizer.h"
#include "xml/corpus.h"

namespace flexpath {

/// One posting: a direct occurrence of a term in the immediate text of an
/// element, with term frequency and token positions (for phrases).
struct Posting {
  NodeRef node;
  uint32_t tf = 0;
  std::vector<uint32_t> positions;  ///< Token offsets within the element.
};

/// A term's posting list, sorted by NodeRef (global document order).
struct PostingList {
  std::vector<Posting> postings;
};

/// On-demand provider of posting lists. A packed corpus
/// (storage/reader.h) implements this over its delta-coded posting
/// section: a term's df is answered from the term directory without
/// decoding, and a full list is decoded afresh on every call
/// (InvertedIndex keeps what it decodes). Declared here so ir/ stays
/// independent of storage/.
class PostingSource {
 public:
  virtual ~PostingSource() = default;

  /// Looks up `term` in the directory. Returns false for unknown terms;
  /// otherwise fills df (posting count) without decoding.
  virtual bool TermInfo(const std::string& term, uint32_t* df) const = 0;

  /// Full posting list for `term`, freshly decoded, or nullopt for
  /// unknown terms.
  virtual std::optional<PostingList> FindPostings(
      const std::string& term) const = 0;
};

/// Element-granularity inverted index over a corpus. Terms are attributed
/// to the element whose immediate text contains them; subtree-level
/// statistics are derived at query time from the interval encoding.
///
/// Two modes: the in-memory mode tokenizes the whole corpus at build
/// time; the packed mode (PostingSource ctor) starts with no lists and
/// decodes each term's list from the source on its first Find, keeping
/// it for the index's lifetime. Both return identical data — the
/// differential suite asserts byte-identical query answers.
class InvertedIndex {
 public:
  /// Builds the index in one corpus pass. `corpus` must outlive the
  /// index and not change.
  InvertedIndex(const Corpus* corpus, TokenizerOptions opts);

  /// Packed mode: no corpus pass; lookups go to `source`.
  InvertedIndex(const Corpus* corpus, TokenizerOptions opts,
                std::shared_ptr<const PostingSource> source);

  InvertedIndex(const InvertedIndex&) = delete;
  InvertedIndex& operator=(const InvertedIndex&) = delete;

  /// Returns the posting list for a normalized term, or null. The list
  /// lives as long as the index; in packed mode the first Find of a term
  /// decodes it, and every later Find returns the same list. Safe to call
  /// from concurrent query workers.
  const PostingList* Find(const std::string& term) const;

  /// Inverse document frequency of `term` at element granularity:
  /// log(1 + N / (1 + df)), N the corpus's element count. Zero-df terms
  /// still get a finite value. In packed mode df comes from the term
  /// directory — no list decode.
  double Idf(const std::string& term) const;

  const Corpus& corpus() const { return *corpus_; }
  const TokenizerOptions& tokenizer_options() const { return opts_; }

  /// Visits every (term, list) pair in unspecified order. In-memory mode
  /// only (the packed writer serializes from an in-memory index).
  void ForEachTerm(
      const std::function<void(const std::string&, const PostingList&)>& fn)
      const;

 private:
  const Corpus* corpus_;
  TokenizerOptions opts_;
  /// Guards index_, which packed mode fills on each term's first Find.
  /// Lists are never erased or modified once inserted, and the map is
  /// node-based, so a pointer Find hands out stays valid.
  mutable Mutex mu_;
  mutable std::unordered_map<std::string, PostingList> index_
      GUARDED_BY(mu_);
  /// Packed mode: non-null; index_ holds the terms decoded so far.
  std::shared_ptr<const PostingSource> source_;
};

}  // namespace flexpath

#endif  // FLEXPATH_IR_INVERTED_INDEX_H_
