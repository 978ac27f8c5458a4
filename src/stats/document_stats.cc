#include "stats/document_stats.h"

#include <algorithm>
#include <utility>

namespace flexpath {

namespace {

/// Small dynamic bitset over tag ids (tag alphabets are small — tens of
/// entries for XMark-like corpora).
class TagSet {
 public:
  explicit TagSet(size_t words) : bits_(words, 0) {}

  void Set(TagId t) { bits_[t >> 6] |= uint64_t{1} << (t & 63); }

  void UnionWith(const TagSet& other) {
    for (size_t i = 0; i < bits_.size(); ++i) bits_[i] |= other.bits_[i];
  }

  void Clear() { std::fill(bits_.begin(), bits_.end(), 0); }

  /// Invokes `fn(tag)` for every set tag.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (size_t w = 0; w < bits_.size(); ++w) {
      uint64_t word = bits_[w];
      while (word != 0) {
        const int bit = __builtin_ctzll(word);
        fn(static_cast<TagId>(w * 64 + static_cast<size_t>(bit)));
        word &= word - 1;
      }
    }
  }

 private:
  std::vector<uint64_t> bits_;
};

}  // namespace

DocumentStats::DocumentStats(const Corpus* corpus) : corpus_(corpus) {
  const size_t num_tags = corpus_->tags().size();
  tag_counts_.assign(num_tags, 0);
  const size_t words = (num_tags + 63) / 64;

  // Per open-path entry: the node, the set of its descendant tags seen so
  // far, and the set of its (direct) child tags.
  struct Frame {
    NodeId node;
    TagSet desc;
    TagSet child;
    Frame(NodeId n, size_t w) : node(n), desc(w), child(w) {}
  };

  for (DocId d = 0; d < corpus_->size(); ++d) {
    const Document& doc = corpus_->doc(d);
    std::vector<Frame> stack;
    auto pop = [&]() {
      Frame& top = stack.back();
      const TagId t = doc.tag(top.node);
      // Flush existence counts for the completed node.
      top.desc.ForEach([&](TagId dt) { ++ad_exists_[PairKey(t, dt)]; });
      top.child.ForEach([&](TagId ct) { ++pc_exists_[PairKey(t, ct)]; });
      if (stack.size() > 1) {
        Frame& parent = stack[stack.size() - 2];
        parent.desc.UnionWith(top.desc);
        parent.desc.Set(t);
      }
      stack.pop_back();
    };

    for (NodeId n = 0; n < doc.size(); ++n) {
      const TagId tag = doc.tag(n);
      const NodeId parent = doc.span(n).parent;
      ++tag_counts_[tag];
      while (!stack.empty() && stack.back().node != parent) pop();
      // Pair counts along the full ancestor chain.
      if (parent != kInvalidNode) {
        ++pc_counts_[PairKey(doc.tag(parent), tag)];
        stack.back().child.Set(tag);
        for (NodeId a = parent; a != kInvalidNode; a = doc.span(a).parent) {
          ++ad_counts_[PairKey(doc.tag(a), tag)];
        }
      }
      stack.emplace_back(n, words);
    }
    while (!stack.empty()) pop();
  }
}

DocumentStats::DocumentStats(const Corpus* corpus, Tables tables)
    : corpus_(corpus),
      tag_counts_(std::move(tables.tag_counts)),
      pc_counts_(std::move(tables.pc_counts)),
      ad_counts_(std::move(tables.ad_counts)),
      pc_exists_(std::move(tables.pc_exists)),
      ad_exists_(std::move(tables.ad_exists)) {}

DocumentStats::Tables DocumentStats::ExportTables() const {
  Tables t;
  t.tag_counts = tag_counts_;
  t.pc_counts = pc_counts_;
  t.ad_counts = ad_counts_;
  t.pc_exists = pc_exists_;
  t.ad_exists = ad_exists_;
  return t;
}

uint64_t DocumentStats::TagCount(TagId t) const {
  return t < tag_counts_.size() ? tag_counts_[t] : 0;
}

uint64_t DocumentStats::PcCount(TagId t1, TagId t2) const {
  auto it = pc_counts_.find(PairKey(t1, t2));
  return it == pc_counts_.end() ? 0 : it->second;
}

uint64_t DocumentStats::AdCount(TagId t1, TagId t2) const {
  auto it = ad_counts_.find(PairKey(t1, t2));
  return it == ad_counts_.end() ? 0 : it->second;
}

double DocumentStats::PcFraction(TagId t1, TagId t2) const {
  const uint64_t total = TagCount(t1);
  if (total == 0) return 0.0;
  auto it = pc_exists_.find(PairKey(t1, t2));
  const uint64_t have = it == pc_exists_.end() ? 0 : it->second;
  return static_cast<double>(have) / static_cast<double>(total);
}

double DocumentStats::AdFraction(TagId t1, TagId t2) const {
  const uint64_t total = TagCount(t1);
  if (total == 0) return 0.0;
  auto it = ad_exists_.find(PairKey(t1, t2));
  const uint64_t have = it == ad_exists_.end() ? 0 : it->second;
  return static_cast<double>(have) / static_cast<double>(total);
}

}  // namespace flexpath
