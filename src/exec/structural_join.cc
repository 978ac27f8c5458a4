#include "exec/structural_join.h"

namespace flexpath {

namespace {

/// Global-order key for merging.
struct Pos {
  DocId doc;
  uint32_t start;

  friend auto operator<=>(const Pos&, const Pos&) = default;
};

Pos PosOf(const Corpus& corpus, NodeRef ref) {
  return Pos{ref.doc, corpus.span(ref).start};
}

bool Contains(const Corpus& corpus, NodeRef anc, NodeRef desc) {
  if (anc.doc != desc.doc) return false;
  const NodeSpan& a = corpus.span(anc);
  const NodeSpan& d = corpus.span(desc);
  return a.start < d.start && d.end < a.end;
}

/// The stack-tree merge over descendants[d_begin, d_end). Each call
/// walks the ancestor list from the front, so a restart mid-list (a
/// parallel chunk) rebuilds exactly the stack the serial join would have
/// open at that point; pairs come out in (desc, anc) order either way.
void JoinRange(const Corpus& corpus, const std::vector<NodeRef>& ancestors,
               const std::vector<NodeRef>& descendants, size_t d_begin,
               size_t d_end, bool parent_only, std::vector<JoinPair>* out,
               ResourceUsage* usage) {
  // Parent-only joins emit at most one pair per descendant; ad joins
  // commonly emit about one (nesting of the same tag pair is shallow in
  // practice), so a one-per-descendant reservation avoids the early
  // doubling churn either way.
  out->reserve(out->size() + (d_end - d_begin));
  std::vector<NodeRef> stack;
  size_t a = 0;
  size_t d = d_begin;
  while (d < d_end) {
    const bool take_anc =
        a < ancestors.size() &&
        PosOf(corpus, ancestors[a]) < PosOf(corpus, descendants[d]);
    const NodeRef next = take_anc ? ancestors[a] : descendants[d];
    // Entries that do not contain `next` are finished.
    while (!stack.empty() && !Contains(corpus, stack.back(), next)) {
      stack.pop_back();
    }
    if (take_anc) {
      stack.push_back(next);
      ++a;
    } else {
      if (parent_only) {
        // Only the deepest open ancestor can be the parent.
        if (!stack.empty() &&
            corpus.span(stack.back()).level + 1 == corpus.span(next).level) {
          out->push_back(JoinPair{stack.back(), next});
        }
      } else {
        for (const NodeRef& anc : stack) {
          out->push_back(JoinPair{anc, next});
        }
      }
      ++d;
    }
  }
  if (usage != nullptr) {
    const uint64_t scanned = a + (d_end - d_begin);
    const uint64_t produced = out->size();
    usage->tuples_scanned += scanned;
    usage->tuples_produced += produced;
    usage->bytes_touched +=
        scanned * sizeof(NodeSpan) + produced * sizeof(JoinPair);
  }
}

}  // namespace

std::vector<JoinPair> StructuralJoin(const Corpus& corpus,
                                     const std::vector<NodeRef>& ancestors,
                                     const std::vector<NodeRef>& descendants,
                                     bool parent_only, ResourceUsage* usage) {
  std::vector<JoinPair> out;
  JoinRange(corpus, ancestors, descendants, 0, descendants.size(),
            parent_only, &out, usage);
  return out;
}

std::vector<JoinPair> StructuralJoin(const Corpus& corpus,
                                     const std::vector<NodeRef>& ancestors,
                                     const std::vector<NodeRef>& descendants,
                                     bool parent_only, ThreadPool* pool,
                                     ResourceUsage* usage) {
  const std::vector<std::pair<size_t, size_t>> ranges =
      ChunkRanges(pool, descendants.size(), /*grain=*/2048);
  if (ranges.size() <= 1) {
    return StructuralJoin(corpus, ancestors, descendants, parent_only, usage);
  }
  std::vector<std::vector<JoinPair>> outs(ranges.size());
  // Chunk-local accounting, folded after the join — workers never share a
  // ResourceUsage.
  std::vector<ResourceUsage> usages(usage != nullptr ? ranges.size() : 0);
  TaskGroup group(pool);
  for (size_t c = 0; c < ranges.size(); ++c) {
    group.Run([&, c] {
      JoinRange(corpus, ancestors, descendants, ranges[c].first,
                ranges[c].second, parent_only, &outs[c],
                usage != nullptr ? &usages[c] : nullptr);
    });
  }
  group.Wait();
  if (usage != nullptr) {
    for (const ResourceUsage& u : usages) usage->Add(u);
    usage->cpu_ms += group.WorkerCpuMs();
  }
  size_t total = 0;
  for (const std::vector<JoinPair>& o : outs) total += o.size();
  std::vector<JoinPair> out;
  out.reserve(total);
  for (std::vector<JoinPair>& o : outs) {
    out.insert(out.end(), o.begin(), o.end());
  }
  return out;
}

std::vector<JoinPair> NestedLoopJoin(const Corpus& corpus,
                                     const std::vector<NodeRef>& ancestors,
                                     const std::vector<NodeRef>& descendants,
                                     bool parent_only) {
  std::vector<JoinPair> out;
  for (const NodeRef& d : descendants) {
    for (const NodeRef& anc : ancestors) {
      if (!Contains(corpus, anc, d)) continue;
      if (parent_only && !corpus.IsParent(anc, d)) continue;
      out.push_back(JoinPair{anc, d});
    }
  }
  return out;
}

}  // namespace flexpath
