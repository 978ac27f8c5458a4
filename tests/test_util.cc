#include "tests/test_util.h"

#include <cassert>

#include "xml/document.h"

namespace flexpath {
namespace testing_util {

std::unique_ptr<Corpus> CorpusFromXml(const std::vector<std::string>& docs) {
  auto corpus = std::make_unique<Corpus>();
  for (const std::string& xml : docs) {
    Result<DocId> id = corpus->AddXml(xml);
    assert(id.ok() && "test corpus XML must parse");
    (void)id;
  }
  return corpus;
}

std::unique_ptr<Corpus> ArticleCorpus() {
  return CorpusFromXml({
      // a1: exact match for Q1 — section contains an algorithm and a
      // paragraph with the keywords.
      R"(<article id="a1"><title>stream processing</title>
         <section><title>evaluation</title>
           <algorithm>stack based join</algorithm>
           <paragraph>XML streaming evaluation with low memory</paragraph>
         </section></article>)",
      // a2: keywords in the section title, not in any paragraph.
      R"(<article id="a2"><title>engines</title>
         <section><title>XML streaming engines</title>
           <algorithm>one pass automaton</algorithm>
           <paragraph>we discuss several engines in depth</paragraph>
         </section></article>)",
      // a3: algorithm outside the section that has the keyword paragraph.
      R"(<article id="a3"><title>joins</title>
         <appendix><algorithm>twig join</algorithm></appendix>
         <section><title>background</title>
           <paragraph>XML streaming joins background material</paragraph>
         </section></article>)",
      // a4: keyword paragraph, but no algorithm anywhere.
      R"(<article id="a4"><title>survey</title>
         <section><title>overview</title>
           <paragraph>a survey of XML streaming systems</paragraph>
         </section></article>)",
      // a5: keywords only in the abstract.
      R"(<article id="a5"><title>notes</title>
         <abstract>notes on XML streaming</abstract>
         <section><title>misc</title>
           <paragraph>miscellaneous remarks</paragraph>
         </section></article>)",
      // a6: no keywords at all.
      R"(<article id="a6"><title>other</title>
         <section><title>unrelated</title>
           <algorithm>sorting</algorithm>
           <paragraph>completely unrelated content</paragraph>
         </section></article>)",
  });
}

Document RandomDocument(Rng* rng, TagDict* dict, size_t max_nodes) {
  static constexpr const char* kTags[] = {"a", "b", "c", "d", "e", "f"};
  static constexpr const char* kWords[] = {"red",  "green", "blue",
                                           "gold", "iron",  "salt"};
  DocumentBuilder builder(dict);
  size_t budget = 1 + rng->Uniform(max_nodes);
  // Random recursive descent: each node spends some of the budget on
  // children.
  struct Gen {
    Rng* rng;
    DocumentBuilder* b;
    size_t* budget;
    void Node(int depth) {
      (*budget)--;
      b->Open(kTags[rng->Uniform(6)]);
      if (rng->Bernoulli(0.6)) {
        std::string text;
        int words = 1 + static_cast<int>(rng->Uniform(3));
        for (int i = 0; i < words; ++i) {
          if (i > 0) text += ' ';
          text += kWords[rng->Uniform(6)];
        }
        (void)b->Text(text);
      }
      while (*budget > 0 && depth < 8 && rng->Bernoulli(0.55)) {
        Node(depth + 1);
      }
      (void)b->Close();
    }
  };
  Gen gen{rng, &builder, &budget};
  gen.Node(0);
  Result<Document> doc = std::move(builder).Finish();
  assert(doc.ok());
  return std::move(doc).value();
}

Tpq RandomTpq(Rng* rng, TagDict* dict, size_t max_nodes) {
  static constexpr const char* kTags[] = {"a", "b", "c", "d", "e", "f"};
  static constexpr const char* kWords[] = {"red",  "green", "blue",
                                           "gold", "iron",  "salt"};
  assert(max_nodes >= 2);
  const size_t n = 2 + rng->Uniform(max_nodes - 1);
  Tpq q;
  std::vector<VarId> vars;
  vars.push_back(q.AddRoot(dict->Intern(kTags[rng->Uniform(6)])));
  for (size_t i = 1; i < n; ++i) {
    const VarId parent = vars[rng->Uniform(vars.size())];
    const Axis axis = rng->Bernoulli(0.5) ? Axis::kChild : Axis::kDescendant;
    vars.push_back(
        q.AddChild(parent, axis, dict->Intern(kTags[rng->Uniform(6)])));
  }
  for (VarId v : vars) {
    if (rng->Bernoulli(0.3)) {
      q.AddContains(v, FtExpr::Term(kWords[rng->Uniform(6)]));
    }
  }
  q.SetDistinguished(vars[rng->Uniform(vars.size())]);
  assert(q.Validate().ok());
  return q;
}

uint64_t SubtreeTermFrequency(const InvertedIndex& index,
                              const std::string& term, NodeRef context) {
  const PostingList* list = index.Find(term);
  if (list == nullptr) return 0;
  uint64_t sum = 0;
  for (const Posting& p : list->postings) {
    if (p.node == context || index.corpus().IsAncestor(context, p.node)) {
      sum += p.tf;
    }
  }
  return sum;
}

}  // namespace testing_util
}  // namespace flexpath
