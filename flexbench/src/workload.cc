#include "workload.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <stdexcept>

#include "ir/tokenizer.h"
#include "xmark/generator.h"
#include "xmark/wordlist.h"
#include "xml/serializer.h"
#include "xml/tag_dict.h"

namespace flexbench {

namespace {

// The paper's Section 6 queries over the XMark schema.
constexpr const char* kTemplates[] = {
    "//item[./description/parlist]",
    "//item[./description/parlist and ./mailbox/mail/text]",
    "//item[./description/parlist/listitem and ./mailbox/mail/text[./bold "
    "and ./keyword and ./emph] and ./name and ./incategory]",
};

constexpr flexpath::Algorithm kAlgorithms[] = {
    flexpath::Algorithm::kDpo, flexpath::Algorithm::kSso,
    flexpath::Algorithm::kHybrid};

constexpr flexpath::RankScheme kSchemes[] = {
    flexpath::RankScheme::kStructureFirst, flexpath::RankScheme::kKeywordFirst,
    flexpath::RankScheme::kCombined};

// Parent -> child element types of the generated XMark documents.
const std::map<std::string_view, std::vector<std::string_view>>& Schema() {
  static const auto* schema =
      new std::map<std::string_view, std::vector<std::string_view>>{
          {"item",
           {"location", "quantity", "name", "payment", "description",
            "shipping", "incategory", "mailbox"}},
          {"description", {"parlist", "summary", "text"}},
          {"summary", {"text", "parlist"}},
          {"parlist", {"listitem"}},
          {"listitem", {"parlist", "text"}},
          {"text", {"bold", "keyword", "emph"}},
          {"mailbox", {"mail"}},
          {"mail", {"from", "to", "date", "text", "reply"}},
          {"reply", {"text"}},
          {"category", {"name", "description"}},
          {"person", {"name", "emailaddress", "phone", "address"}},
          {"address", {"street", "city", "country"}},
          {"open_auction",
           {"initial", "current", "bidder", "itemref", "annotation"}},
          {"bidder", {"date", "increase"}},
          {"annotation", {"description"}},
      };
  return *schema;
}

// Answer-node types of the ad-hoc patterns, repeated by weight. The
// recursive types (description, listitem) answer too rarely-but-hugely to
// keep a run's tail steady across seeds; they still appear inside patterns.
constexpr std::string_view kRoots[] = {
    "item", "item", "item", "category", "person", "open_auction", "mail"};

// Element types whose subtrees hold no words (numbers, dates, empty
// elements): contains predicates never go there.
bool Wordless(std::string_view tag) {
  static constexpr std::string_view kWordless[] = {
      "quantity", "incategory", "date",   "initial", "current",
      "increase", "itemref",    "phone",  "bidder"};
  return std::find(std::begin(kWordless), std::end(kWordless), tag) !=
         std::end(kWordless);
}

// Vocabulary words that survive tokenization as exactly one term. The
// first entries of the word list are the most frequent (Zipf), mostly
// stopwords; skipping them keeps contains predicates selective.
const std::vector<std::string>& Keywords() {
  static const auto* words = [] {
    auto* out = new std::vector<std::string>();
    for (size_t i = 20; i < flexpath::WordListSize(); ++i) {
      const std::string word(flexpath::WordAt(i));
      if (flexpath::Tokenize(word).size() == 1) out->push_back(word);
    }
    return out;
  }();
  return *words;
}

struct PatternNode {
  std::string_view tag;
  int parent = -1;
  bool descendant = false;  ///< Reached by // from its parent.
  std::vector<int> kids;
  std::vector<std::vector<std::string>> contains;  ///< Terms per expr.
  std::vector<bool> contains_and;                  ///< 'and' vs 'or'.
};

std::string Render(const std::vector<PatternNode>& nodes, int at, bool shape) {
  const PatternNode& n = nodes[at];
  std::vector<std::string> preds;
  for (int kid : n.kids) {
    preds.push_back((nodes[kid].descendant ? ".//" : "./") +
                    Render(nodes, kid, shape));
  }
  for (size_t e = 0; e < n.contains.size(); ++e) {
    std::string expr;
    for (size_t t = 0; t < n.contains[e].size(); ++t) {
      if (t > 0) expr += n.contains_and[e] ? " and " : " or ";
      expr += '"';
      expr += shape ? std::string("?") : n.contains[e][t];
      expr += '"';
    }
    preds.push_back(".contains(" + expr + ")");
  }
  std::string out(n.tag);
  if (!preds.empty()) {
    out += '[';
    for (size_t i = 0; i < preds.size(); ++i) {
      if (i > 0) out += " and ";
      out += preds[i];
    }
    out += ']';
  }
  return out;
}

const std::vector<WorkloadSpec>& Specs() {
  static const auto* specs = new std::vector<WorkloadSpec>{
      {"paper_1mb", uint64_t{1} << 20, 1, false, 1, 10, 500, Mix::kTemplates,
       25.0},
      {"fulltext_10mb", uint64_t{10} << 20, 1, false, 1, 5, 100, Mix::kAdHoc,
       6.0},
      {"packed_sessions", uint64_t{256} << 10, 40, true, 1, 10, 500,
       Mix::kBoth, 2.0},
      {"paper_10mb_par", uint64_t{10} << 20, 1, false, 4, 10, 600,
       Mix::kTemplates, 3.0},
  };
  return *specs;
}

}  // namespace

const WorkloadSpec* FindWorkload(std::string_view name) {
  for (const WorkloadSpec& spec : Specs()) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

std::string Op::Key() const {
  return std::string(flexpath::AlgorithmName(algo)) + " " +
         flexpath::RankSchemeName(scheme) + " k=" + std::to_string(k) + " " +
         xpath;
}

uint64_t SplitMix::Next() {
  uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

double SplitMix::Uniform() {
  return static_cast<double>(Next() >> 11) * 0x1.0p-53;
}

size_t SplitMix::Below(size_t n) { return static_cast<size_t>(Next() % n); }

OpStream::OpStream(const WorkloadSpec& spec, uint64_t seed,
                   uint64_t stream_id)
    : spec_(spec),
      rng_(SplitMix(seed ^ (stream_id * 0xD1B54A32D192ED03ULL)).Next()),
      k_phase_(18) {
  for (double& phase : k_phase_) phase = rng_.Uniform();
}

size_t OpStream::FromBag(std::vector<size_t>* bag, size_t n) {
  if (bag->empty()) {
    for (size_t i = 0; i < n; ++i) bag->push_back(i);
    for (size_t i = n - 1; i > 0; --i) {
      std::swap((*bag)[i], (*bag)[rng_.Below(i + 1)]);
    }
  }
  const size_t value = bag->back();
  bag->pop_back();
  return value;
}

size_t OpStream::NextK(size_t cls) {
  constexpr double kGolden = 0.6180339887498949;
  double& phase = k_phase_[cls];
  phase += kGolden;
  phase -= std::floor(phase);
  const double lo = std::log(static_cast<double>(spec_.k_min));
  const double hi = std::log(static_cast<double>(spec_.k_max));
  const auto k =
      static_cast<size_t>(std::lround(std::exp(lo + phase * (hi - lo))));
  return std::clamp(k, spec_.k_min, spec_.k_max);
}

Op OpStream::Next() {
  switch (spec_.mix) {
    case Mix::kTemplates:
      return Template();
    case Mix::kAdHoc:
      return Fulltext();
    case Mix::kBoth:
      break;
  }
  // Both kinds, in shuffled pairs.
  return FromBag(&kind_bag_, 2) == 0 ? Template() : Fulltext();
}

Op OpStream::Template() {
  const size_t cls = FromBag(&template_bag_, 9);
  Op op;
  op.xpath = kTemplates[cls / 3];
  op.shape = op.xpath;
  op.algo = kAlgorithms[cls % 3];
  op.k = NextK(cls);
  return op;
}

Op OpStream::Fulltext() {
  const auto& schema = Schema();
  std::vector<PatternNode> nodes(1);
  nodes[0].tag = kRoots[rng_.Below(std::size(kRoots))];
  const size_t extra = 1 + rng_.Below(3);
  for (size_t attempt = 0; attempt < 16 && nodes.size() < 1 + extra;
       ++attempt) {
    const int parent = static_cast<int>(rng_.Below(nodes.size()));
    auto it = schema.find(nodes[parent].tag);
    if (it == schema.end()) continue;
    PatternNode kid;
    kid.parent = parent;
    kid.tag = it->second[rng_.Below(it->second.size())];
    // No element type twice on a root-to-leaf path: re-entering a
    // recursive type (listitem//listitem) gives rare, exploding join sizes
    // that would make the tail a lottery over seeds.
    std::vector<std::string_view> path;
    for (int at = parent; at >= 0; at = nodes[at].parent) {
      path.push_back(nodes[at].tag);
    }
    // A descendant step skips one level where the schema allows it.
    if (rng_.Uniform() < 0.3) {
      auto deeper = schema.find(kid.tag);
      if (deeper != schema.end()) {
        path.push_back(kid.tag);
        kid.tag = deeper->second[rng_.Below(deeper->second.size())];
        kid.descendant = true;
      }
    }
    bool rejected = std::find(path.begin(), path.end(), kid.tag) != path.end();
    if (kid.descendant) {
      rejected |= std::find(path.begin(), path.end() - 1, path.back()) !=
                  path.end() - 1;
    }
    for (int sibling : nodes[parent].kids) {
      rejected |= nodes[sibling].tag == kid.tag;
    }
    if (rejected) continue;
    nodes.push_back(kid);
    nodes[parent].kids.push_back(static_cast<int>(nodes.size() - 1));
  }

  std::vector<int> wordy;
  for (size_t i = 0; i < nodes.size(); ++i) {
    if (!Wordless(nodes[i].tag)) wordy.push_back(static_cast<int>(i));
  }
  const std::vector<std::string>& words = Keywords();
  const size_t exprs = rng_.Uniform() < 0.4 ? 2 : 1;
  for (size_t e = 0; e < exprs; ++e) {
    PatternNode& target = nodes[wordy[rng_.Below(wordy.size())]];
    std::vector<std::string> terms{words[rng_.Below(words.size())]};
    if (rng_.Uniform() < 0.7) terms.push_back(words[rng_.Below(words.size())]);
    target.contains.push_back(std::move(terms));
    target.contains_and.push_back(rng_.Uniform() < 0.6);
  }

  const size_t cls = FromBag(&fulltext_bag_, 9);
  Op op;
  op.xpath = "//" + Render(nodes, 0, false);
  op.shape = "//" + Render(nodes, 0, true);
  op.algo = kAlgorithms[cls / 3];
  op.scheme = kSchemes[cls % 3];
  op.k = NextK(9 + cls);
  return op;
}

uint64_t DocumentSeed(uint64_t seed, int index) {
  return SplitMix(seed * 0x100000001B3ULL + static_cast<uint64_t>(index))
      .Next();
}

std::vector<std::string> LoadDocuments(const WorkloadSpec& spec,
                                       uint64_t seed, double scale,
                                       const std::string& cache_dir) {
  namespace fs = std::filesystem;
  fs::create_directories(cache_dir);
  const uint64_t bytes = std::max<uint64_t>(
      4096, static_cast<uint64_t>(static_cast<double>(spec.doc_bytes) * scale));
  std::vector<std::string> docs;
  for (int i = 0; i < spec.docs; ++i) {
    const uint64_t doc_seed = DocumentSeed(seed, i);
    char name[96];
    std::snprintf(name, sizeof(name), "xmark-%016llx-%llu.xml",
                  static_cast<unsigned long long>(doc_seed),
                  static_cast<unsigned long long>(bytes));
    const fs::path path = fs::path(cache_dir) / name;
    if (std::ifstream in{path, std::ios::binary}) {
      docs.emplace_back(std::istreambuf_iterator<char>(in),
                        std::istreambuf_iterator<char>());
      continue;
    }
    flexpath::TagDict dict;
    flexpath::XMarkOptions opts;
    opts.target_bytes = bytes;
    opts.seed = doc_seed;
    flexpath::Result<flexpath::Document> doc =
        flexpath::GenerateXMark(opts, &dict);
    if (!doc.ok()) {
      throw std::runtime_error("xmark generation failed: " +
                               doc.status().ToString());
    }
    std::string xml = flexpath::SerializeXml(*doc, dict);
    const fs::path tmp = path.string() + ".tmp";
    {
      std::ofstream out(tmp, std::ios::binary);
      out << xml;
    }
    fs::rename(tmp, path);
    docs.push_back(std::move(xml));
  }
  return docs;
}

}  // namespace flexbench
