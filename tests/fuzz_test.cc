// Robustness fuzzing (deterministic): random and mutated inputs must
// never crash the parsers — they either parse or return a ParseError —
// and the thread-pool primitives must survive adversarial usage
// (concurrent submitters, tasks spawning tasks, teardown under load,
// exceptions, empty fan-outs). Plus storage fuzzing: the packed-corpus
// codec round-trips adversarial key sequences, and a StorageReader fed
// corrupted pages returns a Status (or correct data) — never a crash.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "common/thread_pool.h"
#include "ir/ft_expr.h"
#include "query/xpath_parser.h"
#include "storage/codec.h"
#include "storage/reader.h"
#include "storage/writer.h"
#include "tests/test_util.h"
#include "xml/parser.h"
#include "xml/serializer.h"

namespace flexpath {
namespace {

std::string RandomBytes(Rng* rng, size_t max_len) {
  std::string out;
  const size_t len = rng->Uniform(max_len);
  for (size_t i = 0; i < len; ++i) {
    out += static_cast<char>(rng->Uniform(256));
  }
  return out;
}

std::string Mutate(std::string s, Rng* rng) {
  if (s.empty()) return s;
  const int edits = 1 + static_cast<int>(rng->Uniform(4));
  for (int i = 0; i < edits; ++i) {
    const size_t pos = rng->Uniform(s.size());
    switch (rng->Uniform(3)) {
      case 0:
        s[pos] = static_cast<char>(rng->Uniform(256));
        break;
      case 1:
        s.erase(pos, 1);
        break;
      default:
        s.insert(pos, 1, static_cast<char>(rng->Uniform(128)));
        break;
    }
    if (s.empty()) break;
  }
  return s;
}

TEST(FuzzTest, XmlParserSurvivesRandomBytes) {
  Rng rng(1001);
  TagDict dict;
  for (int i = 0; i < 500; ++i) {
    Result<Document> doc = ParseXml(RandomBytes(&rng, 200), &dict);
    if (doc.ok()) {
      EXPECT_GT(doc->size(), 0u);
    }
  }
}

TEST(FuzzTest, XmlParserSurvivesMutatedDocuments) {
  Rng rng(1002);
  const std::string seed =
      "<?xml version=\"1.0\"?><site><item id=\"i1\"><name>gold "
      "ring</name><desc>rare &amp; fine <b>x</b></desc></item>"
      "<!-- c --><![CDATA[raw]]></site>";
  TagDict dict;
  for (int i = 0; i < 500; ++i) {
    Result<Document> doc = ParseXml(Mutate(seed, &rng), &dict);
    if (doc.ok()) {
      // Whatever parsed must serialize and re-parse.
      std::string xml = SerializeXml(*doc, dict);
      EXPECT_TRUE(ParseXml(xml, &dict).ok());
    }
  }
}

TEST(FuzzTest, XPathParserSurvivesRandomInput) {
  Rng rng(1003);
  const std::string seed =
      "//article[./section[./algorithm and ./paragraph[.contains(\"XML\" "
      "and \"streaming\")]] and @id='a1']";
  for (int i = 0; i < 500; ++i) {
    TagDict dict;
    Result<Tpq> q = ParseXPath(Mutate(seed, &rng), &dict);
    if (q.ok()) {
      EXPECT_TRUE(q->Validate().ok());
    }
  }
  for (int i = 0; i < 300; ++i) {
    TagDict dict;
    (void)ParseXPath(RandomBytes(&rng, 100), &dict);
  }
}

// --- Thread-pool stress ----------------------------------------------------

TEST(ThreadPoolFuzzTest, ConcurrentSubmittersAndTeardownUnderLoad) {
  // Several external threads hammer Submit() while the pool is busy;
  // destruction then races a still-full queue. The destructor contract
  // says every queued task runs before the workers exit, so the counter
  // must be exact — no lost and no double-run tasks.
  for (int round = 0; round < 20; ++round) {
    std::atomic<uint64_t> ran{0};
    constexpr int kSubmitters = 4;
    constexpr int kPerSubmitter = 250;
    {
      ThreadPool pool(4);
      std::vector<std::thread> submitters;
      submitters.reserve(kSubmitters);
      for (int s = 0; s < kSubmitters; ++s) {
        submitters.emplace_back([&pool, &ran] {
          for (int i = 0; i < kPerSubmitter; ++i) {
            pool.Submit([&ran] { ran.fetch_add(1); });
          }
        });
      }
      for (std::thread& t : submitters) t.join();
      // Pool destructor runs here with much of the queue still pending.
    }
    EXPECT_EQ(ran.load(), uint64_t{kSubmitters * kPerSubmitter})
        << "round " << round;
  }
}

TEST(ThreadPoolFuzzTest, TasksSubmittingTasks) {
  // A task may enqueue follow-up work; the destructor must drain the
  // transitively submitted tasks too. Each root task spawns a short
  // chain, so losing any link shows up in the count.
  std::atomic<uint64_t> ran{0};
  constexpr int kRoots = 100;
  constexpr int kChain = 5;
  {
    ThreadPool pool(3);
    // Recursive lambdas need an explicit holder. The function reaches
    // itself through a weak_ptr (capturing the shared_ptr would be a
    // cycle that is never freed); every queued task holds a strong
    // reference, so the function outlives `spawn`, which is destroyed
    // before the pool (destroyed last, draining all tasks).
    auto spawn = std::make_shared<std::function<void(int)>>();
    std::weak_ptr<std::function<void(int)>> self = spawn;
    *spawn = [&pool, &ran, self](int remaining) {
      ran.fetch_add(1);
      if (remaining > 0) {
        pool.Submit([fn = self.lock(), remaining] { (*fn)(remaining - 1); });
      }
    };
    for (int i = 0; i < kRoots; ++i) {
      pool.Submit([spawn] { (*spawn)(kChain - 1); });
    }
  }
  EXPECT_EQ(ran.load(), uint64_t{kRoots * kChain});
}

TEST(ThreadPoolFuzzTest, TaskGroupPropagatesFirstExceptionBySubmission) {
  // Several tasks throw; Wait() must re-throw the *first by submission
  // order* regardless of which worker finished first, and every task
  // must still have run.
  ThreadPool pool(4);
  for (int round = 0; round < 50; ++round) {
    std::atomic<int> ran{0};
    TaskGroup group(&pool);
    for (int i = 0; i < 16; ++i) {
      group.Run([&ran, i] {
        ran.fetch_add(1);
        if (i % 3 == 1) {  // tasks 1, 4, 7, ... throw; 1 must win.
          throw std::runtime_error("task " + std::to_string(i));
        }
      });
    }
    try {
      group.Wait();
      FAIL() << "Wait() swallowed the exceptions, round " << round;
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "task 1") << "round " << round;
    }
    EXPECT_EQ(ran.load(), 16) << "round " << round;
  }
}

TEST(ThreadPoolFuzzTest, ChunkRangesTileEveryLength) {
  ThreadPool pool(4);
  EXPECT_TRUE(ChunkRanges(&pool, 0, 16).empty());

  // Random (n, grain) pairs: chunks must tile [0, n) exactly, in order.
  Rng rng(1005);
  for (int i = 0; i < 200; ++i) {
    const size_t n = rng.Uniform(5000);
    const size_t grain = 1 + rng.Uniform(300);
    const auto ranges = ChunkRanges(&pool, n, grain);
    size_t next = 0;
    for (const auto& [begin, end] : ranges) {
      EXPECT_EQ(begin, next);
      EXPECT_LT(begin, end);
      next = end;
    }
    EXPECT_EQ(next, n);
  }
}

// --- Packed storage --------------------------------------------------------

// Codec round-trip fuzzing with adversarial delta shapes: runs of
// delta 1 (worst case for the strict-increase check), huge jumps
// (multi-byte varints), keys starting at 0, and sequences ending at
// uint64 max. Whatever encodes must decode back exactly.
TEST(FuzzTest, StorageDeltaChainRoundTripAdversarialDeltas) {
  Rng rng(1007);
  for (int iter = 0; iter < 300; ++iter) {
    std::vector<uint64_t> keys;
    const size_t n = 1 + rng.Uniform(600);
    uint64_t k = rng.Bernoulli(0.3) ? 0 : rng.Uniform(1u << 20);
    for (size_t i = 0; i < n; ++i) {
      keys.push_back(k);
      uint64_t delta;
      switch (rng.Uniform(4)) {
        case 0: delta = 1; break;                          // dense run
        case 1: delta = 1 + rng.Uniform(100); break;       // typical
        case 2: delta = 1 + rng.Uniform(1u << 30); break;  // large jump
        default:
          // Aim the tail at uint64 max without overflowing.
          delta = (~uint64_t{0} - k) / (n - i) + 1;
          if (delta == 0 || delta > ~uint64_t{0} - k) delta = 1;
          break;
      }
      if (k > ~uint64_t{0} - delta) break;  // would overflow: stop here
      k += delta;
    }
    std::string bytes;
    ASSERT_TRUE(storage::PutDeltaChain(keys, &bytes).ok())
        << "iter " << iter;
    std::vector<uint64_t> back;
    size_t pos = 0;
    ASSERT_TRUE(
        storage::GetDeltaChain(bytes, &pos, keys.size(), &back).ok())
        << "iter " << iter;
    EXPECT_EQ(pos, bytes.size()) << "iter " << iter;
    EXPECT_EQ(back, keys) << "iter " << iter;
  }
}

// A mutated delta chain must decode or error — never crash, never spin.
TEST(FuzzTest, StorageDeltaChainDecoderSurvivesMutation) {
  Rng rng(1008);
  std::vector<uint64_t> keys;
  for (uint64_t i = 0; i < 500; ++i) keys.push_back(i * 7 + 3);
  std::string bytes;
  ASSERT_TRUE(storage::PutDeltaChain(keys, &bytes).ok());
  for (int iter = 0; iter < 400; ++iter) {
    const std::string mutated = Mutate(bytes, &rng);
    std::vector<uint64_t> out;
    size_t pos = 0;
    Status st = storage::GetDeltaChain(mutated, &pos, keys.size(), &out);
    if (st.ok()) {
      // A lucky mutation may still decode; the contract that survives
      // corruption is the count and strict monotonicity.
      ASSERT_EQ(out.size(), keys.size());
      for (size_t i = 1; i < out.size(); ++i) EXPECT_GT(out[i], out[i - 1]);
    }
  }
}

// Corrupted-page fuzzing over the whole packed file: flip random bytes
// (in the header, directories, and payload pages alike) and drive the
// full reader surface. Every operation must either succeed or return a
// Status — no crashes, no sanitizer reports. Decode errors on the
// corpus-backing path surface as empty documents or empty contents by
// contract (doc() cannot return a Status), which is also exercised here
// through the attribute and text readers.
TEST(FuzzTest, StorageReaderSurvivesCorruptedPages) {
  Rng rng(1009);
  Corpus corpus;
  for (int i = 0; i < 3; ++i) {
    corpus.Add(testing_util::RandomDocument(&rng, corpus.tags(), 80));
  }
  const std::string path =
      ::testing::TempDir() + "/flexpath_fuzz_packed.fxp";
  ASSERT_TRUE(
      storage::WritePackedCorpus(corpus, TokenizerOptions{}, path).ok());
  std::string pristine;
  {
    std::ifstream in(path, std::ios::binary);
    pristine.assign((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  }
  ASSERT_FALSE(pristine.empty());

  for (int iter = 0; iter < 120; ++iter) {
    std::string mutated = pristine;
    const int flips = 1 + static_cast<int>(rng.Uniform(8));
    for (int f = 0; f < flips; ++f) {
      const size_t pos = rng.Uniform(mutated.size());
      mutated[pos] = static_cast<char>(rng.Uniform(256));
    }
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out.write(mutated.data(),
                static_cast<std::streamsize>(mutated.size()));
    }
    Result<std::shared_ptr<storage::StorageReader>> open =
        storage::StorageReader::Open(path);
    if (!open.ok()) continue;  // rejected at validation: the common case
    const std::shared_ptr<storage::StorageReader>& reader = *open;

    for (DocId d = 0; d < static_cast<DocId>(reader->DocCount()); ++d) {
      (void)reader->DocNodeCount(d);
      (void)reader->MaterializeDocument(d);  // Status or document
      (void)reader->MaterializeContent(d);   // Status or content
    }
    Corpus backed;
    if (reader->LoadTags(backed.tags()).ok()) {
      backed.AttachBacking(reader);
      for (DocId d = 0; d < backed.size(); ++d) {
        const Document& doc = backed.DocWithContent(d);
        if (doc.empty()) continue;
        (void)doc.SubtreeText(doc.root());
        for (NodeId n = 0; n < doc.size(); ++n) {
          (void)doc.FindAttribute(n, 0);
        }
      }
    }
    for (TagId t = 0; t < static_cast<TagId>(reader->header().tag_count);
         ++t) {
      (void)reader->TagList(t);  // corrupt tables decode to empty
    }
    uint32_t df = 0;
    for (const char* term : {"a", "the", "zzz"}) {
      if (reader->TermInfo(term, &df)) {
        (void)reader->FindPostings(term);
      }
    }
    TagDict dict;
    (void)reader->LoadTags(&dict);
    (void)reader->LoadStatsTables();
    (void)reader->InspectJson();
  }
  std::remove(path.c_str());
}

TEST(FuzzTest, FtExprParserSurvivesRandomInput) {
  Rng rng(1004);
  const std::string seed =
      "(\"gold\" and not silver) or near(\"fast\" \"car\", 5)";
  for (int i = 0; i < 500; ++i) {
    Result<FtExpr> e = ParseFtExpr(Mutate(seed, &rng));
    if (e.ok()) {
      // Canonical text of a parsed expression re-parses to an equal tree.
      Result<FtExpr> again = ParseFtExpr(e->ToString());
      ASSERT_TRUE(again.ok()) << e->ToString();
      EXPECT_TRUE(*e == *again) << e->ToString();
    }
  }
}

}  // namespace
}  // namespace flexpath
