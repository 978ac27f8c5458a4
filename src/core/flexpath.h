#ifndef FLEXPATH_CORE_FLEXPATH_H_
#define FLEXPATH_CORE_FLEXPATH_H_

#include <atomic>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/analyzer.h"
#include "analysis/plan_verifier.h"
#include "common/metrics.h"
#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "common/trace.h"
#include "exec/topk.h"
#include "ir/engine.h"
#include "ir/thesaurus.h"
#include "obs/query_log.h"
#include "obs/query_stats.h"
#include "ir/tokenizer.h"
#include "query/tpq.h"
#include "query/xpath_parser.h"
#include "rank/scheme_registry.h"
#include "rank/score.h"
#include "stats/document_stats.h"
#include "stats/element_index.h"
#include "storage/reader.h"
#include "storage/writer.h"
#include "xml/corpus.h"
#include "xml/type_hierarchy.h"

namespace flexpath {

/// One answer as returned by the public API: scores plus enough context
/// (tag, a snippet of text) to display it.
struct QueryAnswer {
  NodeRef node;
  AnswerScore score;
  std::string tag;
  std::string snippet;  ///< First ~120 characters of the subtree text.
};

/// The FleXPath system (Figure 7): load XML documents, build the indexes,
/// then run top-K queries whose structural part is interpreted as a
/// flexible template (Sections 3-5).
///
/// Typical usage:
///   FlexPath fp;
///   fp.AddDocumentXml(xml_text);
///   fp.Build();
///   auto answers = fp.Query("//article[./section[./paragraph and "
///                           ".contains(\"XML\" and \"streaming\")]]",
///                           {.k = 10});
class FlexPath {
 public:
  explicit FlexPath(TokenizerOptions tokenizer_opts = {});
  ~FlexPath();

  FlexPath(const FlexPath&) = delete;
  FlexPath& operator=(const FlexPath&) = delete;

  /// Parses and adds one XML document. InvalidArgument after Build() or
  /// OpenPacked().
  Result<DocId> AddDocumentXml(std::string_view xml);

  /// Reads and parses an XML file from disk.
  Result<DocId> AddDocumentFile(const std::string& path);

  /// Adds an already-built document (built against tags()). Same
  /// contract as AddDocumentXml: InvalidArgument after Build() or
  /// OpenPacked().
  Result<DocId> AddDocument(Document doc);

  /// Mutable element-type hierarchy for the tag-generalization extension
  /// (Section 3.4). Populate before Build(); a query node constrained to
  /// a supertype then matches all of its subtypes.
  TypeHierarchy* type_hierarchy() { return &hierarchy_; }

  /// Mutable synonym table. When non-empty, contains expressions in
  /// queries are expanded so each keyword also matches its synonyms
  /// (Section 3.4's thesaurus relaxation, applied on the IR side).
  Thesaurus* thesaurus() { return &thesaurus_; }

  /// Direct access to the corpus tag dictionary (for building documents
  /// programmatically, e.g. with the XMark generator).
  TagDict* tags();

  /// Freezes the corpus and builds the element index, the inverted
  /// index/IR engine, and the statistics. Must be called exactly once,
  /// after all documents are added and before any query.
  Status Build();

  /// Serializes the corpus plus everything Build() derives from it into
  /// the packed single-file format (DESIGN.md §17) at `path`. Callable
  /// before or after Build(); the instance is unchanged. A subsequent
  /// OpenPacked of the file answers every query byte-identically to this
  /// instance (same answers, scores, relaxations, and ExecCounters —
  /// the differential suite asserts it).
  Status SavePacked(const std::string& path) const;

  /// Opens a packed corpus file instead of AddDocument* + Build(): maps
  /// the file, restores tag dictionary / statistics / tokenizer options
  /// from it, and wires the element index, inverted index, and corpus to
  /// mmap-backed lazy implementations — no documents are decoded until a
  /// query touches them, so open time is O(directories), not O(data).
  /// Must be called on a fresh instance (no documents added, not built);
  /// leaves the instance queryable (built() == true). Populate
  /// type_hierarchy() before calling, as with Build().
  Status OpenPacked(const std::string& path,
                    storage::ReaderOptions reader_opts = {});

  /// Non-null after a successful OpenPacked: the mmap-backed reader,
  /// exposing buffer-pool stats and the file header.
  const storage::StorageReader* packed_reader() const {
    return reader_.get();
  }

  /// Parses an XPath-fragment query string into a tree pattern.
  Result<Tpq> Parse(std::string_view xpath) const;

  /// Runs a top-K query (parse + evaluate). Defaults: structure-first
  /// ranking, the Hybrid algorithm, parallel execution across all cores
  /// (TopKOptions::num_threads = 0; set 1 for the serial path — answers
  /// and counters are identical either way, see DESIGN.md §10).
  Result<std::vector<QueryAnswer>> Query(std::string_view xpath,
                                         const TopKOptions& opts = {},
                                         Algorithm algo = Algorithm::kHybrid);

  /// Same, for an already-parsed query; also exposes execution counters.
  /// `query_text`, when non-empty, is the original query string — it is
  /// what the workload-capture log records (a Tpq rendering is for
  /// diagnostics and need not re-parse). Query() passes its XPath through
  /// automatically.
  Result<TopKResult> QueryTpq(const Tpq& q, const TopKOptions& opts = {},
                              Algorithm algo = Algorithm::kHybrid,
                              std::string_view query_text = {});

  /// Renders a query back to text (diagnostics).
  std::string Describe(const Tpq& q) const;

  // --- Static analysis (flexcheck) --------------------------------------

  /// Runs the semantic analyzer on a parsed query: closure-based
  /// structural checks always, plus corpus-level unsatisfiability
  /// (empty tags, dead edges, unmatched contains) after Build(). The
  /// diagnostics are also emitted through the structured logger under
  /// the "analysis" module. See src/analysis/ and DESIGN.md §11 for the
  /// diagnostic-code table.
  AnalysisReport Analyze(const Tpq& q) const;

  /// Parse + Analyze in one call (the CLI's --check path). Fails only
  /// when the query does not parse; semantic problems come back as
  /// diagnostics in the report.
  Result<AnalysisReport> AnalyzeXPath(std::string_view xpath) const;

  /// Statically verifies the full relaxation schedule BuildSchedule
  /// emits for `q` against Theorem 2 (see analysis/plan_verifier.h for
  /// the V001-V006 verdict codes). Requires Build(); the verdicts carry
  /// the static-selectivity result used by TopKOptions::static_prune.
  Result<std::vector<PlanVerdict>> VerifySchedule(const Tpq& q) const;

  /// The analyzer context over this instance's index/stats/IR — what
  /// Analyze() and the static_prune path consult. Fields are null
  /// before Build() (except the tag dictionary).
  AnalyzerContext analyzer_context() const;

  /// The score-algebra certificate of `scheme` (flexcheck v2, DESIGN.md
  /// §16): the statically proved/refuted properties — well-formedness,
  /// relaxation monotonicity, order invariance — plus the
  /// optimization directives the engine derives from them.
  /// NotFound for a scheme value the registry has never seen. Corpus
  /// independent; works before Build().
  Result<SchemeCertificate> CertifyScheme(RankScheme scheme) const;

  /// JSON array with the certificate of every registered scheme (the
  /// CLI --certify payload, uploaded as a CI artifact). Process-wide,
  /// like the registry itself.
  static std::string SchemeCertificatesJson();

  // Component access for advanced use (benchmarks, tests).
  const Corpus& corpus() const { return corpus_; }
  const ElementIndex* element_index() const { return element_index_.get(); }
  const DocumentStats* stats() const { return stats_.get(); }
  IrEngine* ir_engine() { return ir_.get(); }
  bool built() const { return built_; }

  // --- Observability ----------------------------------------------------

  /// The process-wide metrics registry (counters, gauges, latency
  /// histograms recorded by every pipeline stage).
  MetricsRegistry& metrics() const { return MetricsRegistry::Global(); }

  /// One JSON object with a snapshot of every metric; see MetricsToJson()
  /// in common/metrics.h for the schema.
  std::string MetricsJson() const;

  /// The same snapshot in the Prometheus text exposition format
  /// (MetricsToPrometheus in common/metrics.h).
  std::string MetricsPrometheus() const;

  /// Per-query-shape cumulative statistics for this instance: every
  /// QueryTpq/Query run is folded into its shape's aggregate (keyed by
  /// FingerprintTpq), the recent-queries ring, and — when
  /// TopKOptions::slow_query_ms is set — the slow-query log.
  QueryStatsStore* query_stats() { return &query_stats_; }
  const QueryStatsStore* query_stats() const { return &query_stats_; }

  /// One JSON object with the per-shape aggregates, recent executions
  /// and slow-query log; see QueryStatsStore::ToJson() for the schema.
  std::string QueryStatsJson() const { return query_stats_.ToJson(); }

  /// One JSON object with the state of every cache: this instance's IR
  /// contains-result cache, its merged-scan cache, and — for a packed
  /// corpus — the storage buffer pools (element tables and posting
  /// lists; null otherwise). Fields for the instance caches are null
  /// before Build()/OpenPacked().
  std::string CacheStatsJson() const;

  /// Phase-by-phase trace of the last Build() call (element index,
  /// statistics, IR engine); null before Build().
  std::shared_ptr<const QueryTrace> build_trace() const {
    return build_trace_;
  }

  /// Trace of the most recent Query/QueryTpq call that collected one
  /// (TopKOptions::collect_trace, or a slow-query trigger); null until
  /// then. Under concurrent queries, "last" means last to finish.
  std::shared_ptr<const QueryTrace> last_query_trace() const;

  /// The last query trace rendered in the Chrome Trace Event Format
  /// (chrome://tracing, Perfetto; see TraceToChromeJson in
  /// common/trace.h). Empty string when no trace has been collected.
  std::string LastTraceChromeJson() const;

  /// JSON dump of the process-wide crash-safe flight recorder ring
  /// (FlightRecorder::Global().ToJson()): the most recent ~4k runtime
  /// events — query start/end, relaxation-round lifecycle, slow queries
  /// and budget trips.
  std::string FlightRecorderJson() const;

  /// Replaces this instance's query-statistics capacities (shape table,
  /// recent ring, slow-query log) at runtime, trimming immediately if the
  /// new capacities are smaller. See QueryStatsStore::SetOptions.
  void SetQueryStatsOptions(const QueryStatsOptions& opts);

  /// Attaches (or detaches, with nullptr) a workload-capture log: every
  /// subsequent QueryTpq/Query run appends one JSON line (query text,
  /// options, result metadata, cpu_ms, answers digest) that
  /// flexpath_replay can re-execute. Non-owning — the writer must outlive
  /// its use; pass nullptr before destroying it. No writer attached means
  /// zero capture cost (one relaxed atomic load per query).
  void SetQueryLog(QueryLogWriter* log);
  QueryLogWriter* query_log() const {
    return query_log_.load(std::memory_order_relaxed);
  }

  /// One JSON object with this instance's cumulative per-query
  /// accounting — query/error counts plus the summed and per-query-mean
  /// cpu_ms and ExecCounters of every successful QueryTpq run. Totals
  /// fold through ExecCounters::Add, so buckets_peak is a max (and its
  /// "mean" is that peak):
  ///   {"queries":..,"errors":..,"cpu_ms_total":..,"cpu_ms_mean":..,
  ///    "counters_total":{"plan_passes":..,...},"counters_mean":{...}}
  std::string VarzJson() const;

  /// One JSON object identifying this build and instance: library
  /// version, compiler, build mode, and corpus summary (documents,
  /// elements, distinct tags, built flag). Static facts for the /buildz
  /// admin route.
  std::string BuildInfoJson() const;

 private:
  /// OK while documents may still be added: not built, not opened.
  Status CheckAcceptsDocuments() const;

  /// Applies the thesaurus to every contains predicate of `q` in place.
  void ExpandContains(Tpq* q) const;

  TokenizerOptions tokenizer_opts_;
  Corpus corpus_;
  TypeHierarchy hierarchy_;
  Thesaurus thesaurus_;
  bool built_ = false;
  /// Set by OpenPacked; shared with the corpus backing, the packed
  /// element index, and the packed posting source.
  std::shared_ptr<storage::StorageReader> reader_;
  std::unique_ptr<ElementIndex> element_index_;
  std::unique_ptr<DocumentStats> stats_;
  std::unique_ptr<IrEngine> ir_;
  std::unique_ptr<TopKProcessor> processor_;
  std::shared_ptr<const QueryTrace> build_trace_;
  QueryStatsStore query_stats_;
  mutable Mutex trace_mu_;
  std::shared_ptr<const QueryTrace> last_query_trace_ GUARDED_BY(trace_mu_);
  std::atomic<QueryLogWriter*> query_log_{nullptr};
  mutable Mutex varz_mu_;
  uint64_t varz_queries_ GUARDED_BY(varz_mu_) = 0;
  uint64_t varz_errors_ GUARDED_BY(varz_mu_) = 0;
  double varz_cpu_ms_ GUARDED_BY(varz_mu_) = 0.0;
  ExecCounters varz_counters_ GUARDED_BY(varz_mu_);
};

}  // namespace flexpath

#endif  // FLEXPATH_CORE_FLEXPATH_H_
