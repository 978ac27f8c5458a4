#include "core/flexpath.h"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <sstream>
#include <utility>

#include "common/json_util.h"
#include "common/log.h"
#include "obs/flight_recorder.h"
#include "relax/schedule.h"

namespace flexpath {

namespace {

double MsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace

FlexPath::FlexPath(TokenizerOptions tokenizer_opts)
    : tokenizer_opts_(tokenizer_opts) {}

FlexPath::~FlexPath() = default;

Result<DocId> FlexPath::AddDocumentXml(std::string_view xml) {
  FLEXPATH_RETURN_IF_ERROR(CheckAcceptsDocuments());
  static Histogram* m_parse =
      MetricsRegistry::Global().histogram("build.parse_ms");
  static Counter* m_docs =
      MetricsRegistry::Global().counter("build.documents_parsed");
  const auto start = std::chrono::steady_clock::now();
  Result<DocId> id = corpus_.AddXml(xml);
  if (id.ok()) {
    m_parse->Observe(MsSince(start));
    m_docs->Inc();
  }
  return id;
}

Result<DocId> FlexPath::AddDocumentFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::NotFound("cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return AddDocumentXml(buffer.str());
}

Result<DocId> FlexPath::AddDocument(Document doc) {
  FLEXPATH_RETURN_IF_ERROR(CheckAcceptsDocuments());
  return corpus_.Add(std::move(doc));
}

Status FlexPath::CheckAcceptsDocuments() const {
  // A backed corpus (OpenPacked, even one that failed midway) serves its
  // documents from the file; Corpus::Add must never reach it. After
  // Build() the index, statistics and IR engine are frozen and would
  // never see a new document.
  if (built_ || corpus_.backed()) {
    return Status::InvalidArgument(
        "cannot add documents after Build() or OpenPacked()");
  }
  return Status::OK();
}

TagDict* FlexPath::tags() { return corpus_.tags(); }

Status FlexPath::Build() {
  if (built_) return Status::InvalidArgument("Build() already called");
  if (corpus_.size() == 0) {
    return Status::InvalidArgument("no documents added");
  }
  TraceCollector collector("build");
  collector.current()->Annotate("documents",
                                static_cast<uint64_t>(corpus_.size()));
  collector.current()->Annotate("elements",
                                static_cast<uint64_t>(corpus_.TotalNodes()));
  {
    Span span(&collector, "element_index");
    element_index_ = std::make_unique<ElementIndex>(
        &corpus_, hierarchy_.empty() ? nullptr : &hierarchy_);
  }
  {
    Span span(&collector, "document_stats");
    stats_ = std::make_unique<DocumentStats>(&corpus_);
  }
  {
    Span span(&collector, "ir_engine");
    ir_ = std::make_unique<IrEngine>(&corpus_, tokenizer_opts_);
  }
  processor_ = std::make_unique<TopKProcessor>(
      element_index_.get(), stats_.get(), ir_.get(), &query_stats_);
  QueryTrace trace = collector.Finish();
  static Histogram* m_build =
      MetricsRegistry::Global().histogram("build.total_ms");
  static Counter* m_builds = MetricsRegistry::Global().counter("build.count");
  m_build->Observe(trace.root.elapsed_ms);
  m_builds->Inc();
  FLEXPATH_LOG_INFO("core", "index built",
                    {"documents", corpus_.size()},
                    {"elements", corpus_.TotalNodes()},
                    {"distinct_tags", std::as_const(corpus_).tags().size()},
                    {"elapsed_ms", trace.root.elapsed_ms});
  build_trace_ = std::make_shared<const QueryTrace>(std::move(trace));
  built_ = true;
  return Status::OK();
}

Status FlexPath::SavePacked(const std::string& path) const {
  if (corpus_.size() == 0) {
    return Status::InvalidArgument("no documents added");
  }
  const auto start = std::chrono::steady_clock::now();
  storage::PackResult result;
  FLEXPATH_RETURN_IF_ERROR(
      storage::WritePackedCorpus(corpus_, tokenizer_opts_, path, &result));
  static Histogram* m_pack =
      MetricsRegistry::Global().histogram("storage.pack_ms");
  m_pack->Observe(MsSince(start));
  FLEXPATH_LOG_INFO("storage", "packed corpus written", {"path", path},
                    {"bytes", result.file_bytes},
                    {"documents", result.doc_count},
                    {"terms", result.term_count},
                    {"elapsed_ms", MsSince(start)});
  return Status::OK();
}

Status FlexPath::OpenPacked(const std::string& path,
                            storage::ReaderOptions reader_opts) {
  if (built_) return Status::InvalidArgument("Build() already called");
  if (corpus_.size() != 0) {
    return Status::InvalidArgument(
        "OpenPacked requires a fresh instance (no documents added)");
  }
  TraceCollector collector("open_packed");
  {
    Span span(&collector, "map_and_validate");
    Result<std::shared_ptr<storage::StorageReader>> reader =
        storage::StorageReader::Open(path, reader_opts);
    if (!reader.ok()) return reader.status();
    reader_ = std::move(reader).value();
  }
  // The file records the TokenizerOptions it was packed with; adopting
  // them keeps query-side term normalization identical to the index.
  tokenizer_opts_ = reader_->tokenizer_options();
  {
    Span span(&collector, "tags_and_corpus");
    FLEXPATH_RETURN_IF_ERROR(reader_->LoadTags(corpus_.tags()));
    corpus_.AttachBacking(reader_);
  }
  {
    Span span(&collector, "element_index");
    element_index_ = std::make_unique<ElementIndex>(
        &corpus_, hierarchy_.empty() ? nullptr : &hierarchy_, reader_);
  }
  {
    Span span(&collector, "document_stats");
    Result<DocumentStats::Tables> tables = reader_->LoadStatsTables();
    if (!tables.ok()) return tables.status();
    stats_ = std::make_unique<DocumentStats>(&corpus_,
                                             std::move(tables).value());
  }
  {
    Span span(&collector, "ir_engine");
    ir_ = std::make_unique<IrEngine>(&corpus_, tokenizer_opts_, reader_);
  }
  processor_ = std::make_unique<TopKProcessor>(
      element_index_.get(), stats_.get(), ir_.get(), &query_stats_);
  QueryTrace trace = collector.Finish();
  FLEXPATH_LOG_INFO("core", "packed corpus opened",
                    {"path", path},
                    {"documents", corpus_.size()},
                    {"elements", corpus_.TotalNodes()},
                    {"elapsed_ms", trace.root.elapsed_ms});
  build_trace_ = std::make_shared<const QueryTrace>(std::move(trace));
  built_ = true;
  return Status::OK();
}

Result<Tpq> FlexPath::Parse(std::string_view xpath) const {
  // Interning tags from queries is safe after Build(): unseen tags get
  // fresh ids with empty scan lists.
  return ParseXPath(xpath, const_cast<Corpus&>(corpus_).tags(),
                    tokenizer_opts_);
}

Result<std::vector<QueryAnswer>> FlexPath::Query(std::string_view xpath,
                                                 const TopKOptions& opts,
                                                 Algorithm algo) {
  Result<Tpq> q = Parse(xpath);
  if (!q.ok()) return q.status();
  Result<TopKResult> result = QueryTpq(*q, opts, algo, xpath);
  if (!result.ok()) return result.status();

  std::vector<QueryAnswer> out;
  out.reserve(result->answers.size());
  for (const RankedAnswer& a : result->answers) {
    QueryAnswer qa;
    qa.node = a.node;
    qa.score = a.score;
    qa.tag = std::as_const(corpus_).tags().Name(corpus_.node(a.node).tag);
    std::string text =
        corpus_.DocWithContent(a.node.doc).SubtreeText(a.node.node);
    if (text.size() > 120) {
      text.resize(117);
      text += "...";
    }
    qa.snippet = std::move(text);
    out.push_back(std::move(qa));
  }
  return out;
}

Result<TopKResult> FlexPath::QueryTpq(const Tpq& q, const TopKOptions& opts,
                                      Algorithm algo,
                                      std::string_view query_text) {
  if (!built_) return Status::InvalidArgument("call Build() first");
  const auto wall_start = std::chrono::steady_clock::now();
  Result<TopKResult> result = [&]() -> Result<TopKResult> {
    if (thesaurus_.size() > 0 && q.ContainsCount() > 0) {
      Tpq expanded = q;
      ExpandContains(&expanded);
      return processor_->Run(expanded, algo, opts);
    }
    return processor_->Run(q, algo, opts);
  }();
  if (result.ok() && result->trace != nullptr) {
    MutexLock lock(trace_mu_);
    last_query_trace_ = result->trace;
  }
  {
    MutexLock lock(varz_mu_);
    ++varz_queries_;
    if (!result.ok()) {
      ++varz_errors_;
    } else {
      varz_cpu_ms_ += result->cpu_ms;
      varz_counters_.Add(result->counters);
    }
  }
  QueryLogWriter* log = query_log_.load(std::memory_order_relaxed);
  if (log != nullptr && result.ok()) {
    QueryLogRecord record;
    record.ts_unix_s =
        std::chrono::duration<double>(
            std::chrono::system_clock::now().time_since_epoch())
            .count();
    record.query = query_text.empty() ? Describe(q) : std::string(query_text);
    record.fingerprint = FingerprintTpq(q, std::as_const(corpus_).tags());
    record.algorithm = AlgorithmName(algo);
    record.scheme = RankSchemeName(opts.scheme);
    record.k = opts.k;
    record.threads = opts.num_threads;
    record.latency_ms = MsSince(wall_start);
    record.answers = result->answers.size();
    record.relaxations = result->relaxations_used;
    record.predicates_dropped = result->predicates_dropped;
    record.penalty = result->penalty_applied;
    record.budget_exhausted = result->budget_exhausted;
    record.answers_digest = AnswersDigest(result->answers);
    record.cpu_ms = result->cpu_ms;
    log->Append(record);
  }
  return result;
}

std::shared_ptr<const QueryTrace> FlexPath::last_query_trace() const {
  MutexLock lock(trace_mu_);
  return last_query_trace_;
}

std::string FlexPath::LastTraceChromeJson() const {
  std::shared_ptr<const QueryTrace> trace = last_query_trace();
  if (trace == nullptr) return "";
  return TraceToChromeJson(*trace);
}

std::string FlexPath::FlightRecorderJson() const {
  return FlightRecorder::Global().ToJson();
}

void FlexPath::SetQueryStatsOptions(const QueryStatsOptions& opts) {
  query_stats_.SetOptions(opts);
}

void FlexPath::SetQueryLog(QueryLogWriter* log) {
  query_log_.store(log, std::memory_order_relaxed);
}

std::string FlexPath::VarzJson() const {
  uint64_t queries = 0;
  uint64_t errors = 0;
  double cpu_ms = 0.0;
  ExecCounters counters;
  {
    MutexLock lock(varz_mu_);
    queries = varz_queries_;
    errors = varz_errors_;
    cpu_ms = varz_cpu_ms_;
    counters = varz_counters_;
  }
  // Every total is 0 while nothing has succeeded, so dividing by 1 then
  // renders the 0 means.
  const double succeeded =
      static_cast<double>(std::max<uint64_t>(queries - errors, 1));
  std::string out = "{\"queries\":" + std::to_string(queries);
  out += ",\"errors\":" + std::to_string(errors);
  out += ",\"cpu_ms_total\":" + FormatDouble(cpu_ms);
  out += ",\"cpu_ms_mean\":" + FormatDouble(cpu_ms / succeeded);
  bool first = true;
  auto key = [&out, &first](const char* name) {
    if (!first) out += ',';
    first = false;
    out += '"';
    out += name;
    out += "\":";
  };
  out += ",\"counters_total\":{";
  counters.ForEach([&](const char* name, uint64_t value) {
    key(name);
    out += std::to_string(value);
  });
  out += "},\"counters_mean\":{";
  first = true;
  ExecCounters::VisitFields(
      counters,
      [&](const char* name, const uint64_t& value, ExecCounters::Agg agg) {
        key(name);
        // A high-water mark has no per-query mean; the peak stands.
        const double v = static_cast<double>(value);
        out += FormatDouble(agg == ExecCounters::Agg::kMax ? v
                                                           : v / succeeded);
      });
  out += "}}";
  return out;
}

std::string FlexPath::BuildInfoJson() const {
  std::string out = "{\"library\":\"flexpath\"";
  out += ",\"cxx_standard\":" + std::to_string(__cplusplus);
#if defined(__VERSION__)
  out += ",\"compiler\":\"" + JsonEscape(__VERSION__) + '"';
#else
  out += ",\"compiler\":null";
#endif
#if defined(NDEBUG)
  out += ",\"assertions\":false";
#else
  out += ",\"assertions\":true";
#endif
  out += ",\"built\":";
  out += built_ ? "true" : "false";
  out += ",\"documents\":" + std::to_string(corpus_.size());
  out += ",\"elements\":" + std::to_string(corpus_.TotalNodes());
  out += ",\"distinct_tags\":" +
         std::to_string(std::as_const(corpus_).tags().size());
  return out + '}';
}

void FlexPath::ExpandContains(Tpq* q) const {
  for (VarId v : q->Vars()) {
    for (FtExpr& e : q->mutable_node(v).contains) {
      e = ExpandWithThesaurus(e, thesaurus_);
    }
  }
}

std::string FlexPath::Describe(const Tpq& q) const {
  return q.ToString(corpus_.tags());
}

AnalyzerContext FlexPath::analyzer_context() const {
  AnalyzerContext ctx;
  ctx.index = element_index_.get();
  ctx.stats = stats_.get();
  ctx.ir = ir_.get();
  ctx.dict = &corpus_.tags();
  return ctx;
}

AnalysisReport FlexPath::Analyze(const Tpq& q) const {
  AnalysisReport report = AnalyzeTpq(q, analyzer_context());
  LogReport(report, q.ToString(corpus_.tags()));
  return report;
}

Result<AnalysisReport> FlexPath::AnalyzeXPath(std::string_view xpath) const {
  Result<Tpq> q = Parse(xpath);
  if (!q.ok()) return q.status();
  return Analyze(*q);
}

Result<std::vector<PlanVerdict>> FlexPath::VerifySchedule(
    const Tpq& q) const {
  if (!built_) return Status::InvalidArgument("call Build() first");
  FLEXPATH_RETURN_IF_ERROR(q.Validate());
  PenaltyModel pm(q, stats_.get(), ir_.get(), Weights{});
  const std::vector<ScheduleEntry> schedule = BuildSchedule(q, pm);
  return flexpath::VerifySchedule(q, schedule, analyzer_context());
}

Result<SchemeCertificate> FlexPath::CertifyScheme(RankScheme scheme) const {
  const SchemeCertificate* cert =
      SchemeRegistry::Global().Certificate(scheme);
  if (cert == nullptr) {
    return Status::NotFound(
        "rank scheme value " +
        std::to_string(static_cast<unsigned>(scheme)) +
        " is not registered; custom schemes must pass "
        "SchemeRegistry::Register certification first");
  }
  return *cert;
}

std::string FlexPath::SchemeCertificatesJson() {
  return SchemeRegistry::Global().CertificatesJson();
}

std::string FlexPath::CacheStatsJson() const {
  std::string out = "{\"ir_cache\":";
  if (ir_ != nullptr) {
    const IrEngine::CacheStats ir = ir_->GetCacheStats();
    out += "{\"evictions\":" + std::to_string(ir.evictions);
    out += ",\"entries\":" + std::to_string(ir.entries);
    out += ",\"bytes\":" + std::to_string(ir.bytes);
    out += ",\"budget\":" + std::to_string(ir.budget);
    out += '}';
  } else {
    out += "null";
  }
  out += ",\"merged_scan_cache\":";
  if (element_index_ != nullptr) {
    const ElementIndex::MergedCacheStats ms =
        element_index_->GetMergedCacheStats();
    out += "{\"hits\":" + std::to_string(ms.hits);
    out += ",\"misses\":" + std::to_string(ms.misses);
    out += ",\"evictions\":" + std::to_string(ms.evictions);
    out += ",\"entries\":" + std::to_string(ms.entries);
    out += ",\"bytes\":" + std::to_string(ms.bytes);
    out += ",\"budget\":" + std::to_string(ms.budget);
    out += '}';
  } else {
    out += "null";
  }
  // The storage buffer pools are a different animal from the caches
  // above: they cache *decoded on-disk pages* (element tables, posting
  // lists), not derived results, and exist only for packed corpora.
  out += ",\"storage_buffer_pool\":";
  if (reader_ != nullptr) {
    auto pool_json = [](const storage::StorageReader::PoolStats& s) {
      std::string p = "{\"hits\":" + std::to_string(s.hits);
      p += ",\"misses\":" + std::to_string(s.misses);
      p += ",\"evictions\":" + std::to_string(s.evictions);
      p += ",\"entries\":" + std::to_string(s.entries);
      p += ",\"bytes\":" + std::to_string(s.bytes);
      p += ",\"budget\":" + std::to_string(s.budget);
      p += '}';
      return p;
    };
    out += "{\"element_tables\":" + pool_json(reader_->GetElemPoolStats());
    out += ",\"posting_lists\":" + pool_json(reader_->GetPostPoolStats());
    out += '}';
  } else {
    out += "null";
  }
  out += '}';
  return out;
}

std::string FlexPath::MetricsJson() const {
  return MetricsToJson(MetricsRegistry::Global().Snapshot());
}

std::string FlexPath::MetricsPrometheus() const {
  return MetricsToPrometheus(MetricsRegistry::Global().Snapshot());
}

}  // namespace flexpath
