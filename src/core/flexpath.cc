#include "core/flexpath.h"

#include <chrono>
#include <fstream>
#include <sstream>
#include <utility>

#include "common/json_util.h"
#include "common/log.h"

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
  processor_ = std::make_unique<TopKProcessor>(element_index_.get(),
                                               stats_.get(), ir_.get());
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

Status FlexPath::OpenPacked(const std::string& path) {
  if (built_) return Status::InvalidArgument("Build() already called");
  if (corpus_.size() != 0) {
    return Status::InvalidArgument(
        "OpenPacked requires a fresh instance (no documents added)");
  }
  TraceCollector collector("open_packed");
  {
    Span span(&collector, "map_and_validate");
    Result<std::shared_ptr<storage::StorageReader>> reader =
        storage::StorageReader::Open(path);
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
  processor_ = std::make_unique<TopKProcessor>(element_index_.get(),
                                               stats_.get(), ir_.get());
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
    qa.tag = std::as_const(corpus_).tags().Name(corpus_.tag(a.node));
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
  Tpq expanded;
  Result<TopKResult> result =
      processor_->Run(WithThesaurus(q, &expanded), algo, opts);
  QueryExecution exec;
  exec.latency_ms = MsSince(wall_start);
  exec.ts_unix_s = std::chrono::duration<double>(
                       std::chrono::system_clock::now().time_since_epoch())
                       .count();
  exec.fingerprint = FingerprintTpq(q, std::as_const(corpus_).tags());
  exec.query = query_text.empty() ? Describe(q) : std::string(query_text);
  exec.algorithm = AlgorithmName(algo);
  exec.scheme = RankSchemeName(opts.scheme);
  exec.k = opts.k;
  exec.threads = opts.num_threads;
  if (result.ok()) {
    exec.relaxations = result->relaxations_used;
    exec.predicates_dropped = result->predicates_dropped;
    exec.penalty = result->penalty_applied;
    exec.answers = result->answers.size();
    exec.answers_digest = AnswersDigest(result->answers);
    exec.cpu_ms = result->cpu_ms;
    exec.counters = result->counters;
    exec.budget_exhausted = result->budget_exhausted;
  } else {
    exec.error = true;
  }
  const std::shared_ptr<const QueryTrace> trace =
      result.ok() ? result->trace : nullptr;
  if (trace != nullptr) {
    MutexLock lock(trace_mu_);
    last_query_trace_ = trace;
  }
  query_stats_.Record(exec);
  if (opts.slow_query_ms >= 0.0 && exec.latency_ms >= opts.slow_query_ms) {
    query_stats_.RecordSlow(exec, opts.slow_query_ms, trace);
    FLEXPATH_LOG_WARN(
        "exec", "slow query", {"fingerprint", FingerprintHex(exec.fingerprint)},
        {"query", exec.query}, {"algorithm", exec.algorithm},
        {"latency_ms", exec.latency_ms}, {"threshold_ms", opts.slow_query_ms},
        {"relaxations", exec.relaxations}, {"answers", exec.answers});
  } else {
    FLEXPATH_LOG_DEBUG(
        "exec", exec.error ? "query failed" : "query executed",
        {"fingerprint", FingerprintHex(exec.fingerprint)},
        {"query", exec.query}, {"algorithm", exec.algorithm},
        {"latency_ms", exec.latency_ms}, {"relaxations", exec.relaxations},
        {"answers", exec.answers});
  }
  QueryLogWriter* log = query_log_.load(std::memory_order_relaxed);
  if (log != nullptr && result.ok()) log->Append(exec);
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

void FlexPath::SetQueryLog(QueryLogWriter* log) {
  query_log_.store(log, std::memory_order_relaxed);
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

const Tpq& FlexPath::WithThesaurus(const Tpq& q, Tpq* expanded) const {
  if (thesaurus_.size() == 0 || q.ContainsCount() == 0) return q;
  *expanded = q;
  for (VarId v : expanded->Vars()) {
    for (FtExpr& e : expanded->mutable_node(v).contains) {
      e = ExpandWithThesaurus(e, thesaurus_);
    }
  }
  return *expanded;
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
  Tpq expanded;
  AnalysisReport report =
      AnalyzeTpq(WithThesaurus(q, &expanded), analyzer_context());
  LogReport(report, q.ToString(corpus_.tags()));
  return report;
}

Result<AnalysisReport> FlexPath::AnalyzeXPath(std::string_view xpath) const {
  Result<Tpq> q = Parse(xpath);
  if (!q.ok()) return q.status();
  return Analyze(*q);
}

std::string FlexPath::MetricsPrometheus() const {
  return MetricsToPrometheus(MetricsRegistry::Global().Snapshot());
}

}  // namespace flexpath
