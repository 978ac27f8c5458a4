// flexpath_cli: an interactive shell around the FleXPath engine.
//
//   flexpath_cli file1.xml file2.xml ...     # load documents, then REPL
//   flexpath_cli --xmark 5                   # 5MB of generated data
//   flexpath_cli --packed corpus.fxp         # mmap a packed corpus file
//                                            # (flexpath_pack output): no
//                                            # parse, no upfront decode —
//                                            # open is O(directories)
//   flexpath_cli --xmark 5 --explain "<xpath>"
//                                            # one-shot EXPLAIN ANALYZE:
//                                            # run the query with tracing
//                                            # on, print the span tree
//                                            # (per-round timings, dropped
//                                            # predicates, counter deltas)
//   flexpath_cli --xmark 5 --explain-json "<xpath>"
//                                            # same, as a JSON trace
//   flexpath_cli --xmark 5 --check "<xpath>"
//                                            # one-shot static analysis:
//                                            # run the semantic analyzer
//                                            # (closure rules + corpus
//                                            # statistics), print the
//                                            # diagnostics, exit 1 if any
//                                            # error (unsatisfiable query)
//   flexpath_cli --xmark 5 --check-json "<xpath>"
//                                            # same, as a JSON report
//
// Commands (one per line):
//   <xpath>                    run a top-K query (default settings)
//   :k N                       set K (default 10)
//   :algo dpo|sso|hybrid       choose the top-K algorithm
//   :scheme structure|keyword|combined
//   :threads N                 worker threads (0 = all cores, 1 = serial;
//                              results are identical either way)
//   :explain <xpath>           show closure, operators and the schedule
//   :analyze <xpath>           run with tracing, print the span tree
//   :lint <xpath>              static analysis: semantic diagnostics
//   :synonym A B               register B as a synonym of A
//   :stats                     corpus + per-query-shape statistics
//   :slowlog                   slow-query log (see --slow-query-ms)
//   :trace [FILE]              Chrome-trace JSON of the last traced query
//                              (stdout, or written to FILE); load it in
//                              chrome://tracing or ui.perfetto.dev
//   :help / :quit
//
// Corpus flags:
//   --packed FILE              open a packed corpus (see flexpath_pack)
//                              instead of parsing XML / generating XMark;
//                              mutually exclusive with document inputs
//   --subtype SUPER SUB        declare SUB a subtype of SUPER before the
//                              index is built (tag generalization,
//                              Section 3.4); repeatable
//
// Observability flags:
//   --log-json                 structured logs as JSON lines on stderr
//   --log-level LEVEL          trace|debug|info|warn|error|off
//   --slow-query-ms N          queries at least N ms slow are logged at
//                              WARN and appended (with their trace) to
//                              the slow-query log
//   --threads N                worker threads for query execution
//                              (0 = hardware concurrency, 1 = serial)
//   --metrics-prom             print a Prometheus text exposition of all
//                              metrics on exit (stdout)
//   --trace-out FILE           collect a trace for every query and write
//                              the last one, in the Chrome Trace Event
//                              Format, to FILE on exit (falls back to the
//                              build trace when no query ran)
//   --admin-port N             serve the embedded admin endpoint on this
//                              port (0 = ephemeral, printed on stderr);
//                              routes: /healthz /buildz /metrics /statsz
//                              /tracez. /metrics carries every counter,
//                              gauge and histogram, the IR cache's too.
//                              Off by default: without the flag no socket
//                              is opened and no thread started
//   --admin-bind ADDR          admin bind address (default 127.0.0.1;
//                              loopback-only unless overridden)
//   --query-log FILE           append one JSON line per query (text,
//                              options, result metadata, cpu_ms,
//                              answers digest); replay the file with
//                              flexpath_replay
//
// Budget flags (soft, checked between relaxation rounds):
//   --max-cpu-ms N             per-query thread-CPU budget in ms; a run
//                              that trips it stops relaxing and returns
//                              its partial answers, flagged
//   --max-tuples N             per-query tuple-creation budget
//
// A numeric value outside its flag's range (a port above 65535, a sign,
// a suffix, anything not a number) is a usage error: the flag and the
// usage line go to stderr, exit code 2.
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>

#include "common/log.h"
#include "common/string_util.h"
#include "core/flexpath.h"
#include "obs/admin_server.h"
#include "obs/query_log.h"
#include "query/logical.h"
#include "relax/operators.h"
#include "relax/penalty.h"
#include "relax/schedule.h"
#include "xmark/generator.h"

namespace {

// Set by the SIGTERM/SIGINT handlers. The handlers only set this flag;
// main() finishes on its normal exit path and returns 128+signal.
volatile std::sig_atomic_t g_shutdown_signal = 0;

void OnShutdownSignal(int sig) { g_shutdown_signal = sig; }

// sigaction without SA_RESTART: a signal mid-getline makes the read fail
// with EINTR, so the REPL loop exits and main() runs its cleanup.
void InstallShutdownHandlers() {
  struct sigaction sa = {};
  sa.sa_handler = OnShutdownSignal;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = 0;
  sigaction(SIGTERM, &sa, nullptr);
  sigaction(SIGINT, &sa, nullptr);
}

struct CliState {
  flexpath::FlexPath fp;
  size_t k = 10;
  flexpath::Algorithm algo = flexpath::Algorithm::kHybrid;
  flexpath::RankScheme scheme = flexpath::RankScheme::kStructureFirst;
  double slow_query_ms = -1.0;  ///< Negative: slow-query log disabled.
  size_t threads = 0;           ///< 0: hardware concurrency; 1: serial.
  double max_cpu_ms = 0.0;      ///< Soft per-query CPU budget (0: off).
  uint64_t max_tuples = 0;      ///< Soft per-query tuple budget (0: off).
  std::string trace_out;        ///< --trace-out target (empty: off).
};

flexpath::TopKOptions MakeOptions(const CliState& state) {
  flexpath::TopKOptions opts;
  opts.k = state.k;
  opts.scheme = state.scheme;
  opts.slow_query_ms = state.slow_query_ms;
  opts.num_threads = state.threads;
  opts.max_cpu_ms = state.max_cpu_ms;
  opts.max_tuples = state.max_tuples;
  // --trace-out wants a Chrome trace of whatever ran last, so every
  // query collects one.
  opts.collect_trace = !state.trace_out.empty();
  return opts;
}

bool WriteFile(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  out << content;
  return true;
}

// Parses a thread count: a non-negative decimal integer. Values above
// kMaxThreads parse here and fail at query time.
bool ParseThreads(const std::string& text, size_t* out) {
  uint64_t n = 0;
  if (!flexpath::ParseUint64(text, 0, SIZE_MAX, &n)) return false;
  *out = static_cast<size_t>(n);
  return true;
}

// Registers every admin route against the engine. The server owns
// nothing: handlers read from `state` (alive for the whole process) and
// every underlying accessor is thread-safe, so scrapes run concurrently
// with REPL queries.
void RegisterAdminRoutes(CliState& state, flexpath::AdminServer& server) {
  auto json = [](std::string body) {
    flexpath::HttpResponse resp;
    resp.body = std::move(body);
    return resp;
  };
  server.Handle("/healthz", [json](const flexpath::HttpRequest&) {
    return json("{\"status\":\"ok\"}");
  });
  server.Handle("/buildz", [&state, json](const flexpath::HttpRequest&) {
    return json(state.fp.BuildInfoJson());
  });
  server.Handle("/metrics", [&state](const flexpath::HttpRequest&) {
    flexpath::HttpResponse resp;
    resp.content_type = "text/plain; version=0.0.4; charset=utf-8";
    resp.body = state.fp.MetricsPrometheus();
    return resp;
  });
  server.Handle("/statsz", [&state, json](const flexpath::HttpRequest& req) {
    // ?recent=N caps the recent/slow_log arrays; the explicit ceiling
    // keeps a scrape from asking for an unbounded render. N that is not
    // a non-negative decimal integer is a 400.
    constexpr uint64_t kMaxRecent = 1024;
    uint64_t recent = kMaxRecent;
    if (const std::string* n = req.Param("recent")) {
      if (!flexpath::ParseUint64(*n, 0, UINT64_MAX, &recent)) {
        flexpath::HttpResponse resp =
            json("{\"error\":\"recent must be a non-negative integer\"}");
        resp.status = 400;
        return resp;
      }
      recent = std::min(recent, kMaxRecent);
    }
    return json(state.fp.query_stats()->ToJson(static_cast<size_t>(recent)));
  });
  server.Handle("/tracez", [&state, json](const flexpath::HttpRequest&) {
    const std::string chrome = state.fp.LastTraceChromeJson();
    return json(chrome.empty() ? "{\"traceEvents\":[]}" : chrome);
  });
}

void PrintHelp() {
  std::printf(
      "  <xpath>                  run a top-K query\n"
      "  :k N                     set K (current answers cap)\n"
      "  :algo dpo|sso|hybrid     choose the algorithm\n"
      "  :scheme structure|keyword|combined\n"
      "  :threads N               worker threads (0 = all cores, 1 = serial)\n"
      "  :explain <xpath>         closure, operators, schedule\n"
      "  :analyze <xpath>         run with tracing, print the span tree\n"
      "  :lint <xpath>            static diagnostics\n"
      "  :synonym A B             thesaurus entry (B relaxes A)\n"
      "  :stats                   corpus + per-query-shape statistics\n"
      "  :slowlog                 slow-query log\n"
      "  :trace [FILE]            Chrome-trace JSON of the last traced query\n"
      "  :help, :quit\n");
}

void RunQuery(CliState& state, const std::string& xpath) {
  flexpath::Result<flexpath::Tpq> q = state.fp.Parse(xpath);
  if (!q.ok()) {
    std::printf("error: %s\n", q.status().ToString().c_str());
    return;
  }
  // QueryTpq (not Query) so budget trips are visible on the result.
  flexpath::Result<flexpath::TopKResult> result =
      state.fp.QueryTpq(*q, MakeOptions(state), state.algo, xpath);
  if (!result.ok()) {
    std::printf("error: %s\n", result.status().ToString().c_str());
    return;
  }
  if (result->budget_exhausted) {
    std::printf("(budget exhausted after %zu relaxations; "
                "partial answers)\n",
                result->relaxations_used);
  }
  if (result->answers.empty()) {
    std::printf("(no answers)\n");
    return;
  }
  const flexpath::Corpus& corpus = state.fp.corpus();
  int rank = 1;
  for (const flexpath::RankedAnswer& a : result->answers) {
    const std::string& tag =
        std::as_const(corpus).tags().Name(corpus.tag(a.node));
    std::string snippet =
        corpus.DocWithContent(a.node.doc).SubtreeText(a.node.node);
    std::printf("%3d. <%s> ss=%.3f ks=%.3f  %.70s\n", rank++, tag.c_str(),
                a.score.ss, a.score.ks, snippet.c_str());
  }
}

void Explain(CliState& state, const std::string& xpath) {
  flexpath::Result<flexpath::Tpq> q = state.fp.Parse(xpath);
  if (!q.ok()) {
    std::printf("error: %s\n", q.status().ToString().c_str());
    return;
  }
  const flexpath::TagDict& dict = std::as_const(state.fp.corpus()).tags();
  std::printf("pattern: %s\n", state.fp.Describe(*q).c_str());
  flexpath::LogicalQuery closure = flexpath::TreeClosure(*q);
  std::printf("closure: %s\n", closure.ToString(&dict).c_str());
  std::printf("operators:\n");
  for (const flexpath::RelaxOp& op : flexpath::ApplicableOps(*q)) {
    std::printf("  %s\n", op.ToString().c_str());
  }
  flexpath::PenaltyModel pm(*q, state.fp.stats(), state.fp.ir_engine(),
                            flexpath::Weights{});
  std::printf("schedule:\n");
  for (const flexpath::ScheduleEntry& e : flexpath::BuildSchedule(*q, pm)) {
    std::printf("  pi=%.4f cum=%.4f %-24s %s\n", e.step_penalty,
                e.cumulative_penalty, e.op.ToString().c_str(),
                state.fp.Describe(e.relaxed).c_str());
  }
}

// EXPLAIN ANALYZE: runs the query with trace collection on and prints
// the execution span tree — one span per relaxation round with its
// wall-clock time, dropped predicates, and ExecCounters delta. Returns
// nonzero on error so the one-shot flags can exit with a status.
int ExplainAnalyze(CliState& state, const std::string& xpath,
                   bool as_json) {
  flexpath::Result<flexpath::Tpq> q = state.fp.Parse(xpath);
  if (!q.ok()) {
    std::printf("error: %s\n", q.status().ToString().c_str());
    return 1;
  }
  flexpath::TopKOptions opts = MakeOptions(state);
  opts.collect_trace = true;
  flexpath::Result<flexpath::TopKResult> result =
      state.fp.QueryTpq(*q, opts, state.algo, xpath);
  if (!result.ok()) {
    std::printf("error: %s\n", result.status().ToString().c_str());
    return 1;
  }
  if (result->trace == nullptr) {
    std::printf("error: no trace collected\n");
    return 1;
  }
  if (as_json) {
    std::printf("%s\n", flexpath::TraceToJson(*result->trace).c_str());
  } else {
    std::printf("%s", flexpath::TraceToText(*result->trace).c_str());
    std::printf("answers: %zu, relaxations used: %zu\n",
                result->answers.size(), result->relaxations_used);
  }
  return 0;
}

// Static analysis (--check / --check-json, and :lint in the REPL):
// parses the query and runs the semantic analyzer on it as it would run
// (contains expanded through the thesaurus) — redundant contains
// predicates plus corpus-level unsatisfiability. Exit status 1 when the
// report carries an error (the query is provably answerless).
int Check(CliState& state, const std::string& xpath, bool as_json) {
  flexpath::Result<flexpath::AnalysisReport> report =
      state.fp.AnalyzeXPath(xpath);
  if (!report.ok()) {
    std::printf("error: %s\n", report.status().ToString().c_str());
    return 1;
  }
  if (as_json) {
    std::printf("%s\n", flexpath::DiagnosticsJson(*report).c_str());
  } else if (report->diagnostics.empty()) {
    std::printf("no diagnostics\n");
  } else {
    for (const flexpath::Diagnostic& d : report->diagnostics) {
      std::printf("%s\n", d.ToString().c_str());
    }
  }
  return report->ErrorCount() > 0 ? 1 : 0;
}

void PrintUsage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--xmark MB] [--packed FILE] "
               "[--explain \"<xpath>\"] "
               "[--explain-json \"<xpath>\"] [--check \"<xpath>\"] "
               "[--check-json \"<xpath>\"] "
               "[--subtype SUPER SUB] "
               "[--log-json] [--log-level L] [--slow-query-ms N] "
               "[--threads N] [--metrics-prom] "
               "[--trace-out FILE] [--admin-port N] [--admin-bind ADDR] "
               "[--query-log FILE] [--max-cpu-ms N] [--max-tuples N] "
               "[file.xml ...]\n",
               argv0);
}

// Reports a flag value that does not parse as the flag takes it, then the
// usage line; the caller exits 2, as for an unknown flag.
void BadValue(const char* argv0, const char* flag, const char* expected,
              const char* value) {
  std::fprintf(stderr, "%s: expected %s, got %s\n", flag, expected, value);
  PrintUsage(argv0);
}

// Matches `--flag VALUE` or `--flag=VALUE`; returns the value (advancing
// *i past a separate-argument value) or null when argv[*i] is a
// different flag or the value is missing.
const char* FlagValue(int argc, char** argv, int* i, const char* flag) {
  const size_t len = std::strlen(flag);
  const char* arg = argv[*i];
  if (std::strncmp(arg, flag, len) != 0) return nullptr;
  if (arg[len] == '=') return arg + len + 1;
  if (arg[len] == '\0' && *i + 1 < argc) return argv[++*i];
  return nullptr;
}

void PrintStats(CliState& state) {
  const flexpath::Corpus& corpus = state.fp.corpus();
  std::printf("documents: %zu, elements: %zu, distinct tags: %zu\n",
              corpus.size(), corpus.TotalNodes(),
              std::as_const(corpus).tags().size());
  const std::vector<flexpath::ShapeStatsSnapshot> shapes =
      state.fp.query_stats()->Shapes();
  if (shapes.empty()) return;
  std::printf("\nquery shapes (%zu):\n", shapes.size());
  std::printf("%-16s %6s %4s %9s %9s %8s %6s %7s %8s  %s\n", "fingerprint",
              "execs", "errs", "p50ms", "p99ms", "cpums", "relax", "dropped",
              "penalty", "query");
  for (const flexpath::ShapeStatsSnapshot& s : shapes) {
    std::printf(
        "%-16s %6llu %4llu %9.3f %9.3f %8.3f %6.2f %7.2f %8.3f  %.60s\n",
        flexpath::FingerprintHex(s.fingerprint).c_str(),
        static_cast<unsigned long long>(s.executions),
        static_cast<unsigned long long>(s.errors),
        s.latency_ms.Quantile(0.5), s.latency_ms.Quantile(0.99),
        s.MeanCpuMs(), s.MeanRelaxations(), s.MeanPredicatesDropped(),
        s.MeanPenalty(), s.example_query.c_str());
  }
}

void PrintSlowLog(CliState& state) {
  const std::vector<flexpath::SlowQueryEntry> entries =
      state.fp.query_stats()->SlowLog();
  if (entries.empty()) {
    std::printf("(slow-query log empty%s)\n",
                state.slow_query_ms < 0.0 ? "; enable with --slow-query-ms"
                                          : "");
    return;
  }
  for (const flexpath::SlowQueryEntry& e : entries) {
    std::printf("%.3fms (threshold %.3fms) %s [%s] %s\n",
                e.execution.latency_ms, e.threshold_ms,
                flexpath::FingerprintHex(e.execution.fingerprint).c_str(),
                e.execution.algorithm.c_str(), e.execution.query.c_str());
    if (e.trace != nullptr) {
      std::printf("%s", flexpath::TraceToText(*e.trace).c_str());
    }
  }
}

int Repl(CliState& state) {
  std::printf("FleXPath ready. :help for commands.\n");
  std::string line;
  while (std::printf("flexpath> "), std::fflush(stdout),
         std::getline(std::cin, line)) {
    std::string_view trimmed = flexpath::Trim(line);
    if (trimmed.empty()) continue;
    if (trimmed[0] != ':') {
      RunQuery(state, std::string(trimmed));
      continue;
    }
    std::istringstream words{std::string(trimmed)};
    std::string cmd;
    words >> cmd;
    if (cmd == ":quit" || cmd == ":q" || cmd == ":exit") break;
    if (cmd == ":help") {
      PrintHelp();
    } else if (cmd == ":k") {
      std::string arg;
      uint64_t k = 0;
      if (words >> arg && flexpath::ParseUint64(arg, 1, SIZE_MAX, &k)) {
        state.k = static_cast<size_t>(k);
        std::printf("k = %zu\n", state.k);
      } else {
        std::printf("usage: :k N\n");
      }
    } else if (cmd == ":algo") {
      std::string name;
      words >> name;
      if (name == "dpo") {
        state.algo = flexpath::Algorithm::kDpo;
      } else if (name == "sso") {
        state.algo = flexpath::Algorithm::kSso;
      } else if (name == "hybrid") {
        state.algo = flexpath::Algorithm::kHybrid;
      } else {
        std::printf("usage: :algo dpo|sso|hybrid\n");
        continue;
      }
      std::printf("algorithm = %s\n", flexpath::AlgorithmName(state.algo));
    } else if (cmd == ":scheme") {
      std::string name;
      words >> name;
      if (name == "structure") {
        state.scheme = flexpath::RankScheme::kStructureFirst;
      } else if (name == "keyword") {
        state.scheme = flexpath::RankScheme::kKeywordFirst;
      } else if (name == "combined") {
        state.scheme = flexpath::RankScheme::kCombined;
      } else {
        std::printf("usage: :scheme structure|keyword|combined\n");
        continue;
      }
      std::printf("scheme = %s\n", flexpath::RankSchemeName(state.scheme));
    } else if (cmd == ":threads") {
      std::string arg;
      size_t n = 0;
      if (words >> arg && ParseThreads(arg, &n)) {
        state.threads = n;
        std::printf("threads = %zu%s\n", state.threads,
                    state.threads == 0 ? " (hardware concurrency)" : "");
      } else {
        std::printf("usage: :threads N (0 = all cores, 1 = serial)\n");
      }
    } else if (cmd == ":explain") {
      std::string rest;
      std::getline(words, rest);
      Explain(state, std::string(flexpath::Trim(rest)));
    } else if (cmd == ":analyze") {
      std::string rest;
      std::getline(words, rest);
      ExplainAnalyze(state, std::string(flexpath::Trim(rest)),
                     /*as_json=*/false);
    } else if (cmd == ":lint") {
      std::string rest;
      std::getline(words, rest);
      Check(state, std::string(flexpath::Trim(rest)), /*as_json=*/false);
    } else if (cmd == ":synonym") {
      std::string a, b;
      if (words >> a >> b) {
        state.fp.thesaurus()->AddSynonym(a, b);
        std::printf("synonym registered\n");
      } else {
        std::printf("usage: :synonym A B\n");
      }
    } else if (cmd == ":stats") {
      PrintStats(state);
    } else if (cmd == ":slowlog") {
      PrintSlowLog(state);
    } else if (cmd == ":trace") {
      const std::string chrome = state.fp.LastTraceChromeJson();
      if (chrome.empty()) {
        std::printf(
            "(no trace collected; run :analyze <xpath>, or start with "
            "--trace-out)\n");
        continue;
      }
      std::string file;
      if (words >> file) {
        if (WriteFile(file, chrome)) {
          std::printf("trace written to %s (load in chrome://tracing or "
                      "ui.perfetto.dev)\n",
                      file.c_str());
        }
      } else {
        std::printf("%s\n", chrome.c_str());
      }
    } else {
      std::printf("unknown command %s (:help)\n", cmd.c_str());
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  CliState state;
  bool loaded = false;
  std::string packed_path;
  bool metrics_prom = false;
  const char* explain_query = nullptr;
  bool explain_json = false;
  const char* check_query = nullptr;
  bool check_json = false;
  std::string query_log_path;
  bool admin_enabled = false;
  flexpath::AdminServerOptions admin_opts;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--log-json") == 0) {
      flexpath::Logger::Global().SetJsonOutput(true);
      continue;
    }
    if (std::strcmp(argv[i], "--log-level") == 0 && i + 1 < argc) {
      flexpath::LogLevel level;
      if (!flexpath::ParseLogLevel(argv[++i], &level)) {
        std::fprintf(stderr, "unknown log level %s\n", argv[i]);
        return 2;
      }
      flexpath::Logger::Global().SetLevel(level);
      continue;
    }
    if (std::strcmp(argv[i], "--slow-query-ms") == 0 && i + 1 < argc) {
      if (!flexpath::ParseNonNegative(argv[++i], &state.slow_query_ms)) {
        BadValue(argv[0], "--slow-query-ms", "a non-negative number",
                 argv[i]);
        return 2;
      }
      continue;
    }
    if (const char* v = FlagValue(argc, argv, &i, "--threads")) {
      if (!ParseThreads(v, &state.threads)) {
        BadValue(argv[0], "--threads", "a non-negative integer", v);
        return 2;
      }
      continue;
    }
    if (std::strcmp(argv[i], "--metrics-prom") == 0) {
      metrics_prom = true;
      continue;
    }
    if (const char* v = FlagValue(argc, argv, &i, "--trace-out")) {
      state.trace_out = v;
      continue;
    }
    if (const char* v = FlagValue(argc, argv, &i, "--admin-port")) {
      uint64_t port = 0;
      if (!flexpath::ParseUint64(v, 0, 65535, &port)) {
        BadValue(argv[0], "--admin-port",
                 "a port in [0, 65535] (0: ephemeral)", v);
        return 2;
      }
      admin_enabled = true;
      admin_opts.port = static_cast<uint16_t>(port);
      continue;
    }
    if (const char* v = FlagValue(argc, argv, &i, "--admin-bind")) {
      admin_opts.bind_address = v;
      continue;
    }
    if (const char* v = FlagValue(argc, argv, &i, "--query-log")) {
      query_log_path = v;
      continue;
    }
    if (const char* v = FlagValue(argc, argv, &i, "--max-cpu-ms")) {
      if (!flexpath::ParseNonNegative(v, &state.max_cpu_ms)) {
        BadValue(argv[0], "--max-cpu-ms", "a non-negative number", v);
        return 2;
      }
      continue;
    }
    if (const char* v = FlagValue(argc, argv, &i, "--max-tuples")) {
      if (!flexpath::ParseUint64(v, 0, UINT64_MAX, &state.max_tuples)) {
        BadValue(argv[0], "--max-tuples", "a non-negative integer", v);
        return 2;
      }
      continue;
    }
    if (std::strcmp(argv[i], "--explain") == 0 ||
        std::strcmp(argv[i], "--explain-json") == 0) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s requires a query argument\n", argv[i]);
        return 2;
      }
      explain_json = std::strcmp(argv[i], "--explain-json") == 0;
      explain_query = argv[++i];
      continue;
    }
    if (std::strcmp(argv[i], "--check") == 0 ||
        std::strcmp(argv[i], "--check-json") == 0) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s requires a query argument\n", argv[i]);
        return 2;
      }
      check_json = std::strcmp(argv[i], "--check-json") == 0;
      check_query = argv[++i];
      continue;
    }
    if (const char* v = FlagValue(argc, argv, &i, "--packed")) {
      packed_path = v;
      continue;
    }
    if (std::strcmp(argv[i], "--subtype") == 0 && i + 2 < argc) {
      // Interns into the tag dictionary, which a packed open needs empty
      // (packed tag ids are positional).
      if (!packed_path.empty()) {
        std::fprintf(stderr,
                     "--subtype cannot be combined with --packed: pass "
                     "--subtype when packing instead\n");
        return 2;
      }
      const flexpath::TagId super = state.fp.tags()->Intern(argv[i + 1]);
      const flexpath::TagId sub = state.fp.tags()->Intern(argv[i + 2]);
      i += 2;
      if (flexpath::Status st =
              state.fp.type_hierarchy()->AddSubtype(super, sub);
          !st.ok()) {
        std::fprintf(stderr, "--subtype: %s\n", st.ToString().c_str());
        return 2;
      }
      continue;
    }
    if (std::strcmp(argv[i], "--xmark") == 0 && i + 1 < argc) {
      double mb = 0.0;
      if (!flexpath::ParseNonNegative(argv[++i], &mb)) {
        BadValue(argv[0], "--xmark", "a non-negative number of MB", argv[i]);
        return 2;
      }
      flexpath::XMarkOptions opts;
      opts.target_bytes = static_cast<uint64_t>(mb * 1024 * 1024);
      opts.seed = 42;
      flexpath::Result<flexpath::Document> doc =
          flexpath::GenerateXMark(opts, state.fp.tags());
      if (!doc.ok()) {
        std::fprintf(stderr, "%s\n", doc.status().ToString().c_str());
        return 1;
      }
      if (flexpath::Result<flexpath::DocId> id =
              state.fp.AddDocument(std::move(doc).value());
          !id.ok()) {
        std::fprintf(stderr, "%s\n", id.status().ToString().c_str());
        return 1;
      }
      loaded = true;
      continue;
    }
    if (std::strncmp(argv[i], "--", 2) == 0) {
      // Also a value-taking flag given without its value.
      std::fprintf(stderr, "unknown flag %s\n", argv[i]);
      PrintUsage(argv[0]);
      return 2;
    }
    flexpath::Result<flexpath::DocId> id = state.fp.AddDocumentFile(argv[i]);
    if (!id.ok()) {
      std::fprintf(stderr, "%s: %s\n", argv[i],
                   id.status().ToString().c_str());
      return 1;
    }
    loaded = true;
  }
  if (!packed_path.empty() && loaded) {
    std::fprintf(stderr,
                 "--packed is mutually exclusive with XML inputs and "
                 "--xmark (the packed file *is* the corpus)\n");
    return 2;
  }
  if (!loaded && packed_path.empty()) {
    PrintUsage(argv[0]);
    std::fprintf(stderr,
                 "loads documents, then starts an interactive shell;\n"
                 "--explain runs one traced query and exits;\n"
                 "--check runs the static analyzer and exits (1 on error);\n"
                 "--metrics-prom prints Prometheus metrics on exit;\n"
                 "--trace-out writes a Chrome/Perfetto trace of the last "
                 "query on exit\n");
    return 2;
  }
  if (!packed_path.empty()) {
    if (flexpath::Status st = state.fp.OpenPacked(packed_path); !st.ok()) {
      std::fprintf(stderr, "--packed %s: %s\n", packed_path.c_str(),
                   st.ToString().c_str());
      return 1;
    }
  } else if (flexpath::Status st = state.fp.Build(); !st.ok()) {
    std::fprintf(stderr, "build failed: %s\n", st.ToString().c_str());
    return 1;
  }
  std::unique_ptr<flexpath::QueryLogWriter> query_log;
  if (!query_log_path.empty()) {
    flexpath::Result<std::unique_ptr<flexpath::QueryLogWriter>> writer =
        flexpath::QueryLogWriter::Open(query_log_path);
    if (!writer.ok()) {
      std::fprintf(stderr, "--query-log: %s\n",
                   writer.status().ToString().c_str());
      return 2;
    }
    query_log = std::move(writer).value();
    state.fp.SetQueryLog(query_log.get());
    std::fprintf(stderr, "query log: %s\n", query_log_path.c_str());
  }
  flexpath::AdminServer admin(admin_opts);
  if (admin_enabled) {
    RegisterAdminRoutes(state, admin);
    if (flexpath::Status st = admin.Start(); !st.ok()) {
      std::fprintf(stderr, "--admin-port: %s\n", st.ToString().c_str());
      return 2;
    }
    std::fprintf(stderr, "admin endpoint: http://%s:%u/\n",
                 admin_opts.bind_address.c_str(), admin.port());
  }
  InstallShutdownHandlers();
  int rc = 0;
  if (check_query != nullptr) {
    rc = Check(state, check_query, check_json);
  } else if (explain_query != nullptr) {
    rc = ExplainAnalyze(state, explain_query, explain_json);
  } else {
    PrintStats(state);
    rc = Repl(state);
  }
  if (admin_enabled) admin.Stop();
  state.fp.SetQueryLog(nullptr);
  if (!state.trace_out.empty()) {
    std::string chrome = state.fp.LastTraceChromeJson();
    if (chrome.empty() && state.fp.build_trace() != nullptr) {
      // No query ran (or none was traced): the build trace still gives
      // the file a valid, loadable timeline.
      chrome = flexpath::TraceToChromeJson(*state.fp.build_trace());
    }
    if (chrome.empty()) {
      std::fprintf(stderr, "--trace-out: no trace collected\n");
    } else if (WriteFile(state.trace_out, chrome)) {
      std::fprintf(stderr, "trace written to %s\n", state.trace_out.c_str());
    }
  }
  if (metrics_prom) {
    std::printf("%s", state.fp.MetricsPrometheus().c_str());
  }
  // Graceful SIGTERM/SIGINT: the conventional 128+signal status.
  if (g_shutdown_signal != 0) return 128 + static_cast<int>(g_shutdown_signal);
  return rc;
}
