#ifndef FLEXPATH_OBS_QUERY_LOG_H_
#define FLEXPATH_OBS_QUERY_LOG_H_

#include <cstdint>
#include <fstream>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/mutex.h"
#include "common/resource_usage.h"
#include "common/status.h"
#include "common/thread_annotations.h"

namespace flexpath {

/// One captured top-K run: everything flexpath_replay needs to re-execute
/// the query with the same options and check it still produces the same
/// answers. Serialized as one JSON object per line (JSON-lines), so logs
/// append cheaply, survive crashes up to the last complete line, and
/// stream through standard tooling.
struct QueryLogRecord {
  double ts_unix_s = 0.0;       ///< Wall-clock capture time (Unix seconds).
  std::string query;            ///< The query text as submitted (re-parseable).
  uint64_t fingerprint = 0;     ///< Shape fingerprint (FingerprintTpq).
  std::string algorithm;        ///< "DPO" / "SSO" / "Hybrid".
  std::string scheme;           ///< Ranking scheme name.
  uint64_t k = 0;
  uint64_t threads = 0;         ///< TopKOptions::num_threads as run.
  double latency_ms = 0.0;
  uint64_t answers = 0;
  uint64_t relaxations = 0;
  uint64_t predicates_dropped = 0;
  double penalty = 0.0;
  bool budget_exhausted = false;
  uint64_t answers_digest = 0;  ///< AnswersDigest over the result list.
  ResourceUsage usage;
};

/// Renders one record as a single JSON line (no trailing newline).
std::string QueryLogRecordToJson(const QueryLogRecord& record);

/// Parses one JSON line back into a record. Unknown keys are skipped (so
/// the format can grow); missing keys keep their zero defaults. Returns
/// false — with a reason in `error` when non-null — on malformed JSON.
bool ParseQueryLogRecord(std::string_view line, QueryLogRecord* out,
                         std::string* error = nullptr);

/// Reads a JSON-lines query log. Blank lines are skipped; a malformed
/// line fails the whole read (a capture log is machine-written — damage
/// means truncation or corruption worth surfacing, not tolerating).
/// A trailing partial line (crash mid-append) is the one exception: it is
/// dropped with a count in `truncated_lines` when non-null.
Result<std::vector<QueryLogRecord>> ReadQueryLog(const std::string& path,
                                                 size_t* truncated_lines =
                                                     nullptr);

/// Appends query-log records to a file, one JSON line each, flushed per
/// record. Thread-safe: concurrent Append calls serialize under a mutex,
/// so lines never interleave. Opt-in by construction — no writer, no
/// capture cost anywhere.
class QueryLogWriter {
 public:
  /// Opens `path` for appending (creating it if needed).
  static Result<std::unique_ptr<QueryLogWriter>> Open(const std::string& path);

  void Append(const QueryLogRecord& record);

  uint64_t records_written() const;
  const std::string& path() const { return path_; }

 private:
  explicit QueryLogWriter(std::string path, std::ofstream out);

  const std::string path_;
  mutable Mutex mu_;
  std::ofstream out_ GUARDED_BY(mu_);
  uint64_t records_ GUARDED_BY(mu_) = 0;
};

}  // namespace flexpath

#endif  // FLEXPATH_OBS_QUERY_LOG_H_
