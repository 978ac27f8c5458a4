#ifndef FLEXPATH_OBS_QUERY_LOG_H_
#define FLEXPATH_OBS_QUERY_LOG_H_

#include <fstream>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "obs/query_stats.h"

namespace flexpath {

/// The workload-capture log: one QueryExecution per successful query,
/// one JSON object per line (AppendExecutionJson's form), so logs append
/// cheaply, survive crashes up to the last complete line, and stream
/// through standard tooling. flexpath_replay re-executes each line with
/// its query text, algorithm, scheme, k and threads, and checks the
/// answers still digest to answers_digest.

/// Parses one log line back into a record. Unknown keys are skipped (so
/// the format can grow); missing keys keep their zero defaults. Lines of
/// the older capture format still parse: a decimal fingerprint, no
/// counters object, and a nested "usage" object, which is skipped.
/// Returns false, with a reason in `error` when non-null, on malformed
/// JSON.
bool ParseQueryLogLine(std::string_view line, QueryExecution* out,
                       std::string* error = nullptr);

/// Reads a JSON-lines query log. Blank lines are skipped; a malformed
/// line fails the whole read (a capture log is machine-written — damage
/// means truncation or corruption worth surfacing, not tolerating).
/// A trailing partial line (crash mid-append) is the one exception: it is
/// dropped with a count in `truncated_lines` when non-null.
Result<std::vector<QueryExecution>> ReadQueryLog(
    const std::string& path, size_t* truncated_lines = nullptr);

/// Appends records to a query log file, one JSON line each, flushed per
/// record. Thread-safe: concurrent Append calls serialize under a mutex,
/// so lines never interleave. Opt-in by construction — no writer, no
/// capture cost anywhere.
class QueryLogWriter {
 public:
  /// Opens `path` for appending (creating it if needed).
  static Result<std::unique_ptr<QueryLogWriter>> Open(const std::string& path);

  void Append(const QueryExecution& record);

  uint64_t records_written() const;

 private:
  explicit QueryLogWriter(std::ofstream out);

  mutable Mutex mu_;
  std::ofstream out_ GUARDED_BY(mu_);
  uint64_t records_ GUARDED_BY(mu_) = 0;
};

}  // namespace flexpath

#endif  // FLEXPATH_OBS_QUERY_LOG_H_
