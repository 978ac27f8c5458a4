#ifndef FLEXBENCH_ENGINE_H_
#define FLEXBENCH_ENGINE_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/flexpath.h"
#include "workload.h"

namespace flexbench {

using Clock = std::chrono::steady_clock;

inline double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

/// CPU time of the whole process (every thread), in ms.
double ProcessCpuMs();

/// Peak resident set size of the process so far, in MB.
double PeakRssMb();

/// Answers digest of one result: every answer and score (AnswersDigest)
/// plus the relaxation depth it reached.
uint64_t ResultDigest(const flexpath::TopKResult& r);

/// What one set-up took, split by the calls it made.
struct SetupTimes {
  double total_ms = 0.0;
  double xml_parse_ms = 0.0;  ///< FlexPath::AddDocumentXml, all documents.
  double build_ms = 0.0;      ///< FlexPath::Build (in-memory workloads).
  double pack_ms = 0.0;       ///< FlexPath::SavePacked (packed workload).
};

/// The program under test for one workload: the documents, the live
/// FlexPath instance, and for the packed workload the packed file plus an
/// in-memory build of the same collection that answers are checked
/// against.
class Engine {
 public:
  Engine(const WorkloadSpec& spec, std::vector<std::string> docs,
         std::string packed_path);
  ~Engine();
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// One set-up from scratch, replacing the previous instance: ingest and
  /// Build(), or ingest, pack and open. Throws on failure.
  SetupTimes Setup();

  /// Untimed: finishes the reference instance (packed workload: Build()
  /// on the ingested collection). Call once after the last Setup().
  void PrepareReference();

  /// One op as a user issues it: open a session (packed), parse, query.
  flexpath::Result<flexpath::TopKResult> Run(const Op& op);

  /// The same op on the in-memory instance, serially: the answers every
  /// timed op must reproduce byte for byte.
  flexpath::Result<flexpath::TopKResult> RunReference(const Op& op);

  /// Options of `op` under this workload (threads from the spec).
  flexpath::TopKOptions Options(const Op& op) const;

  const WorkloadSpec& spec() const { return spec_; }
  /// The in-memory instance (the live one, or the packed reference).
  flexpath::FlexPath& memory() { return *memory_; }
  const std::string& packed_path() const { return packed_path_; }

 private:
  const WorkloadSpec& spec_;
  std::vector<std::string> docs_;
  std::string packed_path_;
  std::unique_ptr<flexpath::FlexPath> memory_;
};

}  // namespace flexbench

#endif  // FLEXBENCH_ENGINE_H_
