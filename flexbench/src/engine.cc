#include "engine.h"

#include <sys/resource.h>

#include <cstdio>
#include <ctime>
#include <stdexcept>
#include <utility>

#include "common/hash.h"
#include "rank/score.h"

namespace flexbench {

double ProcessCpuMs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) / 1e6;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

uint64_t ResultDigest(const flexpath::TopKResult& r) {
  uint64_t h = flexpath::AnswersDigest(r.answers);
  h = flexpath::HashCombine(h, static_cast<uint64_t>(r.relaxations_used));
  return flexpath::HashCombine(h, static_cast<uint64_t>(r.predicates_dropped));
}

namespace {

void Check(const flexpath::Status& st, const char* what) {
  if (!st.ok()) {
    throw std::runtime_error(std::string(what) + ": " + st.ToString());
  }
}

}  // namespace

Engine::Engine(const WorkloadSpec& spec, std::vector<std::string> docs,
               std::string packed_path)
    : spec_(spec),
      docs_(std::move(docs)),
      packed_path_(std::move(packed_path)) {}

Engine::~Engine() {
  if (spec_.packed) std::remove(packed_path_.c_str());
}

SetupTimes Engine::Setup() {
  memory_.reset();  // Never hold two collections at once.
  SetupTimes t;
  const Clock::time_point start = Clock::now();
  auto fp = std::make_unique<flexpath::FlexPath>();
  for (const std::string& xml : docs_) {
    Check(fp->AddDocumentXml(xml).status(), "AddDocumentXml");
  }
  t.xml_parse_ms = MsSince(start);
  if (spec_.packed) {
    const Clock::time_point at = Clock::now();
    Check(fp->SavePacked(packed_path_), "SavePacked");
    t.pack_ms = MsSince(at);
    flexpath::FlexPath session;
    Check(session.OpenPacked(packed_path_), "OpenPacked");
  } else {
    const Clock::time_point at = Clock::now();
    Check(fp->Build(), "Build");
    t.build_ms = MsSince(at);
  }
  t.total_ms = MsSince(start);
  memory_ = std::move(fp);
  return t;
}

void Engine::PrepareReference() {
  if (spec_.packed) Check(memory_->Build(), "Build (reference)");
}

flexpath::TopKOptions Engine::Options(const Op& op) const {
  flexpath::TopKOptions opts;
  opts.k = op.k;
  opts.scheme = op.scheme;
  opts.num_threads = spec_.threads;
  return opts;
}

flexpath::Result<flexpath::TopKResult> Engine::Run(const Op& op) {
  if (!spec_.packed) {
    flexpath::Result<flexpath::Tpq> q = memory_->Parse(op.xpath);
    if (!q.ok()) return q.status();
    return memory_->QueryTpq(*q, Options(op), op.algo, op.xpath);
  }
  flexpath::FlexPath session;
  if (flexpath::Status st = session.OpenPacked(packed_path_); !st.ok()) {
    return st;
  }
  flexpath::Result<flexpath::Tpq> q = session.Parse(op.xpath);
  if (!q.ok()) return q.status();
  return session.QueryTpq(*q, Options(op), op.algo, op.xpath);
}

flexpath::Result<flexpath::TopKResult> Engine::RunReference(const Op& op) {
  flexpath::Result<flexpath::Tpq> q = memory_->Parse(op.xpath);
  if (!q.ok()) return q.status();
  flexpath::TopKOptions opts = Options(op);
  opts.num_threads = 1;
  return memory_->QueryTpq(*q, opts, op.algo, op.xpath);
}

}  // namespace flexbench
