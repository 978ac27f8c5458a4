// The untraced end-to-end run. Times are raw here; run.py applies the
// calibration factors and computes the reported metrics.
#include <algorithm>
#include <cstdio>
#include <string>
#include <unordered_set>
#include <vector>

#include "json.h"
#include "modes.h"

namespace flexbench {

namespace {

// A pass ends after this many ops or this much wall time, whichever comes
// first; the probe runs between passes.
constexpr int kPassOps = 32;
constexpr double kPassMs = 250.0;
// Peak RSS is read after this many timed ops (or at the end of a shorter
// run), so it does not grow with how many ops a faster host completes.
constexpr size_t kRssOps = 100;

struct Pass {
  double kernel_before_ms;
  double kernel_after_ms;
  double wall_ms;
  double cpu_ms;
  int ops;
};

}  // namespace

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

int RunTimed(const RunContext& ctx) {
  Engine& engine = *ctx.engine;
  OpStream stream(engine.spec(), ctx.seed, /*stream_id=*/0);
  std::vector<Op> ops;
  std::vector<double> op_ms;
  std::vector<double> op_pass;
  std::vector<uint64_t> digests;
  std::vector<bool> op_ok;
  std::vector<Pass> passes;
  double answers = 0.0;
  uint64_t errors = 0;
  double peak_rss_mb = 0.0;

  const double budget_ms = ctx.seconds * 1000.0;
  double timed_ms = 0.0;
  double kernel_before = ctx.kernel->MeasureMs();
  while (timed_ms < budget_ms) {
    const double cpu_start = ProcessCpuMs();
    const Clock::time_point pass_start = Clock::now();
    int n = 0;
    while (n < kPassOps && MsSince(pass_start) < kPassMs &&
           timed_ms + MsSince(pass_start) < budget_ms) {
      Op op = stream.Next();
      const Clock::time_point start = Clock::now();
      flexpath::Result<flexpath::TopKResult> r = engine.Run(op);
      op_ms.push_back(MsSince(start));
      op_pass.push_back(static_cast<double>(passes.size()));
      op_ok.push_back(r.ok());
      if (r.ok()) {
        digests.push_back(ResultDigest(*r));
        answers += static_cast<double>(r->answers.size());
      } else {
        digests.push_back(0);
        ++errors;
        std::fprintf(stderr, "op failed: %s: %s\n", op.Key().c_str(),
                     r.status().ToString().c_str());
      }
      ops.push_back(std::move(op));
      if (ops.size() == kRssOps) peak_rss_mb = PeakRssMb();
      ++n;
    }
    const double wall_ms = MsSince(pass_start);
    const double cpu_ms = ProcessCpuMs() - cpu_start;
    const double kernel_after = ctx.kernel->MeasureMs();
    passes.push_back({kernel_before, kernel_after, wall_ms, cpu_ms, n});
    kernel_before = kernel_after;
    timed_ms += wall_ms;
  }
  if (ops.size() < kRssOps) peak_rss_mb = PeakRssMb();

  // Verification: every timed op again, untimed, on the in-memory build
  // and on the serial path. Packed answers must equal in-memory answers,
  // and parallel answers serial ones, byte for byte.
  uint64_t mismatches = 0;
  for (size_t i = 0; i < ops.size(); ++i) {
    if (!op_ok[i]) continue;
    flexpath::Result<flexpath::TopKResult> ref = engine.RunReference(ops[i]);
    if (!ref.ok() || ResultDigest(*ref) != digests[i]) {
      ++mismatches;
      std::fprintf(stderr, "answer mismatch: %s\n", ops[i].Key().c_str());
    }
  }

  std::unordered_set<std::string> shapes;
  std::unordered_set<std::string> keys;
  double shape_repeats = 0.0;
  double exact_repeats = 0.0;
  for (const Op& op : ops) {
    shape_repeats += shapes.insert(op.shape).second ? 0.0 : 1.0;
    exact_repeats += keys.insert(op.Key()).second ? 0.0 : 1.0;
  }
  const double n_ops = static_cast<double>(std::max<size_t>(ops.size(), 1));

  std::string out = "{";
  AppendKey(&out, "mode", true);
  AppendString(&out, "e2e");
  AppendKey(&out, "workload", false);
  AppendString(&out, engine.spec().name);
  AppendKey(&out, "reference_kernel_ms", false);
  AppendNumber(&out, CalibrationKernel::kReferenceMs);
  AppendKey(&out, "setup", false);
  out += '[';
  for (size_t i = 0; i < ctx.setups.size(); ++i) {
    if (i > 0) out += ',';
    const SetupSample& s = ctx.setups[i];
    AppendNumbers(&out, {s.times.total_ms, s.kernel_before_ms,
                         s.kernel_after_ms});
  }
  out += ']';
  AppendKey(&out, "passes", false);
  out += '[';
  for (size_t i = 0; i < passes.size(); ++i) {
    if (i > 0) out += ',';
    const Pass& p = passes[i];
    AppendNumbers(&out, {p.kernel_before_ms, p.kernel_after_ms, p.wall_ms,
                         p.cpu_ms, static_cast<double>(p.ops)});
  }
  out += ']';
  AppendKey(&out, "op_ms", false);
  AppendNumbers(&out, op_ms);
  AppendKey(&out, "op_pass", false);
  AppendNumbers(&out, op_pass);
  AppendKey(&out, "attempted", false);
  AppendNumber(&out, static_cast<double>(ops.size()));
  AppendKey(&out, "errors", false);
  AppendNumber(&out, static_cast<double>(errors));
  AppendKey(&out, "mismatches", false);
  AppendNumber(&out, static_cast<double>(mismatches));
  AppendKey(&out, "peak_rss_mb", false);
  AppendNumber(&out, peak_rss_mb);
  AppendKey(&out, "answers_per_op", false);
  AppendNumber(&out, answers / n_ops);
  AppendKey(&out, "shape_repeat_ratio", false);
  AppendNumber(&out, shape_repeats / n_ops);
  AppendKey(&out, "exact_repeat_ratio", false);
  AppendNumber(&out, exact_repeats / n_ops);
  AppendKey(&out, "kernel_checksum", false);
  AppendNumber(&out, static_cast<double>(ctx.kernel->checksum() % 1000003));
  out += '}';
  std::printf("%s\n", out.c_str());
  return mismatches == 0 ? 0 : 1;
}

}  // namespace flexbench
