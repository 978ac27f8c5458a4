// flexbench: the FleXPath end-to-end benchmark driver binary.
//
//   flexbench --workload NAME --seed N --seconds S --trace 0|1
//             [--scale X] [--work-dir DIR] [--dump-ops N]
//
// Generates (or loads cached) XMark inputs for the seed, sets the program
// up several times with the calibration probe around each set-up, warms
// it up, then runs the untraced timed loop (--trace 0) or the traced
// per-layer run (--trace 1). Prints one JSON line of raw results; run.py
// turns it into the reported metrics. --dump-ops prints the first N ops of
// the seeded stream instead and exits.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "calibration.h"
#include "engine.h"
#include "modes.h"
#include "workload.h"

namespace {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  double scale = 1.0;
  std::string work_dir = ".bench_build/flexbench";
  long dump_ops = 0;
};

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload NAME --seed N --seconds S --trace 0|1 "
               "[--scale X] [--work-dir DIR] [--dump-ops N]\n",
               argv0);
  return 2;
}

// Warm-up: a fixed number of ops from a separate stream, untimed, so
// caches and lazy set-up are in the state a long-running process has.
void WarmUp(flexbench::Engine& engine, uint64_t seed) {
  constexpr int kWarmUpOps = 20;
  flexbench::OpStream warm(engine.spec(), seed, /*stream_id=*/1);
  for (int i = 0; i < kWarmUpOps; ++i) (void)engine.Run(warm.Next());
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(argv[0]);
    const char* value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      args.trace = std::atoi(value);
    } else if (flag == "--scale") {
      args.scale = std::strtod(value, nullptr);
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else if (flag == "--dump-ops") {
      args.dump_ops = std::strtol(value, nullptr, 10);
    } else {
      return Usage(argv[0]);
    }
  }
  const flexbench::WorkloadSpec* spec = flexbench::FindWorkload(args.workload);
  if (spec == nullptr || args.seconds <= 0.0 || args.scale <= 0.0) {
    std::fprintf(stderr, "unknown workload or bad arguments\n");
    return Usage(argv[0]);
  }
  if (args.dump_ops > 0) {
    flexbench::OpStream stream(*spec, args.seed, /*stream_id=*/0);
    for (long i = 0; i < args.dump_ops; ++i) {
      std::printf("%s\n", stream.Next().Key().c_str());
    }
    return 0;
  }

  try {
    flexbench::Engine engine(
        *spec,
        flexbench::LoadDocuments(*spec, args.seed, args.scale,
                                 args.work_dir + "/inputs"),
        args.work_dir + "/packed-" + std::to_string(getpid()) + ".fxp");
    flexbench::CalibrationKernel kernel;
    flexbench::RunContext ctx;
    ctx.engine = &engine;
    ctx.kernel = &kernel;
    ctx.seed = args.seed;
    ctx.seconds = args.seconds;
    // Several set-ups, reported as their median.
    constexpr int kSetups = 5;
    for (int i = 0; i < kSetups; ++i) {
      flexbench::SetupSample s;
      s.kernel_before_ms = kernel.MeasureMs();
      s.times = engine.Setup();
      s.kernel_after_ms = kernel.MeasureMs();
      ctx.setups.push_back(s);
    }
    engine.PrepareReference();
    WarmUp(engine, args.seed);
    return args.trace != 0 ? flexbench::RunTraced(ctx)
                           : flexbench::RunTimed(ctx);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "flexbench: %s\n", e.what());
    return 1;
  }
}
