// fa_perfbench — one run of one benchmark workload.
//
//   fa_perfbench --workload repro_batch|serve_read|feed_churn --seed N
//                --seconds S --trace 0|1 --scratch DIR --served PATH
//                [--trace-out FILE]
//
// Prints one JSON object as the last line of stdout: correct, attempted,
// failed and the metrics (end-to-end, or per-layer with --trace 1, when
// spans are recorded around every layer call and written to
// --trace-out at exit). perfbench/run.py builds this binary and is the
// command to use.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "common.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace {

using fa::perfbench::Options;
using fa::perfbench::Report;

// Exec pool width per workload (FA_THREADS counts the calling thread).
// Threads plus client connections stay at or below the 4 cores the
// benchmark is sized for: serve_read's client threads share the
// machine with fa_served (2 workers, 2 exec threads), and feed_churn's
// reader runs beside a 2-wide pool, which leaves a core to the rest of
// the machine (with 3 the reader's throughput followed outside load).
int pool_width(const std::string& workload) {
  return workload == "feed_churn" ? 2 : 4;
}

int usage() {
  std::fprintf(stderr,
               "usage: fa_perfbench --workload repro_batch|serve_read|"
               "feed_churn --seed N --seconds S --trace 0|1 --scratch DIR "
               "--served PATH [--trace-out FILE]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  fa::perfbench::mark_process_start();
  Options options;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--scratch") {
      options.scratch = value;
    } else if (flag == "--served") {
      options.served = value;
    } else if (flag == "--trace-out") {
      options.trace_out = value;
    } else {
      return usage();
    }
  }
  if (options.scratch.empty() || options.seconds <= 0.0) return usage();
  void (*run)(const Options&, Report&) = nullptr;
  if (options.workload == "repro_batch") {
    run = fa::perfbench::run_repro;
  } else if (options.workload == "serve_read") {
    if (options.served.empty()) return usage();
    run = fa::perfbench::run_serve_read;
  } else if (options.workload == "feed_churn") {
    run = fa::perfbench::run_feed_churn;
  } else {
    return usage();
  }
  ::setenv("FA_THREADS", std::to_string(pool_width(options.workload)).c_str(), 1);
  if (options.trace) fa::perfbench::Tracer::get().enable();

  Report report;
  std::string result;
  try {
    run(options, report);
    if (options.trace) {
      std::printf("traced end-to-end: %s\n", report.json(false).c_str());
    }
    result = report.json(options.trace);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fa_perfbench: %s: %s\n", options.workload.c_str(),
                 e.what());
    return 1;
  }
  if (options.trace && !options.trace_out.empty() &&
      !fa::perfbench::Tracer::get().write(options.trace_out)) {
    std::fprintf(stderr, "fa_perfbench: cannot write %s\n",
                 options.trace_out.c_str());
  }
  std::printf("%s\n", result.c_str());
  std::fflush(stdout);
  return 0;
}
