// perfbench — the repository benchmark's measuring binary.
//
//   perfbench --workload <ingest|serve_hot|serve_cold|query_mix>
//             --seed <n> --seconds <s> --trace <0|1> [--commit <id>]
//
// Prints a human-readable table of the workload's named figures, an
// environment stamp, the outcome digest, and as the last line one JSON
// object {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics with --trace 0, the per-layer metrics with --trace 1.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "harness.h"

namespace {

[[noreturn]] void Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload "
               "<ingest|serve_hot|serve_cold|query_mix> --seed <n> "
               "--seconds <s> --trace <0|1> [--commit <id>]\n");
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  for (int i = 1; i < argc; ++i) {
    if (i + 1 >= argc) Usage();
    const std::string flag = argv[i];
    const char* value = argv[++i];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::atof(value);
    } else if (flag == "--trace") {
      options.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--commit") {
      options.commit = value;
    } else {
      Usage();
    }
  }
  if (options.seconds <= 0) Usage();

  perfbench::Report report;
  if (options.workload == "ingest") {
    perfbench::RunIngest(options, &report);
  } else if (options.workload == "serve_hot") {
    perfbench::RunServeHot(options, &report);
  } else if (options.workload == "serve_cold") {
    perfbench::RunServeCold(options, &report);
  } else if (options.workload == "query_mix") {
    perfbench::RunQueryMix(options, &report);
  } else {
    Usage();
  }
  report.Print(options, perfbench::StampJson(options));
  return 0;
}
