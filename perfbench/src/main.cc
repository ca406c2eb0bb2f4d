// qrel_perfbench: one benchmark run of one workload.
//
//   qrel_perfbench --workload W --seed N --seconds S --trace 0|1
//                  --refs DIR --work-dir DIR
//   qrel_perfbench --write-refs W
//
// The last line of standard output is the result object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
// with --trace 0, the per-layer metrics with --trace 1. A run whose ops
// were wrong or degenerate prints its result and exits 1; a run that
// cannot set up prints no result and exits 2. perfbench/run.py builds
// this binary and is the documented entry point.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "harness.h"

namespace {

void PrintResult(const perfbench::Result& result) {
  std::string json = "{\"correct\": ";
  json += result.failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(result.attempted);
  json += ", \"failed\": " + std::to_string(result.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < result.metrics.size(); ++i) {
    const perfbench::Metric& m = result.metrics[i];
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(m.value) ? m.value : 0.0);
    json += (i == 0 ? "\"" : ", \"") + m.name + "\": {\"value\": " + value +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

int Usage() {
  std::fprintf(stderr,
               "usage: qrel_perfbench --workload W --seed N --seconds S "
               "--trace 0|1 --refs DIR --work-dir DIR\n"
               "       qrel_perfbench --write-refs W\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunArgs args;
  std::string write_refs;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    std::string value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--refs") {
      args.refs_dir = value;
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else if (flag == "--write-refs") {
      write_refs = value;
    } else {
      return Usage();
    }
  }
  if (argc % 2 == 0) {
    return Usage();
  }
  if (!write_refs.empty()) {
    bool ok = write_refs == "serve_mix" ? perfbench::WriteServeRefs()
                                        : perfbench::WriteEngineRefs(write_refs);
    return ok ? 0 : 2;
  }
  if (args.workload.empty() || args.seconds <= 0.0 || args.refs_dir.empty() ||
      args.work_dir.empty()) {
    return Usage();
  }

  perfbench::Result result;
  bool ran = args.workload == "serve_mix"
                 ? perfbench::RunServeWorkload(args, &result)
                 : perfbench::RunEngineWorkload(args, &result);
  if (!ran) {
    return 2;
  }
  PrintResult(result);
  return result.failed == 0 ? 0 : 1;
}
