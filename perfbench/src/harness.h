// Shared pieces of one benchmark run: arguments, the result line, and
// the statistics and resource probes every workload reports.

#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "trace.h"

namespace perfbench {

// Each run records at least this many ops, so p95 has 10 beyond it.
inline constexpr uint64_t kMinOps = 200;
// Set-up is repeated at least kSetupRepeats times and for at least
// kSetupSeconds, so the median is not taken while the CPU is still
// leaving idle, and its median is reported.
inline constexpr size_t kSetupRepeats = 15;
inline constexpr double kSetupSeconds = 0.5;
// Share of --seconds the traced run spends on each timed pass.
inline constexpr double kTracedPassShare = 0.35;
// Median time of the calibration kernel on the reference host, a 4-core
// Xeon VM, near the fastest it ran there (204-229 us over six runs).
inline constexpr double kKernelNominalNs = 200000.0;

// Nominal / measured time of the calibration kernel (calibrate.cc): the
// factor that converts a time measured now into the reference host's time.
double SpeedFactor();

inline double Median(std::vector<double> values);

// Converts segment times into reference-host time: each segment is scaled
// by the mean of the speed factors measured just before and just after it,
// with nothing else running.
class SpeedScale {
 public:
  SpeedScale() : before_(SpeedFactor()) {}

  // Ends a segment that took `seconds` and completed `ops` ops; returns its
  // factor.
  double EndSegment(double seconds, uint64_t ops = 0) {
    double after = SpeedFactor();
    double factor = (before_ + after) / 2.0;
    before_ = after;
    scaled_seconds_ += seconds * factor;
    if (ops > 0) {
      rates_.push_back(static_cast<double>(ops) / (seconds * factor));
    }
    return factor;
  }
  // The ended segments' total time, scaled.
  double scaled_seconds() const { return scaled_seconds_; }
  // The median over segments of ops per scaled second, so that a stall in
  // one segment does not move a run's throughput.
  double median_rate() const { return Median(rates_); }

 private:
  double before_;
  double scaled_seconds_ = 0.0;
  std::vector<double> rates_;
};

struct RunArgs {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string refs_dir;
  std::string work_dir;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Result {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;

  void Add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
};

// splitmix64: the per-op seed stream, a pure function of (seed, index).
inline uint64_t Mix(uint64_t seed, uint64_t index) {
  uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (index + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// Nearest-rank percentile (q in (0, 1]); 0 for an empty sample.
inline double Percentile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return values[std::max<size_t>(rank, 1) - 1];
}

inline double Median(std::vector<double> values) {
  return Percentile(std::move(values), 0.5);
}

// VmHWM of /proc/self/status, which — unlike getrusage's ru_maxrss — does
// not carry over the peak of the process that exec'd this one.
inline double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  return 0.0;
}

// CPU time of the whole process, all threads.
inline double CpuSeconds() {
  struct timespec ts {};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// Adds the latency/throughput end-to-end metrics of one measured phase,
// from reference-host times.
inline void AddLatencyMetrics(const std::vector<double>& latencies_ms,
                              double ops_per_s, Result* result) {
  result->Add("latency_ms_p50", Percentile(latencies_ms, 0.50), "ms");
  result->Add("latency_ms_p95", Percentile(latencies_ms, 0.95), "ms");
  result->Add("ops_per_s", ops_per_s, "1/s");
}

// Logs to stderr the same figures from the times as measured, and the
// mean speed factor, so the effect of the scaling can be checked.
inline void LogMeasured(const std::vector<double>& measured_ms,
                        double measured_s, double scaled_s) {
  std::fprintf(stderr,
               "measured: p50 %.3f ms  p95 %.3f ms  ops/s %.3f  speed %.3f\n",
               Percentile(measured_ms, 0.50), Percentile(measured_ms, 0.95),
               static_cast<double>(measured_ms.size()) / measured_s,
               scaled_s / measured_s);
}

// Per-layer metrics derived from the layer replay's spans and work
// counts (layers.cc). Coverage and run overhead come from "op" spans
// whose "e2e" child is the end-to-end call and whose other children,
// except "layer.detail", are the direct layer calls that cover it.
void DeriveLayerMetrics(const std::vector<Span>& spans,
                        const std::map<std::string, double>& counts,
                        std::map<std::string, double>* layer);
// Adds every per-layer metric in a fixed order, 0 for a layer the
// workload does not exercise.
void AddPerLayerMetrics(const std::map<std::string, double>& layer,
                        Result* result);

// Workload entry points; each fills `result` and returns false on a
// set-up error (reported on stderr).
bool RunEngineWorkload(const RunArgs& args, Result* result);
bool RunServeWorkload(const RunArgs& args, Result* result);

// Prints "<kind> <variant> <qid> <value>" reference lines for every pool
// variant of `workload` that has a computable reference.
bool WriteEngineRefs(const std::string& workload);
bool WriteServeRefs();

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
