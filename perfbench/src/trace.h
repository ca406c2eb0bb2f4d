// In-memory span recording for the traced benchmark run.
//
// A span is one timed call into a layer, recorded from the benchmark's
// own code (the library itself is not instrumented): name, start, end,
// the enclosing span and the op it belongs to. Spans nest through a
// per-thread stack, so a SpanScope opened inside another becomes its
// child. Recording is off unless Tracer::Enable(true) was called, and a
// disabled SpanScope costs one branch.

#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

struct Span {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t id = 0;
  int64_t parent = 0;  // 0 = root
  int64_t op = 0;      // op id the span belongs to (0 = none)

  int64_t duration_ns() const { return end_ns - start_ns; }
};

// Per-name aggregate over the recorded spans.
struct SpanTotals {
  uint64_t count = 0;
  int64_t total_ns = 0;
  // Duration minus the part covered by child spans.
  int64_t self_ns = 0;
};

class Tracer {
 public:
  static void Enable(bool on);
  static bool enabled();
  static std::vector<Span> Snapshot();
  static void Clear();
  static std::map<std::string, SpanTotals> Totals(
      const std::vector<Span>& spans);
  // Writes one line per span and a per-name self-time summary to `path`.
  static bool Write(const std::string& path);
};

// Times the enclosing block as a span named `name` (a string literal) of
// op `op`; with op 0 the span inherits the op of its parent.
class SpanScope {
 public:
  explicit SpanScope(const char* name, int64_t op = 0);
  ~SpanScope();
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  bool active_ = false;
  Span span_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
