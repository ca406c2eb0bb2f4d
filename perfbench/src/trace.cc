#include "trace.h"

#include <atomic>
#include <cstdio>
#include <mutex>
#include <unordered_map>

namespace perfbench {

namespace {

std::atomic<bool> g_enabled{false};
std::atomic<int64_t> g_next_id{1};
std::mutex g_mutex;
std::vector<Span> g_spans;  // guarded by g_mutex

struct Frame {
  int64_t id;
  int64_t op;
};
thread_local std::vector<Frame> t_stack;

}  // namespace

void Tracer::Enable(bool on) { g_enabled.store(on); }

bool Tracer::enabled() { return g_enabled.load(std::memory_order_relaxed); }

std::vector<Span> Tracer::Snapshot() {
  std::lock_guard<std::mutex> lock(g_mutex);
  return g_spans;
}

void Tracer::Clear() {
  std::lock_guard<std::mutex> lock(g_mutex);
  g_spans.clear();
}

std::map<std::string, SpanTotals> Tracer::Totals(
    const std::vector<Span>& spans) {
  // Spans of one thread nest without overlap, so a parent's self time is
  // its duration minus the sum of its children's durations.
  std::unordered_map<int64_t, int64_t> child_ns;
  for (const Span& span : spans) {
    if (span.parent != 0) {
      child_ns[span.parent] += span.duration_ns();
    }
  }
  std::map<std::string, SpanTotals> totals;
  for (const Span& span : spans) {
    SpanTotals& t = totals[span.name];
    ++t.count;
    t.total_ns += span.duration_ns();
    auto it = child_ns.find(span.id);
    int64_t self = span.duration_ns() - (it == child_ns.end() ? 0 : it->second);
    t.self_ns += self > 0 ? self : 0;
  }
  return totals;
}

bool Tracer::Write(const std::string& path) {
  std::vector<Span> spans = Snapshot();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  std::fprintf(f, "# span\tid\tparent\top\tstart_ns\tend_ns\n");
  for (const Span& s : spans) {
    std::fprintf(f, "%s\t%lld\t%lld\t%lld\t%lld\t%lld\n", s.name,
                 static_cast<long long>(s.id),
                 static_cast<long long>(s.parent),
                 static_cast<long long>(s.op),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  }
  std::fprintf(f, "# summary: name\tcount\ttotal_ms\tself_ms\n");
  for (const auto& [name, t] : Totals(spans)) {
    std::fprintf(f, "#\t%s\t%llu\t%.6f\t%.6f\n", name.c_str(),
                 static_cast<unsigned long long>(t.count),
                 static_cast<double>(t.total_ns) / 1e6,
                 static_cast<double>(t.self_ns) / 1e6);
  }
  return std::fclose(f) == 0;
}

SpanScope::SpanScope(const char* name, int64_t op) {
  if (!Tracer::enabled()) {
    return;
  }
  active_ = true;
  span_.name = name;
  span_.id = g_next_id.fetch_add(1, std::memory_order_relaxed);
  span_.parent = t_stack.empty() ? 0 : t_stack.back().id;
  span_.op = op != 0 ? op : (t_stack.empty() ? 0 : t_stack.back().op);
  t_stack.push_back({span_.id, span_.op});
  span_.start_ns = NowNs();
}

SpanScope::~SpanScope() {
  if (!active_) {
    return;
  }
  span_.end_ns = NowNs();
  t_stack.pop_back();
  std::lock_guard<std::mutex> lock(g_mutex);
  g_spans.push_back(span_);
}

}  // namespace perfbench
