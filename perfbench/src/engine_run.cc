// The engine workloads' run: set-up, the measured phase, and the traced
// run's three passes (untraced, traced, layer replay).

#include <algorithm>
#include <cstdio>
#include <map>
#include <numeric>
#include <string>
#include <vector>

#include "harness.h"
#include "qrel/util/rng.h"
#include "workloads.h"

namespace perfbench {

namespace {

struct EngineState {
  std::vector<Prepared> prepared;
  std::vector<size_t> schedule;             // kind index of each mix slot
  std::vector<std::vector<size_t>> slots;   // per kind: indices into prepared
};

uint64_t NameHash(const std::string& name) {
  uint64_t h = 1469598103934665603ULL;
  for (char c : name) {
    h = (h ^ static_cast<unsigned char>(c)) * 1099511628211ULL;
  }
  return h;
}

// kRunVariants pool variants of `kind`, picked and ordered by the seed.
std::vector<int> VariantOrder(uint64_t seed, const std::string& kind) {
  std::vector<int> pool(kPoolSize);
  std::iota(pool.begin(), pool.end(), 0);
  qrel::Rng rng(Mix(seed, NameHash(kind)));
  for (size_t i = pool.size() - 1; i > 0; --i) {
    std::swap(pool[i], pool[rng.NextBelow(i + 1)]);
  }
  pool.resize(kRunVariants);
  return pool;
}

bool SetUp(const Workload& workload, uint64_t seed, const RefTable& refs,
           EngineState* state) {
  *state = EngineState();
  state->slots.resize(workload.kinds.size());
  for (size_t k = 0; k < workload.kinds.size(); ++k) {
    const KindSpec& spec = workload.kinds[k];
    for (int variant : VariantOrder(seed, spec.name)) {
      qrel::StatusOr<Prepared> prepared = Prepare(spec.generate(variant));
      if (!prepared.ok()) {
        std::fprintf(stderr, "set-up %s/%d: %s\n", spec.name, variant,
                     prepared.status().ToString().c_str());
        return false;
      }
      if (prepared->input.ref != RefMethod::kNone) {
        auto it = refs.find(RefKey(spec.name, variant, 0));
        if (it == refs.end()) {
          std::fprintf(stderr, "set-up %s/%d: no stored reference\n",
                       spec.name, variant);
          return false;
        }
        prepared->reference = it->second;
      }
      state->slots[k].push_back(state->prepared.size());
      state->prepared.push_back(std::move(prepared).value());
    }
    state->schedule.insert(state->schedule.end(),
                           static_cast<size_t>(spec.weight), k);
  }
  return true;
}

// The op stream of a run: op i runs mix slot i % |schedule| on the next
// variant of that slot's kind, with sampling seed Mix(seed, i).
class OpStream {
 public:
  OpStream(const EngineState& state, uint64_t seed)
      : state_(state), seed_(seed), used_(state.slots.size(), 0) {}

  const Prepared& Next(uint64_t* op_seed) {
    size_t kind = state_.schedule[index_ % state_.schedule.size()];
    const std::vector<size_t>& slot = state_.slots[kind];
    *op_seed = Mix(seed_, index_);
    ++index_;
    return state_.prepared[slot[used_[kind]++ % slot.size()]];
  }

 private:
  const EngineState& state_;
  uint64_t seed_;
  uint64_t index_ = 0;
  std::vector<size_t> used_;
};

struct PhaseStats {
  std::vector<double> latencies_ms;  // reference-host time
  std::vector<double> measured_ms;   // as measured
  double elapsed_s = 0.0;  // time of the timed ops, as measured
  double scaled_s = 0.0;   // the same, reference-host time
  double cpu_s = 0.0;      // CPU time of the timed ops
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t exact = 0;
  std::map<std::string, uint64_t> rungs;
  std::map<std::string, std::vector<double>> kind_ms;
};

// Checks one op and folds it into `stats`.
void Record(const Prepared& prepared, const Outcome& outcome,
            PhaseStats* stats) {
  ++stats->attempted;
  std::string problem = CheckOutcome(prepared, outcome);
  if (!problem.empty()) {
    if (++stats->failed <= 10) {
      std::fprintf(stderr, "op %s/%d failed: %s\n",
                   prepared.input.kind.c_str(), prepared.input.variant,
                   problem.c_str());
    }
    return;
  }
  stats->exact += outcome.exact ? 1 : 0;
  ++stats->rungs[prepared.input.kind + ": " + Rung(outcome.method)];
}

// One timed pass over the op stream: a warm-up cycle (checked, not timed),
// then ops until `seconds` have passed and kMinOps ran — or exactly
// `count` ops when `count` is nonzero. Each op's time is scaled to the
// reference host by the speed calibrations just before and after it,
// which are not timed. Traced passes wrap each op in spans.
PhaseStats RunPass(const EngineState& state, uint64_t seed, double seconds,
                   uint64_t count, bool traced) {
  PhaseStats stats;
  OpStream stream(state, seed);
  for (size_t i = 0; i < state.schedule.size(); ++i) {
    uint64_t op_seed = 0;
    const Prepared& prepared = stream.Next(&op_seed);
    Record(prepared, RunOp(prepared, op_seed), &stats);
  }
  SpeedScale scale;
  Clock::time_point start = Clock::now();
  for (uint64_t i = 0;; ++i) {
    if (count != 0 ? i >= count
                   : i >= kMinOps && SecondsSince(start) >= seconds) {
      break;
    }
    uint64_t op_seed = 0;
    const Prepared& prepared = stream.Next(&op_seed);
    double cpu_begin = CpuSeconds();
    Clock::time_point begin = Clock::now();
    Outcome outcome;
    if (traced) {
      SpanScope op("op", static_cast<int64_t>(i + 1));
      SpanScope call("e2e");
      outcome = RunOp(prepared, op_seed);
    } else {
      outcome = RunOp(prepared, op_seed);
    }
    double ms =
        std::chrono::duration<double, std::milli>(Clock::now() - begin)
            .count();
    stats.cpu_s += CpuSeconds() - cpu_begin;
    stats.elapsed_s += ms / 1000.0;
    stats.measured_ms.push_back(ms);
    double scaled_ms = ms * scale.EndSegment(ms / 1000.0);
    stats.latencies_ms.push_back(scaled_ms);
    stats.kind_ms[prepared.input.kind].push_back(scaled_ms);
    Record(prepared, outcome, &stats);
  }
  stats.scaled_s = scale.scaled_seconds();
  return stats;
}

void PrintRungs(const PhaseStats& stats) {
  for (const auto& [rung, count] : stats.rungs) {
    std::fprintf(stderr, "rung %-60s %llu\n", rung.c_str(),
                 static_cast<unsigned long long>(count));
  }
  for (const auto& [kind, ms] : stats.kind_ms) {
    std::fprintf(stderr, "kind %-16s ops %5zu  p50 %9.3f ms  p95 %9.3f ms\n",
                 kind.c_str(), ms.size(), Percentile(ms, 0.5),
                 Percentile(ms, 0.95));
  }
}

}  // namespace

bool RunEngineWorkload(const RunArgs& args, Result* result) {
  const Workload* workload = FindWorkload(args.workload);
  if (workload == nullptr) {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return false;
  }
  RefTable refs;
  std::string refs_path = args.refs_dir + "/" + args.workload + ".txt";
  if (!LoadRefs(refs_path, &refs)) {
    std::fprintf(stderr, "cannot read references %s\n", refs_path.c_str());
    return false;
  }

  EngineState state;
  std::vector<double> setup_s;
  SpeedScale setup_scale;
  Clock::time_point first = Clock::now();
  while (setup_s.size() < kSetupRepeats ||
         SecondsSince(first) < kSetupSeconds) {
    state = EngineState();  // tear-down is not set-up
    Clock::time_point start = Clock::now();
    if (!SetUp(*workload, args.seed, refs, &state)) {
      return false;
    }
    double seconds = SecondsSince(start);
    setup_s.push_back(seconds * setup_scale.EndSegment(seconds));
  }

  if (!args.trace) {
    PhaseStats stats = RunPass(state, args.seed, args.seconds, 0, false);
    PrintRungs(stats);
    LogMeasured(stats.measured_ms, stats.elapsed_s, stats.scaled_s);
    result->attempted = stats.attempted;
    result->failed = stats.failed;
    result->Add("setup_s", Median(setup_s), "s");
    AddLatencyMetrics(stats.latencies_ms,
                      static_cast<double>(stats.latencies_ms.size()) /
                          stats.scaled_s,
                      result);
    result->Add("peak_rss_mb", PeakRssMb(), "MB");
    return true;
  }

  // Traced run. Pass A is untraced and pass B replays exactly its ops with
  // spans around each call, so B/A is the tracing overhead.
  double pass_seconds = args.seconds * kTracedPassShare;
  PhaseStats untraced = RunPass(state, args.seed, pass_seconds, 0, false);
  Tracer::Enable(true);
  PhaseStats traced = RunPass(state, args.seed, 0.0,
                              untraced.latencies_ms.size(), true);
  Tracer::Clear();

  // Pass C: the first kReplayVariants variants of each kind once, end to
  // end and then layer by layer.
  std::vector<size_t> replayed;
  for (const std::vector<size_t>& slot : state.slots) {
    replayed.insert(replayed.end(), slot.begin(),
                    slot.begin() + std::min<size_t>(slot.size(),
                                                    kReplayVariants));
  }
  std::map<std::string, double> counts;
  PhaseStats replay;
  for (size_t i : replayed) {
    const Prepared& prepared = state.prepared[i];
    uint64_t seed = Mix(args.seed, NameHash(prepared.input.kind) + i);
    SpanScope op("op", static_cast<int64_t>(i + 1));
    Outcome outcome;
    {
      SpanScope call("e2e");
      outcome = RunOp(prepared, seed);
    }
    Record(prepared, outcome, &replay);
    ReplayLayers(prepared, outcome, seed, &counts);
  }
  Tracer::Enable(false);
  std::vector<Span> spans = Tracer::Snapshot();
  std::string trace_path = args.work_dir + "/trace-" + args.workload + "-" +
                           std::to_string(args.seed) + ".tsv";
  if (!Tracer::Write(trace_path)) {
    std::fprintf(stderr, "cannot write %s\n", trace_path.c_str());
  }

  std::map<std::string, double> layer;
  DeriveLayerMetrics(spans, counts, &layer);
  uint64_t attempted = untraced.attempted + traced.attempted + replay.attempted;
  uint64_t failed = untraced.failed + traced.failed + replay.failed;
  layer["engine.cpu_ms_per_op"] =
      traced.cpu_s * 1000.0 / static_cast<double>(traced.latencies_ms.size());
  layer["trace.overhead"] = traced.scaled_s / untraced.scaled_s;
  layer["failed_frac"] =
      static_cast<double>(failed) / static_cast<double>(attempted);
  layer["exact_frac"] =
      static_cast<double>(untraced.exact + traced.exact + replay.exact) /
      static_cast<double>(attempted);
  PrintRungs(replay);
  result->attempted = attempted;
  result->failed = failed;
  AddPerLayerMetrics(layer, result);
  return true;
}

bool WriteEngineRefs(const std::string& name) {
  const Workload* workload = FindWorkload(name);
  if (workload == nullptr) {
    std::fprintf(stderr, "unknown workload %s\n", name.c_str());
    return false;
  }
  std::printf("# kind variant qid exact-reliability (qrel_perfbench "
              "--write-refs %s)\n",
              name.c_str());
  for (const KindSpec& spec : workload->kinds) {
    for (int variant = 0; variant < kPoolSize; ++variant) {
      Instance input = spec.generate(variant);
      qrel::StatusOr<std::optional<std::string>> ref = ComputeReference(input);
      if (!ref.ok()) {
        std::fprintf(stderr, "%s/%d: %s\n", spec.name, variant,
                     ref.status().ToString().c_str());
        return false;
      }
      if (!ref->has_value()) {
        continue;
      }
      double value = qrel::Rational::Parse(**ref)->ToDouble();
      if (!(value > 0.0 && value < 1.0)) {
        std::fprintf(stderr, "%s/%d: degenerate reference %s\n", spec.name,
                     variant, (*ref)->c_str());
        return false;
      }
      std::printf("%s %d 0 %s\n", spec.name, variant, (*ref)->c_str());
    }
  }
  return true;
}

}  // namespace perfbench
