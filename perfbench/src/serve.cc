// serve_mix: what a service user sees. QrelServer::HandlePayload is driven
// in process by a closed loop of kClients client threads (each sends its
// next request when the previous one returns) against kWorkers workers, an
// 8-slot queue and the default 256-entry result cache, with no state or
// checkpoint directory, so nothing is flushed to disk.
//
// The catalog holds two databases: "hot", which a RELOAD every 100th
// request flips between two content-distinct versions (retiring its cache
// entries), and "cold", which never changes; a fifth of the other
// requests go to "hot". About 85% of them are QUERYs over a Zipf-skewed
// key space (query text x seed) larger than the cache, so hits, misses,
// evictions and single-flight sharing all occur, and about 15% are
// EXPLAINs. Hits and EXPLAINs make up about 3/4 of the requests, so p50
// sits inside the fast responses and p95 inside the misses. Every QUERY
// answer is exact and is checked against the stored reference of the
// version its db_fingerprint names.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "harness.h"
#include "qrel/net/protocol.h"
#include "qrel/net/server.h"
#include "qrel/prob/text_format.h"
#include "qrel/util/rng.h"
#include "workloads.h"

namespace perfbench {

namespace {

// Two clients against one worker keep at most three threads runnable on
// a 4-core host while misses still queue and can share a flight. With 4
// clients and 2 workers (six runnable threads) throughput moved by up to
// 1.6x between runs of the same seed as neighbours took cores.
constexpr int kClients = 2;
constexpr int kWorkers = 1;
constexpr uint64_t kReloadEvery = 100;
constexpr uint64_t kWarmupRequests = 100;
// Requests of the single-client replay whose cache counters must repeat.
constexpr uint64_t kReplayRequests = 600;
// Misses whose standalone engine run is replayed in the traced run.
constexpr size_t kMaxMissReplays = 200;
constexpr double kExplainShare = 0.15;
// Share of QUERY/EXPLAIN traffic to the reloaded database.
constexpr double kHotShare = 0.2;
constexpr int kHotSeeds = 4;
constexpr int kColdSeeds = 32;
constexpr double kZipfExponent = 1.2;
// The measured phase runs in segments of this length, with a host-speed
// calibration between them while no client runs.
constexpr double kSegmentSeconds = 1.0;
// Requests one client records before its record must grow.
constexpr size_t kRecordReserve = size_t{1} << 15;
// Requests the measured phase records before its record must grow. The
// reserve is never touched beyond the requests sent, so peak_rss_mb grows
// smoothly with the request count instead of jumping when a vector
// doubles.
constexpr size_t kTimedReserve = size_t{1} << 18;

const char* const kPools[2] = {"serve.hot", "serve.cold"};
const char* const kDbNames[2] = {"hot", "cold"};

enum class Verb { kQuery, kExplain, kReload };

struct Key {
  int qid = 0;
  int seed = 0;
};

struct Request {
  Verb verb = Verb::kQuery;
  Key key;
  std::string payload;
};

// The seeded request sequence: request i is a pure function of (seed, i).
// A kHotShare of requests go to "hot", the rest to "cold"; within a
// database, keys (query x seed) are Zipf-distributed over a seeded
// popularity order.
class Traffic {
 public:
  Traffic(uint64_t seed, std::string hot_paths[2]) : seed_(seed) {
    paths_[0] = hot_paths[0];
    paths_[1] = hot_paths[1];
    int queries = static_cast<int>(ServeQueries().size());
    for (int db = 0; db < 2; ++db) {
      std::vector<Key>& keys = keys_[db];
      for (int qid = 0; qid < queries; ++qid) {
        for (int s = 0; s < (db == 0 ? kHotSeeds : kColdSeeds); ++s) {
          keys.push_back({qid, s});
        }
      }
      qrel::Rng rng(Mix(seed, 0x5e12 + static_cast<uint64_t>(db)));
      for (size_t i = keys.size() - 1; i > 0; --i) {
        std::swap(keys[i], keys[rng.NextBelow(i + 1)]);
      }
      double total = 0.0;
      for (size_t rank = 1; rank <= keys.size(); ++rank) {
        total += 1.0 / std::pow(static_cast<double>(rank), kZipfExponent);
        cdf_[db].push_back(total);
      }
      for (double& c : cdf_[db]) {
        c /= total;
      }
    }
  }

  Request At(uint64_t index) const {
    Request request;
    if (index % kReloadEvery == kReloadEvery - 1) {
      // Reload k installs version B for even k and A for odd k, so every
      // reload changes content.
      uint64_t k = index / kReloadEvery;
      request.verb = Verb::kReload;
      request.payload = "RELOAD\nhot\n" + paths_[k % 2 == 0 ? 1 : 0];
      return request;
    }
    qrel::Rng rng(Mix(seed_, index));
    request.verb =
        rng.NextDouble() < kExplainShare ? Verb::kExplain : Verb::kQuery;
    int db = rng.NextBernoulli(kHotShare) ? 0 : 1;
    const std::vector<double>& cdf = cdf_[db];
    size_t rank = static_cast<size_t>(
        std::lower_bound(cdf.begin(), cdf.end(), rng.NextDouble()) -
        cdf.begin());
    request.key = keys_[db][std::min(rank, keys_[db].size() - 1)];
    const std::string& text =
        ServeQueries()[static_cast<size_t>(request.key.qid)];
    std::string name = kDbNames[db];
    request.payload = request.verb == Verb::kQuery
                          ? "QUERY\n" + text + "\ndb=" + name + "\nseed=" +
                                std::to_string(request.key.seed)
                          : "EXPLAIN\n" + text + "\ndb=" + name;
    return request;
  }

 private:
  uint64_t seed_;
  std::string paths_[2];
  std::vector<Key> keys_[2];  // per database: popularity rank -> key
  std::vector<double> cdf_[2];
};

struct Version {
  std::string pool;
  int variant = 0;
  std::string udb;
};

struct ServeState {
  std::unique_ptr<qrel::QrelServer> server;
  std::string hot_paths[2];
  // db_fingerprint -> the version it names.
  std::map<uint64_t, Version> versions;
  const RefTable* refs = nullptr;
};

bool WriteFile(const std::string& path, const std::string& text) {
  std::ofstream file(path, std::ios::binary | std::ios::trunc);
  file << text;
  return static_cast<bool>(file);
}

bool SetUp(const RunArgs& args, const RefTable& refs, ServeState* state) {
  state->server.reset();
  state->versions.clear();
  state->refs = &refs;
  qrel::Rng rng(Mix(args.seed, 0xdb));
  int hot_a = static_cast<int>(rng.NextBelow(kPoolSize));
  int hot_b = static_cast<int>((hot_a + 1 + rng.NextBelow(kPoolSize - 1)) %
                               kPoolSize);
  int cold = static_cast<int>(rng.NextBelow(kPoolSize));
  std::string dir = args.work_dir + "/serve-" + std::to_string(args.seed);
  std::error_code error;
  std::filesystem::create_directories(dir, error);
  const Version chosen[3] = {{kPools[0], hot_a, ""},
                             {kPools[0], hot_b, ""},
                             {kPools[1], cold, ""}};
  const std::string paths[3] = {dir + "/hot-a.udb", dir + "/hot-b.udb",
                                dir + "/cold.udb"};
  for (int i = 0; i < 3; ++i) {
    Version version = chosen[i];
    version.udb = ServeDatabase(version.pool, version.variant);
    if (!WriteFile(paths[i], version.udb)) {
      std::fprintf(stderr, "cannot write %s\n", paths[i].c_str());
      return false;
    }
    qrel::StatusOr<qrel::UnreliableDatabase> db = qrel::ParseUdb(version.udb);
    if (!db.ok()) {
      std::fprintf(stderr, "serve database: %s\n",
                   db.status().ToString().c_str());
      return false;
    }
    for (size_t qid = 0; qid < ServeQueries().size(); ++qid) {
      if (refs.count(RefKey(version.pool, version.variant,
                            static_cast<int>(qid))) == 0) {
        std::fprintf(stderr, "%s/%d: no stored reference\n",
                     version.pool.c_str(), version.variant);
        return false;
      }
    }
    state->versions[db->ContentFingerprint()] = version;
  }
  state->hot_paths[0] = paths[0];
  state->hot_paths[1] = paths[1];

  qrel::ServerOptions options;
  options.workers = kWorkers;
  options.queue_capacity = 8;
  state->server = std::make_unique<qrel::QrelServer>(options);
  for (int db = 0; db < 2; ++db) {
    std::string reply = state->server->HandlePayload(
        std::string("ATTACH\n") + kDbNames[db] + "\n" + paths[db == 0 ? 0 : 2]);
    if (reply.rfind("OK", 0) != 0) {
      std::fprintf(stderr, "ATTACH %s: %s\n", kDbNames[db], reply.c_str());
      return false;
    }
  }
  return true;
}

uint64_t Fingerprint(const qrel::Response& reply) {
  return std::strtoull(reply.Field("db_fingerprint").value_or("0").c_str(),
                       nullptr, 10);
}

// Empty when `reply` is a correct, non-degenerate answer to `request`.
std::string CheckReply(const ServeState& state, const Request& request,
                       const qrel::Response& reply) {
  if (!reply.ok()) {
    return "status " + reply.status.ToString();
  }
  if (request.verb == Verb::kReload) {
    return reply.Field("changed").value_or("") == "1"
               ? ""
               : "RELOAD did not change content";
  }
  if (request.verb == Verb::kExplain) {
    return reply.Field("planned_method").value_or("").empty()
               ? "EXPLAIN without a planned method"
               : "";
  }
  auto version = state.versions.find(Fingerprint(reply));
  if (version == state.versions.end()) {
    return "answer from an unknown db_fingerprint";
  }
  const std::string& reference = state.refs->at(RefKey(
      version->second.pool, version->second.variant, request.key.qid));
  std::string value = reply.Field("exact_value").value_or("");
  if (value != reference) {
    return "exact R " + value + " != reference " + reference + " of " +
           version->second.pool + "/" +
           std::to_string(version->second.variant);
  }
  if (reply.Field("samples").value_or("") != "0" ||
      reply.Field("method").value_or("").find("worlds)") ==
          std::string::npos) {
    return "answer not from world enumeration: " +
           reply.Field("method").value_or("");
  }
  return "";
}

// One request's record. Untraced passes keep only these fixed-size
// fields, so memory grows smoothly with the request count.
struct Sample {
  uint64_t index = 0;
  Verb verb = Verb::kQuery;
  double ms = 0.0;
  // Traced passes only: the reply's cache outcome and db_fingerprint.
  bool miss = false;
  bool hit = false;
  uint64_t fingerprint = 0;
};

struct Pass {
  std::vector<Sample> samples;
  std::map<uint64_t, std::string> replies;  // traced passes: index -> reply
  double elapsed_s = 0.0;
  double scaled_s = 0.0;  // RunTimed: elapsed_s in reference-host time
  double ops_per_s = 0.0;  // RunTimed: median over segments, scaled
  double cpu_s = 0.0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
};

// Sends requests [first, first + count) — or, with count 0, from `first`
// until `seconds` passed — from `clients` threads.
Pass RunLoad(const ServeState& state, const Traffic& traffic, uint64_t first,
             uint64_t count, double seconds, int clients, bool traced) {
  Pass pass;
  std::atomic<uint64_t> next{first};
  std::atomic<uint64_t> completed{0};
  std::atomic<uint64_t> failed{0};
  std::mutex mutex;
  Clock::time_point start = Clock::now();
  double cpu_start = CpuSeconds();
  // Each client appends to its own, pre-sized record so the pass never
  // copies a growing vector.
  std::vector<std::vector<Sample>> records(static_cast<size_t>(clients));
  auto client = [&](std::vector<Sample>* mine) {
    mine->reserve(kRecordReserve);
    std::vector<std::pair<uint64_t, std::string>> replies;
    for (;;) {
      if (count == 0 && SecondsSince(start) >= seconds) {
        break;
      }
      uint64_t index = next.fetch_add(1);
      if (count != 0 && index >= first + count) {
        break;
      }
      Request request = traffic.At(index);
      Sample sample;
      sample.index = index;
      sample.verb = request.verb;
      Clock::time_point begin = Clock::now();
      std::string reply_text;
      if (traced) {
        SpanScope op("op", static_cast<int64_t>(index + 1));
        SpanScope call("e2e");
        reply_text = state.server->HandlePayload(request.payload);
      } else {
        reply_text = state.server->HandlePayload(request.payload);
      }
      sample.ms = std::chrono::duration<double, std::milli>(Clock::now() -
                                                            begin)
                      .count();
      qrel::StatusOr<qrel::Response> reply = qrel::ParseResponse(reply_text);
      std::string problem = reply.ok() ? CheckReply(state, request, *reply)
                                       : "unparseable reply";
      if (!problem.empty()) {
        if (failed.fetch_add(1) < 10) {
          std::fprintf(stderr, "request %llu failed: %s\n",
                       static_cast<unsigned long long>(index),
                       problem.c_str());
        }
      }
      // Only traced passes keep text: untraced runs must not grow memory
      // with their request count.
      if (traced && reply.ok()) {
        std::string cache = reply->Field("cache").value_or("");
        sample.hit = cache == "hit";
        sample.miss = cache == "miss";
        sample.fingerprint = Fingerprint(*reply);
        replies.emplace_back(index, std::move(reply_text));
      }
      mine->push_back(sample);
      completed.fetch_add(1);
    }
    std::lock_guard<std::mutex> lock(mutex);
    for (auto& [index, text] : replies) {
      pass.replies.emplace(index, std::move(text));
    }
  };
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back(client, &records[static_cast<size_t>(c)]);
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  size_t total = 0;
  for (const std::vector<Sample>& record : records) {
    total += record.size();
  }
  pass.samples.reserve(total);
  for (const std::vector<Sample>& record : records) {
    pass.samples.insert(pass.samples.end(), record.begin(), record.end());
  }
  pass.elapsed_s = SecondsSince(start);
  pass.cpu_s = CpuSeconds() - cpu_start;
  pass.attempted = pass.samples.size();
  pass.failed = failed.load();
  std::sort(pass.samples.begin(), pass.samples.end(),
            [](const Sample& a, const Sample& b) { return a.index < b.index; });
  return pass;
}

// The measured phase: requests from `first` in segments of
// kSegmentSeconds, each a RunLoad whose clients all finish before a speed
// calibration runs, until `seconds` passed and kMinOps completed. The
// samples' times are scaled to the reference host; `measured_ms` gets
// them as measured.
Pass RunTimed(const ServeState& state, const Traffic& traffic, uint64_t first,
              double seconds, std::vector<double>* measured_ms) {
  Pass pass;
  pass.samples.reserve(kTimedReserve);
  measured_ms->reserve(kTimedReserve);
  SpeedScale scale;
  Clock::time_point start = Clock::now();
  while (pass.samples.size() < kMinOps || SecondsSince(start) < seconds) {
    Pass segment = RunLoad(state, traffic, first + pass.attempted, 0,
                           kSegmentSeconds, kClients, false);
    double factor = scale.EndSegment(segment.elapsed_s, segment.attempted);
    for (Sample& sample : segment.samples) {
      measured_ms->push_back(sample.ms);
      sample.ms *= factor;
      pass.samples.push_back(sample);
    }
    pass.elapsed_s += segment.elapsed_s;
    pass.cpu_s += segment.cpu_s;
    pass.attempted += segment.attempted;
    pass.failed += segment.failed;
  }
  pass.scaled_s = scale.scaled_seconds();
  pass.ops_per_s = scale.median_rate();
  return pass;
}

std::vector<double> Latencies(const Pass& pass) {
  std::vector<double> ms;
  ms.reserve(pass.samples.size());
  for (const Sample& sample : pass.samples) {
    ms.push_back(sample.ms);
  }
  return ms;
}

std::map<std::string, double> Stats(qrel::QrelServer* server) {
  std::map<std::string, double> stats;
  qrel::StatusOr<qrel::Response> reply =
      qrel::ParseResponse(server->HandlePayload("STATS"));
  if (reply.ok()) {
    for (const auto& [key, value] : reply->fields) {
      stats[key] = std::strtod(value.c_str(), nullptr);
    }
  }
  return stats;
}

// Prepared engine inputs for the replay of (version, qid).
class PreparedCache {
 public:
  const Prepared* Get(const Version& version, int qid) {
    std::string key = RefKey(version.pool, version.variant, qid);
    auto it = cache_.find(key);
    if (it != cache_.end()) {
      return it->second.get();
    }
    Instance input;
    input.kind = version.pool;
    input.variant = version.variant;
    input.database = version.udb;
    input.text = ServeQueries()[static_cast<size_t>(qid)];
    qrel::StatusOr<Prepared> prepared = Prepare(std::move(input));
    if (!prepared.ok()) {
      return nullptr;
    }
    return (cache_[key] =
                std::make_unique<Prepared>(std::move(prepared).value()))
        .get();
  }

 private:
  std::map<std::string, std::unique_ptr<Prepared>> cache_;
};

}  // namespace

bool RunServeWorkload(const RunArgs& args, Result* result) {
  RefTable refs;
  std::string refs_path = args.refs_dir + "/serve_mix.txt";
  if (!LoadRefs(refs_path, &refs)) {
    std::fprintf(stderr, "cannot read references %s\n", refs_path.c_str());
    return false;
  }
  ServeState state;
  std::vector<double> setup_s;
  SpeedScale setup_scale;
  Clock::time_point first = Clock::now();
  while (setup_s.size() < kSetupRepeats ||
         SecondsSince(first) < kSetupSeconds) {
    state.server.reset();  // tear-down is not set-up
    Clock::time_point start = Clock::now();
    if (!SetUp(args, refs, &state)) {
      return false;
    }
    double seconds = SecondsSince(start);
    setup_s.push_back(seconds * setup_scale.EndSegment(seconds));
  }
  Traffic traffic(args.seed, state.hot_paths);

  // Warm-up: the cache and worker pool reach steady state before timing.
  Pass warmup = RunLoad(state, traffic, 0, kWarmupRequests, 0.0, kClients,
                        false);
  if (!args.trace) {
    std::vector<double> measured_ms;
    Pass pass =
        RunTimed(state, traffic, kWarmupRequests, args.seconds, &measured_ms);
    std::map<std::string, double> stats = Stats(state.server.get());
    std::fprintf(stderr,
                 "serve: %zu requests, cache hits %.0f misses %.0f shared "
                 "%.0f evictions %.0f retired %.0f\n",
                 pass.samples.size(), stats["cache_hits"],
                 stats["cache_misses"], stats["cache_shared"],
                 stats["cache_evictions"], stats["cache_retired"]);
    std::vector<double> ms = Latencies(pass);
    std::fprintf(stderr, "serve: latency p75 %.3f p90 %.3f p95 %.3f p99 %.3f ms\n",
                 Percentile(ms, 0.75), Percentile(ms, 0.90),
                 Percentile(ms, 0.95), Percentile(ms, 0.99));
    LogMeasured(measured_ms, pass.elapsed_s, pass.scaled_s);
    result->attempted = warmup.attempted + pass.attempted;
    result->failed = warmup.failed + pass.failed;
    result->Add("setup_s", Median(setup_s), "s");
    AddLatencyMetrics(Latencies(pass), pass.ops_per_s, result);
    result->Add("peak_rss_mb", PeakRssMb(), "MB");
    return true;
  }

  // Traced run. A: untraced load; B: the same requests on a fresh server
  // with spans around each HandlePayload.
  std::vector<double> untraced_measured_ms;
  Pass untraced = RunTimed(state, traffic, kWarmupRequests,
                           args.seconds * kTracedPassShare,
                           &untraced_measured_ms);
  uint64_t measured = untraced.samples.size();
  if (!SetUp(args, refs, &state)) {
    return false;
  }
  Pass traced_warmup = RunLoad(state, traffic, 0, kWarmupRequests, 0.0,
                               kClients, false);
  Tracer::Enable(true);
  Pass traced = RunLoad(state, traffic, kWarmupRequests, measured, 0.0,
                        kClients, true);
  Tracer::Enable(false);
  Tracer::Clear();
  std::map<std::string, double> stats = Stats(state.server.get());

  std::map<std::string, double> layer;
  std::vector<double> hit_ms;
  std::vector<double> miss_ms;
  std::vector<double> reload_ms;
  for (const Sample& sample : traced.samples) {
    if (sample.verb == Verb::kReload) {
      reload_ms.push_back(sample.ms);
    } else if (sample.verb == Verb::kQuery && sample.hit) {
      hit_ms.push_back(sample.ms);
    } else if (sample.verb == Verb::kQuery && sample.miss) {
      miss_ms.push_back(sample.ms);
    }
  }
  layer["net.handle_hit_ms"] = Median(hit_ms);
  layer["net.handle_miss_ms"] = Median(miss_ms);
  layer["net.reload_ms"] = Median(reload_ms);
  double lookups = stats["cache_hits"] + stats["cache_misses"];
  layer["net.cache_hit_ratio"] =
      lookups > 0.0 ? stats["cache_hits"] / lookups : 0.0;
  layer["net.single_flight_shared"] = stats["cache_shared"];
  layer["net.shed"] = stats["shed_queue_full"] + stats["shed_quota"] +
                      stats["shed_draining"] + stats["shed_tenant_rate"] +
                      stats["shed_tenant_quota"] + stats["shed_displaced"];
  layer["engine.cpu_ms_per_op"] =
      traced.cpu_s * 1000.0 / static_cast<double>(traced.samples.size());
  layer["trace.overhead"] = traced.elapsed_s / untraced.elapsed_s;

  // C: replay each traced request through the layers it crossed: request
  // parsing, the admission Explain, the engine run (misses only; the
  // difference to the served latency estimates queue wait) and response
  // serialization.
  Tracer::Enable(true);
  PreparedCache prepared;
  std::map<std::string, double> counts;
  std::vector<double> wait_ms;
  double covered_ns = 0.0;
  double served_ns = 0.0;
  size_t miss_replays = 0;
  for (const Sample& sample : traced.samples) {
    Request request = traffic.At(sample.index);
    bool miss = request.verb == Verb::kQuery && sample.miss;
    if (miss && miss_replays == kMaxMissReplays) {
      continue;  // its engine time would go uncovered
    }
    // EXPLAIN replies name no fingerprint; any version has its plan.
    auto version = state.versions.find(sample.fingerprint);
    const Prepared* p =
        request.verb == Verb::kReload
            ? nullptr
            : prepared.Get(version != state.versions.end()
                               ? version->second
                               : state.versions.begin()->second,
                           request.key.qid);
    qrel::StatusOr<qrel::Response> reply =
        qrel::ParseResponse(traced.replies[sample.index]);
    SpanScope op("op", static_cast<int64_t>(sample.index + 1));
    int64_t covered = 0;
    auto timed = [&covered](const char* name, const auto& call) {
      int64_t begin = NowNs();
      {
        SpanScope span(name);
        call();
      }
      int64_t spent = NowNs() - begin;
      covered += spent;
      return spent;
    };
    timed("net.parse_request",
          [&] { (void)qrel::ParseRequest(request.payload); });
    if (p != nullptr) {
      timed("engine.explain", [&] { (void)p->engine->Explain(p->input.text); });
    }
    if (miss && p != nullptr) {
      ++miss_replays;
      int64_t run_ns = timed("engine.run", [&] {
        (void)RunOp(*p, static_cast<uint64_t>(request.key.seed));
      });
      wait_ms.push_back(sample.ms - static_cast<double>(run_ns) / 1e6);
    }
    if (reply.ok()) {
      timed("net.serialize_response",
            [&] { (void)qrel::SerializeResponse(*reply); });
    }
    covered_ns += static_cast<double>(covered);
    served_ns += sample.ms * 1e6;
  }
  std::map<std::string, SpanTotals> net = Tracer::Totals(Tracer::Snapshot());
  auto mean_us = [&](const char* name) {
    const SpanTotals& t = net[name];
    return t.count == 0 ? 0.0
                        : static_cast<double>(t.total_ns) /
                              static_cast<double>(t.count) / 1e3;
  };
  layer["net.parse_request_us"] = mean_us("net.parse_request");
  layer["net.serialize_response_us"] = mean_us("net.serialize_response");
  layer["net.wait_ms_est"] = Median(wait_ms);
  double serve_coverage = served_ns > 0.0 ? covered_ns / served_ns : 0.0;

  std::string trace_path =
      args.work_dir + "/trace-serve_mix-" + std::to_string(args.seed);
  Tracer::Enable(false);
  if (!Tracer::Write(trace_path + "-requests.tsv")) {
    std::fprintf(stderr, "cannot write %s-requests.tsv\n", trace_path.c_str());
  }
  Tracer::Clear();

  // D: a single client replays a fixed request prefix on a fresh server;
  // its cache counters, and which requests miss, are a pure function of
  // the seed. (Keeping reply text needs the traced flag; the tracer is
  // off, so no spans are recorded.)
  if (!SetUp(args, refs, &state)) {
    return false;
  }
  Pass single = RunLoad(state, traffic, 0, kReplayRequests, 0.0, 1, true);
  std::map<std::string, double> single_stats = Stats(state.server.get());
  layer["net.replay_cache_hits"] = single_stats["cache_hits"];
  layer["net.replay_cache_misses"] = single_stats["cache_misses"];

  // The engine layers under D's misses, once per distinct answer.
  Tracer::Enable(true);
  std::set<std::string> replayed;
  uint64_t replay_attempted = 0;
  uint64_t replay_failed = 0;
  for (const Sample& sample : single.samples) {
    Request request = traffic.At(sample.index);
    auto version = state.versions.find(sample.fingerprint);
    if (request.verb != Verb::kQuery || !sample.miss ||
        version == state.versions.end()) {
      continue;
    }
    std::string key = RefKey(version->second.pool, version->second.variant,
                             request.key.qid);
    const Prepared* p = prepared.Get(version->second, request.key.qid);
    if (!replayed.insert(key).second || p == nullptr) {
      continue;
    }
    uint64_t seed = static_cast<uint64_t>(request.key.seed);
    SpanScope op("op", static_cast<int64_t>(sample.index + 1));
    Outcome outcome;
    {
      SpanScope call("e2e");
      outcome = RunOp(*p, seed);
    }
    ++replay_attempted;
    if (!outcome.status.ok() || outcome.exact_value != state.refs->at(key)) {
      ++replay_failed;
    }
    ReplayLayers(*p, outcome, seed, &counts);
  }
  Tracer::Enable(false);
  if (!Tracer::Write(trace_path + ".tsv")) {
    std::fprintf(stderr, "cannot write %s.tsv\n", trace_path.c_str());
  }
  DeriveLayerMetrics(Tracer::Snapshot(), counts, &layer);
  layer["trace.coverage"] = serve_coverage;

  uint64_t attempted = warmup.attempted + untraced.attempted +
                       traced_warmup.attempted + traced.attempted +
                       replay_attempted + single.attempted;
  uint64_t failed = warmup.failed + untraced.failed + traced_warmup.failed +
                    traced.failed + replay_failed + single.failed;
  layer["failed_frac"] =
      static_cast<double>(failed) / static_cast<double>(attempted);
  // Every QUERY answer of this workload is exact.
  uint64_t queries = 0;
  for (const Sample& sample : traced.samples) {
    queries += sample.verb == Verb::kQuery ? 1 : 0;
  }
  layer["exact_frac"] = static_cast<double>(queries) /
                        static_cast<double>(traced.samples.size());
  result->attempted = attempted;
  result->failed = failed;
  AddPerLayerMetrics(layer, result);
  return true;
}

bool WriteServeRefs() {
  std::printf("# kind variant qid exact-reliability (qrel_perfbench "
              "--write-refs serve_mix)\n");
  for (const char* pool : kPools) {
    for (int variant = 0; variant < kPoolSize; ++variant) {
      for (size_t qid = 0; qid < ServeQueries().size(); ++qid) {
        Instance input;
        input.kind = pool;
        input.variant = variant;
        input.database = ServeDatabase(pool, variant);
        input.text = ServeQueries()[qid];
        input.ref = RefMethod::kEnumerate;
        qrel::StatusOr<std::optional<std::string>> ref =
            ComputeReference(input);
        if (!ref.ok() || !ref->has_value()) {
          std::fprintf(stderr, "%s/%d/%zu: no reference\n", pool, variant,
                       qid);
          return false;
        }
        double value = qrel::Rational::Parse(**ref)->ToDouble();
        if (!(value > 0.0 && value < 1.0)) {
          std::fprintf(stderr, "%s/%d/%zu: degenerate reference %s\n", pool,
                       variant, qid, (*ref)->c_str());
          return false;
        }
        std::printf("%s %d %zu %s\n", pool, variant, qid, (*ref)->c_str());
      }
    }
  }
  return true;
}

}  // namespace perfbench
