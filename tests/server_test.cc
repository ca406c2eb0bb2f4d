// In-process QrelServer tests: admission control, overload shedding,
// pressure degradation, result-cache behavior, single-flight dedup,
// drain-under-load with checkpoint-abort/resume, and bit-identical
// answers under client concurrency. Everything drives Handle(), the same
// code path the TCP layer uses, so no sockets or timing-sensitive I/O.

#include "qrel/net/server.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "qrel/net/protocol.h"
#include "qrel/prob/text_format.h"
#include "temp_path.h"

namespace qrel {
namespace {

constexpr char kUdbText[] = R"(
universe 3
relation E 2
relation S 1
fact E 0 1 err=1/4
fact E 1 2 err=1/8
fact S 0
absent S 1 err=1/3
absent E 2 0 err=1/5
)";

UnreliableDatabase TestDatabase() {
  StatusOr<UnreliableDatabase> database = ParseUdb(kUdbText);
  EXPECT_TRUE(database.ok()) << database.status().ToString();
  return std::move(database).value();
}

ReliabilityEngine TestEngine() { return ReliabilityEngine(TestDatabase()); }

Request QueryRequest(const std::string& query) {
  Request request;
  request.verb = RequestVerb::kQuery;
  request.query = query;
  return request;
}

// A request whose execution is slow enough (hundreds of ms) to observe
// in-flight: a forced-sampling run with a large fixed sample count.
Request SlowRequest(const std::string& query, uint64_t samples) {
  Request request = QueryRequest(query);
  request.options.force_approximate = true;
  request.options.fixed_samples = samples;
  return request;
}

// Options generous enough that slow sampling requests never budget-trip.
ServerOptions GenerousOptions() {
  ServerOptions options;
  options.workers = 1;
  options.default_max_work = uint64_t{1} << 27;
  options.max_request_work = uint64_t{1} << 27;
  options.work_quota = uint64_t{1} << 30;
  return options;
}

void WaitFor(const std::function<bool()>& predicate, int timeout_ms = 30000) {
  auto deadline = std::chrono::steady_clock::now() +
                  std::chrono::milliseconds(timeout_ms);
  while (!predicate()) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "condition not reached in time";
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

TEST(ServerTest, AnswersExactQueryWithFullReport) {
  QrelServer server(TestEngine(), ServerOptions{});
  Response response = server.Handle(QueryRequest("exists x y . E(x,y) & S(y)"));
  ASSERT_TRUE(response.ok()) << response.status.ToString();
  EXPECT_EQ(response.Field("exact").value_or(""), "1");
  // Observed answer is false; the true database agrees unless E(0,1)&S(1)
  // both hold or the absent E(2,0) is really present:
  // (1 - 3/4 * 1/3) * (1 - 1/5) = 3/5.
  EXPECT_EQ(response.Field("exact_value").value_or(""), "3/5");
  EXPECT_EQ(response.Field("pressure").value_or(""), "0");
  EXPECT_TRUE(response.Field("method")
                  .value_or("")
                  .rfind("safe-plan extensional", 0) == 0)
      << response.Field("method").value_or("");
}

TEST(ServerTest, HealthStatsAndDrainVerbs) {
  QrelServer server(TestEngine(), ServerOptions{});
  Request health;
  health.verb = RequestVerb::kHealth;
  Response response = server.Handle(health);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response.Field("state").value_or(""), "serving");

  (void)server.Handle(QueryRequest("S(x)"));
  Request stats;
  stats.verb = RequestVerb::kStats;
  response = server.Handle(stats);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response.Field("queries").value_or(""), "1");

  Request drain;
  drain.verb = RequestVerb::kDrain;
  response = server.Handle(drain);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response.Field("state").value_or(""), "draining");
  EXPECT_TRUE(server.draining());

  response = server.Handle(health);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response.Field("state").value_or(""), "draining");
}

TEST(ServerTest, InvalidQueryIsRejectedBeforeTheQueue) {
  QrelServer server(TestEngine(), ServerOptions{});
  Response response = server.Handle(QueryRequest("Nope(x)"));
  EXPECT_EQ(response.status.code(), StatusCode::kInvalidArgument);
  ServerStatsSnapshot stats = server.stats_snapshot();
  EXPECT_EQ(stats.rejected_invalid, 1u);
  EXPECT_EQ(stats.admitted, 0u);
  EXPECT_EQ(stats.completed_ok + stats.completed_error, 0u);
}

TEST(ServerTest, HandlePayloadTurnsParseFailuresIntoTypedResponses) {
  QrelServer server(TestEngine(), ServerOptions{});
  std::string payload = server.HandlePayload("FROBNICATE\n");
  StatusOr<Response> response = ParseResponse(payload);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->status.code(), StatusCode::kInvalidArgument);
}

TEST(ServerTest, CostCeilingRejectsBeforeAnyWork) {
  ServerOptions options;
  options.max_admission_cost = 4.0;  // the 5-atom db has 32 worlds
  QrelServer server(TestEngine(), options);
  Response response =
      server.Handle(QueryRequest("exists x y . E(x,y) & S(y)"));
  EXPECT_EQ(response.status.code(), StatusCode::kResourceExhausted);
  ServerStatsSnapshot stats = server.stats_snapshot();
  EXPECT_EQ(stats.rejected_cost, 1u);
  EXPECT_EQ(stats.admitted, 0u);
  EXPECT_EQ(stats.completed_ok + stats.completed_error, 0u);
}

TEST(ServerTest, SafeQueryIsAdmittedOnItsPolynomialCost) {
  // 4 uncertain atoms → 16 worlds, over the ceiling; but the query is
  // safe, so admission keys on the extensional grounding cost 3^2 = 9 and
  // the request runs (exactly) instead of being shed.
  ServerOptions options;
  options.max_admission_cost = 10.0;
  QrelServer server(TestEngine(), options);
  Response response =
      server.Handle(QueryRequest("exists x y . E(x,y) & S(y)"));
  ASSERT_TRUE(response.ok()) << response.status.ToString();
  EXPECT_EQ(response.Field("exact").value_or(""), "1");
  EXPECT_EQ(response.Field("exact_value").value_or(""), "3/5");
  ServerStatsSnapshot stats = server.stats_snapshot();
  EXPECT_EQ(stats.admitted, 1u);
  EXPECT_EQ(stats.rejected_cost, 0u);

  // An unsafe conjunctive sibling of the same shape still prices at its
  // 16-world enumeration and is shed by the same ceiling.
  response = server.Handle(QueryRequest("exists x y . E(x,y) & S(y) & S(x)"));
  EXPECT_EQ(response.status.code(), StatusCode::kResourceExhausted);
}

TEST(ServerTest, ExplainReportsAdmissionWithoutExecuting) {
  ServerOptions options;
  options.max_admission_cost = 4.0;
  QrelServer server(TestEngine(), options);

  Request explain;
  explain.verb = RequestVerb::kExplain;
  explain.query = "exists x y . E(x,y) & S(y)";
  Response response = server.Handle(explain);
  ASSERT_TRUE(response.ok()) << response.status.ToString();
  EXPECT_EQ(response.Field("admitted").value_or(""), "0");
  EXPECT_FALSE(response.Field("reject_reason").value_or("").empty());
  EXPECT_TRUE(response.Field("planned_method")
                  .value_or("")
                  .rfind("safe-plan extensional", 0) == 0);
  EXPECT_EQ(response.Field("safe").value_or(""), "1");
  EXPECT_FALSE(response.Field("safe_plan").value_or("").empty());

  // Statically-false queries cost nothing and are always admitted.
  explain.query = "S(x) & !S(x)";
  response = server.Handle(explain);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response.Field("admitted").value_or(""), "1");

  ServerStatsSnapshot stats = server.stats_snapshot();
  EXPECT_EQ(stats.explains, 2u);
  EXPECT_EQ(stats.completed_ok + stats.completed_error, 0u);
}

TEST(ServerTest, AdmissionCostIsThePlannedRungsCostField) {
  QrelServer server(TestEngine(), ServerOptions{});
  struct Case {
    const char* query;
    bool force_approximate;
    const char* planned_prefix;
    const char* cost_field;  // nullptr: the rung is free
  };
  const Case kCases[] = {
      {"S(x) & !S(x)", false, "static analysis closed form", nullptr},
      {"S(x)", false, "Prop 3.1", "answer_space"},
      {"exists x y . E(x,y) & S(y) & S(x)", false, "Thm 4.2", "world_count"},
      {"exists x y . E(x,y) & S(y)", false, "safe-plan extensional",
       "grounding_size"},
      {"exists x y . E(x,y) & S(y) & S(x)", true, "Cor 5.5", "grounding_size"},
      {"forall x . exists y . E(x,y) | S(x)", true, "Thm 5.12",
       "grounding_size"},
  };
  for (const Case& test_case : kCases) {
    SCOPED_TRACE(test_case.query);
    Request explain;
    explain.verb = RequestVerb::kExplain;
    explain.query = test_case.query;
    explain.options.force_approximate = test_case.force_approximate;
    Response response = server.Handle(explain);
    ASSERT_TRUE(response.ok()) << response.status.ToString();
    EXPECT_EQ(response.Field("planned_method")
                  .value_or("")
                  .rfind(test_case.planned_prefix, 0),
              0u)
        << response.Field("planned_method").value_or("");
    std::string expected =
        test_case.cost_field == nullptr
            ? "0"
            : response.Field(test_case.cost_field).value_or("missing");
    EXPECT_EQ(response.Field("admission_cost").value_or(""), expected);
    EXPECT_EQ(response.Field("admitted").value_or(""), "1");
  }
}

TEST(ServerTest, ZeroFixedSamplesIsATypedErrorAndNothingIsCached) {
  QrelServer server(TestEngine(), ServerOptions{});
  // The Thm 5.12 padded rung used to answer this with R=-nan, 0 samples.
  const std::string payload =
      "QUERY\nforall x . exists y . E(x,y) | S(x)\nforce_approx=1\n"
      "fixed_samples=0";
  for (int attempt = 0; attempt < 2; ++attempt) {
    StatusOr<Response> response = ParseResponse(server.HandlePayload(payload));
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_EQ(response->status.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(response->status.message().find("fixed_samples must be positive"),
              std::string::npos)
        << response->status.ToString();
  }
  StatusOr<Response> stats = ParseResponse(server.HandlePayload("STATS"));
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->Field("cache_entries").value_or(""), "0");
  EXPECT_EQ(stats->Field("cache_hits").value_or(""), "0");
}

TEST(ServerTest, OutOfRangeConstantIsATypedErrorAndNothingIsCached) {
  QrelServer server(TestEngine(), ServerOptions{});
  // Universe {0, 1, 2}: the constant 7 names no element. Evaluating the
  // atom E(x, 7) used to abort the whole server process.
  for (const char* payload : {"QUERY\nexists x . E(x, 7) & S(x)",
                              "EXPLAIN\nexists x . E(x, 7) & S(x)"}) {
    for (int attempt = 0; attempt < 2; ++attempt) {
      StatusOr<Response> response =
          ParseResponse(server.HandlePayload(payload));
      ASSERT_TRUE(response.ok()) << response.status().ToString();
      EXPECT_EQ(response->status.code(), StatusCode::kInvalidArgument)
          << payload;
      EXPECT_NE(response->status.message().find("constant-out-of-range"),
                std::string::npos)
          << response->status.ToString();
    }
  }
  StatusOr<Response> stats = ParseResponse(server.HandlePayload("STATS"));
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->Field("cache_entries").value_or(""), "0");
  EXPECT_EQ(stats->Field("cache_hits").value_or(""), "0");
}

TEST(ServerTest, CacheReplaysIdenticalQueriesAndKeysOnOptions) {
  QrelServer server(TestEngine(), ServerOptions{});
  Request request = QueryRequest("exists x y . E(x,y) & S(y)");

  Response first = server.Handle(request);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first.Field("cache").value_or(""), "miss");

  Response second = server.Handle(request);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second.Field("cache").value_or(""), "hit");
  EXPECT_EQ(second.Field("reliability"), first.Field("reliability"));

  // A different seed is a different determinism input: no replay.
  request.options.seed = 99;
  Response third = server.Handle(request);
  ASSERT_TRUE(third.ok());
  EXPECT_EQ(third.Field("cache").value_or(""), "miss");

  ServerStatsSnapshot stats = server.stats_snapshot();
  EXPECT_EQ(stats.cache_hits, 1u);
  EXPECT_EQ(stats.cache_misses, 2u);
}

TEST(ServerTest, EnvelopeDoesNotChangeTheStoreKey) {
  QrelServer server(TestEngine(), ServerOptions{});
  Request request = QueryRequest("exists x y . E(x,y) & S(y)");
  ASSERT_TRUE(server.Handle(request).ok());

  // Same determinism inputs, different envelope: the full-fidelity result
  // is envelope-independent, so it replays.
  request.options.timeout_ms = 60000;
  Response replay = server.Handle(request);
  ASSERT_TRUE(replay.ok());
  EXPECT_EQ(replay.Field("cache").value_or(""), "hit");
}

TEST(ServerTest, SingleFlightDeduplicatesAStampede) {
  ServerOptions options = GenerousOptions();
  QrelServer server(TestEngine(), options);
  Request slow = SlowRequest("exists x y . E(x,y) & S(y)", 300000);

  constexpr int kClients = 6;
  std::vector<Response> responses(kClients);
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int i = 0; i < kClients; ++i) {
    clients.emplace_back(
        [&server, &slow, &responses, i] { responses[i] = server.Handle(slow); });
  }
  for (std::thread& t : clients) {
    t.join();
  }

  for (int i = 0; i < kClients; ++i) {
    ASSERT_TRUE(responses[i].ok()) << responses[i].status.ToString();
    EXPECT_EQ(responses[i].Field("reliability"),
              responses[0].Field("reliability"));
    EXPECT_EQ(responses[i].Field("samples"), responses[0].Field("samples"));
  }
  ServerStatsSnapshot stats = server.stats_snapshot();
  // One leader computed; everyone else shared its flight or hit the store
  // (a client that arrived after the flight landed).
  EXPECT_EQ(stats.cache_misses, 1u);
  EXPECT_EQ(stats.cache_hits + stats.cache_shared,
            static_cast<uint64_t>(kClients - 1));
  EXPECT_EQ(stats.completed_ok, 1u);
}

TEST(ServerTest, QueueFullShedsWithTypedUnavailableAndRetryHint) {
  ServerOptions options = GenerousOptions();
  options.queue_capacity = 2;
  QrelServer server(TestEngine(), options);

  // Distinct slow queries (different seeds) so none of them share a
  // flight: one runs, two queue, the next must shed.
  auto slow = [](uint64_t seed) {
    Request request = SlowRequest("exists x y . E(x,y) & S(y)", 3000000);
    request.options.seed = seed;
    return request;
  };
  // Stagger the clients so none of them races another into the queue:
  // the first must be running before the two queued ones are submitted.
  std::vector<std::thread> clients;
  std::vector<Response> responses(3);
  auto submit = [&clients, &server, &slow, &responses](int i) {
    clients.emplace_back([&server, &slow, &responses, i] {
      responses[i] = server.Handle(slow(static_cast<uint64_t>(i) + 1));
    });
  };
  submit(0);
  WaitFor([&server] { return server.inflight() == 1; });
  submit(1);
  WaitFor([&server] { return server.queue_depth() == 1; });
  submit(2);
  WaitFor([&server] {
    return server.inflight() == 1 && server.queue_depth() == 2;
  });

  Response shed = server.Handle(slow(99));
  EXPECT_EQ(shed.status.code(), StatusCode::kUnavailable);
  EXPECT_TRUE(shed.retry_after_ms.has_value());
  EXPECT_GT(*shed.retry_after_ms, 0u);

  for (std::thread& t : clients) {
    t.join();
  }
  for (const Response& response : responses) {
    EXPECT_TRUE(response.ok()) << response.status.ToString();
  }
  ServerStatsSnapshot stats = server.stats_snapshot();
  EXPECT_EQ(stats.shed_queue_full, 1u);
  EXPECT_EQ(stats.completed_ok, 3u);
}

TEST(ServerTest, WorkQuotaShedsWhenSaturated) {
  ServerOptions options = GenerousOptions();
  options.queue_capacity = 16;
  options.default_max_work = uint64_t{1} << 22;
  options.max_request_work = uint64_t{1} << 22;
  // Room for exactly one default-budget request.
  options.work_quota = uint64_t{1} << 22;
  QrelServer server(TestEngine(), options);

  Request slow = SlowRequest("exists x y . E(x,y) & S(y)", 3000000);
  std::thread client([&server, &slow] { (void)server.Handle(slow); });
  WaitFor([&server] { return server.inflight() == 1; });

  Request other = SlowRequest("exists x y . E(x,y) & S(y)", 3000000);
  other.options.seed = 2;
  Response shed = server.Handle(other);
  EXPECT_EQ(shed.status.code(), StatusCode::kUnavailable);
  EXPECT_NE(shed.status.message().find("quota"), std::string::npos);

  client.join();
  EXPECT_EQ(server.stats_snapshot().shed_quota, 1u);
}

TEST(ServerTest, PressureDegradesInsteadOfQueueingBlindly) {
  ServerOptions options = GenerousOptions();
  options.pressure_watermark = 0;  // every dequeue counts as pressured
  options.pressure_fixed_samples = 64;
  QrelServer server(TestEngine(), options);

  // Force the sampling rung so degradation has something to coarsen.
  Request request = QueryRequest("exists x y . E(x,y) & S(y)");
  request.options.force_approximate = true;
  Response response = server.Handle(request);
  ASSERT_TRUE(response.ok()) << response.status.ToString();
  EXPECT_EQ(response.Field("pressure").value_or(""), "1");
  EXPECT_EQ(std::atoll(response.Field("samples").value_or("0").c_str()), 64);
  // The response reports the coarsened targets actually delivered.
  EXPECT_DOUBLE_EQ(std::atof(response.Field("epsilon").value_or("0").c_str()),
                   0.1);
  EXPECT_DOUBLE_EQ(std::atof(response.Field("delta").value_or("0").c_str()),
                   0.1);

  // Pressured answers are envelope-dependent: never replayed.
  Response again = server.Handle(request);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.Field("cache").value_or(""), "miss");
  EXPECT_GE(server.stats_snapshot().pressure_degraded, 2u);
}

TEST(ServerTest, DrainShedsNewWorkAndCancelsStragglers) {
  ServerOptions options = GenerousOptions();
  options.drain_grace_ms = 20;
  QrelServer server(TestEngine(), options);

  Request slow = SlowRequest("exists x y . E(x,y) & S(y)", 50000000);
  slow.options.max_work = uint64_t{1} << 27;
  Response slow_response;
  std::thread client(
      [&server, &slow, &slow_response] { slow_response = server.Handle(slow); });
  WaitFor([&server] { return server.inflight() == 1; });

  server.BeginDrain();
  Response shed = server.Handle(QueryRequest("S(x)"));
  EXPECT_EQ(shed.status.code(), StatusCode::kUnavailable);
  EXPECT_TRUE(shed.retry_after_ms.has_value());

  server.Drain();
  client.join();
  // The straggler outlived the grace period and was cancelled
  // cooperatively: a typed CANCELLED, not a hang and not a torn answer.
  EXPECT_EQ(slow_response.status.code(), StatusCode::kCancelled);
  ServerStatsSnapshot stats = server.stats_snapshot();
  EXPECT_GE(stats.drain_cancelled, 1u);
  EXPECT_EQ(stats.shed_draining, 1u);
  EXPECT_EQ(server.inflight(), 0u);
}

// The drain → checkpoint-abort → restart → resume loop, end to end: a
// drained server flushes the cancelled request's final checkpoint, and a
// fresh server answering the identical request resumes from it and
// produces the same answer an uninterrupted server produces.
TEST(ServerTest, DrainCheckpointAbortsAndAFreshServerResumes) {
  std::string dir = TestTempPath("qrel_server_ckpt");
  std::filesystem::remove_all(dir);
  ASSERT_TRUE(std::filesystem::create_directories(dir));

  ServerOptions options = GenerousOptions();
  options.checkpoint_dir = dir;
  options.checkpoint_interval_ms = 5;
  options.drain_grace_ms = 0;
  Request slow = SlowRequest("exists x y . E(x,y) & S(y)", 2000000);

  {
    QrelServer server(TestEngine(), options);
    Response cancelled;
    std::thread client(
        [&server, &slow, &cancelled] { cancelled = server.Handle(slow); });
    // Wait until the run has checkpointed at least once, so the drain
    // demonstrably aborts mid-computation.
    WaitFor([&dir] {
      return !std::filesystem::is_empty(std::filesystem::path(dir));
    });
    server.Drain();
    client.join();
    EXPECT_EQ(cancelled.status.code(), StatusCode::kCancelled);
  }
  // The snapshot survived the cancelled run.
  ASSERT_FALSE(std::filesystem::is_empty(std::filesystem::path(dir)));

  // A fresh server with the same checkpoint dir resumes the identical
  // request instead of recomputing from zero.
  Response resumed;
  {
    QrelServer server(TestEngine(), options);
    resumed = server.Handle(slow);
    ASSERT_TRUE(resumed.ok()) << resumed.status.ToString();
    EXPECT_EQ(server.stats_snapshot().checkpoint_resumes, 1u);
  }
  // Success deleted the snapshot.
  EXPECT_TRUE(std::filesystem::is_empty(std::filesystem::path(dir)));

  // Bit-identical to a never-interrupted run of the same request.
  Response baseline;
  {
    ServerOptions clean = GenerousOptions();
    QrelServer server(TestEngine(), clean);
    baseline = server.Handle(slow);
    ASSERT_TRUE(baseline.ok()) << baseline.status.ToString();
  }
  EXPECT_EQ(resumed.Field("reliability"), baseline.Field("reliability"));
  EXPECT_EQ(resumed.Field("samples"), baseline.Field("samples"));
  EXPECT_EQ(resumed.Field("budget_spent"), baseline.Field("budget_spent"));

  std::filesystem::remove_all(dir);
}

// A corrupt leftover snapshot must not make the query permanently
// unanswerable: the server deletes it, counts it, and runs fresh.
TEST(ServerTest, CorruptLeftoverCheckpointIsDeletedNotFatal) {
  std::string dir = TestTempPath("qrel_server_ckpt_corrupt");
  std::filesystem::remove_all(dir);
  ASSERT_TRUE(std::filesystem::create_directories(dir));

  ServerOptions options = GenerousOptions();
  options.checkpoint_dir = dir;

  // Produce a real leftover snapshot via a drain-abort, then corrupt it
  // in place — the checkpoint path is content-keyed and private, so this
  // is the way to plant garbage exactly where the next run will look.
  {
    ServerOptions abort_options = options;
    abort_options.checkpoint_interval_ms = 5;
    abort_options.drain_grace_ms = 0;
    QrelServer server(TestEngine(), abort_options);
    Request slow = SlowRequest("exists x y . E(x,y) & S(y)", 2000000);
    std::thread client([&server, &slow] { (void)server.Handle(slow); });
    WaitFor([&dir] {
      return !std::filesystem::is_empty(std::filesystem::path(dir));
    });
    server.Drain();
    client.join();
  }
  // Corrupt the leftover snapshot in place.
  std::string snapshot_path;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    snapshot_path = entry.path().string();
  }
  ASSERT_FALSE(snapshot_path.empty());
  {
    std::FILE* f = std::fopen(snapshot_path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("not a snapshot", f);
    std::fclose(f);
  }

  QrelServer server(TestEngine(), options);
  Request slow = SlowRequest("exists x y . E(x,y) & S(y)", 2000000);
  Response response = server.Handle(slow);
  ASSERT_TRUE(response.ok()) << response.status.ToString();
  ServerStatsSnapshot stats = server.stats_snapshot();
  EXPECT_EQ(stats.checkpoint_corrupt, 1u);
  EXPECT_EQ(stats.checkpoint_resumes, 0u);
  std::filesystem::remove_all(dir);
}

// N concurrent client threads hammering a mixed workload must get
// bit-identical answers to a single-threaded baseline: the engine is
// shared const state and every request is deterministically seeded.
TEST(ServerTest, ConcurrentClientsGetBitIdenticalAnswers) {
  std::vector<Request> workload;
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    Request sampled = SlowRequest("exists x y . E(x,y) & S(y)", 20000);
    sampled.options.seed = seed;
    workload.push_back(sampled);
    Request universal = SlowRequest("forall x . exists y . E(x,y) | S(x)",
                                    20000);
    universal.options.seed = seed;
    workload.push_back(universal);
  }
  workload.push_back(QueryRequest("exists x y . E(x,y) & S(y)"));
  workload.push_back(QueryRequest("S(x)"));

  // Single-threaded baseline, on its own server (cold cache).
  std::vector<std::string> baseline;
  {
    ServerOptions options = GenerousOptions();
    options.cache_capacity = 0;
    QrelServer server(TestEngine(), options);
    for (const Request& request : workload) {
      Response response = server.Handle(request);
      EXPECT_TRUE(response.ok()) << response.status.ToString();
      baseline.push_back(response.Field("reliability").value_or("?") + "|" +
                         response.Field("samples").value_or("?"));
    }
  }

  ServerOptions options = GenerousOptions();
  options.workers = 3;
  options.queue_capacity = 64;
  QrelServer server(TestEngine(), options);
  constexpr int kThreads = 6;
  std::vector<std::vector<std::string>> results(kThreads);
  std::vector<std::thread> clients;
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&server, &workload, &results, t] {
      for (const Request& request : workload) {
        Response response = server.Handle(request);
        ASSERT_TRUE(response.ok()) << response.status.ToString();
        results[t].push_back(response.Field("reliability").value_or("?") +
                             "|" + response.Field("samples").value_or("?"));
      }
    });
  }
  for (std::thread& t : clients) {
    t.join();
  }
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(results[t], baseline) << "thread " << t;
  }
}

// --------------------------------------------------------------------------
// Multi-database catalog and per-tenant isolation (PR 7).

// Same shape as kUdbText with one error rate changed, so the exact
// reliability of the canary query differs: (1 - 1/2*1/3)*(1 - 1/5) = 2/3
// instead of 3/5.
constexpr char kAltUdbText[] = R"(
universe 3
relation E 2
relation S 1
fact E 0 1 err=1/2
fact E 1 2 err=1/8
fact S 0
absent S 1 err=1/3
absent E 2 0 err=1/5
)";

UnreliableDatabase AltDatabase() {
  StatusOr<UnreliableDatabase> database = ParseUdb(kAltUdbText);
  EXPECT_TRUE(database.ok()) << database.status().ToString();
  return std::move(database).value();
}

Request AdminRequest(RequestVerb verb, const std::string& target,
                     const std::string& path = "") {
  Request request;
  request.verb = verb;
  request.target = target;
  request.path = path;
  return request;
}

TEST(ServerCatalogTest, RoutesQueriesByDbAndPinsVersionFields) {
  QrelServer server(TestEngine(), ServerOptions{});
  ASSERT_TRUE(server.catalog().AttachDatabase("alt", AltDatabase()).ok());

  Request request = QueryRequest("exists x y . E(x,y) & S(y)");
  Response on_default = server.Handle(request);
  ASSERT_TRUE(on_default.ok()) << on_default.status.ToString();
  EXPECT_EQ(on_default.Field("exact_value").value_or(""), "3/5");
  EXPECT_EQ(on_default.Field("db").value_or(""), "default");
  EXPECT_EQ(on_default.Field("db_version").value_or(""), "1");
  EXPECT_FALSE(on_default.Field("db_fingerprint").value_or("").empty());

  request.options.db = "alt";
  Response on_alt = server.Handle(request);
  ASSERT_TRUE(on_alt.ok()) << on_alt.status.ToString();
  EXPECT_EQ(on_alt.Field("exact_value").value_or(""), "2/3");
  EXPECT_EQ(on_alt.Field("db").value_or(""), "alt");
  EXPECT_NE(on_alt.Field("db_fingerprint"), on_default.Field("db_fingerprint"));

  // The cache keys on the database fingerprint: the same query against
  // the other database was a miss, not a cross-db replay.
  EXPECT_EQ(on_alt.Field("cache").value_or(""), "miss");

  request.options.db = "nonexistent";
  Response missing = server.Handle(request);
  EXPECT_EQ(missing.status.code(), StatusCode::kNotFound);

  request.options.db = "bad name!";
  Response invalid = server.Handle(request);
  EXPECT_EQ(invalid.status.code(), StatusCode::kInvalidArgument);
}

TEST(ServerCatalogTest, HealthReportsPerDatabaseReadiness) {
  QrelServer server(TestEngine(), ServerOptions{});
  ASSERT_TRUE(server.catalog().AttachDatabase("alt", AltDatabase()).ok());

  Request health;
  health.verb = RequestVerb::kHealth;
  Response response = server.Handle(health);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response.Field("ready").value_or(""), "1");
  EXPECT_EQ(response.Field("databases").value_or(""), "2");
  EXPECT_EQ(response.Field("db.default.state").value_or(""), "serving");
  EXPECT_EQ(response.Field("db.alt.state").value_or(""), "serving");
  EXPECT_FALSE(response.Field("db.alt.version").value_or("").empty());

  server.BeginDrain();
  response = server.Handle(health);
  EXPECT_EQ(response.Field("ready").value_or(""), "0");
  EXPECT_EQ(response.Field("state").value_or(""), "draining");
}

TEST(ServerCatalogTest, EmptyCatalogIsNotReady) {
  QrelServer server{ServerOptions{}};
  Request health;
  health.verb = RequestVerb::kHealth;
  Response response = server.Handle(health);
  EXPECT_EQ(response.Field("ready").value_or(""), "0");
  EXPECT_EQ(response.Field("databases").value_or(""), "0");
  // And a query routed at the (empty) default database fails typed.
  Response query = server.Handle(QueryRequest("S(x)"));
  EXPECT_EQ(query.status.code(), StatusCode::kNotFound);
}

TEST(ServerCatalogTest, AdminVerbsDriveTheFullLifecycle) {
  std::string path = WriteTestTempFile("qrel_admin_lifecycle.udb", kUdbText);
  QrelServer server(TestEngine(), ServerOptions{});

  // ATTACH a second database from disk.
  Response attached =
      server.Handle(AdminRequest(RequestVerb::kAttach, "spare", path));
  ASSERT_TRUE(attached.ok()) << attached.status.ToString();
  EXPECT_EQ(attached.Field("db").value_or(""), "spare");
  EXPECT_EQ(attached.Field("db_version").value_or(""), "1");
  EXPECT_EQ(attached.Field("universe_size").value_or(""), "3");

  // DBLIST sees both databases.
  Request dblist;
  dblist.verb = RequestVerb::kDblist;
  Response listed = server.Handle(dblist);
  ASSERT_TRUE(listed.ok());
  EXPECT_EQ(listed.Field("databases").value_or(""), "2");
  EXPECT_EQ(listed.Field("db.spare.state").value_or(""), "serving");
  EXPECT_EQ(listed.Field("db.spare.path").value_or(""), path);

  // Query it, then RELOAD with changed content: version bumps, the
  // fingerprint changes, and the answer follows the new content.
  Request request = QueryRequest("exists x y . E(x,y) & S(y)");
  request.options.db = "spare";
  Response before = server.Handle(request);
  ASSERT_TRUE(before.ok());
  EXPECT_EQ(before.Field("exact_value").value_or(""), "3/5");

  WriteTestTempFile("qrel_admin_lifecycle.udb", kAltUdbText);
  Response reloaded =
      server.Handle(AdminRequest(RequestVerb::kReload, "spare"));
  ASSERT_TRUE(reloaded.ok()) << reloaded.status.ToString();
  EXPECT_EQ(reloaded.Field("changed").value_or(""), "1");
  EXPECT_EQ(reloaded.Field("old_version").value_or(""), "1");
  EXPECT_EQ(reloaded.Field("new_version").value_or(""), "2");
  EXPECT_NE(reloaded.Field("old_fingerprint"),
            reloaded.Field("new_fingerprint"));

  Response after = server.Handle(request);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after.Field("exact_value").value_or(""), "2/3");
  EXPECT_EQ(after.Field("db_version").value_or(""), "2");
  EXPECT_EQ(after.Field("cache").value_or(""), "miss");

  // Reloading unchanged content is acknowledged but swaps nothing the
  // cache needs to forget.
  Response idempotent =
      server.Handle(AdminRequest(RequestVerb::kReload, "spare"));
  ASSERT_TRUE(idempotent.ok());
  EXPECT_EQ(idempotent.Field("changed").value_or(""), "0");

  // DETACH drains and removes it; further queries fail typed.
  Response detached =
      server.Handle(AdminRequest(RequestVerb::kDetach, "spare"));
  ASSERT_TRUE(detached.ok()) << detached.status.ToString();
  Response gone = server.Handle(request);
  EXPECT_EQ(gone.status.code(), StatusCode::kNotFound);
  listed = server.Handle(dblist);
  EXPECT_EQ(listed.Field("databases").value_or(""), "1");

  ServerStatsSnapshot stats = server.stats_snapshot();
  EXPECT_EQ(stats.attaches, 1u);
  EXPECT_EQ(stats.reloads, 2u);
  EXPECT_EQ(stats.detaches, 1u);
  std::remove(path.c_str());
}

TEST(ServerCatalogTest, FailedReloadLeavesTheOldVersionServing) {
  std::string path = WriteTestTempFile("qrel_failed_reload.udb", kUdbText);
  QrelServer server(TestEngine(), ServerOptions{});
  ASSERT_TRUE(
      server.Handle(AdminRequest(RequestVerb::kAttach, "spare", path)).ok());

  Request request = QueryRequest("exists x y . E(x,y) & S(y)");
  request.options.db = "spare";
  ASSERT_EQ(server.Handle(request).Field("exact_value").value_or(""), "3/5");

  // Poison the file, then reload: the reload fails typed and the old
  // version keeps serving, version and answer unchanged.
  WriteTestTempFile("qrel_failed_reload.udb", "universe banana\n");
  Response failed = server.Handle(AdminRequest(RequestVerb::kReload, "spare"));
  EXPECT_FALSE(failed.ok());

  Response still = server.Handle(request);
  ASSERT_TRUE(still.ok()) << still.status.ToString();
  EXPECT_EQ(still.Field("exact_value").value_or(""), "3/5");
  EXPECT_EQ(still.Field("db_version").value_or(""), "1");
  EXPECT_EQ(server.stats_snapshot().reload_failures, 1u);
  std::remove(path.c_str());
}

TEST(ServerTenantTest, TokenBucketShedsWithRefillHintPerTenant) {
  ServerOptions options;
  options.tenant_rate_per_sec = 1;  // refills far slower than the test runs
  options.tenant_burst = 2;
  QrelServer server(TestEngine(), options);

  Request request = QueryRequest("S(x) & !S(x)");  // statically false, cheap
  request.options.tenant = "acme";
  ASSERT_TRUE(server.Handle(request).ok());
  ASSERT_TRUE(server.Handle(request).ok());
  Response shed = server.Handle(request);
  EXPECT_EQ(shed.status.code(), StatusCode::kUnavailable);
  ASSERT_TRUE(shed.retry_after_ms.has_value());
  EXPECT_GT(*shed.retry_after_ms, 0u);

  // A different tenant has its own bucket and is untouched.
  request.options.tenant = "zen";
  EXPECT_TRUE(server.Handle(request).ok());

  ServerStatsSnapshot stats = server.stats_snapshot();
  EXPECT_EQ(stats.shed_tenant_rate, 1u);

  // Per-tenant counters, both via the typed snapshot and on the wire.
  std::vector<TenantStatsSnapshot> tenants = server.tenant_stats();
  ASSERT_EQ(tenants.size(), 2u);
  EXPECT_EQ(tenants[0].name, "acme");
  EXPECT_EQ(tenants[0].admitted, 2u);
  EXPECT_EQ(tenants[0].shed_rate, 1u);
  EXPECT_EQ(tenants[1].name, "zen");
  EXPECT_EQ(tenants[1].admitted, 1u);

  Request stats_request;
  stats_request.verb = RequestVerb::kStats;
  Response wire = server.Handle(stats_request);
  EXPECT_EQ(wire.Field("tenant.acme.admitted").value_or(""), "2");
  EXPECT_EQ(wire.Field("tenant.acme.shed_rate").value_or(""), "1");
  EXPECT_EQ(wire.Field("tenant.zen.admitted").value_or(""), "1");
}

TEST(ServerTenantTest, WorkQuotaCapsOneTenantWithoutTouchingOthers) {
  ServerOptions options;
  options.workers = 2;
  options.queue_capacity = 16;
  options.default_max_work = uint64_t{1} << 22;
  options.max_request_work = uint64_t{1} << 22;
  options.work_quota = uint64_t{1} << 30;
  // Room for exactly one default-budget request per tenant.
  options.tenant_work_quota = uint64_t{1} << 22;
  QrelServer server(TestEngine(), options);

  Request slow = SlowRequest("exists x y . E(x,y) & S(y)", 3000000);
  slow.options.tenant = "acme";
  std::thread hog([&server, &slow] { (void)server.Handle(slow); });
  WaitFor([&server] { return server.inflight() == 1; });

  Request second = slow;
  second.options.seed = 2;
  Response shed = server.Handle(second);
  EXPECT_EQ(shed.status.code(), StatusCode::kUnavailable);
  EXPECT_NE(shed.status.message().find("acme"), std::string::npos);

  // The other tenant's identical request admits fine.
  Request other = slow;
  other.options.seed = 3;
  other.options.tenant = "zen";
  Response fine = server.Handle(other);
  EXPECT_TRUE(fine.ok()) << fine.status.ToString();

  hog.join();
  ServerStatsSnapshot stats = server.stats_snapshot();
  EXPECT_EQ(stats.shed_tenant_quota, 1u);
  EXPECT_EQ(stats.shed_quota, 0u);
}

}  // namespace
}  // namespace qrel
